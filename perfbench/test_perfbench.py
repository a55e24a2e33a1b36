"""The benchmark's own tests: per-layer counts repeat exactly across two
traced runs of one seed, coverage gaps fail a run, and the reference
check of Monte-Carlo rates is two-sided.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.pin_blas_threads()
run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402


def traced(workload: str):
    """One cycle of the workload, traced; every check, coverage too, passes."""
    record = run.run_workload(workload, seed=run.DEFAULT_SEED, seconds=1, trace=True)
    failures, attempted, failed = run.tally(record)
    assert failures == [] and failed == 0 and attempted > 1
    return run.per_layer(record)[0]


@pytest.mark.parametrize("workload", ["alloc-sweep", "mc-tightness"])
def test_counts_repeat_exactly(workload):
    first = traced(workload)
    second = traced(workload)
    counts = {k: v for k, (v, unit) in first.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in second.items() if unit == "count"}
    if workload == "mc-tightness":
        assert counts["montecarlo.trials"] == len(workloads.WORKLOADS[workload].cycle) \
            * workloads.MC_TRIALS
        assert counts["gp.solve.calls"] == 0
    else:
        assert counts["gp.newton_steps"] > 0 and counts["optimizer.sca_iterations"] > 0
        assert counts["montecarlo.trials"] == 0


def test_coverage_gap_fails_the_run(monkeypatch):
    """A renamed public function and a layer with no call are named
    failures; the run still completes and no op is counted as failed."""
    import cfurllc.approx as approx
    monkeypatch.delattr(approx, "fzf_gain_monomial")
    mc = workloads.WORKLOADS["mc-tightness"]
    monkeypatch.setitem(workloads.WORKLOADS, "mc-tightness",
                        dataclasses.replace(mc, layers=mc.layers + ("gp",)))
    record = run.run_workload("mc-tightness", seed=run.DEFAULT_SEED, seconds=1, trace=True)
    failures, _, failed = run.tally(record)
    assert failures == ["coverage: absent cfurllc.approx.fzf_gain_monomial",
                        "coverage: layer gp recorded no call"]
    assert failed == 0


def test_reference_check_is_two_sided():
    want = {"verdicts": {}, "wsr_mbps": 150.0, "ci_mbps": 1.0}
    inside = {"verdicts": {}, "wsr_mbps": 155.9, "ci_mbps": 1.0}
    assert workloads.reference_failures(inside, want) == []
    for wsr in (156.1, 143.9):
        assert workloads.reference_failures(dict(inside, wsr_mbps=wsr), want)


def test_missing_target_is_reported_not_fatal():
    import cfurllc.scenario as scenario
    tracer = tracing.Tracer()
    with tracer.install([(scenario, "no_such_function", "scenario.none", None)]):
        pass
    assert tracer.absent == ["cfurllc.scenario.no_such_function"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    spans = {s.id: s for s in tracer.spans}
    own = tracing._self_seconds(tracer.spans)
    root = spans[0]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert all(s.op == 0 for s in tracer.spans)
    assert own[0] == pytest.approx(root.seconds - spans[1].seconds - spans[2].seconds)
