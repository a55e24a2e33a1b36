"""Spans around the package's public functions, installed from outside.

`Tracer.install()` replaces each traced function on every module that binds
it (for example `optimizer.estimation_stats` next to
`channel.estimation_stats`) with a wrapper that records one span per call,
and `Tracer.uninstall()` puts the originals back. Spans stay in memory and
are written as JSON lines at the end of the run.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

from cfurllc import approx, channel, fbl, gp, montecarlo, optimizer, scenario


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "attrs")

    def __init__(self, sid, name, parent, op):
        self.id, self.name, self.parent, self.op = sid, name, parent, op
        self.start = perf_counter()
        self.end = None
        self.attrs = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        rec = {"id": self.id, "name": self.name, "parent": self.parent,
               "op": self.op, "start": self.start, "end": self.end}
        if self.attrs:
            rec.update(self.attrs)
        return rec


def _gp_attrs(sol, args, kwargs):
    return {"status": sol.status, "newton_steps": sol.iterations,
            "stages": len(sol.stage_objectives)}


def _solve_attrs(res, args, kwargs):
    obj = res.trace.objective
    return {"status": res.status, "sca_iterations": max(len(obj) - 1, 0)}


def _feasibility_attrs(out, args, kwargs):
    return {"useful": out[0] is not None}


def _ergodic_attrs(out, args, kwargs):
    decoder, trials = args[3], args[4]
    return {"decoder": decoder, "trials": trials}


# (owner, attribute, span name, attribute extractor). An owner is every
# module that binds the function, so calls from inside the package are seen.
TARGETS = (
    (scenario, "generate_topology", "scenario.generate_topology", None),
    (channel, "estimation_stats", "channel.estimation_stats", None),
    (optimizer, "estimation_stats", "channel.estimation_stats", None),
    (montecarlo, "draw_channel", "channel.draw_channel", None),
    (fbl, "lb_sinr_mrc", "fbl.lb_sinr", None),
    (fbl, "lb_sinr_fzf", "fbl.lb_sinr", None),
    (approx, "mrc_gain_monomial", "approx.gain_fit", None),
    (approx, "fzf_gain_monomial", "approx.gain_fit", None),
    (gp.GpModel, "solve", "gp.solve", _gp_attrs),
    (optimizer, "solve", "optimizer.solve", _solve_attrs),
    (optimizer, "feasibility_init", "optimizer.feasibility_init", _feasibility_attrs),
    (optimizer, "benchmark_upper_bound", "optimizer.benchmark_upper_bound", _solve_attrs),
    (optimizer, "benchmark_conventional", "optimizer.benchmark_conventional", None),
    (optimizer, "benchmark_fixed_pilot", "optimizer.benchmark_fixed_pilot", _solve_attrs),
    (montecarlo, "ergodic_rate", "montecarlo.ergodic_rate", _ergodic_attrs),
    (montecarlo, "simulate", "montecarlo.simulate", None),
    (montecarlo, "decode_mrc", "montecarlo.decode", None),
    (montecarlo, "decode_fzf", "montecarlo.decode", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), name,
                        None if parent is None else parent.id,
                        len(tracer.spans) if parent is None else parent.op)
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.end = perf_counter()
                span.attrs = {"error": type(exc).__name__}
                raise
            finally:
                tracer._stack.pop()
            span.end = perf_counter()
            if attrs is not None:
                span.attrs = attrs(out, args, kwargs)
            return out
        return traced

    def install(self, targets=TARGETS):
        """Wrap every target; a missing one is listed in `absent`, not fatal."""
        for owner, attr, name, attrs in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                self.absent.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, attrs))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    @staticmethod
    def span_cost_s(calls: int = 20000) -> float:
        """Wrapper cost of one span: a wrapped no-op against the bare no-op,
        best of three."""
        def noop():
            return None
        wrapped = Tracer().wrap("probe", noop)
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return max(best, 0.0)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced run, keyed by metric name."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    self_s = _self_seconds(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name, pick=lambda s: True):
        return sum(s.seconds for s in by_name.get(name, ()) if pick(s))

    def own(name):
        return sum(self_s[s.id] for s in by_name.get(name, ()))

    def attr(s, key, default=None):
        return (s.attrs or {}).get(key, default)

    def count(names, key, value):
        return sum(1 for n in names for s in by_name.get(n, ())
                   if attr(s, key) == value)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in ("scenario.generate_topology", "channel.estimation_stats",
                 "channel.draw_channel", "fbl.lb_sinr", "approx.gain_fit",
                 "gp.solve", "montecarlo.ergodic_rate"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)

    gp_spans = by_name.get("gp.solve", [])
    steps = [attr(s, "newton_steps", 0) for s in gp_spans]
    out["gp.newton_steps"] = sum(steps)
    out["gp.newton_step_us"] = 1e6 * ratio(busy("gp.solve"), sum(steps))
    out["gp.newton_steps_per_solve_p50"] = statistics.median(steps) if steps else 0
    out["gp.barrier_stages"] = sum(attr(s, "stages", 0) for s in gp_spans)
    for status in ("optimal", "infeasible", "max_iterations"):
        out[f"gp.status.{status}"] = count(["gp.solve"], "status", status)
    out["gp.errors"] = sum(1 for s in gp_spans if attr(s, "error"))

    out["optimizer.solve.calls"] = calls("optimizer.solve")
    out["optimizer.solve.busy_s"] = busy("optimizer.solve")
    out["optimizer.solve.self_s"] = own("optimizer.solve")
    out["optimizer.solve.infeasible_busy_s"] = busy(
        "optimizer.solve", lambda s: attr(s, "status") == "infeasible")
    feas = by_name.get("optimizer.feasibility_init", [])
    out["optimizer.feasibility_init.calls"] = len(feas)
    out["optimizer.feasibility_init.busy_s"] = busy("optimizer.feasibility_init")
    out["optimizer.feasibility_init.useful_ratio"] = ratio(
        sum(1 for s in feas if attr(s, "useful")), len(feas))
    for scheme in ("upper_bound", "conventional", "fixed_pilot"):
        out[f"optimizer.benchmark_{scheme}.busy_s"] = busy(f"optimizer.benchmark_{scheme}")
    sca = ("optimizer.solve", "optimizer.benchmark_upper_bound",
           "optimizer.benchmark_fixed_pilot")
    out["optimizer.sca_iterations"] = sum(attr(s, "sca_iterations", 0)
                                          for n in sca for s in by_name.get(n, ()))
    for status in ("optimal", "infeasible", "degraded", "aborted"):
        out[f"optimizer.status.{status}"] = count(sca, "status", status)

    erg = by_name.get("montecarlo.ergodic_rate", [])
    out["montecarlo.trials"] = sum(attr(s, "trials", 0) for s in erg)
    for dec in ("mrc", "fzf"):
        picked = [s for s in erg if attr(s, "decoder") == dec]
        out[f"montecarlo.trials_per_s.{dec}"] = ratio(
            sum(attr(s, "trials", 0) for s in picked), sum(s.seconds for s in picked))
    out["montecarlo.decode.busy_s"] = busy("montecarlo.decode")
    out["montecarlo.simulate.self_s"] = own("montecarlo.simulate")
    return out


def missing_layers(spans: list[Span], layers) -> list[str]:
    """Layers expected on the workload that recorded no call."""
    seen = {s.name.split(".")[0] for s in spans}
    return [layer for layer in layers if layer not in seen]
