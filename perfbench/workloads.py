"""The benchmark workloads: inputs made from the seed, one closed loop of
public-API calls per point, and the output checks.

Every call into the package goes through a module attribute
(`optimizer.solve`, `montecarlo.ergodic_rate`, ...), so the traced run can
wrap it. The checks use their own bindings, taken at import time, so they
stay out of the trace and out of the timings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from cfurllc import channel, fbl, montecarlo, optimizer, scenario
from cfurllc.channel import estimation_stats as _check_stats
from cfurllc.fbl import FblParams
from cfurllc.fbl import lb_rate as _check_lb_rate
from cfurllc.fbl import lb_sinr_fzf as _check_sinr_fzf
from cfurllc.fbl import lb_sinr_mrc as _check_sinr_mrc
from cfurllc.scenario import SystemConfig

OK_STATUSES = ("optimal", "infeasible")
CHECK_RTOL = 1e-6            # floors, energy budget, scheme ordering
MONOTONE_RTOL = 1e-9         # SCA objective may not drop by more than this
REFERENCE_WSR_RTOL = 0.02    # per-deployment WSR against the seed commit
LOWER_BOUND_CI_FACTOR = 3.0  # w.lb <= w.mean + 3 w.ci, about 6 sigma
REFERENCE_CI_FACTOR = 3.0    # |w.mean - ref| <= 3 (w.ci + ref ci), both sides
WARMUP_SEED = 20221123       # fixed warm-up deployment, independent of --seed

MC_TRIALS = 1000
MC_POWER = 2e11


@dataclass(frozen=True)
class Point:
    """One deployment or grid point of a workload."""

    index: int
    cfg: SystemConfig
    decoder: str
    topo_seed: int


@dataclass
class OpRecord:
    name: str
    seconds: float
    status: str                      # package status, or "error"
    failures: list[str] = field(default_factory=list)


@dataclass
class PointOutcome:
    """Everything one point did: timed ops, wall time, values for metrics."""

    index: int
    decoder: str
    seconds: float = 0.0             # raw wall time of the point's package calls
    ops: list[OpRecord] = field(default_factory=list)
    wsr: float | None = None         # proposed WSR (alloc) or w.mean (mc), bit/s
    ci: float | None = None          # w.ci of the Monte-Carlo mean (mc), bit/s
    verdicts: dict = field(default_factory=dict)
    retried: bool = False
    retry_useful: bool = False

    def op(self, name, fn, *args, **kwargs):
        """Time one top-level public call; a raise is recorded, not propagated."""
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed op is counted, the run goes on
            self.ops.append(OpRecord(name, perf_counter() - t0, "error",
                                     [f"raised {type(exc).__name__}: {exc}"]))
            return None
        status = getattr(out, "status", "optimal")
        self.ops.append(OpRecord(name, perf_counter() - t0, status))
        if status not in OK_STATUSES:
            self.ops[-1].failures.append(f"status {status}")
        return out


def derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

def _desk(decoder_energy):
    decoder, energy = decoder_energy
    return decoder, SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12,
                                 energy_budget=energy, ap_select_threshold=0.9)


def _large(decoder):
    return decoder, SystemConfig(num_devices=10, num_aps=9, antennas_per_ap=16,
                                 energy_budget=2e13, ap_select_threshold=0.9)


def _tightness(spec):
    decoder, aps, total = spec
    return decoder, SystemConfig(num_devices=5, num_aps=aps,
                                 antennas_per_ap=total // aps,
                                 ap_select_threshold=0.9)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple            # (decoder, SystemConfig) per point of one cycle
    cycle_seconds: float    # seed-commit wall time of one cycle, 2-core Xeon
    kind: str               # "sweep", "large" or "mc"
    layers: tuple           # modules that must record calls in a traced run

    def points(self, seed: int, seconds: float) -> list[Point]:
        """The run's inputs: whole cycles, as many as fill `seconds` at the
        seed commit's speed. The work is fixed by (seed, seconds), so counts
        repeat exactly and a faster program finishes sooner."""
        cycles = max(1, round(seconds / self.cycle_seconds))
        return [Point(i, cfg, decoder, derived_seed(seed, i))
                for i, (decoder, cfg) in
                enumerate(self.cycle * cycles)]

    def warmup_point(self) -> Point:
        decoder, cfg = self.cycle[0]
        return Point(-1, cfg, decoder, derived_seed(WARMUP_SEED))


ALLOC_LAYERS = ("scenario", "channel", "fbl", "approx", "gp", "optimizer")
MC_LAYERS = ("scenario", "channel", "fbl", "montecarlo")

WORKLOADS = {
    w.name: w for w in (
        Workload("alloc-sweep",
                 tuple(_desk(de) for de in (("mrc", 2e12), ("fzf", 2e12),
                                            ("mrc", 5e12), ("fzf", 5e12))),
                 7.2, "sweep", ALLOC_LAYERS),
        Workload("alloc-large", tuple(_large(d) for d in ("mrc", "fzf")),
                 3.6, "large", ALLOC_LAYERS),
        Workload("mc-tightness",
                 tuple(_tightness((d, m, mn)) for d in ("mrc", "fzf")
                       for m in (1, 4, 9) for mn in (72, 108)),
                 2.4, "mc", MC_LAYERS),
    )
}


# ---------------------------------------------------------------------------
# Running one point
# ---------------------------------------------------------------------------

def run_point(workload: Workload, pt: Point, full_sweep: bool | None = None) -> PointOutcome:
    """Run one point; `full_sweep=False` runs only the proposed solve."""
    if workload.kind == "mc":
        return _run_mc_point(pt)
    sweep = workload.kind == "sweep" if full_sweep is None else full_sweep
    return _run_alloc_point(pt, sweep)


def _run_alloc_point(pt: Point, sweep: bool) -> PointOutcome:
    cfg, dec = pt.cfg, pt.decoder
    out = PointOutcome(pt.index, dec)
    params = FblParams.from_config(cfg)
    to_check = []      # (OpRecord, SolveResult, FblParams), checked after timing

    def op(name, fn, *args, prm=params, **kwargs):
        res = out.op(name, fn, *args, **kwargs)
        if res is not None:
            to_check.append((out.ops[-1], res, prm))
        return res

    t0 = perf_counter()
    model = scenario.generate_topology(cfg, seed=pt.topo_seed)
    proposed = op("solve", optimizer.solve, model, cfg, dec)
    upper = conventional = fixed = None
    if sweep:
        upper = op("benchmark_upper_bound", optimizer.benchmark_upper_bound,
                   model, cfg, dec, prm=params.with_zero_dispersion())
        if upper is not None:
            conventional = optimizer.benchmark_conventional(model, cfg, dec, upper)
        fixed = op("benchmark_fixed_pilot", optimizer.benchmark_fixed_pilot,
                   model, cfg, dec)
        # the composition of cli._scheme_rates: restart from the fixed-pilot
        # point when it beats the joint allocation
        if (proposed is not None and fixed is not None and fixed.feasible
                and proposed.weighted_sum_rate < fixed.weighted_sum_rate):
            out.retried = True
            retry = op("retry", optimizer.solve, model, cfg, dec,
                       start=fixed.allocation)
            if retry is not None and retry.weighted_sum_rate > proposed.weighted_sum_rate:
                out.retry_useful = True
                proposed = retry
    out.seconds = perf_counter() - t0

    for rec, res, prm in to_check:
        rec.failures += _check_result(model, cfg, dec, res, prm)
    if proposed is None:
        return out
    out.verdicts["proposed"] = proposed.feasible
    out.wsr = proposed.weighted_sum_rate if proposed.feasible else None
    if sweep:
        if fixed is not None and fixed.feasible and not (
                proposed.feasible and proposed.weighted_sum_rate
                >= fixed.weighted_sum_rate * (1 - CHECK_RTOL)):
            out.ops[0].failures.append("proposed below fixed-pilot")
        for name, res in (("upper_bound", upper), ("conventional", conventional),
                          ("fixed_pilot", fixed)):
            if res is not None:
                out.verdicts[name] = res.feasible
    return out


def _check_result(model, cfg: SystemConfig, decoder: str, res, params: FblParams):
    """Floors, energy budget and SCA monotonicity of one returned allocation."""
    failures = []
    if not res.feasible:
        return failures
    alloc = res.allocation
    if np.any(alloc.energy(model.num_devices, cfg.blocklength)
              > model.energy * (1 + CHECK_RTOL)):
        failures.append("energy budget exceeded")
    stats = _check_stats(model, alloc.pilot)
    sinr_fn = _check_sinr_mrc if decoder == "mrc" else _check_sinr_fzf
    sinr = sinr_fn(model, stats, alloc.payload, cfg.antennas_per_ap)
    rates = np.array([_check_lb_rate(sinr[k], params, k)
                      for k in range(model.num_devices)])
    if np.any(rates < cfg.rate_req_bps * (1 - CHECK_RTOL)):
        failures.append("rate floor missed")
    obj = res.trace.objective
    if any(b < a * (1 - MONOTONE_RTOL) for a, b in zip(obj, obj[1:])):
        failures.append("SCA objective decreased")
    return failures


def _run_mc_point(pt: Point) -> PointOutcome:
    cfg, dec = pt.cfg, pt.decoder
    n, kdev = cfg.antennas_per_ap, cfg.num_devices
    out = PointOutcome(pt.index, dec)
    t0 = perf_counter()
    model = scenario.generate_topology(cfg, seed=pt.topo_seed)
    params = fbl.FblParams.from_config(cfg)
    power = np.full(kdev, MC_POWER)
    stats = channel.estimation_stats(model, power)
    sinr_fn = fbl.lb_sinr_mrc if dec == "mrc" else fbl.lb_sinr_fzf
    closed = sinr_fn(model, stats, power, n)
    lb = np.array([fbl.lb_rate(closed[k], params, k) for k in range(kdev)])
    res = out.op("ergodic_rate", montecarlo.ergodic_rate, model, stats, power, dec,
                 MC_TRIALS, pt.topo_seed, n, params)
    out.seconds = perf_counter() - t0
    if res is None:
        return out
    mean, ci = res
    rec = out.ops[-1]
    if not all(np.all(np.isfinite(a)) for a in (lb, mean, ci)) or np.any(ci <= 0):
        rec.failures.append("non-finite rate or confidence interval")
        return out
    w = model.weights
    if w @ lb > w @ mean + LOWER_BOUND_CI_FACTOR * (w @ ci):
        rec.failures.append("weighted lower bound above ergodic rate + 3 CI")
    out.wsr, out.ci = float(w @ mean), float(w @ ci)
    return out


# ---------------------------------------------------------------------------
# Reference values from the seed commit
# ---------------------------------------------------------------------------

def reference_entry(outcome: PointOutcome) -> dict:
    def mbps(value):
        return None if value is None else round(value / 1e6, 6)
    entry = {"verdicts": outcome.verdicts, "wsr_mbps": mbps(outcome.wsr)}
    if outcome.ci is not None:
        entry["ci_mbps"] = mbps(outcome.ci)
    return entry


def reference_failures(got: dict, want: dict) -> list[str]:
    """Verdicts must match exactly. The proposed WSR must be within
    REFERENCE_WSR_RTOL; a Monte-Carlo w.mean within REFERENCE_CI_FACTOR
    times the sum of both confidence half-widths, on either side."""
    failures = []
    if got["verdicts"] != want["verdicts"]:
        failures.append(f"verdicts {got['verdicts']} != reference {want['verdicts']}")
    a, b = got["wsr_mbps"], want["wsr_mbps"]
    if (a is None) != (b is None):
        close = False
    elif a is None:
        close = True
    elif "ci_mbps" in want:
        close = abs(a - b) <= REFERENCE_CI_FACTOR * (got.get("ci_mbps", 0.0) + want["ci_mbps"])
    else:
        close = math.isclose(a, b, rel_tol=REFERENCE_WSR_RTOL)
    if not close:
        failures.append(f"wsr {a} Mbit/s vs reference {b}")
    return failures
