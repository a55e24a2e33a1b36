"""Experiment harness: reproduces the rate-bound, convergence, AP-selection
and benchmark studies at desk scale and writes deterministic CSV files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import os
import sys

import numpy as np

from . import approx, fbl, montecarlo, optimizer
from .channel import estimation_stats
from .gp import Const, GpModel, Monomial, PosyProductSum, Sum, Var
from .scenario import (ConfigError, SystemConfig, config_hash, generate_topology,
                       load_config)

PROFILES = {
    # sizes chosen so the whole suite runs in minutes; the paper profile
    # scales everything up to the published dimensions
    "desk": {
        "num_devices": 5, "total_antennas": 48, "ap_counts": (1, 4),
        "trials": 1000, "deployments": 30,
        "tightness_mn": (72, 108), "tightness_aps": (1, 4, 9),
        "tightness_power": 2e11, "tightness_deployments": 3,
        "threshold_energy": 2e12,
        "energy_grid": (6e11, 1.2e12, 2.5e12, 5e12, 2e13),
        "devices_grid": (2, 4, 6, 8),
    },
    "paper": {
        "num_devices": 10, "total_antennas": 144, "ap_counts": (1, 4, 9),
        "trials": 10000, "deployments": 100,
        "tightness_mn": (72, 108, 144), "tightness_aps": (1, 4, 9),
        "tightness_power": 2e11, "tightness_deployments": 10,
        "threshold_energy": 2e12,
        "energy_grid": (6e11, 1.2e12, 2.5e12, 5e12, 2e13),
        "devices_grid": (2, 4, 6, 8, 9),
    },
}

THRESHOLD_GRID = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00)
SCHEMES = ("proposed", "upper_bound", "conventional", "fixed_pilot")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list], cfg: SystemConfig,
              seed: int, extra: dict | None = None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash(cfg, extra)}\n")
        fh.write(f"# master_seed={seed}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _pool_map(fn, tasks, workers: int):
    """Order-preserving map, optionally over worker processes."""
    if workers <= 1:
        return [fn(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _tightness_point(task):
    cfg, seed, dep, decoder, power, trials = task
    model = generate_topology(cfg, seed=seed + dep)
    params = fbl.FblParams.from_config(cfg)
    k = cfg.num_devices
    p = np.full(k, power)
    stats = estimation_stats(model, p)
    if decoder == "mrc":
        closed = fbl.lb_sinr_mrc(model, stats, p, cfg.antennas_per_ap)
    else:
        closed = fbl.lb_sinr_fzf(model, stats, p, cfg.antennas_per_ap)
    lb = np.array([fbl.lb_rate(closed[i], params, i) for i in range(k)])
    mean, ci = montecarlo.ergodic_rate(model, stats, p, decoder, trials,
                                       seed + dep, cfg.antennas_per_ap, params)
    return (float(model.weights @ lb), float(model.weights @ mean),
            float(model.weights @ ci))


def run_tightness(base: SystemConfig, profile: dict, seed: int, out_dir: str,
                  trials: int, workers: int) -> str:
    rows = []
    deps = profile["tightness_deployments"]
    for decoder in ("mrc", "fzf"):
        for m in profile["tightness_aps"]:
            for mn in profile["tightness_mn"]:
                if mn % m:
                    continue
                n = mn // m
                if n <= base.num_devices:
                    continue
                cfg = base.replace(num_aps=m, antennas_per_ap=n)
                tasks = [(cfg, seed, dep, decoder, profile["tightness_power"], trials)
                         for dep in range(deps)]
                res = _pool_map(_tightness_point, tasks, workers)
                lb = float(np.mean([r[0] for r in res]))
                erg = float(np.mean([r[1] for r in res]))
                ci = float(np.mean([r[2] for r in res]))
                rows.append([decoder, m, n, mn, lb, erg, ci])
    path = os.path.join(out_dir, "tightness.csv")
    write_csv(path, ["decoder", "M", "N", "MN", "lb_rate", "ergodic_rate", "ci"],
              rows, base, seed, {"experiment": "tightness", "trials": trials})
    return path


def _converge_rows(task):
    """CSV rows of one SCA trace: every iterate of one (decoder, M) solve."""
    cfg, seed, decoder = task
    model = generate_topology(cfg, seed=seed)
    res = optimizer.solve(model, cfg, decoder)
    return [[decoder, cfg.num_aps, cfg.antennas_per_ap, rec["iteration"],
             rec["objective"], rec["gp_status"]]
            + rec["sinr"] + rec["pilot"] + rec["payload"]
            for rec in res.trace.rows(decoder)]


def run_converge(base: SystemConfig, profile: dict, seed: int, out_dir: str,
                 workers: int) -> str:
    k = base.num_devices
    tasks = []
    for decoder in ("mrc", "fzf"):
        for m in profile["ap_counts"]:
            n = profile["total_antennas"] // m
            if n <= k:
                continue
            tasks.append((base.replace(num_aps=m, antennas_per_ap=n), seed, decoder))
    rows = [row for rows in _pool_map(_converge_rows, tasks, workers) for row in rows]
    header = (["decoder", "M", "N", "iteration", "objective", "gp_status"]
              + [f"chi_{i}" for i in range(k)]
              + [f"pp_{i}" for i in range(k)]
              + [f"pd_{i}" for i in range(k)])
    path = os.path.join(out_dir, "converge.csv")
    write_csv(path, header, rows, base, seed, {"experiment": "converge"})
    return path


def _scheme_rates(task):
    """Weighted sum rate of every scheme on one deployment."""
    cfg, seed, dep, decoder = task
    model = generate_topology(cfg, seed=seed + dep)
    out = {}
    proposed = optimizer.solve(model, cfg, decoder)
    upper = optimizer.benchmark_upper_bound(model, cfg, decoder)
    conventional = optimizer.benchmark_conventional(model, cfg, decoder, upper)
    fixed = optimizer.benchmark_fixed_pilot(model, cfg, decoder)
    # feasible-set inclusion: never return a joint allocation that loses to
    # the fixed-pilot point it dominates; restart from that point if needed
    if fixed.feasible and proposed.weighted_sum_rate < fixed.weighted_sum_rate:
        retry = optimizer.solve(model, cfg, decoder, start=fixed.allocation)
        if retry.weighted_sum_rate > proposed.weighted_sum_rate:
            proposed = retry
    out["proposed"] = proposed.weighted_sum_rate if proposed.feasible else 0.0
    out["upper_bound"] = upper.weighted_sum_rate if upper.feasible else 0.0
    out["conventional"] = conventional.weighted_sum_rate if conventional.feasible else 0.0
    out["fixed_pilot"] = fixed.weighted_sum_rate if fixed.feasible else 0.0
    out["feasible"] = proposed.feasible
    return out


def run_threshold_sweep(base: SystemConfig, profile: dict, seed: int, out_dir: str,
                        workers: int) -> str:
    deps = profile["deployments"]
    m = max(profile["ap_counts"])
    n = profile["total_antennas"] // m
    rows = []
    for decoder in ("mrc", "fzf"):
        for th in THRESHOLD_GRID:
            cfg = base.replace(num_aps=m, antennas_per_ap=n, ap_select_threshold=th,
                               energy_budget=profile["threshold_energy"])
            tasks = [(cfg, seed, dep, decoder) for dep in range(deps)]
            res = _pool_map(_proposed_rate, tasks, workers)
            vals = np.array([r[0] for r in res])
            feas = np.array([r[1] for r in res])
            rows.append([decoder, th, float(vals.mean()),
                         float(vals[feas].mean()) if feas.any() else 0.0,
                         int(feas.sum()), deps])
    path = os.path.join(out_dir, "threshold_sweep.csv")
    write_csv(path, ["decoder", "threshold", "mean_wsr", "mean_wsr_feasible",
                     "feasible_count", "deployments"], rows, base, seed,
              {"experiment": "threshold_sweep", "M": m, "N": n})
    return path


def _proposed_rate(task):
    cfg, seed, dep, decoder = task
    model = generate_topology(cfg, seed=seed + dep)
    res = optimizer.solve(model, cfg, decoder)
    return (res.weighted_sum_rate if res.feasible else 0.0, res.feasible)


def run_energy_compare(base: SystemConfig, profile: dict, seed: int, out_dir: str,
                       workers: int) -> str:
    deps = profile["deployments"]
    rows = []
    for decoder in ("mrc", "fzf"):
        for m in profile["ap_counts"]:
            n = profile["total_antennas"] // m
            if n <= base.num_devices:
                continue
            for energy in profile["energy_grid"]:
                cfg = base.replace(num_aps=m, antennas_per_ap=n,
                                   energy_budget=energy)
                tasks = [(cfg, seed, dep, decoder) for dep in range(deps)]
                res = _pool_map(_scheme_rates, tasks, workers)
                for scheme in SCHEMES:
                    vals = np.array([r[scheme] for r in res])
                    pos = vals > 0
                    rows.append([decoder, m, scheme, energy, float(vals.mean()),
                                 float(vals[pos].mean()) if pos.any() else 0.0,
                                 int(pos.sum()), deps])
    path = os.path.join(out_dir, "energy_compare.csv")
    write_csv(path, ["decoder", "M", "scheme", "energy", "mean_wsr",
                     "mean_wsr_feasible", "feasible_count", "deployments"],
              rows, base, seed, {"experiment": "energy_compare"})
    return path


def run_devices_sweep(base: SystemConfig, profile: dict, seed: int, out_dir: str,
                      workers: int) -> str:
    deps = profile["deployments"]
    rows = []
    for decoder in ("mrc", "fzf"):
        for m in profile["ap_counts"]:
            n = profile["total_antennas"] // m
            for k in profile["devices_grid"]:
                if k >= n:
                    continue
                cfg = base.replace(num_aps=m, antennas_per_ap=n, num_devices=k)
                tasks = [(cfg, seed, dep, decoder) for dep in range(deps)]
                res = _pool_map(_scheme_rates, tasks, workers)
                for scheme in SCHEMES:
                    vals = np.array([r[scheme] for r in res])
                    pos = vals > 0
                    rows.append([decoder, m, scheme, k, float(vals.mean()),
                                 float(vals[pos].mean()) if pos.any() else 0.0,
                                 int(pos.sum()), deps])
    path = os.path.join(out_dir, "devices_sweep.csv")
    write_csv(path, ["decoder", "M", "scheme", "num_devices", "mean_wsr",
                     "mean_wsr_feasible", "feasible_count", "deployments"],
              rows, base, seed, {"experiment": "devices_sweep"})
    return path


# ---------------------------------------------------------------------------
# GP self-test
# ---------------------------------------------------------------------------

def random_two_var_problem(rng: np.random.Generator) -> GpModel:
    """Bounded random GP in two variables with a monomial objective."""
    m = GpModel()
    x = m.variable("x")
    y = m.variable("y")
    m.maximize(Monomial(1.0, {0: float(rng.uniform(0.2, 1.5)),
                              1: float(rng.uniform(0.2, 1.5))}))
    cap = float(rng.uniform(2.0, 8.0))
    m.add_le(Sum([x, y]), Const(cap))
    for _ in range(rng.integers(1, 3)):
        terms = [Monomial(float(rng.uniform(0.2, 2.0)),
                          {0: float(rng.uniform(0.0, 2.0)),
                           1: float(rng.uniform(0.0, 2.0))})
                 for _ in range(rng.integers(1, 4))]
        m.add_le(Sum(terms), Const(float(rng.uniform(2.0, 30.0))))
    return m


def _eval_on_grid(expr, logx: np.ndarray, logy: np.ndarray) -> np.ndarray:
    """Vectorized positive-space value of {Const, Var, Monomial, Sum} expressions."""
    if isinstance(expr, Const):
        return np.full(logx.shape, math.exp(expr.log_value))
    if isinstance(expr, Var):
        return np.exp(logx if expr.index == 0 else logy)
    if isinstance(expr, Monomial):
        e = dict(expr.exponents)
        return np.exp(expr.log_coeff + e.get(0, 0.0) * logx + e.get(1, 0.0) * logy)
    if isinstance(expr, Sum):
        return sum(_eval_on_grid(t, logx, logy) for t in expr.terms)
    raise TypeError(f"grid oracle cannot evaluate {type(expr).__name__}")


def grid_optimum(m: GpModel, span=(1e-3, 10.0), coarse=1000, refine=1000) -> float:
    """Two-stage log-grid enumeration of a 2-variable GP's optimum."""
    lo, hi = math.log(span[0]), math.log(span[1])

    def stage(l0, l1, m0, m1, points):
        gx = np.linspace(l0, l1, points)
        gy = np.linspace(m0, m1, points)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        feas = np.ones(xx.shape, dtype=bool)
        for c in m._constraints:
            feas &= (_eval_on_grid(c.lhs, xx, yy)
                     <= _eval_on_grid(c.rhs, xx, yy) * (1 + 1e-12))
        objs = _eval_on_grid(m._objective, xx, yy)
        objs[~feas] = -np.inf
        best = np.unravel_index(int(np.argmax(objs)), objs.shape)
        return float(objs[best]), (gx[best[0]], gy[best[1]]), (gx[1] - gx[0], gy[1] - gy[0])

    val, pt, step = stage(lo, hi, lo, hi, coarse)
    val2, _, _ = stage(pt[0] - 2 * step[0], pt[0] + 2 * step[0],
                       pt[1] - 2 * step[1], pt[1] + 2 * step[1], refine)
    return max(val, val2)


def run_gp_selftest(seed: int) -> int:
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
        failures += 0 if ok else 1

    rng = np.random.default_rng(seed)
    # tangent-bound suites
    worst = 0.0
    for _ in range(1000):
        x_hat = float(rng.uniform(0.05, 20.0))
        x = float(rng.uniform(0.001, 50.0))
        rho, delta = approx.log1p_tangent(x_hat)
        worst = min(worst, math.log1p(x) - (rho * math.log(x) + delta))
    check("log1p-tangent-lower-bound", worst >= -1e-12, f"worst={worst:.2e}")

    worst = 0.0
    for _ in range(1000):
        x_hat = float(rng.uniform(approx.PENALTY_TANGENT_MIN, 20.0))
        x = float(rng.uniform(approx.PENALTY_TANGENT_MIN, 50.0))
        rho_t, delta_t = approx.penalty_tangent(x_hat)
        worst = min(worst, (rho_t * math.log(x) + delta_t) - fbl.penalty_factor(x))
    check("penalty-tangent-upper-bound", worst >= -1e-12, f"worst={worst:.2e}")

    # gradient check on a random node tree
    x = GpModel()
    vx = x.variable("x")
    expr = Sum([Monomial(2.0, {0: 1.3}),
                PosyProductSum(vx, [0.0], [0.5], [3.0, 0.7], [[1.0, 0.5]])])
    y0 = np.array([0.37])
    v, g, h = expr.log_eval(y0, 2, {})
    eps = 1e-6
    fd = (expr.log_eval(y0 + eps, 0, {})[0] - expr.log_eval(y0 - eps, 0, {})[0]) / (2 * eps)
    check("node-gradient-fd", abs(g[0] - fd) < 1e-6, f"delta={abs(g[0]-fd):.2e}")

    # solver vs grid enumeration
    worst_rel = 0.0
    sample_dump = None
    for i in range(10):
        prob = random_two_var_problem(np.random.default_rng(seed + i))
        if sample_dump is None:
            sample_dump = prob.dump()
        sol = prob.solve()
        if sol.status != "optimal":
            check(f"gp-oracle-{i}", False, f"status={sol.status}")
            continue
        ref = grid_optimum(prob)
        rel = abs(sol.objective - ref) / ref
        worst_rel = max(worst_rel, rel)
    check("gp-grid-oracle", worst_rel < 1e-3, f"worst rel={worst_rel:.2e}")
    print("sample normalized problem (s-expression):")
    print(sample_dump)
    return failures


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfurllc",
        description="Cell-free massive MIMO URLLC power-allocation experiments")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    parser.add_argument("--out", default=".", help="output directory for CSV files")
    parser.add_argument("--trials", type=_int_at_least(montecarlo.MIN_TRIALS),
                        default=None,
                        help=f"Monte-Carlo trials per point (>= {montecarlo.MIN_TRIALS})")
    parser.add_argument("--threads", type=_int_at_least(1), default=1,
                        help="worker processes for independent deployments (>= 1)")
    parser.add_argument("experiment",
                        choices=["tightness", "converge", "threshold-sweep",
                                 "energy-compare", "devices-sweep", "gp-selftest"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    profile = PROFILES[args.profile]
    try:
        # the profile sets the default device count; a config file overrides it
        base = SystemConfig(num_devices=profile["num_devices"])
        if args.config:
            base = load_config(args.config, base)
        if args.seed is not None:
            base = base.replace(master_seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = base.master_seed
    trials = args.trials if args.trials is not None else profile["trials"]
    os.makedirs(args.out, exist_ok=True)

    if args.experiment == "gp-selftest":
        return 1 if run_gp_selftest(seed) else 0
    if args.experiment == "tightness":
        path = run_tightness(base, profile, seed, args.out, trials, args.threads)
    elif args.experiment == "converge":
        path = run_converge(base, profile, seed, args.out, args.threads)
    elif args.experiment == "threshold-sweep":
        path = run_threshold_sweep(base, profile, seed, args.out, args.threads)
    elif args.experiment == "energy-compare":
        path = run_energy_compare(base, profile, seed, args.out, args.threads)
    else:
        path = run_devices_sweep(base, profile, seed, args.out, args.threads)
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
