"""Experiment harness: reproduces the rate-bound, convergence, AP-selection
and benchmark studies at desk scale and writes deterministic CSV files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import fbl, montecarlo, optimizer
from .channel import estimation_stats
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
    cfg, seed, dep, decoder, power, trials, workers = task
    model = generate_topology(cfg, seed=seed + dep)
    params = fbl.FblParams.from_config(cfg)
    k = cfg.num_devices
    p = np.full(k, power)
    stats = estimation_stats(model, p)
    closed = fbl.lb_sinr(fbl.sinr_pieces(model, stats, cfg.antennas_per_ap, decoder), p)
    lb = fbl.lb_rate(closed, params, np.arange(k))
    mean, ci = montecarlo.ergodic_rate(model, stats, p, decoder, trials,
                                       seed + dep, cfg.antennas_per_ap, params, workers=workers)
    return (float(model.weights @ lb), float(model.weights @ mean),
            float(model.weights @ ci))


def _solve_point(task):
    """The proposed allocation on one deployment."""
    cfg, seed, dep, decoder = task
    return optimizer.solve(generate_topology(cfg, seed=seed + dep), cfg, decoder)


def _scheme_rates(task):
    """Weighted sum rate of every scheme on one deployment (0 when infeasible)."""
    cfg, seed, dep, decoder = task
    model = generate_topology(cfg, seed=seed + dep)
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
    return {scheme: res.weighted_sum_rate if res.feasible else 0.0
            for scheme, res in zip(SCHEMES, (proposed, upper, conventional, fixed))}


def _tightness_grid(base: SystemConfig, profile: dict):
    for decoder in fbl.DECODERS:
        for m in profile["tightness_aps"]:
            for mn in profile["tightness_mn"]:
                n = mn // m
                if mn % m == 0 and n > base.num_devices:
                    yield ([decoder, m, n, mn],
                           base.replace(num_aps=m, antennas_per_ap=n), decoder)


def _layouts(profile: dict):
    """(decoder, M, N) for every decoder and AP count, N = total antennas / M."""
    return [(decoder, m, profile["total_antennas"] // m)
            for decoder in fbl.DECODERS for m in profile["ap_counts"]]


def _threshold_layout(profile: dict) -> dict:
    m = max(profile["ap_counts"])
    return {"M": m, "N": profile["total_antennas"] // m}


def _threshold_grid(base: SystemConfig, profile: dict):
    layout = _threshold_layout(profile)
    for decoder in fbl.DECODERS:
        for th in THRESHOLD_GRID:
            yield [decoder, th], base.replace(
                num_aps=layout["M"], antennas_per_ap=layout["N"], ap_select_threshold=th,
                energy_budget=profile["threshold_energy"]), decoder


def _summary(vals: np.ndarray, ok: np.ndarray) -> list:
    """mean_wsr, mean_wsr_feasible, feasible_count and deployments."""
    return [float(vals.mean()), float(vals[ok].mean()) if ok.any() else 0.0,
            int(ok.sum()), len(vals)]


def _converge_rows(key, res):
    """Every iterate of the one (decoder, M, N) solve."""
    return [key + [rec["iteration"], rec["objective"], rec["gp_status"]]
            + rec["sinr"] + rec["pilot"] + rec["payload"]
            for rec in res[0].trace.rows()]


def _threshold_rows(key, res):
    vals = np.array([r.weighted_sum_rate if r.feasible else 0.0 for r in res])
    return [key + _summary(vals, np.array([r.feasible for r in res]))]


def _scheme_rows(key, res):
    """One row per scheme; a scheme counts as feasible where its rate is positive."""
    rows = []
    for scheme in SCHEMES:
        vals = np.array([r[scheme] for r in res])
        rows.append(key[:2] + [scheme] + key[2:] + _summary(vals, vals > 0))
    return rows


class Experiment(NamedTuple):
    """One CSV: every grid point runs on its deployments, and `aggregate`
    turns their results into that point's rows."""

    grid: Callable          # (base, profile) -> iterable of (key columns, cfg, decoder)
    deployments: str | None  # profile key of deployments per point; None: one, seed + 0
    point: Callable         # task (cfg, seed, deployment, decoder, *args) -> result
    args: Callable          # (profile, trials, workers) -> the task's args
    aggregate: Callable     # (key columns, results of one grid point) -> rows
    header: Callable        # num_devices -> column names
    extra: Callable         # (profile, trials) -> config-hash fields besides the name
    monte_carlo: bool = False  # whether it reads --trials


_SUMMARY = ["mean_wsr", "mean_wsr_feasible", "feasible_count", "deployments"]

EXPERIMENTS = {
    "tightness": Experiment(
        grid=_tightness_grid,
        deployments="tightness_deployments",
        point=_tightness_point,
        # one process: the Monte-Carlo blocks run on its thread pool; several:
        # the worker processes are the only parallelism
        args=lambda profile, trials, workers: (profile["tightness_power"], trials,
                                               None if workers == 1 else 1),
        aggregate=lambda key, res: [key + [float(np.mean([r[i] for r in res]))
                                           for i in range(3)]],
        header=lambda k: ["decoder", "M", "N", "MN", "lb_rate", "ergodic_rate", "ci"],
        extra=lambda profile, trials: {"trials": trials},
        monte_carlo=True),
    "converge": Experiment(
        grid=lambda base, profile: [
            ([d, m, n], base.replace(num_aps=m, antennas_per_ap=n), d)
            for d, m, n in _layouts(profile) if n > base.num_devices],
        deployments=None, point=_solve_point, args=lambda profile, trials, workers: (),
        aggregate=_converge_rows,
        header=lambda k: (["decoder", "M", "N", "iteration", "objective", "gp_status"]
                          + [f"{v}_{i}" for v in ("chi", "pp", "pd") for i in range(k)]),
        extra=lambda profile, trials: {}),
    "threshold-sweep": Experiment(
        grid=_threshold_grid,
        deployments="deployments", point=_solve_point, args=lambda profile, trials, workers: (),
        aggregate=_threshold_rows,
        header=lambda k: ["decoder", "threshold"] + _SUMMARY,
        extra=lambda profile, trials: _threshold_layout(profile)),
    "energy-compare": Experiment(
        grid=lambda base, profile: [
            ([d, m, e], base.replace(num_aps=m, antennas_per_ap=n, energy_budget=e), d)
            for d, m, n in _layouts(profile) if n > base.num_devices
            for e in profile["energy_grid"]],
        deployments="deployments", point=_scheme_rates, args=lambda profile, trials, workers: (),
        aggregate=_scheme_rows,
        header=lambda k: ["decoder", "M", "scheme", "energy"] + _SUMMARY,
        extra=lambda profile, trials: {}),
    "devices-sweep": Experiment(
        grid=lambda base, profile: [
            ([d, m, k], base.replace(num_aps=m, antennas_per_ap=n, num_devices=k), d)
            for d, m, n in _layouts(profile) for k in profile["devices_grid"] if k < n],
        deployments="deployments", point=_scheme_rates, args=lambda profile, trials, workers: (),
        aggregate=_scheme_rows,
        header=lambda k: ["decoder", "M", "scheme", "num_devices"] + _SUMMARY,
        extra=lambda profile, trials: {}),
}


def run_experiment(name: str, base: SystemConfig, profile: dict, seed: int,
                   out_dir: str, trials: int, workers: int) -> str:
    """Run one experiment, all its tasks through one worker pool, and write
    its CSV; returns the path."""
    exp = EXPERIMENTS[name]
    grid = list(exp.grid(base, profile))
    deps = profile[exp.deployments] if exp.deployments else 1
    args = exp.args(profile, trials, workers)
    tasks = [(cfg, seed, dep, decoder, *args)
             for _, cfg, decoder in grid for dep in range(deps)]
    res = _pool_map(exp.point, tasks, workers)
    rows = [row for i, (key, _, _) in enumerate(grid)
            for row in exp.aggregate(key, res[i * deps:(i + 1) * deps])]
    tag = name.replace("-", "_")
    path = os.path.join(out_dir, f"{tag}.csv")
    write_csv(path, exp.header(base.num_devices), rows, base, seed,
              {"experiment": tag, **exp.extra(profile, trials)})
    return path


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
    parser.add_argument("experiment", choices=list(EXPERIMENTS))
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.trials is not None and not EXPERIMENTS[args.experiment].monte_carlo:
        return _usage_error(f"--trials: {args.experiment} runs no Monte Carlo")
    profile = PROFILES[args.profile]
    try:
        # the profile sets the default device count; a config file overrides it
        base = SystemConfig(num_devices=profile["num_devices"])
        if args.config:
            base = load_config(args.config, base)
        if args.seed is not None:
            base = base.replace(master_seed=args.seed)
    except ConfigError as exc:
        return _usage_error(str(exc))
    except OSError as exc:
        return _usage_error(f"--config {args.config}: {exc.strerror}")
    seed = base.master_seed
    trials = args.trials if args.trials is not None else profile["trials"]
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        return _usage_error(f"--out {args.out}: {exc.strerror}")
    print(run_experiment(args.experiment, base, profile, seed, args.out, trials,
                         args.threads))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
