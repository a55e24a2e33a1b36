"""Benchmark record: every perfbench workload, repeated, summarized in one file.

    python bench.py --pr 36                    # this checkout -> BENCH_36.json
    python bench.py --pr 35 --checkout ../old  # another checkout, same host

Runs `perfbench/run.py` of the checkout as a subprocess, untraced, for the
three workloads at seeds 1 and 101, REPEATS times, the repeats outermost so
that host drift spreads over every workload. Each workload runs with the
`--seconds` of SECONDS, at least 10 s of work per run on the reference host
(perfbench's `--seconds` fixes the work at the seed commit's speed, which the
program has long outrun). One traced run per workload and seed, at perfbench's
default length, adds the per-layer counts. The file, written beside this
script as BENCH_<pr>.json, holds every run's end-to-end metrics and notes,
each metric's median and interquartile range per workload and seed, the traced
counts, the minor page faults and peak RSS the kernel reports for each run's
process tree (an untraced run's tree includes its set-up probes; a traced run
has none), and the host, Python, numpy, BLAS and commit of the checkout's
`.bench_out/` records. It also holds the wall time of each CLI experiment at
`--seed 1`, with the desk profile at `--threads 1` and the paper profile at
`--threads 2`, and of the Tier-1 suite, all run from the checkout's `src/`
with one BLAS thread per process (WALL_ENV), WALL_REPEATS times each (the
repeats outermost again), with their median, interquartile range and exit
codes. Its settings record WALL_ENV and the line count of the checkout's
package. Two files compare only when they come from one host.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
WORKLOADS = ("alloc-sweep", "alloc-large", "mc-tightness")
SEEDS = (1, 101)
REPEATS = 5
SECONDS = {"alloc-sweep": 1500, "alloc-large": 3000, "mc-tightness": 400}
TRACED_SECONDS = 30
# notes kept beside the metrics of every untraced run, and the process tree's
# rusage, with their units
EXTRA_UNITS = {"raw_points_per_s": "1/s", "raw_op_s_p50": "s", "raw_op_s_tail": "s",
               "host_speed_factor": "ratio", "op_count": "count", "op_fail_ratio": "ratio",
               "minflt": "count", "maxrss_mb": "MiB"}
# per-layer metrics that count work; the traced times are left to the spans
COUNT_UNITS = ("count",)
DESK_EXPERIMENTS = ("converge", "tightness", "threshold-sweep", "energy-compare",
                    "devices-sweep")
PAPER_THREADS = 2
WALL_REPEATS = 3
# every wall command runs on one BLAS thread per process, as perfbench pins its own
WALL_ENV = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """One perfbench run: its `.bench_out/` record plus the kernel's rusage
    of the run's process tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    if code == 2:
        raise RuntimeError(f"{' '.join(cmd)} could not run:\n{stderr}")
    record = json.loads((checkout / ".bench_out"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["exit_code"] = code
    record["rusage"] = {"minflt": usage.ru_minflt, "maxrss_mb": usage.ru_maxrss / 1024}
    return record


def run_entry(record: dict) -> dict:
    """The numbers of one untraced run that the summary reads."""
    entry = {name: m["value"] for name, m in record["metrics"].items()}
    entry.update({name: record["notes"][name] for name in EXTRA_UNITS
                  if name in record["notes"]})
    entry.update({"correct": record["correct"], "failed": record["failed"],
                  "attempted": record["attempted"], **record["rusage"]})
    return entry


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (inclusive method) and their distance."""
    if len(values) == 1:
        q1 = med = q3 = float(values[0])
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(runs: list[dict], units: dict) -> dict:
    """Median and IQR of every numeric field the runs share; booleans and
    failure counts are totalled instead."""
    names = [name for name in runs[0] if all(name in run for run in runs)]
    summary = {}
    for name in names:
        values = [run[name] for run in runs]
        if isinstance(values[0], bool):
            summary[name] = {"all": all(values)}
        elif name in ("failed", "attempted"):
            summary[name] = {"total": sum(values)}
        else:
            summary[name] = dict(quartiles(values), unit=units.get(name, EXTRA_UNITS.get(name)))
    return summary


def traced_counts(record: dict) -> dict:
    return {name: m["value"] for name, m in record["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def wall_commands(out_dir: str) -> dict[str, list[str]]:
    """The timed commands by name: each experiment of the desk profile at one
    thread and of the paper profile at PAPER_THREADS, writing its CSV to
    out_dir, and the Tier-1 suite; each runs in the checkout with its `src/`
    first on PYTHONPATH."""
    commands = {f"desk {name}": [sys.executable, "-m", "cfurllc", "--seed", "1", "--threads",
                                 "1", "--out", out_dir, name] for name in DESK_EXPERIMENTS}
    commands.update({f"paper {name}": [sys.executable, "-m", "cfurllc", "--profile", "paper",
                                       "--seed", "1", "--threads", str(PAPER_THREADS),
                                       "--out", out_dir, name] for name in DESK_EXPERIMENTS})
    commands["tier1"] = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    return commands


def time_command(cmd: list[str], checkout: Path) -> tuple[float, int]:
    """Wall time in seconds and exit code of one run of cmd in the checkout."""
    env = dict(os.environ, **WALL_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.perf_counter()
    code = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    return time.perf_counter() - start, code


def settings(checkout: Path) -> dict:
    """The run's settings, with the wall commands' environment and the line
    count of the checkout's package, as `wc -l src/cfurllc/*.py` totals it."""
    return {"repeats": REPEATS, "seeds": list(SEEDS), "seconds": SECONDS,
            "traced_seconds": TRACED_SECONDS, "wall_repeats": WALL_REPEATS,
            "paper_threads": PAPER_THREADS, "wall_env": WALL_ENV,
            "src_lines": sum(path.read_bytes().count(b"\n")
                             for path in (checkout / "src" / "cfurllc").glob("*.py"))}


def wall_summary(runs: dict[str, list[tuple[float, int]]]) -> dict:
    """Median and IQR of each command's wall times, beside every run's time
    and exit code."""
    return {name: dict(quartiles([t for t, _ in timed]), unit="s",
                       runs_s=[t for t, _ in timed], exit_codes=[c for _, c in timed])
            for name, timed in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout whose perfbench/run.py runs (default: this one)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "perfbench" / "run.py").is_file():
        parser.error(f"--checkout {checkout}: no perfbench/run.py")

    runs = {w: {str(s): [] for s in SEEDS} for w in WORKLOADS}
    units, environment = {}, None
    for repeat in range(REPEATS):
        for seed in SEEDS:
            for workload in WORKLOADS:
                record = run_perfbench(checkout, workload, seed, SECONDS[workload], 0)
                environment = environment or record["environment"]
                units.update({n: m["unit"] for n, m in record["metrics"].items()})
                runs[workload][str(seed)].append(run_entry(record))
                print(f"repeat {repeat} seed {seed} {workload}: points_per_s "
                      f"{record['metrics']['points_per_s']['value']:.4g}", flush=True)
    traced = {w: {} for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            record = run_perfbench(checkout, workload, seed, TRACED_SECONDS, 1)
            traced[workload][str(seed)] = {"counts": traced_counts(record),
                                           "correct": record["correct"], **record["rusage"]}

    wall = {}
    with tempfile.TemporaryDirectory() as out_dir:
        commands = wall_commands(out_dir)
        for repeat in range(WALL_REPEATS):
            for name, cmd in commands.items():
                wall.setdefault(name, []).append(time_command(cmd, checkout))
                print(f"repeat {repeat} {name}: {wall[name][-1][0]:.1f} s", flush=True)

    out = {"pr": args.pr, "checkout_commit": environment["commit"],
           "host": {key: environment[key] for key in ("cpu", "nproc", "python", "numpy",
                                                      "blas", "blas_threads")},
           "settings": settings(checkout),
           "workloads": {w: {seed: {"summary": summarize(seed_runs, units), "runs": seed_runs,
                                    "traced": traced[w][seed]}
                             for seed, seed_runs in runs[w].items()} for w in WORKLOADS},
           "wall": wall_summary(wall)}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
