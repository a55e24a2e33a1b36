"""cfurllc benchmark: closed-loop workloads over the package's public API.

    python3 perfbench/run.py --workload alloc-sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`. With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
it wraps each module's public functions and prints the per-layer metrics.
Every run checks the outputs. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the full record
(environment, per-op statuses, failures) goes to `.bench_out/`, and a traced
run also writes its spans there as JSON lines. Exit code 0 means every check
passed; 1 means a check failed; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
HELDOUT_SEED = 101          # kept out of tuning; claims must also hold here
SETUP_REPEATS = 5
SETUP_PROBE_TIMEOUT_S = 120
TAIL_MIN_BEYOND = 10        # op_s_tail: highest percentile with >= 10 ops beyond
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """One BLAS thread, set before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import cfurllc from this checkout's `src/`, never from site-packages."""
    if not (SRC / "cfurllc" / "__init__.py").is_file():
        raise ImportError(f"no package source at {SRC / 'cfurllc'}")
    sys.path.insert(0, str(SRC))
    import cfurllc
    if Path(cfurllc.__file__).resolve().parent != SRC / "cfurllc":
        raise ImportError(f"imported cfurllc from {cfurllc.__file__}")
    return cfurllc


def environment(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int, seconds: float) -> dict:
    """What a fresh process pays before its first timed op: imports, input
    generation and one warm-up op. Returns the warm-up outcome."""
    import workloads as wl
    w = wl.WORKLOADS[workload]
    w.points(seed, seconds)
    return warmup(w)


def warmup(w) -> dict:
    import workloads as wl
    out = wl.run_point(w, w.warmup_point(), full_sweep=False)
    return {"failures": [f for op in out.ops for f in op.failures],
            "reference": wl.reference_entry(out)}


def measure_setup(workload: str, seed: int, seconds: float) -> tuple[list[float], list[dict]]:
    """Set-up times of fresh interpreters, spawn to exit, and the probes'
    warm-up outcomes. Not scaled by host speed: a handful of kernel samples
    around the probes made the median noisier, not steadier."""
    times, outcomes = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_PROBE_TIMEOUT_S, check=False)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        outcomes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times, outcomes


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, run the workload's points in one closed loop, check outputs.

    Returns the record that `main` reports: point outcomes, the warm-up
    outcome and, when traced, the tracer and its overhead.
    """
    import speed
    import workloads as wl
    w = wl.WORKLOADS[workload]
    points = w.points(seed, seconds)
    reference = load_reference()

    warm = warmup(w)
    warm_ref = reference.get(workload, {}).get("warmup")
    if warm_ref is not None:
        warm["failures"] += wl.reference_failures(warm["reference"], warm_ref)

    def closed_loop():
        outcomes = []
        for pt in points:
            outcomes.append(wl.run_point(w, pt))
            clock.sample()
        return outcomes

    clock = speed.SpeedClock()
    tracer = overhead = None
    coverage = []
    if trace:
        import tracing
        tracer = tracing.Tracer()
        with tracer:
            outcomes = closed_loop()
        # one untraced cycle against one traced cycle is swamped by host
        # noise; the wrapper cost per span times the span count is not
        overhead = (len(tracer.spans) * tracer.span_cost_s()
                    / sum(o.seconds for o in outcomes))
        # a renamed function or a bypassed layer would read as a faster layer
        coverage = [f"coverage: absent {name}" for name in tracer.absent]
        coverage += [f"coverage: layer {layer} recorded no call" for layer in
                     tracing.missing_layers(tracer.spans, w.layers)]
    else:
        outcomes = closed_loop()

    ref_points = reference.get(workload, {}).get("seeds", {}).get(str(seed), [])
    for out in outcomes:
        if out.index < len(ref_points) and out.ops:
            out.ops[0].failures += [f"reference: {f}" for f in wl.reference_failures(
                wl.reference_entry(out), ref_points[out.index])]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "points": outcomes, "host_factor": clock.factor(), "warmup": warm,
            "tracer": tracer, "overhead": overhead, "coverage": coverage}


def tally(record: dict) -> tuple[list[str], int, int]:
    """Named check failures, attempted ops and failed ops; the warm-up op
    counts as one op. A traced run's coverage failures fail the run but no op."""
    failures = [f"warm-up: {f}" for f in record["warmup"]["failures"]]
    failures += record["coverage"]
    ops = [(p.index, op) for p in record["points"] for op in p.ops]
    for index, op in ops:
        failures += [f"point {index} {op.name}: {f}" for f in op.failures]
    failed = sum(1 for _, op in ops if op.failures) + bool(record["warmup"]["failures"])
    return failures, len(ops) + 1, failed


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with at least TAIL_MIN_BEYOND ops above it."""
    return max(0, math.floor(100.0 * (1.0 - TAIL_MIN_BEYOND / n_ops)))


def end_to_end(record: dict, setup_times: list[float]) -> tuple[dict, dict]:
    import resource

    import numpy as np
    points, factor = record["points"], record["host_factor"]
    raw = [op.seconds for p in points for op in p.ops]
    times = [t * factor for t in raw]
    pct = tail_percentile(len(times))
    wsr = [p.wsr for p in points if p.wsr is not None]
    raw_rate = len(points) / sum(p.seconds for p in points)
    metrics = {
        "points_per_s": (raw_rate / factor, "1/s"),
        "op_s_p50": (float(np.percentile(times, 50)), "s"),
        "op_s_tail": (float(np.percentile(times, pct)), "s"),
        "wsr_mbps": (statistics.fmean(wsr) / 1e6 if wsr else 0.0, "Mbit/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {"op_s_tail_percentile": pct, "op_count": len(times),
             "wsr_points": len(wsr), "setup_runs_s": setup_times,
             "raw_points_per_s": raw_rate,
             "raw_op_s_p50": float(np.percentile(raw, 50)),
             "raw_op_s_tail": float(np.percentile(raw, pct)),
             "host_speed_factor": factor}
    return metrics, notes


def layer_unit(name: str) -> str:
    if "trials_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def per_layer(record: dict) -> tuple[dict, dict]:
    """Span metrics; times at the reference host speed, like end_to_end."""
    import tracing
    tracer = record["tracer"]
    values = tracing.layer_metrics(tracer.spans)
    retried = [p for p in record["points"] if p.retried]
    values["optimizer.retry.calls"] = len(retried)
    values["optimizer.retry.useful_ratio"] = (
        sum(p.retry_useful for p in retried) / len(retried) if retried else 0.0)
    values["trace.overhead_ratio"] = record["overhead"]
    factor = record["host_factor"]
    scaled = {}
    for name, value in values.items():
        unit = layer_unit(name)
        scaled[name] = (value * factor if unit in ("s", "us") else
                        value / factor if unit == "1/s" else value, unit)
    notes = {"spans": len(tracer.spans), "host_speed_factor": factor}
    return scaled, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("alloc-sweep", "alloc-large", "mc-tightness"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; the held-out "
                             f"seed for checking claims is {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run length at the seed commit's speed; fixes the work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    pin_blas_threads()
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed, args.seconds)))
        return 0

    setup_times, probes = [], []
    if not args.trace:
        try:
            setup_times, probes = measure_setup(args.workload, args.seed, args.seconds)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if any(p["reference"] != record["warmup"]["reference"] for p in probes):
        record["warmup"]["failures"].append("a set-up probe's warm-up op gave another result")
    failures, attempted, failed = tally(record)
    if args.trace:
        metrics, notes = per_layer(record)
    else:
        metrics, notes = end_to_end(record, setup_times)
    notes["op_fail_ratio"] = failed / attempted

    correct = not failures
    print(f"workload {args.workload}  seed {args.seed}  points {len(record['points'])}"
          f"  ops attempted {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for name, value in notes.items():
        print(f"  {name:44s} {value}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  environment=environment(args.seed), notes=notes, failures=failures,
                  ops=[{"point": p.index, "decoder": p.decoder, "name": op.name,
                        "seconds": op.seconds, "status": op.status}
                       for p in record["points"] for op in p.ops])
    stem.with_name(stem.name + ".json").write_text(json.dumps(detail, indent=1) + "\n")
    if record["tracer"] is not None:
        record["tracer"].write_jsonl(stem.with_name(stem.name + ".spans.jsonl"))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
