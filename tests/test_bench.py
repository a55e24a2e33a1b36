"""The summaries of `bench.py` on canned run records and timings; no benchmark
or timed command runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from cfurllc import cli

_spec = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _record(points_per_s, minflt, correct=True, failed=0):
    return {"metrics": {"points_per_s": {"value": points_per_s, "unit": "1/s"},
                        "peak_rss_mb": {"value": 44.0 + points_per_s / 100, "unit": "MiB"}},
            "notes": {"raw_points_per_s": 2 * points_per_s, "op_count": 144,
                      "setup_runs_s": [0.2, 0.3]},
            "correct": correct, "failed": failed, "attempted": 145,
            "rusage": {"minflt": minflt, "maxrss_mb": 50.0}}


def test_summary_gives_median_and_interquartile_range():
    runs = [bench.run_entry(_record(v, f)) for v, f in
            ((90.0, 300), (80.0, 100), (100.0, 200), (70.0, 500), (110.0, 400))]
    summary = bench.summarize(runs, {"points_per_s": "1/s", "peak_rss_mb": "MiB"})
    # inclusive quartiles of 70, 80, 90, 100, 110
    assert summary["points_per_s"] == {"median": 90.0, "q1": 80.0, "q3": 100.0,
                                       "iqr": 20.0, "n": 5, "unit": "1/s"}
    assert summary["raw_points_per_s"]["median"] == 180.0
    assert summary["raw_points_per_s"]["unit"] == "1/s"
    assert summary["minflt"]["median"] == 300 and summary["minflt"]["unit"] == "count"
    assert summary["peak_rss_mb"]["median"] == pytest.approx(44.9)
    # a note that is not a number is not summarized
    assert "setup_runs_s" not in runs[0] and "setup_runs_s" not in summary


def test_summary_totals_failures_and_flags_any_incorrect_run():
    runs = [bench.run_entry(_record(90.0, 1)),
            bench.run_entry(_record(80.0, 1, correct=False, failed=2))]
    summary = bench.summarize(runs, {})
    assert summary["correct"] == {"all": False}
    assert summary["failed"] == {"total": 2} and summary["attempted"] == {"total": 290}


def test_one_run_has_no_spread():
    summary = bench.summarize([bench.run_entry(_record(90.0, 7))], {})
    assert summary["points_per_s"]["median"] == 90.0
    assert summary["points_per_s"]["iqr"] == 0.0


def test_traced_counts_keep_only_counts():
    record = {"metrics": {"channel.draw_channel.calls": {"value": 96, "unit": "count"},
                          "channel.draw_channel.busy_s": {"value": 0.1, "unit": "s"}}}
    assert bench.traced_counts(record) == {"channel.draw_channel.calls": 96}


def test_wall_summary_gives_median_and_interquartile_range_per_command():
    runs = {"desk converge": [(0.30, 0), (0.20, 0), (0.25, 0)],
            "tier1": [(27.0, 0), (25.0, 1), (26.0, 0)]}
    summary = bench.wall_summary(runs)
    assert set(summary) == {"desk converge", "tier1"}
    # inclusive quartiles of 25, 26, 27
    assert summary["tier1"] == {"median": 26.0, "q1": 25.5, "q3": 26.5, "iqr": 1.0, "n": 3,
                                "unit": "s", "runs_s": [27.0, 25.0, 26.0],
                                "exit_codes": [0, 1, 0]}
    assert summary["desk converge"]["median"] == 0.25


def test_wall_commands_run_every_desk_experiment_and_tier1():
    commands = bench.wall_commands("out")
    assert list(commands) == ([f"desk {name}" for name in bench.DESK_EXPERIMENTS]
                              + [f"paper {name}" for name in bench.DESK_EXPERIMENTS] + ["tier1"])
    assert set(bench.DESK_EXPERIMENTS) == set(cli.EXPERIMENTS)
    assert set(cli.PROFILES) == {"desk", "paper"}
    for name in bench.DESK_EXPERIMENTS:
        assert commands[f"desk {name}"][1:] == ["-m", "cfurllc", "--seed", "1", "--threads", "1",
                                                "--out", "out", name]
        assert commands[f"paper {name}"][1:] == ["-m", "cfurllc", "--profile", "paper", "--seed",
                                                 "1", "--threads", "2", "--out", "out", name]
    assert commands["tier1"][1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def test_wall_commands_run_on_one_blas_thread(tmp_path):
    assert bench.WALL_ENV == dict.fromkeys(cli.BLAS_THREAD_VARS, "1")
    check = [sys.executable, "-c", "import os, sys; "
             "sys.exit(any(os.environ.get(v) != '1' for v in sys.argv[1:]))", *bench.WALL_ENV]
    assert bench.time_command(check, tmp_path)[1] == 0


def test_settings_record_the_wall_environment_and_the_package_line_count(tmp_path):
    package = tmp_path / "src" / "cfurllc"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not a source\n")
    settings = bench.settings(tmp_path)
    assert settings["wall_env"] == bench.WALL_ENV and settings["src_lines"] == 3
    assert settings["paper_threads"] == bench.PAPER_THREADS
