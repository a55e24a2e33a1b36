import os
import re
from pathlib import Path

import pytest

import cfurllc
from cfurllc import cli, montecarlo, optimizer
from cfurllc.scenario import SystemConfig, load_config

TINY = {
    "num_devices": 3, "total_antennas": 16, "ap_counts": (1, 4),
    "trials": 400, "deployments": 4,
    "tightness_mn": (32,), "tightness_aps": (1, 4),
    "tightness_deployments": 2,
    "threshold_energy": 2e12,
    "energy_grid": (2e12,),
    "devices_grid": (2,),
}

BASE = SystemConfig(num_devices=3, energy_budget=5e12, master_seed=11,
                    gp_tolerance=1e-8)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_tightness_csv_contract(tmp_path):
    path = cli.run_experiment("tightness", BASE, TINY, out_dir=str(tmp_path),
                              trials=400, workers=1)
    lines = read(path).decode().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "# master_seed=11"
    assert lines[2] == "decoder,M,N,MN,lb_rate,ergodic_rate,ci"
    body = [ln.split(",") for ln in lines[3:]]
    assert len(body) == 4          # 2 decoders x 2 AP layouts
    for row in body:
        lb, erg, ci = float(row[4]), float(row[5]), float(row[6])
        assert erg >= lb - ci      # bound property on every emitted row


def test_converge_csv_monotone(tmp_path):
    path = cli.run_experiment("converge", BASE, TINY, out_dir=str(tmp_path),
                              trials=400, workers=1)
    lines = read(path).decode().splitlines()
    header = lines[2].split(",")
    assert header[:6] == ["decoder", "M", "N", "iteration", "objective", "gp_status"]
    traces = {}
    for ln in lines[3:]:
        parts = ln.split(",")
        traces.setdefault((parts[0], parts[1]), []).append(float(parts[4]))
    assert traces
    for key, objs in traces.items():
        assert all(b >= a * (1 - 1e-9) for a, b in zip(objs, objs[1:])), key


def test_converge_csv_identical_across_thread_counts(tmp_path):
    paths = []
    for workers in (1, 2):
        out = tmp_path / f"threads{workers}"
        os.makedirs(out)
        paths.append(cli.run_experiment("converge", BASE, TINY, str(out), 400,
                                        workers=workers))
    assert read(paths[0]) == read(paths[1])


def test_byte_identical_reruns_and_worker_counts(tmp_path):
    profile = dict(TINY, deployments=2)
    for experiment in cli.EXPERIMENTS:
        blobs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
            out = tmp_path / experiment / tag
            os.makedirs(out)
            blobs.append(read(cli.run_experiment(experiment, BASE, profile, str(out),
                                                 400, workers=workers)))
        assert blobs[0] == blobs[1] == blobs[2], experiment


def test_config_file_device_count_beats_profile(tmp_path):
    cfg = tmp_path / "three.cfg"
    cfg.write_text("num_devices = 3\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "converge"]) == 0
    header = read(tmp_path / "converge.csv").decode().splitlines()[2].split(",")
    assert [c for c in header if c.startswith("chi_")] == ["chi_0", "chi_1", "chi_2"]


def _blas_env(_):
    return {var: os.environ.get(var) for var in cli.BLAS_THREAD_VARS}


def test_pool_workers_run_one_blas_thread_unless_the_caller_set_one(monkeypatch):
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert cli._pool_map(_blas_env, [0, 1], 2) == [dict.fromkeys(cli.BLAS_THREAD_VARS, "1")] * 2
    assert _blas_env(0) == dict.fromkeys(cli.BLAS_THREAD_VARS)      # the caller's is restored
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    caller = _blas_env(0)
    assert caller == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}
    assert cli._pool_map(_blas_env, [0, 1], 2) == [caller] * 2


def test_scheme_rates_are_parallel_safe(tmp_path):
    cfg = BASE.replace(num_aps=4, antennas_per_ap=4, energy_budget=5e12)
    tasks = [(cfg, 11, dep, "mrc") for dep in range(3)]
    serial = cli._pool_map(cli._scheme_rates, tasks, 1)
    parallel = cli._pool_map(cli._scheme_rates, tasks, 2)
    assert serial == parallel


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_proposed_is_at_least_every_feasible_benchmark(decoder):
    # criterion 8's deployments: a feasible conventional or fixed-pilot
    # allocation is a feasible point of the proposed problem
    cfg = SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12,
                       ap_select_threshold=0.9, energy_budget=5e12, gp_tolerance=1e-8)
    for dep in range(30):
        rates = cli._scheme_rates((cfg, 900, dep, decoder))
        for scheme in ("conventional", "fixed_pilot"):
            assert rates[scheme] <= rates["proposed"] * (1 + 1e-9), (dep, scheme)


def test_converge_writes_a_status_row_for_a_layout_with_no_allocation(tmp_path):
    # no SINR reaches 1 Tbit/s: every layout's solve is infeasible before any
    # GP, and each still writes one row saying so
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("rate_req_bps = 1e12\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "converge"]) == 0
    lines = read(tmp_path / "converge.csv").decode().splitlines()
    header = lines[2].split(",")
    rows = [ln.split(",") for ln in lines[3:]]
    assert [row[:3] for row in rows] == [["mrc", "1", "48"], ["mrc", "4", "12"],
                                         ["fzf", "1", "48"], ["fzf", "4", "12"]]
    for row in rows:
        assert len(row) == len(header) == 6 + 3 * 5
        assert row[3:6] == ["0", "0", "infeasible"] and set(row[6:]) == {""}


def test_main_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n")
    rc = cli.main(["--config", str(bad), "converge"])
    assert rc == 2
    assert "nonsense_key" in capsys.readouterr().err
    # values that used to hang (a GP tolerance of 0 runs every GP to its
    # Newton budget) or die in a traceback deep in the solver
    out = tmp_path / "out"
    for line in ("gp_tolerance = 0", "gp_tolerance = -1", "energy_budget = nan",
                 "rate_req_bps = inf", "num_devices = 0", "num_aps = 0",
                 "master_seed = -3", "sca_tolerance = -1"):
        bad.write_text(line + "\n")
        rc = cli.main(["--config", str(bad), "--out", str(out), "converge"])
        assert rc == 2, line
        assert line.split()[0] in capsys.readouterr().err, line
    # a repeated key names both of its lines instead of keeping the last value
    bad.write_text("num_devices = 4\n# the device count again\nnum_devices = 6\n")
    assert cli.main(["--config", str(bad), "--out", str(out), "converge"]) == 2
    err = capsys.readouterr().err
    assert ":3:" in err and "'num_devices' repeated" in err and "line 1" in err
    assert cli.main(["--seed", "-3", "--out", str(out), "converge"]) == 2
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_a_master_seed_past_two_to_the_64(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["--seed", str(2 ** 64), "--out", str(out), "converge"]) == 2
    assert "master_seed" in capsys.readouterr().err
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(f"master_seed = {2 ** 64}\n")
    assert cli.main(["--config", str(cfg), "--out", str(out), "converge"]) == 2
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_seed_with_a_config_files_master_seed(tmp_path, capsys):
    # the file's seed would be overridden while its line still read 7
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("rate_req_bps = 5e6\nmaster_seed = 7\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--seed", "3", "--out", str(out), "converge"]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2:" in err and "'master_seed'" in err and "--seed" in err
    assert not out.exists()


def test_main_rejects_a_config_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"rate_req_bps = 5e6 \xff\xfe\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(bad), "--out", str(out), "converge"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not out.exists()


def test_main_rejects_missing_config_file(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["--config", str(tmp_path / "missing.cfg"), "--out", str(out), "converge"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --config") and "missing.cfg" in err
    assert not out.exists()


def test_main_rejects_out_naming_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert cli.main(["--out", str(taken), "converge"]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {taken}")
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_main_rejects_bad_thread_count(threads, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", threads, "--out", str(tmp_path), "converge"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("trials", [str(montecarlo.MIN_TRIALS - 1), "10", "0", "many"])
def test_main_rejects_too_few_trials(trials, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--trials", trials, "--out", str(tmp_path), "tightness"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("experiment",
                         ["converge", "threshold-sweep", "energy-compare", "devices-sweep"])
def test_main_rejects_trials_without_monte_carlo(experiment, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["--trials", "100", "--out", str(out), experiment]) == 2
    assert capsys.readouterr().err == f"error: --trials: {experiment} runs no Monte Carlo\n"
    assert not out.exists()


def test_threshold_sweep_emits_both_statistics(tmp_path):
    profile = dict(TINY, deployments=3)
    path = cli.run_experiment("threshold-sweep", BASE, profile,
                              out_dir=str(tmp_path), trials=400, workers=1)
    lines = read(path).decode().splitlines()
    assert lines[2].split(",")[:3] == ["decoder", "threshold", "mean_wsr"]
    rows = [ln.split(",") for ln in lines[3:]]
    assert len(rows) == 2 * len(cli.THRESHOLD_GRID)
    for row in rows:
        # zero-padded average never exceeds the feasible-only average
        assert float(row[2]) <= float(row[3]) + 1e-9 or int(row[4]) == 0


def test_energy_compare_scheme_rows(tmp_path):
    profile = dict(TINY, deployments=2, ap_counts=(4,))
    path = cli.run_experiment("energy-compare", BASE, profile,
                              out_dir=str(tmp_path), trials=400, workers=1)
    lines = read(path).decode().splitlines()
    rows = [ln.split(",") for ln in lines[3:]]
    # 2 decoders x 1 AP layout x 1 energy x 4 schemes
    assert len(rows) == 8
    schemes = {r[2] for r in rows}
    assert schemes == set(optimizer.SCHEMES)
    by_scheme = {(r[0], r[2]): float(r[4]) for r in rows}
    for dec in ("mrc", "fzf"):
        assert by_scheme[(dec, "upper_bound")] >= by_scheme[(dec, "proposed")] - 1e-6
        assert by_scheme[(dec, "proposed")] >= by_scheme[(dec, "fixed_pilot")] - 1e-6


def test_devices_sweep_respects_antenna_limit(tmp_path):
    profile = dict(TINY, deployments=2, ap_counts=(4,), devices_grid=(2, 3, 16))
    path = cli.run_experiment("devices-sweep", BASE, profile,
                              out_dir=str(tmp_path), trials=400, workers=1)
    lines = read(path).decode().splitlines()
    rows = [ln.split(",") for ln in lines[3:]]
    counts = {int(r[3]) for r in rows}
    assert counts == {2, 3}          # 16 devices exceed the 4 antennas per AP


@pytest.mark.parametrize("experiment, key, text", [
    ("tightness", "antennas_per_ap", "antennas_per_ap = 16"),
    ("converge", "num_aps", "num_aps = 9"),
    ("threshold-sweep", "ap_select_threshold", "ap_select_threshold = 0.8"),
    ("energy-compare", "energy_budget", "energy_budget = 1e13"),
    ("devices-sweep", "num_devices", "num_devices = 3"),
])
def test_main_rejects_a_key_the_experiment_sets(experiment, key, text, tmp_path, capsys):
    # the grid would override the file's value at every point while the
    # config_hash line still hashed it
    assert key in cli.swept_keys(experiment, SystemConfig(num_devices=5), cli.PROFILES["desk"])
    cfg = tmp_path / "swept.cfg"
    cfg.write_text(f"rate_req_bps = 5e6\n{text}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), experiment]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2:" in err and f"'{key}'" in err and experiment in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["converge", "energy-compare"])
def test_main_rejects_an_empty_grid(experiment, tmp_path, capsys):
    # every desk layout has N = 48 or 12 antennas per AP, at most 50 devices
    cfg = tmp_path / "crowded.cfg"
    cfg.write_text("num_devices = 50\nantennas_per_ap = 60\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), experiment]) == 2
    err = capsys.readouterr().err
    assert experiment in err and "num_devices = 50" in err
    assert not out.exists()


def test_main_runs_a_key_no_grid_sets(tmp_path):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("rate_req_bps = 4e6\n")
    assert all("rate_req_bps" not in cli.swept_keys(name, SystemConfig(num_devices=5),
                                                    cli.PROFILES["desk"])
               for name in cli.EXPERIMENTS)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "converge"]) == 0
    assert (tmp_path / "converge.csv").exists()


def test_energy_compare_with_an_unattainable_rate_counts_no_feasible_deployment(tmp_path):
    # no SINR reaches 1 Tbit/s: every scheme of every deployment is
    # infeasible before any GP is built, and the sweep still writes its CSV
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("rate_req_bps = 1e12\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "energy-compare"]) == 0
    lines = read(tmp_path / "energy_compare.csv").decode().splitlines()
    header = lines[2].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[3:]]
    assert len(rows) == 2 * 2 * 5 * len(optimizer.SCHEMES)     # decoders x layouts x energies
    assert {r["feasible_count"] for r in rows} == {"0"}
    assert {r["mean_wsr"] for r in rows} == {"0"}


def readme_blocks(lang):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.S | re.M), text


def test_readme_quick_start_runs():
    # the first python block, which imports exactly the package's exports
    block = readme_blocks("python")[0][0]
    exec(compile(block, "README.md", "exec"), {})
    (names,) = re.findall(r"^from cfurllc import (.*)$", block, re.M)
    assert names.split(", ") == cfurllc.__all__


def test_readme_config_runs_and_lists_each_experiments_swept_keys(tmp_path):
    (block,), text = readme_blocks("ini")
    cfg = tmp_path / "example.cfg"
    cfg.write_text(block)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "converge"]) == 0
    # the table of keys each experiment sets, against its grid
    table = text[text.index("| keys it sets |"):].split("\n\n")[0]
    base = load_config(str(cfg), SystemConfig(num_devices=5))
    for name in cli.EXPERIMENTS:
        (row,) = re.findall(rf"^\| `{name}` +\| (.*) \|$", table, re.M)
        assert set(re.findall(r"`(\w+)`", row)) == cli.swept_keys(name, base,
                                                                  cli.PROFILES["desk"]), name
