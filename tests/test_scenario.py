import dataclasses
import math

import numpy as np
import pytest

from cfurllc.scenario import (ConfigError, SystemConfig, config_hash, generate_topology,
                              load_config, loss_constant_db, noise_power_w,
                              path_loss_db, select_aps)

from conftest import random_model, toy_model


def test_loss_constant_default_frequency_and_heights():
    # frozen from a term-by-term hand evaluation at 2100 MHz, 15 m, 1.6 m:
    # 46.3 + 112.6232341 - 16.2535812 - 4.7271060 + 4.3826621 = 142.3252090
    cfg = SystemConfig()
    assert loss_constant_db(cfg) == pytest.approx(142.3252090, abs=5e-6)


def test_path_loss_continuous_at_far_breakpoint():
    cfg = SystemConfig()
    d1 = cfg.far_breakpoint_m
    assert path_loss_db(d1, cfg) == pytest.approx(path_loss_db(d1 * (1 + 1e-12), cfg),
                                                  rel=1e-9)


def test_path_loss_far_branch_slope():
    cfg = SystemConfig()
    assert path_loss_db(100.0, cfg) == pytest.approx(loss_constant_db(cfg) + 70.0)


def test_path_loss_flat_below_near_breakpoint():
    cfg = SystemConfig()
    assert path_loss_db(1.0, cfg) == path_loss_db(cfg.near_breakpoint_m, cfg)


def test_path_loss_rejects_nonpositive_distance():
    cfg = SystemConfig()
    with pytest.raises(ValueError):
        path_loss_db(0.0, cfg)
    with pytest.raises(ValueError):
        path_loss_db(-3.0, cfg)


def test_path_loss_nondecreasing_beyond_near_breakpoint():
    cfg = SystemConfig()
    d = np.linspace(cfg.near_breakpoint_m, 1500.0, 500)
    pl = path_loss_db(d, cfg)
    assert np.all(np.diff(pl) >= -1e-12)


def test_noise_power_reference_values():
    cfg = SystemConfig(bandwidth_hz=10e6, noise_figure_db=9.0)
    assert noise_power_w(cfg) == pytest.approx(3.181213e-13, rel=1e-6)
    tiny = SystemConfig(bandwidth_hz=1.0, noise_figure_db=0.0)
    assert noise_power_w(tiny) == pytest.approx(4.0049e-21, rel=1e-12)


def test_noise_power_linear_in_bandwidth():
    a = noise_power_w(SystemConfig(bandwidth_hz=5e6))
    b = noise_power_w(SystemConfig(bandwidth_hz=10e6))
    assert b == pytest.approx(2 * a, rel=1e-12)


def test_select_aps_examples():
    assert select_aps(np.array([0.5, 0.3, 0.2]), 0.75) == (0, 1)
    assert select_aps(np.array([0.5, 0.3, 0.2]), 1.0) == (0, 1, 2)
    assert select_aps(np.array([1.7]), 0.3) == (0,)


def test_select_aps_minimal_prefix(rng):
    for _ in range(200):
        size = int(rng.integers(1, 12))
        beta = np.exp(rng.normal(0, 2, size))
        th = float(rng.uniform(0.05, 1.0))
        chosen = select_aps(beta, th)
        total = beta.sum()
        assert beta[list(chosen)].sum() >= th * total * (1 - 1e-9)
        if len(chosen) > 1:
            head = beta[list(chosen[:-1])].sum()
            assert head < th * total
        # descending gain order
        gains = beta[list(chosen)]
        assert np.all(np.diff(gains) <= 1e-15)


def test_select_aps_rejects_bad_input():
    with pytest.raises(ValueError):
        select_aps(np.array([]), 0.5)
    with pytest.raises(ValueError):
        select_aps(np.array([1.0]), 0.0)


def test_topology_single_ap_at_center():
    cfg = SystemConfig(num_aps=1, num_devices=4, antennas_per_ap=16)
    model = generate_topology(cfg, seed=1)
    assert np.allclose(model.positions_ap, [[500.0, 500.0]])
    assert all(s == (0,) for s in model.service_sets)


def test_topology_grid_spacing():
    cfg = SystemConfig(num_aps=4, num_devices=4, antennas_per_ap=16)
    model = generate_topology(cfg, seed=1)
    xs = sorted(set(model.positions_ap[:, 0]))
    assert xs == [250.0, 750.0]
    ys = sorted(set(model.positions_ap[:, 1]))
    assert ys == [250.0, 750.0]


def test_topology_rejects_non_square_ap_count():
    cfg = SystemConfig(num_aps=3, num_devices=4, antennas_per_ap=16)
    with pytest.raises(ConfigError):
        generate_topology(cfg, seed=1)


def test_topology_deterministic_and_positive():
    cfg = SystemConfig(num_aps=4, num_devices=6, antennas_per_ap=16)
    a = generate_topology(cfg, seed=9)
    b = generate_topology(cfg, seed=9)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.positions_dev, b.positions_dev)
    assert np.array_equal(a.weights, b.weights)
    assert np.all(a.beta > 0) and np.all(np.isfinite(a.beta))
    assert np.all((a.weights >= 0) & (a.weights <= 1))
    c = generate_topology(cfg, seed=10)
    assert not np.array_equal(a.beta, c.beta)


def test_config_validation():
    with pytest.raises(ConfigError):
        SystemConfig(num_devices=16, antennas_per_ap=16)   # needs K < N
    with pytest.raises(ConfigError):
        SystemConfig(ap_select_threshold=0.0)
    with pytest.raises(ConfigError):
        SystemConfig(dep_target=0.7)
    with pytest.raises(ConfigError):
        SystemConfig(num_devices=1200, antennas_per_ap=1300, blocklength=1000)
    bad = [("gp_tolerance", 0.0), ("gp_tolerance", -1e-9), ("energy_budget", math.nan),
           ("rate_req_bps", math.inf), ("noise_figure_db", -math.inf),
           ("sca_tolerance", math.nan), ("sca_tolerance", 0.0), ("sca_tolerance", -0.01),
           ("num_devices", 0), ("num_aps", 0), ("master_seed", -3)]
    for name, value in bad:
        with pytest.raises(ConfigError, match=name):
            SystemConfig(**{name: value})
    # the edges stay valid
    SystemConfig(num_devices=1, num_aps=1, master_seed=0, gp_tolerance=1e-300)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "bandwidth_hz = 5e6\n"
        "num_devices = 4   # inline comment\n"
        "master_seed = 77\n"
    )
    cfg = load_config(str(path))
    assert cfg.bandwidth_hz == 5e6
    assert cfg.num_devices == 4
    assert cfg.master_seed == 77


def test_config_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bandwidth_hz = 5e6\nnope\n")
    with pytest.raises(ConfigError, match=":2:"):
        load_config(str(path))
    path.write_text("bandwidth_hz = 5e6\nunknown_key = 3\n")
    with pytest.raises(ConfigError, match=":2:.*unknown_key"):
        load_config(str(path))
    path.write_text("num_devices = abc\n")
    with pytest.raises(ConfigError, match=":1:"):
        load_config(str(path))
    # a repeated key is an error, not a silent override, even with one value
    for text in ("num_devices = 4\nbandwidth_hz = 5e6\nnum_devices = 6\n",
                 "num_devices = 4\nbandwidth_hz = 5e6\nnum_devices = 4\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match=":3: key 'num_devices' repeated, "
                                              "first set on line 1$"):
            load_config(str(path))


def test_serving_subset_keeps_the_serving_aps_in_order():
    model = dataclasses.replace(
        toy_model(np.arange(1.0, 13.0).reshape(4, 3), service_sets=((3, 1), (1,), (3,))),
        positions_ap=np.arange(8.0).reshape(4, 2))
    sub = model.serving_subset()
    assert np.array_equal(sub.beta, model.beta[[1, 3]])
    assert np.array_equal(sub.positions_ap, model.positions_ap[[1, 3]])
    assert sub.service_sets == ((1, 0), (0,), (1,))
    for name in ("positions_dev", "weights", "energy"):
        assert getattr(sub, name) is getattr(model, name)
    every = toy_model(model.beta, service_sets=((0, 1), (2,), (3,)))
    assert every.serving_subset() is every


def test_service_mask_marks_each_service_set(rng):
    models = [toy_model(np.arange(1.0, 13.0).reshape(4, 3), service_sets=((3, 1), (1,), (3,))),
              toy_model(np.ones((2, 3)), service_sets=((0,), (), (1, 0))),
              toy_model(np.array([[0.7]]))]
    models += [random_model(rng, num_aps=6, set_size=size) for size in (1, 2, 3, None)
               for _ in range(5)]
    for model in models:
        for m in (model, model.serving_subset()):
            want = np.array([[ap in aps for ap in range(m.num_aps)] for aps in m.service_sets],
                            dtype=float).reshape(m.num_devices, m.num_aps)
            assert np.array_equal(m.service_mask, want)
            # built once and shared by every caller, so nobody may write it
            assert m.service_mask is m.service_mask and not m.service_mask.flags.writeable
        # re-indexing keeps each device's set: the mask loses the idle APs' columns
        served = model.service_mask.any(axis=0)
        assert np.array_equal(model.serving_subset().service_mask, model.service_mask[:, served])


def test_config_hash_stable_and_sensitive():
    cfg = SystemConfig()
    assert config_hash(cfg) == config_hash(SystemConfig())
    assert config_hash(cfg) != config_hash(cfg.replace(master_seed=2))
