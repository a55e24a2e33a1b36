import dataclasses
import functools
import sys
import threading
import warnings

import numpy as np
import pytest

from cfurllc import fbl, montecarlo as mc
from cfurllc.channel import draw_channel, estimation_stats, span_layout, substream
from cfurllc.fbl import lb_rate, lb_sinr_fzf, lb_sinr_mrc
from cfurllc.scenario import SystemConfig, generate_topology

from conftest import toy_model
from oracles import (draw_channel_full_antenna, expected_terms_fzf, expected_terms_mrc,
                     fzf_vectors_by_gram, gram_rank_worst, in_estimate_span)


def validation_setup(pilot=2e10, payload=2e10):
    cfg = SystemConfig(num_devices=3, num_aps=4, antennas_per_ap=8,
                       ap_select_threshold=0.9)
    model = generate_topology(cfg, seed=3)
    params = fbl.FblParams.from_config(cfg)
    k = cfg.num_devices
    pp = np.full(k, pilot)
    pd = np.full(k, payload)
    stats = estimation_stats(model, pp)
    return cfg, model, params, stats, pd


def three_sigma(sample_matrix, expected):
    got = sample_matrix.mean(axis=0)
    se = sample_matrix.std(axis=0, ddof=1) / np.sqrt(sample_matrix.shape[0])
    return np.abs(got - expected) <= 3 * np.maximum(se, 1e-300)


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_decoder_terms_match_closed_forms(decoder):
    cfg, model, params, stats, pd = validation_setup()
    out = mc.simulate(model, stats, pd, decoder, 10000, seed=17,
                      n_antennas=8, params=params)
    expected = (expected_terms_mrc if decoder == "mrc"
                else expected_terms_fzf)(model, stats, pd, 8)
    assert np.allclose(out.ds2, expected["ds2"], rtol=1e-12)   # deterministic
    assert three_sigma(out.ls2, expected["ls2"]).all()
    assert three_sigma(out.n2, expected["n2"]).all()
    off_diag = ~np.eye(3, dtype=bool)
    ok = three_sigma(out.ui2.reshape(10000, -1),
                     expected["ui2"].reshape(-1)).reshape(3, 3)
    assert ok[off_diag].all()


def test_fzf_nulls_known_channels_in_perfect_csi_limit():
    cfg, model, params, stats, pd = validation_setup(pilot=1e16)
    out = mc.simulate(model, stats, pd, "fzf", 500, seed=4, n_antennas=8,
                      params=params)
    # leaked and interfering power collapse relative to the desired power
    assert out.ls2.mean() < 1e-5 * out.ds2.mean()
    assert out.ui2.mean() < 1e-5 * out.ds2.mean()


def test_harmonic_mean_sinr_matches_closed_form():
    cfg, model, params, stats, pd = validation_setup()
    for decoder, closed_fn in (("mrc", lb_sinr_mrc), ("fzf", lb_sinr_fzf)):
        out = mc.simulate(model, stats, pd, decoder, 8000, seed=23,
                          n_antennas=8, params=params)
        inv = 1.0 / out.sinr
        closed = closed_fn(model, stats, pd, 8)
        se = inv.std(axis=0, ddof=1) / np.sqrt(inv.shape[0])
        assert np.all(np.abs(inv.mean(axis=0) - 1.0 / closed) <= 3 * se)


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_ergodic_rate_dominates_lower_bound(decoder):
    cfg, model, params, stats, pd = validation_setup()
    closed_fn = lb_sinr_mrc if decoder == "mrc" else lb_sinr_fzf
    closed = closed_fn(model, stats, pd, 8)
    lb = np.array([lb_rate(closed[k], params, k) for k in range(3)])
    mean, ci = mc.ergodic_rate(model, stats, pd, decoder, 3000, 9, 8, params)
    assert np.all(mean >= lb - ci)


def test_rates_clamped_nonnegative():
    cfg, model, params, stats, _ = validation_setup()
    out = mc.simulate(model, stats, np.full(3, 1e4), "mrc", 300, seed=2,
                      n_antennas=8, params=params)
    assert np.all(out.rate >= 0.0)
    assert np.all(out.sinr >= 0.0)


def test_simulation_deterministic_and_order_independent():
    cfg, model, params, stats, pd = validation_setup()
    assert 300 > 2 * mc.TRIAL_BLOCK + 1
    for decoder in ("mrc", "fzf"):
        def run(trials, seed=5):
            return mc.simulate(model, stats, pd, decoder, trials, seed=seed,
                               n_antennas=8, params=params)

        a = run(300)
        b = run(300)
        assert np.array_equal(a.sinr, b.sinr)
        # trial outcomes do not depend on how many trials run after them,
        # including at and across the internal block boundaries
        for count in (270, mc.TRIAL_BLOCK - 1, mc.TRIAL_BLOCK, mc.TRIAL_BLOCK + 1,
                      2 * mc.TRIAL_BLOCK + 1):
            c = run(count)
            assert np.array_equal(a.sinr[:count], c.sinr), (decoder, count)
            assert np.array_equal(a.n2[:count], c.n2), (decoder, count)
        d = run(300, seed=6)
        assert not np.array_equal(a.sinr, d.sinr)


def _simulate_within(seconds, *args, **kwargs):
    """mc.simulate on its own thread; fails instead of hanging past `seconds`."""
    out = []
    runner = threading.Thread(target=lambda: out.append(mc.simulate(*args, **kwargs)),
                              daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive() and len(out) == 1
    return out[0]


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_simulation_identical_on_any_number_of_workers(decoder):
    cfg, model, params, stats, pd = validation_setup()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # switch threads often to shake out interleavings
    try:
        for count in (1, mc.TRIAL_BLOCK - 1, mc.TRIAL_BLOCK, mc.TRIAL_BLOCK + 1,
                      2 * mc.TRIAL_BLOCK + 1, 300):
            # 8 workers: more threads than cores, and than blocks at most counts
            runs = [_simulate_within(60, model, stats, pd, decoder, count, seed=5,
                                     n_antennas=8, params=params, workers=workers)
                    for workers in (1, 2, 8)]
            for out in runs[1:]:
                assert np.array_equal(out.ds2, runs[0].ds2)
                for name in ("ls2", "ui2", "n2", "sinr", "rate"):
                    assert np.array_equal(getattr(out, name), getattr(runs[0], name)), \
                        (decoder, count, name)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [0, -1, 1.5, True])
def test_workers_must_be_a_positive_int(workers):
    cfg, model, params, stats, pd = validation_setup()
    with pytest.raises(ValueError, match="workers must be"):
        mc.simulate(model, stats, pd, "mrc", 100, seed=8, n_antennas=8,
                    params=params, workers=workers)
    with pytest.raises(ValueError, match="workers must be"):
        mc.ergodic_rate(model, stats, pd, "mrc", 100, 8, 8, params, workers=workers)


def padded_setup(pilot=2e10, payload=2e10):
    """A deployment whose serving APs serve 1, 2, 2 and 3 of its 5 devices,
    so every AP but one draws padding coordinates."""
    cfg = SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=8,
                       ap_select_threshold=0.9)
    model = generate_topology(cfg, seed=2)
    params = fbl.FblParams.from_config(cfg)
    stats = estimation_stats(model, np.full(5, pilot))
    return cfg, model, params, stats, np.full(5, payload)


# Bound on each two-sample z-score below, fixed before the test first ran:
# 30 device terms over both decoders at |z| <= 4 give a family-wise
# false-alarm probability of about 30 * 6.3e-5 = 0.2% under the same law;
# the padded deployment's 70 more bring it to about 100 * 6.3e-5 = 0.6%.
TWO_SAMPLE_Z = 4.0


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_simulate_matches_decoders_fed_the_full_antenna_draw(decoder, monkeypatch):
    draw, coordinates = mc.draw_channel, []

    def counted(*args, **kwargs):
        real = draw(*args, **kwargs)
        coordinates.append(real.g.shape[3])
        return real

    monkeypatch.setattr(mc, "draw_channel", counted)
    trials = 20000
    for setup in (validation_setup, padded_setup):
        cfg, model, params, stats, pd = setup()
        serving = model.serving_subset()
        served = serving.service_mask.sum(axis=0).astype(int)          # |D_m|
        assert served.max() < model.num_devices and served.min() < served.max()
        coordinates.clear()
        out = mc.simulate(model, stats, pd, decoder, trials, seed=41, n_antennas=8,
                          params=params)
        # each serving AP is drawn in max |D_m| coordinates, not in K
        assert coordinates == [served.max()] * -(-trials // mc.TRIAL_BLOCK)
        serving_stats = estimation_stats(serving, stats.pilot_power)
        decode = mc.decode_mrc if decoder == "mrc" else mc.decode_fzf
        # zero-forcing takes its square triangular estimate from the projection
        # onto each AP's estimate span, which keeps every in-span inner product
        project = (lambda real: real) if decoder == "mrc" else in_estimate_span
        blocks = [decode(project(draw_channel_full_antenna(serving, serving_stats, 8,
                                                           substream(42, b), trials=2000)),
                         serving, serving_stats, pd, 8, params)
                  for b in range(trials // 2000)]
        off_diag = ~np.eye(model.num_devices, dtype=bool)
        for name in ("ls2", "n2", "ui2", "rate"):
            got = getattr(out, name).reshape(trials, -1)
            ref = np.concatenate([getattr(o, name) for o in blocks]).reshape(trials, -1)
            if name == "ui2":
                got, ref = got[:, off_diag.ravel()], ref[:, off_diag.ravel()]
            se = np.hypot(got.std(axis=0, ddof=1), ref.std(axis=0, ddof=1)) / np.sqrt(trials)
            z = (got.mean(axis=0) - ref.mean(axis=0)) / se
            assert np.all(np.abs(z) <= TWO_SAMPLE_Z), (setup.__name__, name, z)


def _block_stream_key(seed, trial):
    return (seed, trial // mc.TRIAL_BLOCK, 0)


def _record_stream_keys(monkeypatch):
    """Map each substream that `simulate` makes to the key it was made with."""
    made, keys = mc.substream, {}

    def keyed(*key):
        rng = made(*key)
        keys[id(rng)] = key
        return rng

    monkeypatch.setattr(mc, "substream", keyed)
    return keys


@pytest.mark.parametrize("kind", ["zero", "duplicate"])
def test_rank_deficient_trial_raises_naming_it(kind, monkeypatch):
    cfg, model, params, stats, pd = validation_setup()
    seed, target = 5, mc.TRIAL_BLOCK + 7
    draw, keys, stream_keys = mc.draw_channel, [], _record_stream_keys(monkeypatch)

    def degenerate(layout, rng, diag_rng, trials=1):
        real = draw(layout, rng, diag_rng, trials)
        keys.append(stream_keys[id(rng)])
        if keys[-1] == _block_stream_key(seed, target):
            # the drawn estimate column of device 1, the one serving AP 1
            # serves, zeroed or copied from device 2, the other column of
            # that AP's zero-forcing block
            j = target % mc.TRIAL_BLOCK
            real.g_hat[j, 1, 1] = 0.0 if kind == "zero" else real.g_hat[j, 1, 2]
        return real

    monkeypatch.setattr(mc, "draw_channel", degenerate)
    # a zero on the estimate's diagonal raises, and issues no division warning
    with warnings.catch_warnings(), pytest.raises(
            RuntimeError, match=f"^trial {target}: estimated channel rank-deficient$"):
        warnings.simplefilter("error")
        mc.simulate(model, stats, pd, "fzf", 3 * mc.TRIAL_BLOCK, seed=seed,
                    n_antennas=8, params=params, workers=1)
    # the block draws up to the failing trial's, and no draw after it
    assert keys == [_block_stream_key(seed, 0), _block_stream_key(seed, target)]


def test_rank_deficient_trial_on_the_pool_names_the_first(monkeypatch):
    cfg, model, params, stats, pd = validation_setup()
    seed, blocks = 5, 6
    targets = (mc.TRIAL_BLOCK + 7, 2 * mc.TRIAL_BLOCK + 3)     # blocks 1 and 2
    draw, keys, stream_keys = mc.draw_channel, [], _record_stream_keys(monkeypatch)

    def degenerate(layout, rng, diag_rng, trials=1):
        real = draw(layout, rng, diag_rng, trials)
        keys.append(stream_keys[id(rng)])
        for target in targets:
            if keys[-1] == _block_stream_key(seed, target):
                real.g_hat[target % mc.TRIAL_BLOCK, 1, 1] = 0.0   # served by AP 1
        return real

    monkeypatch.setattr(mc, "draw_channel", degenerate)
    with pytest.raises(RuntimeError,
                       match=f"^trial {targets[0]}: estimated channel rank-deficient$"):
        mc.simulate(model, stats, pd, "fzf", blocks * mc.TRIAL_BLOCK, seed=seed,
                    n_antennas=8, params=params, workers=2)
    # each block is drawn at most once, and with two in flight nothing past
    # block 2 starts once block 1 fails
    block_keys = [_block_stream_key(seed, b * mc.TRIAL_BLOCK) for b in range(blocks)]
    assert len(set(keys)) == len(keys)
    assert all(key in block_keys[:3] for key in keys)
    assert block_keys[1] in keys


def test_persistently_degenerate_trial_raises(monkeypatch):
    cfg, model, params, stats, pd = validation_setup()
    target, draw = 3, mc.draw_channel

    def degenerate(layout, rng, diag_rng, trials=1):
        # from trial 3 on, every draw copies device 2's estimate at serving
        # AP 1 into that of device 1, the device AP 1 serves
        real = draw(layout, rng, diag_rng, trials)
        real.g_hat[target:, 1, 1] = real.g_hat[target:, 1, 2]
        return real

    monkeypatch.setattr(mc, "draw_channel", degenerate)
    match = f"^trial {target}: estimated channel rank-deficient$"
    with pytest.raises(RuntimeError, match=match):
        mc.simulate(model, stats, pd, "fzf", 100, seed=5, n_antennas=8,
                    params=params)
    with pytest.raises(RuntimeError, match=match):
        mc.ergodic_rate(model, stats, pd, "fzf", 100, 5, 8, params)
    # maximum-ratio combining needs no rank, so the same copies decode
    out = mc.simulate(model, stats, pd, "mrc", 100, seed=5, n_antennas=8,
                      params=params)
    assert np.all(np.isfinite(out.sinr)) and np.all(out.sinr > 0)


def _without_aps(model, dropped):
    """The deployment with the APs in `dropped` deleted and the service sets
    re-indexed to the remaining rows."""
    kept = [m for m in range(model.num_aps) if m not in dropped]
    return dataclasses.replace(
        model, beta=model.beta[kept], positions_ap=model.positions_ap[kept],
        service_sets=tuple(tuple(kept.index(m) for m in aps) for aps in model.service_sets))


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_non_serving_aps_change_no_trial(decoder):
    cfg, model, params, stats, pd = validation_setup()
    idle = set(range(model.num_aps)) - set().union(*model.service_sets)
    assert idle == {0, 3}
    bare = _without_aps(model, idle)
    runs = [mc.simulate(m, estimation_stats(m, stats.pilot_power), pd, decoder,
                        2 * mc.TRIAL_BLOCK + 1, seed=5, n_antennas=8, params=params,
                        workers=1)
            for m in (model, bare)]
    for name in ("ds2", "ls2", "ui2", "n2", "sinr", "rate"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name


def test_zero_estimate_at_a_non_serving_ap_is_not_drawn():
    # AP 2 serves nobody, and device 0's gain there is so small that its
    # estimate is exactly zero: that AP's Gram matrix would be singular
    model = toy_model(np.array([[2.0, 0.5], [0.3, 1.5], [1e-320, 0.8]]),
                      service_sets=((0,), (1,)))
    stats = estimation_stats(model, np.full(2, 10.0))
    assert stats.lam[2, 0] == 0.0
    params = fbl.FblParams.from_config(SystemConfig(num_devices=2))
    out = mc.simulate(model, stats, np.full(2, 10.0), "fzf", 100, seed=3,
                      n_antennas=4, params=params, workers=1)
    assert np.all(np.isfinite(out.sinr)) and np.all(out.sinr > 0)


def test_zero_estimate_of_a_device_a_serving_ap_does_not_serve():
    # AP 0 serves device 0 alone, and device 1's gain there is so small that
    # its estimate is exactly zero. Full-pilot zero-forcing inverts every
    # device's estimate at an AP, so every trial is rank-deficient, although
    # AP 0's drawn block holds device 0's column alone; maximum-ratio
    # combining needs no rank
    model = toy_model(np.array([[2.0, 1e-320], [0.3, 1.5]]), service_sets=((0,), (1,)))
    stats = estimation_stats(model, np.full(2, 10.0))
    assert stats.lam[0, 1] == 0.0
    params = fbl.FblParams.from_config(SystemConfig(num_devices=2))
    match = "^trial 0: estimated channel rank-deficient$"
    with pytest.raises(RuntimeError, match=match):
        mc.simulate(model, stats, np.full(2, 10.0), "fzf", 100, seed=3, n_antennas=4,
                    params=params)
    with pytest.raises(RuntimeError, match=match):
        mc.ergodic_rate(model, stats, np.full(2, 10.0), "fzf", 100, 3, 4, params)
    out = mc.simulate(model, stats, np.full(2, 10.0), "mrc", 100, seed=3, n_antennas=4,
                      params=params)
    assert np.all(np.isfinite(out.sinr)) and np.all(out.sinr > 0)


def _rank_check_stacks():
    """Triangular estimates of 3 devices at N = 8 antennas, (200, 2, 3, 3): the
    R factors of dense stacks with devices scaled over twelve orders of
    magnitude, 100 of them deficient (zero, duplicated, near-duplicated and
    combined columns), and the rank of each."""
    rng = np.random.default_rng(12)
    dense = (rng.standard_normal((200, 2, 3, 3))
             + 1j * rng.standard_normal((200, 2, 3, 3)))
    dense *= 10.0 ** rng.uniform(-6, 6, size=(200, 2, 3, 1))
    dense[0:20, 0, 1] = 0.0
    dense[20:40, 1, 2] = dense[20:40, 1, 0]
    dense[40:60, 0, 0] = dense[40:60, 0, 2] * (1 + 1e-15)
    dense[60:80, 1, 1] = 2.0 * dense[60:80, 1, 0] - 3j * dense[60:80, 1, 2]
    dense[80:90] = 0.0
    g_hat = np.swapaxes(np.linalg.qr(np.swapaxes(dense, 2, 3))[1], 2, 3)
    return g_hat, np.linalg.matrix_rank(np.swapaxes(g_hat, 2, 3))


def test_rank_check_flags_exactly_the_deficient_stacks():
    g_hat, ranks = _rank_check_stacks()

    def flagged(check, t, m):
        try:
            check(g_hat[t:t + 1, m:m + 1], 8, t)
        except RuntimeError as exc:
            assert str(exc).startswith(f"trial {t}:")
            return True
        return False

    assert (ranks < 3).sum() == 100
    for check in (functools.partial(mc._fzf_vectors, num_devices=3), fzf_vectors_by_gram):
        assert np.array_equal([[flagged(check, t, m) for m in range(2)]
                               for t in range(200)], ranks < 3)
    # a block names its first deficient trial, counted from first_trial, be it
    # exactly singular (5: zero column, a zero on the diagonal) or nearly so
    # (50: near-duplicated column), with the other one after it
    for order in ([95, 50, 5], [95, 5, 50]):
        with pytest.raises(RuntimeError, match="^trial 1001:"):
            mc._fzf_vectors(g_hat[order], 8, 1000, 3)


def test_rank_check_reads_the_full_matrix_worst_off_the_diagonal():
    # (G^H G)^-1 = X X^H is positive semidefinite, so its largest entry scaled
    # by the Gram diagonal sits on the diagonal: max_i |row i of X|^2 d_i^2
    g_hat, ranks = _rank_check_stacks()
    full = (ranks == 3).all(axis=1)
    assert full.sum() == 110
    vectors = mc._fzf_vectors(g_hat[full], 8, 0, 3)
    diagonal = ((np.abs(vectors) ** 2).sum(axis=3)
                * (np.abs(g_hat[full]) ** 2).sum(axis=3)).max(axis=2)
    assert np.allclose(diagonal, gram_rank_worst(g_hat[full])[1], rtol=1e-10, atol=0)


@pytest.mark.parametrize("kdev", [2, 5, 10])
def test_fzf_vectors_match_the_gram_oracle(kdev):
    # Bartlett estimates from the sampler, with gains spread over twelve
    # orders of magnitude
    rng = np.random.default_rng(kdev)
    model = toy_model(10.0 ** rng.uniform(-6, 6, size=(3, kdev)))
    stats = estimation_stats(model, np.full(kdev, 1e12))
    real = draw_channel(span_layout(model, stats, kdev + 2, True), substream(7, kdev, 0),
                        substream(7, kdev, 1), trials=64)
    vectors = mc._fzf_vectors(real.g_hat, kdev + 2, 0, kdev)
    oracle = fzf_vectors_by_gram(real.g_hat, kdev + 2, 0)
    norm = np.linalg.norm(oracle, axis=3, keepdims=True)
    assert np.all(np.abs(vectors - oracle) <= 1e-12 * norm)
    # v_k^H g_j = delta_kj at every AP, to rounding relative to |v_k| |g_j|
    cross = np.einsum("tmkn,tmjn->tmkj", vectors.conj(), real.g_hat)
    size = norm * np.linalg.norm(real.g_hat, axis=3)[:, :, None, :]
    assert np.all(np.abs(cross - np.eye(kdev)) <= 1e-12 * size)


def test_fzf_vectors_need_a_square_estimate():
    cfg, model, params, stats, pd = validation_setup()
    real = draw_channel_full_antenna(model, stats, 8, substream(3), trials=4)
    with pytest.raises(ValueError, match="square triangular estimate, got 8 x 3"):
        mc.decode_fzf(real, model, stats, pd, 8, params)


@pytest.mark.parametrize("decoder", ["MRC", "zf"])
def test_unknown_decoder_is_rejected(decoder):
    cfg, model, params, stats, pd = validation_setup()
    with pytest.raises(ValueError, match="unknown decoder"):
        mc.simulate(model, stats, pd, decoder, 100, seed=8, n_antennas=8,
                    params=params)
    with pytest.raises(ValueError, match="unknown decoder"):
        mc.ergodic_rate(model, stats, pd, decoder, 100, 8, 8, params)


@pytest.mark.parametrize("trials", [0, -5])
def test_simulate_needs_a_trial(trials):
    cfg, model, params, stats, pd = validation_setup()
    with pytest.raises(ValueError, match="at least one trial"):
        mc.simulate(model, stats, pd, "mrc", trials, seed=8, n_antennas=8,
                    params=params)


def test_ergodic_rate_needs_enough_trials():
    cfg, model, params, stats, pd = validation_setup()
    with pytest.raises(ValueError):
        mc.ergodic_rate(model, stats, pd, "mrc", 50, 1, 8, params)
