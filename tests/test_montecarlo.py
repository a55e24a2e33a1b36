import numpy as np
import pytest

from cfurllc import fbl, montecarlo as mc
from cfurllc.channel import estimation_stats, substream
from cfurllc.fbl import lb_rate, lb_sinr_fzf, lb_sinr_mrc
from cfurllc.scenario import SystemConfig, generate_topology


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
    expected = (mc.expected_terms_mrc if decoder == "mrc"
                else mc.expected_terms_fzf)(model, stats, pd, 8)
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


def _block_stream_key(seed, trial):
    return substream(seed, trial // mc.TRIAL_BLOCK, 0).bit_generator.state["state"]["key"]


def test_block_keys_never_equal_redraw_keys():
    seed = 5
    redraw = {tuple(substream(seed, t, att).bit_generator.state["state"]["key"])
              for t in range(4 * mc.TRIAL_BLOCK) for att in range(1, mc.REDRAWS + 1)}
    blocks = {tuple(_block_stream_key(seed, t))
              for t in range(0, 4 * mc.TRIAL_BLOCK, mc.TRIAL_BLOCK)}
    assert len(blocks) == 4 and not blocks & redraw
    # substream mixes (i, j) to (i+1)*phi + j + 1 mod 2^64 with phi odd; equal
    # keys for (b, 0) and (t, a) need b - t = a * phi^-1 mod 2^64, which is
    # more than 2^59 away from zero for every attempt a
    phi = 0x9E3779B97F4A7C15
    for att in range(1, mc.REDRAWS + 1):
        gap = att * pow(phi, -1, 2 ** 64) % 2 ** 64
        assert min(gap, 2 ** 64 - gap) > 2 ** 59


class _Degenerate:
    """Wrap draw_channel; make chosen (trial, attempt) estimates rank-deficient.

    `bad` maps a trial to the attempts (0 = the block draw) whose g_hat gets a
    column of the N x K estimate at AP 1 zeroed or copied from another device.
    """

    def __init__(self, seed, bad, kind):
        self.seed, self.bad, self.kind = seed, bad, kind
        self.keys = []
        self.corrupted = []

    def _corrupt(self, g_hat, j):
        if self.kind == "zero":
            g_hat[j, 1, 2, :] = 0.0
        else:
            g_hat[j, 1, 2, :] = g_hat[j, 1, 0, :]

    def __call__(self, model, stats, n_antennas, rng, trials=1):
        real = _DRAW(model, stats, n_antennas, rng, trials)
        key = rng.bit_generator.state["state"]["key"].tolist()
        self.keys.append(key)
        for trial, attempts in self.bad.items():
            if 0 in attempts and key == _block_stream_key(self.seed, trial).tolist():
                self._corrupt(real.g_hat, trial % mc.TRIAL_BLOCK)
                self.corrupted.append(real.g_hat[trial % mc.TRIAL_BLOCK].copy())
            for att in attempts - {0}:
                if key == substream(self.seed, trial, att).bit_generator.state[
                        "state"]["key"].tolist():
                    self._corrupt(real.g_hat, 0)
                    self.corrupted.append(real.g_hat[0].copy())
        return real


_DRAW = mc.draw_channel


@pytest.mark.parametrize("kind", ["zero", "duplicate"])
def test_rank_deficient_trial_is_redrawn_from_its_own_stream(kind, monkeypatch):
    cfg, model, params, stats, pd = validation_setup()
    seed, trials, target = 5, mc.TRIAL_BLOCK + 40, mc.TRIAL_BLOCK + 7

    def run():
        return mc.simulate(model, stats, pd, "fzf", trials, seed=seed,
                           n_antennas=8, params=params)

    clean = run()
    # block draw and first redraw degenerate: the trial must come from attempt 2
    fake = _Degenerate(seed, {target: {0, 1}}, kind)
    monkeypatch.setattr(mc, "draw_channel", fake)
    out = run()
    expect_keys = [_block_stream_key(seed, 0).tolist(),
                   _block_stream_key(seed, target).tolist()] + [
        substream(seed, target, att).bit_generator.state["state"]["key"].tolist()
        for att in (1, 2)]
    assert fake.keys == expect_keys
    assert len(fake.corrupted) == 2

    others = np.arange(trials) != target
    for name in ("ls2", "ui2", "n2", "sinr", "rate"):
        assert np.array_equal(getattr(out, name)[others], getattr(clean, name)[others])
    redraw = _DRAW(model, stats, 8, substream(seed, target, 2))
    alone = mc.decode_fzf(redraw, model, stats, pd, 8, params)
    assert np.array_equal(out.sinr[target], alone.sinr[0])
    assert not np.array_equal(out.sinr[target], clean.sinr[target])

    # the screen flags every stack that matrix_rank calls deficient
    stacked = np.stack(fake.corrupted)
    ranks = np.linalg.matrix_rank(np.swapaxes(stacked, 2, 3))
    assert (ranks < 3).any()
    assert np.all(mc._gram_screen(stacked)[ranks < 3])


def test_persistently_degenerate_trial_raises(monkeypatch):
    cfg, model, params, stats, pd = validation_setup()
    target = 3
    monkeypatch.setattr(mc, "draw_channel",
                        _Degenerate(5, {target: {0, 1, 2, 3}}, "duplicate"))
    with pytest.raises(RuntimeError, match=f"trial {target}: .*rank-deficient"):
        mc.simulate(model, stats, pd, "fzf", 100, seed=5, n_antennas=8,
                    params=params)


def test_gram_screen_is_superset_of_rank_check():
    rng = np.random.default_rng(12)
    g_hat = (rng.standard_normal((200, 2, 3, 8))
             + 1j * rng.standard_normal((200, 2, 3, 8)))
    # scale devices over twelve orders of magnitude, then make some stacks
    # deficient: zero, duplicated, near-duplicated and combined columns
    g_hat *= 10.0 ** rng.uniform(-6, 6, size=(200, 2, 3, 1))
    g_hat[0:20, 0, 1] = 0.0
    g_hat[20:40, 1, 2] = g_hat[20:40, 1, 0]
    g_hat[40:60, 0, 0] = g_hat[40:60, 0, 2] * (1 + 1e-15)
    g_hat[60:80, 1, 1] = 2.0 * g_hat[60:80, 1, 0] - 3j * g_hat[60:80, 1, 2]
    g_hat[80:90] = 0.0
    ranks = np.linalg.matrix_rank(np.swapaxes(g_hat, 2, 3))
    flagged = mc._gram_screen(g_hat)
    assert (ranks < 3).sum() >= 80
    assert np.all(flagged[ranks < 3])
    assert np.array_equal(mc._rank_deficient(g_hat),
                          np.flatnonzero((ranks < 3).any(axis=1)))


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
