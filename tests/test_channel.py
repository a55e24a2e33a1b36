from fractions import Fraction

import numpy as np
import pytest

from cfurllc.channel import draw_channel, estimation_stats, span_layout, substream

from conftest import toy_model
from oracles import draw_channel_full_antenna


def test_estimate_variance_hand_values():
    # K*p*b = 1 with b = 1 gives lam = 1/2
    model = toy_model(np.full((1, 10), 1.0))
    stats = estimation_stats(model, np.full(10, 0.1))
    assert stats.lam[0, 0] == pytest.approx(0.5)
    # K*p*b = 4 with b = 0.2: lam = 4 * 0.2 / 5
    model = toy_model(np.full((1, 10), 0.2))
    stats = estimation_stats(model, np.full(10, 2.0))
    assert stats.lam[0, 0] == pytest.approx(0.16)


def test_estimate_variance_limits():
    model = toy_model(np.array([[0.7, 1.3]]))
    weak = estimation_stats(model, np.full(2, 1e-12))
    assert np.all(weak.lam < 1e-10)
    strong = estimation_stats(model, np.full(2, 1e12))
    assert np.allclose(strong.lam, model.beta, rtol=1e-10)
    mid = estimation_stats(model, np.full(2, 0.5))
    assert np.all(mid.lam > 0) and np.all(mid.lam < model.beta)
    assert np.allclose(mid.err_var, model.beta - mid.lam)


def test_estimate_variance_scaling_identity(rng):
    # scaling b by c multiplies the numerator by c^2 and the load term by c
    for _ in range(100):
        b = float(rng.uniform(0.01, 10.0))
        p = float(rng.uniform(0.01, 10.0))
        c = float(rng.uniform(0.1, 10.0))
        k = 7
        base = toy_model(np.full((1, k), b))
        scaled = toy_model(np.full((1, k), c * b))
        lam_scaled = estimation_stats(scaled, np.full(k, p)).lam[0, 0]
        expect = c ** 2 * k * p * b ** 2 / (c * k * p * b + 1.0)
        assert lam_scaled == pytest.approx(expect, rel=1e-12)


def test_estimation_rejects_nonpositive_power():
    model = toy_model(np.array([[1.0]]))
    with pytest.raises(ValueError):
        estimation_stats(model, np.array([0.0]))


@pytest.mark.parametrize("power", [1.0, np.ones(3), np.ones((2, 1))])
def test_estimation_needs_one_power_per_device(power):
    model = toy_model(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="one value per device"):
        estimation_stats(model, power)


def test_substream_determinism_and_independence():
    a = substream(5, 3).standard_normal(8)
    b = substream(5, 3).standard_normal(8)
    assert np.array_equal(a, b)
    c = substream(5, 4).standard_normal(8)
    assert not np.array_equal(a, c)
    d = substream(6, 3).standard_normal(8)
    assert not np.array_equal(a, d)


def _decoder_inputs(real):
    """The inner products every decoder reads, per trial and AP: the Gram
    matrix G^H G and G^H g_j, both (T, M, K, K) with entry [k, j] = g_hat_k^H
    g_j, and G^H w (T, M, K)."""
    gram = np.einsum("tmkn,tmjn->tmkj", real.g_hat.conj(), real.g_hat)
    cross = np.einsum("tmkn,tmjn->tmkj", real.g_hat.conj(), real.g)
    noise = np.einsum("tmkn,tmn->tmk", real.g_hat.conj(), real.noise)
    return gram, cross, noise


def _normalized_moments(real, stats, n_ant):
    """Per trial, the means over APs and devices of the decoder inputs'
    entries and squared magnitudes, each divided by its closed-form scale:
    E Gamma_kk = N lam_k, E|Gamma_kk|^2 = N(N+1) lam_k^2, E|Gamma_kj|^2 = N
    lam_k lam_j, E g_hat_k^H g_k = N lam_k, E|g_hat_k^H g_k|^2 = N(N+1) lam_k^2
    + N lam_k err_k, E|g_hat_k^H g_j|^2 = N lam_k beta_j, E|g_hat_k^H w|^2 = N
    lam_k; the entries of mean zero (Gamma_kj, g_hat_k^H g_j for k != j and
    g_hat_k^H w) scaled to unit variance. Every column has mean 1, or 0 for
    the last two."""
    gram, cross, noise = _decoder_inputs(real)
    lam, err = stats.lam, stats.err_var
    beta = lam + err
    n = float(n_ant)
    k = lam.shape[1]
    diag, off = np.eye(k, dtype=bool), ~np.eye(k, dtype=bool)
    ll = n * lam[:, :, None] * lam[:, None, :]                 # (M, K, K)
    lb = n * lam[:, :, None] * beta[:, None, :]
    own2 = n * (n + 1.0) * lam ** 2 + n * lam * err
    zero_mean = np.concatenate([
        (gram / np.sqrt(ll))[:, :, off], (cross / np.sqrt(lb))[:, :, off],
        noise / np.sqrt(n * lam)], axis=2)
    cols = [
        gram[:, :, diag].real / (n * lam),
        np.abs(gram[:, :, diag]) ** 2 / (n * (n + 1.0) * lam ** 2),
        np.abs(gram[:, :, off]) ** 2 / ll[:, off],
        cross[:, :, diag].real / (n * lam),
        np.abs(cross[:, :, diag]) ** 2 / own2,
        np.abs(cross[:, :, off]) ** 2 / lb[:, off],
        np.abs(noise) ** 2 / (n * lam),
        zero_mean.real,
        zero_mean.imag,
    ]
    return np.stack([c.mean(axis=(1, 2)) for c in cols], axis=1)


@pytest.mark.parametrize("n_ant", [5, 3, 2])     # N > K, N = K, N < K
def test_draw_matches_full_antenna_law(n_ant):
    """The decoders' inputs from the estimate-span draw have the closed-form
    means and second moments, and those of the draw at every antenna, within
    3 sigma."""
    beta = np.array([[0.8, 2.0, 0.3], [1.5, 0.4, 5.0]])
    model = toy_model(beta)
    stats = estimation_stats(model, np.array([0.9, 2.5, 0.2]))
    trials = 20000
    span = draw_channel(span_layout(model, stats, n_ant, False), substream(31, n_ant, 0),
                        substream(31, n_ant, 1), trials=trials)
    r = min(n_ant, 3)
    assert span.g.shape == span.g_hat.shape == (trials, 2, 3, r)
    assert span.noise.shape == (trials, 2, r)
    full = draw_channel_full_antenna(model, stats, n_ant, substream(32, n_ant), trials=trials)
    expected = np.array([1.0] * 7 + [0.0] * 2)
    got, ref = (_normalized_moments(real, stats, n_ant) for real in (span, full))
    se_got, se_ref = (x.std(axis=0, ddof=1) / np.sqrt(trials) for x in (got, ref))
    assert np.all(np.abs(got.mean(axis=0) - expected) <= 3 * se_got)
    assert np.all(np.abs(got.mean(axis=0) - ref.mean(axis=0))
                  <= 3 * np.hypot(se_got, se_ref))


def test_draw_keeps_estimate_in_its_span():
    # the estimate's coordinates form the upper-triangular Bartlett factor
    # times diag(sqrt(lam)): zero below the diagonal, real positive on it
    model = toy_model(np.array([[0.8, 2.0, 0.3], [1.5, 0.4, 5.0]]))
    stats = estimation_stats(model, np.array([0.9, 2.5, 0.2]))
    for n_ant in (2, 3, 7):
        g_hat = draw_channel(span_layout(model, stats, n_ant, False), substream(4, 0),
                             substream(4, 1), trials=50).g_hat
        r = min(n_ant, 3)
        rows, cols = np.indices((3, r))         # g_hat[..., j, i] = R_ij
        assert np.all(g_hat[:, :, rows < cols] == 0.0)
        diag = g_hat[:, :, np.arange(r), np.arange(r)]
        assert np.all(diag.imag == 0.0) and np.all(diag.real > 0.0)


@pytest.mark.parametrize("zero_forcing", [False, True])
def test_layout_draws_the_rows_of_its_reordered_factor(zero_forcing):
    # APs serving 1, 3 and 2 of 4 devices: each AP's factor takes its served
    # devices first (MRC) or last (zero-forcing), each group in index order,
    # and the draw keeps max |D_m| = 3 of its rows, the first or the last
    model = toy_model(np.array([[0.8, 2.0, 0.3, 1.1], [1.5, 0.4, 5.0, 0.9],
                                [0.6, 1.2, 2.2, 0.7]]),
                      service_sets=((1,), (1, 2), (0, 2), (1,)))
    stats = estimation_stats(model, np.array([0.9, 2.5, 0.2, 1.4]))
    layout = span_layout(model, stats, 6, zero_forcing)
    served = ([2], [0, 1, 3], [1, 2])
    for order, devices in zip(layout.order, served):
        rest = [k for k in range(4) if k not in devices]
        assert list(order) == (rest + devices if zero_forcing else devices + rest)
    assert layout.rows == (range(1, 4) if zero_forcing else range(3))
    real = draw_channel(layout, substream(5, 0), substream(5, 1), trials=50)
    assert real.g.shape == real.g_hat.shape == (50, 3, 4, 3)
    assert real.noise.shape == (50, 3, 3)
    assert np.array_equal(real.order, layout.order)
    # the estimate columns in the factor's order hold its drawn rows: zero
    # below the diagonal, real positive on it and nonzero above it
    g_hat = np.take_along_axis(real.g_hat, layout.order[None, :, :, None], axis=2)
    column, row = np.indices((4, 3))
    row += layout.rows.start
    assert np.all(g_hat[:, :, row > column] == 0.0)
    assert np.all(g_hat[:, :, row < column] != 0.0)
    diag = g_hat[:, :, row == column]
    assert np.all(diag.imag == 0.0) and np.all(diag.real > 0.0)


def test_error_variance_is_positive_and_within_4_ulp():
    # b / (K p b + 1) does not cancel: on a log-uniform grid of b in
    # e^[-60, 5] and K p in e^[0, 80] it is positive and within 4 ulp of the
    # exact value for the given b and p
    beta = np.exp(np.linspace(-60.0, 5.0, 27))
    k = 33
    p = np.exp(np.linspace(0.0, 80.0, k)) / k
    stats = estimation_stats(toy_model(np.repeat(beta[:, None], k, axis=1)), p)
    assert np.all(stats.err_var > 0.0)
    for (m, j), got in np.ndenumerate(stats.err_var):
        b = Fraction(float(beta[m]))
        exact = b / (k * Fraction(float(p[j])) * b + 1)
        assert abs(Fraction(float(got)) - exact) <= 4 * Fraction(float(np.spacing(float(exact))))


def test_draw_is_finite_where_the_error_variance_is_tiny_but_positive():
    model = toy_model(np.array([[1.3, 1.3]]))
    stats = estimation_stats(model, np.full(2, 1e17))
    assert np.all(stats.err_var > 0.0)
    real = draw_channel(span_layout(model, stats, 4, False), substream(2, 0), substream(2, 1),
                        trials=10)
    for name in ("g", "g_hat", "noise"):
        assert np.all(np.isfinite(getattr(real, name))), name
    error = np.abs(real.g - real.g_hat).max()
    assert 0.0 < error <= 10.0 * np.sqrt(stats.err_var.max())


@pytest.mark.parametrize("kwargs,name", [({"n_antennas": 0}, "n_antennas"),
                                         ({"n_antennas": -3}, "n_antennas"),
                                         ({"trials": 0}, "trials"),
                                         ({"trials": -1}, "trials")])
def test_draw_rejects_empty_sizes(kwargs, name):
    model = toy_model(np.array([[1.0, 2.0]]))
    stats = estimation_stats(model, np.array([1.0, 1.0]))
    args = {"n_antennas": 4, "trials": 2, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        draw_channel(span_layout(model, stats, args["n_antennas"], False), substream(1, 0),
                     substream(1, 1), trials=args["trials"])


def test_channel_draw_cross_device_independence():
    model = toy_model(np.array([[1.0, 1.0]]))
    stats = estimation_stats(model, np.array([1.0, 1.0]))
    real = draw_channel(span_layout(model, stats, 2, False), substream(3, 0), substream(3, 1),
                        trials=5000)
    x = real.g[:, 0, 0, :].ravel()
    y = real.g[:, 0, 1, :].ravel()
    corr = np.mean(x.conj() * y)
    assert abs(corr) <= 3 / np.sqrt(x.size)


@pytest.mark.parametrize("a,b", [(1, 2), (5, 64), (63, 65)])
def test_channel_draw_prefix_independent_of_trial_count(a, b):
    model = toy_model(np.array([[0.8, 2.0, 1.1], [1.5, 0.4, 0.7]]))
    stats = estimation_stats(model, np.array([0.9, 2.5, 1.3]))
    layout = span_layout(model, stats, 4, False)
    short = draw_channel(layout, substream(9, 2, 0), substream(9, 2, 1), trials=a)
    full = draw_channel(layout, substream(9, 2, 0), substream(9, 2, 1), trials=b)
    for name in ("g", "g_hat", "noise"):
        assert np.array_equal(getattr(short, name), getattr(full, name)[:a]), name
