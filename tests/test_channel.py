import numpy as np
import pytest

from cfurllc.channel import draw_channel, estimation_stats, substream

from conftest import toy_model


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


def test_channel_draw_moments():
    beta = np.array([[0.8, 2.0], [1.5, 0.4]])
    model = toy_model(beta)
    pilot = np.array([0.9, 2.5])
    stats = estimation_stats(model, pilot)
    n_ant = 4
    trials = 4000
    real = draw_channel(model, stats, n_ant, substream(11, 0), trials=trials)
    n_samples = trials * n_ant
    g_tilde = real.g - real.g_hat

    for m in range(2):
        for k in range(2):
            var_hat = np.mean(np.abs(real.g_hat[:, m, k, :]) ** 2)
            lam = stats.lam[m, k]
            assert abs(var_hat - lam) <= 3 * lam / np.sqrt(n_samples)
            var_err = np.mean(np.abs(g_tilde[:, m, k, :]) ** 2)
            err = stats.err_var[m, k]
            assert abs(var_err - err) <= 3 * err / np.sqrt(n_samples)
            # estimate/error orthogonality in aggregate
            inner = np.mean(real.g_hat[:, m, k, :].conj() * g_tilde[:, m, k, :])
            se = np.sqrt(lam * err / n_samples)
            assert abs(inner) <= 3 * se
    # receiver noise: unit power, circular, independent of the channel
    assert real.noise.shape == (trials, 2, n_ant)
    n_noise = real.noise.size
    assert abs(np.mean(np.abs(real.noise) ** 2) - 1.0) <= 3 / np.sqrt(n_noise)
    assert abs(np.mean(real.noise.real ** 2) - 0.5) <= 3 / np.sqrt(n_noise)
    corr = np.mean(real.noise.conj() * real.g[:, :, 0, :])
    assert abs(corr) <= 3 * np.sqrt(beta.max() / n_noise)


def test_channel_draw_cross_device_independence():
    model = toy_model(np.array([[1.0, 1.0]]))
    stats = estimation_stats(model, np.array([1.0, 1.0]))
    real = draw_channel(model, stats, 2, substream(3, 0), trials=5000)
    x = real.g[:, 0, 0, :].ravel()
    y = real.g[:, 0, 1, :].ravel()
    corr = np.mean(x.conj() * y)
    assert abs(corr) <= 3 / np.sqrt(x.size)


@pytest.mark.parametrize("a,b", [(1, 2), (5, 64), (63, 65)])
def test_channel_draw_prefix_independent_of_trial_count(a, b):
    model = toy_model(np.array([[0.8, 2.0, 1.1], [1.5, 0.4, 0.7]]))
    stats = estimation_stats(model, np.array([0.9, 2.5, 1.3]))
    short = draw_channel(model, stats, 4, substream(9, 2, 0), trials=a)
    full = draw_channel(model, stats, 4, substream(9, 2, 0), trials=b)
    for name in ("g", "g_hat", "noise"):
        assert np.array_equal(getattr(short, name), getattr(full, name)[:a]), name
