import math
from dataclasses import replace

import numpy as np
import pytest

from cfurllc import fbl
from cfurllc.channel import estimation_stats
from cfurllc.fbl import (FblParams, lb_rate, lb_sinr_fzf, lb_sinr_mrc, q_inverse,
                         rate_kernel, rate_kernel_inverse)
from cfurllc.scenario import SystemConfig

from conftest import random_model, toy_model
from oracles import (alpha_limit, fzf_factors, kernel_inverse_from_zero, kernel_zero,
                     lb_sinr_by_device, mrc_factors, normal_approximation_rate,
                     penalty_factor, sinr_fzf_from_factors, sinr_mrc_from_factors,
                     sinr_pieces_by_device)


def q_tail(x):
    """Gaussian tail probability."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def bisect_q(eps):
    """Independent bisection oracle on the Gaussian tail, accurate to 1e-12."""
    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_tail(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def make_params(eps=1e-5, k=10, blocklength=1000, bandwidth=10e6):
    alpha = q_inverse(eps) / math.sqrt(blocklength * (1 - k / blocklength))
    return FblParams(bandwidth_hz=bandwidth, blocklength=blocklength,
                     num_devices=k, alpha=np.full(k, alpha))


# --------------------------------------------------------------------------
# inverse Gaussian tail
# --------------------------------------------------------------------------

def test_q_inverse_reference_value():
    got = q_inverse(1e-5)
    assert got == pytest.approx(4.2649, abs=1e-4)
    assert got == pytest.approx(bisect_q(1e-5), abs=1e-10)


def test_q_inverse_boundary_and_roundtrip(rng):
    assert q_inverse(0.5) == 0.0
    assert math.copysign(1.0, q_inverse(0.5)) == 1.0
    for _ in range(100):
        eps = float(10 ** rng.uniform(-9, math.log10(0.49)))
        assert q_tail(q_inverse(eps)) == pytest.approx(eps, rel=1e-10)


def test_q_inverse_deep_tail_matches_bisection():
    for k in range(1, 301):
        eps = 10.0 ** -k
        assert q_inverse(eps) == pytest.approx(bisect_q(eps), rel=1e-12), k


def test_q_inverse_domain():
    for bad in (0.0, -0.1, 0.51, 1.0):
        with pytest.raises(ValueError):
            q_inverse(bad)


# --------------------------------------------------------------------------
# rate kernel and its inverse
# --------------------------------------------------------------------------

def test_kernel_reduces_to_log_without_penalty():
    assert rate_kernel(1.0, 0.0) == pytest.approx(math.log(2.0))


def test_kernel_monotone_and_convex_on_domain(rng):
    for _ in range(100):
        alpha = float(rng.uniform(0.01, 0.4))
        xmax = kernel_zero(alpha)
        a, b = np.sort(rng.uniform(1e-3 * xmax, xmax, size=2))
        if a == b:
            continue
        assert rate_kernel(a, alpha) > rate_kernel(b, alpha)
        mid = rate_kernel(0.5 * (a + b), alpha)
        assert mid <= 0.5 * (rate_kernel(a, alpha) + rate_kernel(b, alpha)) + 1e-12


def test_kernel_zero_at_domain_end():
    # the kernel is negative past its zero, which lets lb_rate clamp instead of mask
    alpha = 0.135
    xmax = kernel_zero(alpha)
    assert rate_kernel(xmax, alpha) == pytest.approx(0.0, abs=1e-10)
    assert alpha_limit(xmax) == pytest.approx(alpha, rel=1e-10)
    beyond = xmax * np.logspace(1e-6, 8, 200, base=2.0)
    assert np.all(rate_kernel(beyond, alpha) < 0)


def test_alpha_limit_monotone_decreasing():
    x = np.logspace(-3, 3, 300)
    vals = alpha_limit(x)
    assert np.all(np.diff(vals) < 0)


def test_kernel_inverse_roundtrip(rng):
    for _ in range(100):
        alpha = float(rng.uniform(0.0, 0.4))
        y = float(rng.uniform(0.01, 5.0))
        x = rate_kernel_inverse(y, alpha)
        assert rate_kernel(x, alpha) == pytest.approx(y, rel=1e-9)


def test_kernel_inverse_closed_form_without_penalty():
    y = 0.7
    assert rate_kernel_inverse(y, 0.0) == pytest.approx(1.0 / (math.exp(y) - 1.0),
                                                        rel=1e-12)


def test_kernel_inverse_rejects_unattainable():
    with pytest.raises(fbl.InfeasibleRateError):
        rate_kernel_inverse(-0.5, 0.1)
    with pytest.raises(fbl.InfeasibleRateError):
        rate_kernel_inverse(0.0, 0.1)


def test_kernel_inverse_matches_bisection_from_kernel_zero():
    for alpha in (1e-4, 0.0717, 0.135, 0.5, 3.0):
        for y in np.logspace(-6, math.log10(5.0), 40):
            want = kernel_inverse_from_zero(float(y), alpha)
            assert rate_kernel_inverse(float(y), alpha) == pytest.approx(want, rel=1e-11)


def test_cached_floor_inverses_match_the_uncached_functions():
    for alpha in (0.0, 0.01, 0.0717, 0.2, 0.5):
        for y in (0.05, 0.7, 3.0):
            x = rate_kernel_inverse(y, alpha)
            assert x == rate_kernel_inverse.__wrapped__(y, alpha)
            assert rate_kernel_inverse(y, alpha) is x            # served from the cache
    # failures are not cached: every call raises again
    for _ in range(2):
        with pytest.raises(fbl.InfeasibleRateError):
            rate_kernel_inverse(0.0, 0.1)
        with pytest.raises(fbl.InfeasibleRateError, match="unattainable"):
            rate_kernel_inverse(800.0, 0.1)


# --------------------------------------------------------------------------
# finite-blocklength rate
# --------------------------------------------------------------------------

def test_rate_without_penalty_is_scaled_shannon():
    params = make_params(eps=0.5)
    gamma = 3.0
    expect = params.bandwidth_hz * (1 - params.eta) * math.log2(1 + gamma)
    assert normal_approximation_rate(gamma, params, 0) == pytest.approx(expect, rel=1e-12)
    assert lb_rate(gamma, params, 0) == pytest.approx(expect, rel=1e-12)


def test_rate_matches_kernel_identity(rng):
    # lb_rate is the normal-approximation rate written through the kernel,
    # clamped at zero below the kernel's domain end
    params = make_params()
    for _ in range(50):
        gamma = float(10 ** rng.uniform(-2, 4))
        textbook = normal_approximation_rate(gamma, params, 0)
        via_kernel = params.rate_scale * rate_kernel(1.0 / gamma, params.alpha[0])
        assert textbook == pytest.approx(via_kernel, rel=1e-12)
        assert lb_rate(gamma, params, 0) == pytest.approx(max(textbook, 0.0),
                                                          rel=1e-12, abs=1e-6)
    # trials x devices at once, as the Monte-Carlo decoders call it, with a
    # dispersion coefficient per device
    alpha = np.linspace(0.05, 0.3, params.num_devices)
    params = replace(params, alpha=alpha)
    gammas = 10 ** rng.uniform(-2, 4, (7, params.num_devices))
    batched = lb_rate(gammas, params, np.arange(params.num_devices))
    want = [[max(normal_approximation_rate(g, params, k), 0.0) for k, g in enumerate(row)]
            for row in gammas]
    assert np.allclose(batched, want, rtol=1e-12, atol=1e-6)


def test_rate_penalty_limit_at_high_sinr():
    params = make_params()
    qinv = params.alpha[0] * math.sqrt(params.blocklength * (1 - params.eta))
    gamma = 1e9
    shannon = params.bandwidth_hz * (1 - params.eta) * math.log2(1 + gamma)
    assert lb_rate(gamma, params, 0) == pytest.approx(
        normal_approximation_rate(gamma, params, 0), rel=1e-12)
    penalty = shannon - lb_rate(gamma, params, 0)
    expect = params.bandwidth_hz * math.sqrt((1 - params.eta) / params.blocklength) \
        * qinv / math.log(2.0)
    assert penalty == pytest.approx(expect, rel=1e-6)


def test_lb_rate_clamps_to_zero():
    params = make_params()
    assert lb_rate(1e-9, params, 0) == 0.0
    assert lb_rate(5.0, params, 0) > 0.0


@pytest.mark.filterwarnings("error")
def test_lb_rate_is_the_clamped_kernel_on_both_sides_of_its_zero():
    gamma = np.logspace(-6, 4, 20001)
    for params in (make_params(), make_params().with_zero_dispersion()):
        alpha = float(params.alpha[0])
        want = np.maximum(params.rate_scale * rate_kernel(1.0 / gamma, alpha), 0.0)
        got = lb_rate(gamma, params, 0)
        assert np.array_equal(got, want)
        assert all(lb_rate(float(g), params, 0) == w for g, w in zip(gamma[::500], want[::500]))
        x = 1.0 / gamma
        zero = kernel_zero(alpha)
        assert np.all(got[x < zero * (1 - 1e-9)] > 0)
        assert np.all(got[x > zero] == 0)
        if alpha > 0:
            assert np.count_nonzero(x > zero) > 1000 and np.count_nonzero(x < zero) > 1000


# --------------------------------------------------------------------------
# closed-form lower-bound SINRs
# --------------------------------------------------------------------------

def test_mrc_sinr_hand_example():
    # single AP and device: lam = 0.5 requires K*p*b = 1 with b = 1
    model = toy_model(np.array([[1.0]]))
    stats = estimation_stats(model, np.array([1.0]))
    assert stats.lam[0, 0] == pytest.approx(0.5)
    got = lb_sinr_mrc(model, stats, np.array([1.0]), 2)[0]
    assert got == pytest.approx(0.5)


def test_mrc_sinr_scales_linearly_in_antennas(rng):
    model = random_model(rng)
    stats = estimation_stats(model, rng.uniform(0.5, 2.0, model.num_devices))
    pd = rng.uniform(0.5, 2.0, model.num_devices)
    a = lb_sinr_mrc(model, stats, pd, 4)
    b = lb_sinr_mrc(model, stats, pd, 8)
    assert np.allclose(b, 2 * a, rtol=1e-12)


def test_fzf_sinr_hand_example():
    # one AP, two devices, lam = 0.5, b = 1, N = 4, K = 2, unit payloads
    model = toy_model(np.array([[1.0, 1.0]]))
    stats = estimation_stats(model, np.array([0.5, 0.5]))   # K*p*b = 1
    assert np.allclose(stats.lam, 0.5)
    got = lb_sinr_fzf(model, stats, np.array([1.0, 1.0]), 4)[0]
    assert got == pytest.approx(0.5)


def test_fzf_sinr_perfect_csi_limit():
    model = toy_model(np.array([[2.0, 1.0], [1.0, 2.0]]))
    stats = estimation_stats(model, np.full(2, 1e12))
    got = lb_sinr_fzf(model, stats, np.array([1.0, 1.0]), 8)
    # residuals vanish, denominator reduces to the service-set size
    expect = [(8 - 2) * np.sqrt(stats.lam[list(model.service_sets[k]), k]).sum() ** 2
              / len(model.service_sets[k]) for k in range(2)]
    assert np.allclose(got, expect, rtol=1e-6)


def test_fzf_sinr_requires_more_antennas_than_devices():
    model = toy_model(np.ones((1, 4)))
    stats = estimation_stats(model, np.ones(4))
    with pytest.raises(ValueError):
        lb_sinr_fzf(model, stats, np.ones(4), 4)


@pytest.mark.parametrize("kdev", [2, 5, 10])
def test_sinr_pieces_match_the_per_device_loop(kdev, rng):
    # the indicator products sum over every AP in index order, the loop over
    # each service set in its own order: equal up to rounding
    for size in range(1, 7):
        model = random_model(rng, num_aps=6, num_devices=kdev, set_size=size)
        stats = estimation_stats(model, np.exp(rng.normal(0.0, 2.0, kdev)))
        for decoder in ("mrc", "fzf"):
            got = fbl.sinr_pieces(model, stats, kdev + 4, decoder)
            want = sinr_pieces_by_device(model, stats, kdev + 4, decoder)
            assert got.antennas == want.antennas
            for name in ("coherent", "noise", "cross"):
                assert np.allclose(getattr(got, name), getattr(want, name),
                                   rtol=1e-13, atol=0), (size, decoder, name)


@pytest.mark.parametrize("kdev", [2, 5, 10])
def test_lb_sinr_matches_the_per_device_loop(kdev, rng):
    # one matrix-vector product against a dot product per device: the
    # interference sums may round in another order
    for size in range(1, 7):
        model = random_model(rng, num_aps=6, num_devices=kdev, set_size=size)
        stats = estimation_stats(model, np.exp(rng.normal(0.0, 2.0, kdev)))
        payload = np.exp(rng.normal(0.0, 2.0, kdev))
        for decoder in ("mrc", "fzf"):
            pieces = fbl.sinr_pieces(model, stats, kdev + 4, decoder)
            assert np.allclose(fbl.lb_sinr(pieces, payload), lb_sinr_by_device(pieces, payload),
                               rtol=1e-15, atol=0), (size, decoder)


def test_sinr_pieces_reject_an_empty_service_set():
    model = toy_model(np.ones((2, 3)), service_sets=[(0,), (), (0, 1)])
    stats = estimation_stats(model, np.ones(3))
    for decoder in ("mrc", "fzf"):
        with pytest.raises(ValueError, match="device 1 has an empty service set"):
            fbl.sinr_pieces(model, stats, 8, decoder)


# --------------------------------------------------------------------------
# product-form factors
# --------------------------------------------------------------------------

def test_single_ap_factors_are_the_raw_terms():
    beta = 0.7
    pilot = 1.3
    model = toy_model(np.array([[beta]]))
    factors = mrc_factors(model, np.array([pilot]), 0)
    kp = 1 * pilot
    assert factors.log_gain == pytest.approx(math.log(kp * beta ** 2), rel=1e-12)
    assert factors.log_scale == pytest.approx(math.log(kp * beta + 1.0), rel=1e-12)


def test_factor_identities_match_direct_sinrs(rng):
    # product-form rewrite equals the direct formula on 1000 random draws
    worst_mrc = 0.0
    worst_fzf = 0.0
    for _ in range(1000):
        model = random_model(rng)
        k = int(rng.integers(model.num_devices))
        pilot = np.exp(rng.normal(0.0, 1.5, model.num_devices))
        payload = np.exp(rng.normal(0.0, 1.5, model.num_devices))
        stats = estimation_stats(model, pilot)
        n_ant = model.num_devices + int(rng.integers(1, 6))

        direct = lb_sinr_mrc(model, stats, payload, n_ant)[k]
        via = sinr_mrc_from_factors(mrc_factors(model, pilot, k), payload, n_ant, k)
        worst_mrc = max(worst_mrc, abs(via - direct) / direct)

        direct = lb_sinr_fzf(model, stats, payload, n_ant)[k]
        via = sinr_fzf_from_factors(fzf_factors(model, pilot, k), payload,
                                    n_ant, model.num_devices, k)
        worst_fzf = max(worst_fzf, abs(via - direct) / direct)
    assert worst_mrc < 1e-10
    assert worst_fzf < 1e-10


def test_factors_reject_nonpositive_pilot():
    model = toy_model(np.array([[1.0]]))
    with pytest.raises(ValueError):
        mrc_factors(model, np.array([0.0]), 0)
    with pytest.raises(ValueError):
        fzf_factors(model, np.array([-1.0]), 0)


def test_penalty_factor_matches_dispersion():
    gamma = np.array([0.3, 1.0, 7.0])
    dispersion = 1.0 - (1.0 + gamma) ** -2
    assert np.allclose(penalty_factor(gamma), np.sqrt(dispersion), rtol=1e-12)


def test_params_from_config():
    cfg = SystemConfig(num_devices=5, antennas_per_ap=12)
    params = FblParams.from_config(cfg)
    assert params.eta == pytest.approx(0.005)
    assert params.alpha.shape == (5,)
    zero = params.with_zero_dispersion()
    assert zero.alpha.shape == (5,) and np.all(zero.alpha == 0)
    assert lb_rate(1e-9, zero, 0) > 0.0       # no penalty: every SINR has a rate
