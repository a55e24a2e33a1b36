import math

import numpy as np
import pytest

from cfurllc.approx import (PENALTY_TANGENT_MIN, fzf_gain_monomial, fzf_gain_rows,
                            log1p_tangent, mrc_gain_monomial, mrc_gain_rows, penalty_tangent)
from cfurllc.scenario import SystemConfig, generate_topology
from conftest import random_model, toy_model
from oracles import (fzf_factors, fzf_gain_fit_by_hand, monomial_log_value, mrc_gain_fit_by_hand,
                     penalty_factor)


def mrc_gain_value(model, pilot, k):
    """Direct positive-space coherent-gain posynomial (reference)."""
    idx = list(model.service_sets[k])
    b = model.beta[idx, k]
    kp = model.num_devices * pilot
    total = 0.0
    for m in range(len(idx)):
        term = kp * b[m] ** 2
        for n in range(len(idx)):
            if n != m:
                term *= kp * b[n] + 1.0
        total += term
    return total


def fzf_gain_log_value(model, pilot, k):
    """log of coherent^2 * prod_{j != k} scale_j^2, via the factor helpers."""
    f = fzf_factors(model, pilot, k)
    return 2.0 * f.log_coherent + 2.0 * (f.log_scale.sum() - f.log_scale[k])


# --------------------------------------------------------------------------
# log tangents
# --------------------------------------------------------------------------

def test_log1p_tangent_examples():
    rho, delta = log1p_tangent(1.0)
    assert rho == pytest.approx(0.5)
    assert delta == pytest.approx(math.log(2.0))
    rho, delta = log1p_tangent(3.0)
    assert rho == pytest.approx(0.75)
    assert delta == pytest.approx(math.log(4.0) - 0.75 * math.log(3.0))


def test_log1p_tangent_is_global_lower_bound(rng):
    for _ in range(1000):
        x_hat = float(10 ** rng.uniform(-3, 2))
        x = float(10 ** rng.uniform(-4, 3))
        rho, delta = log1p_tangent(x_hat)
        assert math.log1p(x) - (rho * math.log(x) + delta) >= -1e-12
    rho, delta = log1p_tangent(1.0)
    assert rho * math.log(1.0) + delta == pytest.approx(math.log(2.0), abs=1e-15)


def test_penalty_tangent_example_at_one():
    rho_t, delta_t = penalty_tangent(1.0)
    value = rho_t * math.log(1.0) + delta_t
    assert value == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert penalty_factor(1.0) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)


def test_penalty_tangent_upper_bounds_on_domain(rng):
    for _ in range(1000):
        x_hat = float(rng.uniform(PENALTY_TANGENT_MIN, 30.0))
        x = float(rng.uniform(PENALTY_TANGENT_MIN, 60.0))
        rho_t, delta_t = penalty_tangent(x_hat)
        assert (rho_t * math.log(x) + delta_t) - penalty_factor(x) >= -1e-12


def test_penalty_tangent_slope_nonnegative():
    for x_hat in np.linspace(PENALTY_TANGENT_MIN, 50.0, 200):
        rho_t, _ = penalty_tangent(float(x_hat))
        assert rho_t >= 0.0


def test_penalty_tangent_domain_guard():
    with pytest.raises(ValueError):
        penalty_tangent(0.9 * PENALTY_TANGENT_MIN)
    # an array is rejected for any entry outside the domain, naming the first
    inside = np.array([PENALTY_TANGENT_MIN, 0.5, 2.0, 40.0])
    below = np.insert(inside, 2, [0.5 * PENALTY_TANGENT_MIN, 0.1])
    with pytest.raises(ValueError, match=f"expansion point {0.5 * PENALTY_TANGENT_MIN:.4f} "
                                         f"below tangent domain {PENALTY_TANGENT_MIN:.4f}"):
        penalty_tangent(below)
    penalty_tangent(inside)               # the domain's boundary belongs to it
    for bad in (0.0, -1.0):
        for at in range(inside.size + 1):
            with pytest.raises(ValueError, match="expansion point must be positive"):
                log1p_tangent(np.insert(inside, at, bad))


def test_tangents_take_arrays_entry_by_entry(rng):
    x_hat = np.exp(rng.uniform(math.log(PENALTY_TANGENT_MIN), math.log(1e4), 64))
    for tangent in (log1p_tangent, penalty_tangent):
        rho, delta = tangent(x_hat)
        assert rho.shape == delta.shape == x_hat.shape
        each = np.array([tangent(float(x)) for x in x_hat])          # scalars in, scalars out
        assert each.shape == (x_hat.size, 2)
        assert np.allclose(each, np.column_stack([rho, delta]), rtol=1e-15, atol=0)


def test_tangency_first_order(rng):
    # value and log-gradient of both tangents match the bounded function
    eps = 1e-6
    for _ in range(50):
        x_hat = float(rng.uniform(0.5, 10.0))
        rho, delta = log1p_tangent(x_hat)
        assert rho * math.log(x_hat) + delta == pytest.approx(math.log1p(x_hat),
                                                              abs=1e-12)
        fd = (math.log1p(x_hat * math.exp(eps))
              - math.log1p(x_hat * math.exp(-eps))) / (2 * eps)
        assert rho == pytest.approx(fd, abs=1e-6)

        rho_t, delta_t = penalty_tangent(x_hat)
        assert rho_t * math.log(x_hat) + delta_t == pytest.approx(
            penalty_factor(x_hat), abs=1e-12)
        fd = (penalty_factor(x_hat * math.exp(eps))
              - penalty_factor(x_hat * math.exp(-eps))) / (2 * eps)
        assert rho_t == pytest.approx(fd, abs=1e-6)


# --------------------------------------------------------------------------
# monomial fits of the coherent gains
# --------------------------------------------------------------------------

def test_mrc_monomial_single_ap_is_exact():
    beta = 0.7
    model = toy_model(np.array([[beta]]))
    fit = mrc_gain_monomial(mrc_gain_rows(model), np.array([2.0]))
    assert fit.exponents[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert fit.log_coeff[0] == pytest.approx(math.log(1 * beta ** 2), abs=1e-12)
    for p in (0.1, 2.0, 50.0):
        assert math.exp(monomial_log_value(fit, np.array([p]), 0)) == pytest.approx(
            mrc_gain_value(model, p, 0), rel=1e-12)


def test_mrc_monomial_exponent_at_least_one(rng):
    for _ in range(100):
        model = random_model(rng)
        k = int(rng.integers(model.num_devices))
        p_hat = np.full(model.num_devices, 10 ** rng.uniform(-2, 2))
        fit = mrc_gain_monomial(mrc_gain_rows(model), p_hat)
        assert fit.exponents[k, k] >= 1.0 - 1e-12


def test_mrc_monomial_is_tight_lower_bound(rng):
    for _ in range(1000):
        model = random_model(rng)
        kdev = model.num_devices
        k = int(rng.integers(kdev))
        p_hat = float(10 ** rng.uniform(-2, 2))
        fit = mrc_gain_monomial(mrc_gain_rows(model), np.full(kdev, p_hat))
        exact_hat = mrc_gain_value(model, p_hat, k)
        assert math.exp(monomial_log_value(fit, np.full(kdev, p_hat), k)) == pytest.approx(
            exact_hat, rel=1e-12)
        p = float(10 ** rng.uniform(-3, 3))
        exact = mrc_gain_value(model, p, k)
        assert exact - math.exp(monomial_log_value(fit, np.full(kdev, p), k)) >= -1e-9 * exact


def test_mrc_monomial_matches_log_derivative(rng):
    eps = 1e-6
    for _ in range(50):
        model = random_model(rng)
        k = int(rng.integers(model.num_devices))
        p_hat = float(10 ** rng.uniform(-1, 1))
        fit = mrc_gain_monomial(mrc_gain_rows(model), np.full(model.num_devices, p_hat))
        fd = (math.log(mrc_gain_value(model, p_hat * math.exp(eps), k))
              - math.log(mrc_gain_value(model, p_hat * math.exp(-eps), k))) / (2 * eps)
        assert fit.exponents[k, k] == pytest.approx(fd, abs=1e-6)


def test_fzf_monomial_is_tight_lower_bound(rng):
    for _ in range(1000):
        model = random_model(rng, num_devices=int(rng.integers(2, 5)))
        k = int(rng.integers(model.num_devices))
        p_hat = np.exp(rng.normal(0.0, 1.0, model.num_devices))
        fit = fzf_gain_monomial(fzf_gain_rows(model), p_hat)
        log_exact_hat = fzf_gain_log_value(model, p_hat, k)
        assert monomial_log_value(fit, p_hat, k) == pytest.approx(log_exact_hat, abs=1e-12)
        p = np.exp(rng.normal(0.0, 1.5, model.num_devices))
        log_exact = fzf_gain_log_value(model, p, k)
        assert log_exact - monomial_log_value(fit, p, k) >= -1e-9


def test_fzf_monomial_matches_log_gradient(rng):
    eps = 1e-6
    for _ in range(30):
        model = random_model(rng, num_devices=int(rng.integers(2, 5)))
        k = int(rng.integers(model.num_devices))
        p_hat = np.exp(rng.normal(0.0, 1.0, model.num_devices))
        fit = fzf_gain_monomial(fzf_gain_rows(model), p_hat)
        for j in range(model.num_devices):
            up, dn = p_hat.copy(), p_hat.copy()
            up[j] *= math.exp(eps)
            dn[j] *= math.exp(-eps)
            fd = (fzf_gain_log_value(model, up, k)
                  - fzf_gain_log_value(model, dn, k)) / (2 * eps)
            assert fit.exponents[k, j] == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("fit", [mrc_gain_monomial, fzf_gain_monomial])
def test_gain_fits_reject_nonpositive_pilots(fit):
    model = toy_model(np.array([[0.7, 0.2], [0.3, 0.5]]))
    rows = {mrc_gain_monomial: mrc_gain_rows, fzf_gain_monomial: fzf_gain_rows}[fit](model)
    for pilot in ([1.0, 0.0], [-1.0, 1.0]):
        with pytest.raises(ValueError):
            fit(rows, np.array(pilot))


FIT_DEPLOYMENTS = {
    "desk": SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12),
    "paper": SystemConfig(num_devices=10, num_aps=9, antennas_per_ap=16),
    "threshold-1": SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12,
                                ap_select_threshold=1.0),
}


@pytest.mark.parametrize("layout", sorted(FIT_DEPLOYMENTS))
def test_batched_fits_match_the_fits_by_hand(layout, rng):
    # all K fits from one table evaluation against the per-device value and
    # log-gradient written out by hand, at pilots from 1e6 to 1e13; each
    # exponent row is compared against its largest entry, since the
    # hand-written slope 1 - 1/t loses the small ones to cancellation
    cfg = FIT_DEPLOYMENTS[layout]
    for seed in range(5):
        model = generate_topology(cfg, seed=seed)
        kdev = model.num_devices
        for _ in range(4):
            p_hat = 10 ** rng.uniform(6.0, 13.0, kdev)
            for batched, by_hand in ((mrc_gain_monomial(mrc_gain_rows(model), p_hat),
                                      [mrc_gain_fit_by_hand(model, float(p_hat[k]), k)
                                       for k in range(kdev)]),
                                     (fzf_gain_monomial(fzf_gain_rows(model), p_hat),
                                      [fzf_gain_fit_by_hand(model, p_hat, k)
                                       for k in range(kdev)])):
                log_coeffs = np.array([c for c, _ in by_hand])
                exponents = np.array([e for _, e in by_hand])
                assert batched.log_coeff.shape == (kdev,)
                assert batched.exponents.shape == (kdev, kdev)
                # 1e-12 relative in the coefficients
                assert np.abs(batched.log_coeff - log_coeffs).max() <= 1e-12
                scale = np.abs(exponents).max(axis=1, keepdims=True)
                assert (np.abs(batched.exponents - exponents) <= 1e-12 * scale).all()


def test_objective_surrogate_ordering(rng):
    # the tangent surrogate never exceeds the true objective and touches it
    # at the expansion point; this is the chain the ascent proof rests on
    for _ in range(300):
        k = int(rng.integers(1, 6))
        w = rng.uniform(0.0, 1.0, k)
        alpha = rng.uniform(0.0, 0.3, k)
        chi_hat = 10 ** rng.uniform(math.log10(PENALTY_TANGENT_MIN), 1.5, size=k)
        chi = 10 ** rng.uniform(math.log10(PENALTY_TANGENT_MIN), 1.5, size=k)

        def surrogate(vals):
            total = 0.0
            for i in range(k):
                rho, delta = log1p_tangent(chi_hat[i])
                rho_t, delta_t = penalty_tangent(chi_hat[i])
                total += w[i] * ((rho - alpha[i] * rho_t) * math.log(vals[i])
                                 + delta - alpha[i] * delta_t)
            return total

        def exact(vals):
            return sum(w[i] * (math.log1p(vals[i]) - alpha[i] * penalty_factor(vals[i]))
                       for i in range(k))

        assert exact(chi) - surrogate(chi) >= -1e-10
        assert exact(chi_hat) == pytest.approx(surrogate(chi_hat), abs=1e-10)
