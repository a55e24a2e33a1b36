import math

import numpy as np
import pytest

from cfurllc.approx import (PENALTY_TANGENT_MIN, fzf_gain_monomial, log1p_tangent,
                            mrc_gain_monomial, penalty_tangent)
from cfurllc.fbl import penalty_factor

from conftest import random_model, toy_model
from oracles import fzf_factors, monomial_log_value


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
    fit = mrc_gain_monomial(model, 2.0, 0)
    assert fit.exponents[0] == pytest.approx(1.0, abs=1e-12)
    assert fit.log_coeff == pytest.approx(math.log(1 * beta ** 2), abs=1e-12)
    for p in (0.1, 2.0, 50.0):
        assert math.exp(monomial_log_value(fit, np.array([p]))) == pytest.approx(
            mrc_gain_value(model, p, 0), rel=1e-12)


def test_mrc_monomial_exponent_at_least_one(rng):
    for _ in range(100):
        model = random_model(rng)
        k = int(rng.integers(model.num_devices))
        fit = mrc_gain_monomial(model, float(10 ** rng.uniform(-2, 2)), k)
        assert fit.exponents[0] >= 1.0 - 1e-12


def test_mrc_monomial_is_tight_lower_bound(rng):
    for _ in range(1000):
        model = random_model(rng)
        k = int(rng.integers(model.num_devices))
        p_hat = float(10 ** rng.uniform(-2, 2))
        fit = mrc_gain_monomial(model, p_hat, k)
        exact_hat = mrc_gain_value(model, p_hat, k)
        assert math.exp(monomial_log_value(fit, np.array([p_hat]))) == pytest.approx(
            exact_hat, rel=1e-12)
        p = float(10 ** rng.uniform(-3, 3))
        exact = mrc_gain_value(model, p, k)
        assert exact - math.exp(monomial_log_value(fit, np.array([p]))) >= -1e-9 * exact


def test_mrc_monomial_matches_log_derivative(rng):
    eps = 1e-6
    for _ in range(50):
        model = random_model(rng)
        k = int(rng.integers(model.num_devices))
        p_hat = float(10 ** rng.uniform(-1, 1))
        fit = mrc_gain_monomial(model, p_hat, k)
        fd = (math.log(mrc_gain_value(model, p_hat * math.exp(eps), k))
              - math.log(mrc_gain_value(model, p_hat * math.exp(-eps), k))) / (2 * eps)
        assert fit.exponents[0] == pytest.approx(fd, abs=1e-6)


def test_fzf_monomial_is_tight_lower_bound(rng):
    for _ in range(1000):
        model = random_model(rng, num_devices=int(rng.integers(2, 5)))
        k = int(rng.integers(model.num_devices))
        p_hat = np.exp(rng.normal(0.0, 1.0, model.num_devices))
        fit = fzf_gain_monomial(model, p_hat, k)
        log_exact_hat = fzf_gain_log_value(model, p_hat, k)
        assert monomial_log_value(fit, p_hat) == pytest.approx(log_exact_hat, abs=1e-12)
        p = np.exp(rng.normal(0.0, 1.5, model.num_devices))
        log_exact = fzf_gain_log_value(model, p, k)
        assert log_exact - monomial_log_value(fit, p) >= -1e-9


def test_fzf_monomial_matches_log_gradient(rng):
    eps = 1e-6
    for _ in range(30):
        model = random_model(rng, num_devices=int(rng.integers(2, 5)))
        k = int(rng.integers(model.num_devices))
        p_hat = np.exp(rng.normal(0.0, 1.0, model.num_devices))
        fit = fzf_gain_monomial(model, p_hat, k)
        for j in range(model.num_devices):
            up, dn = p_hat.copy(), p_hat.copy()
            up[j] *= math.exp(eps)
            dn[j] *= math.exp(-eps)
            fd = (fzf_gain_log_value(model, up, k)
                  - fzf_gain_log_value(model, dn, k)) / (2 * eps)
            assert fit.exponents[j] == pytest.approx(fd, abs=1e-6)


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
