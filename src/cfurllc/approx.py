"""Local bounds that make each allocation subproblem a geometric program.

Two log-linear tangents handle the objective (a lower bound on log(1+x), an
upper bound on the dispersion penalty factor), and two best-local monomial
fits handle the coherent-gain posynomials in the SINR constraints. All four
touch the exact function, in value and log-gradient, at the expansion point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbl import _logsumexp
from .scenario import LargeScaleModel

# The penalty factor is log-concave only from this point on; tangent upper
# bounds are valid (and used) only on that region.
PENALTY_TANGENT_MIN = (math.sqrt(17.0) - 3.0) / 4.0


def log1p_tangent(x_hat: float) -> tuple[float, float]:
    """Slope/intercept of the log-domain tangent under log(1+x), tight at x_hat."""
    if x_hat <= 0:
        raise ValueError("expansion point must be positive")
    rho = x_hat / (1.0 + x_hat)
    delta = math.log1p(x_hat) - rho * math.log(x_hat)
    return rho, delta


def penalty_tangent(x_hat: float) -> tuple[float, float]:
    """Slope/intercept of the log-domain tangent above the penalty factor.

    Only valid for expansion points at or above PENALTY_TANGENT_MIN, where the
    factor is concave in log(x).
    """
    if x_hat < PENALTY_TANGENT_MIN:
        raise ValueError(
            f"expansion point {x_hat:.4f} below tangent domain {PENALTY_TANGENT_MIN:.4f}")
    root = math.sqrt(x_hat * x_hat + 2.0 * x_hat)
    rho = x_hat / root - x_hat * root / (1.0 + x_hat) ** 2
    delta = math.sqrt(1.0 - 1.0 / (1.0 + x_hat) ** 2) - rho * math.log(x_hat)
    return rho, delta


@dataclass(frozen=True)
class MonomialFit:
    """Best local monomial c * prod(p_j ** e_j) of a coherent-gain posynomial."""

    exponents: np.ndarray   # per pilot-power variable
    log_coeff: float


def mrc_gain_monomial(model: LargeScaleModel, pilot_hat: float, k: int) -> MonomialFit:
    """Monomial lower bound of the MRC coherent-gain posynomial, tight at pilot_hat.

    The exponent is the log-derivative at the expansion point; convexity of the
    gain in the log of the pilot power makes the tangent a global lower bound.
    """
    if pilot_hat <= 0:
        raise ValueError("expansion pilot power must be positive")
    idx = list(model.service_sets[k])
    b = model.beta[idx, k]
    kp = model.num_devices * pilot_hat
    t = kp * b + 1.0
    s_frac = kp * b / t                                # per-factor log-slopes
    size = len(idx)
    mask = ~np.eye(size, dtype=bool)
    log_u = 2.0 * np.log(b) + (np.log(t)[None, :] * mask).sum(axis=1)
    w = np.exp(log_u - log_u.max())
    w /= w.sum()
    exponent = 1.0 + float(w @ (mask.astype(float) @ s_frac))
    log_gain_hat = math.log(kp) + float(_logsumexp(log_u))
    return MonomialFit(exponents=np.array([exponent]),
                       log_coeff=log_gain_hat - exponent * math.log(pilot_hat))


def fzf_gain_monomial(model: LargeScaleModel, pilot_hat: np.ndarray, k: int) -> MonomialFit:
    """Monomial lower bound of the zero-forcing coherent-gain product.

    Tight at the expansion pilot vector; the product's Hessian in the log of
    the pilot powers is positive semi-definite, so the tangent bounds it below
    everywhere. Exponent j is the log-derivative with respect to pilot j.
    """
    p_hat = np.asarray(pilot_hat, dtype=float)
    if (p_hat <= 0).any():
        raise ValueError("expansion pilot powers must be positive")
    idx = list(model.service_sets[k])
    size = len(idx)
    kdev = model.num_devices
    mask = ~np.eye(size, dtype=bool)

    beta_all = model.beta[idx, :]                      # (S, K)
    t_all = kdev * p_hat[None, :] * beta_all + 1.0
    s_all = 1.0 - 1.0 / t_all                          # (S, K) per-factor slopes

    exponents = s_all.sum(axis=0)                      # doubled half-power slopes
    b_own = beta_all[:, k]
    logt_own = np.log(t_all[:, k])
    log_v = 0.5 * (math.log(kdev * p_hat[k]) + 2.0 * np.log(b_own)) \
        + 0.5 * (logt_own[None, :] * mask).sum(axis=1)
    w = np.exp(log_v - log_v.max())
    w /= w.sum()
    exponents[k] = float(w @ (1.0 + mask.astype(float) @ s_all[:, k]))

    log_coherent_hat = float(_logsumexp(log_v))
    log_scale_hat = 0.5 * np.log(t_all).sum(axis=0)    # (K,)
    log_value_hat = 2.0 * log_coherent_hat + float(
        2.0 * log_scale_hat.sum() - 2.0 * log_scale_hat[k])
    return MonomialFit(exponents=exponents,
                       log_coeff=log_value_hat - float(exponents @ np.log(p_hat)))
