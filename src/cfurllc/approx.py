"""Local bounds that make each allocation subproblem a geometric program.

Two log-linear tangents handle the objective (a lower bound on log(1+x), an
upper bound on the dispersion penalty factor), and best local monomials
handle the coherent-gain posynomials in the SINR constraints. All touch the
exact function, in value and log-gradient, at the expansion point. The K
gains of a decoder are one term table (`gp.TermRows`) over the log pilots,
a row per device, and their fits are its values and Jacobian at the
expansion point (Boyd, Kim, Vandenberghe & Hassibi, "A tutorial on
geometric programming", Optim. Eng. 8, 2007), with no derivative of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gp
from .scenario import LargeScaleModel

# The penalty factor is log-concave only from this point on; tangent upper
# bounds are valid (and used) only on that region.
PENALTY_TANGENT_MIN = (math.sqrt(17.0) - 3.0) / 4.0


def log1p_tangent(x_hat):
    """Slope/intercept of the log-domain tangent under log(1+x), tight at x_hat,
    for a scalar or an array of expansion points; any point <= 0 is a ValueError."""
    x_hat = np.asarray(x_hat, dtype=float)
    if (x_hat <= 0).any():
        raise ValueError("expansion point must be positive")
    rho = x_hat / (1.0 + x_hat)
    delta = np.log1p(x_hat) - rho * np.log(x_hat)
    return rho, delta


def penalty_tangent(x_hat):
    """Slope/intercept of the log-domain tangent above the penalty factor, for
    a scalar or an array of expansion points.

    Only valid for expansion points at or above PENALTY_TANGENT_MIN, where the
    factor is concave in log(x); any point below is a ValueError.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    below = x_hat[x_hat < PENALTY_TANGENT_MIN]
    if below.size:
        raise ValueError(
            f"expansion point {below[0]:.4f} below tangent domain {PENALTY_TANGENT_MIN:.4f}")
    root = np.sqrt(x_hat * x_hat + 2.0 * x_hat)
    rho = x_hat / root - x_hat * root / (1.0 + x_hat) ** 2
    delta = np.sqrt(1.0 - 1.0 / (1.0 + x_hat) ** 2) - rho * np.log(x_hat)
    return rho, delta


@dataclass(frozen=True)
class MonomialFit:
    """Best local monomials c_k * prod_j p_j ** e_kj of K coherent gains."""

    exponents: np.ndarray   # (K, K): row k over the pilot powers
    log_coeff: np.ndarray   # (K,)


def service_terms(model: LargeScaleModel, copies: int = 1):
    """Row k's terms (r, m), r = 0..copies-1 and m in S_k, the service set of
    device k, row by row: per term its row, r and m, then the row sizes and
    the coefficients K beta_mi of the factors (AP m, device i) ->
    log(1 + K beta_mi p_i), factor m K + i."""
    kdev = model.num_devices
    sizes = np.array([len(aps) for aps in model.service_sets])
    counts = copies * sizes
    row = np.repeat(np.arange(kdev), counts)
    local = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    ap = np.concatenate(model.service_sets).astype(int)[
        (np.cumsum(sizes) - sizes)[row] + local % sizes[row]]
    return row, local // sizes[row], ap, counts, kdev * model.beta.ravel()


def mrc_gain_rows(model: LargeScaleModel) -> gp.TermRows:
    """The K MRC coherent gains sum_{m in S_k} K p_k beta_mk^2 prod_{m' != m}
    (1 + K beta_m'k p_k) over y = log p: row k's term m of `service_terms`
    has weight 1 on every factor (m' in S_k, k) but 0 on (m, k)."""
    kdev = model.num_devices
    row, _, ap, counts, b = service_terms(model)
    weights = (model.service_mask[:, :, None] * np.eye(kdev)[:, None, :]).reshape(kdev, -1)[row]
    weights[np.arange(row.size), ap * kdev + row] = 0.0
    return gp.TermRows(np.log(kdev * model.beta[ap, row] ** 2), np.eye(kdev)[row], counts,
                       b, np.tile(np.arange(kdev), model.num_aps), weights)


def fzf_gain_rows(model: LargeScaleModel) -> gp.TermRows:
    """The K zero-forcing gains coherent_k prod_{i != k} scale_ki over
    y = log p, with coherent_k = sum_{m in S_k} sqrt(K p_k) beta_mk
    prod_{m' != m} (1 + K beta_m'k p_k)^(1/2) and scale_ki = prod_{m' in S_k}
    (1 + K beta_m'i p_i)^(1/2): row k's term m of `service_terms` has weight
    1/2 on every factor (m' in S_k, i) but 0 on (m, k)."""
    kdev = model.num_devices
    row, _, ap, counts, b = service_terms(model)
    weights = 0.5 * np.repeat(model.service_mask, kdev, axis=1)[row]
    weights[np.arange(row.size), ap * kdev + row] = 0.0
    return gp.TermRows(np.log(math.sqrt(kdev) * model.beta[ap, row]), 0.5 * np.eye(kdev)[row],
                       counts, b, np.tile(np.arange(kdev), model.num_aps), weights)


def _fit(rows: gp.TermRows, pilot_hat: np.ndarray, power: float) -> MonomialFit:
    """The rows to the given power, each replaced by its tangent in the log
    pilots at pilot_hat: a monomial, tight there and, since each row is
    convex in the log pilots, below the row everywhere."""
    p_hat = np.asarray(pilot_hat, dtype=float)
    if (p_hat <= 0).any():
        raise ValueError("expansion pilot powers must be positive")
    y = np.log(p_hat)
    vals, jac, _ = rows.log_eval(y)
    return MonomialFit(exponents=power * jac, log_coeff=power * (vals - jac @ y))


def mrc_gain_monomial(rows: gp.TermRows, pilot_hat: np.ndarray) -> MonomialFit:
    """The monomial lower bounds of the K MRC coherent gains of rows, a model's
    `mrc_gain_rows`, tight at the pilot powers pilot_hat (K,); row k depends
    on pilot k alone."""
    return _fit(rows, pilot_hat, 1.0)


def fzf_gain_monomial(rows: gp.TermRows, pilot_hat: np.ndarray) -> MonomialFit:
    """The monomial lower bounds of the K zero-forcing products coherent_k^2
    prod_{j != k} scale_kj^2 of rows, a model's `fzf_gain_rows`, tight at the
    pilot powers pilot_hat (K,)."""
    return _fit(rows, pilot_hat, 2.0)
