"""Test oracles: product-form rewrites of the closed-form SINR lower bounds,
kept in the log domain, for `fbl.lb_sinr_*` and the gain fits in `approx`;
the textbook normal-approximation rate, for `fbl.lb_rate`; a bisection that
starts at the rate kernel's zero, for `fbl.rate_kernel_inverse`; and the
closed-form means of every decoder term, for the Monte-Carlo validator in
`montecarlo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfurllc.channel import EstimationStats
from cfurllc.approx import MonomialFit
from cfurllc.fbl import FblParams, _logsumexp, rate_kernel
from cfurllc.scenario import LargeScaleModel


@dataclass(frozen=True)
class MrcFactors:
    """Log-domain pieces of the MRC SINR written over pilot-power products."""

    log_gain: float          # log of the coherent-gain posynomial
    log_scale: float         # log of the product of estimation denominators
    log_cross: np.ndarray    # (K,) log of the per-interferer posynomials
    set_size: int


@dataclass(frozen=True)
class FzfFactors:
    """Log-domain pieces of the zero-forcing SINR over pilot-power products."""

    log_coherent: float      # log of the coherent square-root-gain posynomial
    log_scale: np.ndarray    # (K,) log of the per-device root-product factors
    log_residual: np.ndarray  # (K,) log of the per-device residual posynomials
    set_size: int


def mrc_factors(model: LargeScaleModel, pilot_power: np.ndarray, k: int) -> MrcFactors:
    """Evaluate the product-form MRC factors directly from their defining sums."""
    p = np.asarray(pilot_power, dtype=float)
    if np.any(p <= 0):
        raise ValueError("pilot powers must be strictly positive")
    idx = list(model.service_sets[k])
    b = model.beta[idx, k]
    kp = model.num_devices * p[k]
    logt = np.log1p(kp * b)                              # (S,)
    s = len(idx)
    mask = ~np.eye(s, dtype=bool)
    # per-m sums over the other set members, formed explicitly
    others = (logt[None, :] * mask).sum(axis=1)          # (S,)
    log_scale = float(logt.sum())
    log_gain = float(_logsumexp(np.log(kp * b ** 2) + others))
    cross_beta = model.beta[idx, :]                      # (S, K)
    log_cross = _logsumexp(np.log(kp * b ** 2)[:, None] + np.log(cross_beta)
                           + others[:, None], axis=0)
    return MrcFactors(log_gain=log_gain, log_scale=log_scale,
                      log_cross=np.asarray(log_cross, dtype=float), set_size=s)


def fzf_factors(model: LargeScaleModel, pilot_power: np.ndarray, k: int) -> FzfFactors:
    """Evaluate the product-form zero-forcing factors from their defining sums."""
    p = np.asarray(pilot_power, dtype=float)
    if np.any(p <= 0):
        raise ValueError("pilot powers must be strictly positive")
    idx = list(model.service_sets[k])
    s = len(idx)
    kdev = model.num_devices
    b_own = model.beta[idx, k]
    kp_own = kdev * p[k]
    logt_own = np.log1p(kp_own * b_own)
    mask = ~np.eye(s, dtype=bool)
    others_own = (logt_own[None, :] * mask).sum(axis=1)
    log_coherent = float(_logsumexp(0.5 * np.log(kp_own * b_own ** 2) + 0.5 * others_own))

    beta_all = model.beta[idx, :]                        # (S, K)
    logt_all = np.log1p(kdev * p[None, :] * beta_all)    # (S, K)
    log_scale = 0.5 * logt_all.sum(axis=0)               # (K,)
    others_all = mask.astype(float) @ logt_all           # (S, K) sums over n != m
    log_residual = _logsumexp(np.log(beta_all) + others_all, axis=0)
    return FzfFactors(log_coherent=log_coherent, log_scale=np.asarray(log_scale),
                      log_residual=np.asarray(log_residual), set_size=s)


def normal_approximation_rate(gamma: float, params: FblParams, k: int) -> float:
    """Achievable rate (bits/s) at SINR gamma under the normal approximation,

        B ((1 - eta) log2(1 + gamma) - sqrt((1 - eta) V / L) Q^-1(eps) / ln 2),

    with dispersion V = 1 - (1 + gamma)^-2. Negative for tiny SINR, where
    `fbl.lb_rate` clamps at zero.
    """
    eta = params.eta
    qinv = params.alpha[k] * math.sqrt(params.blocklength * (1.0 - eta))
    dispersion = 1.0 - (1.0 + gamma) ** -2
    return params.bandwidth_hz * (
        (1.0 - eta) * math.log2(1.0 + gamma)
        - math.sqrt((1.0 - eta) * dispersion / params.blocklength) * qinv / math.log(2.0))


def monomial_log_value(fit: MonomialFit, pilot_power: np.ndarray) -> float:
    """Log of a fitted monomial at the given pilot powers."""
    return fit.log_coeff + float(fit.exponents @ np.log(pilot_power))


def alpha_limit(x):
    """Largest dispersion coefficient with a non-negative kernel at inverse
    SINR x; decreasing in x, so its inverse is the kernel's zero."""
    x = np.asarray(x, dtype=float)
    return (x + 1.0) * np.log1p(1.0 / x) / np.sqrt(2.0 * x + 1.0)


def kernel_zero(alpha: float) -> float:
    """Inverse SINR at which `fbl.rate_kernel` crosses zero, by bisection on
    alpha_limit; infinite without a dispersion penalty."""
    if alpha == 0.0:
        return math.inf
    lo, hi = 1.0, 1.0
    while alpha_limit(hi) > alpha:
        hi *= 4.0
    while alpha_limit(lo) < alpha:
        lo /= 4.0
        if lo < 1e-300:
            raise ValueError("dispersion coefficient too large")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if alpha_limit(mid) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * mid:
            break
    return 0.5 * (lo + hi)


def kernel_inverse_from_zero(y: float, alpha: float) -> float:
    """Solve rate_kernel(x, alpha) = y, y > 0 and alpha > 0, by bisection
    bracketed from the kernel's zero downwards."""
    hi = kernel_zero(alpha)
    lo = hi
    while rate_kernel(lo, alpha) < y:
        lo /= 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate_kernel(mid, alpha) > y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * mid:
            break
    return 0.5 * (lo + hi)


def sinr_mrc_from_factors(factors: MrcFactors, payload_power: np.ndarray,
                          n_antennas: int, k: int) -> float:
    """Rebuild the MRC SINR from its product-form factors without overflow."""
    pd = np.asarray(payload_power, dtype=float)
    ratio = math.exp(2.0 * (factors.log_gain - factors.log_scale))
    inner = float(pd @ np.exp(factors.log_cross - factors.log_scale)) \
        + math.exp(factors.log_gain - factors.log_scale)
    return n_antennas * pd[k] * ratio / inner


def sinr_fzf_from_factors(factors: FzfFactors, payload_power: np.ndarray,
                          n_antennas: int, num_devices: int, k: int) -> float:
    """Rebuild the zero-forcing SINR from its product-form factors."""
    pd = np.asarray(payload_power, dtype=float)
    num = pd[k] * (n_antennas - num_devices) * math.exp(
        2.0 * (factors.log_coherent - factors.log_scale[k]))
    den = factors.set_size + float(
        pd @ np.exp(factors.log_residual - 2.0 * factors.log_scale))
    return num / den


def expected_terms_mrc(model: LargeScaleModel, stats: EstimationStats,
                       payload_power: np.ndarray, n_antennas: int) -> dict:
    """Analytic means of |DS|^2, |LS|^2, |UI|^2 and |N|^2 for the MRC decoder.

    The interference splits into a channel part and a pilot-noise part whose
    scale carries the estimating device's own pilot power.
    """
    kdev = model.num_devices
    pd = np.asarray(payload_power, dtype=float)
    ds2 = np.empty(kdev)
    ls2 = np.empty(kdev)
    ui2 = np.zeros((kdev, kdev))
    n2 = np.empty(kdev)
    for k in range(kdev):
        idx = list(model.service_sets[k])
        lam = stats.lam[idx, k]
        beta = model.beta[idx, k]
        ds2[k] = n_antennas ** 2 * pd[k] * lam.sum() ** 2
        ls2[k] = n_antennas * pd[k] * float((lam * beta).sum())
        kp_own = kdev * stats.pilot_power[k]
        for j in range(kdev):
            if j == k:
                continue
            cross = model.beta[idx, j]
            channel_part = n_antennas * float((lam ** 2 * cross / beta).sum())
            pilot_part = n_antennas / kp_own * float(((lam / beta) ** 2 * cross).sum())
            ui2[k, j] = pd[j] * (channel_part + pilot_part)
        n2[k] = n_antennas * lam.sum()
    return {"ds2": ds2, "ls2": ls2, "ui2": ui2, "n2": n2}


def expected_terms_fzf(model: LargeScaleModel, stats: EstimationStats,
                       payload_power: np.ndarray, n_antennas: int) -> dict:
    """Analytic means of the decoder terms for zero-forcing."""
    kdev = model.num_devices
    pd = np.asarray(payload_power, dtype=float)
    ds2 = np.empty(kdev)
    ls2 = np.empty(kdev)
    ui2 = np.zeros((kdev, kdev))
    n2 = np.empty(kdev)
    for k in range(kdev):
        idx = list(model.service_sets[k])
        ds2[k] = pd[k] * (n_antennas - kdev) * np.sqrt(stats.lam[idx, k]).sum() ** 2
        ls2[k] = pd[k] * float(stats.err_var[idx, k].sum())
        for j in range(kdev):
            if j != k:
                ui2[k, j] = pd[j] * float(stats.err_var[idx, j].sum())
        n2[k] = float(len(idx))
    return {"ds2": ds2, "ls2": ls2, "ui2": ui2, "n2": n2}
