"""Finite-blocklength rate math: dispersion penalty, rate kernel and its
inverse, and the closed-form SINR lower bounds of both decoders.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import EstimationStats
from .scenario import LargeScaleModel, SystemConfig

LN2 = math.log(2.0)


class InfeasibleRateError(ValueError):
    """Raised when a rate requirement cannot be met at any SINR."""


def q_inverse(eps: float) -> float:
    """Inverse Gaussian tail, for eps in (0, 0.5]; 0.5 maps to exactly 0."""
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"tail probability must lie in (0, 0.5], got {eps}")
    # 0.0 - z rather than -z: the median gives +0.0, not -0.0
    return 0.0 - statistics.NormalDist().inv_cdf(eps)


def penalty_factor(x):
    """Square root of the channel dispersion as a function of the SINR."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt(x * (x + 2.0)) / (1.0 + x)
    return float(out) if out.ndim == 0 else out


def rate_kernel(x, alpha: float):
    """Normalized rate as a function of the inverse SINR x.

    Decreasing and convex while positive; for alpha > 0 it crosses zero once
    and stays negative beyond.
    """
    x = np.asarray(x, dtype=float)
    out = np.log1p(1.0 / x) - alpha * np.sqrt(2.0 * x + 1.0) / (x + 1.0)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=4096)
def rate_kernel_inverse(y: float, alpha: float) -> float:
    """Solve rate_kernel(x, alpha) = y for x by bisection.

    y must be positive. The kernel decreases while positive and is negative
    past its zero, so it crosses y exactly once; the bracket grows from x = 1
    until the kernel drops to y.
    """
    if y <= 0:
        raise InfeasibleRateError("rate requirement must be positive")
    if alpha == 0.0:
        # zero dispersion penalty: closed form of the log term
        return 1.0 / math.expm1(y)
    hi = 1.0
    while rate_kernel(hi, alpha) > y:
        hi *= 4.0
    lo = hi
    while rate_kernel(lo, alpha) < y:
        lo /= 4.0
        if lo < 1e-300:
            raise InfeasibleRateError(f"rate target {y} unattainable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate_kernel(mid, alpha) > y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * mid:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FblParams:
    """Per-device finite-blocklength constants for one system configuration."""

    bandwidth_hz: float
    blocklength: int
    num_devices: int
    alpha: np.ndarray       # (K,) dispersion coefficient per device

    @classmethod
    def from_config(cls, config: SystemConfig) -> "FblParams":
        k = config.num_devices
        eta = config.pilot_fraction
        a = q_inverse(config.dep_target) / math.sqrt(config.blocklength * (1.0 - eta))
        return cls(bandwidth_hz=config.bandwidth_hz,
                   blocklength=config.blocklength, num_devices=k, alpha=np.full(k, a))

    @property
    def eta(self) -> float:
        return self.num_devices / self.blocklength

    @property
    def rate_scale(self) -> float:
        """Prefactor turning the rate kernel into bits per second."""
        return self.bandwidth_hz * (1.0 - self.eta) / LN2

    def with_zero_dispersion(self) -> "FblParams":
        """Infinite-blocklength variant: no dispersion penalty."""
        return replace(self, alpha=np.zeros(self.num_devices))


def lb_rate(gamma_lb, params: FblParams, k):
    """Lower-bound rate (bits/s) of device k from a lower-bound SINR, clamped
    at zero; an array of devices k takes an array of SINRs."""
    gamma_lb = np.asarray(gamma_lb, dtype=float)
    # past the kernel's zero the kernel is negative, so the clamp zeroes it
    out = np.maximum(params.rate_scale * rate_kernel(1.0 / gamma_lb, params.alpha[k]), 0.0)
    return float(out) if out.ndim == 0 else out


def weighted_lb_sum_rate(sinr: np.ndarray, weights: np.ndarray, params: FblParams) -> float:
    """Weighted sum of lower-bound rates at the given per-device SINRs."""
    return float(weights @ lb_rate(sinr, params, np.arange(params.num_devices)))


# ---------------------------------------------------------------------------
# Closed-form lower-bound SINRs (statistical-CSI decoders)
# ---------------------------------------------------------------------------

DECODERS = ("mrc", "fzf")


def check_decoder(decoder: str) -> None:
    """Reject any decoder name other than "mrc" and "fzf"."""
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")


class SinrPieces(NamedTuple):
    """Constants of every device's lower-bound SINR for fixed pilots:

        sinr_k = antennas * pd_k * coherent_k / (cross_k . pd + noise_k).
    """

    antennas: int            # N for MRC, N - K for full-pilot zero-forcing
    coherent: np.ndarray     # (K,) squared coherent sum over the service set
    noise: np.ndarray        # (K,)
    cross: np.ndarray        # (K, K) interference per unit payload of device j


def sinr_pieces(model: LargeScaleModel, stats: EstimationStats, n_antennas: int,
                decoder: str) -> SinrPieces:
    """The SINR constants of every device for decoder "mrc" or "fzf"."""
    kdev = model.num_devices
    check_decoder(decoder)
    if decoder == "fzf" and n_antennas <= kdev:
        raise ValueError("zero-forcing needs antennas_per_ap > num_devices")
    coherent = np.empty(kdev)
    noise = np.empty(kdev)
    cross = np.empty((kdev, kdev))
    for dev, aps in enumerate(model.service_sets):
        idx = list(aps)
        if not idx:
            raise ValueError(f"device {dev} has an empty service set")
        if decoder == "mrc":
            lam = stats.lam[idx, dev]
            coherent[dev] = lam.sum() ** 2
            noise[dev] = lam.sum()
            cross[dev] = (model.beta[idx, :] * lam[:, None]).sum(axis=0)
        else:
            coherent[dev] = np.sqrt(stats.lam[idx, dev]).sum() ** 2
            noise[dev] = len(idx)
            cross[dev] = stats.err_var[idx, :].sum(axis=0)
    return SinrPieces(n_antennas if decoder == "mrc" else n_antennas - kdev,
                      coherent, noise, cross)


def lb_sinr(pieces: SinrPieces, payload_power: np.ndarray) -> np.ndarray:
    """Lower-bound SINR of every device from its SINR constants and the payloads."""
    pd = np.asarray(payload_power, dtype=float)
    if np.any(pd <= 0):
        raise ValueError("payload powers must be strictly positive")
    n, coherent, noise, cross = pieces
    # a device at a time: one matrix-vector product would round the
    # interference sums in another order
    return np.array([n * pd[k] * coherent[k] / (float(cross[k] @ pd) + noise[k])
                     for k in range(coherent.size)])


def lb_sinr_mrc(model: LargeScaleModel, stats: EstimationStats,
                payload_power: np.ndarray, n_antennas: int) -> np.ndarray:
    """Lower-bound SINR of every device for maximum-ratio combining over its service set."""
    return lb_sinr(sinr_pieces(model, stats, n_antennas, "mrc"), payload_power)


def lb_sinr_fzf(model: LargeScaleModel, stats: EstimationStats,
                payload_power: np.ndarray, n_antennas: int) -> np.ndarray:
    """Lower-bound SINR of every device for full-pilot zero-forcing; needs more
    antennas than devices."""
    return lb_sinr(sinr_pieces(model, stats, n_antennas, "fzf"), payload_power)


# ---------------------------------------------------------------------------
# Log-domain helper
# ---------------------------------------------------------------------------

def _logsumexp(a: np.ndarray, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m)
    return out
