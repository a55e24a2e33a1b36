"""Finite-blocklength rate math: the rate kernel with its dispersion penalty
and its inverse, and the closed-form SINR lower bounds of both decoders.
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
        params = cls(bandwidth_hz=config.bandwidth_hz, blocklength=config.blocklength,
                     num_devices=k, alpha=np.zeros(k))
        a = q_inverse(config.dep_target) / math.sqrt(config.blocklength * (1.0 - params.eta))
        return replace(params, alpha=np.full(k, a))

    @property
    def eta(self) -> float:
        """Share of the block spent on pilots (the pilot length is num_devices)."""
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
    in_set = model.service_mask                                     # (K, M): m in S_k
    empty = np.flatnonzero(~in_set.any(axis=1))
    if empty.size:
        raise ValueError(f"device {empty[0]} has an empty service set")
    if decoder == "mrc":
        served = in_set * stats.lam.T                              # lam_mk on S_k
        noise = served.sum(axis=1)
        return SinrPieces(n_antennas, noise ** 2, noise, served @ model.beta)
    return SinrPieces(n_antennas - kdev, (in_set * np.sqrt(stats.lam.T)).sum(axis=1) ** 2,
                      in_set.sum(axis=1), in_set @ stats.err_var)


def lb_sinr(pieces: SinrPieces, payload_power: np.ndarray) -> np.ndarray:
    """Lower-bound SINR of every device from its SINR constants and the payloads."""
    pd = np.asarray(payload_power, dtype=float)
    if np.any(pd <= 0):
        raise ValueError("payload powers must be strictly positive")
    n, coherent, noise, cross = pieces
    return n * pd * coherent / (cross @ pd + noise)


def lb_sinr_mrc(model: LargeScaleModel, stats: EstimationStats,
                payload_power: np.ndarray, n_antennas: int) -> np.ndarray:
    """Lower-bound SINR of every device for maximum-ratio combining over its service set."""
    return lb_sinr(sinr_pieces(model, stats, n_antennas, "mrc"), payload_power)


def lb_sinr_fzf(model: LargeScaleModel, stats: EstimationStats,
                payload_power: np.ndarray, n_antennas: int) -> np.ndarray:
    """Lower-bound SINR of every device for full-pilot zero-forcing; needs more
    antennas than devices."""
    return lb_sinr(sinr_pieces(model, stats, n_antennas, "fzf"), payload_power)

