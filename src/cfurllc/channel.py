"""Small-scale channel realizations and MMSE channel-estimation statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import LargeScaleModel


@dataclass(frozen=True)
class EstimationStats:
    """Per-link second-order statistics of the MMSE channel estimate."""

    lam: np.ndarray         # (M, K) per-antenna variance of the estimate
    err_var: np.ndarray     # (M, K) per-antenna variance of the estimation error
    pilot_power: np.ndarray  # (K,) pilot powers the statistics were computed for


def estimation_stats(model: LargeScaleModel, pilot_power: np.ndarray) -> EstimationStats:
    """Estimate variance per link for orthogonal pilots of length num_devices.

    For gain b and pilot power p the estimate variance is K*p*b^2 / (K*p*b + 1)
    and the error variance its complement b - lam, computed as b / (K*p*b + 1),
    which does not cancel where lam nears b.
    """
    p = np.asarray(pilot_power, dtype=float)
    if p.shape != (model.num_devices,):
        raise ValueError("pilot_power must hold one value per device")
    if np.any(p <= 0):
        raise ValueError("pilot powers must be strictly positive")
    kp = model.num_devices * p[None, :]
    load = kp * model.beta + 1.0
    return EstimationStats(lam=kp * model.beta ** 2 / load, err_var=model.beta / load,
                           pilot_power=p)


def substream(master_seed: int, *indices: int) -> np.random.Generator:
    """PCG64 substream seeded by SeedSequence(master_seed, spawn_key=indices).

    Streams are independent for distinct keys, so trials and deployments can
    be drawn in any order, or in parallel, without changing the results.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=indices)
    return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class ChannelRealization:
    """True channels, MMSE estimates and receiver noise of one trial block, in
    an orthonormal basis of each AP's estimate span.

    Channel arrays have shape (T, M, K, r): trials, APs, devices and the
    r = min(N, K) coordinates of each channel in that AP's basis; the
    payload-phase receiver noise has shape (T, M, r). Every combining vector
    the decoders build lies in the span of its AP's estimates, so the inner
    products it takes with the channels and the noise are those of these
    coordinates.
    """

    g: np.ndarray
    g_hat: np.ndarray
    noise: np.ndarray


def draw_channel(model: LargeScaleModel, stats: EstimationStats, n_antennas: int,
                 rng: np.random.Generator, diag_rng: np.random.Generator,
                 trials: int = 1) -> ChannelRealization:
    """Draw channels, pilot-based MMSE estimates and receiver noise for a block of trials.

    AP m's N x K estimate is Q R diag(sqrt(lam_m)) with Q orthonormal and R
    the r x K factor of an i.i.d. CN(0, 1) matrix, whose entries are
    independent: R_ii = sqrt(Gamma(N - i, 1)), CN(0, 1) above the diagonal
    and 0 below it (Bartlett; Edelman & Rao, Acta Numerica 14, 2005, sec. 5).
    Q is dropped: the arrays hold coordinates in its columns. The estimation
    error, independent of the estimate, has CN(0, err_var I_r) coordinates
    there, and the receiver noise CN(0, I_r). The entries above the diagonal,
    the error and the noise come from one standard-normal fill of rng laid
    out trial-major, each trial one contiguous run; the diagonal comes from
    diag_rng, a stream independent of rng (`simulate` passes the sibling
    substream), trial-major too. So a trial's values do not depend on how
    many trials are drawn after it.
    """
    if n_antennas < 1:
        raise ValueError(f"n_antennas must be at least 1, got {n_antennas}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    m, k = model.beta.shape
    r = min(n_antennas, k)
    rows, cols = np.triu_indices(r, 1, k)        # R's strictly upper entries
    upper, mkr = m * rows.size, m * k * r
    # (re, im) pairs viewed as unit-variance circularly-symmetric complex Gaussians
    z = rng.standard_normal((trials, 2 * (upper + mkr + m * r))).view(complex)
    z *= np.sqrt(0.5)
    g_hat = np.zeros((trials, m, k, r), dtype=complex)     # [t, m, j, i] = R_ij
    g_hat[:, :, cols, rows] = z[:, :upper].reshape(trials, m, rows.size)
    diag = np.arange(r)
    g_hat[:, :, diag, diag] = np.sqrt(
        diag_rng.standard_gamma(n_antennas - diag, size=(trials, m, r)))
    g_hat *= np.sqrt(stats.lam)[None, :, :, None]
    g = z[:, upper:upper + mkr].reshape(trials, m, k, r)   # a view of z
    g *= np.sqrt(stats.err_var)[None, :, :, None]
    g += g_hat
    noise = z[:, upper + mkr:].reshape(trials, m, r)
    return ChannelRealization(g=g, g_hat=g_hat, noise=noise)
