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

    For gain b and pilot power p the estimate variance is K*p*b^2 / (K*p*b + 1);
    the error variance is the complement b - lam.
    """
    p = np.asarray(pilot_power, dtype=float)
    if p.shape != (model.num_devices,):
        raise ValueError("pilot_power must hold one value per device")
    if np.any(p <= 0):
        raise ValueError("pilot powers must be strictly positive")
    kp = model.num_devices * p[None, :]
    lam = kp * model.beta ** 2 / (kp * model.beta + 1.0)
    return EstimationStats(lam=lam, err_var=model.beta - lam, pilot_power=p)


def substream(master_seed: int, *indices: int) -> np.random.Generator:
    """PCG64 substream seeded by SeedSequence(master_seed, spawn_key=indices).

    Streams are independent for distinct keys, so trials and deployments can
    be drawn in any order, or in parallel, without changing the results.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=indices)
    return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class ChannelRealization:
    """True channel, its MMSE estimate and the receiver noise for one trial block.

    Channel arrays have shape (T, M, K, N): trials, APs, devices, antennas per
    AP; the payload-phase receiver noise has shape (T, M, N).
    """

    g: np.ndarray
    g_hat: np.ndarray
    noise: np.ndarray


def draw_channel(model: LargeScaleModel, stats: EstimationStats, n_antennas: int,
                 rng: np.random.Generator, trials: int = 1) -> ChannelRealization:
    """Draw channels, pilot-based MMSE estimates and receiver noise for a block of trials.

    The pilot observation is the true channel plus noise of per-antenna
    variance 1/(K*p); the estimate scales it by K*p*b/(K*p*b + 1). All values
    come from one standard-normal fill laid out trial-major: each trial takes
    one contiguous run (channel, pilot noise, receiver noise), so a trial's
    values do not depend on how many trials are drawn after it.
    """
    m, k = model.beta.shape
    mkn = m * k * n_antennas
    # (re, im) pairs viewed as unit-variance circularly-symmetric complex Gaussians
    z = rng.standard_normal((trials, 2 * (2 * mkn + m * n_antennas))).view(complex)
    z *= np.sqrt(0.5)
    shape = (trials, m, k, n_antennas)
    g, g_hat = z[:, :mkn].reshape(shape), z[:, mkn:2 * mkn].reshape(shape)   # views of z
    g *= np.sqrt(model.beta)[None, :, :, None]
    kp = model.num_devices * stats.pilot_power
    g_hat /= np.sqrt(kp)[None, None, :, None]        # the pilot noise
    g_hat += g
    g_hat *= (kp[None, :] * model.beta / (kp[None, :] * model.beta + 1.0))[None, :, :, None]
    noise = z[:, 2 * mkn:].reshape(trials, m, n_antennas)
    return ChannelRealization(g=g, g_hat=g_hat, noise=noise)
