"""MMSE channel-estimation statistics and small-scale channel realizations,
drawn only in the coordinates of each AP's estimate span that the combining
vectors of the devices it serves use (`span_layout`, `draw_channel`)."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .scenario import LargeScaleModel

TRIAL_BLOCK = 128    # trials per pair of substreams in a Monte-Carlo draw


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
    """True channels, MMSE estimates and receiver noise of a block of trials,
    in r coordinates of an orthonormal basis of each AP's estimate span.

    received (T, M, r, K + 1) holds per AP and coordinate the K channels, then the
    payload-phase noise: the matrix the decoders multiply. g and noise are views.
    order[m, p] is the device in column p of AP m's upper-triangular
    estimate factor, and the r coordinates are r of that factor's rows
    (`SpanLayout`). Every combining vector the decoders build for a device
    that AP serves lies in those coordinates, so the inner products it takes
    with the channels and the noise are those of these coordinates.
    """

    received: np.ndarray
    g_hat: np.ndarray       # (T, M, K, r)
    order: np.ndarray
    g = property(lambda self: np.swapaxes(self.received[..., :-1], 2, 3))    # (T, M, K, r)
    noise = property(lambda self: self.received[..., -1])                   # (T, M, r)


@dataclass(frozen=True)
class SpanLayout:
    """Which r coordinates of each AP's estimate span `draw_channel` draws.

    At AP m the columns of the Bartlett factor R are reordered (`order`): the
    devices it serves, D_m, first for maximum-ratio combining and last for
    zero-forcing. With r = max |D_m| over the APs, the draw keeps the first
    min(N, r) rows of every R for MRC, which hold each served estimate, and
    the last r for zero-forcing, since the vector of the device in column
    p >= K - r lies in rows p.. and depends on R[p:, p:] alone. A column
    permutation keeps the law of an i.i.d. Gaussian matrix and every decoded
    term is basis-free, so each term keeps its law; only the stream changes.
    The index arrays hold the flat (M, K, r) position of each drawn entry of
    R, in the order of the fill.
    """

    n_antennas: int
    order: np.ndarray          # (M, K): device in each column of each AP's R
    rows: range                # the drawn rows of every AP's R
    upper: np.ndarray          # (M * entries,) flat index, AP-major then row-major
    diag: np.ndarray           # (M * r,) flat index of each drawn diagonal entry
    diag_scale: np.ndarray     # (M * r,) sqrt(lam) of each diagonal entry's device
    scale: np.ndarray          # complex factor of each normal: sqrt(lam), sqrt(err_var), 1


def span_layout(model: LargeScaleModel, stats: EstimationStats, n_antennas: int,
                zero_forcing: bool) -> SpanLayout:
    """The draw of `model`'s APs for zero-forcing or for maximum-ratio
    combining; zero-forcing needs n_antennas > num_devices, so that R is
    square. `simulate` builds one per call."""
    m, k = model.beta.shape
    if n_antennas < 1:
        raise ValueError(f"n_antennas must be at least 1, got {n_antennas}")
    if zero_forcing and n_antennas <= k:
        raise ValueError("zero-forcing needs antennas_per_ap > num_devices")
    served = model.service_mask.T > 0                          # (M, K): k in D_m
    r = int(served.sum(axis=1).max())
    # a stable sort puts the served devices last (zero-forcing) or first, each
    # group in index order
    order = np.argsort(served if zero_forcing else ~served, axis=1, kind="stable")
    rows = range(k - r, k) if zero_forcing else range(min(n_antennas, r))
    r = len(rows)
    # the drawn entries above R's diagonal, row by row
    row, col = np.add(np.triu_indices(r, 1, k - rows.start), rows.start)
    aps = np.arange(m)[:, None]
    diag = np.asarray(rows)
    sqrt_lam = np.sqrt(stats.lam)
    scale = np.concatenate([sqrt_lam[aps, order[:, col]].ravel(),
                            np.repeat(np.sqrt(stats.err_var).ravel(), r), np.ones(m * r)])
    return SpanLayout(
        n_antennas=n_antennas, order=order, rows=rows,
        upper=((aps * k + order[:, col]) * r + row - rows.start).ravel(),
        diag=((aps * k + order[:, diag]) * r + diag - rows.start).ravel(),
        diag_scale=sqrt_lam[aps, order[:, diag]].ravel(), scale=scale.astype(complex))


def draw_channel(layout: SpanLayout, rng: np.random.Generator | Sequence[np.random.Generator],
                 diag_rng: np.random.Generator | Sequence[np.random.Generator],
                 trials: int = 1) -> ChannelRealization:
    """Draw channels, pilot-based MMSE estimates and receiver noise for a block
    of trials in the layout's coordinates.

    AP m's N x K estimate, its columns in the layout's order, is
    Q R diag(sqrt(lam_m)) with Q orthonormal and R the factor of an i.i.d.
    CN(0, 1) matrix, whose entries are independent: R_ii = sqrt(Gamma(N - i, 1)),
    CN(0, 1) above the diagonal and 0 below it (Bartlett; Edelman & Rao, Acta
    Numerica 14, 2005, sec. 5), so any block of its rows has a known law. Q is
    dropped: the arrays hold coordinates in the columns of Q of the layout's
    rows of R, with devices back in index order. The estimation error,
    independent of the estimate, has CN(0, err_var I_r) coordinates there, and
    the receiver noise CN(0, I_r). The drawn entries above the diagonal, the
    error and the noise come from one standard-normal fill of rng laid out
    trial-major, each trial one contiguous run; the diagonal comes from
    diag_rng, a stream independent of rng, trial-major too. So a trial's
    values do not depend on how many trials are drawn after it.

    rng and diag_rng may also be equal-length sequences of generators, one
    pair per block of TRIAL_BLOCK trials (`simulate` passes a run's): pair i
    fills rows i * TRIAL_BLOCK onwards in place, so each block holds what a
    draw of its own pair gives, and the arithmetic after the fills runs once.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rngs, diag_rngs = ([x] if isinstance(x, np.random.Generator) else list(x)
                       for x in (rng, diag_rng))
    starts = range(0, trials, TRIAL_BLOCK)[:len(rngs)]
    if len(diag_rngs) != len(rngs) or len(starts) != len(rngs):
        raise ValueError(f"{len(rngs)} and {len(diag_rngs)} streams for {trials} trials")
    m, k = layout.order.shape
    r = len(layout.rows)
    upper, mkr = layout.upper.size, m * k * r
    fill = np.empty((trials, 2 * (upper + mkr + m * r)))
    diag = np.empty((trials, m, r))
    for normal, gamma, lo, hi in zip(rngs, diag_rngs, starts, [*starts[1:], trials]):
        normal.standard_normal(out=fill[lo:hi])
        gamma.standard_gamma(layout.n_antennas - np.asarray(layout.rows), out=diag[lo:hi])
    # (re, im) pairs viewed as unit-variance circularly-symmetric complex Gaussians
    z = fill.view(complex)
    z *= np.sqrt(0.5)
    z *= layout.scale           # whole complex rows: numpy buffers strided or casting operands
    diag = np.sqrt(diag, out=diag).reshape(trials, m * r)
    diag *= layout.diag_scale
    # [t, m, order[m, p], i - rows.start] = R_ip sqrt(lam_m of that device)
    g_hat = np.zeros((trials, m, k, r), dtype=complex)
    flat = g_hat.reshape(trials, mkr)
    flat[:, layout.upper] = z[:, :upper]
    flat[:, layout.diag] = diag
    z[:, upper:upper + mkr] += flat
    received = np.empty((trials, m, r, k + 1), dtype=complex)
    received[..., :k] = np.swapaxes(z[:, upper:upper + mkr].reshape(trials, m, k, r), 2, 3)
    received[..., k] = z[:, upper + mkr:].reshape(trials, m, r)
    return ChannelRealization(received=received, g_hat=g_hat, order=layout.order)
