"""Link-level simulation of both decoders.

Each trial draws channels, runs pilot estimation and combines with the
statistical-CSI receiver. One kernel serves both receivers, which differ only in
their combining vectors: the mean coherent gain is the desired term, and its
deviation (leakage), the interference and the noise make up the rest, from which
instantaneous SINRs and finite-blocklength rates follow. Only the APs that
serve some device are drawn, each in an orthonormal basis of its estimate's
span (`channel.draw_channel`): every combining vector lies in that span, so
min(N, K) coordinates per channel give the same inner products as N antennas.
Trials are drawn TRIAL_BLOCK at a time, each block from its own pair of
SeedSequence-keyed PCG64 substreams, one for the normal fill, in which every
trial takes one contiguous run, and one for the Bartlett diagonal, so a
trial's values depend on the seed, its index, TRIAL_BLOCK and which APs
serve, but not on the trial count or the order of evaluation.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fbl
from .channel import (ChannelRealization, EstimationStats, draw_channel,
                      estimation_stats, substream)
from .scenario import LargeScaleModel

TRIAL_BLOCK = 128
MIN_TRIALS = 100          # fewer trials give no meaningful ergodic-rate estimate


@dataclass
class TrialOutcome:
    """Per-trial decoder statistics for every device.

    ds2 is deterministic, the payload times the squared mean coherent gain;
    the other terms are one sample per trial. sinr and rate follow the
    instantaneous decomposition with the rate clamped at zero.
    """

    ds2: np.ndarray      # (K,)
    ls2: np.ndarray      # (T, K)
    ui2: np.ndarray      # (T, K, K), entry [t, k, j] = interference from j at k
    n2: np.ndarray       # (T, K)
    sinr: np.ndarray     # (T, K)
    rate: np.ndarray     # (T, K)

    @property
    def trials(self) -> int:
        return self.ls2.shape[0]


def _decode(real: ChannelRealization, model: LargeScaleModel, vectors: np.ndarray,
            scale: np.ndarray, mean_gain: np.ndarray, payload: np.ndarray,
            params: fbl.FblParams) -> TrialOutcome:
    """Decoder terms of every device from its combining vectors.

    Device k combines over its service set with vectors[:, m, k, :] (T, M, K, r)
    times scale[m, k]; mean_gain[k] is the mean of its coherent gain. With the
    scales zeroed off each service set, one (T, K, M r) @ (T, M r, K + 1)
    product takes every device's inner products with the channels and noise.
    """
    trials, aps, kdev, r = real.g.shape
    pd = np.asarray(payload, dtype=float)
    mask = model.service_mask * scale.T
    a = np.empty((trials, kdev, aps, r), dtype=complex)     # C order: reshapes are views
    np.conjugate(np.swapaxes(vectors, 1, 2), out=a)
    a *= mask[:, :, None]
    targets = np.empty((trials, aps, r, kdev + 1), dtype=complex)
    targets[..., :kdev] = np.swapaxes(real.g, 2, 3)
    targets[..., kdev] = real.noise
    proj = a.reshape(trials, kdev, aps * r) @ targets.reshape(trials, aps * r, kdev + 1)
    gain = np.diagonal(proj, axis1=1, axis2=2)
    ls2 = pd * np.abs(gain - mean_gain) ** 2
    ui2 = pd * np.abs(proj[..., :kdev]) ** 2
    ui2[:, np.arange(kdev), np.arange(kdev)] = 0.0
    n2 = np.abs(proj[..., kdev]) ** 2
    ds2 = pd * mean_gain ** 2
    sinr = ds2 / (ls2 + ui2.sum(axis=2) + n2)
    rate = fbl.lb_rate(sinr, params, np.arange(kdev))
    return TrialOutcome(ds2=ds2, ls2=ls2, ui2=ui2, n2=n2, sinr=sinr, rate=rate)


def decode_mrc(real: ChannelRealization, model: LargeScaleModel,
               stats: EstimationStats, payload_power: np.ndarray,
               n_antennas: int, params: fbl.FblParams) -> TrialOutcome:
    """Maximum-ratio combining with the estimates; the mean gain is N * sum lambda."""
    mean_gain = n_antennas * (model.service_mask * stats.lam.T).sum(axis=1)
    return _decode(real, model, real.g_hat, np.ones_like(stats.lam), mean_gain,
                   payload_power, params)


def _fzf_vectors(g_hat: np.ndarray, n_antennas: int, first_trial: int) -> np.ndarray:
    """Zero-forcing vectors per AP, G (G^H G)^-1 = G^-H for the square upper
    triangular estimate G of `draw_channel` (another shape is a ValueError),
    batched as (T, M, K, r): conj(X), with X = G^-1 from a back substitution
    over the batch that reads only G's upper triangle.

    Raises RuntimeError naming the first trial (counted from first_trial) with a
    rank-deficient estimate at some AP: G has a zero on its diagonal, or the
    largest entry of (G^H G)^-1 = X X^H scaled by the Gram diagonal, which is
    max_i |row i of X|^2 |column i of G|^2, reaches 1 / (eps max(1e3, 2K(N + K)))
    for N = n_antennas, whatever the size of each device's channel.
    """
    kdev, r = g_hat.shape[2:]
    if r != kdev:
        raise ValueError(f"zero-forcing needs a square triangular estimate, got {r} x {kdev}")
    g_hat = np.ascontiguousarray(g_hat)
    x = np.zeros_like(g_hat)                            # [t, m, i, :] = row i of G^-1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(kdev - 1, -1, -1):
            row = -(g_hat[:, :, None, i + 1:, i] @ x[:, :, i + 1:, i:])[:, :, 0]
            row[..., 0] += 1.0
            x[:, :, i, i:] = row / g_hat[:, :, i, i, None]
        xr, gr = x.view(float), g_hat.view(float)
        worst = (np.einsum("tmkc,tmkc->tmk", xr, xr)
                 * np.einsum("tmkc,tmkc->tmk", gr, gr)).max(axis=2)
    limit = 1.0 / (np.finfo(float).eps * max(1e3, 2.0 * kdev * (n_antennas + kdev)))
    bad = np.flatnonzero(~(worst < limit).all(axis=1))  # NaN counts as bad
    if bad.size:
        raise RuntimeError(f"trial {first_trial + bad[0]}: estimated channel rank-deficient")
    return np.conjugate(x, out=x)


def decode_fzf(real: ChannelRealization, model: LargeScaleModel,
               stats: EstimationStats, payload_power: np.ndarray,
               n_antennas: int, params: fbl.FblParams, first_trial: int = 0) -> TrialOutcome:
    """Full-pilot zero-forcing, each AP's vector G^-H e_k scaled by its root-mean
    gain sqrt((N - K) lambda); needs N > K, so that G is square. A rank-deficient
    estimate raises RuntimeError naming its trial, counted from first_trial."""
    kdev = real.g.shape[2]
    if n_antennas <= kdev:
        raise ValueError("zero-forcing needs antennas_per_ap > num_devices")
    scale = np.sqrt((n_antennas - kdev) * stats.lam)
    mean_gain = (model.service_mask * scale.T).sum(axis=1)
    return _decode(real, model, _fzf_vectors(real.g_hat, n_antennas, first_trial), scale,
                   mean_gain, payload_power, params)


def simulate(model: LargeScaleModel, stats: EstimationStats,
             payload_power: np.ndarray, decoder: str, trials: int, seed: int,
             n_antennas: int, params: fbl.FblParams, *,
             workers: int | None = None) -> TrialOutcome:
    """Run `trials` independent channel draws and concatenate the outcomes.

    Only the APs that serve some device are drawn: the trials run on
    `model.serving_subset()`, with statistics from `estimation_stats` at
    `stats.pilot_power`, so each device's trials keep their law and an AP
    that serves nobody can neither be rank-deficient nor cost a draw.
    Block b holds trials b*TRIAL_BLOCK onwards and is drawn by one
    `draw_channel` call, in each serving AP's estimate basis, with its normal
    fill from the substream (seed, b, 0) and the diagonal of its Bartlett
    factors from the sibling substream (seed, b, 1). A trial's values depend
    on the seed, its index, TRIAL_BLOCK and which APs serve, not on the trial
    count or the order of evaluation. A rank-deficient zero-forcing estimate
    raises RuntimeError naming the trial: it has probability zero, and a
    degenerate input (a zero estimate at a serving AP when K p beta
    underflows) recurs on every draw. Blocks run on `workers` threads (None:
    all usable CPUs; 1: no pool) and are consumed in order; block b + workers
    starts once block b is consumed.
    """
    fbl.check_decoder(decoder)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    elif isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be None or an int >= 1, got {workers!r}")
    blocks = range(-(-trials // TRIAL_BLOCK))
    workers = min(workers, len(blocks))
    serving = model.serving_subset()      # no decoder reads the other APs
    stats = estimation_stats(serving, stats.pilot_power)

    def run(block):
        start = block * TRIAL_BLOCK
        real = draw_channel(serving, stats, n_antennas, substream(seed, block, 0),
                            substream(seed, block, 1), min(TRIAL_BLOCK, trials - start))
        if decoder == "mrc":
            return decode_mrc(real, serving, stats, payload_power, n_antennas, params)
        return decode_fzf(real, serving, stats, payload_power, n_antennas, params, start)
    if workers == 1:
        outcomes = [run(block) for block in blocks]
    else:
        outcomes, window = [], []
        with ThreadPoolExecutor(workers) as pool:
            try:
                for block in blocks:
                    window.append(pool.submit(run, block))
                    if len(window) == workers:
                        outcomes.append(window.pop(0).result())
                outcomes.extend(future.result() for future in window)
            finally:     # after a failure no queued block starts; read the started ones
                for future in window:
                    future.cancel() or future.exception()
    per_trial = {name: np.concatenate([getattr(o, name) for o in outcomes])
                 for name in ("ls2", "ui2", "n2", "sinr", "rate")}
    return TrialOutcome(ds2=outcomes[0].ds2, **per_trial)


def ergodic_rate(model: LargeScaleModel, stats: EstimationStats,
                 payload_power: np.ndarray, decoder: str, trials: int, seed: int,
                 n_antennas: int, params: fbl.FblParams, *,
                 workers: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-device mean rate and normal-approximation 95% confidence half-width."""
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a meaningful estimate")
    out = simulate(model, stats, payload_power, decoder, trials, seed,
                   n_antennas, params, workers=workers)
    mean = out.rate.mean(axis=0)
    half = 1.96 * out.rate.std(axis=0, ddof=1) / np.sqrt(out.trials)
    return mean, half
