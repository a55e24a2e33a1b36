"""Link-level simulation of both decoders.

Each trial draws channels, runs pilot estimation and combines with the
statistical-CSI receiver. One kernel serves both receivers, which differ only in
their combining vectors: the mean coherent gain is the desired term, and its
deviation (leakage), the interference and the noise make up the rest, from which
instantaneous SINRs and finite-blocklength rates follow. Only the APs that
serve some device are drawn, each in r = max |D_m| coordinates of an
orthonormal basis of its estimate's span (`channel.span_layout`), D_m the
devices AP m serves: the combining vector of every device an AP serves lies
in them, so they give the same inner products as N antennas. The layout
differs between the decoders, so MRC and zero-forcing runs of one
deployment and seed share no random numbers.
Trials are drawn TRIAL_BLOCK at a time, each block from its own pair of
SeedSequence-keyed PCG64 substreams, one for the normal fill, in which every
trial takes one contiguous run, and one for the Bartlett diagonal, so a
trial's values depend on the seed, its index, TRIAL_BLOCK, the decoder and
which APs serve which devices, but not on the trial count or the order of
evaluation.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fbl
from .channel import (ChannelRealization, EstimationStats, draw_channel,
                      estimation_stats, span_layout, substream)
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


def _decode(real: ChannelRealization, coeffs: np.ndarray, mean_gain: np.ndarray,
            payload: np.ndarray, params: fbl.FblParams) -> TrialOutcome:
    """Decoder terms of every device from its combining coefficients.

    coeffs[t, k, m, :] (T, K, M, r), in C order, is the conjugate of device
    k's combining vector at AP m times its scale there, zero off its service
    set; mean_gain[k] is the mean of its coherent gain. One
    (T, K, M r) @ (T, M r, K + 1) product, r the realization's coordinates
    per AP, takes every device's inner products with the channels and noise.
    """
    trials, aps, kdev, r = real.g.shape
    pd = np.asarray(payload, dtype=float)
    targets = np.empty((trials, aps, r, kdev + 1), dtype=complex)
    targets[..., :kdev] = np.swapaxes(real.g, 2, 3)
    targets[..., kdev] = real.noise
    proj = coeffs.reshape(trials, kdev, aps * r) @ targets.reshape(trials, aps * r, kdev + 1)
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
    mask = model.service_mask
    estimates = np.swapaxes(real.g_hat, 1, 2)
    coeffs = np.empty(estimates.shape, dtype=complex)        # C order: reshapes are views
    np.conjugate(estimates, out=coeffs)
    coeffs *= mask[:, :, None]
    mean_gain = n_antennas * (mask * stats.lam.T).sum(axis=1)
    return _decode(real, coeffs, mean_gain, payload_power, params)


def _fzf_vectors(g_hat: np.ndarray, n_antennas: int, first_trial: int,
                 num_devices: int) -> np.ndarray:
    """Zero-forcing vectors per AP, G (G^H G)^-1 = G^-H for a square upper
    triangular estimate G, batched as (T, M, r, r) in the layout of
    `draw_channel`: conj(X), with X = G^-1 from a back substitution over the
    batch, r steps that read only G's upper triangle. When G is the trailing
    block R[K - r:, K - r:] diag(sqrt(lam)) of a K-device factor, row i of X
    is that of the whole factor's inverse, which is zero off those
    coordinates.

    Raises RuntimeError naming the first trial (counted from first_trial) with a
    rank-deficient estimate at some AP: G has a zero on its diagonal, or the
    largest entry of (G^H G)^-1 = X X^H scaled by the Gram diagonal, which is
    max_i |row i of X|^2 |column i of G|^2, reaches 1 / (eps max(1e3, 2K(N + K)))
    for N = n_antennas and K = num_devices, whatever the size of each
    device's channel.
    """
    r = g_hat.shape[3]
    g_hat = np.ascontiguousarray(g_hat)
    x = np.zeros_like(g_hat)                            # [t, m, i, :] = row i of G^-1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(r - 1, -1, -1):
            row = -(g_hat[:, :, None, i + 1:, i] @ x[:, :, i + 1:, i:])[:, :, 0]
            row[..., 0] += 1.0
            x[:, :, i, i:] = row / g_hat[:, :, i, i, None]
        xr, gr = x.view(float), g_hat.view(float)
        worst = (np.einsum("tmkc,tmkc->tmk", xr, xr)
                 * np.einsum("tmkc,tmkc->tmk", gr, gr)).max(axis=2)
    limit = 1.0 / (np.finfo(float).eps
                   * max(1e3, 2.0 * num_devices * (n_antennas + num_devices)))
    bad = np.flatnonzero(~(worst < limit).all(axis=1))  # NaN counts as bad
    if bad.size:
        raise RuntimeError(f"trial {first_trial + bad[0]}: estimated channel rank-deficient")
    return np.conjugate(x, out=x)


def decode_fzf(real: ChannelRealization, model: LargeScaleModel,
               stats: EstimationStats, payload_power: np.ndarray,
               n_antennas: int, params: fbl.FblParams, first_trial: int = 0) -> TrialOutcome:
    """Full-pilot zero-forcing, each AP's vector G^-H e_k scaled by its root-mean
    gain sqrt((N - K) lambda); needs N > K. The r coordinates must be the last
    r rows of each AP's triangular factor, the zero-forcing layout of
    `draw_channel` (r = K: the whole factor); more than K is a ValueError. The
    vectors of the devices in the last r columns come from that r x r block,
    and the others are zero, which no served device needs. A rank-deficient
    block raises RuntimeError naming its trial, counted from first_trial."""
    kdev, r = real.g.shape[2:]
    if n_antennas <= kdev:
        raise ValueError("zero-forcing needs antennas_per_ap > num_devices")
    if r > kdev:
        raise ValueError(f"zero-forcing needs a square triangular estimate, got {r} x {kdev}")
    trials, aps = real.g.shape[:2]
    block, ap = real.order[:, kdev - r:], np.arange(aps)[:, None]
    vectors = _fzf_vectors(real.g_hat[:, ap, block], n_antennas, first_trial, kdev)
    mask = model.service_mask * np.sqrt((n_antennas - kdev) * stats.lam).T
    coeffs = np.zeros((trials, kdev, aps, r), dtype=complex)
    coeffs[:, block, ap] = np.conjugate(vectors) * mask[block, ap][..., None]
    return _decode(real, coeffs, mask.sum(axis=1), payload_power, params)


def simulate(model: LargeScaleModel, stats: EstimationStats,
             payload_power: np.ndarray, decoder: str, trials: int, seed: int,
             n_antennas: int, params: fbl.FblParams, *,
             workers: int | None = None) -> TrialOutcome:
    """Run `trials` independent channel draws and concatenate the outcomes.

    Only the APs that serve some device are drawn: the trials run on
    `model.serving_subset()`, with statistics from `estimation_stats` at
    `stats.pilot_power`, so each device's trials keep their law and an AP
    that serves nobody can neither be rank-deficient nor cost a draw. Block
    b holds trials b*TRIAL_BLOCK onwards and is drawn by one `draw_channel`
    call in the decoder's `channel.span_layout`, built once, with its normal
    fill from the substream (seed, b, 0) and the diagonal of its Bartlett
    factors from the sibling substream (seed, b, 1). A trial's values depend
    on the seed, its index, TRIAL_BLOCK, the decoder and which APs serve
    which devices, not on the trial count or the order of evaluation. A
    rank-deficient zero-forcing estimate raises RuntimeError naming the
    trial: it has probability zero, and a degenerate input recurs on every
    draw. So a zero estimate at a serving AP (K p beta underflows), served
    there or not, is found from lambda before the first draw and named as
    trial 0, since the drawn block may not hold its column. Blocks run on
    `workers` threads (None: all usable CPUs; 1: no pool) and are consumed
    in order; block b + workers starts once block b is consumed.
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
    layout = span_layout(serving, stats, n_antennas, decoder == "fzf")
    if decoder == "fzf" and not np.all(stats.lam > 0):
        raise RuntimeError("trial 0: estimated channel rank-deficient")

    def run(block):
        start = block * TRIAL_BLOCK
        real = draw_channel(layout, substream(seed, block, 0), substream(seed, block, 1),
                            min(TRIAL_BLOCK, trials - start))
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
