"""Link-level simulation of both decoders.

Each trial draws channels, runs pilot estimation and combines with the
statistical-CSI receiver. One kernel serves both receivers, which differ only in
their combining vectors: the mean coherent gain is the desired term, and its
deviation (leakage), the interference and the noise make up the rest, from which
instantaneous SINRs and finite-blocklength rates follow. Trials are drawn
TRIAL_BLOCK at a time, each block from its own counter-based substream in which
every trial takes one contiguous run, so a trial's values depend on the seed,
its index and TRIAL_BLOCK, but not on the trial count or the order of evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fbl
from .channel import (ChannelRealization, EstimationStats, draw_channel,
                      substream)
from .scenario import LargeScaleModel

TRIAL_BLOCK = 64
MIN_TRIALS = 100          # fewer trials give no meaningful ergodic-rate estimate
REDRAWS = 3


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

    Device k combines over its service set with vectors[:, m, k, :] (T, M, K, N)
    times scale[m, k]; mean_gain[k] is the mean of its coherent gain.
    """
    trials, _, kdev, _ = real.g.shape
    pd = np.asarray(payload, dtype=float)
    ls2 = np.empty((trials, kdev))
    ui2 = np.empty((trials, kdev, kdev))
    n2 = np.empty((trials, kdev))
    for k in range(kdev):
        idx = list(model.service_sets[k])
        a = vectors[:, idx, k, :] * scale[idx, k][None, :, None]
        proj = np.einsum("tsn,tsjn->tj", a.conj(), real.g[:, idx, :, :])
        ls2[:, k] = pd[k] * np.abs(proj[:, k] - mean_gain[k]) ** 2
        ui2[:, k, :] = pd[None, :] * np.abs(proj) ** 2
        ui2[:, k, k] = 0.0
        nz = np.einsum("tsn,tsn->t", a.conj(), real.noise[:, idx, :])
        n2[:, k] = np.abs(nz) ** 2
    ds2 = pd * mean_gain ** 2
    sinr = ds2 / (ls2 + ui2.sum(axis=2) + n2)
    rate = fbl.lb_rate(sinr, params, np.arange(kdev))
    return TrialOutcome(ds2=ds2, ls2=ls2, ui2=ui2, n2=n2, sinr=sinr, rate=rate)


def decode_mrc(real: ChannelRealization, model: LargeScaleModel,
               stats: EstimationStats, payload_power: np.ndarray,
               n_antennas: int, params: fbl.FblParams) -> TrialOutcome:
    """Maximum-ratio combining with the estimates; the mean gain is N * sum lambda."""
    mean_gain = np.array([n_antennas * stats.lam[list(aps), k].sum()
                          for k, aps in enumerate(model.service_sets)])
    return _decode(real, model, real.g_hat, np.ones_like(stats.lam), mean_gain,
                   payload_power, params)


def _fzf_vectors(g_hat: np.ndarray) -> np.ndarray:
    """Unnormalized zero-forcing vectors per AP, G (G^H G)^-1, batched as (T, M, K, N)."""
    gh = np.swapaxes(g_hat, 2, 3)                       # (T, M, N, K)
    gram = np.einsum("tmnk,tmnj->tmkj", gh.conj(), gh)
    return np.swapaxes(np.einsum("tmnk,tmkj->tmnj", gh, np.linalg.inv(gram)), 2, 3)


def decode_fzf(real: ChannelRealization, model: LargeScaleModel,
               stats: EstimationStats, payload_power: np.ndarray,
               n_antennas: int, params: fbl.FblParams) -> TrialOutcome:
    """Full-pilot zero-forcing, each AP's vector scaled by its root-mean gain
    sqrt((N - K) lambda); needs more antennas than devices."""
    kdev = real.g.shape[2]
    if n_antennas <= kdev:
        raise ValueError("zero-forcing needs antennas_per_ap > num_devices")
    scale = np.sqrt((n_antennas - kdev) * stats.lam)
    mean_gain = np.array([scale[list(aps), k].sum()
                          for k, aps in enumerate(model.service_sets)])
    return _decode(real, model, _fzf_vectors(real.g_hat), scale, mean_gain,
                   payload_power, params)


def _gram_screen(g_hat: np.ndarray) -> np.ndarray:
    """Flag (trial, AP) estimates that may be rank-deficient, from their Gram eigenvalues.

    matrix_rank calls the N x K estimate deficient when lambda_min of its Gram
    matrix is at most (N*eps)^2 * lambda_max. Forming the Gram matrix and
    eigvalsh move an eigenvalue by about K*(N+K)*eps*lambda_max at most, so the
    threshold below flags every such stack, and a few more.
    """
    _, _, k, n = g_hat.shape
    lam = np.linalg.eigvalsh(g_hat.conj() @ np.swapaxes(g_hat, 2, 3))
    rtol = np.finfo(float).eps * max(1e3, 2.0 * k * (n + k))
    return lam[..., 0] <= rtol * lam[..., -1]


def _rank_deficient(g_hat: np.ndarray) -> np.ndarray:
    """Trials whose estimate has rank below K at some AP, by numpy's SVD criterion."""
    cand = np.flatnonzero(_gram_screen(g_hat).any(axis=1))
    ranks = np.linalg.matrix_rank(np.swapaxes(g_hat[cand], 2, 3))
    return cand[(ranks < g_hat.shape[2]).any(axis=1)]


def _redraw_rank_deficient(real: ChannelRealization, model: LargeScaleModel,
                           stats: EstimationStats, n_antennas: int, seed: int,
                           start: int) -> None:
    """Replace, in place, each rank-deficient trial by a redraw from its own stream."""
    for j in _rank_deficient(real.g_hat):
        trial = start + int(j)
        for attempt in range(1, REDRAWS + 1):
            new = draw_channel(model, stats, n_antennas,
                               substream(seed, trial, attempt))
            if not _rank_deficient(new.g_hat).size:
                real.g[j], real.g_hat[j] = new.g[0], new.g_hat[0]
                real.noise[j] = new.noise[0]
                break
        else:
            raise RuntimeError(f"trial {trial}: estimated channel rank-deficient "
                               f"after {REDRAWS} redraws")


def simulate(model: LargeScaleModel, stats: EstimationStats,
             payload_power: np.ndarray, decoder: str, trials: int, seed: int,
             n_antennas: int, params: fbl.FblParams) -> TrialOutcome:
    """Run `trials` independent channel draws and concatenate the outcomes.

    Block b holds trials b*TRIAL_BLOCK onwards and is drawn by one
    `draw_channel` call on the substream (seed, b, 0). A trial's values depend
    on the seed, its index and TRIAL_BLOCK, not on the trial count or the
    order of evaluation. For zero-forcing, a rank-deficient estimated channel
    matrix (probability zero, but possible at degenerate inputs) is redrawn
    from the substream (seed, trial, attempt), attempt = 1..3, before the
    trial is abandoned with an error; attempt 0 keeps the block key distinct
    from every redraw key.
    """
    fbl.check_decoder(decoder)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    outcomes = []
    for block, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        count = min(TRIAL_BLOCK, trials - start)
        real = draw_channel(model, stats, n_antennas, substream(seed, block, 0),
                            trials=count)
        if decoder == "mrc":
            outcomes.append(decode_mrc(real, model, stats, payload_power,
                                       n_antennas, params))
        else:
            _redraw_rank_deficient(real, model, stats, n_antennas, seed, start)
            outcomes.append(decode_fzf(real, model, stats, payload_power,
                                       n_antennas, params))
    per_trial = {name: np.concatenate([getattr(o, name) for o in outcomes])
                 for name in ("ls2", "ui2", "n2", "sinr", "rate")}
    return TrialOutcome(ds2=outcomes[0].ds2, **per_trial)


def ergodic_rate(model: LargeScaleModel, stats: EstimationStats,
                 payload_power: np.ndarray, decoder: str, trials: int, seed: int,
                 n_antennas: int, params: fbl.FblParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-device mean rate and normal-approximation 95% confidence half-width."""
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a meaningful estimate")
    out = simulate(model, stats, payload_power, decoder, trials, seed,
                   n_antennas, params)
    mean = out.rate.mean(axis=0)
    half = 1.96 * out.rate.std(axis=0, ddof=1) / np.sqrt(out.trials)
    return mean, half


# ---------------------------------------------------------------------------
# Closed-form expectations of every decoder term, for validation
# ---------------------------------------------------------------------------

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
