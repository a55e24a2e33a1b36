"""Test oracles: the dispersion penalty factor, for the penalty tangent in
`approx`; product-form rewrites of the closed-form SINR lower bounds,
kept in the log domain, for `fbl.lb_sinr_*` and the gain fits in `approx`;
the gain fits written out by hand, one device at a time, for the batched
fits of `approx`;
the textbook normal-approximation rate, for `fbl.lb_rate`; a bisection that
starts at the rate kernel's zero, for `fbl.rate_kernel_inverse`; and the
closed-form means of every decoder term, for the Monte-Carlo validator in
`montecarlo`; the channel draw at every antenna, for the law of
`channel.draw_channel`, which draws in the span of each AP's estimate, and
its projection onto that span, for the zero-forcing decode; the
block-at-a-time Monte-Carlo loop, for the runs of blocks that
`montecarlo.simulate` draws and decodes per call; and the
zero-forcing vectors and rank check from the inverted Gram matrix, for the
back substitution of `montecarlo._fzf_vectors`; and the SINR constants one
device at a time, for the service-set indicator products of
`fbl.sinr_pieces`; and the lower-bound SINRs and the surrogate exponents
one device at a time, for the array forms of `fbl.lb_sinr` and
`optimizer._surrogate_exponents`; and the closed-form SINRs of an
allocation, recomputed from its pilots for either decoder, for the SINRs
every allocation scheme of `optimizer` reports; and the Newton step from a
Cholesky test of every ridge, zero first, for `gp._newton_direction`, which
tries one plain solve before its ridge loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfurllc import approx, fbl, montecarlo
from cfurllc.gp import GpError
from cfurllc.channel import (ChannelRealization, EstimationStats, draw_channel,
                             estimation_stats, span_layout, substream)
from cfurllc.approx import MonomialFit
from cfurllc.fbl import FblParams, SinrPieces, rate_kernel
from cfurllc.optimizer import PowerAllocation, SurrogateError
from cfurllc.scenario import LargeScaleModel


def _logsumexp(a: np.ndarray, axis=None):
    m = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze()


def penalty_factor(x):
    """Square root of the channel dispersion as a function of the SINR."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt(x * (x + 2.0)) / (1.0 + x)
    return float(out) if out.ndim == 0 else out


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


def monomial_log_value(fit: MonomialFit, pilot_power: np.ndarray, k: int) -> float:
    """Log of device k's fitted monomial at the given pilot powers (K,)."""
    return float(fit.log_coeff[k] + fit.exponents[k] @ np.log(pilot_power))


def mrc_gain_fit_by_hand(model: LargeScaleModel, pilot_hat: float,
                         k: int) -> tuple[float, np.ndarray]:
    """Log coefficient and exponents (K,) over the pilots of the best local
    monomial of device k's MRC coherent gain at its pilot power pilot_hat,
    from the gain's value and log-derivative written out by hand."""
    idx = list(model.service_sets[k])
    b = model.beta[idx, k]
    kp = model.num_devices * pilot_hat
    t = kp * b + 1.0
    s_frac = kp * b / t                                # per-factor log-slopes
    size = len(idx)
    mask = ~np.eye(size, dtype=bool)
    log_u = 2.0 * np.log(b) + (np.log(t)[None, :] * mask).sum(axis=1)
    w = np.exp(log_u - log_u.max())
    w /= w.sum()
    exponent = 1.0 + float(w @ (mask.astype(float) @ s_frac))
    log_gain_hat = math.log(kp) + float(_logsumexp(log_u))
    exponents = np.zeros(model.num_devices)
    exponents[k] = exponent
    return log_gain_hat - exponent * math.log(pilot_hat), exponents


def fzf_gain_fit_by_hand(model: LargeScaleModel, pilot_hat: np.ndarray,
                         k: int) -> tuple[float, np.ndarray]:
    """Log coefficient and exponents (K,) of the best local monomial of device
    k's zero-forcing product coherent_k^2 prod_{j != k} scale_kj^2 at the
    pilots pilot_hat, from its value and log-gradient written out by hand."""
    p_hat = np.asarray(pilot_hat, dtype=float)
    idx = list(model.service_sets[k])
    size = len(idx)
    kdev = model.num_devices
    mask = ~np.eye(size, dtype=bool)

    beta_all = model.beta[idx, :]                      # (S, K)
    t_all = kdev * p_hat[None, :] * beta_all + 1.0
    s_all = 1.0 - 1.0 / t_all                          # (S, K) per-factor slopes

    exponents = s_all.sum(axis=0)                      # doubled half-power slopes
    b_own = beta_all[:, k]
    logt_own = np.log(t_all[:, k])
    log_v = 0.5 * (math.log(kdev * p_hat[k]) + 2.0 * np.log(b_own)) \
        + 0.5 * (logt_own[None, :] * mask).sum(axis=1)
    w = np.exp(log_v - log_v.max())
    w /= w.sum()
    exponents[k] = float(w @ (1.0 + mask.astype(float) @ s_all[:, k]))

    log_coherent_hat = float(_logsumexp(log_v))
    log_scale_hat = 0.5 * np.log(t_all).sum(axis=0)    # (K,)
    log_value_hat = 2.0 * log_coherent_hat + float(
        2.0 * log_scale_hat.sum() - 2.0 * log_scale_hat[k])
    return log_value_hat - float(exponents @ np.log(p_hat)), exponents


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


def draw_channel_full_antenna(model: LargeScaleModel, stats: EstimationStats,
                              n_antennas: int, rng: np.random.Generator,
                              trials: int = 1) -> ChannelRealization:
    """Channels, MMSE estimates and receiver noise at all N antennas of every
    AP, (T, M, K, N) and (T, M, N): the true channel is CN(0, beta), the pilot
    observation adds noise of per-antenna variance 1/(K p), and the estimate
    scales it by K p beta / (K p beta + 1). All values come from one
    trial-major standard-normal fill."""
    m, k = model.beta.shape
    mkn = m * k * n_antennas
    z = rng.standard_normal((trials, 2 * (2 * mkn + m * n_antennas))).view(complex)
    z *= np.sqrt(0.5)
    shape = (trials, m, k, n_antennas)
    g = np.sqrt(model.beta)[None, :, :, None] * z[:, :mkn].reshape(shape)
    kp = model.num_devices * stats.pilot_power
    pilot_noise = z[:, mkn:2 * mkn].reshape(shape) / np.sqrt(kp)[None, None, :, None]
    gain = (kp[None, :] * model.beta / (kp[None, :] * model.beta + 1.0))
    g_hat = gain[None, :, :, None] * (g + pilot_noise)
    noise = z[:, 2 * mkn:].reshape(trials, m, n_antennas)
    return realization(g, g_hat, noise, np.tile(np.arange(k), (m, 1)))


def realization(g: np.ndarray, g_hat: np.ndarray, noise: np.ndarray,
                order: np.ndarray) -> ChannelRealization:
    """The realization of channels g (T, M, K, r) and noise (T, M, r)."""
    return ChannelRealization(
        received=np.concatenate((np.swapaxes(g, 2, 3), noise[..., None]), axis=3),
        g_hat=g_hat, order=order)


def in_estimate_span(real: ChannelRealization) -> ChannelRealization:
    """A full-antenna draw in the basis of each AP's estimate span: with the
    reduced QR G_hat = Q R of every (trial, AP) stack, the estimate becomes R
    and the channels and the noise their coordinates Q^H g and Q^H n. A
    combining vector in the span has the same inner products there, so the
    decoders' terms keep their law."""
    q, r = np.linalg.qr(np.swapaxes(real.g_hat, 2, 3))     # (T, M, N, K), (T, M, K, K)
    coords = q.conj().swapaxes(2, 3)
    return realization(np.swapaxes(coords @ np.swapaxes(real.g, 2, 3), 2, 3),
                       np.swapaxes(r, 2, 3), (coords @ real.noise[..., None])[..., 0],
                       real.order)


def simulate_by_block(model: LargeScaleModel, stats: EstimationStats,
                      payload_power: np.ndarray, decoder: str, trials: int, seed: int,
                      n_antennas: int, params: FblParams) -> montecarlo.TrialOutcome:
    """`montecarlo.simulate` one block at a time, in order: block b, trials
    b * TRIAL_BLOCK onwards, is drawn by its own `draw_channel` call from the
    substreams (seed, b, 0) and (seed, b, 1) and decoded alone."""
    serving = model.serving_subset()
    stats = estimation_stats(serving, stats.pilot_power)
    layout = span_layout(serving, stats, n_antennas, decoder == "fzf")
    outcomes = []
    for start in range(0, trials, montecarlo.TRIAL_BLOCK):
        block = start // montecarlo.TRIAL_BLOCK
        real = draw_channel(layout, substream(seed, block, 0), substream(seed, block, 1),
                            min(montecarlo.TRIAL_BLOCK, trials - start))
        if decoder == "mrc":
            outcomes.append(montecarlo.decode_mrc(real, serving, stats, payload_power,
                                                  n_antennas, params))
        else:
            outcomes.append(montecarlo.decode_fzf(real, serving, stats, payload_power,
                                                  n_antennas, params, start))
    return montecarlo.TrialOutcome(
        ds2=outcomes[0].ds2, **{name: np.concatenate([getattr(o, name) for o in outcomes])
                                for name in ("ls2", "ui2", "n2", "sinr", "rate")})


def gram_rank_worst(g_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse Gram matrix (G^H G)^-1 of every (trial, AP) estimate stack,
    (T, M, K, K), NaN where inv finds it singular, and each stack's largest
    entry of that inverse scaled by the Gram diagonal, max_ij |inv_ij| d_i d_j
    with d = sqrt(diag(G^H G)), (T, M)."""
    gh = np.swapaxes(g_hat, 2, 3)                       # (T, M, r, K)
    gram = np.einsum("tmnk,tmnj->tmkj", gh.conj(), gh)
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:     # some stack is exactly singular: leave it NaN
        inv = np.full_like(gram, np.nan)
        regular = np.linalg.slogdet(gram)[0] != 0
        inv[regular] = np.linalg.inv(gram[regular])
    d = np.sqrt(np.einsum("tmkk->tmk", gram).real)
    return inv, (np.abs(inv) * d[..., :, None] * d[..., None, :]).max(axis=(2, 3))


def fzf_vectors_by_gram(g_hat: np.ndarray, n_antennas: int, first_trial: int) -> np.ndarray:
    """Zero-forcing vectors G (G^H G)^-1 of estimates of any shape (T, M, K, r),
    from the inverted Gram matrix, with the full-matrix rank check: RuntimeError
    naming the first trial (counted from first_trial) whose scaled inverse
    reaches 1 / (eps max(1e3, 2K(N + K))) at some AP, or is NaN."""
    kdev = g_hat.shape[2]
    inv, worst = gram_rank_worst(g_hat)
    limit = 1.0 / (np.finfo(float).eps * max(1e3, 2.0 * kdev * (n_antennas + kdev)))
    bad = np.flatnonzero(~(worst < limit).all(axis=1))  # NaN counts as bad
    if bad.size:
        raise RuntimeError(f"trial {first_trial + bad[0]}: estimated channel rank-deficient")
    return np.swapaxes(np.swapaxes(g_hat, 2, 3) @ inv, 2, 3)


def sinr_pieces_by_device(model: LargeScaleModel, stats: EstimationStats, n_antennas: int,
                          decoder: str) -> SinrPieces:
    """The SINR constants of `fbl.sinr_pieces`, a device at a time, each sum
    taken over the service set in its own order."""
    kdev = model.num_devices
    coherent, noise, cross = np.empty(kdev), np.empty(kdev), np.empty((kdev, kdev))
    for dev, aps in enumerate(model.service_sets):
        idx = list(aps)
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


def lb_sinr_by_device(pieces: SinrPieces, payload_power: np.ndarray) -> np.ndarray:
    """The lower-bound SINRs of `fbl.lb_sinr`, a device at a time, each
    interference sum a dot product of its own row of cross."""
    pd = np.asarray(payload_power, dtype=float)
    n, coherent, noise, cross = pieces
    return np.array([n * pd[k] * coherent[k] / (float(cross[k] @ pd) + noise[k])
                     for k in range(coherent.size)])


def surrogate_exponents_by_device(chi_hat: np.ndarray, params: FblParams,
                                  weights: np.ndarray) -> tuple[np.ndarray, bool]:
    """The normalized objective exponents of `optimizer._surrogate_exponents`,
    a device at a time from the scalar tangents: a device without dispersion
    penalty has penalty slope 0, a device with one below the penalty tangent's
    domain is clamped up to its boundary (and flagged), and the first device
    whose exponent is not positive raises SurrogateError."""
    k = params.num_devices
    w_hat = np.empty(k)
    clamped = False
    for i in range(k):
        rho, _ = approx.log1p_tangent(float(chi_hat[i]))
        if params.alpha[i] == 0.0:
            pen_slope = 0.0
        else:
            point = float(chi_hat[i])
            if point < approx.PENALTY_TANGENT_MIN:
                point = approx.PENALTY_TANGENT_MIN
                clamped = True
            pen_slope, _ = approx.penalty_tangent(point)
        w_hat[i] = weights[i] * (rho - params.alpha[i] * pen_slope)
        if w_hat[i] <= 0.0:
            raise SurrogateError(
                f"device {i}: surrogate exponent {w_hat[i]:.3e} is non-positive "
                f"(expansion SINR {chi_hat[i]:.3e})")
    return w_hat / w_hat.sum(), clamped


def true_sinr(model: LargeScaleModel, alloc: PowerAllocation, n_antennas: int,
              decoder: str) -> np.ndarray:
    """The closed-form lower-bound SINRs at `alloc`: the estimation statistics
    of its pilots, then `fbl.lb_sinr_mrc` or `fbl.lb_sinr_fzf`."""
    stats = estimation_stats(model, alloc.pilot)
    if decoder == "mrc":
        return fbl.lb_sinr_mrc(model, stats, alloc.payload, n_antennas)
    if decoder == "fzf":
        return fbl.lb_sinr_fzf(model, stats, alloc.payload, n_antennas)
    raise ValueError(f"unknown decoder {decoder!r}")


def newton_direction_by_cholesky(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton step -hess^-1 grad on the equilibrated Hessian, from a solve of
    the first ridged matrix (ridge 0, then 1e-14 growing 100-fold) that a
    Cholesky factorization finds positive definite."""
    hess = 0.5 * (hess + hess.T)
    d = np.sqrt(np.maximum(np.abs(hess.diagonal()), 1e-300))
    scaled = hess / d[:, None] / d[None, :]
    rhs = grad / d
    ridge = 0.0
    for _ in range(40):
        shifted = scaled if ridge == 0.0 else scaled + ridge * np.eye(grad.size)
        try:
            np.linalg.cholesky(shifted)
            return -np.linalg.solve(shifted, rhs) / d
        except np.linalg.LinAlgError:
            ridge = 1e-14 if ridge == 0.0 else ridge * 100.0
    raise GpError("Newton system could not be factorized")
