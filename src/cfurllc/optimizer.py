"""Joint pilot/payload power allocation by successive convex approximation.

Each iteration replaces the weighted-sum-rate objective by its log-linear
tangent surrogate and the coherent-gain posynomials by their best local
monomials, yielding a GP whose solution can only improve the true objective.
A max-slack GP, in `feasibility_init`, provides the feasible starting point;
the infinite-blocklength benchmark reuses it with the dispersion penalty
removed. The fixed-pilot benchmark freezes the pilots, so its SINR floors are
linear in the payloads: one linear solve gives the least payloads meeting them
and decides feasibility (Yates, IEEE JSAC 13(7), 1995), and the SCA starts
above those payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import approx, fbl, gp
from .channel import estimation_stats
from .scenario import LargeScaleModel, SystemConfig

MAX_SCA_ITERATIONS = 50
MAX_FEASIBILITY_ROUNDS = 5
FEASIBILITY_MARGIN = 1.0     # slack level that certifies feasibility

MRC = "mrc"
FZF = "fzf"


class SurrogateError(RuntimeError):
    """A surrogate exponent came out non-positive; the tangent objective is invalid."""


@dataclass(frozen=True)
class PowerAllocation:
    """Pilot and payload transmit powers per device (noise-normalized watts)."""

    pilot: np.ndarray
    payload: np.ndarray

    def energy(self, num_devices: int, blocklength: int) -> np.ndarray:
        return num_devices * self.pilot + (blocklength - num_devices) * self.payload


@dataclass
class IterationTrace:
    """Per-iteration record of one SCA run."""

    objective: list[float] = field(default_factory=list)
    sinr: list[np.ndarray] = field(default_factory=list)
    allocations: list[PowerAllocation] = field(default_factory=list)
    gp_status: list[str] = field(default_factory=list)
    carryover_margin: list[float] = field(default_factory=list)
    surrogate_clamped: bool = False

    def add(self, objective: float, sinr: np.ndarray, alloc: PowerAllocation,
            gp_status: str):
        self.objective.append(objective)
        self.sinr.append(sinr)
        self.allocations.append(alloc)
        self.gp_status.append(gp_status)

    def rows(self):
        for i, obj in enumerate(self.objective):
            alloc = self.allocations[i]
            yield {
                "iteration": i, "objective": obj,
                "sinr": list(self.sinr[i]), "pilot": list(alloc.pilot),
                "payload": list(alloc.payload),
                "gp_status": self.gp_status[i],
            }


@dataclass
class SolveResult:
    status: str                        # optimal | infeasible | degraded | aborted
    allocation: PowerAllocation | None
    trace: IterationTrace
    sinr: np.ndarray | None
    rates: np.ndarray | None
    weighted_sum_rate: float
    message: str = ""

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "degraded") and self.allocation is not None


def _no_allocation(status: str, message: str) -> SolveResult:
    return SolveResult(status=status, allocation=None, trace=IterationTrace(),
                       sinr=None, rates=None, weighted_sum_rate=0.0, message=message)


def sinr_floor(params: fbl.FblParams, rate_req_bps: float, k: int) -> float:
    """Minimum SINR at which the lower-bound rate reaches the requirement."""
    y = rate_req_bps / params.rate_scale
    return 1.0 / fbl.rate_kernel_inverse(y, float(params.alpha[k]))


def sinr_floors(params: fbl.FblParams, rate_req_bps: np.ndarray) -> np.ndarray:
    return np.array([sinr_floor(params, float(rate_req_bps[k]), k)
                     for k in range(params.num_devices)])


def true_sinr(model: LargeScaleModel, alloc: PowerAllocation, n_antennas: int,
              decoder: str) -> np.ndarray:
    stats = estimation_stats(model, alloc.pilot)
    if decoder == MRC:
        return fbl.lb_sinr_mrc(model, stats, alloc.payload, n_antennas)
    if decoder == FZF:
        return fbl.lb_sinr_fzf(model, stats, alloc.payload, n_antennas)
    raise ValueError(f"unknown decoder {decoder!r}")


# ---------------------------------------------------------------------------
# GP construction
# ---------------------------------------------------------------------------

def _surrogate_exponents(chi_hat: np.ndarray, params: fbl.FblParams,
                         weights: np.ndarray) -> tuple[np.ndarray, bool]:
    """Normalized objective exponents from the two log tangents at chi_hat.

    Expansion points below the penalty tangent's domain are clamped up to its
    boundary; the run records that the surrogate lost tightness there.
    """
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


def _columns(xs) -> slice:
    """The columns of the variables xs, which must be consecutive."""
    start = xs[0].index
    if [v.index for v in xs] != list(range(start, start + len(xs))):
        raise ValueError("the pilots and the payloads must each be consecutive variables")
    return slice(start, start + len(xs))


class _SinrBlock(gp.RowBlock):
    """Shared layout of the batched SINR left-hand sides: row k depends on
    the pilots and payloads only, each a run of consecutive variables, whose
    weighted Hessian sum fills the (pp, pd) sub-blocks; the floors (and phi)
    sit in the right-hand sides."""

    def __init__(self, pp, pd):
        self.size = len(pp)
        self.pp, self.pd = _columns(pp), _columns(pd)
        own = np.arange(self.size)
        self._own_pp = (own, self.pp.start + own)     # row k, column of pilot k

    def _jacobian(self, n, d_pd):
        """Rows with d_pd (K, K) on the payloads; the caller fills the pilots."""
        jac = np.zeros((self.size, n))
        jac[:, self.pd] = d_pd
        return jac

    def _hessian(self, n, hpp, hpd_pp, hpd):
        h = np.zeros((n, n))
        h[self.pp, self.pp] = hpp
        h[self.pp, self.pd] = hpd_pp.T
        h[self.pd, self.pp] = hpd_pp
        h[self.pd, self.pd] = hpd
        return h


def _padded_sets(model: LargeScaleModel):
    """Service sets padded to a common size: (K, S) AP indices and a mask."""
    size = max(len(s) for s in model.service_sets)
    idx = np.zeros((model.num_devices, size), dtype=int)
    mask = np.zeros((model.num_devices, size), dtype=bool)
    for k, aps in enumerate(model.service_sets):
        idx[k, :len(aps)] = aps
        mask[k, :len(aps)] = True
    return idx, mask


class MrcSinrBlock(_SinrBlock):
    """All K MRC constraint left-hand sides, in batched arrays:

        scale_k(pp_k) * (sum_j pd_j cross_kj(pp_k) + gain_k(pp_k)),

    with the factors of the service set of device k. Padded service-set slots
    carry b = 0 and log-coefficient -inf, so they add nothing.
    """

    def __init__(self, model: LargeScaleModel, pp, pd):
        super().__init__(pp, pd)
        kdev = model.num_devices
        idx, mask = _padded_sets(model)
        own = np.where(mask, model.beta[idx, np.arange(kdev)[:, None]], 0.0)   # (K, S)
        self.b = kdev * own
        with np.errstate(divide="ignore"):
            base = np.log(kdev * own ** 2)                                 # -inf when padded
            cross = np.log(model.beta[idx, :])                             # (K, S, K)
        # row r < K of device k: cross_kr terms; last row: gain terms
        self.c = np.concatenate([base[:, None, :] + cross.transpose(0, 2, 1),
                                 base[:, None, :]], axis=1)                # (K, K+1, S)

    def log_eval(self, y):
        ypp = y[self.pp]
        t = self.b * np.exp(ypp)[:, None]                                  # (K, S)
        lt = np.log1p(t)
        ln_scale = lt.sum(axis=1)
        inner = self.c + (ln_scale[:, None] - lt)[:, None, :]              # (K, K+1, S)
        top_m = inner.max(axis=2)
        wm = np.exp(inner - top_m[..., None])
        sm = wm.sum(axis=2)
        rows = ypp[:, None] + top_m + np.log(sm)                           # (K, K+1)
        rows[:, :-1] += y[self.pd]
        top = rows.max(axis=1)
        wr = np.exp(rows - top[:, None])
        sr = wr.sum(axis=1)
        vals = ln_scale + top + np.log(sr)

        wm /= sm[..., None]
        wr /= sr[:, None]
        s = t / (1.0 + t)
        s_sum = s.sum(axis=1)
        do = s_sum[:, None] - s                                            # (K, S)
        wdo = (wm @ do[..., None])[..., 0]                                 # (K, K+1)
        u = 1.0 + wdo                                                      # d rows / d yp
        gp_total = (wr * u).sum(axis=1)                                    # (K,)
        wpd = wr[:, :-1]
        n = y.size
        jac = self._jacobian(n, wpd)
        jac[self._own_pp] = s_sum + gp_total                               # own pilot only

        def hess(weights):
            ss = s * (1.0 - s)
            ss_sum = ss.sum(axis=1)
            d2o = ss_sum[:, None] - ss
            d2 = (wm @ (d2o + do ** 2)[..., None])[..., 0] - wdo ** 2
            # row k: log-sum-exp over rows r of (pp_k, pd_r) terms
            hpp = ss_sum + (wr * (d2 + u ** 2)).sum(axis=1) - gp_total ** 2    # (K,)
            cross = wpd * (u[:, :-1] - gp_total[:, None])                  # (K, K): k, pd_r
            wk = weights[:, None]
            return self._hessian(n, np.diag(weights * hpp), (wk * cross).T,
                                 np.diag((wk * wpd).sum(axis=0)) - wpd.T @ (wk * wpd))
        return vals, jac, hess


class FzfSinrBlock(_SinrBlock):
    """All K zero-forcing constraint left-hand sides, in batched arrays:

        |set_k| prod_i scale_ki^2(pp_i)
        + sum_j pd_j resid_kj(pp_j) prod_{i != j} scale_ki^2(pp_i),

    over the service set of device k. Padded slots carry b = 0 and
    log-coefficient -inf, so they add nothing.
    """

    def __init__(self, model: LargeScaleModel, pp, pd):
        super().__init__(pp, pd)
        kdev = model.num_devices
        idx, mask = _padded_sets(model)
        beta = np.where(mask[..., None], model.beta[idx, :], 0.0)         # (K, S, K)
        self.b = kdev * beta
        with np.errstate(divide="ignore"):
            self.log_beta = np.log(beta)
        self.log_size = np.log(mask.sum(axis=1))
        self._diag = np.arange(kdev)

    def log_eval(self, y):
        kdev = self.size
        t = self.b * np.exp(y[self.pp])                                    # (K, S, K)
        lt = np.log1p(t)
        ln_v2 = lt.sum(axis=1)                                             # (K, K) log scale^2
        v2_total = ln_v2.sum(axis=1)
        inner = self.log_beta + (ln_v2[:, None, :] - lt)
        top_m = inner.max(axis=1)
        wm = np.exp(inner - top_m[:, None, :])
        sm = wm.sum(axis=1)
        rows = np.empty((kdev, kdev + 1))
        rows[:, :-1] = y[self.pd] + top_m + np.log(sm) \
            + (v2_total[:, None] - ln_v2)
        rows[:, -1] = self.log_size + v2_total
        top = rows.max(axis=1)
        wr = np.exp(rows - top[:, None])
        sr = wr.sum(axis=1)
        vals = top + np.log(sr)

        wm /= sm[:, None, :]
        wr /= sr[:, None]
        s = t / (1.0 + t)
        dv2 = s.sum(axis=1)                                                # (K, K)
        do = dv2[:, None, :] - s
        dmu = (wm * do).sum(axis=1)
        # row gradients over the pilots: dv2 everywhere, the own pilot uses dmu
        grows = np.repeat(dv2[:, None, :], kdev + 1, axis=1)               # (K, K+1, K)
        grows[:, self._diag, self._diag] = dmu
        gpilot = (wr[..., None] * grows).sum(axis=1)                       # (K, K)
        wpd = wr[:, :-1]
        n = y.size
        jac = self._jacobian(n, wpd)
        jac[:, self.pp] = gpilot

        def hess(weights):
            ss = s * (1.0 - s)
            d2v2 = ss.sum(axis=1)
            d2mu = (wm * (d2v2[:, None, :] - ss + do ** 2)).sum(axis=1) - dmu ** 2
            hrows = np.repeat(d2v2[:, None, :], kdev + 1, axis=1)
            hrows[:, self._diag, self._diag] = d2mu
            flat = grows.reshape(-1, kdev)
            wk = weights[:, None]
            omega = wk * wr                                                # (K, K+1)
            hpp = np.diag((omega[..., None] * hrows).sum(axis=(0, 1))) \
                + flat.T @ (omega.reshape(-1, 1) * flat) - gpilot.T @ (wk * gpilot)
            hpd_pp = (omega[:, :-1, None] * grows[:, :-1]).sum(axis=0) \
                - omega[:, :-1].T @ gpilot
            hpd = np.diag(omega[:, :-1].sum(axis=0)) - wpd.T @ omega[:, :-1]
            return self._hessian(n, hpp, hpd_pp, hpd)
        return vals, jac, hess


def _sinr_fits(model: LargeScaleModel, decoder: str, n_antennas: int,
               pilot_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The monomial fits at the pilots pilot_hat on the right of the SINR
    rows, before the floors: log coefficients (K,) and exponents (K, 2K) over
    the pilots, then the payloads, of

    MRC:  scale * (sum_j pd_j cross_j + gain) <= fit of N gain^2 pd
    FZF:  |set| prod_j scale_j^2 + sum_j pd_j resid_j prod_{i!=j} scale_i^2
          <= fit of (N-K) coherent^2 prod_{j!=k} scale_j^2 pd_k
    """
    kdev = model.num_devices
    own = np.arange(kdev)
    exponents = np.zeros((kdev, 2 * kdev))
    exponents[own, kdev + own] = 1.0
    if decoder == MRC:
        fits = [approx.mrc_gain_monomial(model, float(pilot_hat[k]), k) for k in range(kdev)]
        exponents[own, own] = [2.0 * float(f.exponents[0]) for f in fits]
        return math.log(n_antennas) + 2.0 * np.array([f.log_coeff for f in fits]), exponents
    fits = [approx.fzf_gain_monomial(model, pilot_hat, k) for k in range(kdev)]
    exponents[:, :kdev] = [f.exponents for f in fits]
    return math.log(n_antennas - kdev) + np.array([f.log_coeff for f in fits]), exponents


def _scheme_gp(floors: np.ndarray, names: list[str], add_rows: Callable) -> Callable:
    """Every GP of one scheme, from two GPs assembled once and re-aimed.

    `add_rows(m, xs, rhs)` adds the scheme's rows over its variables xs,
    SINR row k as lhs_k <= rhs(k, exponents), the monomial prod x^exponents
    over floor_k, and returns the slots of the SINR rows. A step GP weights
    SINR row k by w_hat_k, so it maximizes prod_k (rhs_k / lhs_k)^w_hat_k,
    the fitted SINRs over their floors. The joint scheme's max-slack GP, the
    only one (`feasibility_init`), also divides each right-hand side by phi,
    its first variable, which it maximizes.

    Returns gp_for(w_hat, fit=None), the GP of one round (w_hat None: the
    max-slack GP). A round writes only the row weights and, for SINR rows
    that form a row block, their right-hand sides: the fits before the
    floors, fit = (log coefficients (K,), exponents (K, len(names))).
    """
    log_floors = np.array([math.log(f) for f in floors])
    layouts = {}

    def layout(slack):
        m = gp.GpModel()
        shift = {}
        if slack:
            phi = m.variable("phi")
            m.maximize(phi)
            shift = {phi.index: -1.0}

        def rhs(k, exponents):
            mono = gp.Monomial(1.0, {**exponents, **shift})
            mono.log_coeff = -log_floors[k]
            return mono
        sinr = add_rows(m, [m.variable(name) for name in names], rhs)
        return m, sinr, m.weights

    def gp_for(w_hat, fit=None):
        slack = w_hat is None
        if slack not in layouts:
            layouts[slack] = layout(slack)
        m, sinr, weights = layouts[slack]
        if not slack:
            weights = weights.copy()
            weights[sinr] = w_hat
        if fit is None:
            return m.reaimed(weights)
        log_coeffs, exponents = fit
        if slack:
            exponents = np.hstack([np.full((floors.size, 1), -1.0), exponents])
        return m.reaimed(weights, (log_coeffs - log_floors, exponents))
    return gp_for


# ---------------------------------------------------------------------------
# The max-slack stage and the SCA loop
# ---------------------------------------------------------------------------

class _Scheme(NamedTuple):
    """What the max-slack stage and the SCA loop need of one scheme."""

    build: Callable      # (pilot_hat, w_hat) -> its GP; w_hat None: the joint max-slack GP
    read: Callable       # GP solution -> PowerAllocation, read by position
    coords: Callable     # PowerAllocation -> its step GP's variables (phi aside)
    sinr_of: Callable    # PowerAllocation -> lower-bound SINRs


def _joint_scheme(model: LargeScaleModel, cfg: SystemConfig, decoder: str,
                  floors: np.ndarray) -> _Scheme:
    """The joint allocation: SINR constraints fitted at pilot_hat, and the
    energy budgets over the pilots and payloads."""
    kdev = model.num_devices

    def add_rows(m, xs, rhs):
        pp, pd = xs[:kdev], xs[kdev:]
        block = MrcSinrBlock(model, pp, pd) if decoder == MRC else FzfSinrBlock(model, pp, pd)
        m.add_block_le(block, [rhs(k, {}) for k in range(kdev)])    # fits come per round
        for k in range(kdev):
            lhs = gp.Sum([gp.Monomial(float(kdev), {pp[k].index: 1.0}),
                          gp.Monomial(float(cfg.blocklength - kdev), {pd[k].index: 1.0})])
            m.add_le(lhs, gp.Const(float(model.energy[k])))
        return slice(0, kdev)

    gp_for = _scheme_gp(floors, [f"pp{k}" for k in range(kdev)]
                        + [f"pd{k}" for k in range(kdev)], add_rows)
    return _Scheme(build=lambda pilot_hat, w_hat: gp_for(
                       w_hat, _sinr_fits(model, decoder, cfg.antennas_per_ap, pilot_hat)),
                   read=lambda sol: PowerAllocation(pilot=sol.x[-2 * kdev:-kdev],
                                                    payload=sol.x[-kdev:]),
                   coords=lambda alloc: np.concatenate([alloc.pilot, alloc.payload]),
                   sinr_of=lambda alloc: true_sinr(model, alloc, cfg.antennas_per_ap, decoder))


def feasibility_init(model: LargeScaleModel, cfg: SystemConfig, decoder: str,
                     floors: np.ndarray) -> tuple[PowerAllocation | None, float, str]:
    """Find a joint allocation meeting every SINR floor, or report infeasible.

    Solves the max-slack GP from the equal energy split (phi first, then the
    pilots and payloads) and re-expands the fits at the returned pilots,
    which can only raise the certified slack. Each solve stops at its first
    strictly feasible iterate with phi >= 1.05 (status target_reached), which
    certifies the floors as well as the optimum would; a GP whose slack stays
    below that is solved to its optimum. Stops once comfortably feasible, when
    the slack stalls, or when the pilots did not move, since the GP would
    then be rebuilt unchanged. Returns the allocation (None when none is
    certified with slack >= 1), the largest slack reached and an error
    message, empty unless a GP failed numerically.
    """
    kdev = model.num_devices
    scheme = _joint_scheme(model, cfg, decoder, floors)
    pilot_hat = model.energy / (2.0 * kdev)
    payload0 = model.energy / (2.0 * (cfg.blocklength - kdev))
    start = np.concatenate([[1e-3], 0.9 * pilot_hat, 0.9 * payload0])
    target = 1.05 * FEASIBILITY_MARGIN
    best_phi = -math.inf
    best_alloc = None
    prev_phi = -math.inf
    error = ""
    for _ in range(MAX_FEASIBILITY_ROUNDS):
        sol = scheme.build(pilot_hat, None).solve(tol=cfg.gp_tolerance, start=start,
                                                  target=target)
        if sol.status == "numerical_error":
            error = f"max-slack GP failed: {sol.message}"
            break
        if sol.status == "infeasible":
            break
        phi = float(sol.x[0])
        alloc = scheme.read(sol)
        if phi > best_phi:
            best_phi, best_alloc = phi, alloc
        if (phi >= target or phi <= prev_phi * 1.01
                or np.array_equal(alloc.pilot, pilot_hat)):
            break
        prev_phi = phi
        pilot_hat = alloc.pilot
        start = sol.x
    if best_phi >= FEASIBILITY_MARGIN and best_alloc is not None:
        return best_alloc, best_phi, ""
    return None, best_phi, error


def _run_sca(model: LargeScaleModel, cfg: SystemConfig, params: fbl.FblParams,
             floors: np.ndarray, alloc: PowerAllocation, scheme: _Scheme) -> SolveResult:
    """The SCA iteration every scheme runs, from a feasible allocation.

    Each iteration builds the scheme's step GP around the current iterate for
    the surrogate exponents w_hat; the iterate, as a point of that GP, is its
    carry-over check. The first step GP starts from the iterate; later ones
    start from the previous GP's interior point, or from the iterate when
    that GP returned none. The loop stops when the relative gain
    falls below cfg.sca_tolerance; the best iterate of the trace is returned.
    """
    trace = IterationTrace()
    chi = scheme.sinr_of(alloc)
    if np.any(chi < floors * (1.0 - 1e-9)):
        return _no_allocation("infeasible", "starting point violates an SINR floor")
    obj = fbl.weighted_lb_sum_rate(chi, model.weights, params)
    trace.add(obj, chi, alloc, "init")

    status = "optimal"
    message = ""
    warm = None
    for _ in range(MAX_SCA_ITERATIONS):
        try:
            w_hat, clamped = _surrogate_exponents(chi, params, model.weights)
        except SurrogateError as exc:
            status, message = "aborted", str(exc)
            break
        trace.surrogate_clamped |= clamped
        m = scheme.build(alloc.pilot, w_hat)
        point = scheme.coords(alloc)
        # previous iterate must stay feasible in the refreshed GP
        trace.carryover_margin.append(float(m.constraint_margins(point).max()))
        sol = m.solve(tol=cfg.gp_tolerance, start=point if warm is None else warm)
        warm = sol.interior
        if sol.status != "optimal":
            status, message = "degraded", f"GP step returned {sol.status} {sol.message}".strip()
            break
        alloc = scheme.read(sol)
        chi = scheme.sinr_of(alloc)
        obj_new = fbl.weighted_lb_sum_rate(chi, model.weights, params)
        trace.add(obj_new, chi, alloc, sol.status)
        gain = (obj_new - obj) / obj if obj > 0 else math.inf
        obj = obj_new
        if gain < cfg.sca_tolerance:
            break

    best = int(np.argmax(trace.objective))
    chi = trace.sinr[best]
    rates = fbl.lb_rate(chi, params, np.arange(model.num_devices))
    return SolveResult(status=status, allocation=trace.allocations[best], trace=trace,
                       sinr=chi, rates=rates,
                       weighted_sum_rate=float(model.weights @ rates),
                       message=message)


def _solve_sca(model: LargeScaleModel, cfg: SystemConfig, decoder: str,
               params: fbl.FblParams, start: PowerAllocation | None = None) -> SolveResult:
    """Joint pilot/payload SCA from `start`, or from feasibility_init."""
    fbl.check_decoder(decoder)
    floors = sinr_floors(params, np.full(model.num_devices, cfg.rate_req_bps))
    if start is None:
        start, phi, error = feasibility_init(model, cfg, decoder, floors)
        if start is None:
            return _no_allocation("aborted" if error else "infeasible",
                                  error or f"max floor slack {phi:.4f} < 1")
    return _run_sca(model, cfg, params, floors, start,
                    _joint_scheme(model, cfg, decoder, floors))


def solve(model: LargeScaleModel, cfg: SystemConfig, decoder: str,
          start: PowerAllocation | None = None) -> SolveResult:
    """Joint pilot/payload allocation for decoder "mrc" or "fzf"."""
    return _solve_sca(model, cfg, decoder, fbl.FblParams.from_config(cfg), start)


# ---------------------------------------------------------------------------
# Benchmark schemes
# ---------------------------------------------------------------------------

def benchmark_upper_bound(model: LargeScaleModel, cfg: SystemConfig,
                          decoder: str) -> SolveResult:
    """Infinite-blocklength optimization; rates are reported without penalty."""
    params = fbl.FblParams.from_config(cfg).with_zero_dispersion()
    return _solve_sca(model, cfg, decoder, params)


def benchmark_conventional(model: LargeScaleModel, cfg: SystemConfig,
                           decoder: str,
                           upper: SolveResult | None = None) -> SolveResult:
    """Infinite-blocklength allocation re-evaluated under the true penalty.

    The instance counts as infeasible (rate zero) when any device then misses
    its requirement.
    """
    upper = upper if upper is not None else benchmark_upper_bound(model, cfg, decoder)
    if not upper.feasible:
        return SolveResult(status="infeasible", allocation=None, trace=upper.trace,
                           sinr=None, rates=None, weighted_sum_rate=0.0,
                           message="penalty-free stage infeasible")
    params = fbl.FblParams.from_config(cfg)
    chi = true_sinr(model, upper.allocation, cfg.antennas_per_ap, decoder)
    rates = fbl.lb_rate(chi, params, np.arange(model.num_devices))
    if np.any(rates < cfg.rate_req_bps * (1.0 - 1e-9)):
        return SolveResult(status="infeasible", allocation=upper.allocation,
                           trace=upper.trace, sinr=chi, rates=rates,
                           weighted_sum_rate=0.0,
                           message="allocation misses a rate requirement under penalty")
    return SolveResult(status="optimal", allocation=upper.allocation, trace=upper.trace,
                       sinr=chi, rates=rates,
                       weighted_sum_rate=float(model.weights @ rates))


def benchmark_fixed_pilot(model: LargeScaleModel, cfg: SystemConfig,
                          decoder: str) -> SolveResult:
    """Pilot power frozen at energy/blocklength; only payloads are optimized.

    The SINR floors then read pd >= A pd + b, with A = diag(floor/gain) cross
    >= 0 and b = floor noise/gain > 0, so the least payloads meeting them are
    pd* = (I - A)^-1 b. The floors can be met under the payload cap exactly
    when pd* is positive and below the cap (Yates, IEEE JSAC 13(7), 1995);
    b > 0 makes a positive pd* imply that A has spectral radius below 1. The
    SCA starts from s pd*, s halfway between 1 and the cap's least headroom
    over pd*, where (I - A) s pd* = s b > b meets every floor strictly.
    """
    params = fbl.FblParams.from_config(cfg)
    kdev = model.num_devices
    pilot = model.energy / cfg.blocklength
    pd_max = model.energy / cfg.blocklength      # leftover budget per data symbol
    floors = sinr_floors(params, np.full(kdev, cfg.rate_req_bps))
    stats = estimation_stats(model, pilot)
    pieces = fbl.sinr_pieces(model, stats, cfg.antennas_per_ap, decoder)
    n, coherent, noise, cross = pieces
    gain = n * coherent
    lift = floors / gain
    try:
        least = np.linalg.solve(np.eye(kdev) - lift[:, None] * cross, lift * noise)
    except np.linalg.LinAlgError:
        least = np.full(kdev, np.nan)
    if not np.all((least > 0) & (least < pd_max)):
        return _no_allocation("infeasible", "no payload under the cap meets every SINR floor")

    def add_rows(m, pd, rhs):
        """Row k is (cross_k . pd + noise_k) / gain_k <= pd_k under `rhs` of
        _scheme_gp, exact since no fit is involved, then the cap on pd_k."""
        for k in range(kdev):
            terms = [gp.Monomial(cross[k, j] / gain[k], {pd[j].index: 1.0}) for j in range(kdev)]
            terms.append(gp.Const(noise[k] / gain[k]))
            m.add_le(gp.Sum(terms), rhs(k, {pd[k].index: 1.0}))
            m.add_le(pd[k], gp.Const(float(pd_max[k])))
        return slice(0, 2 * kdev, 2)

    gp_for = _scheme_gp(floors, [f"pd{k}" for k in range(kdev)], add_rows)
    scheme = _Scheme(build=lambda pilot_hat, w_hat: gp_for(w_hat),
                     read=lambda sol: PowerAllocation(pilot=pilot, payload=sol.x[-kdev:]),
                     coords=lambda alloc: alloc.payload,
                     sinr_of=lambda alloc: fbl.lb_sinr(pieces, alloc.payload))
    scale = 0.5 * (1.0 + float((pd_max / least).min()))
    return _run_sca(model, cfg, params, floors,
                    PowerAllocation(pilot=pilot, payload=scale * least), scheme)
