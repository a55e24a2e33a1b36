"""Joint pilot/payload power allocation by successive convex approximation.

Each iteration replaces the weighted-sum-rate objective by its log-linear
tangent surrogate and the coherent-gain posynomials by their best local
monomials (`approx`, all K devices in one call), yielding a GP whose solution
can only improve the true objective. Joint SINR rows are one term table
(`gp.TermRows`) per decoder, from `mrc_rows` or `fzf_rows`, over the
service-set terms and factors of `approx.service_terms`, as the gain tables
are. The joint scheme picks its decoder's tables and fit once, stacks the SINR
rows over its energy rows, and folds each round's fits into that one table; a
step GP is a table plus row weights. A max-slack GP, in `feasibility_init`,
provides the feasible starting point; the infinite-blocklength benchmark
reuses it with the dispersion penalty removed. The fixed-pilot benchmark
freezes the pilots, so its SINR floors are linear in the payloads: one linear
solve gives the least payloads meeting them and decides feasibility (Yates,
IEEE JSAC 13(7), 1995), and the SCA starts above those payloads. A scheme is
its step-GP builder and its SINR scorer, bound once to its decoder (and to the
fixed pilots' statistics); allocations are read by position. `compare` runs all four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import approx, fbl, gp
from .channel import estimation_stats
from .scenario import LargeScaleModel, SystemConfig

MAX_SCA_ITERATIONS = 50
MAX_FEASIBILITY_ROUNDS = 5
FEASIBILITY_MARGIN = 1.0     # slack level that certifies feasibility

SCHEMES = ("proposed", "upper_bound", "conventional", "fixed_pilot")


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


def sinr_floors(params: fbl.FblParams, rate_req_bps: float) -> np.ndarray:
    """Minimum SINR per device at which the lower-bound rate reaches the requirement;
    an InfeasibleRateError, naming the requirement, when no SINR reaches it."""
    y = rate_req_bps / params.rate_scale
    try:
        return np.array([1.0 / fbl.rate_kernel_inverse(y, float(a)) for a in params.alpha])
    except fbl.InfeasibleRateError as exc:
        raise fbl.InfeasibleRateError(f"rate requirement {rate_req_bps:g} bit/s: {exc}") from exc


# ---------------------------------------------------------------------------
# GP construction
# ---------------------------------------------------------------------------

def _surrogate_exponents(chi_hat: np.ndarray, params: fbl.FblParams,
                         weights: np.ndarray) -> tuple[np.ndarray, bool]:
    """Normalized objective exponents from the two log tangents at chi_hat.

    Expansion points below the penalty tangent's domain are clamped up to its
    boundary; the run records that the surrogate lost tightness there, for
    devices with a dispersion penalty (alpha > 0) only.
    """
    rho, _ = approx.log1p_tangent(chi_hat)
    pen_slope, _ = approx.penalty_tangent(np.maximum(chi_hat, approx.PENALTY_TANGENT_MIN))
    w_hat = weights * (rho - params.alpha * pen_slope)
    bad = np.flatnonzero(w_hat <= 0.0)
    if bad.size:
        i = bad[0]
        raise SurrogateError(f"device {i}: surrogate exponent {w_hat[i]:.3e} is non-positive "
                             f"(expansion SINR {chi_hat[i]:.3e})")
    clamped = bool(((chi_hat < approx.PENALTY_TANGENT_MIN) & (params.alpha != 0.0)).any())
    return w_hat / w_hat.sum(), clamped


def _sinr_table(model: LargeScaleModel, gain: bool):
    """Row k's terms (r, m) of `approx.service_terms` for both SINR tables over
    the K pilots, then the K payloads, r = 0..K-1 (and K given gain):
    beta_mr pd_r, or 1 for r = K. Returns per term its row, r and m, the log
    coefficients, exponents, row sizes and the factors' b and columns."""
    kdev = model.num_devices
    row, r, ap, counts, b, columns = approx.service_terms(model, kdev + gain)
    pay = np.flatnonzero(r < kdev)
    c = np.log(np.where(r < kdev, model.beta[ap, np.minimum(r, kdev - 1)], 1.0))
    a = np.zeros((row.size, 2 * kdev))
    a[pay, kdev + r[pay]] = 1.0
    return row, r, ap, c, a, counts, b, columns


def mrc_rows(model: LargeScaleModel) -> gp.TermRows:
    """The K MRC SINR left-hand sides scale_k (sum_r pd_r cross_kr + gain_k)
    over the K pilots, then the K payloads: row k's term (r, m), r = 0..K, is
    K beta_mk^2 pp_k times that of `_sinr_table`, with weight 2 on every factor
    (m' in S_k, k) but 1 on (m, k)."""
    kdev = model.num_devices
    row, _, ap, c, a, counts, b, columns = _sinr_table(model, True)
    c += np.log(kdev * model.beta[ap, row] ** 2)
    a[np.arange(row.size), row] = 1.0                              # pilot k
    own = model.service_mask[:, :, None] * np.eye(kdev)[:, None, :]   # (K, M, K): m in S_k, k
    weights = 2.0 * own.reshape(kdev, -1)[row]
    weights[np.arange(row.size), ap * kdev + row] = 1.0
    return gp.TermRows(c, a, counts, b, columns, weights)


def fzf_rows(model: LargeScaleModel) -> gp.TermRows:
    """The K zero-forcing SINR left-hand sides |S_k| prod_i scale_ki^2 +
    sum_j pd_j resid_kj prod_{i != j} scale_ki^2 over the K pilots, then the
    K payloads: row k's terms (j, m) of `_sinr_table`, with weight 1 on every
    factor (m' in S_k, i) but 0 on (m, j), and last |S_k| with weight 1 on all."""
    kdev = model.num_devices
    row, j, ap, c, a, counts, b, columns = _sinr_table(model, False)
    in_set = model.service_mask
    every = np.repeat(in_set, kdev, axis=1)                        # (K, M K): (m' in S_k, i)
    weights = every[row]
    weights[np.arange(row.size), ap * kdev + j] = 0.0
    ends = np.cumsum(counts)
    return gp.TermRows(np.insert(c, ends, np.log(in_set.sum(axis=1))),
                       np.insert(a, ends, 0.0, axis=0), counts + 1, b, columns,
                       np.insert(weights, ends, every, axis=0))


def _energy_rows(model: LargeScaleModel, blocklength: int) -> gp.TermRows:
    """The K energy rows K pp_k + (L - K) pd_k <= E_k over the K pilots, then
    the K payloads, each budget divided into its row's terms."""
    kdev = model.num_devices
    log_energy = np.log(model.energy)
    c = np.column_stack([np.log(kdev) - log_energy, np.log(blocklength - kdev) - log_energy])
    return gp.TermRows(c.ravel(), np.eye(2 * kdev)[np.arange(2 * kdev).reshape(2, -1).T.ravel()],
                       np.full(kdev, 2))


def _step_gp(table: gp.TermRows, w_hat: np.ndarray) -> gp.GpModel:
    """The step GP over the rows of `table`, the K SINR rows first, weighted by
    w_hat, and every other row by 0: with SINR row k a floor over a fitted
    SINR, it maximizes prod_k (SINR_k/floor_k)^w_hat_k."""
    weights = np.zeros(table.size)
    weights[:w_hat.size] = w_hat
    return gp.GpModel(table, weights, (0.0, np.zeros(table.columns)))


# ---------------------------------------------------------------------------
# The max-slack stage and the SCA loop
# ---------------------------------------------------------------------------

def _joint_scheme(model: LargeScaleModel, cfg: SystemConfig, decoder: str,
                  floors: np.ndarray) -> tuple[Callable, Callable]:
    """The joint allocation's builder (pilot_hat, w_hat) -> step GP (w_hat None: max-slack
    GP), SINR constraints fitted at pilot_hat and energy budgets, and its scorer alloc -> SINRs.

    The decoder picks, once, the gain table, SINR rows, `approx` fit and `fbl` bound,
    the antenna count N' (MRC: N; FZF: N - K) and the fit's scale s (MRC: 2, its
    gain fit squared; FZF: 1): a round folds N' pd_k fit_k^s over floor_k into
    SINR row k of the one table, or of its relaxed copy for the max-slack GP."""
    kdev = model.num_devices
    if decoder == "mrc":
        gain_rows, sinr_rows, fit = approx.mrc_gain_rows(model), mrc_rows, approx.mrc_gain_monomial
        lb_sinr, log_n, scale = fbl.lb_sinr_mrc, np.log(cfg.antennas_per_ap), 2.0
    else:
        gain_rows, sinr_rows, fit = approx.fzf_gain_rows(model), fzf_rows, approx.fzf_gain_monomial
        lb_sinr, log_n, scale = fbl.lb_sinr_fzf, np.log(cfg.antennas_per_ap - kdev), 1.0
    log_floors = np.log(floors)
    table = gp.stack([sinr_rows(model), _energy_rows(model, cfg.blocklength)])
    tables = (table, table.relax(np.arange(kdev)))

    def build(pilot_hat, w_hat):
        gains = fit(gain_rows, pilot_hat)
        target = tables[w_hat is None]
        r, big_r = np.zeros(target.size), np.zeros((target.size, target.columns))
        r[:kdev] = log_n + scale * gains.log_coeff - log_floors
        big_r[:kdev, -2 * kdev:-kdev] = scale * gains.exponents
        big_r[np.arange(kdev), np.arange(-kdev, 0)] = 1.0               # pd_k in row k
        folded = target.fold(r, big_r)
        return gp.max_slack(folded) if w_hat is None else _step_gp(folded, w_hat)

    def score(alloc):
        return lb_sinr(model, estimation_stats(model, alloc.pilot), alloc.payload,
                       cfg.antennas_per_ap)

    return build, score


def _read(x: np.ndarray, pilot: np.ndarray) -> PowerAllocation:
    """The allocation at GP point x: the payloads are its last K variables, the
    pilots the K before them, or the frozen `pilot` when the GP has only K."""
    k = pilot.size
    return PowerAllocation(pilot=x[-2 * k:-k] if x.size > k else pilot, payload=x[-k:])


def feasibility_init(model: LargeScaleModel, cfg: SystemConfig,
                     build: Callable) -> tuple[PowerAllocation | None, float, str]:
    """Find a joint allocation meeting every SINR floor of `build`'s GPs, or report infeasible.

    Solves the scheme's max-slack GP from the equal energy split (phi first,
    then the pilots and payloads) and re-expands the fits at the returned pilots,
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
    pilot_hat = model.energy / (2.0 * kdev)
    payload0 = model.energy / (2.0 * (cfg.blocklength - kdev))
    start = np.concatenate([[1e-3], 0.9 * pilot_hat, 0.9 * payload0])
    target = 1.05 * FEASIBILITY_MARGIN
    best_phi = -math.inf
    best_alloc = None
    prev_phi = -math.inf
    error = ""
    for _ in range(MAX_FEASIBILITY_ROUNDS):
        sol = build(pilot_hat, None).solve(tol=cfg.gp_tolerance, start=start, target=target)
        if sol.status == "numerical_error":
            error = f"max-slack GP failed: {sol.message}"
            break
        if sol.status == "infeasible":
            break
        phi = float(sol.x[0])
        alloc = _read(sol.x, pilot_hat)
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
             alloc: PowerAllocation, build: Callable, score: Callable,
             chi: np.ndarray | None = None) -> SolveResult:
    """The SCA iteration every scheme runs, from a feasible allocation.

    Each iteration builds the scheme's step GP around the current iterate for
    the surrogate exponents w_hat; the iterate, as a point of that GP, is its
    carry-over check. The first step GP starts from the iterate; later ones
    start from the previous GP's interior point, or from the iterate when
    that GP returned none. `score` gives each iterate's SINRs (`chi`, if given, the
    start's). The loop stops when the relative gain falls below cfg.sca_tolerance;
    the best iterate is returned.
    """
    trace = IterationTrace()
    chi = score(alloc) if chi is None else chi
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
        m = build(alloc.pilot, w_hat)
        point = np.concatenate([alloc.pilot, alloc.payload])[-m.table.columns:]
        # previous iterate must stay feasible in the refreshed GP
        trace.carryover_margin.append(float(m.constraint_margins(point).max()))
        sol = m.solve(tol=cfg.gp_tolerance, start=point if warm is None else warm)
        warm = sol.interior
        if sol.status != "optimal":
            status, message = "degraded", f"GP step returned {sol.status} {sol.message}".strip()
            break
        alloc = _read(sol.x, alloc.pilot)
        chi = score(alloc)
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
    """Joint pilot/payload SCA on one scheme from `start`, floors checked, or feasibility_init."""
    fbl.check_decoder(decoder)
    try:
        floors = sinr_floors(params, cfg.rate_req_bps)
    except fbl.InfeasibleRateError as exc:
        return _no_allocation("infeasible", str(exc))
    build, score = _joint_scheme(model, cfg, decoder, floors)
    chi = None if start is None else score(start)
    if start is None:
        start, phi, error = feasibility_init(model, cfg, build)
        if start is None:
            return _no_allocation("aborted" if error else "infeasible",
                                  error or f"max floor slack {phi:.4f} < 1")
    elif np.any(chi < floors * (1.0 - 1e-9)):
        return _no_allocation("infeasible", "starting point violates an SINR floor")
    return _run_sca(model, cfg, params, start, build, score, chi)


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


def benchmark_conventional(model: LargeScaleModel, cfg: SystemConfig, decoder: str,
                           upper: SolveResult) -> SolveResult:
    """The infinite-blocklength allocation `upper`, from `benchmark_upper_bound`,
    re-evaluated under the true penalty.

    The instance counts as infeasible (rate zero) when any device then misses
    its requirement. An aborted `upper` keeps its status and message.
    """
    if not upper.feasible:
        if upper.status != "aborted":
            upper = replace(upper, status="infeasible", message="penalty-free stage infeasible")
        return replace(upper, allocation=None, sinr=None, rates=None, weighted_sum_rate=0.0)
    chi = upper.sinr                        # only the rates carry the dispersion penalty
    rates = fbl.lb_rate(chi, fbl.FblParams.from_config(cfg), np.arange(model.num_devices))
    missed = bool(np.any(rates < cfg.rate_req_bps * (1.0 - 1e-9)))
    return replace(upper, status="infeasible" if missed else "optimal", sinr=chi, rates=rates,
                   weighted_sum_rate=0.0 if missed else float(model.weights @ rates),
                   message="allocation misses a rate requirement under penalty" if missed else "")


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
    # at the frozen pilots E/L, the energy row K E/L + (L - K) pd <= E is exactly pd <= E/L
    pilot = pd_max = model.energy / cfg.blocklength
    try:
        floors = sinr_floors(params, cfg.rate_req_bps)
    except fbl.InfeasibleRateError as exc:
        return _no_allocation("infeasible", str(exc))
    pieces = fbl.sinr_pieces(model, estimation_stats(model, pilot), cfg.antennas_per_ap, decoder)
    n, coherent, noise, cross = pieces
    gain = n * coherent
    lift = floors / gain
    try:
        least = np.linalg.solve(np.eye(kdev) - lift[:, None] * cross, lift * noise)
    except np.linalg.LinAlgError:
        least = np.full(kdev, np.nan)
    if not np.all((least > 0) & (least < pd_max)):
        return _no_allocation("infeasible", "no payload under the cap meets every SINR floor")

    # row k: floor_k (cross_k . pd + noise_k) / gain_k <= pd_k, exact since no
    # fit is involved, then the caps pd_k <= pd_max_k, each right-hand side
    # divided into its row's terms
    terms = np.log(np.column_stack([cross, noise]) / gain[:, None])
    ratios = np.eye(kdev + 1, kdev)[None, :, :] - np.eye(kdev)[:, None, :]      # pd_j / pd_k
    table = gp.TermRows(np.append(terms + np.log(floors)[:, None], -np.log(pd_max)),
                        np.vstack([ratios.reshape(-1, kdev), np.eye(kdev)]),
                        np.append(np.full(kdev, kdev + 1), np.ones(kdev, dtype=int)))
    scale = 0.5 * (1.0 + float((pd_max / least).min()))
    return _run_sca(model, cfg, params, PowerAllocation(pilot=pilot, payload=scale * least),
                    lambda _, w_hat: _step_gp(table, w_hat),
                    lambda alloc: fbl.lb_sinr(pieces, alloc.payload))


def compare(model: LargeScaleModel, cfg: SystemConfig, decoder: str) -> dict[str, SolveResult]:
    """Every scheme on one deployment, keyed by SCHEMES. When the better feasible benchmark
    beats proposed, proposed is re-solved from that contained point, scored with the same
    bits, and the higher result kept: the SCA keeps its best iterate, so proposed ends at or
    above every contained point (Marks & Wright, Oper. Res. 26(4), 1978)."""
    upper = benchmark_upper_bound(model, cfg, decoder)
    conventional = benchmark_conventional(model, cfg, decoder, upper)
    fixed, proposed = benchmark_fixed_pilot(model, cfg, decoder), solve(model, cfg, decoder)

    def wsr(res):
        return res.weighted_sum_rate if res.feasible else 0.0

    best = max((conventional, fixed), key=wsr)
    if wsr(best) > wsr(proposed):
        retry = solve(model, cfg, decoder, start=best.allocation)
        proposed = max((proposed, retry), key=wsr)
    return dict(zip(SCHEMES, (proposed, upper, conventional, fixed)))
