"""Geometric programs in the form the power allocation builds, solved from scratch.

A GpModel has three kinds of rows: monomial <= monomial, posynomial (a sum
of monomials) <= monomial, and row blocks such as the SINR constraints
(Boyd, Kim, Vandenberghe & Hassibi, "A tutorial on geometric programming",
2007). Any other left-hand side, and any monomial naming an undeclared
variable, is rejected when it is added. It maximizes a monomial times
prod_i (rhs_i / lhs_i)^w_i over rows with objective weight w_i > 0, which in
log variables is the convex -log monomial + sum_i w_i f_i (B&V §4.5.3).

All evaluation happens in log variables, where a monomial row is affine and a
posynomial row is a log-sum-exp. The rows of a model are compiled into one
constraint block, f(y) = parts(y) - r - R y: row blocks, the posynomial rows
one term table (`TermRows`: log-sum-exps of terms affine in y plus weighted
factors log(1 + b e^{y_j}), which the SINR rows use), minus one affine
right-hand side that carries every other monomial. One call returns the row
values, the Jacobian and the weighted Hessian sum, never a Hessian per row.

The solver is one primal-dual interior-point iteration (Boyd & Vandenberghe,
Convex Optimization, §11.7, Algorithm 11.2) that both phases run: phase two
on the log variables y, whose weighted rows add their Hessian sum to the
Newton matrix, and phase one on (y, s) for min s subject to
f_i(y) - s <= 0 when the start is not strictly feasible. Each iteration
takes one Newton step on the primal and dual variables together, with the
surrogate duality gap eta = -f . lambda setting the barrier parameter, and
the solve stops once eta and the scaled dual residual are both within tol.
Each point, the start and every trial point of the line search, is evaluated
once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class GpError(Exception):
    """Base class for modeling and solver failures."""


class GpModelError(GpError):
    """The expression is not a monomial or posynomial where one is required."""


# ---------------------------------------------------------------------------
# Expressions: monomials and sums of monomials
# ---------------------------------------------------------------------------

def _coerce(obj) -> Monomial | Sum:
    if isinstance(obj, (Monomial, Sum)):
        return obj
    if isinstance(obj, (int, float)):
        return Const(float(obj))
    raise GpModelError(f"cannot use {obj!r} in a GP expression")


class Monomial:
    """coeff * prod_i x_i^a_i for positive coeff: affine in log variables."""

    def __init__(self, coeff: float, exponents: dict[int, float]):
        if not (coeff > 0 and math.isfinite(coeff)):
            raise GpModelError(f"monomial coefficient must be positive, got {coeff}")
        self.log_coeff = math.log(coeff)
        self.exponents = dict(exponents)

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices and values of the exponents, made on first evaluation."""
        return (np.array(tuple(self.exponents), dtype=int),
                np.array(tuple(self.exponents.values()), dtype=float))

    def log_value(self, y: np.ndarray) -> float:
        """log self(exp(y))."""
        idx, exp = self._arrays
        return self.log_coeff + float(y[idx] @ exp)

    def log_eval(self, y: np.ndarray):
        """log self(exp(y)) and its (constant) gradient."""
        g = np.zeros_like(y)
        g[self._arrays[0]] = self._arrays[1]
        return self.log_value(y), g


class Const(Monomial):
    def __init__(self, value: float):
        if not (value > 0 and math.isfinite(value)):
            raise GpModelError(f"constants must be positive and finite, got {value}")
        super().__init__(value, {})


class Var(Monomial):
    def __init__(self, index: int, name: str):
        super().__init__(1.0, {index: 1.0})
        self.index = index
        self.name = name


class Sum:
    """A posynomial: a sum of monomials, nested sums flattened."""

    def __init__(self, terms):
        flat = []
        for t in terms:
            t = _coerce(t)
            flat.extend(t.terms if isinstance(t, Sum) else [t])
        if not flat:
            raise GpModelError("empty sum")
        self.terms = flat


# ---------------------------------------------------------------------------
# Problem container and solver
# ---------------------------------------------------------------------------

@dataclass
class GpSolution:
    x: np.ndarray
    names: tuple[str, ...]
    objective: float
    # optimal | target_reached | infeasible | max_iterations | numerical_error
    status: str
    iterations: int
    kkt_residual: float
    message: str = ""
    interior: np.ndarray | None = None   # first iterate with gap <= 3e-2: a warm start
    stage_objectives: tuple[float, ...] = ()  # objective at each phase-two iterate

    def __getitem__(self, name: str) -> float:
        return float(self.x[self.names.index(name)])


@dataclass
class _Rows:
    """The rows lhs_i <= rhs_i of one add_le or add_block_le call."""

    lhs: Monomial | Sum | RowBlock
    rhs_log_coeffs: np.ndarray    # r: log coefficient of each row's right-hand side
    rhs_exponents: np.ndarray     # R: its exponents, one row per row (fewer columns
                                  # than variables when variables came later)
    weights: np.ndarray           # objective weight per row


# ---------------------------------------------------------------------------
# Constraint rows, evaluated a block at a time
# ---------------------------------------------------------------------------

class RowBlock:
    """Several constraint left-hand sides evaluated together in log space.

    `log_eval(y)` returns the log values (size,), the Jacobian (size, n) and
    a function that maps row weights w (size,) to the weighted Hessian sum
    sum_i w_i * Hessian_i  (n, n). The barrier only ever needs that sum, so
    no per-row Hessian is formed. The solver evaluates every point once, trial
    points outside the domain included, and calls the Hessian function only
    at accepted points, so work that only the Hessian needs belongs in it.
    """

    size: int

    def log_eval(self, y: np.ndarray):
        raise NotImplementedError


class TermRows(RowBlock):
    """Row i is log sum_{t in row i} exp(c_t + a_t . y + sum_f m_tf log(1 + b_f e^{y[v_f]}))
    for factor coefficients b_f > 0 and weights m_tf >= 0, so every row is a
    generalized posynomial (convex in y); without factors, a posynomial. Terms
    are stored row by row, each row a segment of the term axis; factors that
    no term weights are dropped.

    With p the term weights within their rows, G = a + M diag(s) V the term
    gradients (V selects each factor's column, s = b x / (1 + b x)) and J the
    Jacobian, the weighted Hessian sum is G^T diag(w p) G - J^T diag(w) J +
    V^T diag(((w p)^T M) s (1 - s)) V. With factors, G - J replaces G and the
    J term goes: the same matrix, without its cancellation where s nears 1.
    """

    def __init__(self, log_coeffs, exponents, counts, factor_coeffs=(),
                 factor_columns=(), factor_weights=None):
        self.c = np.asarray(log_coeffs, dtype=float)                   # (T,)
        self.a = np.asarray(exponents, dtype=float)                    # (T, n)
        counts = np.asarray(counts, dtype=int)
        b, v = np.asarray(factor_coeffs, dtype=float), np.asarray(factor_columns, dtype=int)
        terms, n = self.a.shape
        m = np.zeros((terms, b.size)) if factor_weights is None \
            else np.asarray(factor_weights, dtype=float)
        if not (self.c.shape == (terms,) and (counts > 0).all() and counts.sum() == terms
                and m.shape == (terms, b.size) and v.shape == b.shape and (b > 0).all()
                and (m >= 0).all() and np.isfinite(np.append(b, m)).all()
                and ((v >= 0) & (v < n)).all()):
            raise GpModelError(f"need {terms} terms in rows of at least one and, per factor, "
                               f"a coefficient b > 0, a column in [0, {n}) and a weight "
                               f">= 0 per term, all finite; got rows of {counts.tolist()}")
        used = m.any(axis=0)
        self.b, self.v, self.m = b[used], v[used], m[:, used]           # (F,), (F,), (T, F)
        self.select = np.eye(n)[self.v]                                # V (F, n)
        self.starts = np.cumsum(counts) - counts
        self.seg = np.repeat(np.arange(counts.size), counts)
        self.size = counts.size

    def log_eval(self, y):
        z = self.c + self.a @ y
        g = self.a
        if self.b.size:
            t = self.b * np.exp(y[self.v])
            s = t / (1.0 + t)
            z = z + self.m @ np.log1p(t)
            g = g + self.m @ (s[:, None] * self.select)
        top = np.maximum.reduceat(z, self.starts)
        w = np.exp(z - top[self.seg])
        total = np.add.reduceat(w, self.starts)
        vals = top + np.log(total)
        p = w / total[self.seg]
        pg = p[:, None] * g                                  # term weight * term gradient
        jac = np.add.reduceat(pg, self.starts, axis=0)

        def hess(weights):
            wseg = weights[self.seg]
            if not self.b.size:
                return g.T @ (wseg[:, None] * pg) - jac.T @ (weights[:, None] * jac)
            gc, wp = g - jac[self.seg], wseg * p
            h = gc.T @ (wp[:, None] * gc)
            h.flat[::y.size + 1] += np.bincount(self.v, (wp @ self.m) * s * (1.0 - s),
                                                minlength=y.size)
            return h
        return vals, jac, hess


class _ConstraintBlock(RowBlock):
    """Every row of a GpModel: f(y) = parts(y) - r - R y.

    The parts are row blocks, each filling its row slots (rows no part
    fills are 0 there). r (m,) and R (m, n) hold the log coefficient and
    exponents of every monomial right-hand side, and of the right-hand side
    over the left-hand side for a monomial row, so one affine term carries
    them all. `weights` (m,) holds each row's objective weight.
    """

    def __init__(self, parts: list[tuple[object, RowBlock]], rhs_log_coeffs: np.ndarray,
                 rhs_exponents: np.ndarray, weights: np.ndarray):
        self.parts = parts        # (row slots as a slice or index array, block)
        self.rhs_log_coeffs = rhs_log_coeffs
        self.rhs_exponents = rhs_exponents
        self.weights = weights
        self.size = rhs_log_coeffs.size

    def log_eval(self, y):
        vals = np.zeros(self.size)
        jac = np.zeros((self.size, y.size))
        hessians = []
        for rows, block in self.parts:
            vals[rows], jac[rows], h = block.log_eval(y)
            hessians.append((rows, h))

        def hess(weights):
            total = np.zeros((y.size, y.size))
            for rows, h in hessians:
                total += h(weights[rows])
            return total
        vals -= self.rhs_log_coeffs
        vals -= self.rhs_exponents @ y
        jac -= self.rhs_exponents
        return vals, jac, hess


def _slots(rows: list[int]):
    """A slice when the row slots are contiguous, else an index array."""
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return np.array(rows, dtype=int)


def _posynomial_rows(posy: list[_Rows], n: int) -> TermRows:
    """Posynomial rows, each right-hand side divided into its row's terms."""
    counts = [len(c.lhs.terms) for c in posy]
    log_coeffs, exps = _log_forms([t for c in posy for t in c.lhs.terms], n)
    rhs_exps = np.zeros((len(posy), n))
    for row, c in enumerate(posy):
        rhs_exps[row, :c.rhs_exponents.shape[1]] = c.rhs_exponents[0]
    return TermRows(log_coeffs - np.repeat([c.rhs_log_coeffs[0] for c in posy], counts),
                    exps - np.repeat(rhs_exps, counts, axis=0), counts)


def _row_weights(weights, size: int) -> np.ndarray:
    w = np.zeros(size) if weights is None else np.array(weights, dtype=float)
    if w.shape != (size,) or not all(0.0 <= v < math.inf for v in w.tolist()):
        raise GpModelError(f"need {size} finite, nonnegative row weights, got {weights!r}")
    return w


def _log_forms(monomials, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Log coefficients (len,) and exponent rows (len, n) of monomials over
    the n declared variables; a monomial naming any other index is rejected."""
    exps = np.zeros((len(monomials), n))
    for row, mono in enumerate(monomials):
        for i, a in mono.exponents.items():
            if not 0 <= i < n:
                raise GpModelError(f"monomial names variable {i}, but only {n} are declared")
            exps[row, i] = a
    return np.array([mono.log_coeff for mono in monomials]), exps


# Constants of the primal-dual interior-point method (B&V §11.7).
BARRIER_T0 = 1.0            # barrier parameter after phase one
GAP_REDUCTION = 10.0        # mu: t = mu * m / eta once the hold at t0 ends
BOUNDARY_FRACTION = 0.99    # share of the step to the nearest lambda = 0 boundary
RESIDUAL_DECREASE = 0.01    # alpha of the residual-norm line search
BACKTRACK_SHRINK = 0.5
_MAX_BACKTRACKS = 60
MAX_NEWTON = 4000           # Newton steps per solve, both phases together
_INTERIOR_GAP = 3e-2        # surrogate gap of the point kept as a warm start
_PHASE1_MARGIN = 1e-3
_PHASE1_SKIP = -1e-12
_PHASE1_TOL = 1e-10         # gap and dual residual at which phase one gives its verdict


class _BudgetExhausted(Exception):
    pass


class _IterBudget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        if self.used >= self.limit:
            raise _BudgetExhausted
        self.used += 1


class GpModel:
    """Positive-variable program: maximize a monomial (1 unless set) times
    prod_i (rhs_i / lhs_i)^w_i subject to monomial or posynomial <= monomial
    rows and row blocks."""

    def __init__(self):
        self._vars: list[Var] = []
        self._constraints: list[_Rows] = []
        self._objective: Monomial = Const(1.0)
        self._compiled = None

    # -- modeling -----------------------------------------------------------
    def variable(self, name: str) -> Var:
        v = Var(len(self._vars), name)
        self._vars.append(v)
        self._compiled = None
        return v

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self._vars)

    @property
    def weights(self) -> np.ndarray:
        """The objective weight of every row, in row order."""
        return self._block().weights.copy()

    def maximize(self, expr):
        expr = _coerce(expr)
        if not isinstance(expr, Monomial):
            raise GpModelError("only a monomial can be maximized")
        _log_forms([expr], len(self._vars))
        self._objective = expr

    def add_le(self, lhs, rhs, weight: float = 0.0):
        """The constraint lhs <= rhs: a monomial or a Sum of monomials under a
        monomial. A weight w > 0 also multiplies the objective by (rhs/lhs)^w."""
        lhs = _coerce(lhs)
        _log_forms(lhs.terms if isinstance(lhs, Sum) else [lhs], len(self._vars))
        self._add(lhs, [_coerce(rhs)], [weight])

    def add_block_le(self, lhs: RowBlock, rhs, weights=None):
        """Constraints lhs_i <= rhs_i for every row i of a row block, with
        objective weights as in add_le (None: all 0)."""
        rhs = [_coerce(r) for r in rhs]
        if len(rhs) != lhs.size:
            raise GpModelError(f"block has {lhs.size} rows but {len(rhs)} right-hand sides")
        self._add(lhs, rhs, weights)

    def _add(self, lhs, rhs, weights):
        """One record of the rows lhs_i <= rhs_i, rhs_i monomials."""
        if not all(isinstance(r, Monomial) for r in rhs):
            raise GpModelError("constraint right-hand side must be a monomial")
        weights = _row_weights(weights, len(rhs))
        self._constraints.append(_Rows(lhs, *_log_forms(rhs, len(self._vars)), weights))
        self._compiled = None

    def reaimed(self, weights, block_rhs=None) -> GpModel:
        """This GP under new objective weights, one per row in row order, and,
        given block_rhs = (r, R), new right-hand sides for the rows of its row
        blocks, in order: log coefficients r and exponent rows R.

        The copy shares the variables, the objective, every left-hand side
        and the compiled posynomial rows and row blocks; only the weights and
        the affine right-hand side are new, so nothing is compiled again.
        """
        block = self._block()
        weights = _row_weights(weights, block.size)
        r, big_r = block.rhs_log_coeffs, block.rhs_exponents
        if block_rhs is not None:
            m = sum(c.lhs.size for c in self._constraints if isinstance(c.lhs, RowBlock))
            new_r, new_big_r = (np.asarray(a, dtype=float) for a in block_rhs)
            if new_r.shape != (m,) or new_big_r.shape != (m, big_r.shape[1]) \
                    or not (np.isfinite(new_r).all() and np.isfinite(new_big_r).all()):
                raise GpModelError(f"need finite right-hand sides r ({m},) and "
                                   f"R ({m}, {big_r.shape[1]}) for the block rows")
            r, big_r = r.copy(), big_r.copy()
        constraints, slot, done = [], 0, 0
        for c in self._constraints:
            size = c.weights.size
            rows = slice(slot, slot + size)
            if block_rhs is not None and isinstance(c.lhs, RowBlock):
                r[rows], big_r[rows] = new_r[done:done + size], new_big_r[done:done + size]
                done += size
                c = _Rows(c.lhs, r[rows], big_r[rows], weights[rows])
            else:
                c = _Rows(c.lhs, c.rhs_log_coeffs, c.rhs_exponents, weights[rows])
            constraints.append(c)
            slot += size
        copy = GpModel()
        copy._vars, copy._objective = list(self._vars), self._objective
        copy._constraints = constraints
        copy._compiled = _ConstraintBlock(block.parts, r, big_r, weights)
        return copy

    def constraint_margins(self, x: np.ndarray) -> np.ndarray:
        """Log-space slack log(lhs) - log(rhs) per constraint row; <= 0 means satisfied."""
        return self._constraint_eval(self._log_point(x))[0]

    # -- evaluation ----------------------------------------------------------
    def _log_point(self, x) -> np.ndarray:
        """log x, for x of one positive, finite value per variable."""
        x = np.asarray(x, dtype=float)
        if x.shape != (len(self._vars),) or not (np.isfinite(x).all() and (x > 0).all()):
            raise GpModelError(f"need {len(self._vars)} positive, finite values "
                               f"in variable order, got {x!r}")
        return np.log(x)

    def _compile(self):
        """Fold every constraint row into one constraint block.

        Posynomial rows become one term table without factors, the
        right-hand side divided into their terms, and row blocks keep their
        own kernels. Every other monomial goes into the block's affine term:
        the right-hand side of a block row, and the right-hand side over the
        left-hand side of a monomial row, whose value is that affine term.
        """
        n = len(self._vars)
        weights = np.concatenate([c.weights for c in self._constraints])
        r, big_r = np.zeros(weights.size), np.zeros((weights.size, n))    # posynomial rows: 0
        posy, slots, blocks, slot = [], [], [], 0
        for c in self._constraints:
            rows = slice(slot, slot + c.weights.size)
            slot += c.weights.size
            if isinstance(c.lhs, Sum):          # the right-hand side moves into the terms
                posy.append(c)
                slots.append(rows.start)
                continue
            r[rows] = c.rhs_log_coeffs
            big_r[rows, :c.rhs_exponents.shape[1]] = c.rhs_exponents
            if isinstance(c.lhs, RowBlock):
                blocks.append((rows, c.lhs))
            else:
                lhs_r, lhs_big_r = _log_forms([c.lhs], n)
                r[rows] -= lhs_r
                big_r[rows] -= lhs_big_r
        parts = [(_slots(slots), _posynomial_rows(posy, n))] if posy else []
        self._compiled = _ConstraintBlock(parts + blocks, r, big_r, weights)

    def _block(self) -> _ConstraintBlock:
        if self._compiled is None:
            self._compile()
        return self._compiled

    def _constraint_eval(self, y):
        """Row values, Jacobian and the weighted-Hessian-sum function."""
        return self._block().log_eval(y)

    def _objective_value(self, y, f):
        """Objective at y, whose row values are f; inf past the float range."""
        try:
            return math.exp(self._objective.log_value(y) - float(self._block().weights @ f))
        except OverflowError:
            return math.inf

    # -- solving ------------------------------------------------------------
    def solve(self, tol: float = 1e-9, start=None,
              target: float | None = None) -> GpSolution:
        """Primal-dual interior-point solve; deterministic for a given problem
        and start. The start is None (every variable 1) or an array of
        positive, finite values in variable order, else GpModelError; a start
        that is not strictly feasible goes through phase one. With a target,
        the solve stops at the first phase-two iterate whose objective
        reaches it (status target_reached): every such iterate is strictly
        feasible."""
        if not self._constraints:
            raise GpModelError("unconstrained GP is unbounded")
        y0 = np.zeros(len(self._vars)) if start is None else self._log_point(start)
        block = self._block()
        rows, c = block.log_eval, block.weights
        g0 = -self._objective.log_eval(y0)[1]       # the solver minimizes -log objective
        budget = _IterBudget(MAX_NEWTON)

        y, first = y0, rows(y0)
        warm = float(first[0].max()) < _PHASE1_SKIP
        if not warm:
            try:
                y, first, fail = self._phase_one(y0, first, budget)
            except GpError as exc:
                return self._finish(y0, first[0], "numerical_error", budget, math.inf,
                                    message=str(exc))
            if fail is not None:
                return self._finish(y, first[0], fail, budget, math.inf)

        status, message = "max_iterations", ""
        interior, stages, it = None, [], None
        try:
            t0 = self._warm_barrier_t(first, g0 + first[1].T @ c, tol) if warm else BARRIER_T0
            for it in _primal_dual(rows, g0, c, y, first, t0, budget):
                stages.append(self._objective_value(it.z, it.f))
                if stages[-1] == math.inf:
                    status, message = "numerical_error", "objective overflows: GP looks unbounded"
                    break
                if interior is None and it.eta <= _INTERIOR_GAP:
                    interior = it.z
                if it.eta <= tol and it.dual <= tol:
                    status = "optimal"
                    break
                if target is not None and stages[-1] >= target:
                    status = "target_reached"
                    break
        except _BudgetExhausted:
            pass
        except GpError as exc:
            status, message = "numerical_error", str(exc)
        if it is None:
            return self._finish(y, first[0], status, budget, math.inf, message=message)
        # first-order certificate from the iterate's own multipliers: the
        # worst of stationarity, complementarity and primal feasibility
        complementarity = float((it.lam * -it.f).max()) / (1.0 + float(np.abs(it.grad).max()))
        kkt = max(it.dual, complementarity, float(it.f.max()))
        return self._finish(it.z, it.f, status, budget, kkt, interior, stages, message)

    def _warm_barrier_t(self, first, g0, tol):
        """Barrier parameter for a strictly feasible start (B&V §11.3.1).

        Picks t = argmin ||t g0 + grad phi|| in the norm of the inverse
        barrier Hessian, g0 the objective's gradient at the start: the t at
        which the start is closest to the central path, clamped to
        [BARRIER_T0, m / (10 max(tol, 1e-3))]. A non-positive estimate
        means the start is near no central point, so the cold BARRIER_T0 is
        kept.
        """
        f, jac, hess = first
        inv = 1.0 / -f
        h_phi = jac.T @ (jac * (inv ** 2)[:, None]) + hess(inv)
        u = -_newton_direction(h_phi, g0)                    # H_phi^-1 grad f0
        curvature = float(g0 @ u)
        if not curvature > 0.0:                              # objective flat at y
            return BARRIER_T0
        t = -float((jac.T @ inv) @ u) / curvature
        if not t > 0.0:
            return BARRIER_T0
        return min(max(t, BARRIER_T0), f.size / max(tol, 1e-3) / 10.0)

    def _phase_one(self, y0, start, budget):
        """Find a strictly feasible point, or detect infeasibility, by the same
        primal-dual iteration on min s subject to f_i(y) - s <= 0, from y0
        whose rows are `start`. Returns a point, its rows and a failure
        status or None: y0 and `start` when infeasible."""
        n = y0.size
        rows = self._block().log_eval
        # the rows at the point evaluated last; the line search evaluates an
        # accepted point last, so these are the latest iterate's rows
        last = start

        def shift(evaluation, s):
            f, jac, hess = evaluation

            def hess_z(weights):
                h = np.zeros((n + 1, n + 1))
                h[:n, :n] = hess(weights)
                return h
            return f - s, np.hstack([jac, -np.ones((f.size, 1))]), hess_z

        def shifted(z):
            nonlocal last
            last = rows(z[:n])
            return shift(last, z[n])

        g0 = np.zeros(n + 1)
        g0[n] = 1.0
        z = np.append(y0, float(start[0].max()) + 1.0)
        try:
            for it in _primal_dual(shifted, g0, np.zeros(start[0].size), z,
                                   shift(start, z[n]), BARRIER_T0, budget):
                z = it.z
                if float(it.f.max()) + z[n] < -_PHASE1_MARGIN:
                    return z[:n], last, None
                if it.eta <= _PHASE1_TOL and it.dual <= _PHASE1_TOL:
                    break
        except _BudgetExhausted:
            return z[:n], last, "max_iterations"
        if float(last[0].max()) < -1e-9:
            return z[:n], last, None
        return y0, start, "infeasible"

    def _finish(self, y, f, status, budget, kkt, interior=None, stages=(), message=""):
        """The solution at y, whose row values are f."""
        obj = math.nan if status == "infeasible" else self._objective_value(y, f)
        with np.errstate(over="ignore"):                  # x of an unbounded GP is inf
            x = np.exp(y)
        return GpSolution(x=x, names=self.names, objective=obj,
                          status=status, iterations=budget.used, kkt_residual=kkt,
                          message=message,
                          interior=None if interior is None else np.exp(interior),
                          stage_objectives=tuple(stages))


class _Iterate(NamedTuple):
    z: np.ndarray        # primal point, strictly feasible
    f: np.ndarray        # constraint values at z, all < 0
    lam: np.ndarray      # multipliers, all > 0
    eta: float           # surrogate duality gap -f . lam
    dual: float          # scaled dual residual |grad f0 + J^T lam|_inf / (1 + |grad f0|_inf)
    grad: np.ndarray     # objective gradient grad f0 = g0 + J^T c


def _primal_dual(rows, g0, c, z, first, t, budget):
    """Primal-dual interior-point iterates for min g0 . z + c . rows(z) s.t.
    rows(z) < 0, c >= 0 (B&V Algorithm 11.2), from a strictly feasible z
    whose rows are `first`. Yields every iterate; the caller decides when to
    stop.

    The multipliers start on the central path of barrier parameter t, and t
    is held there until the iterate is centered (scaled dual residual at most
    eta / m); after that t = mu m / eta. The objective's Hessian is
    sum c_i Hess f_i, so the Newton matrix is sum (lam_i + c_i) Hess f_i +
    J^T diag(lam / -f) J (B&V §11.7). The step goes BOUNDARY_FRACTION of the
    way to the nearest lambda = 0 at most, and backtracks until the point lies
    inside the domain and the residual norm ||(r_dual, r_cent)|| falls enough.
    It skips the trial points where the convex rows' lower bound f + s J step
    is positive and evaluates every other one once; an accepted point's rows
    serve its Newton step, and derivatives off the domain (inf, nan) go unused.
    """
    f, jac, hess = first
    lam = 1.0 / (t * -f)
    lc = lam + c
    r_dual = g0 + jac.T @ lc        # an accepted trial point brings its own
    m = f.size
    held = True
    while True:
        jac_t = jac.T
        grad = g0 + jac_t @ c
        eta = -float(f @ lam)
        dual = float(np.abs(r_dual).max()) / (1.0 + float(np.abs(grad).max()))
        yield _Iterate(z, f, lam, eta, dual, grad)
        budget.spend()
        if held and dual <= eta / m:
            held = False
        if not held:
            t = GAP_REDUCTION * m / eta
        neg_f = -f
        inv = 1.0 / (t * neg_f)
        d = lam / neg_f
        step = _newton_direction(hess(lc) + jac_t @ (d[:, None] * jac), grad + jac_t @ inv)
        jd = jac @ step
        dlam = d * jd - lam + inv
        shrinking = dlam < 0
        s = min(1.0, float((-lam[shrinking] / dlam[shrinking]).min())) \
            if shrinking.any() else 1.0
        s *= BOUNDARY_FRACTION
        norm = math.hypot(_norm(r_dual), _norm(lam * neg_f - 1.0 / t))
        for _ in range(_MAX_BACKTRACKS):
            if not (f + s * jd > 0).any():
                cand = z + s * step
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    cf, cjac, chess = rows(cand)
                if (cf < 0).all():
                    clam = lam + s * dlam
                    clc = clam + c
                    cr_dual = g0 + cjac.T @ clc
                    cnorm = math.hypot(_norm(cr_dual), _norm(clam * -cf - 1.0 / t))
                    if cnorm <= (1.0 - RESIDUAL_DECREASE * s) * norm:
                        break
            s *= BACKTRACK_SHRINK
        else:
            raise GpError("primal-dual line search made no progress")
        z, f, jac, hess, lam, lc, r_dual = cand, cf, cjac, chess, clam, clc, cr_dual


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, the same bits as np.linalg.norm with less dispatch."""
    return math.sqrt(v @ v)


def _newton_direction(hess, grad):
    """Newton step -hess^-1 grad on the equilibrated Hessian.

    Newton matrices become badly scaled near active constraints, so rows and
    columns are scaled to a unit diagonal first. A Cholesky factorization
    tests positive definiteness and drives a growing ridge; the step itself
    comes from one dense solve of the same ridged matrix, since numpy has no
    triangular solve to reuse the factor with.
    """
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
