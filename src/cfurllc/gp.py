"""Geometric programs given as arrays, solved from scratch.

A GpModel is a GP in the log variables y = log x (Boyd, Kim, Vandenberghe &
Hassibi, "A tutorial on geometric programming", 2007). Its rows are
f(y) = the rows of its one table, each constraint f_i(y) <= 0, and it maximizes
exp(c0 + a0 . y) prod_i exp(-w_i f_i(y)) for row weights w_i >= 0: in log
variables the convex -(c0 + a0 . y) + sum_i w_i f_i (B&V §4.5.3). A table is
any object with `size` rows over `columns` variables, a `log_eval` and, for
phase one, a `relax`; the package's is `TermRows`, whose rows are
log-sum-exps of terms affine in y plus weighted factors log(1 + b e^{y_j}),
which the SINR rows use. A monomial row is a one-term row; `stack` joins
tables, and `TermRows.fold` divides each row by its right-hand side. One
call returns the row values, the Jacobian and the weighted Hessian sum,
never a Hessian per row.

The solver is one primal-dual interior-point iteration (Boyd & Vandenberghe,
Convex Optimization, §11.7, Algorithm 11.2) that both phases run: phase two
on the log variables y, whose weighted rows add their Hessian sum to the
Newton matrix, and phase one, when the start is not strictly feasible, on
the max-slack GP of every row (`TermRows.relax`, `max_slack`), which the
optimizer's feasibility stage also builds. Each iteration takes one Newton
step on the primal and dual variables together, with the surrogate duality
gap eta = -f . lambda setting the barrier parameter, and the solve stops
once eta and the scaled dual residual are both within tol, or after
MAX_NEWTON steps of both phases. Each point, the start and every trial point
of the line search, is evaluated once; phase one's start and hand-over point
are evaluated in both tables. A Newton step is one dense solve, with a
Cholesky-tested ridge only when that solve fails or does not descend.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class GpError(Exception):
    """Base class for modeling and solver failures."""


class GpModelError(GpError):
    """A table, right-hand side, weight, objective or point of the wrong shape or value."""


@dataclass
class GpSolution:
    x: np.ndarray
    objective: float
    # optimal | target_reached | infeasible | max_iterations | numerical_error
    status: str
    iterations: int                      # Newton steps of both phases that reached an iterate
    kkt_residual: float
    message: str = ""
    interior: np.ndarray | None = None   # first iterate with gap <= 3e-2: a warm start
    stage_objectives: tuple[float, ...] = ()  # objective at each phase-two iterate


class TermRows:
    """Row i is log sum_{t in row i} exp(c_t + a_t . y + sum_f m_tf log(1 + b_f e^{y[v_f]}))
    for factor coefficients b_f > 0 and weights m_tf >= 0, so every row is a
    generalized posynomial (convex in y); without factors, a posynomial. Terms
    are stored row by row, each row a segment of the term axis; factors that
    no term weights are dropped.

    `log_eval(y)` returns the row values (size,), the Jacobian (size, columns)
    and a function that maps row weights w (size,) to the weighted Hessian sum
    sum_i w_i * Hessian_i. The solver evaluates every point once, trial points
    outside the domain included, and calls the Hessian function only at
    accepted points, so work that only the Hessian needs belongs in it.

    With p the term weights within their rows, G = a + M diag(s) V the term
    gradients (V selects each factor's column, s = b x / (1 + b x)) and J the
    Jacobian, the weighted Hessian sum is (G - J)^T diag(w p) (G - J) +
    V^T diag(((w p)^T M) s (1 - s)) V, each term's gradient less its row's
    Jacobian: G^T diag(w p) G - J^T diag(w) J without that form's
    cancellation, for every table, with factors or without.
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
        self.counts, self.starts = counts, np.cumsum(counts) - counts
        self.seg = np.repeat(np.arange(counts.size), counts)
        self.size, self.columns = counts.size, n

    def fold(self, r, big_r) -> "TermRows":
        """This table with row i divided by exp(r_i + R_i . y), for finite r
        (size,) and R (size, columns): a copy with c - r[row] and a - R[row]
        that shares every other array, none of which either table writes."""
        r, big_r = np.asarray(r, dtype=float), np.asarray(big_r, dtype=float)
        if r.shape != (self.size,) or big_r.shape != (self.size, self.columns) \
                or not np.isfinite(np.append(r, big_r)).all():
            raise GpModelError(f"need a finite r ({self.size},) and R ({self.size}, "
                               f"{self.columns}), got {r.shape} and {big_r.shape}")
        out = copy.copy(self)
        out.c, out.a = self.c - r[self.seg], self.a - big_r[self.seg]
        return out

    def relax(self, rows) -> "TermRows":
        """This table over one more column, phi, first, with exponent 1 in
        every term of the rows `rows` (an index of the row axis): those rows
        become log(phi lhs_i), so they hold with slack phi where phi >= 1."""
        chosen = np.zeros(self.size, dtype=bool)
        chosen[rows] = True
        return TermRows(self.c, np.column_stack([chosen[self.seg], self.a]), self.counts,
                        self.b, self.v + 1, self.m)

    def log_eval(self, y):
        z, g = self.c + self.a @ y, self.a
        if self.b.size:                                      # a table without factors skips them
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
            gc, wp = g - jac[self.seg], weights[self.seg] * p
            h = gc.T @ (wp[:, None] * gc)
            if self.b.size:
                h.flat[::y.size + 1] += np.bincount(self.v, (wp @ self.m) * s * (1.0 - s),
                                                    minlength=y.size)
            return h
        return vals, jac, hess


def stack(tables) -> TermRows:
    """The rows of term tables over the same columns, in order, as one table;
    each factor weights the terms of its own table alone."""
    if len({t.columns for t in tables}) != 1:
        raise GpModelError(f"tables over {[t.columns for t in tables]} columns do not stack")
    ends = np.cumsum([t.m.shape for t in tables], axis=0)             # (terms, factors)
    m = np.zeros(ends[-1])
    for t, (terms, factors) in zip(tables, ends):
        m[terms - t.c.size:terms, factors - t.b.size:factors] = t.m
    return TermRows(*(np.concatenate([getattr(t, k) for t in tables])
                      for k in ("c", "a", "counts", "b", "v")), m)


# Constants of the primal-dual interior-point method (B&V §11.7).
BARRIER_T0 = 1.0            # barrier parameter after phase one
GAP_REDUCTION = 10.0        # mu: t = mu * m / eta once the hold at t0 ends
BOUNDARY_FRACTION = 0.99    # share of the step to the nearest lambda = 0 or f + s J step = 0
RESIDUAL_DECREASE = 0.01    # alpha of the residual-norm line search
BACKTRACK_SHRINK = 0.5
_MAX_BACKTRACKS = 60
MAX_NEWTON = 4000           # Newton steps per solve, both phases together
_INTERIOR_GAP = 3e-2        # surrogate gap of the point kept as a warm start
_PHASE1_MARGIN = 1e-3
_PHASE1_SKIP = -1e-12
_PHASE1_TOL = 1e-10         # gap and dual residual at which phase one gives its verdict


class GpModel:
    """Maximize exp(c0 + a0 . y - w . f(y)) subject to f(y) <= 0 in y = log x,
    x the table's columns, for f(y) = the rows of `table`, row weights w and
    objective = (c0, a0).

    The table must hold at least one row, w one finite, nonnegative weight
    per row and a0 one finite exponent per column; anything else is a
    GpModelError. The table is checked where it is built, not here.
    """

    def __init__(self, table, weights, objective):
        self.table, n = table, table.columns
        if not table.size:
            raise GpModelError("need a table of at least one row")
        # row values, Jacobian and the weighted-Hessian-sum function at y
        self.log_eval = table.log_eval
        self.weights = np.array(weights, dtype=float)
        self.objective = (float(objective[0]), np.asarray(objective[1], dtype=float))
        if self.weights.shape != (table.size,) or self.objective[1].shape != (n,):
            raise GpModelError(f"need {table.size} row weights and {n} objective exponents")
        if not (np.isfinite(self.objective[1]).all() and math.isfinite(self.objective[0])
                and np.isfinite(self.weights).all() and (self.weights >= 0).all()):
            raise GpModelError("need a finite objective and finite, nonnegative "
                               f"row weights, got weights {weights!r}")

    def constraint_margins(self, x: np.ndarray) -> np.ndarray:
        """Log-space slack f(log x) per constraint row; <= 0 means satisfied."""
        return self.log_eval(self._log_point(x))[0]

    def _log_point(self, x) -> np.ndarray:
        """log x, for x of one positive, finite value per variable."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.table.columns,) or not (np.isfinite(x).all() and (x > 0).all()):
            raise GpModelError(f"need {self.table.columns} positive, finite values "
                               f"in variable order, got {x!r}")
        return np.log(x)

    def _objective_value(self, y, f):
        """Objective at y, whose row values are f; inf past the float range."""
        log_coeff, exponents = self.objective
        try:
            return math.exp(log_coeff + float(exponents @ y) - float(self.weights @ f))
        except OverflowError:
            return math.inf

    # -- solving ------------------------------------------------------------
    def solve(self, tol: float = 1e-9, start=None,
              target: float | None = None) -> GpSolution:
        """Primal-dual interior-point solve; deterministic for a given problem
        and start. The start is None (every variable 1) or an array of
        positive, finite values in variable order, else GpModelError; a start
        that is not strictly feasible goes through phase one, which hands its
        log point to phase two. With a target, the solve stops at the first
        phase-two iterate whose objective reaches it (status target_reached):
        every such iterate is strictly feasible."""
        y0 = np.zeros(self.table.columns) if start is None else self._log_point(start)
        rows, c = self.log_eval, self.weights
        g0 = -self.objective[1]                     # the solver minimizes -log objective
        y, first, steps = y0, rows(y0), 0           # steps: phase one's
        warm = float(first[0].max()) < _PHASE1_SKIP
        status, message = "max_iterations", ""
        interior, stages, it = None, [], None
        try:
            if not warm:
                y, first, steps, fail = self._phase_one(y0, first, MAX_NEWTON)
                if fail is not None:
                    return self._finish(y, first[0], fail, steps, math.inf)
            t0 = self._warm_barrier_t(first, g0 + first[1].T @ c, tol) if warm else BARRIER_T0
            for it in _primal_dual(rows, g0, c, y, first, t0, MAX_NEWTON - steps):
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
        except GpError as exc:
            status, message = "numerical_error", str(exc)
        if it is None:
            return self._finish(y, first[0], status, steps, math.inf, message=message)
        # first-order certificate from the iterate's own multipliers: the
        # worst of stationarity, complementarity and primal feasibility
        complementarity = float((it.lam * -it.f).max()) / (1.0 + float(np.abs(it.grad).max()))
        kkt = max(it.dual, complementarity, float(it.f.max()))
        return self._finish(it.z, it.f, status, steps + it.steps, kkt, interior, stages,
                            message)

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

    def _phase_one(self, y0, start, limit):
        """Find a strictly feasible point, or detect infeasibility, in at
        most `limit` Newton steps of the primal-dual iteration on the max-slack
        GP of every row, from BARRIER_T0 at log phi = -1 - max f(y0) and y0,
        whose rows are `start`. It stops once the rows f(y) clear
        -_PHASE1_MARGIN, or at a gap and dual residual within _PHASE1_TOL.
        Returns y, its rows, the steps taken and a failure status or None:
        y0 and `start` when infeasible."""
        slack = max_slack(self.table.relax(np.arange(self.table.size)))
        z = np.append(-1.0 - float(start[0].max()), y0)
        for it in _primal_dual(slack.log_eval, -slack.objective[1], slack.weights, z,
                               slack.log_eval(z), BARRIER_T0, limit):
            if (float(it.f.max()) - it.z[0] < -_PHASE1_MARGIN
                    or it.eta <= _PHASE1_TOL and it.dual <= _PHASE1_TOL):
                break
        else:
            return it.z[1:], self.log_eval(it.z[1:]), it.steps, "max_iterations"
        rows = self.log_eval(it.z[1:])
        if float(rows[0].max()) < -1e-9:
            return it.z[1:], rows, it.steps, None
        return y0, start, it.steps, "infeasible"

    def _finish(self, y, f, status, steps, kkt, interior=None, stages=(), message=""):
        """The solution at y, whose row values are f."""
        obj = math.nan if status == "infeasible" else self._objective_value(y, f)
        with np.errstate(over="ignore"):                  # x of an unbounded GP is inf
            x = np.exp(y)
        return GpSolution(x=x, objective=obj, status=status, iterations=steps,
                          kkt_residual=kkt, message=message,
                          interior=None if interior is None else np.exp(interior),
                          stage_objectives=tuple(stages))


def max_slack(table) -> GpModel:
    """The GP that maximizes phi, the first column, over the rows of `table`,
    a `TermRows.relax` table, with no row weights: the largest slack by which
    the relaxed rows can be tightened (B&V §11.4.1)."""
    objective = np.zeros(table.columns)
    objective[0] = 1.0
    return GpModel(table, np.zeros(table.size), (0.0, objective))


class _Iterate(NamedTuple):
    z: np.ndarray        # primal point, strictly feasible
    f: np.ndarray        # constraint values at z, all < 0
    lam: np.ndarray      # multipliers, all > 0
    eta: float           # surrogate duality gap -f . lam
    dual: float          # scaled dual residual |grad f0 + J^T lam|_inf / (1 + |grad f0|_inf)
    grad: np.ndarray     # objective gradient grad f0 = g0 + J^T c
    steps: int           # Newton steps taken to reach z


def _primal_dual(rows, g0, c, z, first, t, limit):
    """Primal-dual interior-point iterates for min g0 . z + c . rows(z) s.t.
    rows(z) < 0, c >= 0 (B&V Algorithm 11.2), from a strictly feasible z
    whose rows are `first`. Yields every iterate, stamped with the Newton
    steps taken to reach it, up to the one reached in `limit` steps; the
    caller decides when to stop before that.

    The multipliers start on the central path of barrier parameter t, and t
    is held there until the iterate is centered (scaled dual residual at most
    eta / m); after that t = mu m / eta. The objective's Hessian is
    sum c_i Hess f_i, so the Newton matrix is sum (lam_i + c_i) Hess f_i +
    J^T diag(lam / -f) J (B&V §11.7). The first trial goes BOUNDARY_FRACTION
    of the way to the nearest boundary of lambda > 0 and of f + s J step < 0,
    the linearization that bounds the convex rows from below (fraction to the
    boundary, Nocedal & Wright, Numerical Optimization, §19.2), and halves
    until the point lies inside the domain and the residual norm
    ||(r_dual, r_cent)|| falls enough. Every trial is evaluated once; an
    accepted point's rows serve its Newton step, and derivatives off the
    domain (inf, nan) go unused.
    """
    f, jac, hess = first
    lam = 1.0 / (t * -f)
    lc = lam + c
    r_dual = g0 + jac.T @ lc        # an accepted trial point brings its own
    m = f.size
    held = True
    for steps in range(limit + 1):
        jac_t = jac.T
        grad = g0 + jac_t @ c
        eta = -float(f @ lam)
        dual = float(np.abs(r_dual).max()) / (1.0 + float(np.abs(grad).max()))
        yield _Iterate(z, f, lam, eta, dual, grad, steps)
        if steps == limit:
            return
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
        shrinking, growing = dlam < 0, jd > 0
        s = BOUNDARY_FRACTION * min([1.0, *(-lam[shrinking] / dlam[shrinking]).tolist(),
                                     *(neg_f[growing] / jd[growing]).tolist()])
        norm = math.hypot(_norm(r_dual), _norm(lam * neg_f - 1.0 / t))
        for _ in range(_MAX_BACKTRACKS):
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
    columns are scaled to a unit diagonal first. One dense solve gives the
    step whenever it is finite and a descent direction (rhs . x > 0), as it
    is for every positive definite matrix: one LAPACK call per step. Only
    otherwise, a singular or indefinite matrix, does a Cholesky
    factorization test a growing ridge for positive definiteness, and the
    step comes from a solve of the first ridged matrix that passes.
    """
    hess = 0.5 * (hess + hess.T)
    d = np.sqrt(np.maximum(np.abs(hess.diagonal()), 1e-300))
    scaled = hess / d[:, None] / d[None, :]
    rhs = grad / d
    try:
        x = np.linalg.solve(scaled, rhs)
        if np.isfinite(x).all() and float(rhs @ x) > 0.0:
            return -x / d
    except np.linalg.LinAlgError:
        pass
    ridge = 0.0
    for _ in range(40):
        shifted = scaled if ridge == 0.0 else scaled + ridge * np.eye(grad.size)
        try:
            np.linalg.cholesky(shifted)
            return -np.linalg.solve(shifted, rhs) / d
        except np.linalg.LinAlgError:
            ridge = 1e-14 if ridge == 0.0 else ridge * 100.0
    raise GpError("Newton system could not be factorized")
