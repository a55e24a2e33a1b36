"""Geometric programs in the form the power allocation builds, solved from scratch.

A GpModel maximizes a monomial subject to three kinds of rows: monomial <=
monomial, posynomial (a sum of monomials) <= monomial, and batched row blocks
such as the SINR constraints, which bring their own kernels (Boyd, Kim,
Vandenberghe & Hassibi, "A tutorial on geometric programming", 2007). Any
other left-hand side is rejected when it is added.

All evaluation happens in log variables, where a monomial row is affine and a
posynomial row is a log-sum-exp. The rows of a model are compiled into one
constraint block that returns the row values, the Jacobian and the weighted
Hessian sum, never a Hessian per row. The solver is a log-barrier
interior-point method whose Newton steps try the full step first and
backtrack from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GpError(Exception):
    """Base class for modeling and solver failures."""


class GpModelError(GpError):
    """The expression is not a monomial or posynomial where one is required."""


# ---------------------------------------------------------------------------
# Expressions: monomials and sums of monomials
# ---------------------------------------------------------------------------

class Expr:
    def dump(self) -> str:
        raise NotImplementedError


def _coerce(obj) -> Expr:
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, (int, float)):
        return Const(float(obj))
    raise GpModelError(f"cannot use {obj!r} in a GP expression")


class Monomial(Expr):
    """coeff * prod_i x_i^a_i for positive coeff: affine in log variables."""

    def __init__(self, coeff: float, exponents: dict[int, float]):
        if not (coeff > 0 and math.isfinite(coeff)):
            raise GpModelError(f"monomial coefficient must be positive, got {coeff}")
        self.log_coeff = math.log(coeff)
        self.exponents = dict(exponents)
        self._idx = np.fromiter(self.exponents.keys(), dtype=int,
                                count=len(self.exponents))
        self._exp = np.fromiter(self.exponents.values(), dtype=float,
                                count=len(self.exponents))

    def log_eval(self, y: np.ndarray, order: int):
        """log self(exp(y)) and, at order >= 1, its (constant) gradient."""
        val = self.log_coeff + float(y[self._idx] @ self._exp)
        if order == 0:
            return val, None
        g = np.zeros_like(y)
        g[self._idx] = self._exp
        return val, g

    def dump(self):
        parts = " ".join(f"(v{i} {a:.12g})" for i, a in sorted(self.exponents.items()))
        return f"(mono {math.exp(self.log_coeff):.12g} {parts})"


class Const(Monomial):
    def __init__(self, value: float):
        if not (value > 0 and math.isfinite(value)):
            raise GpModelError(f"constants must be positive and finite, got {value}")
        super().__init__(value, {})

    def dump(self):
        return f"(const {math.exp(self.log_coeff):.12g})"


class Var(Monomial):
    def __init__(self, index: int, name: str):
        super().__init__(1.0, {index: 1.0})
        self.index = index
        self.name = name

    def dump(self):
        return f"(var {self.name})"


class Sum(Expr):
    """A posynomial: a sum of monomials, nested sums flattened."""

    def __init__(self, terms):
        flat = []
        for t in terms:
            t = _coerce(t)
            flat.extend(t.terms if isinstance(t, Sum) else [t])
        if not flat:
            raise GpModelError("empty sum")
        if not all(isinstance(t, Monomial) for t in flat):
            raise GpModelError("every term of a sum must be a monomial")
        self.terms = flat

    def dump(self):
        return "(+ " + " ".join(t.dump() for t in self.terms) + ")"


# ---------------------------------------------------------------------------
# Problem container and solver
# ---------------------------------------------------------------------------

@dataclass
class GpSolution:
    x: np.ndarray
    names: tuple[str, ...]
    objective: float
    status: str                  # optimal | infeasible | max_iterations | numerical_error
    iterations: int
    kkt_residual: float
    message: str = ""
    interior: np.ndarray | None = None   # a well-centered point, handy as a warm start
    stage_objectives: tuple[float, ...] = ()  # objective after each barrier stage

    def __getitem__(self, name: str) -> float:
        return float(self.x[self.names.index(name)])


@dataclass
class _Constraint:
    lhs: Monomial | Sum
    rhs: Monomial


@dataclass
class _BlockConstraint:
    lhs: RowBlock
    rhs: tuple[Monomial, ...]     # one per row


# ---------------------------------------------------------------------------
# Constraint rows, evaluated a block at a time
# ---------------------------------------------------------------------------

class RowBlock:
    """Several constraint left-hand sides evaluated together in log space.

    `log_eval(y, order)` returns the log values (size,), at order >= 1 the
    Jacobian (size, n), and at order 2 a function that maps row weights w
    (size,) to the weighted Hessian sum  sum_i w_i * Hessian_i  (n, n). The
    barrier only ever needs that sum, so no per-row Hessian is formed.
    Outputs above the requested order are None.
    """

    size: int

    def log_eval(self, y: np.ndarray, order: int):
        raise NotImplementedError

    def dump(self) -> str:
        raise NotImplementedError


class _AffineRows(RowBlock):
    """Monomial <= monomial rows: F(y) = F(0) + grad . y exactly."""

    def __init__(self, rows: np.ndarray, offsets: np.ndarray):
        self.rows, self.offsets = rows, offsets
        self.size = offsets.size

    def log_eval(self, y, order):
        return self.rows @ y + self.offsets, self.rows if order >= 1 else None, None


class _PosynomialRows(RowBlock):
    """Posynomial <= monomial rows folded into one term-exponent matrix.

    Row i is  log sum_{j in row i} exp(c_j + a_j . y), with the right-hand
    monomial already divided into every term; terms are stored row by row,
    so each row is one segment of the term axis.
    """

    def __init__(self, log_coeffs: np.ndarray, exponents: np.ndarray, counts):
        self.c = log_coeffs                                  # (P,)
        self.a = exponents                                   # (P, n)
        counts = np.asarray(counts, dtype=int)
        self.starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self.seg = np.repeat(np.arange(counts.size), counts)
        self.size = counts.size

    def log_eval(self, y, order):
        z = self.c + self.a @ y
        top = np.maximum.reduceat(z, self.starts)
        w = np.exp(z - top[self.seg])
        total = np.add.reduceat(w, self.starts)
        vals = top + np.log(total)
        if order == 0:
            return vals, None, None
        pa = (w / total[self.seg])[:, None] * self.a         # term weight * exponents
        jac = np.add.reduceat(pa, self.starts, axis=0)
        if order == 1:
            return vals, jac, None

        def hess(weights):
            # per row: sum_j p_j a_j a_j^T - g g^T
            return self.a.T @ (weights[self.seg][:, None] * pa) \
                - jac.T @ (weights[:, None] * jac)
        return vals, jac, hess


class _RhsDivided(RowBlock):
    """Left-hand sides divided by affine (monomial) right-hand sides."""

    def __init__(self, lhs: RowBlock, rows: np.ndarray, offsets: np.ndarray):
        self.lhs, self.rows, self.offsets = lhs, rows, offsets
        self.size = lhs.size

    def log_eval(self, y, order):
        vals, jac, hess = self.lhs.log_eval(y, order)
        vals = vals - self.offsets - self.rows @ y
        return vals, None if jac is None else jac - self.rows, hess


class _ConstraintBlock(RowBlock):
    """Every row of a GpModel: a few row blocks, each filling its row slots."""

    def __init__(self, parts: list[tuple[object, RowBlock]], size: int):
        self.parts = parts        # (row slots as a slice or index array, block)
        self.size = size

    def log_eval(self, y, order):
        vals = np.empty(self.size)
        jac = np.empty((self.size, y.size)) if order >= 1 else None
        hessians = []
        for rows, block in self.parts:
            v, j, h = block.log_eval(y, order)
            vals[rows] = v
            if order >= 1:
                jac[rows] = j
            if h is not None:
                hessians.append((rows, h))
        if order < 2:
            return vals, jac, None

        def hess(weights):
            total = np.zeros((y.size, y.size))
            for rows, h in hessians:
                total += h(weights[rows])
            return total
        return vals, jac, hess


def _slots(rows: list[int]):
    """A slice when the row slots are contiguous, else an index array."""
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return np.array(rows, dtype=int)


def _affine_form(expr: Monomial, n: int) -> tuple[float, np.ndarray]:
    """Log coefficient and exponent row of a monomial."""
    return expr.log_eval(np.zeros(n), 1)


def _posynomial_terms(expr: Sum, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Log coefficients (T,) and exponent rows (T, n) of a posynomial's terms."""
    forms = [_affine_form(t, n) for t in expr.terms]
    return np.array([c for c, _ in forms]), np.array([a for _, a in forms])


# Line-search and stage constants for the barrier solver.
ARMIJO_SLOPE = 0.3
BACKTRACK_SHRINK = 0.5
BARRIER_T0 = 1.0
BARRIER_GROWTH = 10.0
_NEWTON_DECREMENT_TOL = 1e-10
_MAX_CENTER_STEPS = 50
_PHASE1_MARGIN = 1e-3
_PHASE1_SKIP = -1e-12


class _BudgetExhausted(Exception):
    pass


class _IterBudget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise _BudgetExhausted


class GpModel:
    """Positive-variable program: maximize a monomial subject to monomial or
    posynomial <= monomial rows and row blocks."""

    def __init__(self):
        self._vars: list[Var] = []
        self._constraints: list[_Constraint | _BlockConstraint] = []
        self._objective: Monomial | None = None
        self._compiled = None

    # -- modeling -----------------------------------------------------------
    def variable(self, name: str) -> Var:
        v = Var(len(self._vars), name)
        self._vars.append(v)
        return v

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self._vars)

    def maximize(self, expr):
        expr = _coerce(expr)
        if not isinstance(expr, Monomial):
            raise GpModelError("only a monomial can be maximized")
        self._objective = expr

    def add_le(self, lhs, rhs):
        """The constraint lhs <= rhs: a monomial or a Sum of monomials under a
        monomial."""
        lhs, rhs = _coerce(lhs), _coerce(rhs)
        if not isinstance(rhs, Monomial):
            raise GpModelError("constraint right-hand side must be a monomial")
        if not isinstance(lhs, (Monomial, Sum)):
            raise GpModelError("constraint left-hand side must be a monomial or a "
                               f"posynomial, got {type(lhs).__name__}")
        self._constraints.append(_Constraint(lhs, rhs))
        self._compiled = None

    def add_block_le(self, lhs: RowBlock, rhs):
        """Constraints lhs_i <= rhs_i for every row i of a row block."""
        rhs = tuple(_coerce(r) for r in rhs)
        if len(rhs) != lhs.size:
            raise GpModelError(f"block has {lhs.size} rows but {len(rhs)} right-hand sides")
        if not all(isinstance(r, Monomial) for r in rhs):
            raise GpModelError("constraint right-hand side must be a monomial")
        self._constraints.append(_BlockConstraint(lhs, rhs))
        self._compiled = None

    def constraint_margins(self, x: np.ndarray) -> np.ndarray:
        """Log-space slack log(lhs) - log(rhs) per constraint row; <= 0 means satisfied."""
        y = np.log(np.asarray(x, dtype=float))
        fvals, _, _ = self._constraint_eval(y, 0)
        return fvals

    def dump(self) -> str:
        lines = ["(gp", "  (vars " + " ".join(self.names) + ")"]
        if self._objective is not None:
            lines.append(f"  (max {self._objective.dump()})")
        for c in self._constraints:
            if isinstance(c, _BlockConstraint):
                rhs = " ".join(r.dump() for r in c.rhs)
                lines.append(f"  (le-block {c.lhs.dump()} ({rhs}))")
            else:
                lines.append(f"  (le {c.lhs.dump()} {c.rhs.dump()})")
        return "\n".join(lines) + ")"

    # -- evaluation ----------------------------------------------------------
    def _compile(self):
        """Fold every constraint row into one constraint block.

        Monomial-vs-monomial rows become one affine matrix, since an affine
        expression satisfies F(y) = F(0) + grad(0) . y exactly. Posynomial
        rows become one term-exponent matrix with the right-hand side divided
        in. Row blocks keep their own batched kernels.
        """
        n = len(self._vars)
        affine, posy, blocks = [], [], []
        slot = 0
        for c in self._constraints:
            if isinstance(c, _BlockConstraint):
                rhs = [_affine_form(r, n) for r in c.rhs]
                blocks.append((list(range(slot, slot + c.lhs.size)), c.lhs, rhs))
                slot += c.lhs.size
                continue
            rv, rg = _affine_form(c.rhs, n)
            if isinstance(c.lhs, Monomial):
                lv, lg = _affine_form(c.lhs, n)
                affine.append((slot, lv - rv, lg - rg))
            else:
                lv, lg = _posynomial_terms(c.lhs, n)
                posy.append((slot, lv - rv, lg - rg[None, :]))
            slot += 1

        parts = []
        if affine:
            parts.append(([r[0] for r in affine], _AffineRows(
                np.array([r[2] for r in affine]), np.array([r[1] for r in affine]))))
        if posy:
            parts.append(([r[0] for r in posy], _PosynomialRows(
                np.concatenate([r[1] for r in posy]), np.vstack([r[2] for r in posy]),
                [r[1].size for r in posy])))
        for rows, block, rhs in blocks:
            parts.append((rows, _RhsDivided(block, np.array([g for _, g in rhs]),
                                            np.array([v for v, _ in rhs]))))
        self._compiled = _ConstraintBlock(
            [(_slots(rows), block) for rows, block in parts], slot)

    def _block(self) -> _ConstraintBlock:
        if self._compiled is None:
            self._compile()
        return self._compiled

    def _constraint_eval(self, y, order):
        """Row values, Jacobian and the weighted-Hessian-sum function."""
        return self._block().log_eval(y, order)

    def _objective_eval(self, y, order):
        """The barrier minimizes the negated log objective, whose Hessian is 0."""
        v, g = self._objective.log_eval(y, order)
        if order == 0:
            return -v, None, None
        return -v, -g, None if order == 1 else np.zeros((y.size, y.size))

    def _barrier_parts(self, y, order, t, f0_ref=0.0):
        # the reference shift keeps the stage objective near zero, so the
        # line search can still resolve decrements at large t
        f0, g0, h0 = self._objective_eval(y, order)
        fvals, grads, hess_sum = self._constraint_eval(y, order)
        if np.any(fvals >= 0) or not math.isfinite(f0):
            return math.inf, None, None
        val = t * (f0 - f0_ref) - float(np.sum(np.log(-fvals)))
        if order == 0:
            return val, None, None
        inv = 1.0 / (-fvals)
        grad = t * g0 + grads.T @ inv
        if order == 1:
            return val, grad, None
        hess = t * h0 + grads.T @ (grads * (inv ** 2)[:, None]) + hess_sum(inv)
        return val, grad, hess

    def _kkt_residual(self, y):
        """First-order certificate at y: best non-negative multipliers for the
        near-active constraints are recovered by least squares, then
        stationarity, complementarity and primal feasibility are measured
        directly. Constraints with real slack get zero multipliers, so they
        cannot absorb gradient error at the cost of complementarity."""
        _, g0, _ = self._objective_eval(y, 1)
        fvals, grads, _ = self._constraint_eval(y, 1)
        active = fvals >= -1e-3
        lam = np.zeros(len(fvals))
        if np.any(active):
            lam[active] = _nnls(grads[active].T, -g0)
        scale = 1.0 + float(np.max(np.abs(g0)))
        stationarity = float(np.max(np.abs(g0 + grads.T @ lam))) / scale
        complementarity = float(np.max(lam * (-fvals))) / scale if lam.size else 0.0
        return max(stationarity, complementarity, float(np.max(fvals)))

    # -- solving ------------------------------------------------------------
    def solve(self, tol: float = 1e-9, start=None, max_newton: int = 4000) -> GpSolution:
        """Interior-point solve; deterministic for a given problem and start."""
        if self._objective is None:
            raise GpModelError("objective not set")
        if not self._constraints:
            raise GpModelError("unconstrained GP is unbounded")
        n = len(self._vars)
        if start is None:
            y0 = np.zeros(n)
        elif isinstance(start, dict):
            y0 = np.zeros(n)
            for i, name in enumerate(self.names):
                if name in start:
                    y0[i] = math.log(float(start[name]))
        else:
            y0 = np.log(np.asarray(start, dtype=float))

        budget = _IterBudget(max_newton)
        skip_phase_one = float(self._constraint_eval(y0, 0)[0].max()) < _PHASE1_SKIP
        if skip_phase_one:
            y = y0
        else:
            try:
                y, fail = self._phase_one(y0, budget)
            except GpError as exc:
                return self._finish(y0, "numerical_error", budget, math.inf,
                                    message=str(exc))
            if fail is not None:
                return self._finish(y0 if y is None else y, fail, budget, math.inf)

        m = self._block().size
        t = BARRIER_T0
        kkt = math.inf
        status = "max_iterations"
        message = ""
        interior = None
        stages = []
        try:
            if skip_phase_one:
                t = self._warm_barrier_t(y, m / max(tol, 1e-3) / 10.0)
            while True:
                ref = self._objective_eval(y, 0)[0]
                y = _newton_center(
                    lambda yy, o: self._barrier_parts(yy, o, t, ref), y, budget)
                stages.append(math.exp(self._objective.log_eval(y, 0)[0]))
                if interior is None and m / t <= 3e-2:
                    interior = y.copy()
                # the multiplier-recovery certificate can fire before the
                # duality-gap surrogate m/t has shrunk all the way to tol
                if m / t <= max(tol, 1e-3):
                    kkt = self._kkt_residual(y)
                    if kkt <= tol:
                        status = "optimal"
                        break
                if m / t <= tol and t > 1e16:
                    break
                t *= BARRIER_GROWTH
        except _BudgetExhausted:
            status = "max_iterations"
        except GpError as exc:
            # y is the last centered point, still strictly feasible
            status, message = "numerical_error", str(exc)
        return self._finish(y, status, budget, kkt, interior, stages, message)

    def _warm_barrier_t(self, y, t_max):
        """First barrier parameter for a strictly feasible start (B&V §11.3.1).

        Picks t = argmin ||t grad f0 + grad phi|| in the norm of the inverse
        barrier Hessian, the t at which y is closest to the central path,
        clamped to [BARRIER_T0, t_max]. A non-positive estimate means y is
        not near any central point, so the cold BARRIER_T0 is kept.
        """
        _, g0, _ = self._objective_eval(y, 1)
        _, g_phi, h_phi = self._barrier_parts(y, 2, 0.0)     # phi alone at t = 0
        u = -_newton_direction(h_phi, g0)                    # H_phi^-1 grad f0
        curvature = float(g0 @ u)
        if not curvature > 0.0:                              # objective flat at y
            return BARRIER_T0
        t = -float(g_phi @ u) / curvature
        if not t > 0.0:
            return BARRIER_T0
        return min(max(t, BARRIER_T0), t_max)

    def _phase_one(self, y0, budget):
        """Find a strictly feasible point, or detect infeasibility."""
        n = len(self._vars)
        m = self._block().size
        fvals, _, _ = self._constraint_eval(y0, 0)

        def parts(z, order, t, s_ref=0.0):
            y, s = z[:n], z[n]
            fvals, grads, hess_sum = self._constraint_eval(y, order)
            shifted = fvals - s
            if np.any(shifted >= 0):
                return math.inf, None, None
            val = t * (s - s_ref) - float(np.sum(np.log(-shifted)))
            if order == 0:
                return val, None, None
            inv = 1.0 / (-shifted)
            grad = np.zeros(n + 1)
            grad[:n] = grads.T @ inv
            grad[n] = t - float(inv.sum())
            if order == 1:
                return val, grad, None
            gx = np.hstack([grads, -np.ones((m, 1))])
            hess = gx.T @ (gx * (inv ** 2)[:, None])
            hess[:n, :n] += hess_sum(inv)
            return val, grad, hess

        def margin(zz):
            return float(self._constraint_eval(zz[:n], 0)[0].max())

        z = np.append(y0, float(fvals.max()) + 1.0)
        t = BARRIER_T0
        try:
            while True:
                ref = z[n]
                z = _newton_center(lambda zz, o: parts(zz, o, t, ref), z, budget,
                                   early_exit=lambda zz: margin(zz) < -_PHASE1_MARGIN)
                if margin(z) < -_PHASE1_MARGIN:
                    return z[:n], None
                if 1.0 / t <= 1e-12:
                    break
                t *= BARRIER_GROWTH
        except _EarlyExit as exc:
            return exc.point[:n], None
        except _BudgetExhausted:
            return z[:n], "max_iterations"
        if margin(z) < -1e-9:
            return z[:n], None
        return None, "infeasible"

    def _finish(self, y, status, budget, kkt, interior=None, stages=(), message=""):
        y = np.asarray(y, dtype=float)
        if status == "infeasible":
            obj = math.nan
        else:
            obj = math.exp(self._objective.log_eval(y, 0)[0])
        return GpSolution(x=np.exp(y), names=self.names, objective=obj,
                          status=status, iterations=budget.used, kkt_residual=kkt,
                          message=message,
                          interior=None if interior is None else np.exp(interior),
                          stage_objectives=tuple(stages))


class _EarlyExit(Exception):
    def __init__(self, point):
        self.point = point


def _newton_center(parts, y, budget, early_exit=None):
    """Newton minimization of one barrier stage (B&V Algorithm 9.5).

    Away from the center (decrement >= 0.25) every step starts at the full
    Newton step and halves it until the point lies inside the barrier domain
    and passes the Armijo test. Near the center the full step is taken
    without the sufficient-decrease test, halved once if it leaves the domain.
    """
    best_lam = math.inf
    stalled = 0
    for _ in range(_MAX_CENTER_STEPS):
        budget.spend()
        val, grad, hess = parts(y, 2)
        if not math.isfinite(val):
            raise GpError("barrier evaluated outside its domain")
        step = _newton_direction(hess, grad)
        decrement2 = float(-grad @ step)
        if decrement2 / 2.0 <= _NEWTON_DECREMENT_TOL + 8e-15 * abs(val):
            return y
        lam = math.sqrt(max(decrement2, 0.0))
        if lam < 0.9 * best_lam:
            best_lam, stalled = lam, 0
        else:
            stalled += 1
            if stalled >= 6 and lam < 0.1:
                return y    # float-precision plateau near the stage center

        if lam < 0.25:
            # quadratic-convergence region: expected decrease may sit below
            # float resolution of the barrier value, so skip the sufficient-
            # decrease test and only keep the step inside the domain
            cand = y + step
            if not math.isfinite(_trial_value(parts, cand)):
                cand = y + 0.5 * step
                if not math.isfinite(_trial_value(parts, cand)):
                    return y
        else:
            a = 1.0
            slope = ARMIJO_SLOPE * float(grad @ step)
            for _ in range(60):
                cand = y + a * step
                cand_val = _trial_value(parts, cand)
                if math.isfinite(cand_val) and cand_val <= val + a * slope:
                    break
                a *= BACKTRACK_SHRINK
            else:
                return y    # no float-representable progress left
            if a * lam < 1e-13:
                return y    # progress below float resolution
        y = cand
        if early_exit is not None and early_exit(y):
            raise _EarlyExit(y)
    return y


def _trial_value(parts, y):
    """Barrier value at a line-search trial point. A full step can land far
    outside the domain, where exponentials overflow; that only makes the
    value non-finite, which rejects the point, so the warnings are muted."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return parts(y, 0)[0]


def _newton_direction(hess, grad):
    """Newton step -hess^-1 grad on the equilibrated Hessian.

    Barrier Hessians become badly scaled near active constraints, so rows and
    columns are scaled to a unit diagonal first. A Cholesky factorization
    tests positive definiteness and drives a growing ridge; the step itself
    comes from one dense solve of the same ridged matrix, since numpy has no
    triangular solve to reuse the factor with.
    """
    n = grad.size
    hess = 0.5 * (hess + hess.T)
    d = np.sqrt(np.maximum(np.abs(np.diag(hess)), 1e-300))
    scaled = hess / d[:, None] / d[None, :]
    rhs = grad / d
    ridge = 0.0
    for _ in range(40):
        shifted = scaled + ridge * np.eye(n)
        try:
            np.linalg.cholesky(shifted)
            return -np.linalg.solve(shifted, rhs) / d
        except np.linalg.LinAlgError:
            ridge = 1e-14 if ridge == 0.0 else ridge * 100.0
    raise GpError("Newton system could not be factorized")


def _nnls(a: np.ndarray, b: np.ndarray, max_iter: int | None = None) -> np.ndarray:
    """Lawson-Hanson non-negative least squares: min ||a x - b||, x >= 0.

    Deterministic active-set loop; sizes here are tiny (constraint counts).
    """
    n, m = a.shape
    x = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    resid = b - a @ x
    max_iter = max_iter or 3 * m + 10
    for _ in range(max_iter):
        w = a.T @ resid
        w[passive] = -np.inf
        if not np.any(~passive) or float(w.max()) <= 1e-12 * (1.0 + float(np.abs(b).max())):
            break
        passive[int(np.argmax(w))] = True
        while True:
            idx = np.flatnonzero(passive)
            z, *_ = np.linalg.lstsq(a[:, idx], b, rcond=None)
            if np.all(z > 0):
                x = np.zeros(m)
                x[idx] = z
                break
            bad = z <= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = x[idx] / (x[idx] - z)
            alpha = float(np.min(steps[bad]))
            x[idx] = x[idx] + alpha * (z - x[idx])
            passive[x <= 1e-300] = False
            x[~passive] = 0.0
        resid = b - a @ x
    return x
