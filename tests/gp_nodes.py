"""Generic node walk over GP expressions, kept as a test oracle.

`log_eval(expr, y)` returns log expr(exp(y)) with its gradient and Hessian
by walking the expression one node at a time. It reads the package's
monomials and sums and the nodes defined here: sums of any nodes, products,
powers and the fused single-variable family `PosyProductSum`. The compiled
constraint rows and term tables of `cfurllc.gp` and the SINR tables of
`cfurllc.optimizer` are checked against it; `block_rhs` reads the
right-hand sides of a model's constraint record back as monomials for it.

`random_two_var_problem` and `grid_optimum` are the second oracle: bounded
random GPs in two variables and their optimum by log-grid enumeration.
"""

from __future__ import annotations

import math

import numpy as np

from cfurllc import gp


def log_eval(expr, y: np.ndarray):
    """(value, gradient (n,), Hessian (n, n)) of log expr(exp(y))."""
    if isinstance(expr, gp.Monomial):
        v, g = expr.log_eval(y)
        return v, g, np.zeros((y.size, y.size))
    if isinstance(expr, gp.Sum):
        return Sum(expr.terms).log_eval(y)
    return expr.log_eval(y)


class Sum:
    def __init__(self, terms):
        self.terms = list(terms)

    def log_eval(self, y):
        parts = [log_eval(t, y) for t in self.terms]
        logs = np.array([p[0] for p in parts])
        top = float(logs.max())
        w = np.exp(logs - top)
        total = float(w.sum())
        w /= total
        g = sum(wi * gi for wi, (_, gi, _) in zip(w, parts))
        h = sum(wi * (hi + np.outer(gi, gi)) for wi, (_, gi, hi) in zip(w, parts))
        return top + math.log(total), g, h - np.outer(g, g)


class Product:
    def __init__(self, factors):
        self.factors = list(factors)

    def log_eval(self, y):
        parts = [log_eval(f, y) for f in self.factors]
        return tuple(sum(p[i] for p in parts) for i in range(3))


class Power:
    def __init__(self, base, exponent: float):
        self.base, self.exponent = base, float(exponent)

    def log_eval(self, y):
        return tuple(self.exponent * p for p in log_eval(self.base, y))


class PosyProductSum:
    """Fused single-variable family: sum_r c_r x^e_r prod_f (b_f x + 1)^s_rf.

    Covers every estimation-denominator product of the SINR constraints in a
    few vectorized operations; b_f > 0 and s_rf >= 0 keep it a generalized
    posynomial.
    """

    def __init__(self, var: gp.Var, log_coeffs, plain_exps, factor_coeffs, factor_exps):
        self.var = var
        self.log_c = np.asarray(log_coeffs, dtype=float)        # (R,)
        self.e = np.asarray(plain_exps, dtype=float)            # (R,)
        self.b = np.asarray(factor_coeffs, dtype=float)         # (F,)
        self.s = np.asarray(factor_exps, dtype=float)           # (R, F)
        assert np.all(self.b > 0) and np.all(self.s >= 0)
        assert self.s.shape == (self.log_c.size, self.b.size)

    def log_eval(self, y):
        i = self.var.index
        t = self.b * math.exp(y[i])                             # (F,)
        logs = self.log_c + self.e * y[i] + self.s @ np.log1p(t)
        top = float(logs.max())
        w = np.exp(logs - top)
        total = float(w.sum())
        w /= total
        slope = t / (1.0 + t)                                   # per-factor log-slope
        d_rows = self.e + self.s @ slope                        # (R,)
        d1 = float(w @ d_rows)
        curv_rows = self.s @ (slope * (1.0 - slope))
        g = np.zeros(y.size)
        h = np.zeros((y.size, y.size))
        g[i] = d1
        h[i, i] = float(w @ (curv_rows + d_rows ** 2)) - d1 ** 2
        return top + math.log(total), g, h


class NodeRows(gp.RowBlock):
    """Constraint left-hand sides evaluated by the node walk, row by row."""

    def __init__(self, lhs):
        self.lhs = list(lhs)
        self.size = len(self.lhs)

    def log_eval(self, y):
        parts = [log_eval(e, y) for e in self.lhs]

        def hess(weights):
            return sum(w * p[2] for w, p in zip(weights, parts))
        return np.array([p[0] for p in parts]), np.array([p[1] for p in parts]), hess


def block_rhs(c) -> list[gp.Monomial]:
    """The right-hand sides of a constraint record as monomials, one per row,
    read back from its log coefficients r and exponent rows R."""
    rhs = []
    for log_coeff, exponents in zip(c.rhs_log_coeffs, c.rhs_exponents):
        mono = gp.Monomial(1.0, {i: float(a) for i, a in enumerate(exponents) if a != 0.0})
        mono.log_coeff = float(log_coeff)
        rhs.append(mono)
    return rhs


def random_two_var_problem(rng: np.random.Generator) -> gp.GpModel:
    """Bounded random GP in two variables with a monomial objective."""
    m = gp.GpModel()
    x = m.variable("x")
    y = m.variable("y")
    m.maximize(gp.Monomial(1.0, {0: float(rng.uniform(0.2, 1.5)),
                                 1: float(rng.uniform(0.2, 1.5))}))
    cap = float(rng.uniform(2.0, 8.0))
    m.add_le(gp.Sum([x, y]), gp.Const(cap))
    for _ in range(rng.integers(1, 3)):
        terms = [gp.Monomial(float(rng.uniform(0.2, 2.0)),
                             {0: float(rng.uniform(0.0, 2.0)),
                              1: float(rng.uniform(0.0, 2.0))})
                 for _ in range(rng.integers(1, 4))]
        m.add_le(gp.Sum(terms), gp.Const(float(rng.uniform(2.0, 30.0))))
    return m


def _eval_on_grid(expr, logx: np.ndarray, logy: np.ndarray) -> np.ndarray:
    """Vectorized positive-space value of a monomial or a sum of monomials."""
    if isinstance(expr, gp.Monomial):
        e = dict(expr.exponents)
        return np.exp(expr.log_coeff + e.get(0, 0.0) * logx + e.get(1, 0.0) * logy)
    if isinstance(expr, gp.Sum):
        return sum(_eval_on_grid(t, logx, logy) for t in expr.terms)
    raise TypeError(f"grid oracle cannot evaluate {type(expr).__name__}")


def grid_optimum(m: gp.GpModel, span=(1e-3, 10.0), coarse=1000, refine=1000) -> float:
    """Two-stage log-grid enumeration of a 2-variable GP's optimum."""
    lo, hi = math.log(span[0]), math.log(span[1])

    def stage(l0, l1, m0, m1, points):
        gx = np.linspace(l0, l1, points)
        gy = np.linspace(m0, m1, points)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        feas = np.ones(xx.shape, dtype=bool)
        for c in m._constraints:
            feas &= (_eval_on_grid(c.lhs, xx, yy)
                     <= _eval_on_grid(block_rhs(c)[0], xx, yy) * (1 + 1e-12))
        objs = _eval_on_grid(m._objective, xx, yy)
        objs[~feas] = -np.inf
        best = np.unravel_index(int(np.argmax(objs)), objs.shape)
        return float(objs[best]), (gx[best[0]], gy[best[1]]), (gx[1] - gx[0], gy[1] - gy[0])

    val, pt, step = stage(lo, hi, lo, hi, coarse)
    val2, _, _ = stage(pt[0] - 2 * step[0], pt[0] + 2 * step[0],
                       pt[1] - 2 * step[1], pt[1] + 2 * step[1], refine)
    return max(val, val2)
