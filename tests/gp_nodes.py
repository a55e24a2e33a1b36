"""A row-by-row GP builder and a generic node walk, kept as test oracles.

`Problem` builds a `cfurllc.gp.GpModel` from expressions: `variable` declares
a variable and returns it as a monomial, `maximize` sets a monomial
objective, `add_le(lhs, rhs, weight)` adds lhs <= rhs for a monomial or a
`Sum` of monomials under a monomial, and `add_block_le(table, rhs, weights)`
adds the rows of a term table under monomials. `model()` writes the arrays:
consecutive `add_le` rows become one term table, each right-hand side divided
into its row's terms, as the package's energy and fixed-pilot rows are; a
block's right-hand sides are folded into its table by `gp.TermRows.fold`, as
each SCA round's are; and `gp.stack` joins the tables into the GP's one.
`model(walk=True)` writes every row as node trees instead, one `NodeRows`.

Every node's `log_eval(y)` returns log node(exp(y)) with its gradient and
Hessian by walking the expression one node at a time: monomials, sums of any nodes,
products, powers and the fused single-variable family `PosyProductSum`.
`table_trees` writes the rows of a term table as such trees, and `NodeRows`
is a table of rows log(lhs / rhs) evaluated by the walk. The term tables and
GPs of `cfurllc.gp` and the SINR tables of `cfurllc.optimizer` are checked
against it.

`random_two_var_problem` and `grid_optimum` are the second oracle: bounded
random GPs in two variables and their optimum by log-grid enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from cfurllc import gp


class Monomial:
    """coeff * prod_i x_i^a_i for positive coeff: affine in log variables."""

    def __init__(self, coeff: float, exponents: dict[int, float]):
        self.log_coeff = math.log(coeff)
        self.exponents = dict(exponents)

    def dense(self, n: int) -> np.ndarray:
        """The exponents over n variables."""
        a = np.zeros(n)
        for i, e in self.exponents.items():
            a[i] = e
        return a

    def log_eval(self, y):
        g = self.dense(y.size)
        return self.log_coeff + float(g @ y), g, np.zeros((y.size, y.size))


class Const(Monomial):
    def __init__(self, value: float):
        super().__init__(value, {})


def var(index: int) -> Monomial:
    """The variable of the given column."""
    return Monomial(1.0, {index: 1.0})


def log_monomial(log_coeff: float, exponents, offset: int = 0) -> Monomial:
    """exp(log_coeff) prod_i x_{i + offset}^exponents_i."""
    mono = Monomial(1.0, {i + offset: float(a) for i, a in enumerate(exponents) if a})
    mono.log_coeff = float(log_coeff)
    return mono


class Sum:
    def __init__(self, terms):
        self.terms = list(terms)

    def log_eval(self, y):
        parts = [t.log_eval(y) for t in self.terms]
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
        parts = [f.log_eval(y) for f in self.factors]
        return tuple(sum(p[i] for p in parts) for i in range(3))


class Power:
    def __init__(self, base, exponent: float):
        self.base, self.exponent = base, float(exponent)

    def log_eval(self, y):
        return tuple(self.exponent * p for p in self.base.log_eval(y))


class PosyProductSum:
    """Fused single-variable family: sum_r c_r x^e_r prod_f (b_f x + 1)^s_rf
    in the variable of column `column`.

    Covers every estimation-denominator product of the SINR constraints in a
    few vectorized operations; b_f > 0 and s_rf >= 0 keep it a generalized
    posynomial.
    """

    def __init__(self, column: int, log_coeffs, plain_exps, factor_coeffs, factor_exps):
        self.column = int(column)
        self.log_c = np.asarray(log_coeffs, dtype=float)        # (R,)
        self.e = np.asarray(plain_exps, dtype=float)            # (R,)
        self.b = np.asarray(factor_coeffs, dtype=float)         # (F,)
        self.s = np.asarray(factor_exps, dtype=float)           # (R, F)
        assert np.all(self.b > 0) and np.all(self.s >= 0)
        assert self.s.shape == (self.log_c.size, self.b.size)

    def log_eval(self, y):
        i = self.column
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


def table_trees(log_coeffs, exponents, counts, factor_coeffs=(), factor_columns=(),
                factor_weights=None, offset: int = 0) -> list[Sum]:
    """The rows of the term table of these `gp.TermRows` arguments as node
    trees, every column moved up by offset: term t is exp(c_t) x^a_t times
    (1 + b_f x_{v_f})^{m_tf} for each factor f it weights."""
    m = np.zeros((len(log_coeffs), 0)) if factor_weights is None else np.asarray(factor_weights)
    trees, ends = [], np.cumsum(counts)
    for start, end in zip(ends - counts, ends):
        row = []
        for t in range(start, end):
            row.append(Product([log_monomial(log_coeffs[t], exponents[t], offset)] + [
                PosyProductSum(v + offset, [0.0], [0.0], [b], [[m[t, f]]])
                for f, (b, v) in enumerate(zip(factor_coeffs, factor_columns)) if m[t, f]]))
        trees.append(Sum(row))
    return trees


def term_trees(table: gp.TermRows, offset: int = 0) -> list[Sum]:
    """`table_trees` of a built table."""
    return table_trees(table.c, table.a, table.counts, table.b, table.v, table.m, offset)


class NodeRows:
    """A table of the rows log(lhs_i / rhs_i) of expressions over `columns`
    variables, evaluated by the node walk, row by row."""

    def __init__(self, lhs, rhs, columns: int):
        self.lhs, self.rhs = list(lhs), list(rhs)
        assert len(self.lhs) == len(self.rhs)
        self.size, self.columns = len(self.lhs), columns

    def log_eval(self, y):
        parts = [(lhs.log_eval(y), rhs.log_eval(y)) for lhs, rhs in zip(self.lhs, self.rhs)]

        def hess(weights):
            return sum(w * (p[2] - q[2]) for w, (p, q) in zip(weights, parts))
        return (np.array([p[0] - q[0] for p, q in parts]),
                np.array([p[1] - q[1] for p, q in parts]), hess)


@dataclass
class Row:
    lhs: object              # a Monomial or Sum of monomials; any node for a walk
    rhs: Monomial
    weight: float


@dataclass
class Block:
    table: object
    rhs: list[Monomial]
    weights: list[float]


def _terms(expr) -> list[Monomial]:
    if isinstance(expr, Monomial):
        return [expr]
    return [t for term in expr.terms for t in _terms(term)]


def lhs_nodes(problem: "Problem") -> list:
    """The left-hand side of every row of a Problem as a node tree, in row
    order; a block's rows through `term_trees`."""
    return [node for row in problem.rows
            for node in ([row.lhs] if isinstance(row, Row) else term_trees(row.table))]


def rhs_monomials(problem: "Problem") -> list[Monomial]:
    """The right-hand side of every row of a Problem, in row order."""
    return [mono for row in problem.rows
            for mono in ([row.rhs] if isinstance(row, Row) else row.rhs)]


def row_weights(problem: "Problem") -> list[float]:
    """The weight of every row of a Problem, in row order."""
    return [w for row in problem.rows
            for w in ([row.weight] if isinstance(row, Row) else row.weights)]


class Problem:
    """A GP written row by row; `model()` gives its arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.objective: Monomial = Const(1.0)
        self.rows: list[Row | Block] = []

    def variable(self, name: str) -> Monomial:
        self.names.append(name)
        return var(len(self.names) - 1)

    def maximize(self, mono: Monomial):
        self.objective = mono

    def add_le(self, lhs, rhs: Monomial, weight: float = 0.0):
        self.rows.append(Row(lhs, rhs, weight))

    def add_block_le(self, table, rhs, weights=None):
        self.rows.append(Block(table, list(rhs),
                               [0.0] * table.size if weights is None else list(weights)))

    def model(self, walk: bool = False) -> gp.GpModel:
        n = len(self.names)
        if walk:
            table = NodeRows(lhs_nodes(self), rhs_monomials(self), n)
        else:
            tables = []
            for plain, group in itertools.groupby(self.rows, lambda row: isinstance(row, Row)):
                if plain:
                    # the rows as one table, right-hand sides in the terms
                    run = list(group)
                    terms = [(t, row.rhs) for row in run for t in _terms(row.lhs)]
                    tables.append(gp.TermRows(
                        [t.log_coeff - rhs.log_coeff for t, rhs in terms],
                        [t.dense(n) - rhs.dense(n) for t, rhs in terms],
                        [len(_terms(row.lhs)) for row in run]))
                    continue
                for block in group:
                    tables.append(block.table.fold(
                        [mono.log_coeff for mono in block.rhs],
                        np.reshape([mono.dense(n) for mono in block.rhs], (len(block.rhs), n))))
            table = gp.stack(tables)
        return gp.GpModel(table, row_weights(self),
                          (self.objective.log_coeff, self.objective.dense(n)))


def random_two_var_problem(rng: np.random.Generator) -> Problem:
    """Bounded random GP in two variables with a monomial objective."""
    m = Problem()
    x = m.variable("x")
    y = m.variable("y")
    m.maximize(Monomial(1.0, {0: float(rng.uniform(0.2, 1.5)),
                              1: float(rng.uniform(0.2, 1.5))}))
    cap = float(rng.uniform(2.0, 8.0))
    m.add_le(Sum([x, y]), Const(cap))
    for _ in range(rng.integers(1, 3)):
        terms = [Monomial(float(rng.uniform(0.2, 2.0)),
                          {0: float(rng.uniform(0.0, 2.0)),
                           1: float(rng.uniform(0.0, 2.0))})
                 for _ in range(rng.integers(1, 4))]
        m.add_le(Sum(terms), Const(float(rng.uniform(2.0, 30.0))))
    return m


def _eval_on_grid(expr, logx: np.ndarray, logy: np.ndarray) -> np.ndarray:
    """Vectorized positive-space value of a monomial or a sum of monomials."""
    return sum(np.exp(t.log_coeff + t.exponents.get(0, 0.0) * logx
                      + t.exponents.get(1, 0.0) * logy) for t in _terms(expr))


def grid_optimum(m: Problem, span=(1e-3, 10.0), coarse=1000, refine=1000) -> float:
    """Two-stage log-grid enumeration of a 2-variable GP's optimum."""
    lo, hi = math.log(span[0]), math.log(span[1])

    def stage(l0, l1, m0, m1, points):
        gx = np.linspace(l0, l1, points)
        gy = np.linspace(m0, m1, points)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        feas = np.ones(xx.shape, dtype=bool)
        for row in m.rows:
            feas &= _eval_on_grid(row.lhs, xx, yy) <= _eval_on_grid(row.rhs, xx, yy) * (1 + 1e-12)
        objs = _eval_on_grid(m.objective, xx, yy)
        objs[~feas] = -np.inf
        best = np.unravel_index(int(np.argmax(objs)), objs.shape)
        return float(objs[best]), (gx[best[0]], gy[best[1]]), (gx[1] - gx[0], gy[1] - gy[0])

    val, pt, step = stage(lo, hi, lo, hi, coarse)
    val2, _, _ = stage(pt[0] - 2 * step[0], pt[0] + 2 * step[0],
                       pt[1] - 2 * step[1], pt[1] + 2 * step[1], refine)
    return max(val, val2)
