import math
import warnings

import numpy as np
import pytest

import gp_nodes as nodes
from cfurllc import approx, gp
from cfurllc.gp import GpModel, GpModelError
from gp_nodes import Const, Monomial, Problem, Sum, grid_optimum, random_two_var_problem


def random_expr(rng, n_vars, depth=0):
    """Random generalized-posynomial node tree over n_vars variables, for the
    node walk that serves as the oracle below."""
    choice = rng.integers(0, 6 if depth < 3 else 3)
    if choice == 0:
        return Const(float(10 ** rng.uniform(-1, 1)))
    if choice == 1:
        return nodes.var(int(rng.integers(n_vars)))
    if choice == 2:
        exps = {int(i): float(rng.uniform(-2, 2))
                for i in rng.choice(n_vars, size=rng.integers(1, n_vars + 1),
                                    replace=False)}
        return Monomial(float(10 ** rng.uniform(-1, 1)), exps)
    if choice == 3:
        return Sum([random_expr(rng, n_vars, depth + 1) for _ in range(rng.integers(2, 4))])
    if choice == 4:
        return nodes.Product([random_expr(rng, n_vars, depth + 1)
                              for _ in range(rng.integers(2, 4))])
    return nodes.Power(random_expr(rng, n_vars, depth + 1), float(rng.uniform(0.2, 2.0)))


def fd_check(expr, y, tol_g=1e-6, tol_h=1e-5):
    eps = 1e-6
    _, g, h = expr.log_eval(y)
    for i in range(y.size):
        up, dn = y.copy(), y.copy()
        up[i] += eps
        dn[i] -= eps
        (vu, gu, _), (vd, gd, _) = expr.log_eval(up), expr.log_eval(dn)
        fd = (vu - vd) / (2 * eps)
        assert abs(g[i] - fd) < tol_g, f"grad[{i}]"
        col = (gu - gd) / (2 * eps)
        assert np.max(np.abs(h[:, i] - col)) < tol_h, f"hess[:, {i}]"


# --------------------------------------------------------------------------
# expression algebra
# --------------------------------------------------------------------------

def test_monomial_log_form_is_affine():
    node = Monomial(3.0, {0: 2.0, 1: -0.5})
    pt = np.array([0.3, -0.7])
    val, g, h = node.log_eval(pt)
    assert val == pytest.approx(math.log(3.0) + 2.0 * 0.3 - 0.5 * (-0.7))
    assert np.allclose(g, [2.0, -0.5])
    assert not h.any()


def test_node_derivatives_match_finite_differences(rng):
    for trial in range(40):
        n_vars = int(rng.integers(2, 5))
        expr = Sum([random_expr(rng, n_vars) for _ in range(2)])
        y = rng.normal(0.0, 0.7, n_vars)
        fd_check(expr, y)


def test_fused_family_matches_generic_tree(rng):
    b = np.array([2.0, 0.5, 1.3])
    pps = nodes.PosyProductSum(0, np.log([1.5, 0.2]), [1.0, 0.0], b,
                               [[1.0, 1.0, 0.0], [0.5, 0.0, 2.0]])
    factors = [Sum([Monomial(bi, {0: 1.0}), Const(1.0)]) for bi in b]
    generic = Sum([
        nodes.Product([Monomial(1.5, {0: 1.0}), factors[0], factors[1]]),
        nodes.Product([Const(0.2), nodes.Power(factors[0], 0.5),
                       nodes.Power(factors[2], 2.0)]),
    ])
    for _ in range(20):
        y = rng.normal(0.0, 1.5, 1)
        v1, g1, h1 = pps.log_eval(y)
        v2, g2, h2 = generic.log_eval(y)
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert g1[0] == pytest.approx(g2[0], abs=1e-11)
        assert h1[0, 0] == pytest.approx(h2[0, 0], abs=1e-10)


def random_table(rng, n_vars, halves=False):
    """A random term table over n_vars variables and its rows as node trees:
    uneven row sizes, factor weights in {0, 1, 2} (with halves: in
    {0, 1/2, ..., 2}) and factor columns in shuffled order."""
    counts = rng.integers(1, 5, size=int(rng.integers(1, 5)))
    terms = int(counts.sum())
    log_coeffs = rng.normal(0.0, 1.0, terms)
    exponents = rng.uniform(-1.0, 2.0, (terms, n_vars)) * (rng.random((terms, n_vars)) < 0.6)
    size = int(rng.integers(1, 7))
    coeffs = 10 ** rng.uniform(-1.0, 1.0, size)
    columns = rng.permutation(np.resize(np.arange(n_vars), size))
    weights = rng.integers(0, 5, (terms, size)) / 2.0 if halves \
        else rng.integers(0, 3, (terms, size)).astype(float)
    table = (log_coeffs, exponents, counts, coeffs, columns, weights)
    return gp.TermRows(*table), nodes.table_trees(*table)


def test_term_rows_match_node_trees_and_finite_differences(rng):
    for _ in range(30):
        n_vars = int(rng.integers(1, 5))
        rows, trees = random_table(rng, n_vars)
        y = rng.normal(0.0, 1.5, n_vars)
        weights = rng.uniform(0.1, 3.0, rows.size)
        vals, jac, hess = rows.log_eval(y)
        ref = [tree.log_eval(y) for tree in trees]
        assert np.allclose(vals, [r[0] for r in ref], rtol=0, atol=1e-12)
        assert np.allclose(jac, [r[1] for r in ref], rtol=0, atol=1e-12)
        want = sum(w * r[2] for w, r in zip(weights, ref))
        assert np.allclose(hess(weights), want, rtol=0, atol=1e-11 * weights.sum())
        eps = 1e-6
        h = hess(weights)
        for i in range(n_vars):
            up, dn = y.copy(), y.copy()
            up[i] += eps
            dn[i] -= eps
            (vu, ju, _), (vd, jd, _) = rows.log_eval(up), rows.log_eval(dn)
            assert np.allclose(jac[:, i], (vu - vd) / (2 * eps), rtol=0, atol=1e-6)
            assert np.allclose(h[:, i], (ju - jd).T @ weights / (2 * eps), rtol=0, atol=1e-5)


def test_term_row_tangents_touch_and_stay_below_their_rows(rng):
    # the best local monomial of each row, exp(vals + J (y - y_hat)) (the
    # gain fits of `approx`), meets the row at y_hat and, each row being
    # convex in y, lies below it everywhere, also for fractional weights
    for _ in range(200):
        n_vars = int(rng.integers(1, 5))
        rows, _ = random_table(rng, n_vars, halves=True)
        y_hat = rng.normal(0.0, 3.0, n_vars)
        fit = approx._fit(rows, np.exp(y_hat), 1.0)
        vals = rows.log_eval(y_hat)[0]
        assert np.allclose(fit.log_coeff + fit.exponents @ y_hat, vals, rtol=0, atol=1e-12)
        for _ in range(5):
            y = y_hat + rng.normal(0.0, 3.0, n_vars)
            assert (rows.log_eval(y)[0] - (fit.log_coeff + fit.exponents @ y) >= -1e-12).all()


@pytest.mark.parametrize("bad", [
    {"factor_coeffs": [0.0]}, {"factor_coeffs": [-1.0]}, {"factor_coeffs": [math.inf]},
    {"factor_weights": [[-1.0], [0.0], [1.0]]}, {"factor_weights": [[math.nan], [0.0], [1.0]]},
    {"factor_weights": [[math.inf], [0.0], [1.0]]},
    {"factor_columns": [2]}, {"factor_columns": [-1]},
    {"counts": [3, 0]}, {"counts": [2]},
])
def test_term_table_rejects_bad_entries(bad):
    table = {"log_coeffs": [0.0, 0.1, 0.2], "exponents": np.eye(3, 2), "counts": [2, 1],
             "factor_coeffs": [1.0], "factor_columns": [1],
             "factor_weights": [[1.0], [2.0], [0.0]]}
    gp.TermRows(**table)
    with pytest.raises(GpModelError):
        gp.TermRows(**{**table, **bad})


def test_one_term_rows_are_affine_to_the_bit(rng):
    # a monomial row is a one-term row: exactly c + a . y, exactly the
    # Jacobian a and, in a factor-free table of such rows, exactly no Hessian
    for _ in range(50):
        n_vars, rows = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        c = rng.normal(0.0, 30.0, rows)
        a = rng.choice([-1.0, 0.0, 1.0, 2.0], (rows, n_vars))
        table = gp.TermRows(c, a, np.ones(rows, dtype=int))
        y = rng.normal(0.0, 20.0, n_vars)
        vals, jac, hess = table.log_eval(y)
        assert np.array_equal(vals, c + a @ y)
        assert np.array_equal(jac, a)
        assert not hess(rng.uniform(0.0, 3.0, rows)).any()


def test_relaxed_rows_add_log_phi_to_the_chosen_rows(rng):
    # relax(rows) puts phi first: the chosen rows become f_i(y) + log phi,
    # Jacobian 1 on phi, and the others keep their values; phi adds no
    # curvature, and max_slack maximizes phi with no row weights
    for _ in range(30):
        n_vars = int(rng.integers(1, 5))
        rows, _ = random_table(rng, n_vars)
        chosen = rng.random(rows.size) < 0.5
        relaxed = rows.relax(np.flatnonzero(chosen))
        y, log_phi = rng.normal(0.0, 1.5, n_vars), float(rng.normal(0.0, 2.0))
        weights = rng.uniform(0.1, 3.0, rows.size)
        vals, jac, hess = rows.log_eval(y)
        rvals, rjac, rhess = relaxed.log_eval(np.append(log_phi, y))
        assert np.allclose(rvals, vals + chosen * log_phi, rtol=0, atol=1e-12)
        assert np.allclose(rjac, np.column_stack([chosen, jac]), rtol=0, atol=1e-12)
        want = np.zeros((n_vars + 1, n_vars + 1))
        want[1:, 1:] = hess(weights)
        assert np.allclose(rhess(weights), want, rtol=0, atol=1e-11 * weights.sum())
        model = gp.max_slack(relaxed)
        assert model.table is relaxed and not model.weights.any()
        assert np.array_equal(model.objective[1], np.eye(n_vars + 1)[0])


def gp_model(table=None, r=(math.log(2.0), 0.0), big_r=np.zeros((2, 2)),
             weights=(0.0, 1.0), objective=(0.0, np.ones(2))):
    """A GpModel in two variables: x_0 <= 2 and x_0 + x_1 <= 3, the second
    under weight 1, maximizing x_0 x_1 3 / (x_0 + x_1); the right-hand sides
    exp(r + R y) are folded into the table."""
    if table is None:
        table = gp.TermRows(np.log([1.0, 1 / 3, 1 / 3]), [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                            [1, 2])
    return GpModel(table.fold(r, big_r), weights, objective)


@pytest.mark.parametrize("bad", [
    {"table": gp.TermRows(np.log([1.0, 1 / 3, 1 / 3]), np.eye(3), [1, 2]),   # columns != 2
     "big_r": np.zeros((2, 3))},
    {"table": gp.TermRows(np.log([1.0, 1 / 3, 1 / 3]), np.ones((3, 1)), [1, 2]),
     "big_r": np.zeros((2, 1))},
    {"r": np.zeros(3)}, {"r": np.zeros((2, 1))}, {"r": [math.nan, 0.0]},
    {"big_r": np.zeros((2, 3))}, {"big_r": np.zeros((1, 2))},
    {"big_r": [[0.0, math.inf], [0.0, 0.0]]},
    {"weights": [-0.1, 1.0]}, {"weights": [math.nan, 1.0]}, {"weights": [0.0, math.inf]},
    {"weights": [1.0]}, {"weights": [0.0, 1.0, 0.0]},
    {"objective": (0.0, np.ones(3))}, {"objective": (0.0, np.ones(1))},
    {"objective": (math.inf, np.ones(2))}, {"objective": (0.0, [1.0, math.nan])},
    {"table": gp.TermRows([], np.zeros((0, 2)), []), "r": [], "big_r": np.zeros((0, 2)),
     "weights": []},
])
def test_model_rejects_inconsistent_arrays(bad):
    # the right-hand sides are checked where they are folded, the rest by
    # the model
    sol = gp_model().solve(tol=1e-10)
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([1.5, 1.5], rel=1e-7)
    with pytest.raises(GpModelError):
        gp_model(**bad)


def test_only_tables_over_the_same_columns_stack():
    one = gp.TermRows([0.0], [[1.0, 0.0]], [1])
    assert gp.stack([one, one]).size == 2
    for tables in ([], [one, gp.TermRows([0.0], [[1.0]], [1])]):
        with pytest.raises(GpModelError, match="do not stack"):
            gp.stack(tables)


def test_posynomial_boundary_tightness():
    # x + 1/x <= 2 touches exactly at x = 1
    m = Problem()
    x = m.variable("x")
    m.maximize(x)
    m.add_le(Sum([x, Monomial(1.0, {0: -1.0})]), Const(2.0))
    margins = m.model().constraint_margins(np.array([1.0]))
    assert margins[0] == pytest.approx(0.0, abs=1e-14)


# --------------------------------------------------------------------------
# solver behavior
# --------------------------------------------------------------------------

def test_single_active_constraint():
    m = Problem()
    chi = m.variable("chi")
    m.maximize(chi)
    m.add_le(chi, Const(5.0))
    sol = m.model().solve()
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(5.0, rel=1e-7)
    assert sol.kkt_residual < 1e-8


def test_symmetric_posynomial_minimum():
    # min x + 1/x as its epigraph: max 1/t subject to x + 1/x <= t
    m = Problem()
    x = m.variable("x")
    t = m.variable("t")
    m.maximize(Monomial(1.0, {1: -1.0}))
    m.add_le(Sum([x, Monomial(1.0, {0: -1.0})]), t)
    m.add_le(x, Const(100.0))
    sol = m.model().solve()
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-5)
    assert sol.x[1] == pytest.approx(2.0, rel=1e-9)
    assert sol.objective == pytest.approx(0.5, rel=1e-9)


def infeasible_problem():
    m = Problem()
    x = m.variable("x")
    m.maximize(x)
    m.add_le(Monomial(3.0, {0: -1.0}), Const(1.0))   # x >= 3
    m.add_le(x, Const(2.0))
    return m.model()


def test_infeasible_detection():
    sol = infeasible_problem().solve()
    assert sol.status == "infeasible"
    assert math.isnan(sol.objective)


def test_optimal_solutions_satisfy_all_constraints(rng):
    for i in range(20):
        prob = random_two_var_problem(np.random.default_rng(100 + i)).model()
        sol = prob.solve()
        assert sol.status == "optimal"
        assert float(prob.constraint_margins(sol.x).max()) <= 1e-8
        assert sol.kkt_residual < 1e-8


def test_grid_oracle_agreement(rng):
    for i in range(12):
        prob = random_two_var_problem(np.random.default_rng(40 + i))
        sol = prob.model().solve()
        assert sol.status == "optimal"
        ref = grid_optimum(prob)
        assert abs(sol.objective - ref) / ref < 1e-3


def test_scaling_invariance(rng):
    # rebuilding the problem in variables x' = c x returns c times the optimum
    def build(scale):
        sx, sy = scale
        m = Problem()
        m.variable("x")
        m.variable("y")
        # objective x^1.2 y^0.7 expressed in scaled variables
        m.maximize(Monomial(sx ** -1.2 * sy ** -0.7, {0: 1.2, 1: 0.7}))
        # x + y <= 5
        m.add_le(Sum([Monomial(1.0 / sx, {0: 1.0}), Monomial(1.0 / sy, {1: 1.0})]),
                 Const(5.0))
        # x * sqrt(y) <= 3
        m.add_le(Monomial(sx ** -1.0 * sy ** -0.5, {0: 1.0, 1: 0.5}), Const(3.0))
        return m.model()

    base = build((1.0, 1.0)).solve()
    for scale in ((7.0, 0.2), (0.01, 3.0)):
        scaled = build(scale).solve()
        assert scaled.status == "optimal"
        assert scaled.x[0] == pytest.approx(scale[0] * base.x[0], rel=1e-6)
        assert scaled.x[1] == pytest.approx(scale[1] * base.x[1], rel=1e-6)
        assert scaled.objective == pytest.approx(base.objective, rel=1e-6)


def test_warm_start_agrees_with_cold(rng):
    prob = random_two_var_problem(np.random.default_rng(7)).model()
    cold = prob.solve()
    prob2 = random_two_var_problem(np.random.default_rng(7)).model()
    warm = prob2.solve(start=cold.x * 0.8)
    assert warm.objective == pytest.approx(cold.objective, rel=1e-7)


STARTS = (None, np.array([50.0, 50.0]))     # feasible start, then phase one


@pytest.mark.parametrize("seed", range(10))
def test_target_below_the_optimum_stops_at_a_strictly_feasible_iterate(seed):
    for start in STARTS:
        prob = random_two_var_problem(np.random.default_rng(seed)).model()
        full = prob.solve(start=start)
        assert full.status == "optimal"
        target = 0.9 * full.objective
        early = prob.solve(start=start, target=target)
        assert early.status == "target_reached"
        assert early.objective >= target
        assert float(prob.constraint_margins(early.x).max()) < 0
        assert early.iterations < full.iterations


@pytest.mark.parametrize("seed", range(10))
def test_target_above_the_optimum_changes_nothing(seed):
    for start in STARTS:
        full = random_two_var_problem(np.random.default_rng(seed)).model().solve(start=start)
        prob = random_two_var_problem(np.random.default_rng(seed)).model()
        capped = prob.solve(start=start, target=1.01 * full.objective)
        assert capped.status == full.status == "optimal"
        assert np.array_equal(capped.x, full.x)
        assert np.array_equal(capped.interior, full.interior)
        assert (capped.objective, capped.iterations, capped.kkt_residual,
                capped.stage_objectives) == (full.objective, full.iterations,
                                             full.kkt_residual, full.stage_objectives)


def weighted_two_var_problem(seed, epigraph):
    """random_two_var_problem plus a posynomial row lhs = c0 + c1 x^a y^b
    <= rhs of weight w; w a and w b exceed the objective's exponents, so
    the optimum leaves the other rows' corner. In epigraph form a third
    variable t replaces the weight: maximize objective * t^w subject to
    t * lhs <= rhs and t >= 1."""
    rng = np.random.default_rng(700 + seed)
    m = random_two_var_problem(rng)
    w = float(rng.uniform(1.0, 2.0))
    exps = [{}, {0: float(rng.uniform(1.5, 3.0)), 1: float(rng.uniform(1.5, 3.0))}]
    coeffs = rng.uniform(0.2, 1.0, 2)
    rhs = Const(float(rng.uniform(5.0, 20.0)))
    if not epigraph:
        m.add_le(Sum([Monomial(c, e) for c, e in zip(coeffs, exps)]), rhs, weight=w)
        return m
    m.variable("t")
    m.add_le(Sum([Monomial(c, {**e, 2: 1.0}) for c, e in zip(coeffs, exps)]), rhs)
    m.add_le(Monomial(1.0, {2: -1.0}), Const(1.0))
    m.maximize(Monomial(1.0, {**m.objective.exponents, 2: w}))
    return m


@pytest.mark.parametrize("seed", range(6))
def test_weighted_row_reaches_its_epigraph_optimum(seed):
    weighted = weighted_two_var_problem(seed, epigraph=False)
    sol = weighted.model().solve(tol=1e-11)
    ref = weighted_two_var_problem(seed, epigraph=True).model().solve(tol=1e-11)
    assert sol.status == ref.status == "optimal"
    assert np.allclose(sol.x, ref.x[:2], rtol=1e-7, atol=0)
    assert sol.objective == pytest.approx(ref.objective, rel=1e-9)
    # the weight moves the optimum: without it the GP is another problem
    weighted.rows[-1].weight = 0.0
    assert not np.allclose(weighted.model().solve(tol=1e-11).x, sol.x, rtol=1e-3)


def test_row_weights_must_be_finite_and_nonnegative():
    for bad in (-0.1, math.nan, math.inf):
        m = Problem()
        x = m.variable("x")
        m.add_le(x, Const(2.0), weight=bad)
        with pytest.raises(GpModelError):
            m.model()
    m = Problem()
    m.variable("x")
    m.add_block_le(gp.TermRows([0.0, 0.0], [[1.0], [1.0]], [1, 1]), [Const(2.0)] * 2,
                   weights=[1.0])
    for walk in (False, True):
        with pytest.raises(GpModelError):
            m.model(walk=walk)


@pytest.mark.parametrize("point", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]],
                                   [0.0, 1.0], [1.0, -1.0], [math.nan, 1.0],
                                   [1.0, math.inf]])
def test_points_must_be_positive_and_one_per_variable(point):
    m = Problem()
    x, y = m.variable("x"), m.variable("y")
    m.maximize(Monomial(1.0, {0: 1.0, 1: 1.0}))
    m.add_le(Sum([x, y]), Const(2.0))
    model = m.model()
    with pytest.raises(GpModelError, match="2 positive, finite values"):
        model.solve(start=point)
    with pytest.raises(GpModelError, match="2 positive, finite values"):
        model.constraint_margins(point)
    assert model.solve(start=[0.5, 0.5]).status == "optimal"


# --------------------------------------------------------------------------
# a model's rows
# --------------------------------------------------------------------------

def node_walk(model, y, weights):
    """Reference for a model's rows: every row of its table on its own as a
    node tree, its right-hand side folded into its terms, Hessians summed one
    dense matrix at a time."""
    parts = [tree.log_eval(y) for tree in nodes.term_trees(model.table)]
    return (np.array([p[0] for p in parts]), np.array([p[1] for p in parts]),
            sum(w * p[2] for w, p in zip(weights, parts)))


def test_posynomial_fold_matches_node_walk(monkeypatch, rng):
    # capture the GPs of a joint solve (SINR rows with factors, energy rows)
    # and of the fixed-pilot scheme (its SINR and payload-cap rows are plain
    # posynomials): each is one term table, right-hand sides in its terms
    from cfurllc import optimizer
    from cfurllc.scenario import SystemConfig, generate_topology
    solved = []
    original = GpModel.solve

    def capture(self, *args, **kwargs):
        sol = original(self, *args, **kwargs)
        solved.append((self, sol))
        return sol

    monkeypatch.setattr(GpModel, "solve", capture)
    cfg = SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12,
                       energy_budget=5e12)
    model = generate_topology(cfg, seed=7)
    assert optimizer.solve(model, cfg, "mrc").feasible
    assert optimizer.benchmark_fixed_pilot(model, cfg, "fzf").feasible
    assert all(type(m.table) is gp.TermRows for m, _ in solved)
    # the joint GPs' tables have factors, the fixed-pilot ones none
    assert {m.table.b.size == 0 for m, _ in solved} == {False, True}
    for m, sol in solved:
        for _ in range(3):
            y = np.log(sol.x) + rng.normal(0.0, 0.3, sol.x.size)
            weights = rng.uniform(0.1, 3.0, m.weights.size)
            vals, jac, hess = m.log_eval(y)
            ref_vals, ref_jac, ref_hess = node_walk(m, y, weights)
            assert np.allclose(vals, ref_vals, rtol=1e-12, atol=1e-11)
            assert np.allclose(jac, ref_jac, rtol=1e-12, atol=1e-11)
            assert np.allclose(hess(weights), ref_hess, rtol=1e-10, atol=1e-10)


def test_mixed_rows_solve_to_the_node_walk_optimum():

    def build(seed, walk):
        prob = random_two_var_problem(np.random.default_rng(seed))
        prob.add_le(Monomial(0.5, {0: 1.0, 1: -0.3}), Const(40.0))
        # walk: every row in one table that walks its node graph
        return prob.model(walk=walk)

    for seed in range(8):
        mixed = build(500 + seed, walk=False)
        assert type(mixed.table) is gp.TermRows
        walked = build(500 + seed, walk=True)
        assert type(walked.table) is nodes.NodeRows
        a, b = mixed.solve(), walked.solve()
        assert a.status == b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, rel=1e-8)
        assert np.allclose(a.x, b.x, rtol=1e-6)
        assert float(mixed.constraint_margins(a.x).max()) <= 1e-8


def test_solver_failure_is_a_status(monkeypatch):

    def broken(hess, grad):
        raise gp.GpError("Newton system could not be factorized")

    monkeypatch.setattr(gp, "_newton_direction", broken)
    for start in (None, np.array([50.0, 50.0])):     # feasible start, then phase one
        sol = random_two_var_problem(np.random.default_rng(3)).model().solve(start=start)
        assert sol.status == "numerical_error"
        assert sol.message == "Newton system could not be factorized"
        assert np.all(np.isfinite(sol.x))


def test_unbounded_gp_is_a_status():
    m = Problem()
    m.variable("x")
    m.maximize(Monomial(1.0, {0: 1.0}))
    m.add_le(Monomial(1.0, {0: -1.0}), Const(1.0))       # 1/x <= 1
    for start in (None, np.array([2.0])):     # through phase one, then a feasible start
        sol = m.model().solve(start=start)
        assert sol.status == "numerical_error"
        assert "overflow" in sol.message
        assert sol.objective == math.inf


def test_newton_budget_is_a_status(monkeypatch):
    for start in (None, np.array([50.0, 50.0])):     # feasible start, then phase one
        full = random_two_var_problem(np.random.default_rng(3)).model().solve(start=start)
        assert full.status == "optimal"
        for budget in (1, full.iterations - 1):
            prob = random_two_var_problem(np.random.default_rng(3)).model()
            monkeypatch.setattr(gp, "MAX_NEWTON", budget)
            short = prob.solve(start=start)
            monkeypatch.undo()
            assert short.status == "max_iterations"
            assert short.iterations == budget
            assert np.all(np.isfinite(short.x))
        # out of steps in phase two: the last iterate is still strictly feasible
        assert float(prob.constraint_margins(short.x).max()) < 0


# --------------------------------------------------------------------------
# the primal-dual iteration and its warm start
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_step_gps():
    """Step GPs of desk MRC and FZF solves at two energy budgets, with their
    starts; the 5e12 solve's GPs come last."""
    from cfurllc import optimizer
    from cfurllc.scenario import SystemConfig, generate_topology
    captured = {"mrc": [], "fzf": []}
    original = GpModel.solve

    def capture(self, tol=1e-9, start=None, **kwargs):
        sol = original(self, tol, start, **kwargs)
        if self.weights.any():                  # a step GP, not a max-slack one
            captured[decoder].append((self, start, sol, tol))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GpModel, "solve", capture)
        for energy in (2e12, 5e12):
            cfg = SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12,
                               energy_budget=energy)
            model = generate_topology(cfg, seed=7)
            for decoder in ("mrc", "fzf"):
                assert optimizer.solve(model, cfg, decoder).status == "optimal"
    return captured


def record_iterates(monkeypatch):
    """Every (t0, iterate) the primal-dual iteration yields, phase one
    included, in call order; t0 is the barrier parameter it starts from."""
    seen = []
    original = gp._primal_dual

    def spy(rows, g0, c, z, first, t, limit):
        for it in original(rows, g0, c, z, first, t, limit):
            seen.append((t, it))
            yield it

    monkeypatch.setattr(gp, "_primal_dual", spy)
    return seen


def warm_solves(desk_step_gps, decoder):
    """The step GPs the SCA started from a strictly feasible interior point."""
    out = [g for g in desk_step_gps[decoder] if isinstance(g[1], np.ndarray)
           and float(g[0].constraint_margins(g[1]).max()) < 0]
    assert out, "the SCA never warm-started a step GP from an interior point"
    return out


def t_max(model, tol):
    return model.weights.size / max(tol, 1e-3) / 10.0


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_warm_interior_start_reaches_cold_optimum_in_fewer_steps(
        decoder, desk_step_gps, monkeypatch):
    for model, start, sol, tol in warm_solves(desk_step_gps, decoder):
        cold = model.solve(tol=tol)
        assert cold.status == sol.status == "optimal"
        assert sol.objective == pytest.approx(cold.objective, rel=1e-7)
        assert sol.iterations < cold.iterations
        # the warm solve skips phase one: one primal-dual run over the n variables
        seen = record_iterates(monkeypatch)
        again = model.solve(tol=tol, start=start)
        assert again.iterations == sol.iterations
        assert {it.z.size for _, it in seen} == {model.table.columns}
        monkeypatch.undo()


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_newton_center_accepts_only_strictly_feasible_points(
        decoder, desk_step_gps, monkeypatch):
    # each primal-dual step is a Newton step on the centered KKT system; the
    # line search must accept only points with f < 0 and lambda > 0. Every
    # GP is solved from its own start, strictly feasible, and from 1.5 times
    # its optimum, outside the domain, so through phase one too
    seen = record_iterates(monkeypatch)
    phase_one = 0
    for model, start, sol, tol in desk_step_gps[decoder]:
        n = model.table.columns
        slack = gp.max_slack(model.table.relax(np.arange(model.table.size)))
        outside = 1.5 * sol.x
        assert float(model.constraint_margins(outside).max()) > 0
        for begin in (start, outside):
            before = len(seen)
            again = model.solve(tol=tol, start=begin)
            phases = {n + 1: [], n: []}
            for _, it in seen[before:]:
                assert np.all(it.f < 0) and np.all(it.lam > 0)
                phases[it.z.size].append(it)
                # phase two's rows are the model's own, phase one's those of
                # the max-slack GP of every row
                rows = model if it.z.size == n else slack
                assert np.array_equal(it.f, rows.log_eval(it.z)[0])
            for run in phases.values():
                assert [it.steps for it in run] == list(range(len(run)))
            assert again.iterations == sum(len(run) - 1 for run in phases.values() if run)
            phase_one += bool(phases[n + 1])
    assert phase_one == len(desk_step_gps[decoder]) and len(seen) > 40


def independent_certificate(model, y, lam):
    """Surrogate gap and scaled dual residual of (y, lam), recomputed from
    the model's rows and objective: -log monomial + sum_i w_i f_i."""
    f, jac, _ = model.log_eval(y)
    g0 = -model.objective[1] + jac.T @ model.weights
    dual = np.max(np.abs(g0 + jac.T @ lam)) / (1.0 + np.max(np.abs(g0)))
    return -float(f @ lam), float(dual)


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_optimal_return_meets_the_gap_and_dual_residual_tolerance(
        decoder, desk_step_gps, monkeypatch):
    seen = record_iterates(monkeypatch)
    problems = [(g[0], g[1], g[3]) for g in desk_step_gps[decoder]]
    problems += [(random_two_var_problem(np.random.default_rng(900 + i)).model(), None, 1e-9)
                 for i in range(6)]
    for model, start, tol in problems:
        sol = model.solve(tol=tol, start=start)
        assert sol.status == "optimal"
        last = seen[-1][1]
        assert np.array_equal(np.exp(last.z), sol.x)
        eta, dual = independent_certificate(model, last.z, last.lam)
        assert eta <= tol and dual <= tol
        assert 0.0 < sol.kkt_residual <= tol
        # the certificate is the iterate's own: a step short of it is not optimal
        if len(seen) >= 2 and seen[-2][1].z.size == last.z.size:
            prev = seen[-2][1]
            assert prev.eta > tol or prev.dual > tol


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_start_outside_the_domain_goes_through_phase_one(
        decoder, desk_step_gps, monkeypatch):
    model, _, sol, tol = desk_step_gps[decoder][-1]
    outside = 1.5 * sol.x
    assert float(model.constraint_margins(outside).max()) > 0
    seen = record_iterates(monkeypatch)
    again = model.solve(tol=tol, start=outside)
    n = model.table.columns
    sizes = [it.z.size for _, it in seen]
    assert sizes[0] == n + 1 and sizes[-1] == n
    assert sizes == sorted(sizes, reverse=True)     # phase one, then phase two
    # phase one hands over the first point with margin below -_PHASE1_MARGIN
    handover = seen[sizes.index(n)][1].z
    assert float(model.constraint_margins(np.exp(handover)).max()) < -gp._PHASE1_MARGIN
    assert again.status == "optimal"
    assert again.objective == pytest.approx(sol.objective, rel=1e-7)


def test_phase_one_from_random_starts(monkeypatch):
    # log-uniform starts in [1e-2, 1e2] per variable, inside the domain and
    # outside it: every solve reaches the optimum of the start=None solve,
    # phase one hands over a point that clears every row by _PHASE1_MARGIN,
    # and the infeasible GP stays infeasible from the same starts
    rng = np.random.default_rng(2024)
    infeasible = infeasible_problem()
    seen = record_iterates(monkeypatch)
    inside = outside = 0
    for seed in range(8):
        prob = random_two_var_problem(np.random.default_rng(seed)).model()
        cold = prob.solve()
        for _ in range(6):
            start = 10.0 ** rng.uniform(-2.0, 2.0, 2)
            before = len(seen)
            sol = prob.solve(start=start)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(cold.objective, rel=1e-7)
            runs = [it for _, it in seen[before:]]
            if runs[0].z.size == 2:
                assert float(prob.constraint_margins(start).max()) < gp._PHASE1_SKIP
                inside += 1
            else:
                handover = next(it.z for it in runs if it.z.size == 2)
                assert float(prob.log_eval(handover)[0].max()) < -gp._PHASE1_MARGIN
                outside += 1
            assert infeasible.solve(start=start[:1]).status == "infeasible"
    assert inside > 5 and outside > 5


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_barrier_start_is_clamped_and_falls_back(
        decoder, desk_step_gps, monkeypatch):
    seen = record_iterates(monkeypatch)
    model, start, sol, tol = desk_step_gps[decoder][-1]
    n = model.table.columns

    def phase_two_t0():
        t0, first = next((t, it) for t, it in seen if it.z.size == n)
        assert np.allclose(first.lam, 1.0 / (t0 * -first.f), rtol=0, atol=0)
        return t0

    # phase one runs from the all-ones point, so phase two starts at BARRIER_T0
    assert float(model.constraint_margins(np.ones(n)).max()) > 0
    model.solve(tol=tol)
    assert phase_two_t0() == gp.BARRIER_T0
    # the previous interior point starts strictly inside the clamp
    seen.clear()
    model.solve(tol=tol, start=start)
    assert gp.BARRIER_T0 < phase_two_t0() < t_max(model, tol)
    # the optimum is centered for a huge t, which the clamp caps
    seen.clear()
    again = model.solve(tol=tol, start=sol.x)
    assert phase_two_t0() == pytest.approx(t_max(model, tol), rel=1e-12)
    assert again.objective == pytest.approx(sol.objective, rel=1e-7)


def test_barrier_start_falls_back_when_estimate_is_not_positive(monkeypatch):
    # maximize x on 1e-3 <= x <= 5: next to the lower bound the barrier
    # gradient pulls the same way as the objective, so no t > 0 centers it
    prob = Problem()
    x = prob.variable("x")
    prob.maximize(x)
    prob.add_le(x, Const(5.0))
    prob.add_le(Monomial(1e-3, {0: -1.0}), Const(1.0))
    m = prob.model()
    y = np.log([1.1e-3])
    assert m._warm_barrier_t(m.log_eval(y), -m.objective[1], 1e-9) == gp.BARRIER_T0
    seen = record_iterates(monkeypatch)
    sol = m.solve(start=np.exp(y))
    assert seen[0][0] == gp.BARRIER_T0 and seen[0][1].z.size == 1
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(5.0, rel=1e-7)


def test_line_search_evaluates_each_point_once(desk_step_gps, monkeypatch):
    # the rows of an accepted trial point serve its Newton step, so no point
    # is evaluated twice, and only points inside the domain become iterates
    points = rejected = 0
    for model, start, _, tol in (warm_solves(desk_step_gps, "mrc")
                                 + warm_solves(desk_step_gps, "fzf")):
        calls = []
        original = model.log_eval

        def spy(y, original=original, calls=calls):
            out = original(y)
            calls.append((y.tobytes(), bool(np.all(out[0] < 0))))
            return out

        monkeypatch.setattr(model, "log_eval", spy)
        seen = record_iterates(monkeypatch)
        model.solve(tol=tol, start=start)
        monkeypatch.undo()
        assert len({y for y, _ in calls}) == len(calls)
        assert seen and all(np.all(it.f < 0) for _, it in seen)
        points += len(calls)
        rejected += sum(1 for _, inside in calls if not inside)
    assert rejected > 0 and points > rejected


def test_step_gps_solve_without_floating_point_warnings(desk_step_gps):
    # derivatives are computed at every trial point, the rejected ones too
    for model, start, sol, tol in desk_step_gps["mrc"] + desk_step_gps["fzf"]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = model.solve(tol=tol, start=start)
        assert again.status == sol.status


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_warm_step_gps_converge_in_few_newton_steps(decoder, desk_step_gps):
    # Newton directions from the full primal-dual matrix converge fast near
    # the central path; a direction missing curvature or centering does not
    steps = [sol.iterations for _, _, sol, _ in desk_step_gps[decoder]]
    assert max(steps) <= 40
    assert np.median(steps) <= 30


def test_line_search_skips_only_points_outside_the_domain(monkeypatch):
    # the rows are convex in the log variables, so f + s J d bounds them from
    # below and a positive bound rules a trial point out unevaluated; replay
    # every line search of desk solves' max-slack and step GPs, evaluate each
    # skipped point anyway and find a row >= 0 there
    from cfurllc import optimizer
    from cfurllc.scenario import SystemConfig, generate_topology
    searches, active = [], []
    original, direction = gp._primal_dual, gp._newton_direction

    def spy(rows, g0, c, z, first, t, limit):
        run = {"rows": rows, "t": t, "iterates": [], "steps": [],
               "evals": {z.tobytes(): first[:2]}}

        def recorded(y):
            out = rows(y)
            run["evals"][y.tobytes()] = out[:2]
            return out

        searches.append(run)
        iterates = original(recorded, g0, c, z, first, t, limit)
        while True:
            active.append(run)
            try:
                it = next(iterates)
            finally:
                active.pop()
            run["iterates"].append(it)
            yield it

    def newton(hess, grad):
        step = direction(hess, grad)
        if active:
            active[-1]["steps"].append(step)
        return step

    monkeypatch.setattr(gp, "_primal_dual", spy)
    monkeypatch.setattr(gp, "_newton_direction", newton)
    cfg = SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12, energy_budget=5e12)
    model = generate_topology(cfg, seed=1)
    for decoder in ("mrc", "fzf"):
        del searches[:]
        assert optimizer.solve(model, cfg, decoder).status == "optimal"
        skipped = evaluated = 0
        for run in searches:
            t, held = run["t"], True
            for it, step in zip(run["iterates"], run["steps"]):
                # the barrier parameter and multiplier step of _primal_dual
                m = it.f.size
                if held and it.dual <= it.eta / m:
                    held = False
                if not held:
                    t = gp.GAP_REDUCTION * m / it.eta
                f, jac = run["evals"][it.z.tobytes()]
                jd = jac @ step
                dlam = it.lam / -f * jd - it.lam + 1.0 / (t * -f)
                shrinking = dlam < 0
                s = min(1.0, float(np.min(-it.lam[shrinking] / dlam[shrinking]))) \
                    if np.any(shrinking) else 1.0
                s *= gp.BOUNDARY_FRACTION
                while np.any(f + s * jd > 0):
                    with np.errstate(all="ignore"):
                        cf = run["rows"](it.z + s * step)[0]
                    assert np.any(cf >= 0)
                    skipped += 1
                    s *= gp.BACKTRACK_SHRINK
                # the replay is exact: the first point not skipped was evaluated
                assert (it.z + s * step).tobytes() in run["evals"]
                evaluated += 1
        assert skipped > 0 and evaluated > 20, (decoder, skipped, evaluated)
