import math

import numpy as np
import pytest

import gp_nodes as nodes
from cfurllc import gp
from cfurllc.gp import Const, Expr, GpModel, GpModelError, Monomial, Sum


def random_expr(rng, n_vars, model, depth=0):
    """Random generalized-posynomial node tree over the model's variables, for
    the node walk that serves as the oracle below."""
    choice = rng.integers(0, 6 if depth < 3 else 3)
    if choice == 0:
        return Const(float(10 ** rng.uniform(-1, 1)))
    if choice == 1:
        return model._vars[int(rng.integers(n_vars))]
    if choice == 2:
        exps = {int(i): float(rng.uniform(-2, 2))
                for i in rng.choice(n_vars, size=rng.integers(1, n_vars + 1),
                                    replace=False)}
        return Monomial(float(10 ** rng.uniform(-1, 1)), exps)
    if choice == 3:
        return nodes.Sum([random_expr(rng, n_vars, model, depth + 1)
                          for _ in range(rng.integers(2, 4))])
    if choice == 4:
        return nodes.Product([random_expr(rng, n_vars, model, depth + 1)
                              for _ in range(rng.integers(2, 4))])
    return nodes.Power(random_expr(rng, n_vars, model, depth + 1),
                       float(rng.uniform(0.2, 2.0)))


def fd_check(expr, y, tol_g=1e-6, tol_h=1e-5):
    eps = 1e-6
    _, g, h = nodes.log_eval(expr, y)
    for i in range(y.size):
        up, dn = y.copy(), y.copy()
        up[i] += eps
        dn[i] -= eps
        (vu, gu, _), (vd, gd, _) = nodes.log_eval(expr, up), nodes.log_eval(expr, dn)
        fd = (vu - vd) / (2 * eps)
        assert abs(g[i] - fd) < tol_g, f"grad[{i}]"
        col = (gu - gd) / (2 * eps)
        assert np.max(np.abs(h[:, i] - col)) < tol_h, f"hess[:, {i}]"


# --------------------------------------------------------------------------
# expression algebra
# --------------------------------------------------------------------------

def test_monomial_log_form_is_affine():
    m = GpModel()
    x = m.variable("x")
    y = m.variable("y")
    node = Monomial(3.0, {0: 2.0, 1: -0.5})
    pt = np.array([0.3, -0.7])
    val, g = node.log_eval(pt, 1)
    assert val == pytest.approx(math.log(3.0) + 2.0 * 0.3 - 0.5 * (-0.7))
    assert np.allclose(g, [2.0, -0.5])
    assert node.log_eval(pt, 0) == (val, None)


def test_constraint_rhs_must_be_monomial():
    m = GpModel()
    x = m.variable("x")
    with pytest.raises(GpModelError):
        m.add_le(x, Sum([x, Const(1.0)]))


def test_objective_must_be_monomial_for_max():
    m = GpModel()
    x = m.variable("x")
    with pytest.raises(GpModelError):
        m.maximize(Sum([x, Const(1.0)]))


def test_foreign_left_hand_side_rejected_when_added():
    class Foreign(Expr):
        def dump(self):
            return "(foreign)"

    m = GpModel()
    x = m.variable("x")
    m.maximize(x)
    with pytest.raises(GpModelError, match="Foreign"):
        m.add_le(Foreign(), Const(1.0))
    with pytest.raises(GpModelError):
        Sum([x, Foreign()])
    assert m._constraints == []


def test_node_derivatives_match_finite_differences(rng):
    for trial in range(40):
        m = GpModel()
        n_vars = int(rng.integers(2, 5))
        for i in range(n_vars):
            m.variable(f"v{i}")
        expr = nodes.Sum([random_expr(rng, n_vars, m) for _ in range(2)])
        y = rng.normal(0.0, 0.7, n_vars)
        fd_check(expr, y)


def test_fused_family_matches_generic_tree(rng):
    m = GpModel()
    x = m.variable("x")
    b = np.array([2.0, 0.5, 1.3])
    pps = nodes.PosyProductSum(x, np.log([1.5, 0.2]), [1.0, 0.0], b,
                               [[1.0, 1.0, 0.0], [0.5, 0.0, 2.0]])
    factors = [Sum([Monomial(bi, {0: 1.0}), Const(1.0)]) for bi in b]
    generic = nodes.Sum([
        nodes.Product([Monomial(1.5, {0: 1.0}), factors[0], factors[1]]),
        nodes.Product([Const(0.2), nodes.Power(factors[0], 0.5),
                       nodes.Power(factors[2], 2.0)]),
    ])
    for _ in range(20):
        y = rng.normal(0.0, 1.5, 1)
        v1, g1, h1 = pps.log_eval(y)
        v2, g2, h2 = nodes.log_eval(generic, y)
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert g1[0] == pytest.approx(g2[0], abs=1e-11)
        assert h1[0, 0] == pytest.approx(h2[0, 0], abs=1e-10)


def test_posynomial_boundary_tightness():
    # x + 1/x <= 2 touches exactly at x = 1
    m = GpModel()
    x = m.variable("x")
    m.maximize(x)
    m.add_le(Sum([x, Monomial(1.0, {0: -1.0})]), Const(2.0))
    margins = m.constraint_margins(np.array([1.0]))
    assert margins[0] == pytest.approx(0.0, abs=1e-14)


# --------------------------------------------------------------------------
# solver behavior
# --------------------------------------------------------------------------

def test_single_active_constraint():
    m = GpModel()
    chi = m.variable("chi")
    m.maximize(chi)
    m.add_le(chi, Const(5.0))
    sol = m.solve()
    assert sol.status == "optimal"
    assert sol["chi"] == pytest.approx(5.0, rel=1e-7)
    assert sol.kkt_residual < 1e-8


def test_symmetric_posynomial_minimum():
    # min x + 1/x as its epigraph: max 1/t subject to x + 1/x <= t
    m = GpModel()
    x = m.variable("x")
    t = m.variable("t")
    m.maximize(Monomial(1.0, {1: -1.0}))
    m.add_le(Sum([x, Monomial(1.0, {0: -1.0})]), t)
    m.add_le(x, Const(100.0))
    sol = m.solve()
    assert sol.status == "optimal"
    assert sol["x"] == pytest.approx(1.0, abs=1e-5)
    assert sol["t"] == pytest.approx(2.0, rel=1e-9)
    assert sol.objective == pytest.approx(0.5, rel=1e-9)


def test_infeasible_detection():
    m = GpModel()
    x = m.variable("x")
    m.maximize(x)
    m.add_le(Monomial(3.0, {0: -1.0}), Const(1.0))   # x >= 3
    m.add_le(x, Const(2.0))
    sol = m.solve()
    assert sol.status == "infeasible"
    assert math.isnan(sol.objective)


def test_optimal_solutions_satisfy_all_constraints(rng):
    from cfurllc.cli import random_two_var_problem
    for i in range(20):
        prob = random_two_var_problem(np.random.default_rng(100 + i))
        sol = prob.solve()
        assert sol.status == "optimal"
        assert float(prob.constraint_margins(sol.x).max()) <= 1e-8
        assert sol.kkt_residual < 1e-8


def test_stage_objectives_monotone(rng):
    from cfurllc.cli import random_two_var_problem
    for i in range(10):
        prob = random_two_var_problem(np.random.default_rng(300 + i))
        sol = prob.solve()
        stages = np.array(sol.stage_objectives)
        assert np.all(np.diff(stages) >= -1e-7 * np.abs(stages[:-1]))


def test_grid_oracle_agreement(rng):
    from cfurllc.cli import grid_optimum, random_two_var_problem
    for i in range(12):
        prob = random_two_var_problem(np.random.default_rng(40 + i))
        sol = prob.solve()
        assert sol.status == "optimal"
        ref = grid_optimum(prob)
        assert abs(sol.objective - ref) / ref < 1e-3


def test_scaling_invariance(rng):
    # rebuilding the problem in variables x' = c x returns c times the optimum
    def build(scale):
        sx, sy = scale
        m = GpModel()
        x = m.variable("x")
        y = m.variable("y")
        # objective x^1.2 y^0.7 expressed in scaled variables
        m.maximize(Monomial(sx ** -1.2 * sy ** -0.7, {0: 1.2, 1: 0.7}))
        # x + y <= 5
        m.add_le(Sum([Monomial(1.0 / sx, {0: 1.0}), Monomial(1.0 / sy, {1: 1.0})]),
                 Const(5.0))
        # x * sqrt(y) <= 3
        m.add_le(Monomial(sx ** -1.0 * sy ** -0.5, {0: 1.0, 1: 0.5}), Const(3.0))
        return m

    base = build((1.0, 1.0)).solve()
    for scale in ((7.0, 0.2), (0.01, 3.0)):
        scaled = build(scale).solve()
        assert scaled.status == "optimal"
        assert scaled["x"] == pytest.approx(scale[0] * base["x"], rel=1e-6)
        assert scaled["y"] == pytest.approx(scale[1] * base["y"], rel=1e-6)
        assert scaled.objective == pytest.approx(base.objective, rel=1e-6)


def test_warm_start_agrees_with_cold(rng):
    from cfurllc.cli import random_two_var_problem
    prob = random_two_var_problem(np.random.default_rng(7))
    cold = prob.solve()
    prob2 = random_two_var_problem(np.random.default_rng(7))
    warm = prob2.solve(start={"x": cold["x"] * 0.8, "y": cold["y"] * 0.8})
    assert warm.objective == pytest.approx(cold.objective, rel=1e-7)


def test_dump_is_parenthesized_text():
    m = GpModel()
    x = m.variable("x")
    m.maximize(x)
    m.add_le(Sum([x, Monomial(1.0, {0: -1.0})]), Const(2.0))
    text = m.dump()
    assert text.startswith("(gp")
    assert "(vars x)" in text
    assert "(le (+ " in text


# --------------------------------------------------------------------------
# the compiled constraint block
# --------------------------------------------------------------------------

def node_walk(model, y, weights):
    """Reference for the compiled block: every row on its own, Hessians summed
    one dense matrix at a time."""
    n = y.size
    vals, jac, hess = [], [], np.zeros((n, n))
    for c in model._constraints:
        if isinstance(c, gp._BlockConstraint):
            v, j, h = c.lhs.log_eval(y, 2)
            rhs = [r.log_eval(y, 1) for r in c.rhs]
            vals += list(v - [r[0] for r in rhs])
            jac += list(j - [r[1] for r in rhs])
            hess += h(weights[len(vals) - c.lhs.size:len(vals)])
            continue
        lv, lg, lh = nodes.log_eval(c.lhs, y)
        rv, rg = c.rhs.log_eval(y, 1)
        vals.append(lv - rv)
        jac.append(lg - rg)
        hess += weights[len(vals) - 1] * lh
    return np.array(vals), np.array(jac), hess


def test_posynomial_fold_matches_node_walk(monkeypatch, rng):
    # capture the GPs of a joint solve (energy rows) and of the fixed-pilot
    # scheme (its SINR rows are plain posynomials)
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
    folded = 0
    for m, sol in solved:
        parts = [type(block) for _, block in m._block().parts]
        folded += parts.count(gp._PosynomialRows)
        for _ in range(3):
            y = np.log(sol.x) + rng.normal(0.0, 0.3, sol.x.size)
            weights = rng.uniform(0.1, 3.0, m._block().size)
            vals, jac, hess = m._constraint_eval(y, 2)
            ref_vals, ref_jac, ref_hess = node_walk(m, y, weights)
            assert np.allclose(vals, ref_vals, rtol=1e-12, atol=1e-11)
            assert np.allclose(jac, ref_jac, rtol=1e-12, atol=1e-11)
            assert np.allclose(hess(weights), ref_hess, rtol=1e-10, atol=1e-10)
    assert folded == len(solved)


def test_mixed_rows_solve_to_the_node_walk_optimum():
    from cfurllc.cli import random_two_var_problem

    def build(seed, walk):
        prob = random_two_var_problem(np.random.default_rng(seed))
        prob.add_le(Monomial(0.5, {0: 1.0, 1: -0.3}), Const(40.0))
        if walk:
            # every row in one block that walks its node graph
            rows, prob._constraints = prob._constraints, []
            prob.add_block_le(nodes.NodeRows([c.lhs for c in rows]),
                              [c.rhs for c in rows])
        return prob

    for seed in range(8):
        mixed = build(500 + seed, walk=False)
        kinds = {type(block) for _, block in mixed._block().parts}
        assert kinds == {gp._AffineRows, gp._PosynomialRows}
        walked = build(500 + seed, walk=True)
        assert {type(block) for _, block in walked._block().parts} == {gp._RhsDivided}
        a, b = mixed.solve(), walked.solve()
        assert a.status == b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, rel=1e-8)
        assert np.allclose(a.x, b.x, rtol=1e-6)
        assert float(mixed.constraint_margins(a.x).max()) <= 1e-8


def test_solver_failure_is_a_status(monkeypatch):
    from cfurllc.cli import random_two_var_problem

    def broken(hess, grad):
        raise gp.GpError("Newton system could not be factorized")

    monkeypatch.setattr(gp, "_newton_direction", broken)
    for start in (None, {"x": 50.0, "y": 50.0}):     # feasible start, then phase one
        sol = random_two_var_problem(np.random.default_rng(3)).solve(start=start)
        assert sol.status == "numerical_error"
        assert sol.message == "Newton system could not be factorized"
        assert np.all(np.isfinite(sol.x))


# --------------------------------------------------------------------------
# Newton steps and the warm barrier start
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_step_gps():
    """Step GPs of one desk MRC and one desk FZF solve, with their starts."""
    from cfurllc import optimizer
    from cfurllc.scenario import SystemConfig, generate_topology
    cfg = SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12,
                       energy_budget=5e12)
    model = generate_topology(cfg, seed=7)
    captured = {}
    original = GpModel.solve

    def capture(self, tol=1e-9, start=None, max_newton=4000):
        sol = original(self, tol, start, max_newton)
        if "chi0" in self.names:
            captured[decoder].append((self, start, sol, tol))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GpModel, "solve", capture)
        for decoder in ("mrc", "fzf"):
            captured[decoder] = []
            assert optimizer.solve(model, cfg, decoder).status == "optimal"
    return captured


def record_barrier(monkeypatch):
    """Every (t, y, order, model) the barrier stages evaluate, in call order.

    The warm start evaluates the bare barrier (t = 0) before the first stage.
    """
    seen = []
    original = GpModel._barrier_parts

    def spy(self, y, order, t, f0_ref=0.0):
        seen.append((t, y.copy(), order, self))
        return original(self, y, order, t, f0_ref)

    monkeypatch.setattr(GpModel, "_barrier_parts", spy)
    return seen


def first_stage_t(seen):
    return next(t for t, _, _, _ in seen if t > 0)


def t_max(model, tol):
    return model._block().size / max(tol, 1e-3) / 10.0


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_warm_interior_start_reaches_cold_optimum_in_fewer_steps(
        decoder, desk_step_gps, monkeypatch):
    warm_solves = [g for g in desk_step_gps[decoder] if isinstance(g[1], np.ndarray)]
    assert warm_solves, "the SCA never warm-started a step GP from an interior point"
    for model, start, sol, tol in warm_solves:
        cold = model.solve(tol=tol)
        assert cold.status == sol.status == "optimal"
        assert sol.objective == pytest.approx(cold.objective, rel=1e-7)
        assert sol.iterations < cold.iterations
        with monkeypatch.context() as mp:
            mp.setattr(GpModel, "_warm_barrier_t", lambda self, y, t_max: gp.BARRIER_T0)
            at_t0 = model.solve(tol=tol, start=start)
        assert at_t0.objective == pytest.approx(cold.objective, rel=1e-7)
        assert sol.iterations < at_t0.iterations


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_barrier_start_is_clamped_and_falls_back(decoder, desk_step_gps, monkeypatch):
    seen = record_barrier(monkeypatch)
    model, start, sol, tol = desk_step_gps[decoder][-1]
    # phase one runs from the all-ones point, so the barrier starts cold
    assert float(model.constraint_margins(np.ones(len(model.names))).max()) > 0
    model.solve(tol=tol)
    assert first_stage_t(seen) == gp.BARRIER_T0
    # the previous interior point starts strictly inside the clamp
    seen.clear()
    model.solve(tol=tol, start=start)
    assert gp.BARRIER_T0 < first_stage_t(seen) < t_max(model, tol)
    # the optimum is centered for a huge t, which the clamp caps so the
    # first stage still runs above the KKT check's m/t threshold
    seen.clear()
    again = model.solve(tol=tol, start=sol.x)
    assert first_stage_t(seen) == pytest.approx(t_max(model, tol), rel=1e-12)
    assert again.objective == pytest.approx(sol.objective, rel=1e-7)


def test_barrier_start_falls_back_when_estimate_is_not_positive(monkeypatch):
    # maximize x on 1e-3 <= x <= 5: next to the lower bound the barrier
    # gradient pulls the same way as the objective, so no t > 0 centers it
    m = GpModel()
    x = m.variable("x")
    m.maximize(x)
    m.add_le(x, Const(5.0))
    m.add_le(Monomial(1e-3, {0: -1.0}), Const(1.0))
    y = np.log([1.1e-3])
    assert m._warm_barrier_t(y, 1e6) == gp.BARRIER_T0
    seen = record_barrier(monkeypatch)
    sol = m.solve(start=np.exp(y))
    assert first_stage_t(seen) == gp.BARRIER_T0
    assert sol.status == "optimal"
    assert sol["x"] == pytest.approx(5.0, rel=1e-7)


@pytest.mark.parametrize("decoder", ["mrc", "fzf"])
def test_newton_center_accepts_only_strictly_feasible_points(
        decoder, desk_step_gps, monkeypatch):
    seen = record_barrier(monkeypatch)
    for model, start, _, tol in desk_step_gps[decoder]:
        model.solve(tol=tol, start=start)
    accepted = [(y, model) for _, y, order, model in seen if order == 2]
    assert len(accepted) > 50
    for y, model in accepted:
        assert float(model._constraint_eval(y, 0)[0].max()) < 0


def test_newton_center_takes_the_full_step_first():
    # on a quadratic the full Newton step lands on the minimizer and passes
    # the Armijo test, so one step and one stopping check are all it takes
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -2.0])

    def parts(y, order):
        val = 0.5 * y @ a @ y - b @ y
        return val, (a @ y - b if order >= 1 else None), (a if order == 2 else None)

    budget = gp._IterBudget(50)
    y = gp._newton_center(parts, np.array([40.0, -30.0]), budget)
    assert np.allclose(y, np.linalg.solve(a, b), rtol=1e-12, atol=1e-12)
    assert budget.used == 2
