import dataclasses
import math

import numpy as np
import pytest
from conftest import random_model

import gp_nodes as nodes
from cfurllc import approx, fbl, gp, optimizer
from cfurllc.channel import estimation_stats
from cfurllc.optimizer import (FZF, MRC, SurrogateError, benchmark_conventional, benchmark_fixed_pilot,
                               benchmark_upper_bound, feasibility_init,
                               sinr_floor, sinr_floors, solve_fzf, solve_mrc)
from cfurllc.scenario import SystemConfig, generate_topology

DESK = SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12,
                    ap_select_threshold=0.9, energy_budget=5e12,
                    gp_tolerance=1e-8)


def desk_model(seed=7):
    return generate_topology(DESK, seed=seed)


def grid_best_rate(cfg, beta, decoder, points=900):
    """Exhaustive log-grid search over pilot/payload power for one device.

    Independent oracle: evaluates the closed-form SINR and rate formulas on a
    dense grid under the energy budget and returns the best feasible rate plus
    the largest rate seen anywhere (the single-device capacity proxy).
    """
    energy = cfg.energy_budget
    ldata = cfg.blocklength - 1
    params = fbl.FblParams.from_config(cfg)
    n = cfg.antennas_per_ap
    pp = np.logspace(math.log10(energy) - 7, math.log10(energy), points)
    pd = np.logspace(math.log10(energy / ldata) - 7,
                     math.log10(energy / ldata), points)
    ppg, pdg = np.meshgrid(pp, pd, indexing="ij")
    ok = ppg + ldata * pdg <= energy
    lam = ppg * beta ** 2 / (ppg * beta + 1.0)
    if decoder == MRC:
        gamma = n * pdg * lam ** 2 / (pdg * lam * beta + lam)
    else:
        gamma = pdg * (n - 1) * lam / (1.0 + pdg * (beta - lam))
    alpha = float(params.alpha[0])
    rate = np.maximum(params.rate_scale * fbl.rate_kernel(1.0 / gamma, alpha), 0.0)
    rate[~ok] = 0.0
    best_any = float(rate.max())
    rate[rate < cfg.rate_req_bps] = 0.0
    return float(rate.max()), best_any


# --------------------------------------------------------------------------
# SINR floors
# --------------------------------------------------------------------------

def test_floor_closed_form_without_penalty():
    cfg = SystemConfig(num_devices=5, antennas_per_ap=12)
    params = fbl.FblParams.from_config(cfg).with_zero_dispersion()
    rate_req = params.rate_scale          # kernel target y = 1
    assert sinr_floor(params, rate_req, 0) == pytest.approx(math.e - 1.0, rel=1e-9)


def test_floor_monotone_in_rate(rng):
    cfg = SystemConfig(num_devices=5, antennas_per_ap=12)
    params = fbl.FblParams.from_config(cfg)
    reqs = np.sort(rng.uniform(1e5, 3e7, 20))
    floors = [sinr_floor(params, float(r), 0) for r in reqs]
    assert np.all(np.diff(floors) > 0)


def test_floor_monotone_in_reliability():
    # stricter decoding-error targets demand more SINR
    floors = []
    for eps in (1e-3, 1e-5, 1e-7, 1e-9):
        cfg = SystemConfig(num_devices=5, antennas_per_ap=12, dep_target=eps)
        params = fbl.FblParams.from_config(cfg)
        floors.append(sinr_floor(params, 5e6, 0))
    assert np.all(np.diff(floors) > 0)


# --------------------------------------------------------------------------
# feasibility initialization
# --------------------------------------------------------------------------

def test_feasibility_easy_instance():
    cfg = DESK.replace(energy_budget=1e14, rate_req_bps=1e5)
    model = generate_topology(cfg, seed=3)
    params = fbl.FblParams.from_config(cfg)
    floors = sinr_floors(params, np.full(5, cfg.rate_req_bps))
    alloc, slack, error = feasibility_init(model, cfg, MRC, floors)
    assert alloc is not None and slack >= 1.0 and error == ""
    used = alloc.energy(cfg.num_devices, cfg.blocklength)
    assert np.all(used <= model.energy * (1 + 1e-9))
    sinr = optimizer.true_sinr(model, alloc, cfg.antennas_per_ap, MRC)
    assert np.all(sinr >= floors * (1 - 1e-9))


def test_feasibility_impossible_instance():
    cfg = DESK.replace(energy_budget=1e10, rate_req_bps=4e7)
    model = generate_topology(cfg, seed=3)
    params = fbl.FblParams.from_config(cfg)
    floors = sinr_floors(params, np.full(5, cfg.rate_req_bps))
    alloc, slack, error = feasibility_init(model, cfg, MRC, floors)
    assert alloc is None and slack < 1.0 and error == ""


def test_feasibility_boundary_from_grid_oracle():
    # single device, single AP: bisect the capacity via the exhaustive grid
    cfg = SystemConfig(num_devices=1, num_aps=1, antennas_per_ap=4,
                       energy_budget=2e12, gp_tolerance=1e-8)
    model = generate_topology(cfg, seed=5)
    beta = float(model.beta[0, 0])
    _, capacity = grid_best_rate(cfg, beta, MRC)
    for factor, expect in ((0.8, True), (1.25, False)):
        probe = cfg.replace(rate_req_bps=factor * capacity)
        params = fbl.FblParams.from_config(probe)
        floors = sinr_floors(params, np.full(1, probe.rate_req_bps))
        alloc, _, _ = feasibility_init(model, probe, MRC, floors)
        assert (alloc is not None) == expect


# The verdict oracle's deployments: K=5 at both desk layouts, listed before
# any was run, so none is picked by its outcome.
VERDICT_DEPLOYMENTS = [(DESK.replace(num_aps=m, antennas_per_ap=n, energy_budget=e), seed, d)
                       for m, n in ((4, 12), (1, 48)) for e in (2e12, 5e12)
                       for seed in range(1, 7) for d in (MRC, FZF)]


def max_slack_stages(cfg, seed, decoder):
    """What `_max_slack` returned for the joint stage (feasibility_init)
    and for the fixed-pilot stage, with each stage's scheme."""
    model = generate_topology(cfg, seed=seed)
    floors = sinr_floors(fbl.FblParams.from_config(cfg),
                         np.full(cfg.num_devices, cfg.rate_req_bps))
    stages = []
    original = optimizer._max_slack

    def spy(scheme, *args):
        out = original(scheme, *args)
        stages.append((scheme, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_max_slack", spy)
        feasibility_init(model, cfg, decoder, floors)
        benchmark_fixed_pilot(model, cfg, decoder)
    return model, floors, stages


def untargeted(solve):
    """GpModel.solve with any objective target dropped: every GP to its optimum."""
    def full(self, *args, target=None, **kwargs):
        return solve(self, *args, **kwargs)
    return full


def test_early_max_slack_stop_keeps_every_verdict():
    infeasible = 0
    for cfg, seed, decoder in VERDICT_DEPLOYMENTS:
        model, floors, stages = max_slack_stages(cfg, seed, decoder)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp.GpModel, "solve", untargeted(gp.GpModel.solve))
            _, _, reference = max_slack_stages(cfg, seed, decoder)
        assert len(stages) == len(reference) == 2
        for (scheme, (alloc, phi, error)), (_, (ref_alloc, ref_phi, ref_error)) \
                in zip(stages, reference):
            assert error == ref_error == ""
            assert (alloc is None) == (ref_alloc is None), (cfg, seed, decoder, phi, ref_phi)
            if alloc is None:
                infeasible += 1
                continue
            assert np.all(scheme.sinr_of(alloc) >= floors)
            assert np.all(alloc.energy(cfg.num_devices, cfg.blocklength)
                          <= model.energy * (1 + 1e-9))
    assert infeasible >= 2


def test_no_allocation_gp_runs_phase_one(monkeypatch):
    # every GP starts strictly feasible: a max-slack GP at phi = 1e-3, the
    # first SCA step GP at the feasible allocation it is fitted at (its
    # SINR rows are then below the fitted SINR over the floor) and every
    # later one at the previous step GP's interior point
    phase_one, solved = [], count_gp_solves(monkeypatch)
    original = gp.GpModel._phase_one

    def spy(self, *args):
        phase_one.append(self.names)
        return original(self, *args)

    monkeypatch.setattr(gp.GpModel, "_phase_one", spy)
    feasible = 0
    for cfg, seed, decoder in VERDICT_DEPLOYMENTS:
        model = generate_topology(cfg, seed=seed)
        for run in (optimizer.solve, benchmark_upper_bound, benchmark_fixed_pilot):
            feasible += run(model, cfg, decoder).feasible
    assert feasible >= 50 and len(solved) >= 300
    assert phase_one == []


# --------------------------------------------------------------------------
# the iterative algorithms
# --------------------------------------------------------------------------

@pytest.mark.parametrize("decoder,solve,cap", [(MRC, solve_mrc, 10),
                                               (FZF, solve_fzf, 25)])
def test_sca_trace_properties(decoder, solve, cap):
    model = desk_model()
    res = solve(model, DESK)
    assert res.status == "optimal"
    obj = np.array(res.trace.objective)
    assert len(obj) - 1 <= cap
    assert np.all(np.diff(obj) >= -1e-9 * obj[:-1])
    # the previous iterate stays feasible in every refreshed subproblem
    assert max(res.trace.carryover_margin) <= 1e-9
    # returned allocation honors budgets, floors and requirements
    used = res.allocation.energy(DESK.num_devices, DESK.blocklength)
    assert np.all(used <= model.energy * (1 + 1e-8))
    assert np.all(res.rates >= DESK.rate_req_bps * (1 - 1e-9))
    params = fbl.FblParams.from_config(DESK)
    floors = sinr_floors(params, np.full(5, DESK.rate_req_bps))
    assert np.all(res.sinr >= floors * (1 - 1e-9))


def test_infeasible_reports_zero_rate():
    cfg = DESK.replace(energy_budget=1e10)
    model = generate_topology(cfg, seed=3)
    res = solve_mrc(model, cfg)
    assert res.status == "infeasible"
    assert res.weighted_sum_rate == 0.0
    assert res.allocation is None


@pytest.mark.parametrize("decoder,solve", [(MRC, solve_mrc), (FZF, solve_fzf)])
def test_single_device_matches_grid_oracle(decoder, solve):
    cfg = SystemConfig(num_devices=1, num_aps=1, antennas_per_ap=4,
                       energy_budget=1e13, gp_tolerance=1e-8)
    model = generate_topology(cfg, seed=5)
    model.weights[0] = 1.0
    best, _ = grid_best_rate(cfg, float(model.beta[0, 0]), decoder)
    res = solve(model, cfg)
    assert res.status == "optimal"
    assert res.weighted_sum_rate == pytest.approx(best, rel=0.01)
    assert res.weighted_sum_rate >= best * (1 - 0.01)


def test_antenna_headroom_enforced_in_config():
    with pytest.raises(Exception):
        SystemConfig(num_devices=5, antennas_per_ap=5)


@pytest.mark.parametrize("decoder", ["MRC", "zf"])
def test_unknown_decoder_is_rejected_before_any_gp(decoder, monkeypatch):
    def no_gp(*args, **kwargs):
        raise AssertionError("a GP was solved for an unknown decoder")

    monkeypatch.setattr(gp.GpModel, "solve", no_gp)
    model = desk_model()
    for run in (optimizer.solve, benchmark_upper_bound):
        with pytest.raises(ValueError, match="unknown decoder"):
            run(model, DESK, decoder)


# --------------------------------------------------------------------------
# benchmark schemes
# --------------------------------------------------------------------------

def test_upper_bound_dominates_proposed():
    for seed in (1, 2, 3):
        model = desk_model(seed)
        proposed = solve_mrc(model, DESK)
        upper = benchmark_upper_bound(model, DESK, MRC)
        assert upper.weighted_sum_rate >= proposed.weighted_sum_rate * (1 - 1e-6)


def test_conventional_reuses_upper_bound_allocation():
    model = desk_model()
    upper = benchmark_upper_bound(model, DESK, MRC)
    conv = benchmark_conventional(model, DESK, MRC, upper)
    assert conv.allocation is upper.allocation
    assert conv.weighted_sum_rate <= upper.weighted_sum_rate
    # rates re-evaluated under the true dispersion penalty
    params = fbl.FblParams.from_config(DESK)
    chi = optimizer.true_sinr(model, upper.allocation, DESK.antennas_per_ap, MRC)
    expect = sum(model.weights[k] * fbl.lb_rate(chi[k], params, k) for k in range(5))
    assert conv.weighted_sum_rate == pytest.approx(expect, rel=1e-12)


def test_conventional_can_be_infeasible_when_proposed_is_not():
    # push the energy down until the penalty-blind allocation misses a floor
    found = False
    for energy in (9e11, 1.1e12, 1.3e12, 1.6e12, 2e12):
        cfg = DESK.replace(energy_budget=energy)
        for seed in range(8):
            model = generate_topology(cfg, seed=seed)
            prop = solve_mrc(model, cfg)
            conv = benchmark_conventional(model, cfg, MRC)
            if prop.feasible and not conv.feasible:
                found = True
                assert conv.weighted_sum_rate == 0.0
                break
        if found:
            break
    assert found, "no instance separated the penalty-blind benchmark"


def test_fixed_pilot_never_beats_proposed():
    for seed in (1, 4, 9):
        model = desk_model(seed)
        fixed = benchmark_fixed_pilot(model, DESK, MRC)
        prop = solve_mrc(model, DESK)
        if fixed.feasible and prop.weighted_sum_rate < fixed.weighted_sum_rate:
            prop = solve_mrc(model, DESK, start=fixed.allocation)
        assert prop.weighted_sum_rate >= fixed.weighted_sum_rate * (1 - 1e-9)
        assert np.allclose(fixed.allocation.pilot,
                           model.energy / DESK.blocklength)


def test_surrogate_guard_rejects_nonpositive_exponent():
    params = fbl.FblParams.from_config(SystemConfig(num_devices=2,
                                                    antennas_per_ap=8))
    big_alpha = fbl.FblParams(bandwidth_hz=params.bandwidth_hz,
                              blocklength=params.blocklength, num_devices=2,
                              alpha=np.array([3.0, 3.0]))
    with pytest.raises(SurrogateError):
        optimizer._surrogate_exponents(np.array([0.3, 0.3]), big_alpha,
                                       np.array([1.0, 1.0]))


def test_surrogate_clamps_below_the_penalty_tangent_domain():
    params = fbl.FblParams.from_config(DESK)
    low = approx.PENALTY_TANGENT_MIN
    inside = np.array([low, 1.0, 2.0, 5.0, 10.0])
    _, clamped = optimizer._surrogate_exponents(inside, params, np.ones(5))
    assert not clamped
    below = inside.copy()
    below[0] = 0.5 * low
    w_hat, clamped = optimizer._surrogate_exponents(below, params, np.ones(5))
    assert clamped

    # the log1p tangent stays at the expansion point, the penalty tangent
    # moves up to the domain boundary
    def exponent(log_point, penalty_point):
        rho, _ = approx.log1p_tangent(log_point)
        slope, _ = approx.penalty_tangent(penalty_point)
        return rho - params.alpha[0] * slope

    expect = np.array([exponent(0.5 * low, low)] + [exponent(x, x) for x in inside[1:]])
    assert np.allclose(w_hat, expect / expect.sum(), rtol=1e-12)


@pytest.mark.parametrize("scheme", ["joint", "fixed_pilot"])
def test_driver_carries_surrogate_clamping_into_the_trace(scheme, monkeypatch):
    model = desk_model()

    def run():
        if scheme == "joint":
            return solve_mrc(model, DESK)
        return benchmark_fixed_pilot(model, DESK, MRC)

    plain = run()
    assert plain.feasible and not plain.trace.surrogate_clamped
    # a tangent domain above every SINR of the run clamps every expansion
    monkeypatch.setattr(approx, "PENALTY_TANGENT_MIN",
                        10.0 * max(float(s.max()) for s in plain.trace.sinr))
    clamped = run()
    assert clamped.feasible and clamped.trace.surrogate_clamped
    obj = np.array(clamped.trace.objective)
    assert np.all(np.diff(obj) >= -1e-9 * obj[:-1])


def test_fixed_pilot_trace_properties():
    model = desk_model()
    res = benchmark_fixed_pilot(model, DESK, MRC)
    assert res.status == "optimal"
    trace = res.trace
    obj = np.array(trace.objective)
    assert len(obj) >= 2
    assert np.all(np.diff(obj) >= -1e-9 * obj[:-1])
    pilot = model.energy / DESK.blocklength
    assert all(np.array_equal(a.pilot, pilot) for a in trace.allocations)
    assert len(trace.gp_status) == len(obj) == len(trace.sinr)
    assert trace.gp_status[0] == "init"
    assert set(trace.gp_status[1:]) == {"optimal"}
    # one carry-over check per GP step, and the iterate stays feasible
    assert len(trace.carryover_margin) == len(obj) - 1
    assert max(trace.carryover_margin) <= 1e-9
    assert res.weighted_sum_rate == pytest.approx(
        float(model.weights @ res.rates), rel=1e-12)


@pytest.mark.parametrize("decoder", [MRC, FZF])
def test_fixed_pilot_sinrs_are_the_closed_form_bounds(decoder):
    # the fixed-pilot scheme scores its iterates with the same lower-bound
    # SINR as the other schemes, to the last bit
    lb_sinr = fbl.lb_sinr_mrc if decoder == MRC else fbl.lb_sinr_fzf
    checked = 0
    for seed in (7, 1, 4, 9):
        model = desk_model(seed)
        res = benchmark_fixed_pilot(model, DESK, decoder)
        for alloc, sinr in zip(res.trace.allocations, res.trace.sinr):
            stats = estimation_stats(model, alloc.pilot)
            assert np.array_equal(
                sinr, lb_sinr(model, stats, alloc.payload, DESK.antennas_per_ap))
            checked += sinr.size
    assert checked >= 30


@pytest.mark.parametrize("seed", [4, 5, 6, 8])
def test_reported_rate_is_the_best_traced_objective(seed):
    # the trace and the result score an iterate with the same weighted sum
    model = desk_model(seed)
    for res in (solve_mrc(model, DESK), benchmark_fixed_pilot(model, DESK, MRC)):
        assert res.feasible
        assert max(res.trace.objective) == res.weighted_sum_rate


def count_gp_solves(monkeypatch):
    solved = []
    original = gp.GpModel.solve

    def counted(self, *args, **kwargs):
        solved.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(gp.GpModel, "solve", counted)
    return solved


def test_fixed_pilot_solves_one_max_slack_gp(monkeypatch):
    # the pilots are frozen, so the max-slack GP is never re-expanded: one
    # max-slack GP, then one GP per SCA step
    solved = count_gp_solves(monkeypatch)
    res = benchmark_fixed_pilot(desk_model(), DESK, MRC)
    assert res.feasible and len(solved) == len(res.trace.objective)
    assert "phi" in solved[0].names and "phi" not in solved[1].names
    solved.clear()
    cfg = DESK.replace(energy_budget=1e10)
    res = benchmark_fixed_pilot(generate_topology(cfg, seed=3), cfg, MRC)
    assert res.status == "infeasible" and len(solved) == 1


def test_trace_rows_serialize():
    model = desk_model()
    res = solve_mrc(model, DESK)
    rows = list(res.trace.rows(MRC))
    assert rows[0]["iteration"] == 0
    assert len(rows[0]["sinr"]) == 5
    assert rows[-1]["objective"] == max(r["objective"] for r in rows)


def test_solver_is_deterministic():
    model = desk_model()
    a = solve_mrc(model, DESK)
    b = solve_mrc(model, DESK)
    assert np.array_equal(a.allocation.pilot, b.allocation.pilot)
    assert np.array_equal(a.allocation.payload, b.allocation.payload)
    assert a.trace.objective == b.trace.objective


def test_gp_numerical_error_does_not_escape(monkeypatch):
    def broken(hess, grad):
        raise gp.GpError("Newton system could not be factorized")

    monkeypatch.setattr(gp, "_newton_direction", broken)
    model = desk_model()
    for decoder in (MRC, FZF):
        res = optimizer.solve(model, DESK, decoder)
        assert isinstance(res, optimizer.SolveResult)
        assert res.status == "aborted" and not res.feasible
        assert "could not be factorized" in res.message
    fixed = benchmark_fixed_pilot(model, DESK, MRC)
    assert fixed.status == "aborted" and "could not be factorized" in fixed.message


# --------------------------------------------------------------------------
# the batched SINR blocks against the generic node trees
# --------------------------------------------------------------------------

def _mrc_lhs_generic(model, k, pp, pd):
    """Node-tree form of the MRC constraint LHS (reference for the block)."""
    idx = list(model.service_sets[k])
    b = model.beta[idx, k]
    kdev = model.num_devices
    size = len(idx)
    eye = np.eye(size)
    scale = nodes.PosyProductSum(pp[k], [0.0], [0.0], kdev * b, np.ones((1, size)))
    gain = nodes.PosyProductSum(pp[k], np.log(kdev * b ** 2), np.ones(size),
                                kdev * b, 1.0 - eye)
    terms = []
    for j in range(kdev):
        cross = nodes.PosyProductSum(pp[k], np.log(kdev * b ** 2 * model.beta[idx, j]),
                                     np.ones(size), kdev * b, 1.0 - eye)
        terms.append(nodes.Product([pd[j], cross]))
    terms.append(gain)
    return nodes.Product([scale, nodes.Sum(terms)])


def _fzf_lhs_generic(model, k, pp, pd):
    """Node-tree form of the zero-forcing constraint LHS."""
    idx = list(model.service_sets[k])
    kdev = model.num_devices
    size = len(idx)
    scale_sq = [nodes.PosyProductSum(pp[j], [0.0], [0.0],
                                     kdev * model.beta[idx, j], np.ones((1, size)))
                for j in range(kdev)]
    resid = [nodes.PosyProductSum(pp[j], np.log(model.beta[idx, j]), np.zeros(size),
                                  kdev * model.beta[idx, j], 1.0 - np.eye(size))
             for j in range(kdev)]
    terms = [nodes.Product([gp.Const(float(size))] + scale_sq)]
    for j in range(kdev):
        terms.append(nodes.Product([pd[j], resid[j]]
                                   + [scale_sq[i] for i in range(kdev) if i != j]))
    return nodes.Sum(terms)


GENERIC = {MRC: _mrc_lhs_generic, FZF: _fzf_lhs_generic}
BLOCKS = {MRC: optimizer.MrcSinrBlock, FZF: optimizer.FzfSinrBlock}


def _block_models(rng):
    """The desk model (K=5) and a K=10 random model whose service sets are
    uneven, from a single AP up to all six."""
    big = random_model(rng, num_aps=6, num_devices=10)
    sets = list(big.service_sets)
    sets[0] = sets[0][:1]
    sets[1] = tuple(int(i) for i in np.argsort(-big.beta[:, 1]))
    big = dataclasses.replace(big, service_sets=tuple(sets))
    assert {len(s) for s in big.service_sets} >= {1, 6}
    return [desk_model(), big]


def _block_and_trees(model, decoder, rng):
    """A block over fresh variables, its K generic trees and a random point.

    The variables are laid out as in the max-slack GP: phi, which no row
    uses, then the pilots and the payloads."""
    kdev = model.num_devices
    m = gp.GpModel()
    m.variable("phi")
    pp = [m.variable(f"pp{k}") for k in range(kdev)]
    pd = [m.variable(f"pd{k}") for k in range(kdev)]
    block = BLOCKS[decoder](model, pp, pd)
    trees = [GENERIC[decoder](model, k, pp, pd) for k in range(kdev)]
    y = np.concatenate([rng.normal(0, 1, 1), rng.normal(22, 3, 2 * kdev)])
    return block, trees, y


@pytest.mark.parametrize("decoder", [MRC, FZF])
def test_fused_constraint_matches_generic_tree(decoder, rng):
    for model in _block_models(rng):
        kdev = model.num_devices
        for trial in range(6):
            block, trees, y = _block_and_trees(model, decoder, rng)
            ref = [nodes.log_eval(t, y) for t in trees]
            weights = rng.uniform(0.1, 3.0, kdev)
            vals, jac, hess = block.log_eval(y)
            assert np.allclose(vals, [r[0] for r in ref], rtol=0, atol=1e-11)
            assert np.allclose(jac, [r[1] for r in ref], rtol=0, atol=1e-11)
            want = sum(w * r[2] for w, r in zip(weights, ref))
            assert np.allclose(hess(weights), want, rtol=0, atol=1e-10 * weights.sum())


@pytest.mark.parametrize("decoder", [MRC, FZF])
def test_fused_constraint_matches_finite_differences(decoder, rng):
    for model in _block_models(rng):
        block, _, y = _block_and_trees(model, decoder, rng)
        y[1:] -= 1.0                                          # away from saturation
        weights = rng.uniform(0.1, 3.0, model.num_devices)
        _, jac, hess = block.log_eval(y)
        h = hess(weights)
        eps = 1e-6
        for i in range(y.size):
            up, dn = y.copy(), y.copy()
            up[i] += eps
            dn[i] -= eps
            (vu, ju, _), (vd, jd, _) = block.log_eval(up), block.log_eval(dn)
            assert np.allclose(jac[:, i], (vu - vd) / (2 * eps), rtol=0, atol=1e-6)
            wg = (ju - jd).T @ weights
            assert np.allclose(h[:, i], wg / (2 * eps), rtol=0, atol=1e-5)


# --------------------------------------------------------------------------
# the head-free step GP against its epigraph (chi) form
# --------------------------------------------------------------------------

def step_gps(run):
    """(GP, start) of every SCA step GP that `run` solves."""
    captured = []
    original = gp.GpModel.solve

    def capture(self, *args, **kwargs):
        if "phi" not in self.names:
            captured.append((self, kwargs["start"]))
        return original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp.GpModel, "solve", capture)
        assert run().feasible
    return captured


def _shifted(expr, offset, log_scale=0.0):
    """A monomial or sum of the package with every variable index moved up
    by offset and every coefficient times exp(log_scale)."""
    if isinstance(expr, gp.Sum):
        return gp.Sum([_shifted(t, offset, log_scale) for t in expr.terms])
    mono = gp.Monomial(1.0, {i + offset: a for i, a in expr.exponents.items()})
    mono.log_coeff = expr.log_coeff + log_scale
    return mono


def chi_form(step, floors, block_trees):
    """The step GP in the epigraph form it replaced: head variables chi_k
    ahead of the step GP's own, maximize prod_k chi_k^w_k subject to
    chi_k * lhs_k <= floor_k * rhs_k for each weighted row k and the floor
    rows floor_k / chi_k <= 1; unweighted rows are copied. A weighted
    posynomial row keeps its sum; the rows of a block are the node trees
    block_trees(pp, pd) over the new model's pilots and payloads."""
    kdev = floors.size
    m = gp.GpModel()
    chi = [m.variable(f"chi{k}") for k in range(kdev)]
    for name in step.names:
        m.variable(name)
    lhs, rhs, weights = [], [], []
    for c in step._constraints:
        if isinstance(c, gp._BlockConstraint):
            lhs += block_trees(m._vars[kdev:2 * kdev], m._vars[2 * kdev:])
        elif c.weights[0] > 0:
            lhs.append(_shifted(c.lhs, kdev))
        else:
            m.add_le(_shifted(c.lhs, kdev), _shifted(c.rhs, kdev))
            continue
        rhs += list(c.rhs) if isinstance(c, gp._BlockConstraint) else [c.rhs]
        weights += list(c.weights)
    assert len(lhs) == len(rhs) == len(weights) == kdev
    m.add_block_le(nodes.NodeRows([nodes.Product([chi[k], lhs[k]]) for k in range(kdev)]),
                   [_shifted(r, kdev, math.log(floors[k])) for k, r in enumerate(rhs)])
    for k in range(kdev):
        m.add_le(gp.Monomial(float(floors[k]), {k: -1.0}), gp.Const(1.0))
    m.maximize(gp.Monomial(1.0, dict(enumerate(weights))))
    return m


@pytest.mark.parametrize("scheme", [MRC, FZF, "fixed-pilot"])
def test_head_free_step_gp_reaches_its_chi_form_optimum(scheme):
    model = desk_model()
    kdev = model.num_devices
    floors = sinr_floors(fbl.FblParams.from_config(DESK), np.full(kdev, DESK.rate_req_bps))
    if scheme == "fixed-pilot":
        steps = step_gps(lambda: benchmark_fixed_pilot(model, DESK, MRC))
        trees = None
    else:
        steps = step_gps(lambda: optimizer.solve(model, DESK, scheme))
        trees = lambda pp, pd: [GENERIC[scheme](model, k, pp, pd) for k in range(kdev)]
    assert len(steps) >= 2
    # the first step GP starts at the allocation its fits are exact at, where
    # SINR row k reads log(floor_k / SINR_k): the floors sit in the rows
    step, start = steps[0]
    pilot = model.energy / DESK.blocklength if scheme == "fixed-pilot" else start[:kdev]
    sinr = optimizer.true_sinr(model, optimizer.PowerAllocation(pilot, start[-kdev:]),
                               DESK.antennas_per_ap, MRC if scheme == "fixed-pilot" else scheme)
    margins = step.constraint_margins(start)[step._block().weights > 0]
    assert np.allclose(margins, np.log(floors / sinr), rtol=0, atol=1e-9)
    for step, start in steps:
        # K or 2K variables and 2K rows: the SINR rows and the energy or
        # payload-cap rows, the SINR rows weighted by the surrogate exponents
        assert len(step.names) == (kdev if scheme == "fixed-pilot" else 2 * kdev)
        weights = step._block().weights
        assert weights.size == 2 * kdev and np.count_nonzero(weights) == kdev
        assert sum(weights) == pytest.approx(1.0, rel=1e-12)
        # both forms from the same strictly feasible point, chi_k halfway (in
        # log) between the floor and the fitted SINR; both solved to 1e-11, so
        # the barrier's distance from the active rows is far below 1e-7
        margins = step.constraint_margins(start)
        assert margins.max() < 0
        chi = floors * np.exp(-0.5 * margins[weights > 0])
        ref = chi_form(step, floors, trees).solve(tol=1e-11, start=np.concatenate([chi, start]))
        sol = step.solve(tol=1e-11, start=start)
        assert ref.status == sol.status == "optimal"
        assert np.allclose(ref.x[kdev:], sol.x, rtol=1e-7, atol=0)
