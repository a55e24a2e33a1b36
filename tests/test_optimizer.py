import dataclasses
import itertools
import math

import numpy as np
import pytest
from conftest import random_model

import gp_nodes as nodes
from cfurllc import approx, fbl, gp, optimizer
from cfurllc.channel import estimation_stats
from cfurllc.optimizer import (FZF, MRC, SurrogateError, benchmark_conventional, benchmark_fixed_pilot,
                               benchmark_upper_bound, feasibility_init,
                               sinr_floor, sinr_floors)
from cfurllc.scenario import SystemConfig, generate_topology
from oracles import surrogate_exponents_by_device

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

def max_slack_stage(model, cfg, decoder, floors):
    """feasibility_init on a new joint scheme builder of the decoder."""
    return feasibility_init(model, cfg, optimizer._joint_scheme(model, cfg, decoder, floors))


def test_feasibility_easy_instance():
    cfg = DESK.replace(energy_budget=1e14, rate_req_bps=1e5)
    model = generate_topology(cfg, seed=3)
    params = fbl.FblParams.from_config(cfg)
    floors = sinr_floors(params, np.full(5, cfg.rate_req_bps))
    alloc, slack, error = max_slack_stage(model, cfg, MRC, floors)
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
    alloc, slack, error = max_slack_stage(model, cfg, MRC, floors)
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
        alloc, _, _ = max_slack_stage(model, probe, MRC, floors)
        assert (alloc is not None) == expect


# The verdict oracle's deployments: K=5 at both desk layouts, listed before
# any was run, so none is picked by its outcome.
VERDICT_DEPLOYMENTS = [(DESK.replace(num_aps=m, antennas_per_ap=n, energy_budget=e), seed, d)
                       for m, n in ((4, 12), (1, 48)) for e in (2e12, 5e12)
                       for seed in range(1, 7) for d in (MRC, FZF)]


# The desk layouts at E = 6e11, the lowest energy of the desk energy grid,
# where most fixed-pilot instances are out of reach.
LOW_ENERGY_DEPLOYMENTS = [(DESK.replace(num_aps=m, antennas_per_ap=n, energy_budget=6e11), seed, d)
                          for m, n in ((1, 48), (4, 12)) for seed in range(1, 5)
                          for d in (MRC, FZF)]


def joint_stage(cfg, seed, decoder):
    """The deployment, its floors and what feasibility_init returns."""
    model = generate_topology(cfg, seed=seed)
    floors = sinr_floors(fbl.FblParams.from_config(cfg),
                         np.full(cfg.num_devices, cfg.rate_req_bps))
    return model, floors, max_slack_stage(model, cfg, decoder, floors)


def untargeted(solve):
    """GpModel.solve with any objective target dropped: every GP to its optimum."""
    def full(self, *args, target=None, **kwargs):
        return solve(self, *args, **kwargs)
    return full


def test_early_max_slack_stop_keeps_every_verdict():
    infeasible = 0
    for cfg, seed, decoder in VERDICT_DEPLOYMENTS:
        model, floors, (alloc, phi, error) = joint_stage(cfg, seed, decoder)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp.GpModel, "solve", untargeted(gp.GpModel.solve))
            _, _, (ref_alloc, ref_phi, ref_error) = joint_stage(cfg, seed, decoder)
        assert error == ref_error == ""
        assert (alloc is None) == (ref_alloc is None), (cfg, seed, decoder, phi, ref_phi)
        if alloc is None:
            infeasible += 1
            continue
        assert np.all(optimizer.true_sinr(model, alloc, cfg.antennas_per_ap, decoder) >= floors)
        assert np.all(alloc.energy(cfg.num_devices, cfg.blocklength)
                      <= model.energy * (1 + 1e-9))
    assert infeasible >= 2


def least_payloads(model, cfg, decoder, floors):
    """Yates' fixed-point iteration pd <- floor (cross pd + noise) / gain from
    pd = 0 at the fixed pilots: it rises to the least payloads meeting every
    floor when they exist; None when it passes the payload cap first."""
    pilot = model.energy / cfg.blocklength
    n, coherent, noise, cross = fbl.sinr_pieces(model, estimation_stats(model, pilot),
                                                cfg.antennas_per_ap, decoder)
    pd = np.zeros(model.num_devices)
    for _ in range(100_000):
        nxt = floors * (cross @ pd + noise) / (n * coherent)
        if np.any(nxt >= pilot):
            return None
        if np.all(nxt - pd <= 1e-14 * nxt):
            return nxt
        pd = nxt
    raise AssertionError("the fixed-point iteration did not settle")


def test_fixed_pilot_verdict_matches_its_max_slack_gp():
    # oracle: the fixed-pilot max-slack GP built through the public API and
    # solved to its optimum from the point the solver once started it at
    verdicts = []
    for cfg, seed, decoder in VERDICT_DEPLOYMENTS + LOW_ENERGY_DEPLOYMENTS:
        model = generate_topology(cfg, seed=seed)
        floors = sinr_floors(fbl.FblParams.from_config(cfg),
                             np.full(cfg.num_devices, cfg.rate_req_bps))
        slack = public_api_gp(model, cfg, ("fixed-pilot", decoder), floors, None, None)
        start = np.concatenate([[1e-3], 0.5 * model.energy / cfg.blocklength])
        ref = slack.solve(tol=cfg.gp_tolerance, start=start)
        assert ref.status == "optimal"
        res = benchmark_fixed_pilot(model, cfg, decoder)
        assert res.feasible == (ref.x[0] >= 1.0), (cfg, seed, decoder, ref.x[0])
        least = least_payloads(model, cfg, decoder, floors)
        assert (least is not None) == res.feasible
        verdicts.append(res.feasible)
        if res.feasible:
            for alloc in res.trace.allocations:
                assert np.all(alloc.payload >= least)
    assert 0 < sum(verdicts) < len(verdicts)


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
    for cfg, seed, decoder in VERDICT_DEPLOYMENTS + LOW_ENERGY_DEPLOYMENTS:
        model = generate_topology(cfg, seed=seed)
        for run in (optimizer.solve, benchmark_upper_bound, benchmark_fixed_pilot):
            feasible += run(model, cfg, decoder).feasible
    assert feasible >= 50 and len(solved) >= 300
    assert phase_one == []


@pytest.mark.parametrize("decoder", [MRC, FZF])
def test_gain_table_is_built_once_per_scheme(decoder, monkeypatch):
    # the gain table depends on the deployment alone, so the solve's one
    # joint scheme builds it once and every round only evaluates it
    calls = {"scheme": 0, "rows": 0, "fit": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    rows, fit = (("mrc_gain_rows", "mrc_gain_monomial") if decoder == MRC
                 else ("fzf_gain_rows", "fzf_gain_monomial"))
    monkeypatch.setattr(optimizer, "_joint_scheme", counted("scheme", optimizer._joint_scheme))
    monkeypatch.setattr(approx, rows, counted("rows", getattr(approx, rows)))
    monkeypatch.setattr(approx, fit, counted("fit", getattr(approx, fit)))
    res = optimizer.solve(desk_model(), DESK, decoder)
    assert res.status == "optimal"
    assert calls["rows"] == calls["scheme"] == 1
    assert calls["fit"] > calls["rows"]


# --------------------------------------------------------------------------
# the iterative algorithms
# --------------------------------------------------------------------------

# the case ids keep the names these cases had when each decoder had its
# own solve_mrc / solve_fzf wrapper
@pytest.mark.parametrize("decoder,cap", [pytest.param(MRC, 10, id="mrc-solve_mrc-10"),
                                         pytest.param(FZF, 25, id="fzf-solve_fzf-25")])
def test_sca_trace_properties(decoder, cap):
    model = desk_model()
    res = optimizer.solve(model, DESK, decoder)
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
    res = optimizer.solve(model, cfg, MRC)
    assert res.status == "infeasible"
    assert res.weighted_sum_rate == 0.0
    assert res.allocation is None


@pytest.mark.parametrize("decoder", [pytest.param(MRC, id="mrc-solve_mrc"),
                                     pytest.param(FZF, id="fzf-solve_fzf")])
def test_single_device_matches_grid_oracle(decoder):
    cfg = SystemConfig(num_devices=1, num_aps=1, antennas_per_ap=4,
                       energy_budget=1e13, gp_tolerance=1e-8)
    model = generate_topology(cfg, seed=5)
    model.weights[0] = 1.0
    best, _ = grid_best_rate(cfg, float(model.beta[0, 0]), decoder)
    res = optimizer.solve(model, cfg, decoder)
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
        proposed = optimizer.solve(model, DESK, MRC)
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
            prop = optimizer.solve(model, cfg, MRC)
            conv = benchmark_conventional(model, cfg, MRC, benchmark_upper_bound(model, cfg, MRC))
            if prop.feasible and not conv.feasible:
                found = True
                assert conv.weighted_sum_rate == 0.0
                break
        if found:
            break
    assert found, "no instance separated the penalty-blind benchmark"


# Desk deployments fixed before the first run: every scheme feasible at
# E = 5e12 (seed 7), the penalty-blind allocation missing a requirement at
# E = 1.3e12 (seed 1), and the penalty-free stage infeasible at E = 1e10 (seed 3).
SCORED_DEPLOYMENTS = [(DESK, 7), (DESK.replace(energy_budget=1.3e12), 1),
                      (DESK.replace(energy_budget=1e10), 3)]


@pytest.mark.parametrize("decoder", [MRC, FZF])
@pytest.mark.parametrize("scheme", ["solve", "benchmark_upper_bound", "benchmark_conventional",
                                    "benchmark_fixed_pilot"])
def test_every_scheme_reports_the_true_sinr_of_its_allocation(scheme, decoder):
    # wherever a result has an allocation, its SINRs and rates are those of
    # `true_sinr` there, to the last bit; conventional's two infeasible
    # branches keep their verdicts, allocations, traces and messages
    branches = []
    for cfg, seed in SCORED_DEPLOYMENTS:
        model = generate_topology(cfg, seed=seed)
        params = fbl.FblParams.from_config(cfg)
        if scheme == "benchmark_conventional":
            upper = benchmark_upper_bound(model, cfg, decoder)
            res = benchmark_conventional(model, cfg, decoder, upper)
        else:
            res = getattr(optimizer, scheme)(model, cfg, decoder)
        if scheme == "benchmark_upper_bound":
            params = params.with_zero_dispersion()
        if res.allocation is not None:
            sinr = optimizer.true_sinr(model, res.allocation, cfg.antennas_per_ap, decoder)
            assert _bits(res.sinr) == _bits(sinr)
            assert _bits(res.rates) == _bits(fbl.lb_rate(sinr, params, np.arange(cfg.num_devices)))
        if scheme == "benchmark_conventional" and not res.feasible:
            assert (res.status, res.trace, res.weighted_sum_rate) == ("infeasible", upper.trace, 0.0)
            if upper.feasible:
                assert res.allocation is upper.allocation
                assert res.message == "allocation misses a rate requirement under penalty"
            else:
                assert res.allocation is res.sinr is res.rates is None
                assert res.message == "penalty-free stage infeasible"
        branches.append(res.message if scheme == "benchmark_conventional" else res.feasible)
    if scheme == "benchmark_conventional":
        assert branches == ["", "allocation misses a rate requirement under penalty",
                            "penalty-free stage infeasible"]
    else:
        assert branches[0] and not branches[2]


def test_fixed_pilot_never_beats_proposed():
    for seed in (1, 4, 9):
        model = desk_model(seed)
        fixed = benchmark_fixed_pilot(model, DESK, MRC)
        prop = optimizer.solve(model, DESK, MRC)
        if fixed.feasible and prop.weighted_sum_rate < fixed.weighted_sum_rate:
            prop = optimizer.solve(model, DESK, MRC, start=fixed.allocation)
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
    # the error names the first device whose exponent is not positive
    some = fbl.FblParams(bandwidth_hz=params.bandwidth_hz, blocklength=params.blocklength,
                         num_devices=5, alpha=np.array([0.1, 3.0, 0.1, 3.0, 0.1]))
    with pytest.raises(SurrogateError, match="^device 1: surrogate exponent") as got:
        optimizer._surrogate_exponents(np.full(5, 0.3), some, np.ones(5))
    with pytest.raises(SurrogateError) as want:
        surrogate_exponents_by_device(np.full(5, 0.3), some, np.ones(5))
    assert str(got.value) == str(want.value)


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

    # without dispersion there is no penalty tangent, so no point is clamped
    w_hat, clamped = optimizer._surrogate_exponents(below, params.with_zero_dispersion(),
                                                    np.ones(5))
    assert not clamped
    rho = below / (1.0 + below)
    assert np.allclose(w_hat, rho / rho.sum(), rtol=1e-15, atol=0)


@pytest.mark.parametrize("kdev", [2, 5, 10])
def test_surrogate_exponents_match_the_per_device_loop(kdev, rng):
    # expansion SINRs from a fifth of the penalty tangent's boundary up, under
    # the full penalty, none and a penalty on some devices only
    params = fbl.FblParams.from_config(SystemConfig(num_devices=kdev, antennas_per_ap=kdev + 4))
    flags = set()
    for _ in range(40):
        chi = np.exp(rng.uniform(math.log(0.2 * approx.PENALTY_TANGENT_MIN), math.log(1e4), kdev))
        weights = rng.uniform(0.05, 1.0, kdev)
        some = dataclasses.replace(params,
                                   alpha=np.where(rng.random(kdev) < 0.5, 0.0, params.alpha))
        for case in (params, params.with_zero_dispersion(), some):
            got, clamped = optimizer._surrogate_exponents(chi, case, weights)
            want, want_clamped = surrogate_exponents_by_device(chi, case, weights)
            assert clamped == want_clamped
            assert np.allclose(got, want, rtol=1e-15, atol=0)
            flags.add(clamped)
    assert flags == {False, True}


@pytest.mark.parametrize("scheme", ["joint", "fixed_pilot"])
def test_driver_carries_surrogate_clamping_into_the_trace(scheme, monkeypatch):
    model = desk_model()

    def run():
        if scheme == "joint":
            return optimizer.solve(model, DESK, MRC)
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
    for res in (optimizer.solve(model, DESK, MRC), benchmark_fixed_pilot(model, DESK, MRC)):
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


def test_fixed_pilot_solves_one_gp_per_sca_step(monkeypatch):
    # one linear solve decides feasibility and gives the SCA start: no
    # max-slack (phi) GP, then one GP per SCA step, and none at all for an
    # infeasible instance
    solved = count_gp_solves(monkeypatch)
    res = benchmark_fixed_pilot(desk_model(), DESK, MRC)
    assert res.feasible and len(solved) == len(res.trace.objective) - 1 >= 1
    assert all("phi" not in m.names for m in solved)
    solved.clear()
    cfg = DESK.replace(energy_budget=1e10)
    res = benchmark_fixed_pilot(generate_topology(cfg, seed=3), cfg, MRC)
    assert res.status == "infeasible" and res.allocation is None and solved == []


def test_trace_rows_serialize():
    model = desk_model()
    res = optimizer.solve(model, DESK, MRC)
    rows = list(res.trace.rows())
    assert rows[0]["iteration"] == 0
    assert len(rows[0]["sinr"]) == 5
    assert rows[-1]["objective"] == max(r["objective"] for r in rows)


def test_solver_is_deterministic():
    model = desk_model()
    a = optimizer.solve(model, DESK, MRC)
    b = optimizer.solve(model, DESK, MRC)
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
    # the fixed-pilot start is certified without a GP, so a failed first
    # step GP leaves that start as a degraded result
    fixed = benchmark_fixed_pilot(model, DESK, MRC)
    assert fixed.status == "degraded" and "could not be factorized" in fixed.message
    assert fixed.trace.gp_status == ["init"] and fixed.allocation is fixed.trace.allocations[0]
    floors = sinr_floors(fbl.FblParams.from_config(DESK), np.full(5, DESK.rate_req_bps))
    assert np.all(fixed.sinr > floors)
    assert np.all(fixed.allocation.payload < model.energy / DESK.blocklength)


# --------------------------------------------------------------------------
# the SINR term tables against the generic node trees
# --------------------------------------------------------------------------

def _mrc_lhs_generic(model, k, pp, pd):
    """Node-tree form of the MRC constraint LHS (reference for the rows)."""
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
        terms.append(nodes.Product([nodes.var(pd[j]), cross]))
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
    terms = [nodes.Product([nodes.Const(float(size))] + scale_sq)]
    for j in range(kdev):
        terms.append(nodes.Product([nodes.var(pd[j]), resid[j]]
                                   + [scale_sq[i] for i in range(kdev) if i != j]))
    return nodes.Sum(terms)


def _mrc_gain_generic(model, k, pp, pd):
    """Node-tree form of device k's MRC coherent gain (reference for the rows
    of `approx.mrc_gain_rows`)."""
    idx = list(model.service_sets[k])
    b = model.beta[idx, k]
    kdev = model.num_devices
    return nodes.PosyProductSum(pp[k], np.log(kdev * b ** 2), np.ones(len(idx)), kdev * b,
                                1.0 - np.eye(len(idx)))


def _fzf_gain_generic(model, k, pp, pd):
    """Node-tree form of device k's zero-forcing gain coherent_k prod_{i != k}
    scale_ki (reference for the rows of `approx.fzf_gain_rows`)."""
    idx = list(model.service_sets[k])
    kdev = model.num_devices
    size = len(idx)
    b = model.beta[idx, k]
    coherent = nodes.PosyProductSum(pp[k], np.log(math.sqrt(kdev) * b), np.full(size, 0.5),
                                    kdev * b, 0.5 * (1.0 - np.eye(size)))
    return nodes.Product([coherent] + [
        nodes.PosyProductSum(pp[i], [0.0], [0.0], kdev * model.beta[idx, i],
                             np.full((1, size), 0.5)) for i in range(kdev) if i != k])


GENERIC = {MRC: _mrc_lhs_generic, FZF: _fzf_lhs_generic}
BLOCKS = {MRC: optimizer.mrc_rows, FZF: optimizer.fzf_rows}
# every term table with its row trees: the SINR rows over phi, the pilots and
# the payloads, and the gain tables of `approx` over the pilots alone
TABLES = {MRC: (BLOCKS[MRC], _mrc_lhs_generic), FZF: (BLOCKS[FZF], _fzf_lhs_generic),
          "mrc-gain": (lambda model, pp, pd, n: approx.mrc_gain_rows(model), _mrc_gain_generic),
          "fzf-gain": (lambda model, pp, pd, n: approx.fzf_gain_rows(model), _fzf_gain_generic)}
# (mean, spread) of the log powers: every factor saturated, or none
REGIMES = {"saturated": (22.0, 3.0), "unsaturated": (0.0, 1.5)}


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


def _block_and_trees(model, table, regime, rng):
    """A term table of TABLES, its K generic trees and a random point whose
    log powers are drawn from the regime.

    The SINR rows are laid out as in the max-slack GP: phi, which no row
    uses, then the pilots and the payloads."""
    kdev = model.num_devices
    sinr = table in (MRC, FZF)
    pp = int(sinr) + np.arange(kdev)
    pd = pp + kdev if sinr else []
    build, tree = TABLES[table]
    block = build(model, pp, pd, int(sinr) + len(pp) + len(pd))
    trees = [tree(model, k, pp, pd) for k in range(kdev)]
    y = np.concatenate([rng.normal(0, 1, int(sinr)),
                        rng.normal(*REGIMES[regime], len(pp) + len(pd))])
    return block, trees, y


@pytest.mark.parametrize("decoder", [MRC, FZF])
def test_sinr_rows_over_interleaved_columns_match_consecutive_ones(decoder, rng):
    # the tables name each pilot's and payload's column, so the rows over
    # pilots and payloads that alternate are the rows over consecutive runs
    # with their columns permuted
    for model in _block_models(rng):
        kdev = model.num_devices
        xs = np.arange(2 * kdev)
        runs = BLOCKS[decoder](model, xs[:kdev], xs[kdev:], 2 * kdev)
        interleaved = BLOCKS[decoder](model, xs[0::2], xs[1::2], 2 * kdev)
        # column i of the runs layout is column perm[i] of the interleaved one
        perm = np.concatenate([np.arange(0, 2 * kdev, 2), np.arange(1, 2 * kdev, 2)])
        for _ in range(3):
            y = rng.normal(22, 3, 2 * kdev)
            moved = np.empty_like(y)
            moved[perm] = y
            weights = rng.uniform(0.1, 3.0, kdev)
            vals, jac, hess = runs.log_eval(y)
            ivals, ijac, ihess = interleaved.log_eval(moved)
            assert np.array_equal(ivals, vals)
            assert np.array_equal(ijac[:, perm], jac)
            assert np.array_equal(ihess(weights)[np.ix_(perm, perm)], hess(weights))


@pytest.mark.parametrize("table", sorted(TABLES))
def test_fused_constraint_matches_generic_tree(table, rng):
    for model in _block_models(rng):
        kdev = model.num_devices
        for regime, trial in itertools.product(REGIMES, range(6)):
            block, trees, y = _block_and_trees(model, table, regime, rng)
            ref = [t.log_eval(y) for t in trees]
            weights = rng.uniform(0.1, 3.0, kdev)
            vals, jac, hess = block.log_eval(y)
            assert np.allclose(vals, [r[0] for r in ref], rtol=0, atol=1e-11)
            assert np.allclose(jac, [r[1] for r in ref], rtol=0, atol=1e-11)
            want = sum(w * r[2] for w, r in zip(weights, ref))
            assert np.allclose(hess(weights), want, rtol=0, atol=1e-10 * weights.sum())


@pytest.mark.parametrize("table", sorted(TABLES))
def test_fused_constraint_matches_finite_differences(table, rng):
    for model, regime in itertools.product(_block_models(rng), REGIMES):
        block, _, y = _block_and_trees(model, table, regime, rng)
        y -= 1.0                                   # away from saturation; phi is in no row
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

def chi_form(problem, floors, block_trees):
    """The step GP of `problem`, a `public_api_problem`, in the epigraph form
    it replaced: head variables chi_k after the step GP's own, maximize
    prod_k chi_k^w_k subject to chi_k * lhs_k <= floor_k * rhs_k for each
    weighted row k and the floor rows floor_k / chi_k <= 1; unweighted rows
    are copied. The rows are the node trees of the problem's rows, except
    that block_trees(pp, pd), given, writes the first K over the pilot and
    payload columns."""
    kdev, n = floors.size, len(problem.names)
    m = nodes.Problem()
    for name in problem.names:
        m.variable(name)
    chi = [m.variable(f"chi{k}") for k in range(kdev)]
    lhs, rhs = nodes.lhs_nodes(problem), nodes.rhs_monomials(problem)
    weights = np.array(nodes.row_weights(problem))
    if block_trees is not None:
        lhs[:kdev] = block_trees(np.arange(kdev), kdev + np.arange(kdev))
    assert np.array_equal(np.flatnonzero(weights), np.arange(kdev))   # the SINR rows come first
    for k, (left, right) in enumerate(zip(lhs, rhs)):
        if k < kdev:
            left = nodes.Product([chi[k], left])
            right = nodes.log_monomial(right.log_coeff + math.log(floors[k]), right.dense(n))
        m.add_le(left, right)
    for k in range(kdev):
        m.add_le(nodes.Monomial(float(floors[k]), {n + k: -1.0}), nodes.Const(1.0))
    m.maximize(nodes.Monomial(1.0, {n + k: weights[k] for k in range(kdev)}))
    return m.model(walk=True)


@pytest.mark.parametrize("scheme", [MRC, FZF, "fixed-pilot"])
def test_head_free_step_gp_reaches_its_chi_form_optimum(scheme):
    model = desk_model()
    kdev = model.num_devices
    floors = sinr_floors(fbl.FblParams.from_config(DESK), np.full(kdev, DESK.rate_req_bps))
    if scheme == "fixed-pilot":
        rounds = recorded_rounds(lambda: benchmark_fixed_pilot(model, DESK, MRC))
        public, trees = ("fixed-pilot", MRC), None
    else:
        rounds = recorded_rounds(lambda: optimizer.solve(model, DESK, scheme))
        public = scheme
        trees = lambda pp, pd: [GENERIC[scheme](model, k, pp, pd) for k in range(kdev)]
    steps = [(pilot_hat, w_hat, step, kwargs["start"])
             for pilot_hat, w_hat, step, kwargs, _ in rounds if w_hat is not None]
    assert len(steps) >= 2
    # the first step GP starts at the allocation its fits are exact at, where
    # SINR row k reads log(floor_k / SINR_k): the floors sit in the rows
    _, _, step, start = steps[0]
    pilot = model.energy / DESK.blocklength if scheme == "fixed-pilot" else start[:kdev]
    sinr = optimizer.true_sinr(model, optimizer.PowerAllocation(pilot, start[-kdev:]),
                               DESK.antennas_per_ap, MRC if scheme == "fixed-pilot" else scheme)
    margins = step.constraint_margins(start)[step.weights > 0]
    assert np.allclose(margins, np.log(floors / sinr), rtol=0, atol=1e-9)
    for pilot_hat, w_hat, step, start in steps:
        # K or 2K variables and 2K rows: the SINR rows and the energy or
        # payload-cap rows, the SINR rows weighted by the surrogate exponents
        assert len(step.names) == (kdev if scheme == "fixed-pilot" else 2 * kdev)
        weights = step.weights
        assert weights.size == 2 * kdev and np.count_nonzero(weights) == kdev
        assert sum(weights) == pytest.approx(1.0, rel=1e-12)
        # both forms from the same strictly feasible point, chi_k halfway (in
        # log) between the floor and the fitted SINR; both solved to 1e-11, so
        # the barrier's distance from the active rows is far below 1e-7
        margins = step.constraint_margins(start)
        assert margins.max() < 0
        chi = floors * np.exp(-0.5 * margins[weights > 0])
        problem = public_api_problem(model, DESK, public, floors, pilot_hat, w_hat)
        ref = chi_form(problem, floors, trees).solve(tol=1e-11,
                                                     start=np.concatenate([start, chi]))
        sol = step.solve(tol=1e-11, start=start)
        assert ref.status == sol.status == "optimal"
        assert np.allclose(ref.x[:-kdev], sol.x, rtol=1e-7, atol=0)


# --------------------------------------------------------------------------
# each round's GP against the same GP built row by row
# --------------------------------------------------------------------------

def public_api_gp(model, cfg, scheme, floors, pilot_hat, w_hat):
    """The GP of `public_api_problem`."""
    return public_api_problem(model, cfg, scheme, floors, pilot_hat, w_hat).model()


def public_api_problem(model, cfg, scheme, floors, pilot_hat, w_hat):
    """One round's GP written row by row as a `gp_nodes.Problem`: the max-slack
    GP when w_hat is None (phi first and maximized, every SINR right-hand
    side also divided by phi), else the step GP, SINR row k weighted by
    w_hat_k. scheme is MRC or FZF (the joint allocation, fitted at
    pilot_hat) or ("fixed-pilot", decoder)."""
    kdev = model.num_devices
    m = nodes.Problem()
    slack = {}
    if w_hat is None:
        phi = m.variable("phi")
        m.maximize(phi)
        slack = {0: -1.0}
    weights = np.zeros(kdev) if w_hat is None else w_hat

    def rhs(k, log_coeff, exponents):
        mono = nodes.Monomial(1.0, {**exponents, **slack})
        mono.log_coeff = log_coeff - math.log(floors[k])
        return mono

    if isinstance(scheme, tuple):
        pd = [len(m.names) + k for k in range(kdev)]
        for k in range(kdev):
            m.variable(f"pd{k}")
        pd_max = model.energy / cfg.blocklength
        stats = estimation_stats(model, model.energy / cfg.blocklength)
        n, coherent, noise, cross = fbl.sinr_pieces(model, stats, cfg.antennas_per_ap, scheme[1])
        gain = n * coherent
        for k in range(kdev):
            terms = [nodes.Monomial(cross[k, j] / gain[k], {pd[j]: 1.0})
                     for j in range(kdev)] + [nodes.Const(noise[k] / gain[k])]
            m.add_le(nodes.Sum(terms), rhs(k, 0.0, {pd[k]: 1.0}), weights[k])
        for k in range(kdev):
            m.add_le(nodes.var(pd[k]), nodes.Const(float(pd_max[k])))
        return m
    pp = [len(m.names) + k for k in range(kdev)]
    pd = [len(m.names) + kdev + k for k in range(kdev)]
    for name in [f"pp{k}" for k in range(kdev)] + [f"pd{k}" for k in range(kdev)]:
        m.variable(name)
    fit = (approx.mrc_gain_monomial(approx.mrc_gain_rows(model), pilot_hat) if scheme == MRC
           else approx.fzf_gain_monomial(approx.fzf_gain_rows(model), pilot_hat))
    fits = []
    for k in range(kdev):
        if scheme == MRC:
            fits.append(rhs(k, math.log(cfg.antennas_per_ap) + 2.0 * float(fit.log_coeff[k]),
                            {pp[k]: 2.0 * float(fit.exponents[k, k]), pd[k]: 1.0}))
        else:
            exps = {pp[j]: float(fit.exponents[k, j]) for j in range(kdev)}
            fits.append(rhs(k, math.log(cfg.antennas_per_ap - kdev) + float(fit.log_coeff[k]),
                            {**exps, pd[k]: 1.0}))
    m.add_block_le(BLOCKS[scheme](model, pp, pd, len(m.names)), fits, weights)
    for k in range(kdev):
        m.add_le(nodes.Sum([nodes.Monomial(float(kdev), {pp[k]: 1.0}),
                            nodes.Monomial(float(cfg.blocklength - kdev), {pd[k]: 1.0})]),
                 nodes.Const(float(model.energy[k])))
    return m


def recorded_rounds(run):
    """(pilot_hat, w_hat, GP, solve keywords, solution) of every GP that
    run's max-slack stage and SCA loop build, in order: each joint scheme
    builder records as it is made, any other as it enters the SCA loop."""
    built, solved, recorders = [], {}, []
    original_solve = gp.GpModel.solve
    joint_scheme, run_sca = optimizer._joint_scheme, optimizer._run_sca

    def solve(self, **kwargs):
        solved[id(self)] = (kwargs, original_solve(self, **kwargs))
        return solved[id(self)][1]

    def recording(build):
        def record(pilot_hat, w_hat):
            m = build(pilot_hat, w_hat)
            built.append((np.copy(pilot_hat), None if w_hat is None else np.copy(w_hat), m))
            return m
        recorders.append(record)
        return record

    def sca(*args):
        *head, build = args
        return run_sca(*head, build if build in recorders else recording(build))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp.GpModel, "solve", solve)
        mp.setattr(optimizer, "_joint_scheme", lambda *args: recording(joint_scheme(*args)))
        mp.setattr(optimizer, "_run_sca", sca)
        assert run().feasible
    return [(p, w, m) + solved[id(m)] for p, w, m in built]


def _bits(a):
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("scheme", [MRC, FZF, ("fixed-pilot", MRC), ("fixed-pilot", FZF)])
def test_reaimed_gps_match_gps_built_through_the_public_api(scheme):
    model = desk_model()
    kdev = model.num_devices
    floors = sinr_floors(fbl.FblParams.from_config(DESK), np.full(kdev, DESK.rate_req_bps))
    if isinstance(scheme, tuple):
        rounds = recorded_rounds(lambda: benchmark_fixed_pilot(model, DESK, scheme[1]))
    else:
        rounds = recorded_rounds(lambda: optimizer.solve(model, DESK, scheme))
    # a max-slack round first for the joint scheme only, and at least two
    # SCA steps in the step layout
    assert (rounds[0][1] is None) == (not isinstance(scheme, tuple))
    assert sum(w_hat is not None for _, w_hat, *_ in rounds) >= 2
    for pilot_hat, w_hat, step, kwargs, sol in rounds:
        ref = public_api_gp(model, DESK, scheme, floors, pilot_hat, w_hat)
        assert step.names == ref.names
        assert _bits(step.weights) == _bits(ref.weights)
        assert step.objective[0] == ref.objective[0]
        assert _bits(step.objective[1]) == _bits(ref.objective[1])
        # one term table, the fitted right-hand sides folded into its terms
        assert type(step.table) is type(ref.table) is gp.TermRows
        for name in ("c", "a", "b", "v", "m", "starts"):
            assert _bits(getattr(step.table, name)) == _bits(getattr(ref.table, name)), name
        again = ref.solve(**kwargs)
        assert (again.status, again.iterations) == (sol.status, sol.iterations)
        assert _bits(again.x) == _bits(sol.x)
        assert again.stage_objectives == sol.stage_objectives


@pytest.mark.parametrize("scheme", [MRC, FZF, ("fixed-pilot", MRC)])
def test_folded_round_tables_match_the_row_by_row_walk(scheme, rng):
    # every round's one table, fits folded into the SINR rows and stacked
    # over the energy or payload-cap rows, against each row of the same
    # round walked on its own: left-hand side minus right-hand side
    model = desk_model()
    kdev = model.num_devices
    floors = sinr_floors(fbl.FblParams.from_config(DESK), np.full(kdev, DESK.rate_req_bps))
    if isinstance(scheme, tuple):
        rounds = recorded_rounds(lambda: benchmark_fixed_pilot(model, DESK, scheme[1]))
    else:
        rounds = recorded_rounds(lambda: optimizer.solve(model, DESK, scheme))
    # the joint schemes' max-slack GPs and step GPs, the fixed-pilot step GPs
    assert {w_hat is None for _, w_hat, *_ in rounds} == (
        {False} if isinstance(scheme, tuple) else {True, False})
    for pilot_hat, w_hat, step, _, sol in rounds:
        walked = public_api_problem(model, DESK, scheme, floors, pilot_hat, w_hat).model(walk=True)
        for _ in range(3):
            y = np.log(sol.x) + rng.normal(0.0, 0.3, sol.x.size)
            weights = rng.uniform(0.1, 3.0, step.weights.size)
            vals, jac, hess = step.log_eval(y)
            ref_vals, ref_jac, ref_hess = walked.log_eval(y)
            assert np.allclose(vals, ref_vals, rtol=1e-12, atol=1e-11)
            assert np.allclose(jac, ref_jac, rtol=1e-12, atol=1e-11)
            assert np.allclose(hess(weights), ref_hess(weights), rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("decoder", [MRC, FZF])
def test_folding_a_round_leaves_the_previous_rounds_gp_bit_identical(decoder, rng):
    # a round's GP shares the scheme's factor arrays and row layout and
    # writes none of them: building and solving the next round changes no
    # bit of the last one's rows, Jacobian or Hessian
    model = desk_model()
    kdev = model.num_devices
    floors = sinr_floors(fbl.FblParams.from_config(DESK), np.full(kdev, DESK.rate_req_bps))
    build = optimizer._joint_scheme(model, DESK, decoder, floors)
    pilots = [model.energy / (2.0 * kdev) * f for f in (1.0, 0.3)]
    for w_hat in (None, np.full(kdev, 1.0 / kdev)):
        first = build(pilots[0], w_hat)
        y = rng.normal(20.0, 2.0, len(first.names))
        weights = rng.uniform(0.1, 3.0, first.weights.size)
        vals, jac, hess = first.log_eval(y)
        before = [_bits(vals), _bits(jac), _bits(hess(weights))]
        second = build(pilots[1], w_hat)
        for name in ("b", "v", "m", "select", "starts", "seg"):
            assert getattr(second.table, name) is getattr(first.table, name), name
        assert not np.shares_memory(second.table.c, first.table.c)
        assert not np.shares_memory(second.table.a, first.table.a)
        assert _bits(second.table.c) != _bits(first.table.c)
        second.log_eval(y)[2](weights)
        second.solve(tol=DESK.gp_tolerance)
        vals, jac, hess = first.log_eval(y)
        assert [_bits(vals), _bits(jac), _bits(hess(weights))] == before


@pytest.mark.parametrize("decoder", [MRC, FZF])
def test_feasibility_init_on_the_solves_scheme_matches_a_fresh_scheme(decoder, monkeypatch):
    # the solve hands its one scheme builder to the max-slack stage and the
    # SCA loop; after every round is built, the stage still returns the bits
    # a new builder gives
    model = desk_model()
    floors = sinr_floors(fbl.FblParams.from_config(DESK),
                         np.full(model.num_devices, DESK.rate_req_bps))
    builders = []
    original = optimizer.feasibility_init

    def spy(model, cfg, build):
        builders.append(build)
        return original(model, cfg, build)

    monkeypatch.setattr(optimizer, "feasibility_init", spy)
    assert optimizer.solve(model, DESK, decoder).status == "optimal"
    monkeypatch.undo()
    (build,) = builders
    used = feasibility_init(model, DESK, build)
    fresh = max_slack_stage(model, DESK, decoder, floors)
    assert used[0] is not None
    assert (used[1], used[2]) == (fresh[1], fresh[2])
    assert _bits(used[0].pilot) == _bits(fresh[0].pilot)
    assert _bits(used[0].payload) == _bits(fresh[0].payload)
