"""Acceptance criteria for the full build, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them live) and
enforces the stated tolerance. Expected values come from independent oracles
computed inside this module: exhaustive grid enumeration, finite differences,
Monte-Carlo statistics and closed-form hand values.
"""

import math
import os
import time

import numpy as np

from cfurllc import cli, fbl, montecarlo as mc, optimizer
from cfurllc.approx import (PENALTY_TANGENT_MIN, fzf_gain_monomial, fzf_gain_rows,
                            log1p_tangent, mrc_gain_monomial, mrc_gain_rows, penalty_tangent)
from cfurllc.channel import estimation_stats
from cfurllc.fbl import lb_rate, lb_sinr_fzf, lb_sinr_mrc
from cfurllc.scenario import SystemConfig, generate_topology

from conftest import random_model
from gp_nodes import Const, Monomial, Problem, Sum
from oracles import (expected_terms_fzf, expected_terms_mrc, fzf_factors, mrc_factors,
                     monomial_log_value, penalty_factor, sinr_fzf_from_factors,
                     sinr_mrc_from_factors)


def report(num, name, passed, detail=""):
    print(f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'}: {name} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


# --------------------------------------------------------------------------
# 1. product-form SINR rewrites match the direct formulas
# --------------------------------------------------------------------------

def test_criterion_1_identity_suite():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        model = random_model(rng)
        k = int(rng.integers(model.num_devices))
        pilot = np.exp(rng.normal(0.0, 1.5, model.num_devices))
        payload = np.exp(rng.normal(0.0, 1.5, model.num_devices))
        stats = estimation_stats(model, pilot)
        n_ant = model.num_devices + int(rng.integers(1, 6))
        direct = lb_sinr_mrc(model, stats, payload, n_ant)[k]
        via = sinr_mrc_from_factors(mrc_factors(model, pilot, k), payload, n_ant, k)
        worst = max(worst, abs(via - direct) / direct)
        direct = lb_sinr_fzf(model, stats, payload, n_ant)[k]
        via = sinr_fzf_from_factors(fzf_factors(model, pilot, k), payload,
                                    n_ant, model.num_devices, k)
        worst = max(worst, abs(via - direct) / direct)
    elapsed = time.time() - start
    report(1, "SINR rewrite identities", worst < 1e-10 and elapsed < 1.0,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. decoder-term expectations validated by Monte Carlo
# --------------------------------------------------------------------------

def test_criterion_2_term_validation():
    start = time.time()
    cfg = SystemConfig(num_devices=3, num_aps=4, antennas_per_ap=8,
                       ap_select_threshold=0.9)
    model = generate_topology(cfg, seed=3)
    params = fbl.FblParams.from_config(cfg)
    pp = np.full(3, 2e10)
    pd = np.full(3, 2e10)
    stats = estimation_stats(model, pp)
    failures = []
    for decoder, expect_fn in (("mrc", expected_terms_mrc),
                               ("fzf", expected_terms_fzf)):
        out = mc.simulate(model, stats, pd, decoder, 10000, seed=17,
                          n_antennas=8, params=params)
        expected = expect_fn(model, stats, pd, 8)
        if not np.allclose(out.ds2, expected["ds2"], rtol=1e-12):
            failures.append(f"{decoder} ds2")
        for name in ("ls2", "n2"):
            sample = getattr(out, name)
            se = sample.std(axis=0, ddof=1) / 100.0
            if np.any(np.abs(sample.mean(axis=0) - expected[name]) > 3 * se):
                failures.append(f"{decoder} {name}")
        ui = out.ui2.mean(axis=0)
        se = out.ui2.std(axis=0, ddof=1) / 100.0
        off = ~np.eye(3, dtype=bool)
        if np.any(np.abs(ui - expected["ui2"])[off] > (3 * se)[off]):
            failures.append(f"{decoder} ui2")
    elapsed = time.time() - start
    report(2, "decoder-term Monte-Carlo validation",
           not failures and elapsed < 60.0,
           f"failures={failures or 'none'}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. lower-bound property and tightness trends
# --------------------------------------------------------------------------

def test_criterion_3_lower_bound_property():
    k = 5
    power = 2e11
    trials = 3000
    violations = 0
    fzf_worst_gap = 0.0
    mrc_avg_gap = []
    for m, n in ((1, 72), (4, 18), (9, 8)):
        cfg = SystemConfig(num_devices=k, num_aps=m, antennas_per_ap=n,
                           ap_select_threshold=0.9)
        params = fbl.FblParams.from_config(cfg)
        gaps = []
        for dep in range(3):
            model = generate_topology(cfg, seed=100 + dep)
            p = np.full(k, power)
            stats = estimation_stats(model, p)
            for decoder, closed_fn in (("mrc", lb_sinr_mrc), ("fzf", lb_sinr_fzf)):
                closed = closed_fn(model, stats, p, n)
                lb = np.array([lb_rate(closed[i], params, i) for i in range(k)])
                mean, ci = mc.ergodic_rate(model, stats, p, decoder, trials,
                                           50 + dep, n, params)
                violations += int(np.any(mean < lb - ci))
                wsum_erg = float(model.weights @ mean)
                wsum_lb = float(model.weights @ lb)
                if decoder == "fzf":
                    fzf_worst_gap = max(fzf_worst_gap,
                                        (wsum_erg - wsum_lb) / wsum_erg)
                else:
                    gaps.append(wsum_erg - wsum_lb)
        mrc_avg_gap.append(float(np.mean(gaps)))
    monotone = all(b >= a > 0 for a, b in zip(mrc_avg_gap, mrc_avg_gap[1:]))
    report(3, "lower-bound property and tightness trends",
           violations == 0 and fzf_worst_gap <= 0.05 and monotone,
           f"violations={violations}, fzf gap={fzf_worst_gap:.3f}, "
           f"mrc gaps by M={np.round(np.array(mrc_avg_gap) / 1e6, 2)} Mbps")


# --------------------------------------------------------------------------
# 4. tangent and monomial approximation suites
# --------------------------------------------------------------------------

def test_criterion_4_approximation_suites():
    rng = np.random.default_rng(404)
    eps = 1e-6
    issues = []

    worst = 0.0
    for _ in range(1000):
        x_hat = float(10 ** rng.uniform(-2, 1.5))
        x = float(10 ** rng.uniform(-3, 2))
        rho, delta = log1p_tangent(x_hat)
        worst = min(worst, math.log1p(x) - (rho * math.log(x) + delta))
        if abs(rho * math.log(x_hat) + delta - math.log1p(x_hat)) > 1e-12:
            issues.append("log1p equality")
    if worst < -1e-9:
        issues.append(f"log1p bound {worst:.1e}")

    worst = 0.0
    for _ in range(1000):
        x_hat = float(rng.uniform(PENALTY_TANGENT_MIN, 20.0))
        x = float(rng.uniform(PENALTY_TANGENT_MIN, 40.0))
        rho_t, delta_t = penalty_tangent(x_hat)
        worst = min(worst, (rho_t * math.log(x) + delta_t) - penalty_factor(x))
        if abs(rho_t * math.log(x_hat) + delta_t
               - penalty_factor(x_hat)) > 1e-12:
            issues.append("penalty equality")
    if worst < -1e-9:
        issues.append(f"penalty bound {worst:.1e}")

    def mrc_gain(model, p, k):
        idx = list(model.service_sets[k])
        b = model.beta[idx, k]
        kp = model.num_devices * p
        return sum(kp * b[m] ** 2
                   * np.prod([kp * b[n] + 1.0 for n in range(len(idx)) if n != m])
                   for m in range(len(idx)))

    for _ in range(1000):
        model = random_model(rng)
        k = int(rng.integers(model.num_devices))
        p_hat = float(10 ** rng.uniform(-2, 2))
        fit = mrc_gain_monomial(mrc_gain_rows(model), np.full(model.num_devices, p_hat))
        exact_hat = mrc_gain(model, p_hat, k)
        if abs(math.exp(monomial_log_value(fit, np.full(model.num_devices, p_hat), k))
               - exact_hat) > 1e-12 * exact_hat:
            issues.append("mrc fit equality")
            break
        p = float(10 ** rng.uniform(-3, 3))
        exact = mrc_gain(model, p, k)
        if exact - math.exp(monomial_log_value(fit, np.full(model.num_devices, p), k)) \
                < -1e-9 * exact:
            issues.append("mrc fit bound")
            break
    # log-gradient tangency against central differences
    for _ in range(60):
        model = random_model(rng)
        k = int(rng.integers(model.num_devices))
        p_hat = float(10 ** rng.uniform(-1, 1))
        fit = mrc_gain_monomial(mrc_gain_rows(model), np.full(model.num_devices, p_hat))
        fd = (math.log(mrc_gain(model, p_hat * math.exp(eps), k))
              - math.log(mrc_gain(model, p_hat * math.exp(-eps), k))) / (2 * eps)
        if abs(fit.exponents[k, k] - fd) > 1e-6:
            issues.append("mrc fit gradient")
            break

    def fzf_log_gain(model, p, k):
        f = fzf_factors(model, p, k)
        return 2.0 * f.log_coherent + 2.0 * (f.log_scale.sum() - f.log_scale[k])

    for _ in range(1000):
        model = random_model(rng, num_devices=int(rng.integers(2, 5)))
        k = int(rng.integers(model.num_devices))
        p_hat = np.exp(rng.normal(0.0, 1.0, model.num_devices))
        fit = fzf_gain_monomial(fzf_gain_rows(model), p_hat)
        if abs(monomial_log_value(fit, p_hat, k) - fzf_log_gain(model, p_hat, k)) > 1e-12:
            issues.append("fzf fit equality")
            break
        p = np.exp(rng.normal(0.0, 1.5, model.num_devices))
        if fzf_log_gain(model, p, k) - monomial_log_value(fit, p, k) < -1e-9:
            issues.append("fzf fit bound")
            break
    for _ in range(30):
        model = random_model(rng, num_devices=int(rng.integers(2, 5)))
        k = int(rng.integers(model.num_devices))
        p_hat = np.exp(rng.normal(0.0, 1.0, model.num_devices))
        fit = fzf_gain_monomial(fzf_gain_rows(model), p_hat)
        for j in range(model.num_devices):
            up, dn = p_hat.copy(), p_hat.copy()
            up[j] *= math.exp(eps)
            dn[j] *= math.exp(-eps)
            fd = (fzf_log_gain(model, up, k) - fzf_log_gain(model, dn, k)) / (2 * eps)
            if abs(fit.exponents[k, j] - fd) > 1e-6:
                issues.append("fzf fit gradient")
                break

    report(4, "approximation suites", not issues, f"issues={issues or 'none'}")


# --------------------------------------------------------------------------
# 5. GP solver against exhaustive enumeration
# --------------------------------------------------------------------------

def _random_gp_data(rng):
    """Random 2-variable GP as raw coefficient data (oracle-friendly)."""
    obj = (float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 1.5)))
    cons = [([1.0, 1.0], [(1.0, 0.0), (0.0, 1.0)], float(rng.uniform(2.0, 8.0)))]
    for _ in range(int(rng.integers(1, 3))):
        terms = int(rng.integers(1, 4))
        coeffs = [float(rng.uniform(0.2, 2.0)) for _ in range(terms)]
        exps = [(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)))
                for _ in range(terms)]
        cons.append((coeffs, exps, float(rng.uniform(2.0, 30.0))))
    return obj, cons


def _build_gp(obj, cons):
    m = Problem()
    m.variable("x")
    m.variable("y")
    m.maximize(Monomial(1.0, {0: obj[0], 1: obj[1]}))
    for coeffs, exps, cap in cons:
        m.add_le(Sum([Monomial(c, {0: e[0], 1: e[1]})
                      for c, e in zip(coeffs, exps)]), Const(cap))
    return m.model()


def _grid_max(obj, cons, window, points):
    """Best feasible grid value plus the box holding every near-best candidate.

    Along an active constraint the sampled boundary depth is noisy, so the
    argmax alone can sit far from the true optimum; the candidate box bounds
    where the optimum can hide and steers the next refinement stage.
    """
    (x0, x1), (y0, y1) = window
    gx = np.linspace(x0, x1, points)
    gy = np.linspace(y0, y1, points)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    feas = np.ones(xx.shape, dtype=bool)
    for coeffs, exps, cap in cons:
        total = np.zeros(xx.shape)
        for c, e in zip(coeffs, exps):
            total += c * np.exp(e[0] * xx + e[1] * yy)
        feas &= total <= cap * (1 + 1e-12)
    logval = obj[0] * xx + obj[1] * yy
    logval[~feas] = -np.inf
    best = float(logval.max())
    steps = (gx[1] - gx[0], gy[1] - gy[0])
    # anything within one grad-times-cell of the best could still win
    margin = 2.0 * (obj[0] + obj[1]) * max(steps)
    cand = logval >= best - margin
    box = ((float(xx[cand].min()) - 2 * steps[0], float(xx[cand].max()) + 2 * steps[0]),
           (float(yy[cand].min()) - 2 * steps[1], float(yy[cand].max()) + 2 * steps[1]))
    return best, box


def _grid_oracle(obj, cons):
    window = ((math.log(1e-3), math.log(10.0)),) * 2
    best = -np.inf
    points = 1000
    for _ in range(3):
        val, window = _grid_max(obj, cons, window, points)
        best = max(best, val)
        points = 1200
    return math.exp(best)


def test_criterion_5_gp_solver_oracle():
    worst = 0.0
    scaling_err = 0.0
    for i in range(50):
        rng = np.random.default_rng(500 + i)
        obj, cons = _random_gp_data(rng)
        sol = _build_gp(obj, cons).solve()
        assert sol.status == "optimal"
        ref = _grid_oracle(obj, cons)
        worst = max(worst, abs(sol.objective - ref) / ref)

    # scaling invariance: x' = c x gives the rescaled optimizer exactly
    def build_scaled(scale):
        sx, sy = scale
        m = Problem()
        m.variable("x")
        m.variable("y")
        m.maximize(Monomial(sx ** -1.2 * sy ** -0.7, {0: 1.2, 1: 0.7}))
        m.add_le(Sum([Monomial(1 / sx, {0: 1.0}), Monomial(1 / sy, {1: 1.0})]),
                 Const(5.0))
        m.add_le(Monomial(sx ** -1.0 * sy ** -0.5, {0: 1.0, 1: 0.5}), Const(3.0))
        return m.model().solve()

    base = build_scaled((1.0, 1.0))
    for scale in ((9.0, 0.05), (0.02, 4.0)):
        scaled = build_scaled(scale)
        scaling_err = max(scaling_err,
                          abs(scaled["x"] - scale[0] * base["x"]) / (scale[0] * base["x"]),
                          abs(scaled["y"] - scale[1] * base["y"]) / (scale[1] * base["y"]))
    report(5, "GP solver vs grid enumeration",
           worst < 1e-3 and scaling_err < 1e-6,
           f"worst rel {worst:.2e}, scaling err {scaling_err:.2e}")


# --------------------------------------------------------------------------
# 6. SCA convergence behavior at desk scale
# --------------------------------------------------------------------------

def test_criterion_6_sca_behavior():
    issues = []
    for decoder, cap in (("mrc", 10), ("fzf", 25)):
        for m in (1, 4):
            n = 48 // m
            # the centralized layout needs the larger budget to cover devices
            # far from the single site
            cfg = SystemConfig(num_devices=5, num_aps=m, antennas_per_ap=n,
                               ap_select_threshold=0.9, energy_budget=5e13,
                               gp_tolerance=1e-8)
            model = generate_topology(cfg, seed=21)
            start = time.time()
            res = optimizer.solve(model, cfg, decoder)
            elapsed = time.time() - start
            obj = np.array(res.trace.objective)
            if not np.all(np.diff(obj) >= -1e-9 * obj[:-1]):
                issues.append(f"{decoder} M={m} not monotone")
            if len(obj) - 1 > cap:
                issues.append(f"{decoder} M={m} took {len(obj)-1} iterations")
            if elapsed >= 30.0:
                issues.append(f"{decoder} M={m} took {elapsed:.1f}s")
            if res.status != "optimal":
                issues.append(f"{decoder} M={m} status {res.status}")
    report(6, "SCA monotonicity and iteration caps", not issues,
           f"issues={issues or 'none'}")


# --------------------------------------------------------------------------
# 7. end-to-end optimizer against the 2-D grid
# --------------------------------------------------------------------------

def test_criterion_7_single_device_oracle():
    from test_optimizer import grid_best_rate
    worst = 0.0
    for decoder in ("mrc", "fzf"):
        cfg = SystemConfig(num_devices=1, num_aps=1, antennas_per_ap=4,
                           energy_budget=1e13, gp_tolerance=1e-8)
        model = generate_topology(cfg, seed=5)
        model.weights[0] = 1.0
        best, _ = grid_best_rate(cfg, float(model.beta[0, 0]), decoder,
                                 points=1400)
        res = optimizer.solve(model, cfg, decoder)
        worst = max(worst, abs(res.weighted_sum_rate - best) / best)
    report(7, "single-device grid oracle", worst < 0.01, f"worst rel {worst:.3%}")


# --------------------------------------------------------------------------
# 8. benchmark scheme ordering over random deployments
# --------------------------------------------------------------------------

def test_criterion_8_scheme_ordering():
    cfg = SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12,
                       ap_select_threshold=0.9, energy_budget=5e12,
                       gp_tolerance=1e-8)
    rows = [cli._scheme_rates((cfg, 900, dep, "mrc")) for dep in range(30)]
    upper = np.array([r["upper_bound"] for r in rows])
    proposed = np.array([r["proposed"] for r in rows])
    fixed = np.array([r["fixed_pilot"] for r in rows])
    per_instance = np.all(proposed >= fixed * (1 - 1e-9))
    averages = upper.mean() >= proposed.mean() >= fixed.mean()
    report(8, "benchmark scheme ordering",
           bool(per_instance and averages),
           f"means (Mbps): upper {upper.mean()/1e6:.2f} >= "
           f"proposed {proposed.mean()/1e6:.2f} >= fixed {fixed.mean()/1e6:.2f}; "
           f"per-instance holds: {per_instance}")


# --------------------------------------------------------------------------
# 9. AP-selection threshold sweep shape
# --------------------------------------------------------------------------

def test_criterion_9_threshold_sweep():
    grid = cli.THRESHOLD_GRID
    deployments = 18
    cfg0 = SystemConfig(num_devices=5, num_aps=4, antennas_per_ap=12,
                        energy_budget=2e12, gp_tolerance=1e-8)
    means = []
    for th in grid:
        cfg = cfg0.replace(ap_select_threshold=th)
        vals = []
        for dep in range(deployments):
            model = generate_topology(cfg, seed=700 + dep)
            res = optimizer.solve(model, cfg, "mrc")
            vals.append(res.weighted_sum_rate if res.feasible else 0.0)
        means.append(float(np.mean(vals)))
    means = np.array(means)
    peak = int(np.argmax(means))
    slack = 0.02 * means.max()
    unimodal = (np.all(np.diff(means[:peak + 1]) >= -slack)
                and np.all(np.diff(means[peak:]) <= slack))
    ok = grid[peak] >= 0.85 and means[-1] <= means[peak] and unimodal
    report(9, "threshold sweep shape", bool(ok),
           f"curve (Mbps) {np.round(means / 1e6, 2)}, peak at Th={grid[peak]}")


# --------------------------------------------------------------------------
# 10. byte-identical experiment reruns across worker counts
# --------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    base = SystemConfig(num_devices=3, energy_budget=5e12, master_seed=11,
                        gp_tolerance=1e-8)
    profile = {
        "num_devices": 3, "total_antennas": 16, "ap_counts": (1, 4),
        "trials": 400, "deployments": 4,
        "tightness_mn": (32,), "tightness_aps": (1, 4),
        "tightness_power": 2e11, "tightness_deployments": 2,
        "threshold_energy": 2e12, "energy_grid": (2e12,), "devices_grid": (2,),
    }
    blobs = []
    for tag, workers in (("one", 1), ("rerun", 1), ("eight", 8)):
        out = tmp_path / tag
        os.makedirs(out, exist_ok=True)
        p1 = cli.run_experiment("tightness", base, profile, 11, str(out), 400, workers)
        p2 = cli.run_experiment("converge", base, profile, 11, str(out), 400, workers)
        with open(p1, "rb") as fh:
            b1 = fh.read()
        with open(p2, "rb") as fh:
            b2 = fh.read()
        blobs.append((b1, b2))
    ok = blobs[0] == blobs[1] == blobs[2]
    report(10, "byte-identical reruns across worker counts", ok,
           f"{len(blobs[0][0])}+{len(blobs[0][1])} bytes compared")
