"""Property suite: the allocation invariants of the paper on random instances.

Every deployment comes from `conftest.random_model` (1-5 APs, 1-5 devices,
log-normal gains, energy 1e12 per device) with its gains scaled by a
log-uniform factor in 1e-12 ... 1e-9, which spans instances from hopeless to
comfortably feasible, and a rate requirement log-uniform in 1e6 ... 1e12 bit/s,
drawn from the deployment's generator, whose top decades no SINR reaches. Each
instance runs all four schemes through `optimizer.compare`: the upper bound is
checked under zero-dispersion params, and conventional, built from that
upper-bound result, under the true ones; proposed is at least every feasible
benchmark it contains. Hypothesis runs derandomized, so the examples are the
same on every run.
"""

import numpy as np
from conftest import random_model
from hypothesis import given, settings
from hypothesis import strategies as st

from cfurllc import fbl, optimizer
from cfurllc.scenario import SystemConfig


def check_result(res, model, cfg, scheme, params, upper=None):
    """The invariants of one scheme's result; `upper` is conventional's
    upper-bound result, whose allocation and trace it keeps."""
    if not res.feasible:
        assert res.status == "infeasible", res.message
        assert res.weighted_sum_rate == 0.0
        # conventional keeps a penalty-free allocation that misses a requirement
        assert res.allocation is (None if upper is None or not upper.feasible
                                  else upper.allocation)
        return
    floors = optimizer.sinr_floors(params, cfg.rate_req_bps)
    assert np.all(res.sinr >= floors * (1 - 1e-9))
    assert np.all(res.rates >= cfg.rate_req_bps * (1 - 1e-9))
    used = res.allocation.energy(model.num_devices, cfg.blocklength)
    assert np.all(used <= model.energy * (1 + 1e-9))
    obj = np.array(res.trace.objective)
    assert np.all(np.diff(obj) >= -1e-9 * obj[:-1])
    if upper is None:
        assert max(res.trace.objective) == res.weighted_sum_rate
    else:
        # the same allocation, its rates now under the dispersion penalty
        assert res.allocation is upper.allocation and res.trace is upper.trace
        assert res.weighted_sum_rate <= upper.weighted_sum_rate
    if scheme == "fixed_pilot":
        assert np.array_equal(res.allocation.pilot, model.energy / cfg.blocklength)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-12.0, -9.0))
def test_allocation_invariants(seed, log_scale):
    rng = np.random.default_rng(seed)
    model = random_model(rng, beta_scale=10.0 ** log_scale)
    cfg = SystemConfig(num_devices=model.num_devices, num_aps=model.num_aps,
                       antennas_per_ap=8, rate_req_bps=10.0 ** rng.uniform(6.0, 12.0))
    params = fbl.FblParams.from_config(cfg)
    for decoder in fbl.DECODERS:
        res = optimizer.compare(model, cfg, decoder)
        upper = res["upper_bound"]
        check_result(upper, model, cfg, "upper_bound", params.with_zero_dispersion())
        check_result(res["conventional"], model, cfg, "conventional", params, upper)
        check_result(res["proposed"], model, cfg, "joint", params)
        check_result(res["fixed_pilot"], model, cfg, "fixed_pilot", params)
        # a feasible benchmark allocation is a feasible point of the proposed problem
        for scheme in ("conventional", "fixed_pilot"):
            if res[scheme].feasible:
                assert res["proposed"].feasible
                assert (res[scheme].weighted_sum_rate
                        <= res["proposed"].weighted_sum_rate * (1 + 1e-9)), scheme
