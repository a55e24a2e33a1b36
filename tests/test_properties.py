"""Property suite: the allocation invariants of the paper on random instances.

Every deployment comes from `conftest.random_model` (1-5 APs, 1-5 devices,
log-normal gains, energy 1e12 per device) with its gains scaled by a
log-uniform factor in 1e-12 ... 1e-9, which spans instances from hopeless to
comfortably feasible. Hypothesis runs derandomized, so the examples are the
same on every run.
"""

import numpy as np
from conftest import random_model
from hypothesis import given, settings
from hypothesis import strategies as st

from cfurllc import fbl, optimizer
from cfurllc.scenario import SystemConfig

SCHEMES = {"joint": optimizer.solve, "fixed_pilot": optimizer.benchmark_fixed_pilot}


def check_result(res, model, cfg, scheme):
    if not res.feasible:
        assert res.status == "infeasible", res.message
        assert res.weighted_sum_rate == 0.0
        assert res.allocation is None
        return
    params = fbl.FblParams.from_config(cfg)
    floors = optimizer.sinr_floors(params, np.full(model.num_devices, cfg.rate_req_bps))
    assert np.all(res.sinr >= floors * (1 - 1e-9))
    assert np.all(res.rates >= cfg.rate_req_bps * (1 - 1e-9))
    used = res.allocation.energy(model.num_devices, cfg.blocklength)
    assert np.all(used <= model.energy * (1 + 1e-9))
    obj = np.array(res.trace.objective)
    assert np.all(np.diff(obj) >= -1e-9 * obj[:-1])
    assert max(res.trace.objective) == res.weighted_sum_rate
    if scheme == "fixed_pilot":
        assert np.array_equal(res.allocation.pilot, model.energy / cfg.blocklength)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-12.0, -9.0))
def test_allocation_invariants(seed, log_scale):
    model = random_model(np.random.default_rng(seed), beta_scale=10.0 ** log_scale)
    cfg = SystemConfig(num_devices=model.num_devices, num_aps=model.num_aps,
                       antennas_per_ap=8)
    for scheme, run in SCHEMES.items():
        for decoder in fbl.DECODERS:
            check_result(run(model, cfg, decoder), model, cfg, scheme)
