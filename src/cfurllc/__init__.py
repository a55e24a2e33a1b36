"""Joint pilot/payload power allocation for uplink cell-free massive MIMO
URLLC under finite blocklength: closed-form rate lower bounds for MRC and
zero-forcing decoders, an SCA-to-GP optimizer with a from-scratch GP solver,
and a Monte-Carlo link simulator validating every closed-form term.
"""

from .channel import EstimationStats, draw_channel, estimation_stats, substream
from .fbl import FblParams, lb_rate, lb_sinr_fzf, lb_sinr_mrc, q_inverse
from .montecarlo import ergodic_rate
from .optimizer import (PowerAllocation, SolveResult, benchmark_conventional,
                        benchmark_fixed_pilot, benchmark_upper_bound, solve)
from .scenario import (LargeScaleModel, SystemConfig, generate_topology,
                       load_config, noise_power_w, path_loss_db, select_aps)

__all__ = [
    "EstimationStats", "FblParams", "LargeScaleModel", "PowerAllocation",
    "SolveResult", "SystemConfig", "benchmark_conventional",
    "benchmark_fixed_pilot", "benchmark_upper_bound", "draw_channel",
    "ergodic_rate", "estimation_stats", "generate_topology",
    "lb_rate", "lb_sinr_fzf", "lb_sinr_mrc", "load_config", "noise_power_w",
    "path_loss_db", "q_inverse", "select_aps", "solve", "substream",
]

__version__ = "0.1.0"
