"""Joint pilot/payload power allocation for uplink cell-free massive MIMO
URLLC under finite blocklength: closed-form rate lower bounds for MRC and
zero-forcing decoders, an SCA-to-GP optimizer with a from-scratch GP solver,
and a Monte-Carlo link simulator validating every closed-form term.
"""

from .optimizer import solve
from .scenario import SystemConfig, generate_topology

__all__ = ["SystemConfig", "generate_topology", "solve"]

__version__ = "0.1.0"
