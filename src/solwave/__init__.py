"""Solitary waves of nonlocal dispersive equations u_t + (Lu + n(u))_x = 0.

Pseudospectral computation of constrained energy minimizers at fixed momentum,
their KdV-type long-wave limits, and time-dependent stability experiments.
"""

__version__ = "0.1.0"
