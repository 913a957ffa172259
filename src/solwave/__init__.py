"""Solitary waves of nonlocal dispersive equations u_t + (Lu + n(u))_x = 0.

Pseudospectral computation of constrained energy minimizers at fixed momentum,
their KdV-type long-wave limits, and time-dependent stability experiments.
"""

__version__ = "0.1.0"

from .analysis import (LongWaveComparison, ScalingRecord, band_split,
                       convergence_study, reduced_reference, scaling_diagnostics,
                       weighted_norm)
from .errors import SolwaveError
from .evolution import (EvolutionConfig, EvolutionTrace, StabilityReport,
                        TravelReport, evolve, perturbation,
                        stability_experiment, travel_test)
from .functionals import (Penalization, Problem, energy, energy_gradient, momentum,
                          reduced_problem)
from .grid import (PeriodicGrid, SpectralField, h1_norm, inner_l2, l2_norm, sup_norm,
                   tail_max)
from .longwave import (ScalingExponents, exponents, kdv_energy, kdv_soliton,
                       kdv_speed, orbit_distance, scale_down)
from .nonlinearity import (Nonlinearity, nonlinearity_from_name, odd_power,
                           polynomial, quadratic, signed_modulus)
from .solver import (SolveConfig, WaveProfile, continuation_sweep,
                     minimize_constrained, minimize_reduced, petviashvili)
from .symbols import (DispersionSymbol, gaussian, multiplier_values, rational,
                      symbol_from_name, taylor_remainder, validate_symbol, whitham)
