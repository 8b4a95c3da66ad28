"""Numerical toolkit for one-sided Muckenhoupt-Sawyer weights,
one-sided oscillatory singular integrals, and interpolation with change
of measures, with desk-scale verification campaigns."""

from .errors import ConfigError, DomainError, GridMismatchError
from .grid import SampledFunction, dual_exponent, grid_nodes, resample
from .interpolate import (InterpolationEndpoints, MultiplierReport,
                          interpolate_weights, verify_on_multiplier)
from .operators import (KernelSpec, PolynomialPhase, PVConfig, kernel_cancellation_sup,
                        m_minus, m_plus, normalize_phase, oscillating_log_kernel,
                        scaling_identity_check, truncated_power_kernel)
from .weights import (BumpSearchResult, ConstantReport, TripleSearchConfig,
                      WeightSpec, a1_constant, ap_both_constant,
                      ap_general_constant, ap_minus_constant, ap_plus_constant,
                      dilate, dual_weight, gamma_fourpoint_constant,
                      power_bump_search, reflect, rh_infty_constant,
                      rh_plus_constant, weight_power, weight_product)
from .experiments import (DecayFit, NormRatioReport, OperatorSpec,
                          TestFunctionFamily, coefficient_sweep, dyadic_decay,
                          generate_family, norm_ratio)

__version__ = "0.1.0"
