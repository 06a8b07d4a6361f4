"""Asymptotic error prediction and correction for Gauss-Legendre
quadrature of integrands with an interior power or logarithmic
singularity."""

from .corrected_quadrature import CorrectedResult, corrected_integral
from .error_predictor import (CoefficientBounds, ErrorPrediction,
                              coefficient_bounds, leading_term,
                              log_case_leading, log_envelope_constants,
                              power_case_leading, predicted_order,
                              psi0_solve, recommend_n)
from .experiments import (ExperimentRecord, SweepConfig,
                          envelope_violations, example_integrand,
                          fit_envelope_slope, report, run_sweep, write_csv)
from .gauss_rule import (QuadratureRule, apply_rule, compute_rule,
                         compute_rules, remainder)
from .reference_oracle import (ExactIntegral, exact_integral,
                               split_adaptive_integral)
from .singularity_model import (GeneralJump, PhaseInfo, Power, PowerLog,
                                SingularIntegrand, gauss_envelope, jump,
                                parse_integrand, phase)
from .special_functions import zeta_fn

__version__ = "0.1.0"
