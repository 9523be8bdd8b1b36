"""chanuq: uncertainty measures and lower bounds for quantum channels."""

from .bounds import (BoundReport, FineGrainedTerms, bound_report, dou_bounds,
                     fine_grained_terms, heisenberg_bound, lb1_eq14, lb_eq13,
                     luo_bound, schrodinger_bound, thm1_bound, thm2_bound,
                     thm3_bound, thm4_bound)
from .ensembles import (EnsembleConfig, SplitMix64, VerificationReport, Violation,
                        random_channel, random_density, random_operator, verify_suite)
from .errors import (BoundViolationError, ChanuqError, CompletenessError,
                     DimensionMismatchError, NotHermitianError, NotPositiveError,
                     NumericError, SchemaError, TraceError, ValidationError)
from .examples import (ClosedFormValues, channel_E, channel_F,
                       closed_forms, example1_closed_forms, example2_closed_forms,
                       example_state, rho_theta_state, werner_state)
from .linalg import (SpectralDecomposition, anticommutator, cartesian_decompose,
                     commutator, frob_inner, hermitian_eig, psd_sqrt,
                     sym_anticommutator, sym_commutator)
from .measures import (MeasureSet, abs_variance, channel_measures, mwy_anti_info,
                       mwy_skew_info, operator_u, sym_abs_variance)
from .objects import (DensityMatrix, KrausChannel, center_operator,
                      channel_from_json, channel_to_json, make_channel, make_density,
                      state_from_json, state_to_json)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "BoundViolationError", "ChanuqError", "ClosedFormValues",
    "CompletenessError", "DensityMatrix", "DimensionMismatchError",
    "EnsembleConfig", "FineGrainedTerms", "KrausChannel",
    "MeasureSet", "NotHermitianError", "NotPositiveError", "NumericError",
    "SchemaError", "SpectralDecomposition", "SplitMix64", "TraceError",
    "ValidationError", "VerificationReport", "Violation",
    "abs_variance", "anticommutator", "bound_report",
    "cartesian_decompose", "center_operator", "channel_E", "channel_F",
    "channel_from_json", "channel_measures", "channel_to_json", "closed_forms",
    "commutator", "dou_bounds", "example1_closed_forms", "example2_closed_forms",
    "example_state", "fine_grained_terms", "frob_inner", "heisenberg_bound",
    "hermitian_eig", "lb1_eq14", "lb_eq13", "luo_bound", "make_channel",
    "make_density", "mwy_anti_info", "mwy_skew_info", "operator_u",
    "psd_sqrt", "random_channel", "random_density",
    "random_operator", "rho_theta_state", "schrodinger_bound",
    "sym_abs_variance", "sym_anticommutator", "sym_commutator", "thm1_bound",
    "thm2_bound", "thm3_bound", "thm4_bound", "verify_suite", "werner_state",
]
