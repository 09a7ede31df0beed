"""Exact variance-components estimation for random-effects ANOVA.

Certified solutions of the ML and REML critical equations: unbalanced
one-way layouts (optionally with covariates) reduce to a univariate
profile polynomial with integer coefficients; balanced two-way layouts
eliminate to a quartic. All algebra is exact over the rationals; the
only approximation anywhere is outward-rounded interval enclosure of
logarithms, so reported optima carry certified error bounds.

Each submodule is importable on its own; the names re-exported here
cover the common workflow: summarize data, fit, read the report.
ml_fit/reml_fit live in both `oneway` (plain layouts) and `covariates`
(general fixed-effect designs) and are intentionally not flattened.
"""

from . import covariates, oneway, twoway
# No fit imports multipoly; loading it with the package keeps its reference
# determinants and resultants reachable as exactvc.multipoly, where the
# traced benchmark (perfbench/spans.py) wraps them.
from . import multipoly  # noqa: F401
from .covariates import DesignProblem
from .errors import (
    ContractViolationError,
    DegenerateDataError,
    DegenerateDesignError,
    DivisibilityError,
    ExactVCError,
    InputError,
    ModelAssumptionError,
    NongenericDataError,
    RankDeficiencyError,
    UndefinedInputError,
)
from .polynomials import UniPoly, rat
from .profilefit import Estimates, FitReport, ProfileEquation
from .roots import RootInterval
from .stats import (
    GroupedData,
    OneWayStats,
    ml_degree,
    multiplicity_profile,
    reml_degree,
    summarize,
)
from .twoway import (
    TwoWayFitReport,
    TwoWayStats,
    eliminate_to_quartic,
    fit_twoway,
    ml_system,
    twoway_stats,
)

__version__ = "0.1.0"

__all__ = [
    "ContractViolationError",
    "DegenerateDataError",
    "DegenerateDesignError",
    "DesignProblem",
    "DivisibilityError",
    "Estimates",
    "ExactVCError",
    "FitReport",
    "GroupedData",
    "InputError",
    "ModelAssumptionError",
    "NongenericDataError",
    "OneWayStats",
    "ProfileEquation",
    "RankDeficiencyError",
    "RootInterval",
    "TwoWayFitReport",
    "TwoWayStats",
    "UndefinedInputError",
    "UniPoly",
    "covariates",
    "eliminate_to_quartic",
    "fit_twoway",
    "ml_degree",
    "ml_system",
    "multiplicity_profile",
    "oneway",
    "rat",
    "reml_degree",
    "summarize",
    "twoway",
    "twoway_stats",
]
