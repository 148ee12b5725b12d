"""Directional multivariate dependence measures on checkerboard copulas.

Estimate how strongly one variable (or group of variables) depends on
another group: 0 means independence, 1 means the target is a function of
the conditioning block.  Everything is rank-based and grid-based, so the
measures are invariant under strictly monotone reparameterizations of the
data and shrink to exact finite sums on the grid.
"""

from .errors import (
    CopdepError,
    CopulaValidationError,
    DegenerateBoundError,
    EvaluationError,
    IncompatibleOperandsError,
    InsufficientDataError,
    InvalidArgumentError,
    InvalidDataError,
)
from .estimation import (
    PseudoObservations,
    ResolutionPolicy,
    choose_resolution,
    fit_checkerboard,
    pseudo_observations,
    read_csv,
)
from .generators import (
    SynthModel,
    assignment_copula,
    generate,
    make_rng,
    mixture_copula,
    random_copula,
    random_star_pair,
)
from .grid import (
    CheckerboardCopula,
    GroupSplit,
    ValidationReport,
    comonotone_copula,
    independence_copula,
    load_copula,
    require_valid,
    save_copula,
)
from .measures import (
    MeasureKind,
    MeasureReport,
    averaged_dependence,
    compute_measure,
    conditional_cdf,
    generic_measure,
    group_tau,
    group_tau_normalized,
    mutual_information,
    renyi_alpha,
    renyi_limit,
    tau_alpha,
    tau_quadratic,
)
from .starprod import (
    DpiReport,
    InvarianceReport,
    TransformCase,
    dpi_report,
    equitability_suite,
    identity_coupling,
    star,
)

__version__ = "0.1.0"

__all__ = [
    "CheckerboardCopula",
    "CopdepError",
    "CopulaValidationError",
    "DegenerateBoundError",
    "DpiReport",
    "EvaluationError",
    "GroupSplit",
    "IncompatibleOperandsError",
    "InsufficientDataError",
    "InvalidArgumentError",
    "InvalidDataError",
    "InvarianceReport",
    "MeasureKind",
    "MeasureReport",
    "PseudoObservations",
    "ResolutionPolicy",
    "SynthModel",
    "TransformCase",
    "ValidationReport",
    "assignment_copula",
    "averaged_dependence",
    "choose_resolution",
    "comonotone_copula",
    "compute_measure",
    "conditional_cdf",
    "dpi_report",
    "equitability_suite",
    "fit_checkerboard",
    "generate",
    "generic_measure",
    "group_tau",
    "group_tau_normalized",
    "identity_coupling",
    "independence_copula",
    "load_copula",
    "make_rng",
    "mixture_copula",
    "mutual_information",
    "pseudo_observations",
    "random_copula",
    "random_star_pair",
    "read_csv",
    "renyi_alpha",
    "renyi_limit",
    "require_valid",
    "save_copula",
    "star",
    "tau_alpha",
    "tau_quadratic",
]
