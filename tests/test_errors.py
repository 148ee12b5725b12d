"""Public functions raise the package's typed errors, never a bare ValueError or TypeError."""

import numpy as np
import pytest

from copdep import (
    CheckerboardCopula,
    CopdepError,
    GroupSplit,
    InvalidArgumentError,
    InvalidDataError,
    KendallCdf,
    MeasureKind,
    PseudoObservations,
    ResolutionPolicy,
    SynthModel,
    assignment_copula,
    comonotone_copula,
    compute_measure,
    generate,
    generic_measure,
    identity_coupling,
    make_rng,
    mixture_copula,
    pseudo_observations,
    random_star_pair,
)

NON_NUMBER_ARGUMENTS = {
    "mixture_copula theta": lambda: mixture_copula("x", 4),
    "ResolutionPolicy fixed_m": lambda: ResolutionPolicy(mode="fixed", fixed_m="x"),
    "ResolutionPolicy max_m": lambda: ResolutionPolicy(max_m="x"),
    "SynthModel theta": lambda: SynthModel(tag="mixture", theta="x"),
    "comonotone_copula resolution": lambda: comonotone_copula(2, "x"),
    "identity_coupling m": lambda: identity_coupling(1, "x"),
    "assignment_copula resolution": lambda: assignment_copula(1, "x", make_rng(0)),
    "generate n_rows": lambda: generate(SynthModel(tag="independent"), "x"),
    "GroupSplit axis": lambda: GroupSplit(("a",), (1,)),
    "random_star_pair n": lambda: random_star_pair("x", 4, make_rng(0)),
}


@pytest.mark.parametrize("name", list(NON_NUMBER_ARGUMENTS))
def test_non_number_argument_raises_invalid_argument(name):
    with pytest.raises(InvalidArgumentError, match="expected an? .*got '[xa]'"):
        NON_NUMBER_ARGUMENTS[name]()


NON_NUMERIC_INPUTS = {
    "pseudo_observations": (lambda: pseudo_observations([["x", "y"], ["1", "2"]]), InvalidDataError),
    "PseudoObservations": (
        lambda: PseudoObservations([["x", "y"], ["1", "2"]], (0, 0)),
        InvalidArgumentError,
    ),
    "KendallCdf knot not a pair": (lambda: KendallCdf(((0.1,),)), InvalidArgumentError),
}


@pytest.mark.parametrize("name", list(NON_NUMERIC_INPUTS))
def test_malformed_array_input_raises_a_typed_error(name):
    call, error = NON_NUMERIC_INPUTS[name]
    with pytest.raises(error):
        call()


SINGLE, GROUP = GroupSplit((0, 1), (2,)), GroupSplit((0,), (1, 2))
ON_A_GRID_WITHOUT_MASS = [
    # kind, alpha, split, and the value, or None where the kind raises a package error
    ("tau_quadratic", None, SINGLE, 0.0),
    ("tau_alpha", 1.0, SINGLE, 0.0),
    ("tau_alpha", 3.5, SINGLE, 0.0),
    ("renyi_alpha", 0.5, SINGLE, None),
    ("renyi_limit", None, SINGLE, 0.0),
    ("mutual_information", None, None, 0.0),
    ("group_tau", None, GROUP, None),
    ("group_tau_normalized", None, GROUP, None),
    ("averaged_dependence", None, GROUP, 0.0),
    ("custom_phi", None, SINGLE, 0.0),
    ("custom_phi", None, GROUP, 0.0),
]


@pytest.mark.parametrize(
    "tag, alpha, split, want",
    ON_A_GRID_WITHOUT_MASS,
    ids=[f"{t}-{a}-{'group' if s is GROUP else 'single'}" for t, a, s, _ in ON_A_GRID_WITHOUT_MASS],
)
def test_every_measure_on_a_grid_without_mass_is_zero_or_a_typed_error(tag, alpha, split, want):
    copula = CheckerboardCopula((4, 4, 4), np.zeros(64))

    def call():
        if tag == "custom_phi":
            return generic_measure(copula, split, np.abs)
        return compute_measure(copula, split, MeasureKind(tag, alpha))

    if want is None:
        with pytest.raises(CopdepError):
            call()
    else:
        assert call().value == want
