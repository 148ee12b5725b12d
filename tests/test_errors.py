"""Public functions raise the package's typed errors, never a bare ValueError or TypeError."""

import pytest

from copdep import (
    GroupSplit,
    InvalidArgumentError,
    InvalidDataError,
    KendallCdf,
    PseudoObservations,
    ResolutionPolicy,
    SynthModel,
    assignment_copula,
    comonotone_copula,
    generate,
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
