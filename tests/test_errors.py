"""Public functions raise the package's typed errors, never a bare ValueError or TypeError."""

import pytest

from copdep import (
    GroupSplit,
    InvalidArgumentError,
    ResolutionPolicy,
    SynthModel,
    assignment_copula,
    comonotone_copula,
    generate,
    identity_coupling,
    make_rng,
    mixture_copula,
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
