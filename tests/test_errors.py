"""Public functions raise the package's typed errors, never a bare ValueError or TypeError."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import copdep
from copdep import (
    CheckerboardCopula,
    EvaluationError,
    GroupSplit,
    InvalidArgumentError,
    InvalidDataError,
    MeasureKind,
    PseudoObservations,
    ResolutionPolicy,
    SynthModel,
    TransformCase,
    assignment_copula,
    choose_resolution,
    comonotone_copula,
    compute_measure,
    conditional_cdf,
    dpi_report,
    equitability_suite,
    fit_checkerboard,
    generate,
    generic_measure,
    group_tau,
    group_tau_normalized,
    identity_coupling,
    independence_copula,
    load_copula,
    make_rng,
    mixture_copula,
    pseudo_observations,
    random_star_pair,
    star,
)

#: The public names README.md lists under "Public API".
PUBLIC_NAMES = [
    "CheckerboardCopula", "CopdepError", "CopulaValidationError", "DegenerateBoundError",
    "DpiReport", "EvaluationError", "GroupSplit", "IncompatibleOperandsError",
    "InsufficientDataError", "InvalidArgumentError", "InvalidDataError", "InvarianceReport",
    "MeasureKind", "MeasureReport", "PseudoObservations", "ResolutionPolicy", "SynthModel",
    "TransformCase", "ValidationReport", "assignment_copula", "averaged_dependence",
    "choose_resolution", "comonotone_copula", "compute_measure", "conditional_cdf", "dpi_report",
    "equitability_suite", "fit_checkerboard", "generate", "generic_measure", "group_tau",
    "group_tau_normalized", "identity_coupling", "independence_copula", "load_copula", "make_rng",
    "mixture_copula", "mutual_information", "pseudo_observations", "random_copula",
    "random_star_pair", "read_csv", "renyi_alpha", "renyi_limit", "require_valid", "save_copula",
    "star", "tau_alpha", "tau_quadratic",
]


def test_public_names_are_the_documented_list():
    assert sorted(copdep.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(copdep, name) is not None


COPULA = independence_copula((2, 3, 4))
SINGLE, GROUP = GroupSplit((0, 1), (2,)), GroupSplit((0,), (1, 2))

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
    "marginal axis": lambda: COPULA.marginal(("x",)),
    "permute_axes axis": lambda: COPULA.permute_axes(("x", 0)),
    "reverse_axis axis": lambda: COPULA.reverse_axis("x"),
    "random_star_pair n": lambda: random_star_pair("x", 4, make_rng(0)),
}


@pytest.mark.parametrize("name", list(NON_NUMBER_ARGUMENTS))
def test_non_number_argument_raises_invalid_argument(name):
    with pytest.raises(InvalidArgumentError, match="expected an? .*got '[xa]'"):
        NON_NUMBER_ARGUMENTS[name]()


def _column_map(column):
    data = np.random.default_rng(5).standard_normal((40, 3))
    case = TransformCase(kind="column_map", column=column, mapping=np.exp)
    return equitability_suite(data=data, split=SINGLE, transforms=[case], resolutions=(4, 4, 4))


STAR_A, STAR_B = random_star_pair(1, 4, make_rng(0))
PSEUDO = pseudo_observations(np.random.default_rng(3).random((20, 2)))
TAU = MeasureKind("tau_quadratic")


def _load(payload):
    """load_copula on a file holding ``payload`` as JSON."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "cop.json"
        path.write_text(json.dumps(payload))
        return load_copula(path)


def _uniform(dims, resolutions):
    cells = int(np.prod(resolutions))
    return {"dims": dims, "resolutions": resolutions, "mass": [1 / cells] * cells}


def _equitability(transform=None, resolutions=None):
    return equitability_suite(
        data=make_rng(1).random((40, 3)), split=SINGLE,
        transforms=() if transform is None else (transform,), resolutions=resolutions,
    )


AXIS_ARGUMENTS = {
    # name: a call with a bad axis, size, count, seed or value, and the same
    # call with good ones, numpy integers where it takes integers
    "GroupSplit fractional axis": (
        lambda: GroupSplit((0.9,), (1,)),
        lambda: GroupSplit((np.int64(0),), np.array([1])),
    ),
    "GroupSplit bare int": (lambda: GroupSplit(0, (1,)), lambda: GroupSplit((np.int32(0),), (1,))),
    "marginal fractional axis": (
        lambda: COPULA.marginal((1.5,)),
        lambda: COPULA.marginal((np.int64(1),)),
    ),
    "marginal bare int": (lambda: COPULA.marginal(1), lambda: COPULA.marginal(np.array([2, 0]))),
    "permute_axes None": (
        lambda: COPULA.permute_axes(None),
        lambda: COPULA.permute_axes(np.array([2, 0, 1])),
    ),
    "reverse_axis fractional axis": (
        lambda: COPULA.reverse_axis(1.0),
        lambda: COPULA.reverse_axis(np.uint8(1)),
    ),
    "TransformCase fractional column": (lambda: _column_map(0.5), lambda: _column_map(np.int64(0))),
    "TransformCase column past the last": (lambda: _column_map(3), lambda: _column_map(np.int64(2))),
    "independence_copula fractional resolution": (
        lambda: independence_copula((3.9, 2)),
        lambda: independence_copula((np.int64(3), np.int32(2))),
    ),
    "comonotone_copula fractional resolution": (
        lambda: comonotone_copula(2, 4.7),
        lambda: comonotone_copula(np.int32(2), np.int64(4)),
    ),
    "ResolutionPolicy fractional fixed_m": (
        lambda: ResolutionPolicy(mode="fixed", fixed_m=8.6),
        lambda: ResolutionPolicy(mode="fixed", fixed_m=np.int64(8), max_m=np.int32(16)),
    ),
    "ResolutionPolicy fixed_m of 1": (
        lambda: ResolutionPolicy(mode="fixed", fixed_m=1),
        lambda: ResolutionPolicy(mode="fixed", fixed_m=np.int64(2)),
    ),
    "generate fractional n_rows": (
        lambda: generate(SynthModel(tag="independent"), 10.9),
        lambda: generate(SynthModel(tag="independent", seed=np.int64(1)), np.int32(10)),
    ),
    "make_rng fractional seed": (lambda: make_rng(1.5), lambda: make_rng(np.int64(1))),
    "make_rng negative seed": (lambda: make_rng(-1), lambda: make_rng(np.int32(0))),
    "make_rng seed of 2**128": (lambda: make_rng(2**128), lambda: make_rng(2**128 - 1)),
    "load_copula fractional resolution": (
        lambda: _load(_uniform(1, [2.5])),
        lambda: _load(_uniform(2, [2, 3])),
    ),
    "star float middle block": (
        lambda: star(STAR_A, STAR_B, 1.0),
        lambda: star(STAR_A, STAR_B, np.int64(1)),
    ),
    "dpi_report float middle block": (
        lambda: dpi_report(STAR_A, STAR_B, 1.0, TAU),
        lambda: dpi_report(STAR_A, STAR_B, np.int32(1), TAU),
    ),
    "choose_resolution string n_rows": (
        lambda: choose_resolution("a", 2, ResolutionPolicy()),
        lambda: choose_resolution(np.int64(100), np.int32(2), ResolutionPolicy()),
    ),
    "fit_checkerboard max_resolution None": (
        lambda: fit_checkerboard(PSEUDO, (4, 4), max_resolution=None),
        lambda: fit_checkerboard(PSEUDO, np.array([4, 4]), max_resolution=np.int64(4)),
    ),
    "CheckerboardCopula bare resolution": (
        lambda: CheckerboardCopula(3, np.full(3, 1 / 3)),
        lambda: CheckerboardCopula(np.array([3]), np.full(3, 1 / 3)),
    ),
    "assignment_copula zero resolution": (
        lambda: assignment_copula(1, 0, make_rng(0)),
        lambda: assignment_copula(np.int64(1), np.int32(4), make_rng(0)),
    ),
    "identity_coupling fractional m": (
        lambda: identity_coupling(1, 2.5),
        lambda: identity_coupling(np.int64(1), np.int32(2)),
    ),
    "random_star_pair fractional n": (
        lambda: random_star_pair(1.7, 4, make_rng(0)),
        lambda: random_star_pair(np.int64(1), np.int32(4), make_rng(0), np.int64(1)),
    ),
    "SynthModel fractional dimension": (
        lambda: SynthModel(tag="independent", dimension=2.9),
        lambda: SynthModel(tag="independent", dimension=np.int64(3)),
    ),
    "SynthModel mixture at dimension 3": (
        lambda: SynthModel(tag="mixture", theta=0.5, dimension=3),
        lambda: SynthModel(tag="mixture", theta=0.5, dimension=np.int64(2)),
    ),
    "SynthModel square_law at dimension 3": (
        lambda: SynthModel(tag="square_law", dimension=3),
        lambda: SynthModel(tag="square_law", dimension=np.int32(2)),
    ),
    "SynthModel negative sigma": (
        lambda: SynthModel(tag="functional", sigma=-0.5),
        lambda: SynthModel(tag="functional", sigma=np.int64(0)),
    ),
    "mixture_copula theta above 1": (
        lambda: mixture_copula(1.5, 4),
        lambda: mixture_copula(np.int64(1), np.int32(4)),
    ),
    "independence_copula no resolutions": (
        lambda: independence_copula(()),
        lambda: independence_copula(np.array([2])),
    ),
    "permute_axes too few axes": (
        lambda: COPULA.permute_axes((0, 1)),
        lambda: COPULA.permute_axes((np.int64(0), 2, 1)),
    ),
    "load_copula dims unequal to the resolution count": (
        lambda: _load(_uniform(3, [2, 2])),
        lambda: _load(_uniform(2, [2, 2])),
    ),
    "conditional_cdf cell outside the grid": (
        lambda: conditional_cdf(COPULA, SINGLE, (0, 3), 0.5),
        lambda: conditional_cdf(COPULA, SINGLE, (np.int64(1), np.int32(2)), 0.5),
    ),
    "compute_measure custom_phi": (
        lambda: compute_measure(COPULA, SINGLE, MeasureKind("custom_phi")),
        lambda: generic_measure(COPULA, SINGLE, np.abs),
    ),
    "compute_measure without a split": (
        lambda: compute_measure(COPULA, None, TAU),
        lambda: compute_measure(COPULA, None, MeasureKind("mutual_information")),
    ),
    "ResolutionPolicy unknown mode": (
        lambda: ResolutionPolicy(mode="x"),
        lambda: ResolutionPolicy(mode="fixed", fixed_m=np.int64(4)),
    ),
    "fit_checkerboard a resolution per column": (
        lambda: fit_checkerboard(PSEUDO, (4, 4, 4)),
        lambda: fit_checkerboard(PSEUDO, (np.int64(4), 4)),
    ),
    "star second operand with too few axes": (
        lambda: star(STAR_A, STAR_B.marginal((0,)), 1),
        lambda: star(STAR_A, STAR_B, np.int64(1)),
    ),
    "equitability_suite raw data without resolutions": (
        lambda: _equitability(),
        lambda: _equitability(resolutions=np.array([2, 2, 2])),
    ),
    "equitability_suite column_map on a copula": (
        lambda: equitability_suite(
            copula=COPULA, split=SINGLE,
            transforms=(TransformCase("column_map", column=0, mapping=np.exp),),
        ),
        lambda: _equitability(
            TransformCase("column_map", column=np.int64(0), mapping=np.exp), (2, 2, 2)
        ),
    ),
    "equitability_suite permutation of the wrong length": (
        lambda: _equitability(TransformCase("permute_conditioning", permutation=(0,)), (2, 2, 2)),
        lambda: _equitability(
            TransformCase("permute_conditioning", permutation=(np.int64(1), 0)), (2, 2, 2)
        ),
    ),
}


@pytest.mark.parametrize("name", list(AXIS_ARGUMENTS))
def test_axis_arguments_are_integers_and_numpy_integers_pass(name):
    bad, good = AXIS_ARGUMENTS[name]
    with pytest.raises(InvalidArgumentError):
        bad()
    good()


NON_NUMERIC_POINTS = {
    "conditional_cdf": lambda: conditional_cdf(COPULA, SINGLE, (0, 0), "a"),
    "CheckerboardCopula mass": lambda: CheckerboardCopula((2,), ["a", 1]),
}


@pytest.mark.parametrize("name", list(NON_NUMERIC_POINTS))
def test_non_numeric_point_box_or_mass_raises_invalid_argument(name):
    with pytest.raises(InvalidArgumentError, match="expected (a numeric point|numeric masses)"):
        NON_NUMERIC_POINTS[name]()


def _phi_returning(value, split):
    return lambda: generic_measure(COPULA, split, lambda x: value)


def _column_map_returning(mapping):
    case = TransformCase("column_map", column=0, mapping=mapping)
    data = make_rng(0).random((20, 3))
    return lambda: equitability_suite(
        data=data, split=SINGLE, transforms=(case,), resolutions=(2, 2, 2)
    )


NON_NUMERIC_INPUTS = {
    "pseudo_observations": (lambda: pseudo_observations([["x", "y"], ["1", "2"]]), InvalidDataError),
    "PseudoObservations": (
        lambda: PseudoObservations([["x", "y"], ["1", "2"]], (0, 0)),
        InvalidArgumentError,
    ),
    "SynthModel correlation": (
        lambda: SynthModel(tag="gaussian", correlation=[["a", "b"], ["c", "d"]]),
        InvalidArgumentError,
    ),
    "SynthModel correlation of the wrong shape": (
        lambda: SynthModel(tag="gaussian", correlation=((1.0,),)),
        InvalidArgumentError,
    ),
    "SynthModel asymmetric correlation": (
        lambda: SynthModel(tag="gaussian", correlation=((1.0, 0.3), (0.2, 1.0))),
        InvalidArgumentError,
    ),
    "pseudo_observations 1-D sample": (
        lambda: pseudo_observations(np.arange(5.0)),
        InvalidArgumentError,
    ),
    "load_copula missing key": (
        lambda: _load({"dims": 2, "resolutions": [2, 2]}),
        InvalidArgumentError,
    ),
    "conditional_cdf point off the cube": (
        lambda: conditional_cdf(COPULA, SINGLE, (0, 0), 1.5),
        InvalidArgumentError,
    ),
    "conditional_cdf two coordinates for one target axis": (
        lambda: conditional_cdf(COPULA, SINGLE, (0, 0), (0.5, 0.5)),
        InvalidArgumentError,
    ),
    "equitability_suite data": (
        lambda: equitability_suite(
            data=[["a", "b"], ["c", "d"]], split=GroupSplit((0,), (1,)), transforms=(),
            resolutions=(2, 2),
        ),
        InvalidDataError,
    ),
    "column_map returning strings": (
        _column_map_returning(lambda x: ["a"] * len(x)),
        InvalidArgumentError,
    ),
    "column_map returning one value too few": (
        _column_map_returning(lambda x: x[:-1]),
        InvalidArgumentError,
    ),
    "phi returning a scalar": (_phi_returning(0.0, SINGLE), InvalidArgumentError),
    "phi returning one value": (_phi_returning([1.0], SINGLE), InvalidArgumentError),
    "phi returning a string": (_phi_returning("a", SINGLE), InvalidArgumentError),
    "phi returning a scalar, group target": (_phi_returning(0.0, GROUP), InvalidArgumentError),
    "phi returning one value, group target": (_phi_returning([1.0], GROUP), InvalidArgumentError),
    "phi returning a string, group target": (_phi_returning("a", GROUP), InvalidArgumentError),
}


@pytest.mark.parametrize("name", list(NON_NUMERIC_INPUTS))
def test_malformed_array_input_raises_a_typed_error(name):
    call, error = NON_NUMERIC_INPUTS[name]
    with pytest.raises(error):
        call()


NO_TARGET_MASS = (InvalidArgumentError, "target marginal has total mass 0.0")
ON_A_GRID_WITHOUT_MASS = [
    # kind, alpha, split, and the value, or the error and message where the kind raises
    ("tau_quadratic", None, SINGLE, 0.0),
    ("tau_alpha", 1.0, SINGLE, 0.0),
    ("tau_alpha", 3.5, SINGLE, 0.0),
    ("renyi_alpha", 0.5, SINGLE, (EvaluationError, "nonpositive integral")),
    ("renyi_limit", None, SINGLE, 0.0),
    ("mutual_information", None, None, 0.0),
    ("group_tau", None, GROUP, NO_TARGET_MASS),
    ("group_tau_normalized", None, GROUP, NO_TARGET_MASS),
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

    if isinstance(want, tuple):
        with pytest.raises(want[0], match=want[1]):
            call()
    else:
        assert call().value == want


def _negative_target_cell():
    """A 3x3x3 grid of mass 1/27 per cell with 0.2 moved, in every slab of
    axis 0, from target cell (0, 1) to (0, 2), so the (1, 2) target marginal
    holds 1/9 - 0.6 at (0, 1)."""
    mass = np.full((3, 3, 3), 1 / 27)
    mass[:, 0, 1] -= 0.2
    mass[:, 0, 2] += 0.2
    return CheckerboardCopula((3, 3, 3), mass)


NEGATIVE_TARGET_CELL = {
    "group_tau": lambda c: group_tau(c, GROUP),
    "group_tau_normalized": lambda c: group_tau_normalized(c, GROUP),
    "custom_phi": lambda c: generic_measure(c, GROUP, np.abs),
}


@pytest.mark.parametrize("name", list(NEGATIVE_TARGET_CELL))
def test_group_kinds_reject_a_negative_target_marginal_cell(name):
    copula = _negative_target_cell()
    with pytest.raises(InvalidArgumentError, match=r"cell \(0, 1\) has negative mass -0.489"):
        NEGATIVE_TARGET_CELL[name](copula)
