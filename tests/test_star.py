import numpy as np
import pytest

from copdep import (
    CheckerboardCopula,
    GroupSplit,
    IncompatibleOperandsError,
    InvalidArgumentError,
    MeasureKind,
    TransformCase,
    assignment_copula,
    comonotone_copula,
    dpi_report,
    equitability_suite,
    fit_checkerboard,
    generate,
    identity_coupling,
    independence_copula,
    pseudo_observations,
    random_copula,
    random_star_pair,
    star,
    tau_quadratic,
    SynthModel,
)


class TestCompatibility:
    def test_product_operands_compatible(self):
        a = independence_copula((4, 4))
        b = independence_copula((4, 4))
        assert star(a, b, 1).validate().passed

    def test_disagreeing_marginals_fail(self):
        a = independence_copula((4, 4, 4, 4))  # middle marginal is the product grid
        b = comonotone_copula(3, 4)  # middle marginal is the diagonal pair
        middle_a, middle_b = a.marginal((2, 3)).mass, b.marginal((0, 1)).mass
        assert np.abs(middle_a - middle_b).max() > 0.01
        with pytest.raises(IncompatibleOperandsError, match="by up to 1.875e-01"):
            star(a, b, 2)

    def test_same_source_marginals_compatible(self, rng):
        a, b = random_star_pair(2, 4, rng)
        assert star(a, b, 2).validate().passed

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError, match="first operand must have 2 axes"):
            star(independence_copula((4, 4, 4)), independence_copula((4, 4)), 1)

    def test_coupling_resolution_mismatch_rejected(self):
        # shared middle axes must agree in resolution, never silently resample
        with pytest.raises(InvalidArgumentError, match="middle-block resolutions differ"):
            star(independence_copula((4, 4)), independence_copula((8, 8)), 1)

    def test_incompatible_operands_raise_in_star(self):
        # the middle marginals differ by 1e-6 in each cell, far above 1e-9
        a = independence_copula((2, 2))
        b = CheckerboardCopula((2, 2), [0.25 + 1e-6, 0.25, 0.25 - 1e-6, 0.25])
        with pytest.raises(IncompatibleOperandsError, match="by up to 1.000e-06; star needs less than 1e-09"):
            star(a, b, 1)


class TestStarLaws:
    def test_output_validates(self, rng):
        for n in (1, 2):
            a, b = random_star_pair(n, 4, rng)
            assert star(a, b, n).validate().passed

    def test_independent_target_stays_independent(self, rng):
        # second operand = (middle marginal) x uniform target
        a, _ = random_star_pair(1, 6, rng)
        d = a.marginal((1,)).mass
        b = CheckerboardCopula((6, 6), np.outer(d, np.full(6, 1.0 / 6)))
        out = star(a, b, 1)
        w_u = a.marginal((0,)).mass
        expected = np.outer(w_u, np.full(6, 1.0 / 6))
        assert np.allclose(out.mass.reshape(out.resolutions), expected, atol=1e-12)

    def test_identity_coupling_is_left_identity(self):
        # exact-marginal operand: composing is the identity to 1e-12
        from copdep import mixture_copula

        b = mixture_copula(0.4, 4)
        out = star(identity_coupling(1, 4), b, 1)
        assert np.abs(out.mass - b.mass).max() < 1e-12

    def test_left_identity_on_random_operand(self, rng):
        # random grids have exact marginals up to rounding, so composing
        # with the identity changes a cell only in its last bits
        _, b = random_star_pair(1, 4, rng)
        out = star(identity_coupling(1, 4), b, 1)
        assert np.abs(out.mass - b.mass).max() < 1e-14

    def test_identity_equals_comonotone_pair(self):
        assert np.array_equal(
            identity_coupling(1, 2).mass, comonotone_copula(2, 2).mass
        )

    def test_identity_coupling_two_blocks(self):
        # n=2, m=2: four cells of mass 1/4, each with matching block indices
        coupling = identity_coupling(2, 2)
        g = coupling.mass.reshape(coupling.resolutions)
        for i in range(2):
            for j in range(2):
                assert g[i, j, i, j] == 0.25
        assert coupling.mass.sum() == pytest.approx(1.0)

    def test_product_first_operand_erases_dependence(self, rng):
        _, b = random_star_pair(1, 5, rng)
        d = b.marginal((0,)).mass
        a = CheckerboardCopula((5, 5), np.outer(np.full(5, 0.2), d))
        out = star(a, b, 1)
        # target becomes independent of the conditioning block
        val = tau_quadratic(out, GroupSplit((0,), (1,))).value
        assert val < 1e-20

    def test_conditioning_marginal_preserved(self, rng):
        for n in (1, 2):
            a, b = random_star_pair(n, 4, rng)
            out = star(a, b, n)
            left = out.marginal(tuple(range(n))).mass
            right = a.marginal(tuple(range(n))).mass
            assert np.abs(left - right).max() < 1e-12

    def test_group_target_supported(self, rng):
        a, b = random_star_pair(1, 4, rng, target_axes=2)
        out = star(a, b, 1)
        assert out.resolutions == (4, 4, 4)
        assert out.validate().passed


class TestDpi:
    def test_holds_on_random_pairs(self, rng):
        for trial in range(60):
            n = 1 if trial % 2 == 0 else 2
            a, b = random_star_pair(n, 8 if n == 1 else 4, rng)
            for kind in (MeasureKind("tau_quadratic"), MeasureKind("tau_alpha", 1.0)):
                rep = dpi_report(a, b, n, kind)
                assert rep.holds, rep.summary()

    def test_identity_coupling_equality(self, rng):
        _, b = random_star_pair(1, 8, rng)
        rep = dpi_report(identity_coupling(1, 8), b, 1, MeasureKind("tau_quadratic"))
        assert abs(rep.tau_chain - rep.tau_direct) < 1e-10

    def test_equality_with_assignment_operand(self, rng):
        # exact-equality case: the second operand has an exactly uniform
        # middle block, so composing with the identity coupling returns it
        for n in (1, 2):
            b = assignment_copula(n, 8, rng)
            for kind in (MeasureKind("tau_quadratic"), MeasureKind("tau_alpha", 1.0)):
                rep = dpi_report(identity_coupling(n, 8), b, n, kind)
                assert rep.tau_chain == rep.tau_direct

    def test_independent_first_operand_gives_zero_chain(self, rng):
        _, b = random_star_pair(1, 6, rng)
        a = independence_copula((6, 6))
        rep = dpi_report(a, b, 1, MeasureKind("tau_quadratic"))
        assert rep.tau_chain < 1e-20
        assert rep.holds

    def test_group_target_dpi(self, rng):
        for _ in range(10):
            a, b = random_star_pair(1, 4, rng, target_axes=2)
            rep = dpi_report(a, b, 1, MeasureKind("group_tau"))
            assert rep.holds

    def test_entropy_kind_rejected(self, rng):
        a, b = random_star_pair(1, 4, rng)
        with pytest.raises(InvalidArgumentError):
            dpi_report(a, b, 1, MeasureKind("renyi_limit"))


class TestEquitability:
    def test_monotone_maps_and_permutation_exactly_invariant(self):
        data = generate(SynthModel(tag="functional", dimension=3, seed=77), 4000)
        split = GroupSplit((0, 1), (2,))
        transforms = [
            TransformCase(kind="column_map", label="exp(x0)", column=0, mapping=np.exp),
            TransformCase(kind="column_map", label="x1 cubed", column=1, mapping=lambda x: x**3),
            TransformCase(
                kind="column_map", label="-x0 (decreasing)", column=0, mapping=lambda x: -x
            ),
            TransformCase(kind="permute_conditioning", label="swap drivers", permutation=(1, 0)),
        ]
        report = equitability_suite(
            data=data, split=split, transforms=transforms, resolutions=(8, 8, 8)
        )
        assert report.passed
        assert report.max_deviation == 0.0

    def test_target_negation_within_tolerance(self):
        data = generate(SynthModel(tag="functional", dimension=3, seed=78), 4000)
        split = GroupSplit((0, 1), (2,))
        report = equitability_suite(
            data=data,
            split=split,
            transforms=[
                TransformCase(kind="column_map", label="-y", column=2, mapping=lambda x: -x)
            ],
            resolutions=(8, 8, 8),
        )
        assert report.passed
        assert report.results[0].tolerance == 1e-12

    def test_copula_level_reversals(self, rng):
        cop = random_copula((4, 4, 4), rng)
        split = GroupSplit((0, 1), (2,))
        report = equitability_suite(
            copula=cop,
            split=split,
            transforms=[
                TransformCase(kind="reverse_axis", label="flip u0", axis=0),
                TransformCase(kind="reverse_axis", label="flip target", axis=2),
                TransformCase(kind="permute_conditioning", label="swap", permutation=(1, 0)),
            ],
        )
        assert report.passed
        assert report.results[0].deviation == 0.0  # conditioning flip is exact
        assert report.results[2].deviation == 0.0

    def test_every_measure_kind_invariant_under_conditioning_permutation(self, rng):
        data = generate(SynthModel(tag="functional", dimension=3, seed=79), 2000)
        split = GroupSplit((0, 1), (2,))
        kinds = [
            MeasureKind("tau_quadratic"),
            MeasureKind("tau_alpha", 1.5),
            MeasureKind("renyi_alpha", 0.5),
            MeasureKind("renyi_limit"),
            MeasureKind("averaged_dependence"),
        ]
        for kind in kinds:
            report = equitability_suite(
                data=data,
                split=split,
                transforms=[
                    TransformCase(kind="permute_conditioning", permutation=(1, 0)),
                    TransformCase(kind="column_map", column=0, mapping=np.exp),
                ],
                kind=kind,
                resolutions=(8, 8, 8),
            )
            assert report.max_deviation == 0.0, kind.tag

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"kind": "reverse_axis", "axis": 0, "mapping": np.exp},
                "reverse_axis does not read mapping",
            ),
            (
                {"kind": "column_map", "column": 0, "mapping": np.exp, "permutation": (1, 0)},
                "column_map does not read permutation",
            ),
            ({"kind": "column_map", "column": 0}, "column_map needs mapping"),
            ({"kind": "permute_conditioning"}, "permute_conditioning needs permutation"),
            ({"kind": "flip"}, "unsupported transform kind 'flip'"),
        ],
    )
    def test_a_transform_takes_exactly_the_fields_its_kind_reads(self, fields, message):
        with pytest.raises(InvalidArgumentError, match=message):
            TransformCase(**fields)

    def test_non_monotone_map_rejected(self):
        # squaring folds a sign-spanning column, so ranks are not preserved
        data = generate(SynthModel(tag="functional", dimension=2, seed=80), 500)
        with pytest.raises(InvalidArgumentError):
            equitability_suite(
                data=data,
                split=GroupSplit((0,), (1,)),
                transforms=[
                    TransformCase(kind="column_map", column=0, mapping=lambda x: x**2)
                ],
                resolutions=(5, 5),
            )

    @staticmethod
    def _tied_sample():
        # 200 rows; column 0 takes 5 values and the target one decimal place
        data = generate(SynthModel(tag="functional", dimension=3, seed=82), 200)
        data[:, 0] = np.searchsorted(np.quantile(data[:, 0], [0.2, 0.4, 0.6, 0.8]), data[:, 0])
        data[:, 2] = np.round(data[:, 2], 1)
        return data

    def _tied_suite(self, transform):
        with pytest.warns(RuntimeWarning, match="tied"):
            return equitability_suite(
                data=self._tied_sample(),
                split=GroupSplit((0, 1), (2,)),
                transforms=[transform],
                resolutions=(4, 4, 4),
            )

    def test_increasing_map_of_a_tied_conditioning_column_exactly_invariant(self):
        report = self._tied_suite(
            TransformCase(kind="column_map", column=0, mapping=lambda v: v**3 + 1)
        )
        assert report.results[0].deviation == 0.0

    def test_decreasing_map_of_a_tied_target_column_within_tolerance(self):
        report = self._tied_suite(
            TransformCase(kind="column_map", column=2, mapping=lambda v: -np.exp(v))
        )
        assert report.passed
        assert report.results[0].tolerance == 1e-12

    def test_map_that_splits_a_tie_rejected(self):
        # increasing across distinct values, but the tied rows of column 0 part
        splits = TransformCase(
            kind="column_map", column=0, mapping=lambda v: v + 1e-6 * np.arange(v.size)
        )
        with pytest.raises(InvalidArgumentError, match="equal observed values"):
            self._tied_suite(splits)

    def test_map_that_merges_distinct_values_rejected(self):
        merges = TransformCase(kind="column_map", column=0, mapping=lambda v: np.minimum(v, 3))
        with pytest.raises(InvalidArgumentError, match="not strictly monotone"):
            self._tied_suite(merges)

    def test_requires_exactly_one_input(self, rng):
        with pytest.raises(InvalidArgumentError):
            equitability_suite(
                split=GroupSplit((0,), (1,)),
                transforms=[],
            )


class TestRawDataEquitabilityEndToEnd:
    def test_full_pipeline_invariance(self):
        # strictly increasing per-column maps leave the fitted grid identical
        data = generate(SynthModel(tag="mixture", theta=0.5, seed=81), 2000)
        cop = fit_checkerboard(pseudo_observations(data), (8, 8))
        mapped = np.column_stack([np.expm1(data[:, 0]), data[:, 1] * 7.0 + 2.0])
        cop2 = fit_checkerboard(pseudo_observations(mapped), (8, 8))
        assert np.array_equal(cop.mass, cop2.mass)
