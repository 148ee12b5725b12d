import json

import numpy as np
import pytest

from copdep import (
    CheckerboardCopula,
    CopulaValidationError,
    GridBox,
    GroupSplit,
    InvalidArgumentError,
    comonotone_copula,
    copula_from_dict,
    copula_to_dict,
    frechet_lower,
    frechet_upper,
    independence_copula,
    load_copula,
    random_copula,
    require_valid,
    save_copula,
)


def brute_force_cdf(copula, point):
    """Independent oracle: explicit loop over cells and overlap fractions."""
    total = 0.0
    grid = copula.grid
    for idx in np.ndindex(*copula.resolutions):
        frac = 1.0
        for axis, i in enumerate(idx):
            m = copula.resolutions[axis]
            frac *= min(max(point[axis] * m - i, 0.0), 1.0)
        total += grid[idx] * frac
    return total


class TestConstructors:
    def test_independence_2x2(self):
        cop = independence_copula((2, 2))
        assert np.allclose(cop.mass, 0.25)

    def test_independence_1d_is_uniform(self):
        cop = independence_copula((3,))
        assert np.allclose(cop.mass, [1 / 3, 1 / 3, 1 / 3])

    def test_independence_cdf_at_corner(self):
        cop = independence_copula((2, 2, 2))
        assert cop.cdf([1, 1, 1]) == pytest.approx(1.0, abs=1e-15)

    def test_independence_rejects_bad_resolution(self):
        with pytest.raises(InvalidArgumentError):
            independence_copula((2, 0))

    def test_comonotone_2x2(self):
        cop = comonotone_copula(2, 2)
        assert np.allclose(cop.grid, [[0.5, 0.0], [0.0, 0.5]])

    def test_comonotone_cdf_equal_coordinates(self):
        cop = comonotone_copula(3, 4)
        assert cop.cdf([0.5, 0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_comonotone_cdf_matches_min_at_vertices(self):
        # value at (0.25, 0.75) equals min = 0.25; confirmed by the oracle
        cop = comonotone_copula(2, 4)
        assert cop.cdf([0.25, 0.75]) == pytest.approx(0.25, abs=1e-15)
        assert brute_force_cdf(cop, [0.25, 0.75]) == pytest.approx(0.25, abs=1e-12)

    def test_comonotone_needs_two_dims(self):
        with pytest.raises(InvalidArgumentError):
            comonotone_copula(1, 4)

    def test_mass_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            CheckerboardCopula((2, 2), np.ones(3))

    def test_comonotone_stores_only_the_diagonal(self):
        cop = comonotone_copula(3, 512)
        assert np.array_equal(cop.cell_index, np.arange(512) * (512 * 512 + 512 + 1))
        assert np.array_equal(cop.cell_mass, np.full(512, 1 / 512))


class TestCellStorage:
    def test_only_nonzero_cells_are_stored(self):
        cop = CheckerboardCopula((2, 3), [0.0, 0.5, 0.0, -0.25, 0.0, 0.75])
        assert cop.cell_index.tolist() == [1, 3, 5]
        assert cop.cell_mass.tolist() == [0.5, -0.25, 0.75]
        # the negative cell stays visible to validation
        assert cop.validate().negative_cell == (1, 0)

    def test_dense_views_are_fresh_read_only_copies(self):
        cop = comonotone_copula(2, 3)
        first, second = cop.mass, cop.mass
        assert first is not second
        assert np.array_equal(first, second)
        assert not first.flags.writeable and not cop.grid.flags.writeable
        assert not cop.cell_index.flags.writeable and not cop.cell_mass.flags.writeable

    def test_json_keeps_the_dense_mass_list(self):
        cop = comonotone_copula(2, 2)
        assert copula_to_dict(cop) == {
            "dims": 2,
            "resolutions": [2, 2],
            "mass": [0.5, 0.0, 0.0, 0.5],
        }

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CheckerboardCopula((2**32, 2**31), [1.0]),
            lambda: independence_copula((2**40, 2**23)),
            lambda: comonotone_copula(9, 128),
        ],
    )
    def test_grid_beyond_an_int64_flat_index_rejected(self, build):
        with pytest.raises(InvalidArgumentError, match="2\\*\\*63"):
            build()

    def test_largest_indexable_grid_is_accepted(self):
        cop = comonotone_copula(9, 127)  # 127**9 is about 0.93 * 2**63 cells
        assert cop.cell_index.size == 127
        assert cop.validate().passed


class TestFrechetFunctions:
    def test_lower_at_ones(self):
        assert frechet_lower([1, 1, 1]) == 1.0

    def test_lower_clips_to_zero(self):
        assert frechet_lower([0.5, 0.5, 0.5]) == 0.0

    def test_lower_bivariate(self):
        assert frechet_lower([0.9, 0.9]) == pytest.approx(0.8, abs=1e-15)

    def test_domain_checked(self):
        with pytest.raises(InvalidArgumentError):
            frechet_lower([1.2, 0.5])


class TestCdf:
    def test_zero_coordinate_gives_zero(self):
        cop = independence_copula((4, 4))
        assert cop.cdf([0.0, 0.7]) == 0.0

    def test_product_value(self):
        cop = independence_copula((5, 5))
        assert cop.cdf([0.3, 0.7]) == pytest.approx(0.21, abs=1e-15)

    def test_marginal_coordinate(self):
        cop = comonotone_copula(2, 4)
        assert cop.cdf([0.5, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_matches_brute_force_on_random_grid(self, rng):
        cop = random_copula((3, 4, 2), rng)
        for _ in range(25):
            p = rng.random(3)
            assert cop.cdf(p) == pytest.approx(brute_force_cdf(cop, p), abs=1e-12)

    def test_lipschitz_property(self, rng):
        cop = random_copula((4, 4, 4), rng)
        for _ in range(1000):
            u = rng.random(3)
            v = rng.random(3)
            assert abs(cop.cdf(v) - cop.cdf(u)) <= np.abs(v - u).sum() + 1e-12

    def test_frechet_envelope_property(self, rng):
        cop = random_copula((4, 4, 4), rng)
        for _ in range(1000):
            p = rng.random(3)
            c = cop.cdf(p)
            assert frechet_lower(p) - 1e-12 <= c <= frechet_upper(p) + 1e-12


class TestBoxMass:
    def test_unit_box_total_mass(self, rng):
        cop = random_copula((3, 3), rng)
        box = GridBox((0.0, 0.0), (1.0, 1.0))
        assert cop.box_mass(box) == pytest.approx(1.0, abs=1e-12)

    def test_product_box(self):
        cop = independence_copula((4, 4, 4))
        box = GridBox((0.0,) * 3, (0.5,) * 3)
        assert cop.box_mass(box) == pytest.approx(0.125, abs=1e-12)

    def test_comonotone_overlap(self):
        # mass of [0.25,0.75] x [0.5,1.0] is the diagonal overlap 0.25
        cop = comonotone_copula(2, 8)
        box = GridBox((0.25, 0.5), (0.75, 1.0))
        assert cop.box_mass(box) == pytest.approx(0.25, abs=1e-12)

    def test_grid_aligned_equals_cell_sums(self, rng):
        cop = random_copula((4, 6), rng)
        for _ in range(20):
            i0, i1 = sorted(rng.integers(0, 5, size=2))
            j0, j1 = sorted(rng.integers(0, 7, size=2))
            box = GridBox((i0 / 4, j0 / 6), (i1 / 4, j1 / 6))
            direct = cop.grid[i0:i1, j0:j1].sum()
            assert cop.box_mass(box) == pytest.approx(direct, abs=1e-12)

    def test_box_validation(self):
        with pytest.raises(InvalidArgumentError):
            GridBox((0.5, 0.2), (0.4, 0.9))


class TestSubBoxMass:
    def test_tail_ones_reduces_to_marginal_box(self, rng):
        cop = random_copula((3, 3, 3), rng)
        box = GridBox((0.1, 0.2), (0.6, 0.9))
        full = cop.sub_box_mass(box, [1.0])
        marg = cop.marginal((0, 1)).box_mass(box)
        assert full == pytest.approx(marg, abs=1e-12)

    def test_zero_tail_gives_zero(self, rng):
        cop = random_copula((3, 3, 3), rng)
        box = GridBox((0.1, 0.2), (0.6, 0.9))
        assert cop.sub_box_mass(box, [0.0]) == 0.0

    def test_product_value(self):
        cop = independence_copula((4, 4, 4))
        box = GridBox((0.0, 0.0), (0.5, 0.5))
        assert cop.sub_box_mass(box, [0.5]) == pytest.approx(0.125, abs=1e-12)

    def test_monotone_in_tail(self, rng):
        cop = random_copula((3, 3, 3), rng)
        box = GridBox((0.2, 0.1), (0.8, 0.7))
        for _ in range(50):
            a, b = np.sort(rng.random(2))
            assert cop.sub_box_mass(box, [a]) <= cop.sub_box_mass(box, [b]) + 1e-12


class TestMarginal:
    def test_identity_marginal(self, rng):
        cop = random_copula((3, 4), rng)
        same = cop.marginal((0, 1))
        assert np.array_equal(same.mass, cop.mass)

    def test_product_marginal(self):
        cop = independence_copula((3, 3, 3))
        marg = cop.marginal((0, 2))
        assert np.allclose(marg.mass, independence_copula((3, 3)).mass)

    def test_comonotone_marginal_is_comonotone(self):
        cop = comonotone_copula(3, 4)
        for pair in ((0, 1), (0, 2), (1, 2)):
            marg = cop.marginal(pair)
            assert np.allclose(marg.mass, comonotone_copula(2, 4).mass, atol=1e-15)

    def test_cdf_agreement_with_padded_ones(self, rng):
        cop = random_copula((3, 3, 3), rng)
        marg = cop.marginal((1,))
        for v in (0.2, 0.55, 0.9):
            assert marg.cdf([v]) == pytest.approx(cop.cdf([1.0, v, 1.0]), abs=1e-12)

    def test_commutes_with_permutation(self, rng):
        cop = random_copula((2, 3, 4), rng)
        left = cop.permute_axes((2, 1, 0)).marginal((0, 2))
        right = cop.marginal((2, 0))
        assert np.array_equal(left.mass, right.mass)

    def test_empty_axes_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            random_copula((2, 2), rng).marginal(())


class TestAxisOps:
    def test_identity_permutation(self, rng):
        cop = random_copula((3, 3), rng)
        assert np.array_equal(cop.permute_axes((0, 1)).mass, cop.mass)

    def test_double_reverse_is_identity(self, rng):
        cop = random_copula((3, 4), rng)
        back = cop.reverse_axis(1).reverse_axis(1)
        assert np.array_equal(back.mass, cop.mass)

    def test_reverse_both_axes_of_comonotone(self):
        cop = comonotone_copula(2, 4)
        flipped = cop.reverse_axis(0).reverse_axis(1)
        assert np.array_equal(flipped.mass, cop.mass)

    def test_reverse_one_axis_gives_antidiagonal(self):
        cop = comonotone_copula(2, 4).reverse_axis(1)
        expected = np.fliplr(comonotone_copula(2, 4).grid)
        assert np.array_equal(cop.grid, expected)

    def test_bad_permutation_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            random_copula((2, 2), rng).permute_axes((0, 0))


class TestValidate:
    def test_constructions_pass(self, rng):
        for cop in (
            independence_copula((3, 5)),
            comonotone_copula(3, 6),
            random_copula((4, 4), rng),
        ):
            assert cop.validate().passed

    def test_negative_mass_located(self):
        mass = np.full(4, 0.25)
        mass[2] = -0.1
        mass[3] = 0.6
        report = CheckerboardCopula((2, 2), mass).validate()
        assert not report.passed
        assert report.max_negative_mass == pytest.approx(0.1)
        assert report.negative_cell == (1, 0)

    def test_nonuniform_marginal_flagged(self):
        report = CheckerboardCopula((2, 2), [0.4, 0.2, 0.2, 0.2]).validate()
        assert not report.passed
        assert report.worst_marginal_error == pytest.approx(0.1)

    def test_require_valid_raises(self):
        bad = CheckerboardCopula((2,), [0.7, 0.3])
        with pytest.raises(CopulaValidationError):
            require_valid(bad)


class TestGroupSplit:
    def test_disjointness_enforced(self):
        with pytest.raises(InvalidArgumentError):
            GroupSplit((0, 1), (1,))

    def test_coverage_check(self):
        split = GroupSplit((0,), (2,))
        with pytest.raises(InvalidArgumentError):
            split.check_covers(3)

    def test_blocks_nonempty(self):
        with pytest.raises(InvalidArgumentError):
            GroupSplit((), (0,))


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        cop = random_copula((3, 4), rng)
        path = tmp_path / "cop.json"
        save_copula(cop, path)
        back = load_copula(path)
        assert back.resolutions == cop.resolutions
        assert np.array_equal(back.mass, cop.mass)

    def test_rejects_wrong_mass_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": 2, "resolutions": [2, 2], "mass": [0.5, 0.5]}))
        with pytest.raises(InvalidArgumentError):
            load_copula(path)

    def test_rejects_invalid_mass(self):
        with pytest.raises(CopulaValidationError):
            copula_from_dict({"dims": 1, "resolutions": [2], "mass": [0.9, 0.1]})

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(InvalidArgumentError):
            load_copula(path)


def test_mass_is_immutable():
    cop = independence_copula((2, 2))
    with pytest.raises(ValueError):
        cop.mass[0] = 0.5
