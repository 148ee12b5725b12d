import itertools
import math
import sys
import threading

import numpy as np
import pytest

from copdep import (
    CheckerboardCopula,
    DegenerateBoundError,
    EvaluationError,
    GroupSplit,
    InvalidArgumentError,
    MeasureKind,
    assignment_copula,
    averaged_dependence,
    comonotone_copula,
    conditional_cdf,
    fit_checkerboard,
    generic_measure,
    group_tau,
    group_tau_normalized,
    independence_copula,
    make_rng,
    mutual_information,
    pseudo_observations,
    random_copula,
    renyi_alpha,
    renyi_limit,
    tau_alpha,
    tau_quadratic,
)
from conftest import blend

PAIR = GroupSplit((0,), (1,))


def riemann_tau(copula, split, n_points=10_000):
    """Brute-force oracle: midpoint Riemann sum over v per conditioning cell."""
    u_res = [copula.resolutions[a] for a in split.u_axes]
    vs = (np.arange(n_points) + 0.5) / n_points
    total = 0.0
    grid = copula.mass.reshape(copula.resolutions)
    mat = np.transpose(grid, split.u_axes + split.v_axes).reshape(int(np.prod(u_res)), -1)
    m_v = mat.shape[1]
    for row in mat:
        w = row.sum()
        if w == 0.0:
            continue
        cum = np.concatenate([[0.0], np.cumsum(row)]) / w
        cell = np.minimum((vs * m_v).astype(int), m_v - 1)
        frac = vs * m_v - cell
        f = cum[cell] + (cum[cell + 1] - cum[cell]) * frac
        total += w * np.mean((f - vs) ** 2)
    return 6.0 * total


def assert_relabeling_bit_identical(cop):
    """Every single-target and group kind on every target of the 4-axis
    ``cop``, in every conditioning order, in the split and through
    ``permute_axes``, gives the bits of the split with sorted conditioning axes."""
    single = [
        lambda c, s: tau_quadratic(c, s).value,
        lambda c, s: tau_alpha(c, s, 1.0).value,
        lambda c, s: tau_alpha(c, s, 3.5).value,
        lambda c, s: renyi_alpha(c, s, 0.5).value,
        lambda c, s: renyi_limit(c, s).value,
        lambda c, s: generic_measure(c, s, lambda x: x * x * np.abs(x)).value,
    ]
    groups = [
        lambda c, s: group_tau(c, s).value,
        lambda c, s: group_tau(c, s).upper_bound,
        lambda c, s: averaged_dependence(c, s).value,
    ]
    for width, measures in ((1, single), (2, groups)):
        in_order = GroupSplit(tuple(range(4 - width)), tuple(range(4 - width, 4)))
        for v_axes in itertools.permutations(range(4), width):
            u_axes = tuple(a for a in range(4) if a not in v_axes)
            for measure in measures:
                value = measure(cop, GroupSplit(u_axes, v_axes)).hex()
                for perm in itertools.permutations(u_axes):
                    relabeled = cop.permute_axes(perm + v_axes)
                    assert measure(cop, GroupSplit(perm, v_axes)).hex() == value, (v_axes, perm)
                    assert measure(relabeled, in_order).hex() == value, (v_axes, perm)


class TestConditionalCdf:
    def test_product_copula_gives_v(self):
        cop = independence_copula((4, 4, 8))
        split = GroupSplit((0, 1), (2,))
        for cell in ((0, 0), (2, 3)):
            for v in (0.3, 0.77):
                assert conditional_cdf(cop, split, cell, v) == pytest.approx(v, abs=1e-12)

    def test_comonotone_ramp_completes_at_cell_end(self):
        cop = comonotone_copula(2, 4)
        for i in range(4):
            assert conditional_cdf(cop, PAIR, (i,), (i + 1) / 4) == pytest.approx(1.0)

    def test_comonotone_ramp_midpoint(self):
        cop = comonotone_copula(3, 4)
        split = GroupSplit((0, 1), (2,))
        for i in range(4):
            val = conditional_cdf(cop, split, (i, i), (i + 0.5) / 4)
            assert val == pytest.approx(0.5, abs=1e-12)

    def test_zero_mass_cell_returns_zero(self):
        cop = comonotone_copula(3, 4)
        split = GroupSplit((0, 1), (2,))
        assert conditional_cdf(cop, split, (0, 2), 0.9) == 0.0

    def test_group_form(self):
        cop = independence_copula((3, 4, 4))
        split = GroupSplit((0,), (1, 2))
        val = conditional_cdf(cop, split, (1,), [0.5, 0.25])
        assert val == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("cell", [1.7, (1.7,), "x", ("x",), [(1, 2), 3]])
    def test_non_integer_cell_rejected(self, cell):
        cop = independence_copula((4, 4))
        with pytest.raises(InvalidArgumentError, match="integer"):
            conditional_cdf(cop, PAIR, cell, 0.5)


class TestTauQuadratic:
    def test_independence_zero_exactly(self):
        for n in (1, 2, 3):
            cop = independence_copula((8,) * (n + 1))
            split = GroupSplit(tuple(range(n)), (n,))
            assert tau_quadratic(cop, split).value == 0.0

    def test_comonotone_closed_form(self):
        for dims in (2, 3):
            for m in (4, 16, 64):
                cop = comonotone_copula(dims, m)
                split = GroupSplit(tuple(range(dims - 1)), (dims - 1,))
                val = tau_quadratic(cop, split).value
                assert val == pytest.approx(1.0 - 1.0 / m, abs=1e-12)

    def test_comonotone_matches_riemann_oracle(self):
        cop = comonotone_copula(2, 4)
        assert tau_quadratic(cop, PAIR).value == pytest.approx(
            riemann_tau(cop, PAIR), abs=1e-5
        )

    def test_monotone_in_resolution(self):
        vals = [
            tau_quadratic(comonotone_copula(2, m), PAIR).value for m in (4, 16, 64, 256)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_mixture_theta_squared_law(self):
        # conditional CDF of the blend is theta * ramp + (1 - theta) * v, so
        # the measure is theta^2 times the comonotone value
        for theta in (0.25, 0.5, 0.75):
            for m in (16, 64):
                val = tau_quadratic(blend(theta, m), PAIR).value
                assert val == pytest.approx(theta**2 * (1.0 - 1.0 / m), abs=1e-12)
        val = tau_quadratic(blend(0.5, 64), PAIR).value
        assert abs(val - 0.25) < 0.01

    def test_mixture_matches_riemann_oracle(self):
        cop = blend(0.6, 8)
        assert tau_quadratic(cop, PAIR).value == pytest.approx(
            riemann_tau(cop, PAIR), abs=1e-5
        )

    def test_range_on_random_copulas(self, rng):
        for _ in range(500):
            dims = int(rng.integers(2, 4))
            cop = random_copula((4,) * dims, rng)
            split = GroupSplit(tuple(range(dims - 1)), (dims - 1,))
            val = tau_quadratic(cop, split).value
            assert -1e-12 <= val <= 1.0 + 1e-9

    def test_zero_iff_factorization(self, rng):
        # forward: product grid -> exactly zero
        w_u = random_copula((5,), rng).mass
        prod = CheckerboardCopula((5, 4), np.outer(w_u, np.full(4, 0.25)))
        assert tau_quadratic(prod, PAIR).value <= 1e-12
        # converse: a grid that does not factorize stays away from zero
        eps = 1e-3
        bent = CheckerboardCopula(
            (2, 2), [0.25 + eps, 0.25 - eps, 0.25 - eps, 0.25 + eps]
        )
        assert tau_quadratic(bent, PAIR).value > 1e-12

    def test_maximum_characterization(self, rng):
        # conditional mass concentrated in one target cell per conditioning
        # cell attains the resolution maximum exactly
        for n_cond in (1, 2):
            cop = assignment_copula(n_cond, 8, rng)
            split = GroupSplit(tuple(range(n_cond)), (n_cond,))
            val = tau_quadratic(cop, split).value
            assert val == pytest.approx(1.0 - 1.0 / 8, abs=1e-12)

    def test_requires_single_target(self):
        cop = independence_copula((4, 4, 4))
        with pytest.raises(InvalidArgumentError):
            tau_quadratic(cop, GroupSplit((0,), (1, 2)))

    @pytest.mark.parametrize(
        "resolutions", [(4, 4, 4), (24, 40, 64), (7, 33, 50)], ids=["4x4x4", "24x40x64", "7x33x50"]
    )
    @pytest.mark.parametrize(
        "measure",
        [
            tau_quadratic,
            lambda c, s: tau_alpha(c, s, 1.0),
            lambda c, s: tau_alpha(c, s, 3.5),
            lambda c, s: renyi_alpha(c, s, 0.5),
            renyi_limit,
            lambda c, s: generic_measure(c, s, lambda x: x * x * np.abs(x)),
        ],
        ids=["tau_quadratic", "tau_alpha_1", "tau_alpha_3.5", "renyi_alpha_0.5", "renyi_limit", "custom_phi"],
    )
    def test_conditioning_permutation_bit_identical(self, rng, resolutions, measure):
        # the larger grids span several walk blocks of _BLOCK_CELLS cells
        cop = random_copula(resolutions, rng)
        split = GroupSplit((0, 1), (2,))
        base = measure(cop, split).value
        assert measure(cop.permute_axes((1, 0, 2)), split).value == base
        assert measure(cop, GroupSplit((1, 0), (2,))).value == base

    def test_relabeling_a_tied_sparse_fit_bit_identical(self):
        # A tied fit at m not dividing N stores few of its cells, so the walk
        # groups them by length; relabeling must still change no bit, for
        # every target and conditioning order, in the split or in the grid.
        z = make_rng(28).standard_normal((2000, 4))
        z[:, 3] += z[:, 0] - z[:, 1]
        with pytest.warns(RuntimeWarning, match="tied"):
            cop = fit_checkerboard(pseudo_observations(np.round(z * 100)), (13, 16, 9, 17))
        assert cop.cell_index.size < math.prod(cop.resolutions) // 10
        assert_relabeling_bit_identical(cop)

    def test_relabeling_a_complete_grid_bit_identical(self, rng):
        # A grid that stores every cell is read in split order as a view of
        # its masses; that must agree bit for bit with relabeling the grid.
        cop = random_copula((3, 5, 4, 6), rng)
        assert cop.cell_index.size == math.prod(cop.resolutions)
        assert_relabeling_bit_identical(cop)

    def test_target_reversal_within_tolerance(self, rng):
        data = rng.standard_normal((2000, 3))
        data[:, 2] += data[:, 0] * data[:, 1]
        split = GroupSplit((0, 1), (2,))
        base = tau_quadratic(fit_checkerboard(pseudo_observations(data), (4, 4, 4)), split).value
        data[:, 2] *= -1.0
        flipped = tau_quadratic(fit_checkerboard(pseudo_observations(data), (4, 4, 4)), split).value
        assert abs(flipped - base) < 1e-12


class TestTauAlpha:
    def test_alpha_two_equals_quadratic_exactly(self, rng):
        cop = random_copula((6, 6), rng)
        assert tau_alpha(cop, PAIR, 2.0).value == tau_quadratic(cop, PAIR).value

    def test_independence_zero(self):
        cop = independence_copula((8, 8))
        assert tau_alpha(cop, PAIR, 1.0).value == pytest.approx(0.0, abs=1e-15)

    def test_normalizer_reported(self):
        rep = tau_alpha(independence_copula((4, 4)), PAIR, 1.0)
        assert rep.normalizer == pytest.approx(3.0)
        rep = tau_alpha(independence_copula((4, 4)), PAIR, 2.0)
        assert rep.normalizer == pytest.approx(6.0)

    def test_comonotone_approaches_one(self):
        # fine-grid check that the normalizer is the right constant
        vals = [
            tau_alpha(comonotone_copula(2, m), PAIR, 1.0).value for m in (16, 64, 512)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 1.0) < 0.05

    def test_alpha_below_one_rejected(self):
        with pytest.raises(InvalidArgumentError):
            tau_alpha(independence_copula((4, 4)), PAIR, 0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidArgumentError):
            tau_alpha(independence_copula((4, 4)), PAIR, alpha)

    def test_huge_alpha_gives_typed_error_not_nan(self, rng):
        # the normalizer overflows to inf while every |F - v|^alpha is 0
        with pytest.raises(EvaluationError):
            tau_alpha(random_copula((4, 4), rng), PAIR, 1e308)

    def test_dominated_by_unit_bound(self, rng):
        for _ in range(100):
            cop = random_copula((4, 4), rng)
            assert tau_alpha(cop, PAIR, 1.5).value <= 1.0 + 1e-9


class TestRenyiAlpha:
    def test_independence_zero_exactly(self):
        cop = independence_copula((8, 8))
        for a in (0.5, 1.5):
            assert renyi_alpha(cop, PAIR, a).value == 0.0

    def test_comonotone_converges_to_analytic_limit(self):
        # continuous limit is log(1/(2 - alpha))/(alpha - 1) = 2 log 2 at 1.5
        target = 2.0 * math.log(2.0)
        vals = [
            renyi_alpha(comonotone_copula(2, m), PAIR, 1.5).value for m in (64, 256, 512)
        ]
        gaps = [abs(v - target) for v in vals]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.06

    def test_divergence_toward_alpha_two(self):
        cop = comonotone_copula(2, 256)
        vals = [renyi_alpha(cop, PAIR, a).value for a in (1.5, 1.9, 1.99)]
        assert vals[0] < vals[1] < vals[2]

    def test_alpha_range_enforced(self):
        cop = independence_copula((4, 4))
        for bad in (0.0, 1.0, 2.0, 2.5):
            with pytest.raises(InvalidArgumentError):
                renyi_alpha(cop, PAIR, bad)


class TestRenyiLimit:
    def test_independence_zero_exactly(self):
        assert renyi_limit(independence_copula((8, 8)), PAIR).value == 0.0

    def test_comonotone_near_one(self):
        val = renyi_limit(comonotone_copula(2, 512), PAIR).value
        assert abs(val - 1.0) < 0.05

    def test_mixture_strictly_between(self):
        coarse = renyi_limit(blend(0.5, 64), PAIR).value
        fine = renyi_limit(blend(0.5, 256), PAIR).value
        assert 0.05 < fine < 0.95
        assert abs(fine - coarse) < 0.02

    def test_nonnegative_on_random_copulas(self, rng):
        for _ in range(50):
            cop = random_copula((4, 4), rng)
            assert renyi_limit(cop, PAIR).value >= -1e-9


class TestMutualInformation:
    def test_independence_zero_exactly(self):
        assert mutual_information(independence_copula((8, 8))).value == 0.0

    def test_comonotone_diagonal_formula(self):
        for m in (8, 64):
            val = mutual_information(comonotone_copula(3, m)).value
            assert val == pytest.approx(2.0 * math.log(m), abs=1e-9)

    def test_unbounded_growth_in_resolution(self):
        vals = [mutual_information(comonotone_copula(3, m)).value for m in (8, 32, 128)]
        assert vals[0] < vals[1] < vals[2]


class TestGenericMeasure:
    def test_square_phi_zero_on_independence(self):
        val = generic_measure(independence_copula((8, 8)), PAIR, lambda x: x * x).value
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_six_square_matches_quadratic(self, rng):
        cop = random_copula((6, 6), rng)
        val = generic_measure(cop, PAIR, lambda x: 6.0 * x * x).value
        assert val == pytest.approx(tau_quadratic(cop, PAIR).value, abs=1e-12)

    def test_absolute_value_matches_unnormalized_alpha_one(self):
        cop = comonotone_copula(2, 64)
        val = generic_measure(cop, PAIR, np.abs).value
        assert val == pytest.approx(tau_alpha(cop, PAIR, 1.0).value / 3.0, abs=1e-12)

    def test_group_reference_zero_on_product(self, rng):
        cv = comonotone_copula(2, 4)
        prod = CheckerboardCopula(
            (4, 4, 4), np.einsum("i,jk->ijk", np.full(4, 0.25), cv.mass.reshape(4, 4))
        )
        val = generic_measure(prod, GroupSplit((0,), (1, 2)), lambda x: x * x).value
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_non_finite_phi_rejected(self, rng):
        cop = random_copula((4, 4), rng)
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError):
            generic_measure(cop, PAIR, lambda x: np.log(x))


class TestMaxBound:
    """The largest reachable group value: the Kendall-function bound that
    ``group_tau`` reports as ``upper_bound``."""

    GROUP = GroupSplit((0,), (1, 2))

    def test_comonotone_target_pair_gives_one_plus_one_over_8_m_squared(self):
        # the pair's cells sit on the diagonal, each at t = (i + 1/4) / m
        for m in (8, 16, 64):
            bound = group_tau(comonotone_copula(3, m), self.GROUP).upper_bound
            assert bound == 1.0 + 1.0 / (8 * m * m)

    def test_independence_pair_five_sixths(self):
        val = group_tau(independence_copula((2, 64, 64)), self.GROUP).upper_bound
        assert abs(val - 5.0 / 6.0) < 1e-3

    def test_within_documented_cap(self, rng):
        for _ in range(25):
            cop = random_copula((3, 3, 3), rng)
            val = group_tau(cop, self.GROUP).upper_bound
            assert 0.0 <= val <= 1.5

    def test_target_masses_summing_past_one_stay_within_the_bound(self):
        # this fit's target masses, added in sequence, reach 1 + 2**-52
        # before its last, empty target cell
        data = np.random.default_rng(213).standard_normal((97, 3))
        cop = fit_checkerboard(pseudo_observations(data), (5, 7, 6))
        report = group_tau(cop, self.GROUP)
        assert 0.0 <= report.value <= report.upper_bound


class TestGroupTau:
    def test_product_with_dependent_target_is_zero(self):
        cv = comonotone_copula(2, 4)
        prod = CheckerboardCopula(
            (4, 4, 4), np.einsum("i,jk->ijk", np.full(4, 0.25), cv.mass.reshape(4, 4))
        )
        rep = group_tau(prod, GroupSplit((0,), (1, 2)))
        assert rep.value <= 1e-12
        assert rep.upper_bound is not None

    def test_bounded_by_kendall_bound(self, rng):
        for _ in range(100):
            cop = random_copula((4, 4, 4, 4), rng)
            rep = group_tau(cop, GroupSplit((0, 1), (2, 3)))
            assert rep.value <= rep.upper_bound + 1e-9

    def test_copied_block_approaches_bound(self):
        # target = copy of the conditioning block; the conditional indicator
        # is exact off the diagonal cells, so the gap shrinks like 1/m
        from copdep import identity_coupling

        gaps = []
        for m in (4, 8, 16):
            rep = group_tau(identity_coupling(2, m), GroupSplit((0, 1), (2, 3)))
            assert rep.value <= rep.upper_bound + 1e-12
            gaps.append(rep.upper_bound - rep.value)
            assert gaps[-1] <= 3.0 / m
        assert gaps[0] > gaps[1] > gaps[2]

    def test_single_target_rejected(self):
        with pytest.raises(InvalidArgumentError):
            group_tau(independence_copula((4, 4)), PAIR)

    def test_conditioning_permutation_bit_identical(self):
        # Relabeling the conditioning axes, in the split or in the grid,
        # changes no bit of the value or the bound.
        shapes = [
            ((3, 2), (5, 4, 3)), ((3, 3), (3, 3)), ((2, 4, 3), (3, 2)), ((4, 2, 3), (2, 3, 2))
        ]
        for (u_res, v_res), seed in itertools.product(shapes, range(21, 27)):
            cop = random_copula(u_res + v_res, make_rng(seed))
            u_axes = tuple(range(len(u_res)))
            v_axes = tuple(range(len(u_res), cop.dims))
            base = group_tau(cop, GroupSplit(u_axes, v_axes))
            for perm in itertools.permutations(u_axes):
                for rep in (
                    group_tau(cop, GroupSplit(perm, v_axes)),
                    group_tau(cop.permute_axes(perm + v_axes), GroupSplit(u_axes, v_axes)),
                ):
                    assert rep.value == base.value, (u_res, v_res, seed, perm)
                    assert rep.upper_bound == base.upper_bound, (u_res, v_res, seed, perm)

    def test_each_split_and_relabeled_copy_gets_its_own_value(self):
        # group_tau keeps its value and bound per copula and split: a second
        # split, or a copy with its axes relabeled, must not read them.
        cop = random_copula((3, 4, 2, 3), make_rng(31))
        swapped = cop.permute_axes((2, 3, 0, 1))
        splits = (GroupSplit((0, 1), (2, 3)), GroupSplit((3,), (0, 1, 2)))
        got = [(group_tau(c, s), c, s) for _ in range(2) for c in (cop, swapped) for s in splits]
        for rep, c, s in got:
            fresh = group_tau(CheckerboardCopula(c.resolutions, c.mass), s)
            assert rep.value.hex() == fresh.value.hex(), (c.resolutions, s)
            assert rep.upper_bound.hex() == fresh.upper_bound.hex(), (c.resolutions, s)
        assert len({rep.value for rep, _, _ in got}) == 4
        assert len({rep.upper_bound for rep, _, _ in got}) == 4

    def test_threads_sharing_one_copula_get_fresh_values(self):
        # The memo is filled without a lock: threads that miss at once each
        # compute and store the same pure result.
        cop = random_copula((3, 3, 2, 2), make_rng(32))
        splits = [GroupSplit((a,), tuple(b for b in range(4) if b != a)) for a in range(4)]
        expected = [group_tau(CheckerboardCopula(cop.resolutions, cop.mass), s) for s in splits]
        shared = CheckerboardCopula(cop.resolutions, cop.mass)
        got, interval = [], sys.getswitchinterval()

        def work(offset):
            for i in range(40):
                s = splits[(i + offset) % 4]
                got.append((s, group_tau(shared, s).value))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 6 * 40
        want = {s: rep.value for s, rep in zip(splits, expected)}
        assert all(value == want[s] for s, value in got)

    def test_warns_on_every_call(self, rng, monkeypatch):
        import copdep.measures as measures

        monkeypatch.setattr(measures, "_kendall_bound", lambda t, k: 1e-300)
        cop = random_copula((4, 4, 4), rng)
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="exceeds the unit bound"):
                group_tau(cop, GroupSplit((0,), (1, 2)))


class TestGroupTauNormalized:
    def test_normalization(self, rng):
        cop = random_copula((4, 4, 4), rng)
        split = GroupSplit((0,), (1, 2))
        base = group_tau(cop, split)
        norm = group_tau_normalized(cop, split)
        assert norm.value == pytest.approx(base.value / base.upper_bound, abs=1e-15)
        assert norm.value <= 1.0 + 1e-9

    def test_degenerate_bound_raises(self, rng, monkeypatch):
        import copdep.measures as measures

        monkeypatch.setattr(measures, "_kendall_bound", lambda t, k: 0.0)
        cop = random_copula((4, 4, 4), rng)
        for _ in range(2):  # on every call, not only the one that computes the bound
            with pytest.raises(DegenerateBoundError):
                group_tau_normalized(cop, GroupSplit((0,), (1, 2)))

    def test_reuses_group_tau_on_the_same_copula_and_split(self, rng, monkeypatch):
        import copdep.measures as measures

        calls = []
        gap_terms = measures._gap_terms
        monkeypatch.setattr(
            measures, "_gap_terms", lambda *args: calls.append(args) or gap_terms(*args)
        )
        cop = random_copula((4, 3, 5), rng)
        split = GroupSplit((0,), (1, 2))
        base = group_tau(cop, split)
        norm = group_tau_normalized(cop, split)
        assert len(calls) == 1
        assert norm.value == base.value / base.upper_bound
        assert norm.normalizer == base.upper_bound


class TestAveragedDependence:
    def test_independence_zero(self):
        cop = independence_copula((4, 4, 4))
        val = averaged_dependence(cop, GroupSplit((0,), (1, 2))).value
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_single_target_equals_tau_quadratic(self, rng):
        cop = random_copula((5, 5), rng)
        assert averaged_dependence(cop, PAIR).value == tau_quadratic(cop, PAIR).value

    def test_half_functional_half_independent(self):
        # first target copies the conditioning axis, second is independent
        m = 8
        diagonal = comonotone_copula(2, m).mass.reshape(m, m)
        mass = np.einsum("ij,k->ijk", diagonal, np.full(m, 1.0 / m))
        cop = CheckerboardCopula((m, m, m), mass)
        val = averaged_dependence(cop, GroupSplit((0,), (1, 2))).value
        assert val == pytest.approx(0.5 * (1.0 - 1.0 / m), abs=1e-12)


class TestMeasureKindValidation:
    def test_unknown_tag(self):
        with pytest.raises(InvalidArgumentError):
            MeasureKind("does_not_exist")

    def test_alpha_required(self):
        with pytest.raises(InvalidArgumentError):
            MeasureKind("tau_alpha")

    def test_alpha_forbidden(self):
        with pytest.raises(InvalidArgumentError):
            MeasureKind("tau_quadratic", 2.0)

    @pytest.mark.parametrize("tag", ["tau_alpha", "renyi_alpha"])
    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, tag, alpha):
        with pytest.raises(InvalidArgumentError):
            MeasureKind(tag, alpha)

    @pytest.mark.parametrize("measure", [tau_alpha, renyi_alpha])
    @pytest.mark.parametrize("alpha", ["x", [1.5]])
    def test_non_numeric_alpha_rejected(self, measure, alpha):
        with pytest.raises(InvalidArgumentError, match="numeric alpha"):
            MeasureKind(measure.__name__, alpha)
        with pytest.raises(InvalidArgumentError, match="numeric alpha"):
            measure(independence_copula((4, 4)), PAIR, alpha)

    @pytest.mark.parametrize(
        "measure, alpha", [(tau_alpha, 0.5), (tau_alpha, math.inf), (renyi_alpha, 1.0)]
    )
    def test_direct_call_gives_the_measure_kind_message(self, measure, alpha):
        with pytest.raises(InvalidArgumentError) as kind_error:
            MeasureKind(measure.__name__, alpha)
        with pytest.raises(InvalidArgumentError) as call_error:
            measure(independence_copula((4, 4)), PAIR, alpha)
        assert str(call_error.value) == str(kind_error.value)

    def test_report_json_schema(self, rng):
        cop = random_copula((4, 4), rng)
        payload = tau_quadratic(cop, PAIR).to_json_dict()
        assert set(payload) == {
            "kind",
            "alpha",
            "value",
            "upper_bound",
            "normalizer",
            "u_axes",
            "v_axes",
            "resolutions",
            "sample_size",
        }
