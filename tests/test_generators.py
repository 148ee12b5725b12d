import numpy as np
import pytest

from copdep import (
    GroupSplit,
    InsufficientDataError,
    InvalidArgumentError,
    SynthModel,
    comonotone_copula,
    fit_checkerboard,
    generate,
    independence_copula,
    make_rng,
    mixture_copula,
    pseudo_observations,
    random_copula,
    random_star_pair,
    star,
    tau_quadratic,
)

PAIR = GroupSplit((0,), (1,))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        model = SynthModel(tag="mixture", theta=0.3, seed=99)
        a = generate(model, 500)
        b = generate(model, 500)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate(SynthModel(tag="independent", seed=1), 100)
        b = generate(SynthModel(tag="independent", seed=2), 100)
        assert not np.array_equal(a, b)


class TestModels:
    def test_independent_fits_to_near_zero(self):
        data = generate(SynthModel(tag="independent", dimension=3, seed=5), 20000)
        cop = fit_checkerboard(pseudo_observations(data), (8, 8, 8))
        val = tau_quadratic(cop, GroupSplit((0, 1), (2,))).value
        assert abs(val) < 0.02

    def test_comonotone_columns_identical(self):
        data = generate(SynthModel(tag="comonotone", dimension=3, seed=6), 100)
        assert np.array_equal(data[:, 0], data[:, 1])
        assert np.array_equal(data[:, 0], data[:, 2])

    def test_functional_near_complete_dependence(self):
        data = generate(SynthModel(tag="functional", dimension=3, seed=7), 20000)
        cop = fit_checkerboard(pseudo_observations(data), (32, 32, 32))
        val = tau_quadratic(cop, GroupSplit((0, 1), (2,))).value
        assert val > 0.9

    def test_functional_noise_reduces_dependence(self):
        clean = generate(SynthModel(tag="functional", dimension=2, seed=8), 5000)
        noisy = generate(SynthModel(tag="functional", dimension=2, sigma=2.0, seed=8), 5000)
        t_clean = tau_quadratic(
            fit_checkerboard(pseudo_observations(clean), (10, 10)), PAIR
        ).value
        t_noisy = tau_quadratic(
            fit_checkerboard(pseudo_observations(noisy), (10, 10)), PAIR
        ).value
        assert t_noisy < t_clean

    def test_square_law_nonsymmetry(self):
        data = generate(SynthModel(tag="square_law", seed=9), 20000)
        cop = fit_checkerboard(pseudo_observations(data), (32, 32))
        forward = tau_quadratic(cop, GroupSplit((0,), (1,))).value
        backward = tau_quadratic(cop, GroupSplit((1,), (0,))).value
        assert forward > 0.9
        assert abs(backward - 0.25) < 0.05

    def test_gaussian_requires_positive_definite(self):
        with pytest.raises(InvalidArgumentError):
            SynthModel(
                tag="gaussian",
                dimension=2,
                correlation=((1.0, 1.2), (1.2, 1.0)),
            )

    def test_gaussian_dependence_increases_with_rho(self):
        taus = []
        for rho in (0.0, 0.9):
            model = SynthModel(
                tag="gaussian",
                dimension=2,
                correlation=((1.0, rho), (rho, 1.0)),
                seed=10,
            )
            data = generate(model, 10000)
            cop = fit_checkerboard(pseudo_observations(data), (10, 10))
            taus.append(tau_quadratic(cop, PAIR).value)
        assert taus[0] < 0.05 < taus[1]

    def test_minimum_rows(self):
        with pytest.raises(InsufficientDataError):
            generate(SynthModel(tag="independent", seed=1), 1)

    def test_unknown_tag_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SynthModel(tag="cauchy")

    def test_mixture_theta_validated(self):
        with pytest.raises(InvalidArgumentError):
            SynthModel(tag="mixture", theta=1.5)

    @pytest.mark.parametrize(
        "tag, field, value",
        [
            ("independent", "theta", 0.3),
            ("gaussian", "theta", 0.3),
            ("mixture", "sigma", 2.0),
            ("square_law", "sigma", 0.0),
            ("functional", "correlation", ((1.0, 0.0), (0.0, 1.0))),
        ],
    )
    def test_a_field_the_model_does_not_read_is_refused(self, tag, field, value):
        fields = {"theta": 0.5} if tag == "mixture" else {}
        with pytest.raises(InvalidArgumentError, match=f"^{field} does not apply to the {tag} "):
            SynthModel(tag=tag, **fields, **{field: value})


class TestMixtureCopula:
    def test_theta_zero_is_independence(self):
        assert np.array_equal(mixture_copula(0.0, 8).mass, independence_copula((8, 8)).mass)

    def test_theta_one_is_comonotone(self):
        assert np.array_equal(mixture_copula(1.0, 8).mass, comonotone_copula(2, 8).mass)

    def test_intermediate_value(self):
        val = tau_quadratic(mixture_copula(0.5, 64), PAIR).value
        assert abs(val - 0.25) < 0.01


class TestRandomCopulas:
    def test_random_copula_validates(self, rng):
        for _ in range(10):
            assert random_copula((3, 4, 5), rng).validate().passed

    def test_star_pair_compatible_by_construction(self, rng):
        for n in (1, 2):
            a, b = random_star_pair(n, 4, rng)
            assert star(a, b, n).validate().passed

    def test_star_pair_shapes(self, rng):
        a, b = random_star_pair(2, 3, rng, target_axes=2)
        assert a.resolutions == (3, 3, 3, 3)
        assert b.resolutions == (3, 3, 3, 3)


SHAPES = [(4,) * 4, (8,) * 3, (3, 4, 5), (2, 3, 2, 3), (7,), (1,), (1, 4)]


class TestExactMarginals:
    @pytest.mark.parametrize("res", SHAPES, ids=str)
    def test_marginals_exact_and_cells_positive(self, res, rng):
        for _ in range(5):
            mass = random_copula(res, rng).mass.reshape(res)
            assert mass.min() > 0.0
            for axis, m in enumerate(res):
                others = tuple(a for a in range(len(res)) if a != axis)
                slabs = mass.sum(axis=others) if others else mass
                assert np.abs(slabs - 1.0 / m).max() <= 1e-14

    def test_same_seed_bit_identical(self):
        for res in SHAPES:
            a = random_copula(res, make_rng(31))
            b = random_copula(res, make_rng(31))
            assert np.array_equal(a.cell_index, b.cell_index)
            assert a.cell_mass.tobytes() == b.cell_mass.tobytes()
        pairs = [random_star_pair(2, 4, make_rng(32)) for _ in range(2)]
        for x, y in zip(*pairs):
            assert x.cell_mass.tobytes() == y.cell_mass.tobytes()

    @pytest.mark.parametrize("n, m, target_axes", [(1, 8, 1), (2, 4, 1), (1, 3, 2), (1, 1, 1)])
    def test_star_pair_middle_marginals_agree(self, n, m, target_axes, rng):
        a, b = random_star_pair(n, m, rng, target_axes=target_axes)
        middle_a = a.marginal(tuple(range(n, 2 * n))).mass
        middle_b = b.marginal(tuple(range(n))).mass
        assert np.abs(middle_a - middle_b).max() <= 1e-14
