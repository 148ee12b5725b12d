import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copdep import (
    CheckerboardCopula,
    CopulaValidationError,
    GroupSplit,
    InvalidArgumentError,
    SynthModel,
    comonotone_copula,
    fit_checkerboard,
    generate,
    independence_copula,
    load_copula,
    make_rng,
    pseudo_observations,
    random_copula,
    require_valid,
    save_copula,
)
from copdep.grid import VALIDITY_TOL, _cell_sums
from conftest import unchecked


def brute_force_cdf(copula, points):
    """Independent oracle: explicit loop over cells and overlap fractions.

    ``points`` is one point or an (n, d) array of them; the CDF at each,
    a scalar for one point.
    """
    p = np.asarray(points, dtype=np.float64)
    rows = np.atleast_2d(p)
    total = np.zeros(rows.shape[0])
    grid = copula.mass.reshape(copula.resolutions)
    for idx in np.ndindex(*copula.resolutions):
        frac = np.ones(rows.shape[0])
        for axis, i in enumerate(idx):
            m = copula.resolutions[axis]
            frac *= np.clip(rows[:, axis] * m - i, 0.0, 1.0)
        total += grid[idx] * frac
    return float(total[0]) if p.ndim == 1 else total


class TestConstructors:
    def test_independence_2x2(self):
        cop = independence_copula((2, 2))
        assert np.allclose(cop.mass, 0.25)

    def test_independence_1d_is_uniform(self):
        cop = independence_copula((3,))
        assert np.allclose(cop.mass, [1 / 3, 1 / 3, 1 / 3])

    def test_independence_cdf_at_corner(self):
        cop = independence_copula((2, 2, 2))
        assert brute_force_cdf(cop, [1, 1, 1]) == pytest.approx(1.0, abs=1e-15)

    def test_independence_rejects_bad_resolution(self):
        with pytest.raises(InvalidArgumentError):
            independence_copula((2, 0))

    def test_comonotone_2x2(self):
        cop = comonotone_copula(2, 2)
        assert np.allclose(cop.mass.reshape(cop.resolutions), [[0.5, 0.0], [0.0, 0.5]])

    def test_comonotone_cdf_equal_coordinates(self):
        cop = comonotone_copula(3, 4)
        assert brute_force_cdf(cop, [0.5, 0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_comonotone_cdf_matches_min_at_vertices(self):
        # value at (0.25, 0.75) equals min = 0.25
        cop = comonotone_copula(2, 4)
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
        cop = unchecked((2, 3), [0.0, 0.5, 0.0, -0.25, 0.0, 0.75])
        assert cop.cell_index.tolist() == [1, 3, 5]
        assert cop.cell_mass.tolist() == [0.5, -0.25, 0.75]
        # the negative cell stays visible to validation
        assert cop.validate().negative_cell == (1, 0)

    def test_dense_views_are_fresh_read_only_copies(self):
        cop = comonotone_copula(2, 3)
        first, second = cop.mass, cop.mass
        assert first is not second
        assert np.array_equal(first, second)
        assert not first.flags.writeable
        assert not cop.cell_index.flags.writeable and not cop.cell_mass.flags.writeable

    def test_json_keeps_the_dense_mass_list(self, tmp_path):
        path = tmp_path / "cop.json"
        save_copula(comonotone_copula(2, 2), path)
        assert path.read_bytes() == b'{"dims":2,"resolutions":[2,2],"mass":[0.5,0.0,0.0,0.5]}'

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


class TestCdf:
    """The CDF of generated grids, read through ``brute_force_cdf``."""

    def test_zero_coordinate_gives_zero(self):
        cop = independence_copula((4, 4))
        assert brute_force_cdf(cop, [0.0, 0.7]) == 0.0

    def test_product_value(self):
        cop = independence_copula((5, 5))
        assert brute_force_cdf(cop, [0.3, 0.7]) == pytest.approx(0.21, abs=1e-15)

    def test_marginal_coordinate(self):
        cop = comonotone_copula(2, 4)
        assert brute_force_cdf(cop, [0.5, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_lipschitz_property(self, rng):
        cop = random_copula((4, 4, 4), rng)
        u, v = rng.random((1000, 3)), rng.random((1000, 3))
        gaps = np.abs(brute_force_cdf(cop, v) - brute_force_cdf(cop, u))
        assert np.all(gaps <= np.abs(v - u).sum(axis=1) + 1e-12)

    def test_frechet_envelope_property(self, rng):
        cop = random_copula((4, 4, 4), rng)
        p = rng.random((1000, 3))
        c = brute_force_cdf(cop, p)
        lower = np.maximum(p.sum(axis=1) - 2.0, 0.0)
        assert np.all(lower - 1e-12 <= c) and np.all(c <= p.min(axis=1) + 1e-12)


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
            want = brute_force_cdf(cop, [1.0, v, 1.0])
            assert brute_force_cdf(marg, [v]) == pytest.approx(want, abs=1e-12)

    def test_commutes_with_permutation(self, rng):
        cop = random_copula((2, 3, 4), rng)
        left = cop.permute_axes((2, 1, 0)).marginal((0, 2))
        right = cop.marginal((2, 0))
        assert np.array_equal(left.mass, right.mass)

    def test_empty_axes_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            random_copula((2, 2), rng).marginal(())


@pytest.mark.parametrize("bound", [12, 40, 41, 10**12])
@pytest.mark.parametrize("weighted", [False, True], ids=["counts", "weights"])
def test_cell_sums_match_a_loop_on_both_paths(bound, weighted):
    # 20 keys: a bound up to 40 adds into dense sums, a larger one sorts.
    # Key 3's two weights cancel, so it is left out of the weighted sums.
    keys = np.array([3, 7, 3, 0, 11, 7, 5, 5, 9, 1, 11, 11, 0, 6, 2, 8, 10, 4, 7, 6])
    keys *= bound // 12
    weights = make_rng(5).standard_normal(keys.size)
    weights[2] = -weights[0]
    want = {}
    for key, weight in zip(keys.tolist(), weights.tolist() if weighted else [1] * keys.size):
        want[key] = want.get(key, 0) + weight
    want = {key: total for key, total in sorted(want.items()) if total != 0}
    got_keys, got_sums = _cell_sums(keys, bound, weights if weighted else None)
    assert got_keys.tolist() == list(want)
    assert got_sums.tolist() == list(want.values())
    assert got_keys.dtype == np.int64
    assert got_sums.dtype == (np.float64 if weighted else np.int64)


@settings(max_examples=200, deadline=None)
@given(resolutions=st.lists(st.integers(1, 5), min_size=1, max_size=5), data=st.data())
def test_key_is_numpys_flat_index_over_the_axes(resolutions, data):
    # Any axes in any order, so the runs of consecutive axes vary, on a grid
    # with about half its cells stored.
    res = tuple(resolutions)
    axes = data.draw(st.permutations(range(len(res))))[: data.draw(st.integers(1, len(res)))]
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
    mass = rng.random(math.prod(res)) * (rng.random(math.prod(res)) < 0.5)
    c = unchecked(res, mass)
    coords = np.unravel_index(c.cell_index, res)
    want = np.ravel_multi_index(tuple(coords[a] for a in axes), [res[a] for a in axes])
    got = c._key(axes)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


class TestAxisOps:
    def test_identity_permutation(self, rng):
        cop = random_copula((3, 3), rng)
        assert np.array_equal(cop.permute_axes((0, 1)).mass, cop.mass)

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
        with pytest.raises(CopulaValidationError) as exc:
            CheckerboardCopula((2, 2), mass)
        report = exc.value.report
        assert not report.passed
        assert report.max_negative_mass == pytest.approx(0.1)
        assert report.negative_cell == (1, 0)
        assert report.summary().startswith("FAIL: max negative mass 1.000e-01 at cell (1, 0), ")

    def test_nonuniform_marginal_flagged(self):
        with pytest.raises(CopulaValidationError) as exc:
            CheckerboardCopula((2, 2), [0.4, 0.2, 0.2, 0.2])
        report = exc.value.report
        assert not report.passed
        assert report.worst_marginal_error == pytest.approx(0.1)

    def test_require_valid_raises(self):
        bad = unchecked((2,), [0.7, 0.3])
        with pytest.raises(CopulaValidationError):
            require_valid(bad)


#: The checks of ``validate``, each with the report field that measures it.
CHECKS = {
    "negative cell": "max_negative_mass",
    "total mass": "total_mass_error",
    "skewed marginal": "worst_marginal_error",
}


@st.composite
def broken_grids(draw, check):
    """The dense mass of a random copula changed to fail ``check`` alone."""
    res = tuple(draw(st.lists(st.integers(2, 5), min_size=2, max_size=3)))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    grid = random_copula(res, rng).mass.reshape(res).copy()
    cell = tuple(int(rng.integers(m)) for m in res)
    # the same cell moved one slab along axis 0, and along axes 0 and 1
    across = ((cell[0] + 1) % res[0],) + cell[1:]
    diagonal = (across[0], (cell[1] + 1) % res[1]) + cell[2:]
    if check == "negative cell":
        # the same amount off one diagonal of a 2x2 square and onto the other
        # keeps every slab's mass; it takes the first cell below zero
        x = grid[cell] + draw(st.floats(1e-6, 0.1))
        side = (cell[0],) + diagonal[1:]
        grid[cell] -= x
        grid[diagonal] -= x
        grid[across] += x
        grid[side] += x
    elif check == "total mass":
        # a total off by 1.5e-9 to 1.9e-9 puts under 1e-9 on each slab (m >= 2)
        grid *= 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.5e-9, 1.9e-9))
    elif check == "skewed marginal":
        x = grid[cell] * draw(st.floats(0.01, 0.99))
        grid[cell] -= x
        grid[across] += x
    else:
        grid[cell] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return res, grid


@pytest.mark.parametrize("check", [*CHECKS, "non-finite mass"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_grid_that_fails_one_check_is_not_a_copula(check, data):
    res, grid = data.draw(broken_grids(check))
    with pytest.raises(CopulaValidationError) as exc:
        CheckerboardCopula(res, grid)
    report = exc.value.report
    assert str(exc.value) == report.summary()
    failed = [name for name, field in CHECKS.items() if not getattr(report, field) <= VALIDITY_TOL]
    if check == "non-finite mass":
        assert "total mass" in failed  # the total is not finite
    else:
        assert failed == [check]


#: Grids on which the measures read plausible numbers while construction
#: did not check them, each with the checks it fails.
NOT_COPULAS = {
    "total mass 2": ((2, 2, 2), np.full(8, 0.25), ["total mass", "skewed marginal"]),
    "skewed marginals": ((2, 2, 2), [0.3] + [0.1] * 7, ["skewed marginal"]),
}


@pytest.mark.parametrize("res, mass, failed", NOT_COPULAS.values(), ids=list(NOT_COPULAS))
def test_a_plausible_grid_that_is_not_a_copula_names_its_failed_check(res, mass, failed):
    with pytest.raises(CopulaValidationError, match="^FAIL: ") as exc:
        CheckerboardCopula(res, mass)
    report = exc.value.report
    assert [name for name, field in CHECKS.items() if not getattr(report, field) <= VALIDITY_TOL] == failed


@pytest.mark.parametrize("check", CHECKS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_grid_within_the_tolerance_is_a_copula(check, data):
    # the counterpart of the failing grids: each check is met to 1e-9
    res = tuple(data.draw(st.lists(st.integers(2, 5), min_size=2, max_size=3)))
    grid = random_copula(res, make_rng(data.draw(st.integers(0, 2**32 - 1)))).mass.reshape(res).copy()
    off = data.draw(st.floats(1e-12, 0.5 * VALIDITY_TOL))
    cell = np.unravel_index(int(grid.argmax()), res)
    across = ((cell[0] + 1) % res[0],) + cell[1:]
    if check == "negative cell":
        # off one diagonal of a 2x2 square and onto the other: the smaller
        # cell of the first diagonal ends at -off
        diagonal = (across[0], (cell[1] + 1) % res[1]) + cell[2:]
        side = (cell[0],) + diagonal[1:]
        x = min(grid[cell], grid[diagonal]) + off
        grid[cell] -= x
        grid[diagonal] -= x
        grid[across] += x
        grid[side] += x
    elif check == "total mass":
        grid *= 1.0 + data.draw(st.sampled_from([-1.0, 1.0])) * off
    else:
        grid[cell] -= off
        grid[across] += off
    report = CheckerboardCopula(res, grid).validate()
    assert report.passed
    assert 0.0 < getattr(report, CHECKS[check]) <= VALIDITY_TOL


@st.composite
def copulas(draw):
    """A random copula, or the fit of a tied sample at resolutions that do
    not divide its size."""
    dims = draw(st.integers(2, 3))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_copula(tuple(draw(st.lists(st.integers(2, 6), min_size=dims, max_size=dims))), rng)
    n = draw(st.integers(10, 120))
    res = tuple(draw(st.lists(st.integers(2, 7).filter(lambda m: n % m), min_size=dims, max_size=dims)))
    levels = draw(st.lists(st.integers(2, n - 1), min_size=dims, max_size=dims))
    with pytest.warns(RuntimeWarning, match="tied"):
        pseudo = pseudo_observations(np.column_stack([rng.integers(0, k, n) for k in levels]))
    return fit_checkerboard(pseudo, res)


@settings(max_examples=100, deadline=None)
@given(copulas())
def test_a_copula_rebuilt_from_its_mass_keeps_its_cells(cop):
    again = CheckerboardCopula(cop.resolutions, cop.mass)
    assert again.cell_index.tobytes() == cop.cell_index.tobytes()
    assert again.cell_mass.tobytes() == cop.cell_mass.tobytes()


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
    @staticmethod
    def cell_bytes(copula):
        return copula.cell_index.tobytes(), copula.cell_mass.tobytes()

    def test_round_trip(self, rng, tmp_path):
        cop = random_copula((3, 4), rng)
        path = tmp_path / "cop.json"
        save_copula(cop, path)
        back = load_copula(path)
        assert back.resolutions == cop.resolutions
        assert self.cell_bytes(back) == self.cell_bytes(cop)

    def test_rejects_wrong_mass_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": 2, "resolutions": [2, 2], "mass": [0.5, 0.5]}))
        with pytest.raises(InvalidArgumentError):
            load_copula(path)

    def test_rejects_invalid_mass(self, tmp_path):
        path = tmp_path / "cop.json"
        path.write_text('{"dims": 1, "resolutions": [2], "mass": [0.9, 0.1]}')
        with pytest.raises(CopulaValidationError, match=f"^{re.escape(str(path))}: FAIL"):
            load_copula(path)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(InvalidArgumentError):
            load_copula(path)

    def test_a_fitted_copula_round_trips_bit_identical(self, tmp_path):
        sample = generate(SynthModel(tag="gaussian", correlation=((1, 0.6), (0.6, 1))), 500)
        cop = fit_checkerboard(pseudo_observations(sample), (7, 9))
        path = tmp_path / "cop.json"
        save_copula(cop, path)
        assert self.cell_bytes(load_copula(path)) == self.cell_bytes(cop)

    def test_a_file_json_dumps_wrote_loads_to_the_same_cells(self, tmp_path):
        # json.dumps writes spaces and exponents such as 1e-05, which the
        # compact files save_copula writes spell differently
        tiny = 1e-5
        cop = CheckerboardCopula((2, 2), [0.5 - tiny, tiny, tiny, 0.5 - tiny])
        dumped, saved = tmp_path / "dumped.json", tmp_path / "saved.json"
        save_copula(cop, saved)
        dumped.write_text(json.dumps(json.loads(saved.read_bytes()), indent=1))
        assert "1e-05" in dumped.read_text() and " " in dumped.read_text()
        assert " " not in saved.read_text()
        assert self.cell_bytes(load_copula(dumped)) == self.cell_bytes(load_copula(saved))

    @pytest.mark.parametrize("token", ["0.5", "5e-1", "5E-01", "0.05e+1", "0.5e+0", "5" + "0" * 21 + "e-22"])
    def test_number_spellings_load_the_same_mass(self, tmp_path, token):
        path = tmp_path / "cop.json"
        path.write_text(f'{{"dims": 1, "resolutions": [2], "mass": [{token}, 0.5]}}')
        assert load_copula(path).cell_mass.tobytes() == np.array([0.5, 0.5]).tobytes()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tokens_are_not_json(self, tmp_path, token):
        path = tmp_path / "cop.json"
        path.write_text(f'{{"dims": 1, "resolutions": [2], "mass": [{token}, 0.5]}}')
        with pytest.raises(InvalidArgumentError, match="not valid JSON"):
            load_copula(path)

    @pytest.mark.parametrize("mass", [np.nan, np.inf])
    def test_save_refuses_a_non_finite_mass(self, tmp_path, mass):
        # construction refuses it, so no file is written
        path = tmp_path / "cop.json"
        with pytest.raises(CopulaValidationError, match=f"total mass error {mass}"):
            save_copula(CheckerboardCopula((2,), [mass, 0.5]), path)
        assert not path.exists()

    @staticmethod
    def refusal(path, detail):
        """The start of the message load_copula raises for ``path``."""
        return "^" + re.escape(f"{path}{detail}")

    def test_depth_beyond_the_limit_is_refused_before_parsing(self, tmp_path):
        # a copula file nests one object and a flat list; orjson has no depth
        # limit, and 200,000 levels would overflow the C stack
        path = tmp_path / "deep.json"
        for arrays in (2, 200_000):
            mass = "[" * arrays + "1.0" + "]" * arrays
            path.write_text('{"dims": 1, "resolutions": [1], "mass": ' + mass + "}")
            detail = f" is not a copula file: it holds {arrays + 2} '[' and '{{' bytes"
            with pytest.raises(InvalidArgumentError, match=self.refusal(path, detail)):
                load_copula(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'"\\' * 200_000 + b"[" * 1001, "is not a copula file"),
            (b"[" * 1001 + b'"\\' * 200_000, "is not a copula file"),
            (b'"\\' * 200_000, "is not valid JSON"),
        ],
    )
    def test_unterminated_escapes_are_refused_in_linear_time(self, tmp_path, data, message):
        # 200,000 unterminated escapes, with and without brackets: a scan
        # that restarts at every quote would take minutes here
        path = tmp_path / "escapes.json"
        path.write_bytes(data)
        start = time.perf_counter()
        with pytest.raises(InvalidArgumentError, match=message):
            load_copula(path)
        assert time.perf_counter() - start < 5.0

    def test_an_unknown_key_is_refused_and_named(self, tmp_path):
        path = tmp_path / "cop.json"
        save_copula(independence_copula((2, 2)), path)
        payload = json.loads(path.read_bytes())
        payload["note"] = "fitted on 2,000 rows"
        path.write_text(json.dumps(payload))
        detail = " is not a copula file: unknown key 'note'"
        with pytest.raises(InvalidArgumentError, match=self.refusal(path, detail)):
            load_copula(path)

    @pytest.mark.parametrize(
        "text, detail",
        [
            ('{"dims": 1, "resolutions": [2]}', " is not a copula file: missing key 'mass'"),
            (
                '{"dims": 1, "mass": [1], "Mass": [1]}',
                " is not a copula file: unknown key 'Mass', missing key 'resolutions'",
            ),
            ("[1, 2]", " is not a copula file: expected a JSON object"),
            ("null", " is not a copula file: expected a JSON object"),
            ('{"dims": 1.0, "resolutions": [2], "mass": [0.5, 0.5]}', ": dims must be a JSON integer below 2**63, got 1.0"),
            ('{"dims": true, "resolutions": [2], "mass": [0.5, 0.5]}', ": dims must be a JSON integer below 2**63, got True"),
            (
                '{"dims": 9223372036854775808, "resolutions": [2], "mass": [0.5, 0.5]}',
                ": dims must be a JSON integer below 2**63",
            ),
            ('{"dims": 1, "resolutions": 2, "mass": [0.5, 0.5]}', ": resolutions must be a list of JSON integers"),
            ('{"dims": 1, "resolutions": [true], "mass": [1.0]}', ": resolutions must be a list of JSON integers"),
            (
                '{"dims": 1, "resolutions": [18446744073709551616], "mass": [1.0]}',
                ": resolutions must be a list of JSON integers below 2**63, got [1.8446744073709552e+19]",
            ),
            ('{"dims": 1, "resolutions": [2], "mass": ["0.5", "0.5"]}', ": mass must be a flat list of JSON numbers"),
            ('{"dims": 1, "resolutions": [1], "mass": [true]}', ": mass must be a flat list of JSON numbers"),
            (
                '{"dims": 2, "resolutions": [2, 2], "mass": [0.5, false, false, 0.5]}',
                ": mass must be JSON numbers, not true or false",
            ),
            ('{"dims": 1, "resolutions": [2], "mass": [1, true]}', ": mass must be JSON numbers, not true or false"),
            (
                '{"dims": 1, "resolu\\u0074ions": [2], "mass": [true, 0.5]}',
                ": mass must be JSON numbers, not true or false",
            ),
            (
                '{"dims": 3, "dims": 1, "resolutions": [2], "mass": [0.5, 0.5]}',
                " is not a copula file: key 'dims' given more than once",
            ),
            (
                '{"dims": 1, "d\\u0069ms": 1, "resolutions": [2], "mass": [0.5, 0.5]}',
                " is not a copula file: key 'dims' given more than once",
            ),
            (
                '{"dims": 1, "resolutions": [2], "resolu\\u0074ions": [2], "mass": [0.5, 0.5]}',
                " is not a copula file: key 'resolutions' given more than once",
            ),
            (
                '{"dims": 1, "resolutions": [2], "resolutions": [2], "mass": [0.5, 0.5]}',
                " is not a copula file: key 'resolutions' given more than once",
            ),
            (
                '{"dims": 1, "resolutions": [2], "mass": [0.5, 0.5], "mass": [0.5, 0.5]}',
                " is not a copula file: key 'mass' given more than once",
            ),
            (
                '{"dims": 1, "resolutions": [2], "mass": [0.5, 0.5], "note": ["mass"]}',
                " is not a copula file: it holds 4 '[' and '{' bytes",
            ),
            ('{"dims": 1, "resolutions": [1], "mass": [null]}', ": mass must be a flat list of JSON numbers"),
            ('{"dims": 1, "resolutions": [1], "mass": 1.0}', ": mass must be a flat list of JSON numbers"),
            ('{"dims": 1, "resolutions": [0], "mass": []}', ": expected an integer resolution >= 1, got 0"),
            ('{"dims": 0, "resolutions": [1], "mass": [1]}', ": dims 0 does not match 1 resolutions"),
            ('{"dims": 2, "resolutions": [1], "mass": [1]}', ": dims 2 does not match 1 resolutions"),
        ],
    )
    def test_a_file_outside_the_schema_is_refused_and_named(self, tmp_path, text, detail):
        path = tmp_path / "cop.json"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match=self.refusal(path, detail)):
            load_copula(path)

    def test_keys_spelled_with_escapes_load(self, tmp_path):
        path = tmp_path / "cop.json"
        path.write_text('{"d\\u0069ms": 1, "resolu\\u0074ions": [2], "\\u006dass": [0.5, 0.5]}')
        assert load_copula(path).cell_mass.tobytes() == np.array([0.5, 0.5]).tobytes()

    def test_integer_masses_load_as_floats(self, tmp_path):
        path = tmp_path / "cop.json"
        path.write_text('{"dims": 2, "resolutions": [1, 1], "mass": [1]}')
        assert load_copula(path).cell_mass.tobytes() == np.array([1.0]).tobytes()

    def test_every_truncation_of_a_saved_file_is_refused(self, tmp_path):
        path = tmp_path / "cop.json"
        save_copula(comonotone_copula(2, 2), path)
        data = path.read_bytes()
        for end in range(len(data)):
            path.write_bytes(data[:end])
            with pytest.raises(InvalidArgumentError):
                load_copula(path)


def test_mass_is_immutable():
    cop = independence_copula((2, 2))
    with pytest.raises(ValueError):
        cop.mass[0] = 0.5
