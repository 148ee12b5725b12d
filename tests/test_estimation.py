import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from copdep import (
    GroupSplit,
    InsufficientDataError,
    InvalidArgumentError,
    InvalidDataError,
    PseudoObservations,
    ResolutionPolicy,
    SynthModel,
    choose_resolution,
    fit_checkerboard,
    generate,
    make_rng,
    pseudo_observations,
    read_csv,
    tau_quadratic,
)
from copdep import estimation
from copdep.estimation import MAX_BOX_PARTS


class TestPseudoObservations:
    def test_rank_arithmetic(self):
        obs = pseudo_observations(np.array([[10.0], [30.0], [20.0]]))
        assert np.allclose(obs.values[:, 0], [1 / 6, 5 / 6, 3 / 6])

    def test_strictly_increasing_transform_invariant(self, rng):
        data = rng.random((50, 3))
        transformed = np.column_stack(
            [np.exp(data[:, 0]), data[:, 1] ** 3, 10.0 * data[:, 2] - 4.0]
        )
        assert np.array_equal(
            pseudo_observations(data).values, pseudo_observations(transformed).values
        )

    def test_tie_broken_by_row_order(self):
        # tied rows share the interval [0, 2/3) and its mid-rank
        with pytest.warns(RuntimeWarning, match="share one rank interval"):
            obs = pseudo_observations(np.array([[1.0], [1.0], [2.0]]))
        assert np.allclose(obs.values[:, 0], [1 / 3, 1 / 3, 5 / 6])
        assert obs.tie_counts == (1,)

    def test_ties_above_insertion_sort_size_match_stable_reference(self, rng):
        n = 10_000
        tied = rng.integers(1, 51, size=n).astype(np.float64)
        tied[[17, 6421]] = [0.0, -0.0]
        distinct = rng.random(n)
        with pytest.warns(RuntimeWarning):
            obs = pseudo_observations(np.column_stack([tied, distinct]))
        for j, col in enumerate((tied, distinct)):
            expected = (rankdata(col, method="average") - 0.5) / n
            assert obs.values[:, j].tobytes() == expected.tobytes()
            assert obs.tie_counts[j] == n - np.unique(col).size
        assert obs.tie_counts[0] == n - 51

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientDataError):
            pseudo_observations(np.array([[1.0, 2.0]]))

    def test_nan_names_column(self):
        data = np.ones((4, 3))
        data[2, 1] = np.nan
        with pytest.raises(InvalidDataError) as err:
            pseudo_observations(data)
        assert err.value.column == 1

    def test_values_strictly_inside_unit_interval(self, rng):
        obs = pseudo_observations(rng.random((30, 2)))
        assert obs.values.min() > 0.0
        assert obs.values.max() < 1.0

    def test_ranking_copies_and_leaves_the_callers_array_writeable(self):
        given = np.array([[0.25, 0.75], [0.75, 0.25]])
        obs = pseudo_observations(given)
        assert given.flags.writeable
        assert not obs.values.flags.writeable and not obs.intervals.flags.writeable
        given[0, 0] = 1.0
        assert obs.values[0, 0] == 0.25

    def test_tied_column_shares_one_interval(self):
        data = np.column_stack([[1.0, 2.0, 3.0, 4.0], [0.1, 0.1, 0.9, 0.9]])
        with pytest.warns(RuntimeWarning, match="share one rank interval"):
            obs = pseudo_observations(data)
        assert np.array_equal(obs.intervals[1], [[0, 0, 2, 2], [2, 2, 4, 4]])
        assert obs.tie_counts == (0, 2)

    def test_constructor_refused_in_favour_of_pseudo_observations(self):
        values = np.column_stack([[0.125, 0.375, 0.625, 0.875], [0.25, 0.25, 0.75, 0.75]])
        with pytest.raises(InvalidArgumentError, match=r"pseudo_observations\(data\)"):
            PseudoObservations(values, (0, 2))


class TestChooseResolution:
    def test_automatic_20000_rows_3d(self):
        policy = ResolutionPolicy(mode="automatic")
        assert choose_resolution(20000, 3, policy) == (11, 11, 11)

    def test_automatic_100_rows_2d(self):
        policy = ResolutionPolicy(mode="automatic")
        assert choose_resolution(100, 2, policy) == (4, 4)

    def test_fixed(self):
        policy = ResolutionPolicy(mode="fixed", fixed_m=32)
        assert choose_resolution(500, 3, policy) == (32, 32, 32)

    def test_clamped_to_min(self):
        assert choose_resolution(10, 4, ResolutionPolicy()) == (2, 2, 2, 2)

    def test_policy_validation(self):
        with pytest.raises(InvalidArgumentError):
            ResolutionPolicy(mode="fixed")
        with pytest.raises(InvalidArgumentError):
            ResolutionPolicy(max_m=1)

    def test_fixed_m_rejected_in_automatic_mode(self):
        # it would be ignored: the automatic rule gives (10, 10) for 1000 rows
        with pytest.raises(InvalidArgumentError, match="fixed_m"):
            ResolutionPolicy(mode="automatic", fixed_m=8)


class TestFitCheckerboard:
    def test_perfect_diagonal(self):
        obs = pseudo_observations(np.array([[1.0, 1.0], [2, 2], [3, 3], [4, 4]]))
        cop = fit_checkerboard(obs, (2, 2))
        assert np.allclose(cop.mass.reshape(cop.resolutions), [[0.5, 0.0], [0.0, 0.5]])

    def test_direct_counting(self):
        # pseudo-observations (1/8,5/8),(3/8,1/8),(5/8,7/8),(7/8,3/8) at m=2
        data = np.array([[1.0, 7.0], [2.0, 5.0], [3.0, 8.0], [4.0, 6.0]])
        obs = pseudo_observations(data)
        assert np.allclose(
            np.sort(obs.values[:, 0]), [1 / 8, 3 / 8, 5 / 8, 7 / 8]
        )
        cop = fit_checkerboard(obs, (2, 2))
        assert np.allclose(cop.mass, 0.25)

    def test_divisible_resolution_gives_exact_marginals_before_rebalance(self, rng):
        n, m = 240, 8
        obs = pseudo_observations(rng.random((n, 2)))
        idx = np.minimum((obs.values * m).astype(int), m - 1)
        counts = np.zeros((m, m))
        np.add.at(counts, (idx[:, 0], idx[:, 1]), 1)
        assert np.array_equal(counts.sum(axis=1), np.full(m, n // m))
        assert np.array_equal(counts.sum(axis=0), np.full(m, n // m))
        # no box crosses a cell edge, so the fit is the bin counts over N
        cop = fit_checkerboard(obs, (m, m))
        assert np.array_equal(cop.cell_index, np.flatnonzero(counts))
        assert cop.cell_mass.tobytes() == (counts.ravel()[cop.cell_index] / n).tobytes()

    def test_output_validates(self, rng):
        obs = pseudo_observations(rng.random((1000, 3)))
        cop = fit_checkerboard(obs, (5, 5, 5))
        assert cop.validate().passed

    def test_resolution_cap(self, rng):
        obs = pseudo_observations(rng.random((100, 2)))
        with pytest.raises(InvalidArgumentError):
            fit_checkerboard(obs, (256, 256))

    def test_grid_beyond_an_int64_flat_index_rejected(self, rng):
        obs = pseudo_observations(rng.random((300, 9)))
        with pytest.raises(InvalidArgumentError, match="2\\*\\*63"):
            fit_checkerboard(obs, (128,) * 9)

    def test_eight_dimensions_at_128_fit_from_200_rows(self):
        # 2**56 cells: a dense mass array would take 512 PiB.  128 does not
        # divide 200, so the boxes of 120 rows each split over 2**8 cells.
        data = generate(SynthModel("comonotone", dimension=8, seed=4), 200)
        cop = fit_checkerboard(pseudo_observations(data), (128,) * 8)
        assert cop.cell_index.size == 30_608
        split = GroupSplit(tuple(range(7)), (7,))
        assert tau_quadratic(cop, split).value == pytest.approx(0.9887902724499685, abs=1e-12)

    @pytest.mark.parametrize("n, m, dims", [(200, 8, 3), (96, 32, 4), (200, 8, 8)])
    def test_complete_dependence_reads_the_grid_maximum_when_m_divides_n(self, n, m, dims):
        data = generate(SynthModel("comonotone", dimension=dims, seed=4), n)
        cop = fit_checkerboard(pseudo_observations(data), (m,) * dims)
        assert cop.cell_index.size == m
        split = GroupSplit(tuple(range(dims - 1)), (dims - 1,))
        assert tau_quadratic(cop, split).value == pytest.approx(1 - 1 / m, abs=1e-15)

    @pytest.mark.parametrize("n, m", [(97, 50), (1000, 30), (20_000, 31)])
    def test_slabs_exact_when_m_does_not_divide_n(self, n, m):
        # at 97 rows on 50**3 no weights on the binned cells make every
        # slab 1/50; the rank boxes do
        obs = pseudo_observations(make_rng(0).random((n, 3)))
        report = fit_checkerboard(obs, (m, m, m)).validate()
        assert report.passed
        assert report.worst_marginal_error < 1e-15

    def test_boxes_too_fine_to_split_rejected(self, rng):
        # binary columns: every box meets 64**8 cells of the 128**8 grid
        data = rng.integers(0, 2, size=(200, 8)).astype(np.float64)
        with pytest.warns(RuntimeWarning, match="tied"):
            obs = pseudo_observations(data)
        with pytest.raises(InvalidArgumentError, match="lower resolution"):
            fit_checkerboard(obs, (128,) * 8)
        assert fit_checkerboard(obs, (2,) * 8).validate().passed

    @pytest.mark.filterwarnings("ignore:.*tied value")
    @pytest.mark.parametrize("tied", [False, True])
    def test_fit_in_blocks_of_rows_is_bit_identical(self, monkeypatch, tied):
        # 1,000 rows in blocks of 7, m = 30 not dividing N: the crossing rows
        # and the crossing intervals' cells come from several blocks
        data = make_rng(12).random((1_000, 3))
        if tied:
            data[:, 0] = np.round(data[:, 0] * 4)
            data[:, 2] = np.round(data[:, 2] * 40)
        obs = pseudo_observations(data)
        whole = fit_checkerboard(obs, (30, 7, 30))
        monkeypatch.setattr(estimation, "_FIT_BLOCK", 7)
        blocks = fit_checkerboard(obs, (30, 7, 30))
        assert blocks.cell_index.tobytes() == whole.cell_index.tobytes()
        assert blocks.cell_mass.tobytes() == whole.cell_mass.tobytes()

    def test_tie_free_fit_beyond_int32_cell_arithmetic(self):
        # lo m reaches 1e5 * 42950 > 2**32: int32 products would wrap
        obs = pseudo_observations(make_rng(8).random((100_000, 2)))
        cop = fit_checkerboard(obs, (42950, 42950), max_resolution=42950)
        assert cop.validate().passed

    def test_two_to_the_31_rows_rejected(self):
        # a broadcast view: the limit is checked before anything is allocated
        with pytest.raises(InvalidArgumentError, match="2\\*\\*31"):
            pseudo_observations(np.broadcast_to(0.0, (2**31, 2)))

    def test_split_box_keys_beyond_int64_rejected(self, rng):
        # 3 rows on 2 cells per axis: one rank per axis crosses the edge, and
        # 62 axes leave one bit of an int64 key for the first cells
        obs = pseudo_observations(rng.random((3, 62)))
        with pytest.raises(InvalidArgumentError, match="int64 key"):
            fit_checkerboard(obs, (2,) * 62)

    def test_conditioning_column_permutation_gives_relabeled_grid(self, rng):
        data = rng.random((400, 3))
        cop = fit_checkerboard(pseudo_observations(data), (4, 4, 4))
        swapped = fit_checkerboard(pseudo_observations(data[:, [1, 0, 2]]), (4, 4, 4))
        grid = cop.mass.reshape(cop.resolutions)
        assert np.array_equal(swapped.mass.reshape(grid.shape), np.transpose(grid, (1, 0, 2)))


@st.composite
def shuffled_samples(draw):
    """A sample with ties (rounded columns, or columns of 2 or 5 values),
    resolutions that need not divide N, and a row order."""
    n = draw(st.integers(2, 400))
    dims = draw(st.integers(2, 4))
    res = tuple(draw(st.lists(st.integers(1, 16), min_size=dims, max_size=dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((n, dims))
    for j in range(dims):
        ties = draw(st.sampled_from([None, 0.5, 2.0, 8.0, 2, 5]))  # a scale, or a value count
        if isinstance(ties, float):
            data[:, j] = np.round(data[:, j] * ties)
        elif ties is not None:
            data[:, j] = rng.integers(0, ties, size=n)
    return data, res, rng.permutation(n)


@settings(max_examples=150, deadline=None)
@given(shuffled_samples())
@pytest.mark.filterwarnings("ignore:.*tied value")
def test_fit_is_bit_identical_under_row_permutation(case):
    data, res, perm = case
    cop = fit_checkerboard(pseudo_observations(data), res)
    shuffled = fit_checkerboard(pseudo_observations(data[perm]), res)
    assert shuffled.cell_index.tobytes() == cop.cell_index.tobytes()
    assert shuffled.cell_mass.tobytes() == cop.cell_mass.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 3000),
    dims=st.integers(2, 8),
    fixed=st.one_of(st.none(), st.integers(2, 128)),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_chosen_or_fixed_resolution_fits(n, dims, fixed, seed):
    # m > N spreads each box over about (m / N) ** d cells; the fuzz keeps
    # that below MAX_BOX_PARTS, where the exact fit is storable.
    policy = ResolutionPolicy() if fixed is None else ResolutionPolicy("fixed", fixed)
    res = choose_resolution(n, dims, policy)
    assume(n * (res[0] / n + 2) ** dims < MAX_BOX_PARTS)
    data = np.random.default_rng(seed).standard_normal((n, dims))
    report = fit_checkerboard(pseudo_observations(data), res).validate()
    assert report.passed, report.summary()


def reference_pseudo_observations(data):
    """Row-major ranking that ``pseudo_observations`` replaced: the values and
    the tie counts, or InvalidDataError naming the first non-finite column."""
    arr = np.asarray(data, dtype=np.float64)
    n, d = arr.shape
    bad = ~np.isfinite(arr)
    if bad.any():
        col = int(np.argwhere(bad.any(axis=0)).ravel()[0])
        raise InvalidDataError(f"non-finite value in column {col}", column=col)
    out = np.empty_like(arr)
    ties = []
    for j in range(d):
        col = arr[:, j]
        order = np.argsort(col)
        ordered = col[order]
        same = ordered[1:] == ordered[:-1]
        twice_mid = np.arange(1, 2 * n, 2)
        if same.any():
            lo = np.flatnonzero(np.r_[True, ~same])
            hi = np.r_[lo[1:], n]
            twice_mid = np.repeat(lo + hi, hi - lo)
        out[order, j] = twice_mid / (2 * n)
        ties.append(int(np.count_nonzero(same)))
    return out, tuple(ties)


EPS = np.finfo(np.float64).eps
DBL_MAX = np.finfo(np.float64).max
RANK_KINDS = [
    "distinct", "rounded", "valued", "constant", "zeros", "ulps", "ulps_outliers",
    "ulp_patch", "subnormals", "extremes", "signed_ulps",
]


@st.composite
def rank_samples(draw, non_finite=True):
    """Up to 1,500 rows and 4 columns, each of a kind in ``RANK_KINDS``, with
    up to two non-finite cells if asked.  Past 1,024 rows the rank keys
    spend 11 bits on the row; ulp-close values share a key prefix."""
    n = draw(st.integers(2, 1500))
    dims = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((n, dims))
    for j in range(dims):
        kind = draw(st.sampled_from(RANK_KINDS))
        col = data[:, j]
        if kind == "rounded":
            col[:] = np.round(col * 2.0)
        elif kind == "valued":
            col[:] = rng.integers(0, 5, size=n)
        elif kind == "constant":
            col[:] = 1.5
        elif kind == "zeros":
            col[:] = rng.choice([0.0, -0.0, 1.0], size=n)
        elif kind.startswith("ulps"):  # 1 + k eps, ties among them
            col[:] = 1.0 + rng.integers(0, n, size=n) * EPS
            if kind == "ulps_outliers":
                col[rng.integers(0, n, size=3)] = [1e300, -1e300, 0.0]
        elif kind == "ulp_patch":  # a few spread rows ulps apart, in random order
            rows = rng.integers(0, n, size=n // 40 + 1)
            col[rows] = 0.5 + rng.integers(0, 300, size=rows.size) * EPS / 2
        elif kind == "subnormals":
            col[:] = rng.integers(-n, n, size=n) * 5e-324
        elif kind == "extremes":
            col[rng.integers(0, n, size=4)] = [DBL_MAX, -DBL_MAX, DBL_MAX, -DBL_MAX]
        elif kind == "signed_ulps":
            col[:] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323], size=n)
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, dims - 1))
    bad = st.tuples(cells, st.sampled_from([np.nan, np.inf, -np.inf]))
    for (i, j), value in draw(st.lists(bad, max_size=2 if non_finite else 0)):
        data[i, j] = value
    return data


@settings(max_examples=300, deadline=None)
@given(rank_samples())
@pytest.mark.filterwarnings("ignore:.*tied value")
def test_ranks_match_the_row_major_reference(data):
    try:
        expected, ties = reference_pseudo_observations(data)
    except InvalidDataError as exc:
        with pytest.raises(InvalidDataError) as err:
            pseudo_observations(data)
        assert err.value.column == exc.column
        return
    obs = pseudo_observations(data)
    assert obs.values.shape == data.shape
    assert obs.values.tobytes() == expected.tobytes()
    assert obs.tie_counts == ties
    assert all(obs.values[:, j].flags.c_contiguous for j in range(obs.n_cols))


@settings(max_examples=200, deadline=None)
@given(rank_samples(non_finite=False))
@pytest.mark.filterwarnings("ignore:.*tied value")
def test_ranking_the_mid_ranks_again_round_trips(data):
    obs = pseudo_observations(data)
    again = pseudo_observations(obs.values)
    assert again.intervals.tobytes() == obs.intervals.tobytes()
    assert again.intervals.shape == obs.intervals.shape
    assert again.tie_counts == obs.tie_counts
    assert again.values.tobytes() == obs.values.tobytes()
    assert obs.values is not obs.values and not obs.values.flags.writeable


def _ranked_with_argsort_sizes(column):
    """The ranking of one column, checked against the reference, and the
    length of each array that np.argsort sorted on the way."""
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        obs = pseudo_observations(column[:, None])
    expected, ties = reference_pseudo_observations(column[:, None])
    assert obs.values.tobytes() == expected.tobytes()
    assert obs.tie_counts == ties
    return [call.args[0].size for call in argsort.call_args_list]


def test_a_spread_column_is_ranked_by_its_keys_alone():
    assert _ranked_with_argsort_sizes(np.random.default_rng(38).standard_normal(200_000)) == []


@pytest.mark.filterwarnings("ignore:.*tied value")
def test_ulp_neighbours_among_spread_values_are_sorted_again_in_their_runs():
    # A key prefix spans 2**18 ulps here, so the 2,000 rows within 500 ulps
    # of 0.5, tied and in random order, share one or two prefixes.
    n = 200_000
    rng = np.random.default_rng(38)
    column = rng.standard_normal(n)
    column[rng.choice(n, 2000, replace=False)] = 0.5 + rng.integers(0, 500, 2000) * EPS / 2
    assert _ranked_with_argsort_sizes(column) == [2000]


def test_a_cluster_beside_far_outliers_falls_back_to_argsort():
    # With +-1e300 in the column, 1 + k eps in random order shares a few
    # prefixes, out of order in every run: past n / 16 the column takes argsort.
    n = 200_000
    column = 1.0 + np.random.default_rng(38).permutation(n) * EPS
    column[:3] = [1e300, -1e300, 0.0]
    assert _ranked_with_argsort_sizes(column) == [n]


class TestReadCsv:
    def test_header_detection_and_names(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        data, names = read_csv(path)
        assert names == ["a", "b", "c"]
        assert data.shape == (2, 3)

    def test_headerless(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        data, names = read_csv(path)
        assert names == ["0", "1"]
        assert np.allclose(data, [[1, 2], [3, 4]])

    def test_select_by_name_and_index(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        data, names = read_csv(path, ["c", "0"])
        assert names == ["c", "a"]
        assert np.allclose(data, [[3, 1], [6, 4]])

    def test_every_column_in_order_is_the_whole_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        data, names = read_csv(path)
        same, same_names = read_csv(path, ["a", "1", 2])
        assert names == same_names == ["a", "b", "c"]
        assert np.array_equal(same, data)
        subset, subset_names = read_csv(path, ["c", "a"])
        assert subset_names == ["c", "a"]
        assert np.array_equal(subset, data[:, [2, 0]])
        assert subset.base is None  # a separate array, not a view of the parse

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        with pytest.raises(InsufficientDataError):
            read_csv(path)

    def test_non_numeric_cell_names_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(InvalidDataError) as err:
            read_csv(path)
        assert err.value.column == "b"

    def test_unknown_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidArgumentError):
            read_csv(path, ["missing"])

    @pytest.mark.parametrize(
        "text", ["a,b,c\n1,2,3\n4,5,6\n", 'a,b,c\n"1",2,3\n4,5,6\n'], ids=["loadtxt", "rows"]
    )
    def test_numpy_integer_column_indices(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        data, names = read_csv(path, [np.int64(2), np.int32(0)])
        assert names == ["c", "a"]
        assert data.tolist() == [[3.0, 1.0], [6.0, 4.0]]

    @pytest.mark.parametrize("columns", ["ab", 3], ids=repr)
    def test_columns_that_are_not_a_sequence_rejected(self, tmp_path, columns):
        # a string would be read character by character: columns a and b, not ab
        path = tmp_path / "d.csv"
        path.write_text("a,b,ab\n1,2,3\n4,5,6\n")
        with pytest.raises(InvalidArgumentError, match="sequence of columns"):
            read_csv(path, columns)

    def test_nan_token_flows_to_pseudo_observations(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,nan\n2,3\n")
        data, _ = read_csv(path)
        with pytest.raises(InvalidDataError) as err:
            pseudo_observations(data)
        assert err.value.column == 1

    @pytest.mark.parametrize(
        "text", ["a,b\n1,2,3\n4,5,6\n", "a,b,c\n1,2\n3,4\n", 'a,b\n"1",2,3\n']
    )
    def test_header_width_mismatch(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(InvalidDataError) as err:
            read_csv(path)
        header, data = (len(line.split(",")) for line in text.splitlines()[:2])
        assert str(err.value) == f"header has {header} fields but data rows have {data}"


def reference_read_csv(path, columns=None):
    """Row-by-row reader that ``read_csv`` replaced; the fast path must agree
    with it.  The columns are checked once the header and the first data row
    are read, before any other row."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = filter(None, csv.reader(fh))
            first = next(rows, None)
            if first is None:
                raise InsufficientDataError(f"{path} is empty")
            header = None
            if any(not _is_float(tok) for tok in first):
                header = [tok.strip() for tok in first]
                first = next(rows, None)
            if first is None:
                raise InsufficientDataError(f"{path} has a header but no data rows")
            width = len(first)
            sel = _reference_columns(columns, header, width)
            rows = [first, *rows]
    except UnicodeDecodeError as exc:
        raise InvalidDataError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise InvalidDataError(f"{path} is not valid CSV: {exc}") from exc

    names = header if header is not None else [str(j) for j in range(width)]
    data = np.empty((len(rows), len(sel)), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InvalidDataError(f"row {i} has {len(row)} fields, expected {width}")
        for k, j in enumerate(sel):
            try:
                data[i, k] = float(row[j])
            except ValueError as exc:
                raise InvalidDataError(
                    f"non-numeric value {row[j]!r} at row {i}, column {names[j]}",
                    column=names[j],
                ) from exc
    return data, [names[j] for j in sel]


def _reference_columns(columns, header, width):
    """0-based indices of the requested columns (all of them when None)."""
    if columns is None:
        return list(range(width))
    sel = []
    for c in columns:
        if isinstance(c, int) or (isinstance(c, str) and c.strip().lstrip("-").isdigit()):
            j = int(c)
        elif header is not None and c in header:
            j = header.index(c)
        else:
            raise InvalidArgumentError(f"unknown column {c!r} (header: {header})")
        if not 0 <= j < width:
            raise InvalidArgumentError(f"column index {j} out of range 0..{width - 1}")
        sel.append(j)
    return sel


def _is_float(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def _outcome(reader, path, columns):
    try:
        data, names = reader(path, columns)
    except Exception as exc:  # the outcome under comparison includes the error
        return type(exc), str(exc)
    return data.shape, data.dtype, data.flags.c_contiguous, data.tobytes(), names


def assert_same_as_reference(path, columns=None):
    assert _outcome(read_csv, path, columns) == _outcome(reference_read_csv, path, columns)


DIFFERENTIAL_INPUTS = {
    "plain": ("a,b\n1,2\n3,4\n", None),
    "headerless": ("1,2\n3,4\n", None),
    "leading blank line": ("\na,b\n1,2\n3,4\n", None),
    "blank line mid-file": ("a,b\n1,2\n\n3,4\n", None),
    "whitespace-only line": ("a,b\n1,2\n   \n3,4\n", None),
    "whitespace-only line, one column": ("a\n1\n \n3\n", None),
    "quoted fields": ('"a","b"\n"1",2\n3,"4"\n', None),
    "underscore digits": ("a,b\n1_000,2\n3,4\n", None),
    "full-width digit": ("a,b\n\uff11,2\n3,4\n", None),
    "hash line": ("a,b\n# note\n1,2\n3,4\n", None),
    "hash header": ("# a,b\n1,2\n3,4\n", None),
    "trailing comma": ("a,b,\n1,2,\n3,4,\n", None),
    "ragged row": ("a,b\n1,2\n3\n", None),
    "CRLF": ("a,b\r\n1,2\r\n3,4\r\n", None),
    "CR only": ("a,b\r1,2\r3,4\r", None),
    "BOM header": ("\ufeffa,b\n1,2\n3,4\n", None),
    "BOM numeric first row": ("\ufeff1,2\n3,4\n5,6\n", None),
    "nan and infinities": ("a,b,c\nnan,-nan,Infinity\n-inf,+NaN,1e400\n", None),
    "single column": ("a\n1\n2\n3\n", None),
    "single row": ("1,2,3\n", None),
    "header only": ("a,b\n", None),
    "blank lines only": ("\n\n", None),
    "empty": ("", None),
    "spaces around values": ("a , b\n 1, 2 \n3 ,4\n", None),
    "non-numeric cell": ("a,b\n1,2\n3,oops\n", None),
    "non-numeric unselected column": ("a,b\nx,1\ny,2\n", ["b"]),
    "select by name and index": ("a,b,c\n1,2,3\n4,5,6\n", ["c", "0"]),
    "unknown column": ("a,b\n1,2\n", ["missing"]),
    "index out of range": ("a,b\n1,2\n", ["5"]),
    "invalid utf-8": (b"a,b\n1,\xff\n", None),
    "invalid utf-8 past the first block": (b"a,b\n" + b"1,2\n" * 3000 + b"3,\xff\n", None),
    "quoted header after two blank lines": ('\n\n"a","b"\n1,2\n3,4\n', None),
    "fully quoted numeric file": ('"a","b"\n"1","2"\n"3","4"\n', None),
    "quoted field holding a comma": ('a,b\n"1,5",2\n3,4\n', None),
    "numeric first row after blank lines": ("\n\n1,2\n3,4\n", None),
    "quoted first data row over two lines": ('a,b\n"1\n",2\n3,4\n', None),
    "CR inside a row": ("a,b\n1,\r2\n3,4\n", None),
    "underscore digits, selected": ("a,b,c\n1,2,3\n4,1_000,6\n", ["b", "a"]),
    "underscore digits, unselected": ("a,b,c\n1,2,3\n4,1_000,6\n", ["c", "a"]),
    "quoted headerless": ('"1","2"\n"3","4"\n', None),
    "quoted header after blank lines, blank line after it": ('\n\n"a","b"\n\n1,2\n3,"4"\n', None),
    "quoted line breaks": ('a,b\n"1\n",2\n"3\r\n",4\r\n', None),
    "non-numeric cell before invalid utf-8": (b"a,b\n1,x\n" + b"1,2\n" * 3000 + b"3,\xff\n", None),
    "ragged row before invalid utf-8": (b"a,b\n1,2,3\n" + b"1,2\n" * 3000 + b"3,\xff\n", None),
    "field past csv's limit before invalid utf-8": (
        b"a,b\n1,2\n1," + b"1" * (2**17 + 1) + b"\n3,\xff\n",
        None,
    ),
    "stray quote ending a row": ('a,b\n1,2"\n"3,4\n5,6\n', None),
    "stray quote inside a field": ('a,b\n1,2\n3,4"x\n5,6\n7,8\n', None),
    "text after a closing quote": ('a,b\n1,"2"x\n3,4\n', None),
    "escaped quote that leaves a field open": ('a,b\n1,2\n"3"",4\n5,6\n', None),
    "stray quote before a quoted line break": ('a,b\nx",1\n"y,2\n",3\n4,5\n', ["b"]),
    "quoted line break mid-file": ('a,b\n1,2\n3,"4\n5",6\n7,8\n', None),
    "unterminated quote on the last line": ('a,b\n1,2\n3,4\n5,"6\n', None),
    "unterminated quote, no last line end": ('a,b\n1,2\n5,"6x', None),
    "non-numeric cell past the first 256 KB": (b"a,b\n" + b"1,2\n" * 66000 + b"3,x\n1,2\n", None),
    "ragged row past the first 256 KB": (b"a,b\n" + b"1,2\n" * 66000 + b"3\n1,2\n", None),
    "field past csv's limit": ("a,b\n1,2\n3,4\n1," + "1" * (2**17 + 1) + "\n5,6\n", None),
    "unknown column before invalid utf-8 past the first 8 KB": (
        b"a,b\n" + b"1,2\n" * 3000 + b"3,\xff\n",
        ["c"],
    ),
}


# Blocks of a few bytes split rows, \r\n pairs and quoted fields across reads.
SMALL_BLOCKS = [1, 3, 7]
BLOCKS = [estimation._CSV_BLOCK, *SMALL_BLOCKS]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_INPUTS))
def test_read_csv_matches_row_by_row_reference(tmp_path, monkeypatch, name, block):
    monkeypatch.setattr(estimation, "_CSV_BLOCK", block)
    text, columns = DIFFERENTIAL_INPUTS[name]
    path = tmp_path / "d.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert_same_as_reference(path, columns)


_SPACES = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u2003"])
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.floats(allow_nan=False, width=32),
    st.integers(-(10**6), 10**6),
    st.sampled_from([float("nan"), -0.0, 5e-324, 1.7976931348623157e308]),
)


@st.composite
def _csv_text(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 4))
    fmt = draw(st.sampled_from([repr, "{:.17g}".format, "{:.3e}".format, "{:f}".format]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quoting = draw(st.booleans())
    forms = ["plain", "quoted", "line break", "stray quote"] if quoting else ["plain"]

    def cell(token):
        form = draw(st.sampled_from(forms))
        if form == "line break":  # inside the quotes, so the row keeps its fields
            token = draw(_SPACES) + token + draw(_SPACES)
            end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
            return '"' + (end + token if draw(st.booleans()) else token + end) + '"'
        if form == "quoted":
            token = f'"{token}"'
        elif form == "stray quote":  # not first in its field, so it is text
            k = draw(st.integers(1, len(token)))
            token = token[:k] + '"' + token[k:]
        return draw(_SPACES) + token + draw(_SPACES)

    lines = []
    if draw(st.booleans()):
        lines.append(",".join(cell(f"c{j}") for j in range(cols)))
    for _ in range(rows):
        lines.append(",".join(cell(fmt(draw(_NUMBERS))) for _ in range(cols)))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=600, deadline=None)
@given(text=_csv_text(), block=st.sampled_from(BLOCKS))
def test_read_csv_fuzz_matches_row_by_row_reference(text, block):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(estimation, "_CSV_BLOCK", block):
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_as_reference(path)


def test_a_block_carries_only_its_open_row(tmp_path, monkeypatch):
    # a quoted line break in every row, so most blocks end inside a quoted
    # field, after a stray quote that csv.reader reads as text
    monkeypatch.setattr(estimation, "_CSV_BLOCK", 64)
    text = 'a,b\nx",0\n' + "".join(f'"{i}\n",{i}\n' for i in range(1, 2000))
    path = tmp_path / "d.csv"
    path.write_text(text)
    handed = []  # the characters of each text given to the row reader

    def float_rows(text, *args):
        handed.append(len(text))
        return real_float_rows(text, *args)

    real_float_rows = estimation._float_rows
    monkeypatch.setattr(estimation, "_float_rows", float_rows)
    data, names = read_csv(path, ["b"])
    assert names == ["b"] and data.ravel().tolist() == list(range(2000))
    # each block is read with at most the one row left open before it
    assert len(handed) > 100 and sum(handed) <= 1.5 * len(text)


def _many_blocks_csv(path, mixed, newline):
    """A 200,000-row, 3-column CSV of over 30 blocks that ends without a
    line end, and its parse by np.loadtxt.  ``mixed`` puts a quoted field, a
    ``+``-signed token, a blank line and an integer -0 in a few blocks, which
    the row reader reads instead of orjson."""
    rng = make_rng(41)
    sample = rng.standard_normal((200_000, 3))
    sample[::997, 1] = rng.integers(-3, 4, sample[::997, 1].size)  # integer tokens
    sample[5, 2] = 2.0**-1070  # a subnormal
    lines = [
        ",".join(str(int(v)) if v.is_integer() else repr(v) for v in row)
        for row in sample.tolist()
    ]
    if mixed:
        for i in range(1_000, 200_000, 40_000):
            lines[i] = '"' + lines[i].replace(",", '",', 1)
            lines[i + 1] = "+" + lines[i + 1].lstrip("-")
            lines[i + 2] = "-0," + lines[i + 2].split(",", 1)[1] + newline
    path.write_bytes(newline.join(["a,b,c", *lines]).encode())
    with path.open(newline=None) as fh:
        return np.loadtxt(fh, delimiter=",", skiprows=1, quotechar='"')


@pytest.mark.parametrize(
    "mixed, newline",
    [(False, "\n"), (False, "\r"), (True, "\n")],
    ids=["orjson", "orjson, lone CR line ends", "orjson and the row reader"],
)
def test_a_file_of_many_blocks_reads_as_loadtxt_does(tmp_path, monkeypatch, mixed, newline):
    path = tmp_path / "d.csv"
    expected = _many_blocks_csv(path, mixed, newline)
    assert path.stat().st_size > 30 * estimation._CSV_BLOCK
    assert not path.read_bytes().endswith(newline.encode())
    minus_zero = (expected[:, 0] == 0) & np.signbit(expected[:, 0])
    assert minus_zero.any() == mixed  # orjson would read -0 as +0.0
    refused = []  # the blocks that orjson refuses, which the row reader reads

    def json_rows(block, width):
        rows = real_json_rows(block, width)
        if rows is None:
            refused.append(block)
        return rows

    real_json_rows = estimation._json_rows
    monkeypatch.setattr(estimation, "_json_rows", json_rows)
    for columns, cols in [(None, [0, 1, 2]), (["c", "a"], [2, 0])]:
        want = np.ascontiguousarray(expected[:, cols])
        data, names = read_csv(path, columns)
        assert names == [["a", "b", "c"][j] for j in cols]
        assert data.shape == want.shape and data.flags.c_contiguous
        assert data.tobytes() == want.tobytes()
        slots, names = estimation._csv_slots(path, columns)
        assert slots.tobytes() == estimation._column_slots(want).tobytes()
    # 4 reads of ~35 blocks; each of the 5 edits meets one block, or two at an
    # edge: one block orjson refuses does not send the file to the row reader
    assert 20 <= len(refused) <= 40 if mixed else not refused


def _fast_read(token):
    """The bits the fast path reads ``token`` as, twice in a two-line block,
    or None where it refuses the block."""
    rows = estimation._json_rows(f"1,{token}\n{token},-0.5\n".encode(), 2)
    return None if rows is None else rows.tobytes()


def _float_bits(token):
    return np.array([[1.0, float(token)], [float(token), -0.5]]).tobytes()


_DIGITS = st.text("0123456789", min_size=1, max_size=40)


@st.composite
def _json_number(draw):
    """A token of JSON's number grammar, up to 40 digits before and after the point."""
    lead = draw(st.sampled_from("0123456789"))
    integer = lead + ("" if lead == "0" else draw(st.text("0123456789", max_size=39)))
    fraction = draw(st.just("") | _DIGITS.map(".{}".format))
    exponent = draw(
        st.just("")
        | st.builds(
            "{}{}{}".format,
            st.sampled_from("eE"),
            st.sampled_from(["", "+", "-"]),
            st.integers(0, 400).map(str) | st.text("0123456789", min_size=1, max_size=5),
        )
    )
    return draw(st.sampled_from(["", "-"])) + integer + fraction + exponent


@settings(max_examples=1000, deadline=None)
@given(
    token=_json_number()
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.integers(-(2**70), 2**70).map(str)
)
def test_every_token_the_fast_path_accepts_reads_as_float_does(token):
    bits = _fast_read(token)
    assume(bits is not None)
    assert bits == _float_bits(token)


@pytest.mark.parametrize(
    "token",
    [
        "-0e0",
        "-0.0",
        "4.9e-324",  # the least subnormal
        "2.2250738585072009e-308",  # the greatest subnormal
        "1e-400",  # below every subnormal: 0
        "9007199254740993",  # 2**53 + 1, not a float64
        "-9223372036854775809",  # one below the least int64
        "9223372036854775808",  # 2**63
        "18446744073709551615",  # 2**64 - 1
        "18446744073709551616",  # 2**64
        "123456789012345678901234567890123456789",
        "0.30000000000000004",  # 17 digits
        "1.0000000000000001110223024625156540423631668090820312500000001",  # just past a tie
        "1.0000000000000001110223024625156540423631668090820312500000000",  # on the tie: even
        "2.4703282292062327208828439643411068618252990130716238221279284e-324",
    ],
)
def test_tokens_the_fast_path_reads_as_float_does(token):
    assert _fast_read(token) == _float_bits(token)


def test_an_integer_minus_zero_keeps_its_sign(tmp_path):
    # orjson reads the integer -0 as +0.0, so its block goes to the row reader
    assert _fast_read("-0") in (None, _float_bits("-0"))
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,-0\n-0,2\n")
    data, _ = read_csv(path)
    assert np.signbit(data).tolist() == [[False, True], [True, False]]


@pytest.mark.parametrize("token", ["1e400", "-1e400", "+1", ".5", "5.", "00", "nan", "1_0", "0x10"])
def test_tokens_the_fast_path_refuses_read_as_before(tmp_path, token):
    assert _fast_read(token) is None
    path = tmp_path / "d.csv"
    path.write_text(f"a,b\n1,{token}\n{token},2\n3,4\n")
    assert_same_as_reference(path)
