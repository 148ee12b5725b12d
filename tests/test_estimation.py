import csv
import tempfile
from pathlib import Path

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


@st.composite
def rank_samples(draw, non_finite=True):
    """Up to 300 rows and 4 columns, each without ties, rounded, of 5 values,
    constant or of signed zeros, with up to two non-finite cells if asked."""
    n = draw(st.integers(2, 300))
    dims = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((n, dims))
    for j in range(dims):
        kind = draw(st.sampled_from(["distinct", "rounded", "valued", "constant", "zeros"]))
        if kind == "rounded":
            data[:, j] = np.round(data[:, j] * 2.0)
        elif kind == "valued":
            data[:, j] = rng.integers(0, 5, size=n)
        elif kind == "constant":
            data[:, j] = 1.5
        elif kind == "zeros":
            data[:, j] = rng.choice([0.0, -0.0, 1.0], size=n)
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
    """Row-by-row reader that ``read_csv`` replaced; the fast path must agree with it."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise InvalidDataError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise InsufficientDataError(f"{path} is empty")
    header = None
    if any(not _is_float(tok) for tok in rows[0]):
        header = [tok.strip() for tok in rows[0]]
        rows = rows[1:]
    if not rows:
        raise InsufficientDataError(f"{path} has a header but no data rows")
    width = len(rows[0])
    names = header if header is not None else [str(j) for j in range(width)]

    sel = list(range(width))
    if columns is not None:
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
    "underscore digits, selected": ("a,b,c\n1,2,3\n4,1_000,6\n", ["b", "a"]),
    "underscore digits, unselected": ("a,b,c\n1,2,3\n4,1_000,6\n", ["c", "a"]),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_INPUTS))
def test_read_csv_matches_row_by_row_reference(tmp_path, name):
    text, columns = DIFFERENTIAL_INPUTS[name]
    path = tmp_path / "d.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert_same_as_reference(path, columns)


@pytest.mark.parametrize(
    "text",
    [
        '"a","b"\n"1","2"\n"3","4"\n',
        '"1","2"\n"3","4"\n',
        "\na,b\n1,2\n3,4\n",
        '\n\n"a","b"\n\n1,2\n3,"4"\n',
        "\n\n1,2\n3,4\n",
    ],
    ids=["quoted", "quoted headerless", "blank-led", "blank-led quoted", "blank-led headerless"],
)
def test_quoted_and_blank_led_files_never_reach_the_row_loop(tmp_path, monkeypatch, text):
    def refuse(*args):
        raise AssertionError("np.loadtxt should have read this file")

    monkeypatch.setattr(estimation, "_float_rows", refuse)
    path = tmp_path / "d.csv"
    path.write_text(text)
    data, _ = read_csv(path)
    assert data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


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

    def cell(token):
        if quoting and draw(st.booleans()):
            token = f'"{token}"'
        return draw(_SPACES) + token + draw(_SPACES)

    lines = []
    if draw(st.booleans()):
        lines.append(",".join(cell(f"c{j}") for j in range(cols)))
    for _ in range(rows):
        lines.append(",".join(cell(fmt(draw(_NUMBERS))) for _ in range(cols)))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(text=_csv_text())
def test_read_csv_fuzz_matches_row_by_row_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_as_reference(path)
