"""Peak allocations of ranking, fitting and measuring.

A copula stores only its occupied cells, so no step may allocate an array
with one entry per grid cell.  At d=5, m=32 the grid has 33.5M cells
(256 MiB as float64); at 512^3 it has 134M (1 GiB).  Ranking sorts one
column of packed (value, row) keys at a time in place and writes the
column's intervals into its slot of the output, so beside the input and the
output it holds an int64 column of keys and a boolean column, and for a
tied column a half column of interval ends.  The CLI parses a CSV's columns
straight into that buffer, one block of about 256 KB at a time, so it never
holds a parsed matrix beside its ranks: reading, ranking and fitting peak
below 1.8 times the sample.  ``read_csv`` parses into a matrix of the
selected columns only, and a block that orjson refuses is read row by row
into that matrix, so the file's rows are never all held as strings.  A grid
that stores every cell is measured on a split in any axis order from at
most one more copy of its masses, never through a relabelled copula.
"""

import tracemalloc

import numpy as np
import pytest

from copdep import (
    GroupSplit,
    comonotone_copula,
    fit_checkerboard,
    group_tau,
    independence_copula,
    make_rng,
    mutual_information,
    pseudo_observations,
    renyi_alpha,
    renyi_limit,
    tau_alpha,
    tau_quadratic,
)
from copdep.cli import main
from copdep.estimation import read_csv
from copdep.generators import random_copula

MB = 2**20


def peak_bytes(fn):
    """Peak of memory traced while ``fn`` runs, above what was in use before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_fit_and_tau_at_32_to_the_5th_stay_small():
    rng = make_rng(7)
    z = rng.standard_normal((100_000, 5))
    z[:, 1:] = 0.5 * z[:, :1] + np.sqrt(0.75) * z[:, 1:]
    pseudo = pseudo_observations(z)
    result = {}

    def work():
        result["copula"] = fit_checkerboard(pseudo, (32,) * 5)
        result["tau"] = tau_quadratic(result["copula"], GroupSplit((0, 1, 2, 3), (4,))).value

    assert peak_bytes(work) < 128 * MB
    assert result["copula"].cell_index.size <= 100_000
    assert 0.0 < result["tau"] < 1.0


@pytest.fixture(scope="module")
def correlated_1e5x5():
    rng = make_rng(7)
    z = rng.standard_normal((100_000, 5))
    z[:, 1:] = 0.5 * z[:, :1] + np.sqrt(0.75) * z[:, 1:]
    return pseudo_observations(z)


@pytest.mark.parametrize(
    "measure",
    [tau_quadratic, lambda c, s: tau_alpha(c, s, 1.0), lambda c, s: renyi_alpha(c, s, 0.5), renyi_limit],
    ids=["tau_quadratic", "tau_alpha_1", "renyi_alpha_0.5", "renyi_limit"],
)
def test_measures_at_32_to_the_5th_hold_no_rows_times_m_array(correlated_1e5x5, measure):
    # 87k occupied conditioning cells times 32 target cells would be 22 MB
    # as float64; the stored cells are ~98k.
    copula = fit_checkerboard(correlated_1e5x5, (32,) * 5)
    # imports and caches fill outside the traced run
    measure(independence_copula((2, 32)), GroupSplit((0,), (1,)))
    result = {}

    def work():
        result["value"] = measure(copula, GroupSplit((0, 1, 2, 3), (4,))).value

    assert peak_bytes(work) < 16 * MB
    assert 0.0 < result["value"] < 2.0


def test_group_tau_holds_no_rows_times_target_cells_array(correlated_1e5x5):
    # 4096 conditioning cells times 256 target cells: 8 MB as float64, and
    # the center contraction holds several arrays of that size.
    copula = fit_checkerboard(correlated_1e5x5, (16,) * 5)
    split = GroupSplit((0, 1, 2), (3, 4))
    # imports and caches fill outside the traced run
    group_tau(independence_copula((2, 2, 2)), GroupSplit((0,), (1, 2)))
    result = {}

    def work():
        result["report"] = group_tau(copula, split)

    assert peak_bytes(work) < 8 * MB
    assert 0.0 < result["report"].value < result["report"].upper_bound


@pytest.fixture(scope="module")
def complete_64_cubed():
    return random_copula((64, 64, 64), make_rng(29))


@pytest.mark.parametrize(
    "measure",
    [tau_quadratic, lambda c, s: tau_alpha(c, s, 1.0)],
    ids=["tau_quadratic", "tau_alpha_1"],
)
@pytest.mark.parametrize("u_axes, v_axis", [((2, 0), 1), ((1, 2), 0)], ids=["20_1", "12_0"])
def test_out_of_order_split_of_a_complete_grid_holds_one_copy(
    complete_64_cubed, measure, u_axes, v_axis
):
    # The masses in split order are a transposed view of the grid, copied
    # once where the axes do not merge; a relabelled copula held ~4 copies.
    copula = complete_64_cubed
    split = GroupSplit(u_axes, (v_axis,))
    # imports and caches fill outside the traced run
    measure(independence_copula((2, 2, 2)), GroupSplit((2, 0), (1,)))
    result = {}

    def work():
        result["value"] = measure(copula, split).value

    assert peak_bytes(work) < copula.cell_mass.nbytes + 1.5 * MB
    assert 0.0 < result["value"] < 1.0


def test_fit_of_heavily_tied_columns_stays_small():
    # A 2-valued and a 5-valued column: every row's box spans about 17 x 8
    # cells.  Expanding each row would take ~1e5 x 136 parts (over 200 MB);
    # rows that share a box are expanded once.
    rng = make_rng(5)
    n = 100_000
    data = np.column_stack(
        [rng.integers(0, 2, n), rng.integers(0, 5, n), rng.standard_normal(n)]
    ).astype(np.float64)
    with pytest.warns(RuntimeWarning, match="tied"):
        pseudo = pseudo_observations(data)
    result = {}

    def work():
        result["copula"] = fit_checkerboard(pseudo, (32,) * 3)

    assert peak_bytes(work) < 48 * MB
    assert result["copula"].validate().worst_marginal_error < 1e-14


def test_measures_on_comonotone_512_cubed_stay_small():
    split = GroupSplit((0, 1), (2,))
    values = {}

    def work():
        copula = comonotone_copula(3, 512)
        values["valid"] = copula.validate().passed
        values["tau"] = tau_quadratic(copula, split).value
        values["renyi_limit"] = renyi_limit(copula, split).value
        values["mi"] = mutual_information(copula).value

    assert peak_bytes(work) < 64 * MB
    assert values["valid"]
    assert abs(values["tau"] - (1.0 - 1.0 / 512)) < 1e-12
    assert abs(values["mi"] - 2.0 * np.log(512)) < 1e-9
    assert values["renyi_limit"] > 0.0


def ranking_sample(kind):
    """A 200,000×3 sample: tie-free; tied, with a 5-valued column and one
    rounded to ~1.5e5 distinct values; or with a column of 1 + k eps in
    random order beside +-1e300, which ranking sorts with np.argsort."""
    rng = make_rng(11)
    n = 200_000
    data = rng.standard_normal((n, 3))
    if kind == "tied":
        data[:, 0] = rng.integers(0, 5, n)
        data[:, 1] = np.round(data[:, 1], 5)
    elif kind == "outliers":
        data[:, 0] = 1.0 + rng.permutation(n) * np.finfo(np.float64).eps
        data[:3, 0] = [1e300, -1e300, 0.0]
    return data


def ranking_peak_bytes(data):
    """Peak bytes of ranking ``data``, beyond the input and the output."""
    result = {}

    def work():
        result["pseudo"] = pseudo_observations(data)

    return peak_bytes(work) - data.nbytes, result["pseudo"]


@pytest.mark.parametrize("kind", ["tie-free", "tied", "outliers"])
@pytest.mark.filterwarnings("ignore:.*tied value")
def test_ranking_holds_its_output_a_sort_order_and_a_half_column(kind):
    data = ranking_sample(kind)
    extra, pseudo = ranking_peak_bytes(data)
    assert extra < 1.75 * data.shape[0] * 8
    assert (kind == "tied") == any(pseudo.tie_counts)


def test_tie_free_ranking_holds_one_column_of_keys_and_a_boolean_column():
    # the keys are 8 bytes a row and the tie flags 1; the rest are blocks
    data = ranking_sample("tie-free")
    extra, pseudo = ranking_peak_bytes(data)
    assert extra < 1.4 * data.shape[0] * 8
    assert not any(pseudo.tie_counts)


def test_cli_measure_on_a_csv_peaks_below_1_8_times_the_sample(tmp_path):
    n = 200_000
    path = tmp_path / "sample.csv"
    sample = make_rng(3).standard_normal((n, 3))
    np.savetxt(path, sample, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    argv = ["measure", "--input", str(path), "--kind", "tau_quadratic"]
    assert main(argv) == 0  # imports and caches fill outside the traced run

    def work():
        assert main(argv) == 0

    # the interval buffer is the sample's size; ranking adds a column of keys
    # and a boolean column, and parsing one block's ~1.4 MB
    assert peak_bytes(work) < 1.8 * sample.nbytes


def test_read_csv_of_two_columns_peaks_near_two_columns(tmp_path):
    n = 200_000
    path = tmp_path / "sample.csv"
    sample = make_rng(3).standard_normal((n, 3))
    np.savetxt(path, sample, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    read_csv(path, ["c", "a"])  # imports and caches fill outside the traced run
    result = {}

    def work():
        result["data"], _ = read_csv(path, ["c", "a"])

    # the two selected columns, and one block's parse whatever the file's length
    assert peak_bytes(work) < 2 * n * 8 + 2 * MB
    assert result["data"].tobytes() == np.ascontiguousarray(sample[:, [2, 0]]).tobytes()


def test_csv_that_loadtxt_refuses_is_read_without_holding_its_rows(tmp_path):
    # 1_0 is a number to float but not to orjson, which gives up on the last block
    n = 200_000
    path = tmp_path / "sample.csv"
    sample = make_rng(3).standard_normal((n, 3))
    with path.open("w") as fh:
        np.savetxt(fh, sample[:-1], fmt="%.17g", delimiter=",", header="a,b,c", comments="")
        fh.write("1_0,2,3\n")
    read_csv(path)  # imports and caches fill outside the traced run
    result = {}

    def work():
        result["data"], _ = read_csv(path)

    assert peak_bytes(work) <= 6 * n * 8
    assert result["data"].shape == (n, 3)
    assert result["data"][-1].tolist() == [10.0, 2.0, 3.0]


def test_csv_whose_lines_end_in_cr_alone_is_read_in_blocks(tmp_path):
    # without a \n to cut at, each read is cut at its last \r: held whole,
    # the file's bytes, its text and np.loadtxt's parse peaked at 71 columns
    n = 200_000
    path = tmp_path / "sample.csv"
    sample = make_rng(3).standard_normal((n, 3))
    np.savetxt(path, sample, fmt="%.17g", delimiter=",", header="a,b,c", comments="", newline="\r")
    read_csv(path)  # imports and caches fill outside the traced run
    result = {}

    def work():
        result["data"], _ = read_csv(path)

    assert peak_bytes(work) <= 5 * n * 8
    assert result["data"].tobytes() == sample.tobytes()


def test_csv_with_a_stray_quote_is_read_in_blocks(tmp_path):
    # csv.reader reads x" as text; counted as a quote that opens a field, it
    # joined every later read into one block and peaked at 64 columns
    n = 200_000
    path = tmp_path / "sample.csv"
    sample = make_rng(3).standard_normal((n, 3))
    lines = [",".join(map(repr, row)) + ",0" for row in sample.tolist()]
    lines[2] = lines[2].removesuffix("0") + 'x"'
    path.write_text("a,b,c,d\n" + "\n".join(lines) + "\n")
    read_csv(path, ["a", "b", "c"])  # imports and caches fill outside the traced run
    result = {}

    def work():
        result["data"], _ = read_csv(path, ["a", "b", "c"])

    assert peak_bytes(work) <= 5 * n * 8
    assert result["data"].tobytes() == sample.tobytes()
