"""Peak allocations of ranking, fitting and measuring.

A copula stores only its occupied cells, so no step may allocate an array
with one entry per grid cell.  At d=5, m=32 the grid has 33.5M cells
(256 MiB as float64); at 512^3 it has 134M (1 GiB).  Ranking holds its
output and two column-sized temporaries whatever the ties, and the CLI drops
the raw sample once it is ranked.
"""

import tracemalloc

import numpy as np
import pytest

from copdep import (
    GroupSplit,
    comonotone_copula,
    fit_checkerboard,
    make_rng,
    mutual_information,
    pseudo_observations,
    renyi_limit,
    tau_quadratic,
)
from copdep.cli import main

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


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.filterwarnings("ignore:.*tied value")
def test_ranking_holds_its_output_and_two_columns(tied):
    # The tied sample has a 5-valued column and one rounded to ~1.5e5 distinct values.
    rng = make_rng(11)
    n = 200_000
    data = rng.standard_normal((n, 3))
    if tied:
        data[:, 0] = rng.integers(0, 5, n)
        data[:, 1] = np.round(data[:, 1], 5)
    result = {}

    def work():
        result["pseudo"] = pseudo_observations(data)

    assert peak_bytes(work) < data.nbytes + 2.5 * n * 8
    assert tied == any(result["pseudo"].tie_counts)


def test_cli_measure_on_a_csv_holds_the_sample_its_ranks_and_two_columns(tmp_path):
    n = 200_000
    path = tmp_path / "sample.csv"
    sample = make_rng(3).standard_normal((n, 3))
    np.savetxt(path, sample, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    argv = ["measure", "--input", str(path), "--kind", "tau_quadratic"]
    assert main(argv) == 0  # imports and caches fill outside the traced run

    def work():
        assert main(argv) == 0

    assert peak_bytes(work) < 2 * sample.nbytes + 2.5 * n * 8
