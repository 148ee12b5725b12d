"""The exact null mean of tau_quadratic on a fitted sample.

Permuting the target column of a sample breaks any link between the target
and the conditioning block while keeping every column's ranks, so the mean
of the measure over all N! permutations is its mean under independence at
that sample's conditioning support.  For a tie-free sample with m | N every
row's rank box is one cell, and that mean is exactly

    (1 - 1/m) (K_u - 1) / (N - 1),

where K_u is the number of occupied conditioning cells.  It is far from 0
on sparse grids: when every row has a conditioning cell of its own it is
the complete-dependence maximum 1 - 1/m.
"""

import itertools
import math

import numpy as np
import pytest

from copdep import GroupSplit, fit_checkerboard, make_rng, pseudo_observations, tau_quadratic


# (N, d, m, seed, K_u).  With one conditioning axis K_u = m; with more, the
# seeds give K_u from m up to N.
CASES = [
    (6, 2, 3, 0, 3),
    (6, 2, 2, 0, 2),
    (6, 3, 2, 27, 2),
    (6, 3, 2, 0, 4),
    (6, 3, 3, 3, 3),
    (6, 3, 3, 5, 5),
    (4, 4, 2, 0, 2),
    (4, 4, 2, 1, 4),
]


@pytest.mark.parametrize("n, d, m, seed, k_u", CASES)
def test_permutation_mean_is_the_exact_null_mean(n, d, m, seed, k_u):
    data = make_rng(seed).random((n, d))
    assert all(np.unique(column).size == n for column in data.T)  # tie-free
    cells = data.argsort(axis=0).argsort(axis=0) * m // n  # each row's cell on each axis
    assert len({tuple(row) for row in cells[:, :-1].tolist()}) == k_u
    split = GroupSplit(tuple(range(d - 1)), (d - 1,))
    values = []
    for order in itertools.permutations(range(n)):
        sample = data.copy()
        sample[:, -1] = data[list(order), -1]
        copula = fit_checkerboard(pseudo_observations(sample), (m,) * d)
        values.append(tau_quadratic(copula, split).value)
    want = (1.0 - 1.0 / m) * (k_u - 1) / (n - 1)
    assert len(values) == math.factorial(n)
    assert math.fsum(values) / len(values) == pytest.approx(want, rel=1e-13, abs=0.0)
