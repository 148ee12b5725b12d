import numpy as np
import pytest

from copdep import assignment_copula, make_rng


def balanced_assignment_copula(n_cond: int, m: int, rng):
    return assignment_copula(n_cond, m, rng)


def dense_rebalance(resolutions, grid, sweeps=1000, tol=1e-10):
    """Iterative proportional fitting of a dense mass array toward uniform
    marginals: each sweep rescales every axis so that its slabs hold 1/m.

    The package fits without it; tests use it to balance hand-made supports.
    """
    res = tuple(resolutions)
    grid = np.asarray(grid, dtype=np.float64).reshape(res).copy()

    def slabs(axis):
        return grid.sum(axis=tuple(a for a in range(grid.ndim) if a != axis))

    for _ in range(sweeps):
        for axis, m in enumerate(res):
            shape = [1] * grid.ndim
            shape[axis] = m
            grid *= (1.0 / m) / slabs(axis).reshape(shape)
        if max(float(np.abs(slabs(a) - 1.0 / m).max()) for a, m in enumerate(res)) < tol:
            return grid
    raise AssertionError("dense rebalancing did not converge")


@pytest.fixture
def rng():
    return make_rng(20240817)
