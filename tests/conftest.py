import numpy as np
import pytest

from copdep import CheckerboardCopula, comonotone_copula, independence_copula, make_rng


def blend(theta, m):
    """The cellwise blend theta * comonotone + (1 - theta) * independence on
    an m x m grid; its quadratic measure is theta^2 * (1 - 1/m)."""
    mass = theta * comonotone_copula(2, m).mass + (1.0 - theta) * independence_copula((m, m)).mass
    return CheckerboardCopula((m, m), mass)


def unchecked(resolutions, mass):
    """The grid of a dense ``mass`` array, built without the copula check
    that ``CheckerboardCopula(...)`` runs, for tests that feed the kernels a
    grid that is not a copula."""
    mass = np.asarray(mass, dtype=np.float64).ravel()
    cells = np.flatnonzero(mass)
    return CheckerboardCopula._from_cells(tuple(resolutions), cells, mass[cells])


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
