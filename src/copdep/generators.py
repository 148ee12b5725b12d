"""Synthetic data and random copulas with known dependence values.

Sampling uses the counter-based Philox generator keyed by an explicit seed,
so the same seed produces bit-identical output on every platform and every
stream is independent of the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, _convert
from .grid import (
    CheckerboardCopula,
    _check_resolutions,
    _strides,
    comonotone_copula,
    independence_copula,
    require_valid,
)

_TAGS = ("independent", "comonotone", "mixture", "functional", "gaussian", "square_law")


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator with an explicit 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _functional(x: np.ndarray) -> np.ndarray:
    """sin of the first driver plus the square of the second (or of itself)."""
    if x.shape[1] == 1:
        return np.sin(x[:, 0]) + x[:, 0] ** 2
    return np.sin(x[:, 0]) + x[:, 1] ** 2


@dataclass(frozen=True)
class SynthModel:
    """Recipe for a synthetic sample with known dependence structure.

    tags:
      * independent: d independent uniforms (zero dependence both ways).
      * comonotone: one uniform repeated across all columns.
      * mixture: bivariate; each row is comonotone with probability theta,
        independent otherwise.  The quadratic measure tends to theta^2.
      * functional: last column = sin(first driver) + (second driver)^2
        + sigma * noise, with the first driver standing in for the second
        when there is only one; complete dependence of the target on the
        drivers when sigma = 0.
      * gaussian: joint normal with the given correlation matrix.
      * square_law: X uniform on (-1, 1), Y = X^2.  Y is a function of X but
        not conversely, so the measure is 1 one way and 1/4 the other.
    """

    tag: str
    dimension: int = 2
    theta: float | None = None
    sigma: float = 0.0
    correlation: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise InvalidArgumentError(f"unknown model tag {self.tag!r}")
        object.__setattr__(self, "dimension", _convert(self.dimension, int, "dimension"))
        object.__setattr__(self, "sigma", _convert(self.sigma, float, "sigma"))
        if self.theta is not None:
            object.__setattr__(self, "theta", _convert(self.theta, float, "theta"))
        if self.dimension < 2:
            raise InvalidArgumentError(f"dimension must be >= 2, got {self.dimension}")
        if self.tag == "mixture":
            if self.theta is None or not 0.0 <= self.theta <= 1.0:
                raise InvalidArgumentError(f"mixture needs theta in [0, 1], got {self.theta}")
            if self.dimension != 2:
                raise InvalidArgumentError("mixture model is bivariate")
        if self.tag == "square_law" and self.dimension != 2:
            raise InvalidArgumentError("square_law model is bivariate")
        if self.sigma < 0.0:
            raise InvalidArgumentError(f"sigma must be >= 0, got {self.sigma}")
        if self.tag == "gaussian":
            corr = np.asarray(self.correlation, dtype=np.float64)
            if corr.shape != (self.dimension, self.dimension):
                raise InvalidArgumentError(
                    f"correlation must be {self.dimension}x{self.dimension}"
                )
            if not np.allclose(corr, corr.T, atol=1e-12) or not np.allclose(
                np.diag(corr), 1.0, atol=1e-12
            ):
                raise InvalidArgumentError("correlation must be symmetric with unit diagonal")
            try:
                np.linalg.cholesky(corr)
            except np.linalg.LinAlgError as exc:
                raise InvalidArgumentError("correlation matrix is not positive definite") from exc


def generate(model: SynthModel, n_rows: int) -> np.ndarray:
    """Draw an (n_rows x dimension) sample; deterministic given the seed."""
    n_rows = _convert(n_rows, int, "n_rows")
    if n_rows < 2:
        raise InsufficientDataError(f"need at least 2 rows, got {n_rows}")
    rng = make_rng(model.seed)
    d = model.dimension
    if model.tag == "independent":
        return rng.random((n_rows, d))
    if model.tag == "comonotone":
        z = rng.random(n_rows)
        return np.tile(z[:, None], (1, d))
    if model.tag == "mixture":
        u = rng.random(n_rows)
        other = rng.random(n_rows)
        pick = rng.random(n_rows) < model.theta
        return np.column_stack([u, np.where(pick, u, other)])
    if model.tag == "functional":
        x = rng.uniform(-2.0, 2.0, size=(n_rows, d - 1))
        y = _functional(x)
        if model.sigma > 0.0:
            y = y + model.sigma * rng.standard_normal(n_rows)
        return np.column_stack([x, y])
    if model.tag == "gaussian":
        chol = np.linalg.cholesky(np.asarray(model.correlation, dtype=np.float64))
        z = rng.standard_normal((n_rows, d)) @ chol.T
        from scipy.special import ndtr

        return ndtr(z)
    if model.tag == "square_law":
        x = rng.uniform(-1.0, 1.0, n_rows)
        return np.column_stack([x, x * x])
    raise InvalidArgumentError(f"unknown model tag {model.tag!r}")


def mixture_copula(theta: float, resolution: int) -> CheckerboardCopula:
    """Cellwise blend theta * comonotone + (1 - theta) * independence.

    The quadratic measure of the blend is theta^2 * (1 - 1/m), approaching
    the continuous-limit value theta^2.
    """
    t = _convert(theta, float, "theta")
    if not 0.0 <= t <= 1.0:
        raise InvalidArgumentError(f"theta must be in [0, 1], got {t}")
    diag = comonotone_copula(2, resolution)
    flat = independence_copula((resolution, resolution))
    mass = (1.0 - t) * flat.cell_mass  # the independence copula stores every cell
    mass[diag.cell_index] += t * diag.cell_mass
    return require_valid(
        CheckerboardCopula._from_cells(flat.resolutions, flat.cell_index, mass),
        "mixture_copula",
    )


def random_copula(resolutions, rng: np.random.Generator) -> CheckerboardCopula:
    """Random strictly positive grid whose marginals are uniform by construction.

    The grid mixes K random transversals with the independence copula.  A
    transversal is L = lcm(resolutions) points of mass 1/L; on an axis of
    size m its coordinates are a random permutation of every slab label
    repeated L/m times, so each slab holds exactly 1/m of its mass.  K is the
    fewest transversals with at least as many points as the grid has cells,
    their weights are a symmetric Dirichlet(2) draw, and
    independence gets weight 1/(K + 1), which keeps every cell positive.
    Marginals are uniform up to rounding, with no iterative fitting.
    """
    res = _check_resolutions(resolutions)
    cells = math.prod(res)
    points = math.lcm(*res)
    k = -(-cells // points)
    floor = 1.0 / (k + 1)
    weights = rng.dirichlet(np.full(k, 2.0)) * ((1.0 - floor) / points)
    sizes = np.array(res, dtype=np.int64)[:, None]
    labels = np.arange(points, dtype=np.int64) // (points // sizes)
    coords = rng.permuted(np.broadcast_to(labels[:, None, :], (len(res), k, points)), axis=2)
    index = np.array(_strides(res), dtype=np.int64) @ coords.reshape(len(res), -1)
    mass = np.bincount(index, weights=np.repeat(weights, points), minlength=cells)
    mass += floor / cells
    copula = CheckerboardCopula._from_cells(res, np.arange(cells, dtype=np.int64), mass)
    return require_valid(copula, "random_copula")


def assignment_copula(
    n_cond: int, resolution: int, rng: np.random.Generator
) -> CheckerboardCopula:
    """Deterministic-assignment grid: each conditioning cell maps to one target cell.

    The conditioning block (``n_cond`` axes) is internally independent and
    the single target axis is a function of it, with every target cell
    receiving equally many conditioning cells, so all marginals are exactly
    uniform and the quadratic measure attains its resolution maximum
    1 - 1/m.  Useful as an exact complete-dependence witness.
    """
    n_cond = _convert(n_cond, int, "n_cond")
    m = _convert(resolution, int, "resolution")
    n_cells = m**n_cond
    if n_cells % m != 0:
        raise InvalidArgumentError("conditioning cells must split evenly over targets")
    targets = rng.permutation(np.repeat(np.arange(m), n_cells // m))
    cells = np.arange(n_cells, dtype=np.int64) * m + targets
    return require_valid(
        CheckerboardCopula._from_cells(
            (m,) * n_cond + (m,), cells, np.full(n_cells, 1.0 / n_cells)
        ),
        "assignment_copula",
    )


def random_star_pair(
    n: int,
    resolution: int,
    rng: np.random.Generator,
    target_axes: int = 1,
) -> tuple[CheckerboardCopula, CheckerboardCopula]:
    """Random compatible operands for the Markov product.

    Draws one positive joint grid over (conditioning, middle, target) blocks
    and splits it into its (conditioning + middle) and (middle + target)
    marginals, so the two middle-block marginals agree by construction.
    """
    n = _convert(n, int, "n")
    target_axes = _convert(target_axes, int, "target_axes")
    if n < 1 or target_axes < 1:
        raise InvalidArgumentError("block sizes must be positive")
    dims = 2 * n + target_axes
    joint = random_copula((resolution,) * dims, rng)
    a = joint.marginal(tuple(range(2 * n)))
    b = joint.marginal(tuple(range(n, dims)))
    return a, b
