"""Synthetic data and random copulas with known dependence values.

Sampling uses the counter-based Philox generator keyed by an explicit seed,
so the same seed produces bit-identical output on every platform and every
stream is independent of the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError
from .estimation import rebalance_marginals
from .grid import CheckerboardCopula, comonotone_copula, independence_copula, require_valid

_TAGS = ("independent", "comonotone", "mixture", "functional", "gaussian", "square_law")


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator with an explicit 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _default_functional(x: np.ndarray) -> np.ndarray:
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
      * functional: last column = func(other columns) + sigma * noise;
        complete dependence of the target on the drivers when sigma = 0.
      * gaussian: joint normal with the given correlation matrix.
      * square_law: X uniform on (-1, 1), Y = X^2.  Y is a function of X but
        not conversely, so the measure is 1 one way and 1/4 the other.
    """

    tag: str
    dimension: int = 2
    theta: float | None = None
    sigma: float = 0.0
    func: Callable | None = None
    correlation: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise InvalidArgumentError(f"unknown model tag {self.tag!r}")
        if self.dimension < 2:
            raise InvalidArgumentError(f"dimension must be >= 2, got {self.dimension}")
        if self.tag == "mixture":
            if self.theta is None or not 0.0 <= float(self.theta) <= 1.0:
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
        pick = rng.random(n_rows) < float(model.theta)
        return np.column_stack([u, np.where(pick, u, other)])
    if model.tag == "functional":
        x = rng.uniform(-2.0, 2.0, size=(n_rows, d - 1))
        func = model.func if model.func is not None else _default_functional
        y = np.asarray(func(x), dtype=np.float64)
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
    t = float(theta)
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


def random_copula(
    resolutions, rng: np.random.Generator, concentration: float = 2.0
) -> CheckerboardCopula:
    """Random strictly positive grid, rebalanced to uniform marginals.

    Cell weights are i.i.d. Gamma(concentration) draws (a symmetric
    Dirichlet after normalization); positivity guarantees the marginal
    rebalancing converges.
    """
    res = tuple(int(m) for m in resolutions)
    if any(m < 1 for m in res):
        raise InvalidArgumentError(f"resolutions must be positive, got {res}")
    raw = rng.gamma(float(concentration), 1.0, size=int(np.prod(res)))
    raw /= raw.sum()
    balanced = rebalance_marginals(CheckerboardCopula(res, raw))
    return require_valid(balanced, "random_copula")


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
    m = int(resolution)
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
    concentration: float = 2.0,
) -> tuple[CheckerboardCopula, CheckerboardCopula]:
    """Random compatible operands for the Markov product.

    Draws one positive joint grid over (conditioning, middle, target) blocks
    and splits it into its (conditioning + middle) and (middle + target)
    marginals, so the two middle-block marginals agree by construction.
    """
    if n < 1 or target_axes < 1:
        raise InvalidArgumentError("block sizes must be positive")
    dims = 2 * n + target_axes
    joint = random_copula((resolution,) * dims, rng, concentration)
    a = joint.marginal(tuple(range(2 * n)))
    b = joint.marginal(tuple(range(n, dims)))
    return a, b
