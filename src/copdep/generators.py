"""Synthetic data and random copulas with known dependence values.

Sampling uses the counter-based Philox generator keyed by an explicit seed,
so the same seed produces bit-identical output on every platform and every
stream is independent of the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, _count, _number
from .grid import (
    CheckerboardCopula,
    _check_resolutions,
    _strides,
    require_valid,
)

_TAGS = ("independent", "comonotone", "mixture", "functional", "gaussian", "square_law")

#: Each optional SynthModel field and the one model that reads it.
_FIELD_MODELS = {"theta": "mixture", "sigma": "functional", "correlation": "gaussian"}


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by an explicit seed in [0, 2**128)."""
    seed = _count(seed, "seed", least=0)
    if seed >= 2**128:
        raise InvalidArgumentError(f"expected an integer seed below 2**128, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


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
      * gaussian: joint normal with the given correlation matrix; the
        sample is the normal scores themselves, not their uniform images.
      * square_law: X uniform on (-1, 1), Y = X^2.  Y is a function of X but
        not conversely, so the measure is 1 one way and 1/4 the other.

    Each of theta, sigma and correlation is refused by every other model.
    """

    tag: str
    dimension: int = 2
    theta: float | None = None
    sigma: float | None = None
    correlation: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise InvalidArgumentError(f"unknown model tag {self.tag!r}")
        for field, reader in _FIELD_MODELS.items():
            if self.tag != reader and getattr(self, field) is not None:
                raise InvalidArgumentError(
                    f"{field} does not apply to the {self.tag} model; only {reader} reads it"
                )
        object.__setattr__(self, "dimension", _count(self.dimension, "dimension", least=2))
        if self.tag in ("mixture", "square_law") and self.dimension != 2:
            raise InvalidArgumentError(f"{self.tag} model is bivariate")
        if self.tag == "mixture":
            object.__setattr__(self, "theta", _number(self.theta, "theta"))
            if not 0.0 <= self.theta <= 1.0:
                raise InvalidArgumentError(f"mixture needs theta in [0, 1], got {self.theta}")
        if self.sigma is not None:
            object.__setattr__(self, "sigma", _number(self.sigma, "sigma"))
            if not self.sigma >= 0.0:
                raise InvalidArgumentError(f"sigma must be >= 0, got {self.sigma}")
        if self.tag == "gaussian":
            try:
                corr = np.asarray(self.correlation, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise InvalidArgumentError(
                    f"expected a numeric correlation matrix, got {self.correlation!r}"
                ) from exc
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
    n_rows = _count(n_rows, "n_rows", least=-math.inf)
    if n_rows < 2:  # negative counts too: too few rows, not a malformed argument
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
        if model.sigma:  # None or 0: no noise
            y = y + model.sigma * rng.standard_normal(n_rows)
        return np.column_stack([x, y])
    if model.tag == "gaussian":
        chol = np.linalg.cholesky(np.asarray(model.correlation, dtype=np.float64))
        return rng.standard_normal((n_rows, d)) @ chol.T
    x = rng.uniform(-1.0, 1.0, n_rows)  # square_law, the last tag SynthModel accepts
    return np.column_stack([x, x * x])


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
    n_cond, m = _count(n_cond, "n_cond"), _count(resolution, "resolution")
    n_cells = m**n_cond
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
    n, target_axes = _count(n, "n"), _count(target_axes, "target_axes")
    dims = 2 * n + target_axes
    joint = random_copula((resolution,) * dims, rng)
    a = joint.marginal(tuple(range(2 * n)))
    b = joint.marginal(tuple(range(n, dims)))
    return a, b
