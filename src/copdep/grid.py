"""Checkerboard copulas: d-dimensional mass grids with uniform axis marginals.

A checkerboard copula partitions the unit cube into an axis-aligned grid of
``m_1 x ... x m_d`` cells and places a nonnegative probability mass on each
cell, with the density uniform inside every cell.  The induced CDF is the
multilinear interpolation of the cumulative cell masses, so it is exact at
grid vertices, 1-Lipschitz in each coordinate, and sits between the
Frechet-Hoeffding envelopes.  Every copula handled by this package is
represented this way; singular copulas (such as the comonotone one) appear
as grid approximations whose measures converge as the resolution grows.

Only the cells with nonzero mass are stored: their sorted int64 flat indices
(row-major, last axis fastest) and their masses.  A copula fitted from N
samples therefore costs O(N) memory whatever the grid size; the dense mass
array is built only on request (``mass``, ``grid``, JSON output).  Both
arrays are frozen after construction, so values are safe to share across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CopulaValidationError, InvalidArgumentError, _convert

#: Validity tolerance for total mass and marginal uniformity.
VALIDITY_TOL = 1e-9


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= int(v)
    return out


def _check_resolutions(resolutions) -> tuple[int, ...]:
    """Resolutions as a tuple of ints; rejects empty, nonpositive and too-large grids."""
    res = tuple(_convert(m, int, "resolution") for m in resolutions)
    if not res or any(m < 1 for m in res):
        raise InvalidArgumentError(f"resolutions must be positive, got {res}")
    if _prod(res) >= 2**63:
        raise InvalidArgumentError(
            f"grid {res} has {_prod(res)} cells; a flat cell index needs fewer than 2**63"
        )
    return res


def _strides(res) -> list[int]:
    """Flat-index step of each axis (row-major, last axis fastest)."""
    out = [1] * len(res)
    for k in range(len(res) - 2, -1, -1):
        out[k] = out[k + 1] * res[k + 1]
    return out


def _compress(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of ``keys`` (all in [0, bound)) in ascending order, and
    the position of every key among them.

    Marks and counts when the key range is at most twice the number of keys,
    else sorts; both give the same arrays.
    """
    if bound > 2 * keys.size:
        return np.unique(keys, return_inverse=True)
    present = np.zeros(bound, dtype=bool)
    present[keys] = True
    rank = np.cumsum(present) - 1
    return np.flatnonzero(present), rank[keys]


def _unit_point(point) -> np.ndarray:
    """``point`` as a flat float array; rejects empty points and points outside [0, 1]^d."""
    p = np.asarray(point, dtype=np.float64).ravel()
    if p.size == 0 or not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise InvalidArgumentError(f"point {p.tolist()} outside the unit cube")
    return p


def _scatter(index: np.ndarray, mass: np.ndarray, size: int) -> np.ndarray:
    """Dense array of ``size`` cells holding ``mass`` at ``index``, zero elsewhere."""
    out = np.zeros(size)
    out[index] = mass
    return out


@dataclass(frozen=True, eq=False, repr=False, init=False)
class CheckerboardCopula:
    """Immutable mass grid over the unit cube, stored as its nonzero cells.

    ``CheckerboardCopula(resolutions, mass)`` takes a dense mass array of
    length prod(resolutions), row-major with the last axis fastest.

    Attributes:
        resolutions: cells per axis, one positive integer per dimension.
        cell_index: sorted flat indices (int64) of the cells whose mass is
            nonzero.  Negative cells are kept, so ``validate`` sees them.
        cell_mass: the mass of each of those cells (float64).
    """

    resolutions: tuple[int, ...]
    cell_index: np.ndarray
    cell_mass: np.ndarray

    def __init__(self, resolutions, mass):
        res = _check_resolutions(resolutions)
        dense = np.asarray(mass, dtype=np.float64).ravel()
        if dense.size != _prod(res):
            raise InvalidArgumentError(
                f"mass length {dense.size} does not match grid size {_prod(res)}"
            )
        index = np.flatnonzero(dense)
        self._freeze(res, index, dense[index])

    @classmethod
    def _from_cells(cls, resolutions, index, mass) -> CheckerboardCopula:
        """Copula from sorted, distinct flat indices and their masses.

        Cells whose mass is zero are dropped.
        """
        copula = object.__new__(cls)
        mass = np.asarray(mass, dtype=np.float64)
        keep = mass != 0.0
        if not keep.all():
            index, mass = index[keep], mass[keep]
        copula._freeze(_check_resolutions(resolutions), index, mass)
        return copula

    def _freeze(self, res, index, mass) -> None:
        index = np.ascontiguousarray(index, dtype=np.int64)
        mass = np.ascontiguousarray(mass, dtype=np.float64)
        index.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "resolutions", res)
        object.__setattr__(self, "cell_index", index)
        object.__setattr__(self, "cell_mass", mass)

    def __repr__(self) -> str:
        return f"CheckerboardCopula(resolutions={self.resolutions})"

    @property
    def dims(self) -> int:
        return len(self.resolutions)

    @property
    def mass(self) -> np.ndarray:
        """Dense flat mass array, row-major; a new read-only copy on each access."""
        size = _prod(self.resolutions)
        try:
            out = _scatter(self.cell_index, self.cell_mass, size)
        except MemoryError as exc:
            raise InvalidArgumentError(
                f"grid {self.resolutions} has {size} cells, too many for a dense mass array"
            ) from exc
        out.setflags(write=False)
        return out

    @property
    def grid(self) -> np.ndarray:
        """Dense mass array shaped as the grid; a new read-only copy on each access."""
        return self.mass.reshape(self.resolutions)

    def _key(self, axes) -> np.ndarray:
        """Row-major flat index of every stored cell over ``axes`` alone, in
        the given order; for one axis, the cell's coordinate along it."""
        axes = tuple(axes)
        first, last = axes[0], axes[-1]
        if axes != tuple(range(first, last + 1)):
            key = np.zeros_like(self.cell_index)
            for a in axes:
                key *= self.resolutions[a]
                key += self._key((a,))
            return key
        # Consecutive axes in order are one digit range of the flat index:
        # index // stride mod size, written with floor division only, which
        # numpy runs several times faster than % for a scalar divisor.
        stride = _strides(self.resolutions)[last]
        key = self.cell_index // stride if stride > 1 else self.cell_index
        if first == 0:
            return key
        size = _prod(self.resolutions[first : last + 1])
        return key - (key // size) * size

    def _block_sums(self, axes) -> tuple[np.ndarray, np.ndarray]:
        """Mass of every cell of the grid over ``axes`` alone (row-major, in
        the given order), each the sum of its stored cells in stored order,
        and the ``_key`` of every stored cell over ``axes``."""
        key = self._key(axes)
        size = _prod(self.resolutions[a] for a in axes)
        return np.bincount(key, weights=self.cell_mass, minlength=size), key

    # ------------------------------------------------------------------
    # pointwise evaluation
    # ------------------------------------------------------------------

    def _check_point(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=np.float64).ravel()
        if p.size != self.dims:
            raise InvalidArgumentError(
                f"point has {p.size} coordinates, copula has {self.dims}"
            )
        return _unit_point(p)

    def _box_share(self, lower, upper) -> float:
        """Sum of stored cell masses, each weighted by the share of its cell
        inside the box [lower, upper]; the share is a product over axes."""
        share = np.ones(self.cell_index.size)
        for axis, m in enumerate(self.resolutions):
            key = self._key((axis,))
            share *= np.clip(upper[axis] * m - key, 0.0, 1.0) - np.clip(
                lower[axis] * m - key, 0.0, 1.0
            )
        return float(self.cell_mass @ share)

    def cdf(self, point) -> float:
        """CDF at a point of the unit cube.

        Multilinear in each coordinate: the value is the sum of cell masses
        weighted by the fraction of each cell lying below the point.
        """
        return self._box_share(np.zeros(self.dims), self._check_point(point))

    def box_mass(self, box: GridBox) -> float:
        """Probability mass of an axis-aligned box.

        The sum of cell masses weighted by the fraction of each cell inside
        the box, which equals the sum of contained cell masses whenever the
        box is grid aligned.
        """
        if box.dims != self.dims:
            raise InvalidArgumentError(
                f"box has {box.dims} axes, copula has {self.dims}"
            )
        return max(self._box_share(box.lower, box.upper), 0.0)

    def sub_box_mass(self, box: GridBox, tail_point) -> float:
        """Mass of {first k coordinates in ``box``} and {remaining <= tail_point}.

        ``box`` covers the leading ``k < dims`` axes and ``tail_point``, a
        point of the unit cube, the rest.  Nonnegative and nondecreasing in
        every tail coordinate.
        """
        k = box.dims
        if not 1 <= k < self.dims:
            raise InvalidArgumentError(
                f"box must cover 1..{self.dims - 1} leading axes, got {k}"
            )
        tail = np.asarray(tail_point, dtype=np.float64).ravel()
        if tail.size != self.dims - k:
            raise InvalidArgumentError(
                f"tail point must have {self.dims - k} coordinates, got {tail.size}"
            )
        upper = self._check_point(box.upper + tuple(tail))
        return max(self._box_share(box.lower + (0.0,) * tail.size, upper), 0.0)

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------

    def marginal(self, axes) -> CheckerboardCopula:
        """Marginal copula over ``axes``, kept in the given order.

        Masses over the removed axes are summed per kept cell in the order
        of the removed axes' own flat index, so the result does not depend
        on where the kept axes sit.
        """
        kept = tuple(int(a) for a in axes)
        if not kept:
            raise InvalidArgumentError("marginal requires at least one axis")
        if len(set(kept)) != len(kept):
            raise InvalidArgumentError(f"duplicate axes in {kept}")
        if any(a < 0 or a >= self.dims for a in kept):
            raise InvalidArgumentError(f"axes {kept} out of range for {self.dims} dims")
        keys, group = _compress(
            self._key(kept), _prod(self.resolutions[a] for a in kept)
        )
        # bincount adds in stored-cell order, which within a kept cell is
        # the order of the removed axes' own flat index.
        sums = np.bincount(group, weights=self.cell_mass, minlength=keys.size)
        return CheckerboardCopula._from_cells(
            tuple(self.resolutions[a] for a in kept), keys, sums
        )

    def _rekeyed(self, index: np.ndarray, res) -> CheckerboardCopula:
        """The same cell masses moved to flat indices ``index`` of grid ``res``."""
        order = np.argsort(index)
        return CheckerboardCopula._from_cells(res, index[order], self.cell_mass[order])

    def permute_axes(self, permutation) -> CheckerboardCopula:
        """Relabel axes: new axis ``i`` is old axis ``permutation[i]``."""
        perm = tuple(int(a) for a in permutation)
        if sorted(perm) != list(range(self.dims)):
            raise InvalidArgumentError(
                f"{perm} is not a permutation of 0..{self.dims - 1}"
            )
        return self._rekeyed(self._key(perm), tuple(self.resolutions[a] for a in perm))

    def reverse_axis(self, axis: int) -> CheckerboardCopula:
        """Flip the cell order along one axis (a strictly decreasing remap)."""
        if not 0 <= axis < self.dims:
            raise InvalidArgumentError(f"axis {axis} out of range")
        m, stride = self.resolutions[axis], _strides(self.resolutions)[axis]
        shift = (m - 1 - 2 * self._key((axis,))) * stride
        return self._rekeyed(self.cell_index + shift, self.resolutions)

    def validate(self) -> ValidationReport:
        """Diagnostics for nonnegativity, total mass, and marginal uniformity.

        Never raises; inspect ``passed`` or use :func:`require_valid`.
        """
        mass = self.cell_mass
        min_mass = float(mass.min()) if mass.size else 0.0
        max_negative = max(0.0, -min_mass)
        negative_cell = None
        if min_mass < 0.0:
            negative_cell = tuple(
                int(i)
                for i in np.unravel_index(
                    int(self.cell_index[mass.argmin()]), self.resolutions
                )
            )
        total_error = abs(float(mass.sum()) - 1.0)
        worst_err = 0.0
        worst_axis = None
        worst_slab = None
        for axis, m in enumerate(self.resolutions):
            errs = np.abs(self._block_sums((axis,))[0] - 1.0 / m)
            j = int(errs.argmax())
            if errs[j] > worst_err:
                worst_err = float(errs[j])
                worst_axis = axis
                worst_slab = j
        passed = (
            max_negative <= VALIDITY_TOL
            and total_error <= VALIDITY_TOL
            and worst_err <= VALIDITY_TOL
        )
        return ValidationReport(
            passed=passed,
            max_negative_mass=max_negative,
            negative_cell=negative_cell,
            total_mass_error=total_error,
            worst_marginal_error=worst_err,
            worst_marginal_axis=worst_axis,
            worst_marginal_slab=worst_slab,
        )


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    max_negative_mass: float
    negative_cell: tuple[int, ...] | None
    total_mass_error: float
    worst_marginal_error: float
    worst_marginal_axis: int | None
    worst_marginal_slab: int | None

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        loc = ""
        if self.negative_cell is not None:
            loc = f" at cell {self.negative_cell}"
        return (
            f"{status}: max negative mass {self.max_negative_mass:.3e}{loc}, "
            f"total mass error {self.total_mass_error:.3e}, "
            f"worst marginal error {self.worst_marginal_error:.3e}"
            + (
                f" (axis {self.worst_marginal_axis}, slab {self.worst_marginal_slab})"
                if self.worst_marginal_axis is not None
                else ""
            )
        )


def require_valid(copula: CheckerboardCopula, context: str = "") -> CheckerboardCopula:
    """Return the copula unchanged, or raise with the validation summary."""
    report = copula.validate()
    if not report.passed:
        prefix = f"{context}: " if context else ""
        raise CopulaValidationError(prefix + report.summary(), report=report)
    return copula


@dataclass(frozen=True)
class GridBox:
    """Axis-aligned box [lower, upper] inside the unit cube."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lower)
        hi = tuple(float(x) for x in self.upper)
        if len(lo) != len(hi) or not lo:
            raise InvalidArgumentError("lower and upper must be nonempty and equal length")
        for a, b in zip(lo, hi):
            if not (0.0 <= a <= b <= 1.0):
                raise InvalidArgumentError(
                    f"box coordinates must satisfy 0 <= lower <= upper <= 1, got [{a}, {b}]"
                )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dims(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class GroupSplit:
    """Partition of the axes into a conditioning block and a target block."""

    u_axes: tuple[int, ...]
    v_axes: tuple[int, ...]

    def __post_init__(self):
        u = tuple(_convert(a, int, "axis") for a in self.u_axes)
        v = tuple(_convert(a, int, "axis") for a in self.v_axes)
        if not u or not v:
            raise InvalidArgumentError("both blocks must be nonempty")
        if set(u) & set(v):
            raise InvalidArgumentError(f"blocks overlap: {sorted(set(u) & set(v))}")
        if len(set(u)) != len(u) or len(set(v)) != len(v):
            raise InvalidArgumentError("duplicate axis in split")
        if any(a < 0 for a in u + v):
            raise InvalidArgumentError("negative axis index")
        object.__setattr__(self, "u_axes", u)
        object.__setattr__(self, "v_axes", v)

    def check_covers(self, dims: int) -> None:
        if sorted(self.u_axes + self.v_axes) != list(range(dims)):
            raise InvalidArgumentError(
                f"split {self.u_axes} | {self.v_axes} does not cover axes 0..{dims - 1}"
            )


# ----------------------------------------------------------------------
# reference constructions and bound functions
# ----------------------------------------------------------------------


def independence_copula(resolutions) -> CheckerboardCopula:
    """Product copula: every cell carries the product of the axis widths."""
    res = _check_resolutions(resolutions)
    n = _prod(res)
    return require_valid(
        CheckerboardCopula._from_cells(res, np.arange(n), np.full(n, 1.0 / n)),
        "independence_copula",
    )


def comonotone_copula(dims: int, resolution: int) -> CheckerboardCopula:
    """Grid approximation of min(u_1, ..., u_d): mass 1/m on the diagonal cells.

    The underlying copula is singular; its checkerboard version spreads each
    diagonal atom uniformly over one cell, so dependence measures computed
    from it approach their ideal values as the resolution grows.
    """
    dims = _convert(dims, int, "dims")
    if dims < 2:
        raise InvalidArgumentError(f"need at least 2 dims, got {dims}")
    m = _convert(resolution, int, "resolution")
    if m < 1:
        raise InvalidArgumentError(f"resolution must be positive, got {m}")
    res = _check_resolutions((m,) * dims)
    stride = sum(_strides(res))  # one step along every axis at once
    diagonal = np.arange(m, dtype=np.int64) * stride
    return require_valid(
        CheckerboardCopula._from_cells(res, diagonal, np.full(m, 1.0 / m)),
        "comonotone_copula",
    )


def frechet_lower(point) -> float:
    """Lower Frechet-Hoeffding envelope max(sum(u) - d + 1, 0).

    A pointwise bound for every copula; not itself a copula beyond two
    dimensions, so it is exposed only as a function.
    """
    p = _unit_point(point)
    return max(float(p.sum()) - p.size + 1.0, 0.0)


def frechet_upper(point) -> float:
    """Upper Frechet-Hoeffding envelope min(u_1, ..., u_d)."""
    return float(_unit_point(point).min())


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def copula_to_dict(copula: CheckerboardCopula) -> dict:
    return {
        "dims": copula.dims,
        "resolutions": list(copula.resolutions),
        "mass": copula.mass.tolist(),
    }


def copula_from_dict(payload: dict) -> CheckerboardCopula:
    try:
        dims = int(payload["dims"])
        resolutions = tuple(int(m) for m in payload["resolutions"])
        mass = np.asarray(payload["mass"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed copula payload: {exc}") from exc
    if dims != len(resolutions):
        raise InvalidArgumentError(
            f"dims {dims} does not match {len(resolutions)} resolutions"
        )
    copula = CheckerboardCopula(resolutions, mass)
    return require_valid(copula, "copula payload")


def save_copula(copula: CheckerboardCopula, path) -> None:
    Path(path).write_text(json.dumps(copula_to_dict(copula)), encoding="utf-8")


def load_copula(path) -> CheckerboardCopula:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InvalidArgumentError(f"{path} is not valid JSON: {exc}") from exc
    return copula_from_dict(payload)
