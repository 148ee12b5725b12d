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
array is built only on request (``mass``, JSON output).  Both
arrays are frozen after construction, so values are safe to share across
threads.  Each copula also keeps a private memo, filled lazily and holding
only pure results of its cells (such as group_tau's value and bound per
split), so sharing stays safe: two threads that miss at once store the same
result.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CopulaValidationError, InvalidArgumentError, _count

#: Validity tolerance for total mass and marginal uniformity.
VALIDITY_TOL = 1e-9


def _check_resolutions(resolutions) -> tuple[int, ...]:
    """Resolutions as a tuple of positive ints; rejects empty and too-large grids."""
    try:
        res = tuple(_count(m, "resolution") for m in resolutions)
    except TypeError as exc:  # not a sequence
        raise InvalidArgumentError(
            f"expected a sequence of resolutions, got {resolutions!r}"
        ) from exc
    if not res:
        raise InvalidArgumentError("expected one or more resolutions, got none")
    if math.prod(res) >= 2**63:
        raise InvalidArgumentError(
            f"grid {res} has {math.prod(res)} cells; a flat cell index needs fewer than 2**63"
        )
    return res


def _check_axes(axes, dims: int | None = None) -> tuple[int, ...]:
    """``axes`` as a nonempty tuple of distinct nonnegative integers (see
    ``_count``), each below ``dims`` when given."""
    try:
        out = tuple(_count(a, "axis", least=0) for a in axes)
    except TypeError as exc:  # not a sequence
        raise InvalidArgumentError(f"expected a sequence of axes, got {axes!r}") from exc
    top = math.inf if dims is None else dims
    if not out or len(set(out)) < len(out) or max(out) >= top:
        raise InvalidArgumentError(f"expected one or more distinct axes in 0..{top - 1}, got {out}")
    return out


def _strides(res) -> list[int]:
    """Flat-index step of each axis (row-major, last axis fastest)."""
    out = [1] * len(res)
    for k in range(len(res) - 2, -1, -1):
        out[k] = out[k + 1] * res[k + 1]
    return out


def _cell_sums(keys: np.ndarray, bound: int, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``keys`` (all in [0, bound)) whose sum is not zero, in
    ascending order, and those sums: per value, its ``weights`` added in
    array order, or the number of its keys when ``weights`` is None.

    Adds into ``bound`` dense sums when the key range is at most twice the
    number of keys, else sorts; both give the same arrays.
    """
    if bound <= 2 * keys.size:
        sums = np.bincount(keys, weights=weights, minlength=bound)
        keys = np.flatnonzero(sums)
        return keys, sums[keys]
    if weights is None:
        return np.unique(keys, return_counts=True)
    keys, at = np.unique(keys, return_inverse=True)
    sums = np.bincount(at, weights=weights)
    live = np.flatnonzero(sums)
    return keys[live], sums[live]


@dataclass(frozen=True, eq=False, repr=False, init=False)
class CheckerboardCopula:
    """Immutable copula grid over the unit cube, stored as its nonzero cells.

    ``CheckerboardCopula(resolutions, mass)`` takes a dense mass array of
    length prod(resolutions), row-major with the last axis fastest, and
    checks that it is a copula (``validate``), so no measure reads a grid
    that is not one.

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
        """InvalidArgumentError for resolutions or masses of the wrong form;
        CopulaValidationError, carrying the ``validate`` report, for a grid
        that is not a copula within VALIDITY_TOL."""
        res = _check_resolutions(resolutions)
        try:
            dense = np.asarray(mass, dtype=np.float64).ravel()
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"expected numeric masses: {exc}") from exc
        if dense.size != math.prod(res):
            raise InvalidArgumentError(
                f"mass length {dense.size} does not match grid size {math.prod(res)}"
            )
        index = np.flatnonzero(dense)
        self._freeze(res, index, dense[index])
        require_valid(self)

    @classmethod
    def _from_cells(cls, resolutions, index, mass) -> CheckerboardCopula:
        """Copula from sorted, distinct flat indices and their masses.

        Every mass must be nonzero: the cells are stored as given, and a
        stored cell is an occupied one.  Nothing is validated: the package's
        own constructions call ``require_valid`` or derive from a copula.
        """
        copula = object.__new__(cls)
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
        object.__setattr__(self, "_memo", {})

    def _memoized(self, key, compute):
        """``compute()``, run at most once per ``key`` for this copula; the
        result must depend on the cells and ``key`` alone."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def __repr__(self) -> str:
        return f"CheckerboardCopula(resolutions={self.resolutions})"

    @property
    def dims(self) -> int:
        return len(self.resolutions)

    @property
    def mass(self) -> np.ndarray:
        """Dense flat mass array, row-major, zero at every cell not stored; a
        new read-only array on each access.  ``star`` and JSON output read it."""
        size = math.prod(self.resolutions)
        try:
            out = np.zeros(size)
        except MemoryError as exc:
            raise InvalidArgumentError(
                f"grid {self.resolutions} has {size} cells, too many for a dense mass array"
            ) from exc
        out[self.cell_index] = self.cell_mass
        out.setflags(write=False)
        return out

    def _key(self, axes) -> np.ndarray:
        """Row-major flat index of every stored cell over ``axes`` alone, in
        the given order; for one axis, the cell's coordinate along it.  Each
        maximal run of consecutive axes in ascending order is one digit range
        of the flat index, index // stride mod size, in floor divisions only
        (numpy runs them several times faster than % by a scalar), and the
        runs are folded row-major."""
        axes, res = tuple(axes), self.resolutions
        key, start = None, 0
        for end in [i for i in range(1, len(axes)) if axes[i] != axes[i - 1] + 1] + [len(axes)]:
            first, last = axes[start], axes[end - 1]
            stride = math.prod(res[last + 1 :])
            digits = self.cell_index // stride if stride > 1 else self.cell_index
            size = math.prod(res[first : last + 1])
            if first:
                digits = digits - (digits // size) * size
            key = digits if key is None else key * size + digits
            start = end
        return key

    def _block_sums(self, axes) -> tuple[np.ndarray, np.ndarray]:
        """Mass of every cell of the grid over ``axes`` alone (row-major, in
        the given order), each the sum of its stored cells in stored order,
        and the ``_key`` of every stored cell over ``axes``."""
        key = self._key(axes)
        size = math.prod(self.resolutions[a] for a in axes)
        return np.bincount(key, weights=self.cell_mass, minlength=size), key

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------

    def marginal(self, axes) -> CheckerboardCopula:
        """Marginal copula over ``axes``, kept in the given order.

        Masses over the removed axes are summed per kept cell by
        ``_cell_sums`` in stored order, which within a kept cell is the order
        of the removed axes' own flat index, so the result does not depend
        on where the kept axes sit.
        """
        kept = _check_axes(axes, self.dims)
        res = tuple(self.resolutions[a] for a in kept)
        keys, sums = _cell_sums(self._key(kept), math.prod(res), self.cell_mass)
        return CheckerboardCopula._from_cells(res, keys, sums)

    def permute_axes(self, permutation) -> CheckerboardCopula:
        """Relabel axes: new axis ``i`` is old axis ``permutation[i]``.

        Every stored cell gets its flat index under the new labels, and the
        stored cells are sorted by it.
        """
        perm = _check_axes(permutation, self.dims)
        if len(perm) != self.dims:
            raise InvalidArgumentError(
                f"{perm} is not a permutation of 0..{self.dims - 1}"
            )
        index = self._key(perm)
        order = np.argsort(index)
        return CheckerboardCopula._from_cells(
            tuple(self.resolutions[a] for a in perm), index[order], self.cell_mass[order]
        )

    def validate(self) -> ValidationReport:
        """Diagnostics for nonnegativity, total mass, and marginal uniformity.

        Never raises; inspect ``passed`` or use :func:`require_valid`.  The
        report depends on the cells alone, so it is computed once per copula
        and kept in its memo.
        """
        return self._memoized("validate", self._validation_report)

    def _validation_report(self) -> ValidationReport:
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
class GroupSplit:
    """Partition of the axes into a conditioning block and a target block."""

    u_axes: tuple[int, ...]
    v_axes: tuple[int, ...]

    def __post_init__(self):
        u, v = _check_axes(self.u_axes), _check_axes(self.v_axes)
        if set(u) & set(v):
            raise InvalidArgumentError(f"blocks overlap: {sorted(set(u) & set(v))}")
        object.__setattr__(self, "u_axes", u)
        object.__setattr__(self, "v_axes", v)

    def check_covers(self, dims: int) -> None:
        if sorted(self.u_axes + self.v_axes) != list(range(dims)):
            raise InvalidArgumentError(
                f"split {self.u_axes} | {self.v_axes} does not cover axes 0..{dims - 1}"
            )


# ----------------------------------------------------------------------
# reference constructions
# ----------------------------------------------------------------------


def independence_copula(resolutions) -> CheckerboardCopula:
    """Product copula: every cell carries the product of the axis widths."""
    res = _check_resolutions(resolutions)
    n = math.prod(res)
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
    res = _check_resolutions((resolution,) * _count(dims, "dims", least=2))
    m = res[0]
    stride = sum(_strides(res))  # one step along every axis at once
    diagonal = np.arange(m, dtype=np.int64) * stride
    return require_valid(
        CheckerboardCopula._from_cells(res, diagonal, np.full(m, 1.0 / m)),
        "comonotone_copula",
    )


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


#: The keys of a copula file, which are the only strings it holds (see README).
_FIELDS = ("dims", "resolutions", "mass")

#: Every byte but the marks ``load_copula`` counts: brackets, quotes, the
#: first letters of ``true`` and ``false``, and the escape character.
_UNMARKED = bytes(sorted(set(range(256)) - set(b'[{"tf\\')))


def save_copula(copula: CheckerboardCopula, path) -> None:
    """Write ``copula`` as compact JSON."""
    import orjson  # here, so importing the package does not load it (~7 ms, ~0.6 MB)

    payload = {
        "dims": copula.dims,
        "resolutions": list(copula.resolutions),
        "mass": copula.mass.tolist(),
    }
    Path(path).write_bytes(orjson.dumps(payload))


def _json_int(value) -> bool:
    """Whether ``value`` is what orjson reads from a JSON integer below 2**63;
    orjson reads an integer past 64 bits as a float."""
    return type(value) is int and value < 2**63


#: A JSON string, its body as group 1 and the colon after it, if any, as
#: group 2.  An unterminated string runs to the end, so no quote starts a
#: second scan of the bytes after it.
_STRING = re.compile(rb'"([^"\\]*(?:\\.[^"\\]*)*)"?([ \t\n\r]*:)?', re.S)


def _repeated_keys(data: bytes) -> str:
    """The schema keys that ``data`` gives before a colon more than once,
    escapes decoded, as "key 'mass', ..."; empty when there is none."""
    import orjson

    keys = []
    for match in _STRING.finditer(data):
        if match.group(2):
            try:
                keys.append(orjson.loads(b'"%s"' % match.group(1)))
            except orjson.JSONDecodeError:  # not UTF-8, or a bad escape
                pass
    return ", ".join(f"key {key!r}" for key in _FIELDS if keys.count(key) > 1)


def load_copula(path) -> CheckerboardCopula:
    """Read a copula file: a JSON object with exactly the keys ``dims``,
    ``resolutions`` and ``mass``, the mass a flat list of numbers.

    Anything else is an InvalidArgumentError naming the file; a mass that
    is not a copula is a CopulaValidationError naming it.
    """
    import orjson  # here, so importing the package does not load it (~7 ms, ~0.6 MB)

    data = Path(path).read_bytes()
    # The schema's only strings are its three keys, so a file of it holds one
    # "{", two "[", six '"' and, unless a key is spelled with escapes, the one
    # "t" of "resolutions".  Refusing more brackets keeps deep nesting away
    # from orjson, which has no depth limit and overflows the C stack.
    marks = data.translate(None, _UNMARKED)
    brackets = marks.count(b"[") + marks.count(b"{")
    if brackets > 3:
        # Only a list-valued key given twice adds brackets to a schema file;
        # say so rather than count them.
        twice = _repeated_keys(data)
        if twice:
            raise InvalidArgumentError(f"{path} is not a copula file: {twice} given more than once")
        raise InvalidArgumentError(
            f"{path} is not a copula file: it holds {brackets} '[' and '{{' bytes, where"
            " one object with flat resolutions and mass lists holds 3"
        )
    try:
        payload = orjson.loads(data)
    except orjson.JSONDecodeError as exc:  # not UTF-8, or not JSON
        raise InvalidArgumentError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidArgumentError(
            f"{path} is not a copula file: expected a JSON object with keys {', '.join(_FIELDS)}"
        )
    problems = [f"unknown key {key!r}" for key in sorted(payload.keys() - set(_FIELDS))]
    problems += [f"missing key {key!r}" for key in _FIELDS if key not in payload]
    if problems:
        raise InvalidArgumentError(f"{path} is not a copula file: {', '.join(problems)}")
    dims, resolutions, mass = (payload[key] for key in _FIELDS)
    if not _json_int(dims):
        raise InvalidArgumentError(
            f"{path}: dims must be a JSON integer below 2**63, got {dims!r}"
        )
    if not isinstance(resolutions, list) or not all(map(_json_int, resolutions)):
        raise InvalidArgumentError(
            f"{path}: resolutions must be a list of JSON integers below 2**63, got {resolutions!r}"
        )
    cells = np.asarray(mass) if isinstance(mass, list) else None
    if cells is None or cells.ndim != 1 or cells.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"{path}: mass must be a flat list of JSON numbers")
    # Past the checks above every string is a key, so more than six quotes
    # mean a key given twice, whose last value orjson keeps.
    if marks.count(b'"') > 6:
        raise InvalidArgumentError(
            f"{path} is not a copula file: {_repeated_keys(data)} given more than once"
        )
    # np.asarray reads a true or false among numbers as 1 or 0.  Outside the
    # keys a "t" or "f" begins one; a key spelled with escapes may hide the
    # "t" of "resolutions", so then look at the parsed values.
    if b"\\" in marks:
        booleans = any(type(value) is bool for value in mass)
    else:
        booleans = b"f" in marks or marks.count(b"t") > 1
    if booleans:
        raise InvalidArgumentError(f"{path}: mass must be JSON numbers, not true or false")
    try:
        res = _check_resolutions(resolutions)
        if dims != len(res):
            raise InvalidArgumentError(f"dims {dims} does not match {len(res)} resolutions")
        copula = CheckerboardCopula(res, cells)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc
    except CopulaValidationError as exc:
        raise CopulaValidationError(f"{path}: {exc}", report=exc.report) from exc
    return copula
