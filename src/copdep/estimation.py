"""From raw samples to a fitted checkerboard copula.

The pipeline is rank-based: each column is replaced by its normalized ranks
(the empirical probability-integral transform), the ranked points are binned
on the grid, and iterative proportional fitting restores exact marginal
uniformity.  Because only ranks enter, every strictly increasing per-column
transform of the raw data yields the identical copula, and hence identical
downstream measures.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateMarginalError,
    InsufficientDataError,
    InvalidArgumentError,
    InvalidDataError,
    RebalanceError,
)
from .grid import CheckerboardCopula, _check_resolutions, require_valid

#: Worst marginal deviation tolerated after rebalancing.
IPF_TOL = 1e-10
IPF_MAX_SWEEPS = 1000


@dataclass(frozen=True, eq=False, repr=False)
class PseudoObservations:
    """Rank-transformed sample matrix with entries strictly inside (0, 1).

    Column j of ``values`` is the permutation of (i - 0.5)/N induced by the
    sort order of the raw column (ties broken by ascending row index).
    ``tie_counts[j]`` records how many rows in column j shared a value with
    an earlier row; nonzero counts mean the continuity assumption behind the
    rank transform is violated.
    """

    values: np.ndarray
    tie_counts: tuple[int, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tie_counts", tuple(int(t) for t in self.tie_counts))

    def __repr__(self) -> str:
        return f"PseudoObservations(n_rows={self.n_rows}, n_cols={self.n_cols})"

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True)
class ResolutionPolicy:
    """How to pick the grid resolution when fitting.

    ``automatic`` uses m = clamp(floor(N^(1/(d+1))), min_m, max_m) on every
    axis, balancing cell count against per-cell sample count.  No estimator
    theory backs this exponent; it is a documented placeholder that callers
    can override with ``fixed`` mode.
    """

    mode: str = "automatic"
    fixed_m: int | None = None
    min_m: int = 2
    max_m: int = 128

    def __post_init__(self):
        if self.mode not in ("fixed", "automatic"):
            raise InvalidArgumentError(f"unknown resolution mode {self.mode!r}")
        if not 2 <= self.min_m <= self.max_m:
            raise InvalidArgumentError(
                f"need 2 <= min_m <= max_m, got {self.min_m}, {self.max_m}"
            )
        if self.mode == "fixed":
            if self.fixed_m is None or int(self.fixed_m) < 1:
                raise InvalidArgumentError("fixed mode requires a positive fixed_m")


def pseudo_observations(data) -> PseudoObservations:
    """Column-wise normalized ranks (rank - 0.5)/N, ties broken by row order.

    Raises InsufficientDataError for fewer than two rows and
    InvalidDataError (with the offending column) for non-finite entries.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D sample matrix, got shape {arr.shape}")
    n, d = arr.shape
    if n < 2:
        raise InsufficientDataError(f"need at least 2 rows, got {n}")
    bad = ~np.isfinite(arr)
    if bad.any():
        col = int(np.argwhere(bad.any(axis=0)).ravel()[0])
        raise InvalidDataError(f"non-finite value in column {col}", column=col)
    out = np.empty_like(arr)
    ties = []
    for j in range(d):
        col = arr[:, j]
        # Without ties the sorting permutation is unique, so the fast default
        # sort gives the same ranks; ties need the stable sort's row order.
        order = np.argsort(col)
        ordered = col[order]
        tied = int(np.count_nonzero(ordered[1:] == ordered[:-1]))
        if tied:
            order = np.argsort(col, kind="stable")
        ranks = np.empty(n, dtype=np.float64)
        ranks[order] = np.arange(n, dtype=np.float64)
        out[:, j] = (ranks + 0.5) / n
        ties.append(tied)
    total_ties = sum(ties)
    if total_ties:
        warnings.warn(
            f"{total_ties} tied value(s) across columns; ranks broken by row order",
            RuntimeWarning,
            stacklevel=2,
        )
    return PseudoObservations(out, tuple(ties))


def choose_resolution(n_rows: int, dims: int, policy: ResolutionPolicy) -> tuple[int, ...]:
    """Per-axis resolutions under the given policy."""
    if n_rows < 2 or dims < 2:
        raise InvalidArgumentError(f"need n_rows >= 2 and dims >= 2, got {n_rows}, {dims}")
    if policy.mode == "fixed":
        return (int(policy.fixed_m),) * dims
    # Guard against floor(x ** (1/k)) landing one below an exact power.
    m = int(float(n_rows) ** (1.0 / (dims + 1)) + 1e-9)
    m = min(max(m, policy.min_m), policy.max_m)
    return (m,) * dims


def fit_checkerboard(
    pseudo: PseudoObservations,
    resolutions,
    *,
    max_resolution: int = 128,
) -> CheckerboardCopula:
    """Bin pseudo-observations on the grid and rebalance the marginals.

    Cell masses start as bin counts divided by N; a point exactly on an
    interior cell boundary belongs to the upper cell (this cannot happen
    with the (i - 0.5)/N ranks when the resolution divides N).  Only the
    occupied cells are stored, so the grid size is limited by the int64
    flat index alone (fewer than 2**63 cells).
    """
    res = tuple(int(m) for m in resolutions)
    if len(res) != pseudo.n_cols:
        raise InvalidArgumentError(
            f"{len(res)} resolutions for {pseudo.n_cols} columns"
        )
    if any(m < 1 for m in res):
        raise InvalidArgumentError(f"resolutions must be positive, got {res}")
    if any(m > max_resolution for m in res):
        raise InvalidArgumentError(
            f"resolution {max(res)} exceeds the maximum {max_resolution}"
        )
    _check_resolutions(res)
    n = pseudo.n_rows
    idx = np.zeros(n, dtype=np.int64)
    for j, m in enumerate(res):
        cells = np.minimum(np.floor(pseudo.values[:, j] * m).astype(np.int64), m - 1)
        idx = idx * m + cells
    occupied, counts = np.unique(idx, return_counts=True)
    raw = CheckerboardCopula._from_cells(res, occupied, counts / n)
    return require_valid(rebalance_marginals(raw), "fit_checkerboard")


def rebalance_marginals(
    copula: CheckerboardCopula,
    tol: float = IPF_TOL,
    max_sweeps: int = IPF_MAX_SWEEPS,
) -> CheckerboardCopula:
    """Iterative proportional fitting toward uniform marginals.

    Each sweep rescales every axis once so that all slab sums hit 1/m.
    Rescaling preserves nonnegativity and keeps empty cells empty, so only
    the stored cells are touched; a zero-mass slab cannot be rescaled and
    raises DegenerateMarginalError.  Returns the input object unchanged
    when the marginals are already within tolerance.
    """
    mass = copula.cell_mass
    if mass.size and float(mass.min()) < 0.0:
        raise InvalidArgumentError("rebalancing requires nonnegative masses")
    if abs(float(mass.sum()) - 1.0) > 1e-6:
        raise InvalidArgumentError("rebalancing requires total mass 1")

    res = copula.resolutions
    coords = [copula._key((axis,)) for axis in range(len(res))]

    def slab_sums(axis, values):
        return np.bincount(coords[axis], weights=values, minlength=res[axis])

    def worst_error(values):
        return max(
            float(np.abs(slab_sums(axis, values) - 1.0 / m).max())
            for axis, m in enumerate(res)
        )

    if worst_error(mass) < tol:
        return copula
    mass = mass.copy()
    for _ in range(max_sweeps):
        for axis, m in enumerate(res):
            slabs = slab_sums(axis, mass)
            if np.any(slabs <= 0.0):
                j = int(np.argwhere(slabs <= 0.0).ravel()[0])
                raise DegenerateMarginalError(
                    f"axis {axis} slab {j} has zero mass; cannot rescale"
                )
            mass *= ((1.0 / m) / slabs)[coords[axis]]
        if worst_error(mass) < tol:
            return CheckerboardCopula._from_cells(res, copula.cell_index, mass)
    residual = worst_error(mass)
    raise RebalanceError(
        f"marginals still off by {residual:.3e} after {max_sweeps} sweeps", residual
    )


# ----------------------------------------------------------------------
# CSV input
# ----------------------------------------------------------------------


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _header(row: list[str]) -> list[str] | None:
    """The row's stripped tokens when any of them is not a number, else None."""
    if any(not _is_number(tok) for tok in row):
        return [tok.strip() for tok in row]
    return None


def _select_columns(columns, header, width: int) -> list[int]:
    """0-based indices of the requested columns (all of them when None)."""
    if columns is None:
        return list(range(width))
    sel = []
    for c in columns:
        if isinstance(c, int) or (isinstance(c, str) and c.strip().lstrip("-").isdigit()):
            j = int(c)
        elif header is not None and c in header:
            j = header.index(c)
        else:
            raise InvalidArgumentError(f"unknown column {c!r} (header: {header})")
        if not 0 <= j < width:
            raise InvalidArgumentError(f"column index {j} out of range 0..{width - 1}")
        sel.append(j)
    return sel


def _column_names(header, width: int, sel: list[int]) -> list[str]:
    """Names of the selected columns; the header must be as wide as the data."""
    if header is None:
        return [str(j) for j in sel]
    if len(header) != width:
        raise InvalidDataError(
            f"header has {len(header)} fields but data rows have {width}"
        )
    return [header[j] for j in sel]


def read_csv(path, columns=None) -> tuple[np.ndarray, list[str]]:
    """Read a numeric CSV, optionally selecting columns by name or 0-based index.

    The first row is treated as a header when any of its tokens is not a
    number.  Returns the selected matrix and the resolved column names.

    Plain files are parsed by ``np.loadtxt``.  Anything it refuses (quoted
    fields, tokens only ``float`` accepts, ragged or non-numeric rows, a
    leading blank line) goes through a row-by-row reader, which either
    accepts the file or raises the typed error naming the row and column.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        first = next(csv.reader(fh), [])
    if first:
        header = _header(first)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(
                    path,
                    delimiter=",",
                    skiprows=1 if header is not None else 0,
                    comments=None,
                    ndmin=2,
                    encoding="utf-8",
                )
        except ValueError:  # also UnicodeDecodeError; the row-by-row reader reports it
            data = None
        if data is not None and data.size:
            width = data.shape[1]
            sel = _select_columns(columns, header, width)
            return data.take(sel, axis=1), _column_names(header, width, sel)
    return _read_csv_rows(path, columns)


def _read_csv_rows(path: Path, columns) -> tuple[np.ndarray, list[str]]:
    """Row-by-row reader behind ``read_csv``; it names the row and column of a bad cell."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise InsufficientDataError(f"{path} is empty")
    header = _header(rows[0])
    if header is not None:
        rows = rows[1:]
    if not rows:
        raise InsufficientDataError(f"{path} has a header but no data rows")
    width = len(rows[0])
    sel = _select_columns(columns, header, width)
    data = np.empty((len(rows), len(sel)), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InvalidDataError(f"row {i} has {len(row)} fields, expected {width}")
        for k, j in enumerate(sel):
            try:
                data[i, k] = float(row[j])
            except ValueError as exc:
                name = header[j] if header is not None and j < len(header) else str(j)
                raise InvalidDataError(
                    f"non-numeric value {row[j]!r} at row {i}, column {name}",
                    column=name,
                ) from exc
    return data, _column_names(header, width, sel)
