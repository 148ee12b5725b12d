"""From raw samples to a fitted checkerboard copula.

The pipeline is rank-based: each column is replaced by its rank intervals
(a tied group of rows shares one interval), and every row spreads its mass
uniformly over the box of its intervals.  The grid cells collect that mass
exactly, so every marginal is uniform by construction.  Because only ranks
enter, every strictly increasing per-column transform of the raw data
yields the identical copula, and hence identical downstream measures.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, InvalidDataError
from .grid import CheckerboardCopula, _check_resolutions, _compress, _prod, _scatter, require_valid

#: Most (box, cell) parts, about 60 bytes each, that a fit may split boxes into.
MAX_BOX_PARTS = 2**22


@dataclass(frozen=True, eq=False, repr=False)
class PseudoObservations:
    """Rank-transformed sample matrix with entries strictly inside (0, 1).

    Entry (i, j) of ``values`` is the mid-rank (lo + hi) / 2N of row i's rank
    interval [lo, hi) in column j: [r, r + 1) for rank r, shared by a tied
    group.  ``tie_counts[j]`` records how many rows in column j shared a
    value with an earlier row; nonzero counts mean the continuity assumption
    behind the rank transform is violated.
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
    """Column-wise normalized mid-ranks; tied rows share one rank interval.

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
    del bad
    out = np.empty_like(arr)
    ties = []
    for j in range(d):
        col = arr[:, j]
        order = np.argsort(col)
        ordered = col[order]
        same = ordered[1:] == ordered[:-1]
        tied = int(np.count_nonzero(same))
        twice_mid = np.arange(1, 2 * n, 2)  # lo + hi of each interval, in sorted order
        if tied:
            lo = np.flatnonzero(np.r_[True, ~same])
            hi = np.r_[lo[1:], n]
            twice_mid = np.repeat(lo + hi, hi - lo)
        del ordered, same
        out[:, j] = _scatter(order, twice_mid / (2 * n), n)
        ties.append(tied)
    total_ties = sum(ties)
    if total_ties:
        warnings.warn(
            f"{total_ties} tied value(s) across columns; tied rows share one rank interval",
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
    """The checkerboard approximation of the empirical copula (Li, Mikusinski,
    Sherwood & Taylor 1997; for ties, Genest, Neslehova & Remillard 2014).

    Each row spreads 1/N uniformly over the box of its rank intervals and each
    cell gets the part of every box inside it, so every slab holds exactly 1/m.
    Split boxes are summed in sorted order, so no mass depends on the row order.
    """
    res = _check_resolutions(resolutions)
    if len(res) != pseudo.n_cols:
        raise InvalidArgumentError(f"{len(res)} resolutions for {pseudo.n_cols} columns")
    if max(res) > max_resolution:
        raise InvalidArgumentError(f"resolution {max(res)} exceeds the maximum {max_resolution}")
    n = pseudo.n_rows
    first = np.zeros(n, dtype=np.int64)
    scratch = np.empty((2, n), dtype=np.int64)
    crossing = []
    for j, m in enumerate(res):
        crossing.append(_add_axis(first, pseudo.values[:, j], pseudo.tie_counts[j], m, scratch, j))
    del scratch
    if _prod(res) > 2 * n:
        cells, mass = np.unique(first, return_counts=True)
    else:
        mass = np.bincount(first, minlength=_prod(res))
        cells = np.flatnonzero(mass)
        mass = mass[cells]
    mass = mass.astype(np.float64)
    if any(rows.size for rows, _, _ in crossing):
        moved, count, parts, shares = _split_boxes(res, n, first, crossing)
        np.subtract.at(mass, np.searchsorted(cells, moved), count)  # they count by their parts
        cells, at = np.unique(np.concatenate([cells, parts]), return_inverse=True)
        mass = np.bincount(at, weights=np.concatenate([mass, shares]))
    return require_valid(CheckerboardCopula._from_cells(res, cells, mass / n), "fit_checkerboard")


def _add_axis(first, column, tied: int, m: int, scratch, j: int):
    """Append axis ``j`` to each row's first-cell flat index.  In units of 1/(N m),
    where cell c is [c N, (c + 1) N), returns the rows whose rank interval
    crosses a cell edge and, per cell, the start and length of the one that does.

    A column without ties must hold the mid-ranks (r + 1/2) / N, r = 0..N-1.
    """
    n = column.size
    start, cell = scratch
    crosses = np.zeros(n, dtype=bool)  # by interval start, in units of 1/N
    if tied:
        _, group, size = np.unique(column, return_inverse=True, return_counts=True)
        lo = np.cumsum(size) - size
        crosses[lo[lo * m // n < ((lo + size) * m - 1) // n]] = True
        np.take(lo, group, out=start)
    else:  # the cast truncates lo + 0.5; edge k N / m is inside [lo, lo + 1) if k N % m > 0
        with np.errstate(invalid="ignore"):  # NaN casts to some integer, rejected below
            np.multiply(column, n, out=start, casting="unsafe")
        ranks = n > 0 and 0 <= start.min() and start.max() < n
        if ranks:
            crosses[start] = True
        # Ranks 0..N-1 once each, and above 0 at rank 0, put every value in (0, 1).
        if not (ranks and crosses.all() and column[start.argmin()] > 0.0):
            raise InvalidArgumentError(
                f"column {j} is recorded without ties but is not a permutation of the"
                " mid-ranks (r + 1/2) / N that pseudo_observations returns"
            )
        crosses[:] = False
        edge = np.arange(1, m) * n
        crosses[edge[edge % m > 0] // m] = True
    rows = np.flatnonzero(crosses[start])
    start *= m
    np.floor_divide(start, n, out=cell)
    first *= m
    first += cell
    out_start, out_length = np.zeros((2, m), dtype=np.int64)
    out_start[cell[rows]] = start[rows]
    out_length[cell[rows]] = m * (size[group[rows]] if tied else 1)
    return rows, out_start, out_length


def _split_boxes(res, n: int, first, crossing):
    """First cell and row count of each box of the rows that cross an edge,
    and the cells the boxes meet with their masses in units of 1/N.  An
    interval that crosses no edge is replaced by its whole cell, so a box is
    known by its first cell and the axes it crosses on; each is expanded once,
    in key order.
    """
    d = len(res)
    bits = np.zeros(n, dtype=np.int64)  # a bit per axis the row's interval crosses on
    for j, (rows, _, _) in enumerate(crossing):
        bits[rows] += 1 << j
    rows = np.flatnonzero(bits)
    firsts, rank = _compress(first[rows], _prod(res))
    if firsts.size << d >= 2**63:
        raise InvalidArgumentError(
            f"{firsts.size} first cells of split rank boxes on {d} axes overflow an int64 key"
        )
    key, count = np.unique((rank << d) + bits[rows], return_counts=True)
    moved = firsts[key >> d]
    cell = np.array(np.unravel_index(moved, res))
    out = (key >> np.arange(d)[:, None]) & 1
    start = np.array([np.where(o, s[c], c * n) for (_, s, _), c, o in zip(crossing, cell, out)])
    length = np.array([np.where(o, w[c], n) for (_, _, w), c, o in zip(crossing, cell, out)])
    span = (start + length - 1) // n - cell + 1
    if np.prod(span, axis=0, dtype=np.float64).sum() > MAX_BOX_PARTS:
        raise InvalidArgumentError(
            f"rank boxes split into over {MAX_BOX_PARTS} parts at {res}; use a lower resolution"
        )
    box = np.arange(count.size)
    index = np.zeros(count.size, dtype=np.int64)
    weight = count.astype(np.float64)
    for j, m in enumerate(res):
        size = span[j, box]
        pick = np.repeat(np.arange(box.size), size)
        box = box[pick]
        part = cell[j, box] + np.arange(pick.size) - np.repeat(np.cumsum(size) - size, size)
        lo, width = start[j, box], length[j, box]
        overlap = np.minimum(lo + width, (part + 1) * n) - np.maximum(lo, part * n)
        weight = weight[pick] * (overlap / width)
        index = index[pick] * m + part
    cells, at = np.unique(index, return_inverse=True)
    return moved, count, cells, np.bincount(at, weights=weight, minlength=cells.size)


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
    first = _csv_rows(path, 1)
    if first and first[0]:
        header = _header(first[0])
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


def _csv_rows(path: Path, limit: int | None = None) -> list[list[str]]:
    """The first ``limit`` rows of a UTF-8 CSV file (every row when None);
    a blank line is an empty row."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            return list(itertools.islice(csv.reader(fh), limit))
    except UnicodeDecodeError as exc:
        raise InvalidDataError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_csv_rows(path: Path, columns) -> tuple[np.ndarray, list[str]]:
    """Row-by-row reader behind ``read_csv``; it names the row and column of a bad cell."""
    rows = [row for row in _csv_rows(path) if row]
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
