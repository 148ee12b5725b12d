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
import math
import operator
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, InvalidDataError, _count
from .grid import CheckerboardCopula, _check_resolutions, _compress, require_valid

#: Most (box, cell) parts, about 60 bytes each, that a fit may split boxes into.
MAX_BOX_PARTS = 2**22


@dataclass(frozen=True, eq=False, repr=False, init=False)
class PseudoObservations:
    """A sample's rank intervals, one per entry.

    ``intervals[j, 0, i]`` and ``intervals[j, 1, i]`` are the ends of row i's
    rank interval [lo, hi) in column j, in units of 1/N: [r, r + 1) for rank
    r, shared by a tied group.  The array is read-only int32 of shape
    (d, 2, N), so a sample needs fewer than 2**31 rows.  ``tie_counts[j]``
    records how many rows in column j shared a value with an earlier row;
    nonzero counts mean the continuity assumption behind the rank transform
    is violated.

    ``values`` is the (N, d) matrix of mid-ranks (lo + hi) / 2N, strictly
    inside (0, 1): a new read-only array on each access, with contiguous
    columns.  Only ``pseudo_observations(data)`` builds one, so every
    instance is a ranking.
    """

    intervals: np.ndarray
    tie_counts: tuple[int, ...]

    def __init__(self, *args, **kwargs):
        raise InvalidArgumentError("build PseudoObservations with pseudo_observations(data)")

    @classmethod
    def _from_intervals(cls, intervals: np.ndarray, tie_counts) -> PseudoObservations:
        """From a (d, 2, N) int32 array of rank intervals that no one else holds; no copy."""
        pseudo = object.__new__(cls)
        intervals.setflags(write=False)
        object.__setattr__(pseudo, "intervals", intervals)
        object.__setattr__(pseudo, "tie_counts", tuple(tie_counts))
        return pseudo

    def __repr__(self) -> str:
        return f"PseudoObservations(n_rows={self.n_rows}, n_cols={self.n_cols})"

    @property
    def values(self) -> np.ndarray:
        mids = _mid_ranks(self.intervals)
        mids.setflags(write=False)
        return mids.T

    @property
    def n_rows(self) -> int:
        return int(self.intervals.shape[2])

    @property
    def n_cols(self) -> int:
        return int(self.intervals.shape[0])


@dataclass(frozen=True)
class ResolutionPolicy:
    """How to pick the grid resolution when fitting.

    ``automatic`` uses m = clamp(floor(N^(1/(d+1))), 2, max_m) on every
    axis, balancing cell count against per-cell sample count.  No estimator
    theory backs this exponent; it is a documented placeholder that callers
    can override with ``fixed`` mode, which uses ``fixed_m`` on every axis.
    ``fixed_m`` is given in fixed mode and only there; like ``max_m`` it is
    at least 2, since at m = 1 every measure is 0 whatever the data.
    """

    mode: str = "automatic"
    fixed_m: int | None = None
    max_m: int = 128

    def __post_init__(self):
        if self.mode not in ("fixed", "automatic"):
            raise InvalidArgumentError(f"unknown resolution mode {self.mode!r}")
        object.__setattr__(self, "max_m", _count(self.max_m, "max_m", least=2))
        if (self.mode == "fixed") != (self.fixed_m is not None):
            raise InvalidArgumentError(
                f"fixed_m is required in fixed mode and read nowhere else;"
                f" got {self.fixed_m!r} in {self.mode} mode"
            )
        if self.fixed_m is not None:
            object.__setattr__(self, "fixed_m", _count(self.fixed_m, "fixed_m", least=2))


def pseudo_observations(data) -> PseudoObservations:
    """Column-wise rank intervals; tied rows share one.

    Each column is copied into its own slot of the interval buffer and
    ranked there, so beside the input and the output it holds a column of
    sort order, one half column of interval ends and a boolean column,
    whatever the ties.  The caller's array is not changed.
    Raises InsufficientDataError for fewer than two rows, InvalidArgumentError
    for 2**31 rows or more, and InvalidDataError for non-numeric entries and,
    with the offending column, for non-finite ones.
    """
    return _rank_slots(_column_slots(data))


def _sample_matrix(data) -> np.ndarray:
    """``data`` as a float64 array; InvalidDataError where numpy cannot make one."""
    try:
        return np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidDataError(f"sample is not a numeric matrix: {exc}") from exc


def _column_slots(data) -> np.ndarray:
    """The first step of ranking: the (d, 2, N) int32 interval buffer of an
    (N, d) sample, with column j copied into slot j as N float64s (two int32
    ends take 8 bytes, like one float64).  The buffer holds all that ranking
    reads, so a caller may drop the sample before ``_rank_slots``."""
    arr = _sample_matrix(data)
    if arr.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D sample matrix, got shape {arr.shape}")
    n, d = arr.shape
    if n < 2:
        raise InsufficientDataError(f"need at least 2 rows, got {n}")
    if n >= 2**31:
        raise InvalidArgumentError(f"{n} rows; int32 rank intervals need fewer than 2**31")
    out = np.empty((d, 2, n), dtype=np.int32)
    for j, ends in enumerate(out):
        ends.reshape(-1).view(np.float64)[:] = arr[:, j]
    return out


def _rank_slots(out: np.ndarray) -> PseudoObservations:
    """The second step of ranking: replaces each slot of ``_column_slots``
    by its column's rank intervals and warns if any rows are tied."""
    n = out.shape[2]
    new = np.empty(n, dtype=bool)  # whether each sorted value starts a tie group
    new[0] = True
    ties = []
    for j, ends in enumerate(out):
        row = ends.reshape(-1).view(np.float64)
        order = np.argsort(row)
        row.sort()  # in place: np.take over its own input would buffer a copy
        if not (np.isfinite(row[0]) and np.isfinite(row[-1])):  # NaN sorts last
            raise InvalidDataError(f"non-finite value in column {j}", column=j)
        np.not_equal(row[1:], row[:-1], out=new[1:])
        ties.append(n - int(np.count_nonzero(new)))
        # Sorted position k lies in its tie group's interval [lo, hi): lo is the
        # last group start at or before k, and n - hi the same in reversed order.
        # Once ``new`` holds the groups the slot is free for the ends; each is
        # scattered before the next is made.
        lo = np.arange(n, dtype=np.int32)
        lo *= new
        np.maximum.accumulate(lo, out=lo)
        ends[0, order] = lo
        del lo
        back = np.arange(n, dtype=np.int32)
        back[1:] *= new[:0:-1]
        np.maximum.accumulate(back, out=back)
        np.subtract(n, back, out=back)
        ends[1, order] = back[::-1]
        del order, back
    total_ties = sum(ties)
    if total_ties:
        warnings.warn(
            f"{total_ties} tied value(s) across columns; tied rows share one rank interval",
            RuntimeWarning,
            stacklevel=3,
        )
    return PseudoObservations._from_intervals(out, ties)


def _mid_ranks(intervals: np.ndarray) -> np.ndarray:
    """The (d, N) float64 mid-ranks (lo + hi) / 2N of (d, 2, N) rank intervals."""
    mids = np.add(intervals[:, 0], intervals[:, 1], dtype=np.float64)
    mids /= 2 * intervals.shape[2]
    return mids


def choose_resolution(n_rows: int, dims: int, policy: ResolutionPolicy) -> tuple[int, ...]:
    """Per-axis resolutions under the given policy."""
    n_rows, dims = _count(n_rows, "n_rows", least=2), _count(dims, "dims", least=2)
    if policy.mode == "fixed":
        return (policy.fixed_m,) * dims
    # Guard against floor(x ** (1/k)) landing one below an exact power.
    m = int(float(n_rows) ** (1.0 / (dims + 1)) + 1e-9)
    m = min(max(m, 2), policy.max_m)
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
    if max(res) > _count(max_resolution, "max_resolution"):
        raise InvalidArgumentError(f"resolution {max(res)} exceeds the maximum {max_resolution}")
    n = pseudo.n_rows
    first = np.zeros(n, dtype=np.int64)
    scratch = np.empty((2, n), dtype=np.int64)
    crossing = [_add_axis(first, lo, hi, m, scratch) for (lo, hi), m in zip(pseudo.intervals, res)]
    del scratch
    if math.prod(res) > 2 * n:
        cells, mass = np.unique(first, return_counts=True)
    else:
        mass = np.bincount(first, minlength=math.prod(res))
        cells = np.flatnonzero(mass)
        mass = mass[cells]
    mass = mass.astype(np.float64)
    if any(rows.size for rows, _, _ in crossing):
        moved, count, parts, shares = _split_boxes(res, n, first, crossing)
        np.subtract.at(mass, np.searchsorted(cells, moved), count)  # they count by their parts
        cells, at = np.unique(np.concatenate([cells, parts]), return_inverse=True)
        mass = np.bincount(at, weights=np.concatenate([mass, shares]))
    return require_valid(CheckerboardCopula._from_cells(res, cells, mass / n), "fit_checkerboard")


def _add_axis(first, lo, hi, m: int, scratch):
    """Append an axis of ``m`` cells to each row's first-cell flat index, given
    the rows' int32 rank intervals [lo, hi) in units of 1/N.  In units of
    1/(N m), where cell c is [c N, (c + 1) N) and an interval is [lo m, hi m),
    returns the rows whose interval crosses a cell edge and, per cell, the
    start and length of the one that does.
    """
    n = lo.size
    start, cell = scratch
    # int64 arithmetic throughout: lo m and hi m overflow int32 for large N m.
    np.multiply(hi, m, out=start, dtype=np.int64)
    start -= 1
    np.floor_divide(start, n, out=cell)
    cell *= n  # where the interval's last cell begins
    np.multiply(lo, m, out=start, dtype=np.int64)
    rows = np.flatnonzero(cell > start)  # it crosses an edge if that is after its start
    np.floor_divide(start, n, out=cell)
    first *= m
    first += cell
    out_start, out_length = np.zeros((2, m), dtype=np.int64)
    out_start[cell[rows]] = start[rows]
    out_length[cell[rows]] = np.multiply(hi[rows] - lo[rows], m, dtype=np.int64)
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
    firsts, rank = _compress(first[rows], math.prod(res))
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
    """0-based indices of the requested columns (all of them when None).  A
    column is a name, an integer (whatever ``operator.index`` accepts) or a
    string of digits."""
    if columns is None:
        return list(range(width))
    if isinstance(columns, str) or not hasattr(columns, "__iter__"):
        raise InvalidArgumentError(f"expected a sequence of columns, got {columns!r}")
    sel = []
    for c in columns:
        if isinstance(c, str) and c.strip().lstrip("-").isdigit():
            j = int(c)
        elif isinstance(c, str) and header is not None and c in header:
            j = header.index(c)
        else:
            try:
                j = operator.index(c)
            except TypeError:
                raise InvalidArgumentError(f"unknown column {c!r} (header: {header})") from None
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

    The first non-blank row is treated as a header when any of its tokens is
    not a number.  Returns the selected matrix and the resolved column names;
    when every column is selected in order, the matrix is the parsed array
    itself.

    ``csv.reader`` reads the header and the first data row, and ``np.loadtxt``
    parses the data rows, quoted fields and blank lines included.  When it
    refuses the file (tokens only ``float`` accepts, ragged or non-numeric
    rows, invalid UTF-8), the same reader reads on from the first data row,
    keeping only the selected cells, and either accepts the file or raises the
    typed error naming the row and column.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = filter(None, reader)  # a blank line is an empty row
            first = next(rows, None)
            if first is None:
                raise InsufficientDataError(f"{path} is empty")
            header = _header(first)
            skip = 0
            if header is not None:
                skip = reader.line_num  # loadtxt skips the blank lines after it
                first = next(rows, None)
                if first is None:
                    raise InsufficientDataError(f"{path} has a header but no data rows")
            width = len(first)
            sel = _select_columns(columns, header, width)
            try:
                data = np.loadtxt(
                    path,
                    delimiter=",",
                    skiprows=skip,
                    quotechar='"',
                    comments=None,
                    ndmin=2,
                    encoding="utf-8",
                )
            except ValueError:  # also UnicodeDecodeError, which reading on meets again
                data = _float_rows(itertools.chain([first], rows), width, sel, header)
            else:
                if sel != list(range(width)):
                    data = data.take(sel, axis=1)
    except UnicodeDecodeError as exc:
        raise InvalidDataError(f"{path} is not UTF-8 text: {exc}") from exc
    return data, _column_names(header, width, sel)


def _float_rows(rows, width: int, sel: list[int], header) -> np.ndarray:
    """The selected cells of one or more data rows as floats; a ragged row or
    a cell ``float`` refuses is an InvalidDataError naming its row (and column)."""
    values = array("d")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InvalidDataError(f"row {i} has {len(row)} fields, expected {width}")
        for j in sel:
            try:
                values.append(float(row[j]))
            except ValueError as exc:
                name = header[j] if header is not None and j < len(header) else str(j)
                raise InvalidDataError(
                    f"non-numeric value {row[j]!r} at row {i}, column {name}", column=name
                ) from exc
    return np.frombuffer(values).reshape(i + 1, len(sel))
