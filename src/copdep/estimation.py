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
import io
import itertools
import math
import operator
import re
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, InvalidDataError, _count
from .grid import CheckerboardCopula, _cell_sums, _check_resolutions, require_valid

#: Most (box, cell) parts, about 60 bytes each, that a fit may split boxes into.
MAX_BOX_PARTS = 2**22
#: Rows per block of a fit's axis step.
_FIT_BLOCK = 2**16
#: Rows per block of ranking's key, tie and scatter passes: 64 KB a temporary,
#: small beside a column of keys.
_RANK_BLOCK = 2**13


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
    ranked there by one in-place sort of packed (value, row) keys, so beside
    the input and the output it holds an int64 column of keys and a boolean
    column, and for a tied column also an int32 half column of interval
    ends.  The caller's array is not changed.
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
    (N, d) sample, with column j copied into slot j as N float64s.  The
    buffer holds all that ranking reads, so a caller may drop the sample
    before ``_rank_slots``."""
    arr = _sample_matrix(data)
    if arr.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D sample matrix, got shape {arr.shape}")
    _check_rows(arr.shape[0])
    matrix = _slot_matrix(*arr.shape)
    matrix[:] = arr
    return matrix.base


def _slot_matrix(n: int, d: int) -> np.ndarray:
    """A new (d, 2, n) int32 interval buffer, seen as the (n, d) float64
    matrix whose column j is slot j (two int32 ends take 8 bytes, like one
    float64); the buffer is the matrix's ``base``."""
    return np.empty((d, 2, n), dtype=np.int32).reshape(-1).view(np.float64).reshape(d, n).T


def _check_rows(n: int) -> None:
    """Raises unless a sample of ``n`` rows can be ranked: at least 2, below 2**31."""
    if n < 2:
        raise InsufficientDataError(f"need at least 2 rows, got {n}")
    if n >= 2**31:
        raise InvalidArgumentError(f"{n} rows; int32 rank intervals need fewer than 2**31")


def _rank_slots(out: np.ndarray) -> PseudoObservations:
    """The second step of ranking: replaces each slot of ``_column_slots``
    by its column's rank intervals and warns if any rows are tied."""
    _check_rows(out.shape[2])
    n = out.shape[2]
    new = np.empty(n, dtype=bool)  # whether each sorted value starts a tie group
    new[0] = True
    ties = []
    for j, ends in enumerate(out):
        row = ends.reshape(-1).view(np.float64)
        if not (np.isfinite(row.min()) and np.isfinite(row.max())):  # a NaN reaches both
            raise InvalidDataError(f"non-finite value in column {j}", column=j)
        order = _packed_order(row, new)
        if order is None:
            order = np.argsort(row)
            row.sort()  # in place: np.take over its own input would buffer a copy
            np.not_equal(row[1:], row[:-1], out=new[1:])
        ties.append(n - int(np.count_nonzero(new)))
        # Once ``new`` holds the groups the slot is free for the ends; each is
        # scattered before the next is made.
        if not ties[-1]:  # sorted position k is the interval [k, k + 1)
            for a in range(0, n, _RANK_BLOCK):
                part = order[a : a + _RANK_BLOCK]
                ends[0, part] = np.arange(a, a + part.size, dtype=np.int32)
            np.add(ends[0], 1, out=ends[1])
            del order, part
            continue
        # Sorted position k lies in its tie group's interval [lo, hi): lo is the
        # last group start at or before k, and n - hi the same in reversed order.
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


def _packed_order(row: np.ndarray, new: np.ndarray) -> np.ndarray | None:
    """The int64 sort order of the finite ``row``, with ``new[1:]`` set to
    whether each sorted value starts a tie group; None when more than 1/16
    of the rows would need the repair below.

    Each row's uint64 key holds the top bits of its value's image under
    ``_float_keys``, less the column minimum's, above its row index in the
    low b = bit_length(n - 1) bits, so one in-place sort of the keys orders
    the rows.  Rows come out of value order only within a run of equal
    prefixes: each run that holds a descent is sorted again by value.
    """
    n = row.size
    b = np.uint64((n - 1).bit_length())
    index = (np.uint64(1) << b) - np.uint64(1)
    low, high = _float_keys(np.array([row.min(), row.max()]))
    # the prefixes keep every bit of the column's own range that fits
    shift = np.uint64(max(0, int(high - low).bit_length() + int(b) - 64))
    key = np.empty(n, dtype=np.uint64)
    for a in range(0, n, _RANK_BLOCK):
        block = _float_keys(row[a : a + _RANK_BLOCK]) - low
        rows = np.arange(a, a + block.size, dtype=np.uint64)
        key[a : a + block.size] = block >> shift << b | rows
    key.sort()
    drops, limit = [], n // 16
    for a in range(1, n, _RANK_BLOCK):  # the blocks overlap by one sorted position
        values = row[(key[a - 1 : a + _RANK_BLOCK] & index).view(np.int64)]
        np.not_equal(values[1:], values[:-1], out=new[a : a + _RANK_BLOCK])
        drops.append(np.flatnonzero(values[1:] < values[:-1]) + a)
        limit -= drops[-1].size
        if limit < 0:
            return None
    drops = np.concatenate(drops)
    if drops.size:
        # the runs are in value order among themselves, so one argsort of
        # all their values sorts each of them
        prefix = np.unique(key[drops] >> b) << b
        start = np.searchsorted(key, prefix)
        size = np.searchsorted(key, prefix | index, side="right") - start
        total = int(size.sum())
        if total > n // 16:
            return None
        at = np.arange(total) + np.repeat(start - np.cumsum(size) + size, size)
        rows = key[at] & index
        values = row[rows.view(np.int64)]
        by_value = np.argsort(values)
        key[at] = rows[by_value]
        values = values[by_value]
        new[at[1:]] = values[1:] != values[:-1]  # a run's first value starts a group
    key &= index
    return key.view(np.int64)


def _float_keys(values: np.ndarray) -> np.ndarray:
    """The uint64 images of float64 ``values``, in the same order, with -0.0
    mapped as +0.0."""
    signed = (values + 0.0).view(np.int64)
    # below zero a larger magnitude is a smaller value: flip the magnitude bits
    signed ^= (signed >> np.int64(63)) & np.int64(2**63 - 1)
    keys = signed.view(np.uint64)
    keys ^= np.uint64(2**63)
    return keys


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
    crossing = [_add_axis(first, lo, hi, m) for (lo, hi), m in zip(pseudo.intervals, res)]
    cells, mass = _cell_sums(first, math.prod(res))
    mass = mass.astype(np.float64)
    if any(rows.size for rows, _, _ in crossing):
        moved, count, parts, shares = _split_boxes(res, n, first, crossing)
        np.subtract.at(mass, np.searchsorted(cells, moved), count)  # they count by their parts
        cells, mass = _cell_sums(
            np.concatenate([cells, parts]), math.prod(res), np.concatenate([mass, shares])
        )
    return require_valid(CheckerboardCopula._from_cells(res, cells, mass / n), "fit_checkerboard")


def _add_axis(first, lo, hi, m: int):
    """Append an axis of ``m`` cells to each row's first-cell flat index, given
    the rows' int32 rank intervals [lo, hi) in units of 1/N.  In units of
    1/(N m), where cell c is [c N, (c + 1) N) and an interval is [lo m, hi m),
    returns the rows whose interval crosses a cell edge and, per cell, the
    start and length of the one that does.  Rows go in blocks of
    ``_FIT_BLOCK``, so the int64 scratch is two blocks, not two columns.
    """
    n = lo.size
    out_start, out_length = np.zeros((2, m), dtype=np.int64)
    scratch = np.empty((2, min(n, _FIT_BLOCK)), dtype=np.int64)
    rows = []
    for b in range(0, n, _FIT_BLOCK):
        block_lo, block_hi = lo[b : b + _FIT_BLOCK], hi[b : b + _FIT_BLOCK]
        start, cell = scratch[:, : block_lo.size]
        # int64 arithmetic throughout: lo m and hi m overflow int32 for large N m.
        np.multiply(block_hi, m, out=start, dtype=np.int64)
        start -= 1
        np.floor_divide(start, n, out=cell)
        cell *= n  # where the interval's last cell begins
        np.multiply(block_lo, m, out=start, dtype=np.int64)
        crossed = np.flatnonzero(cell > start)  # it crosses an edge if that is after its start
        np.floor_divide(start, n, out=cell)
        block_first = first[b : b + block_lo.size]
        block_first *= m
        block_first += cell
        out_start[cell[crossed]] = start[crossed]
        out_length[cell[crossed]] = np.multiply(
            block_hi[crossed] - block_lo[crossed], m, dtype=np.int64
        )
        rows.append(crossed + b)
    return np.concatenate(rows), out_start, out_length


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
    firsts, numbered = first[rows], None
    if int(firsts.max()) << d >= 2**63:  # number the first cells in order, so a key fits
        numbered, firsts = np.unique(firsts, return_inverse=True)
        if numbered.size << d >= 2**63:
            raise InvalidArgumentError(
                f"{numbered.size} first cells of split rank boxes on {d} axes overflow an int64 key"
            )
    key, count = _cell_sums((firsts << d) + bits[rows], (int(firsts.max()) + 1) << d)
    moved = key >> d if numbered is None else numbered[key >> d]
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
    return moved, count, *_cell_sums(index, math.prod(res), weight)


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
    string of digits, and at least one is requested."""
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
    if not sel:
        raise InvalidArgumentError("expected at least one column, got none")
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


#: Bytes per binary read of a CSV's data rows.  A block of rows ends at the
#: last line end of a read.
_CSV_BLOCK = 2**18
#: The bytes of a JSON number, and the whitespace JSON allows around one.
_NUMBER_BYTES = b"0123456789+-.eE \t"
#: An integer -0, which orjson reads as 0 where ``float`` reads -0.0.
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")


def read_csv(path, columns=None) -> tuple[np.ndarray, list[str]]:
    """Read a numeric CSV, optionally selecting columns by name or 0-based index.

    The first non-blank row is treated as a header when any of its tokens is
    not a number.  Returns the selected columns as a new C-ordered float64
    matrix, and the resolved column names.

    ``csv.reader`` reads the header and the first data row, and the columns
    are checked against them before any other row is read.  A first binary
    pass counts the line ends, so the matrix is allocated once, and a second
    reads the data rows in blocks of about 256 KB, each parsed straight into
    the matrix.  A block whose every line is as many JSON numbers as the
    first data row has fields is read by orjson, to the same float64 values
    as ``float``.  Any other block (quoted fields, blank lines, tokens such
    as ``+1``, ``.5``, ``nan`` or ``1_000``, ragged or non-numeric rows) is
    read by ``csv.reader`` and ``float``, which accept it or raise the typed
    error naming the row and column.  A field longer than ``csv``'s limit of
    131,072 characters is an InvalidDataError naming the file.
    """
    data, rows, names = _read_csv(path, columns, lambda n, k: np.empty((n, k)))
    data.resize((rows, data.shape[1]), refcheck=False)  # blank lines were counted
    return data, names


def _csv_slots(path, columns) -> tuple[np.ndarray, list[str]]:
    """``_column_slots`` of the selected columns of a CSV, parsed straight
    into the interval buffer, and their names; see ``read_csv``."""
    data, n, names = _read_csv(path, columns, _slot_matrix)
    out = data.base
    del data
    d, _, size = out.shape
    if n < size:  # blank lines were counted: each slot moves down to its first n entries
        flat = out.reshape(-1).view(np.float64)
        for j in range(1, d):
            flat[j * n : (j + 1) * n] = flat[j * size : j * size + n]
        del flat
        out.resize((d, 2, n), refcheck=False)
    return out, names


def _read_csv(path, columns, allocate) -> tuple[np.ndarray, int, list[str]]:
    """The selected columns of a CSV in ``allocate(n, k)``, an (n, k) float64
    matrix with n no less than the data rows; how many rows it filled; and
    the columns' names."""
    path = Path(path)
    consumed = [0]  # bytes of the lines that csv.reader has taken

    def lines(fh):
        for line in fh:
            consumed[0] += len(line.encode("utf-8"))
            yield line

    try:
        with path.open(newline="", encoding="utf-8") as fh, path.open("rb") as raw:
            reader = csv.reader(lines(fh))
            rows = filter(None, reader)  # a blank line is an empty row
            first = next(rows, None)
            if first is None:
                raise InsufficientDataError(f"{path} is empty")
            header = _header(first)
            start = 0
            if header is not None:
                start = consumed[0]  # the data rows start after the header's lines
                first = next(rows, None)
                if first is None:
                    raise InsufficientDataError(f"{path} has a header but no data rows")
            width = len(first)
            sel = _select_columns(columns, header, width)
            raw.seek(start)
            out = allocate(_line_count(raw), len(sel))
            raw.seek(start)
            try:
                n = _parse_blocks(_blocks(raw), width, sel, header, out)
            except (ValueError, csv.Error):
                # reading the whole file row by row meets any bytes that are
                # not UTF-8, or that csv.reader refuses, before a bad cell
                for _ in rows:
                    pass
                raise
    except UnicodeDecodeError as exc:
        raise InvalidDataError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # a field over csv's limit of 131,072 characters
        raise InvalidDataError(f"{path} is not valid CSV: {exc}") from exc
    return out, n, _column_names(header, width, sel)


def _line_count(raw) -> int:
    """Lines from ``raw``'s position to its end: each line end (\\n, \\r\\n
    or a lone \\r) counts one, and so does a last line without one."""
    lines, last = 0, b"\n"
    while chunk := raw.read(_CSV_BLOCK):
        ends = np.frombuffer(chunk, dtype=np.uint8)
        lines += int(np.count_nonzero(ends == 10))
        if b"\r" in chunk:
            lines += int(np.count_nonzero(ends == 13)) - chunk.count(b"\r\n")
            lines -= last == b"\r" and chunk[:1] == b"\n"  # a \r\n split across reads
        last = chunk[-1:]
    return lines + (last not in (b"\n", b"\r"))


def _blocks(raw):
    """The bytes from ``raw``'s position to its end, in blocks that each end
    at the last line end of a read, but for the last.  A read without a \\n
    is cut at its last \\r, so a file whose lines end in \\r alone is not
    read whole; a read without either goes on into the next."""
    head = []  # the bytes read since the last line end
    while chunk := raw.read(_CSV_BLOCK):
        cut = (chunk.rfind(b"\n") + 1) or (chunk.rfind(b"\r") + 1)
        if cut:
            yield b"".join([*head, chunk[:cut]])
            head = []
        head.append(chunk[cut:])
    if block := b"".join(head):
        yield block


def _parse_blocks(blocks, width: int, sel: list[int], header, out) -> int:
    """Parses blocks of data rows into the rows of ``out`` and returns how
    many it read.  orjson reads a block of JSON numbers, and ``csv.reader``
    any other.  A block can end inside a quoted field; the row that holds
    it is carried into the next block, and is the only text carried."""
    n, text = 0, ""  # the row left open at the end of the block before
    for block in blocks:
        rows = None if text else _json_rows(block, width)
        if rows is not None:
            rows = rows[:, sel]
        else:
            rows, text = _float_rows(text + block.decode("utf-8"), width, sel, header, n)
        out[n : n + len(rows)] = rows
        n += len(rows)
    if text:  # the file ends inside a quoted field, which csv.reader closes
        rows, _ = _float_rows(text + '"\n', width, sel, header, n)
        out[n : n + len(rows)] = rows
        n += len(rows)
    return n


def _json_rows(block: bytes, width: int) -> np.ndarray | None:
    """The (r, width) float64 rows of a block whose every line is ``width``
    JSON numbers split by commas, read by orjson; None for any other block."""
    import orjson  # here, so importing the package does not load it (~7 ms, ~0.6 MB)

    if b"\r" in block:  # csv.reader ends a line at \r\n, \n or a lone \r
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    block = block.removesuffix(b"\n")
    seps = block.translate(None, _NUMBER_BYTES) + b"\n"  # commas, line ends, any other byte
    if seps != (b"," * (width - 1) + b"\n") * (len(seps) // width):
        return None  # a quote, a letter, a blank line, a line of another width, ...
    try:
        values = orjson.loads(b"[%s]" % block.replace(b"\n", b","))
    except orjson.JSONDecodeError:
        return None  # an empty field, or a token JSON refuses: +1, .5, 5., 00, 1e400
    if len(values) != len(seps):
        return None  # lines of whitespace, which JSON reads as no value at all
    rows = np.fromiter(values, dtype=np.float64, count=len(values)).reshape(-1, width)
    if not rows.all() and _INTEGER_MINUS_ZERO.search(block):
        return None  # orjson reads the integer -0 as +0.0
    return rows


def _float_rows(text: str, width: int, sel: list[int], header, n: int) -> tuple[np.ndarray, str]:
    """The selected cells of the data rows in ``text``, read by ``csv.reader``
    and ``float``, as an (r, len(sel)) float64 array, and the text of the
    row left open at its end by a quoted field that ``text`` does not close
    ("" when none is).  A ragged row or a cell ``float`` refuses is an
    InvalidDataError naming its row, where the first row of ``text`` is row
    ``n`` of the file (and its column)."""
    # after a line end, a quote opens a last row [""] unless a quoted field is
    # open; ``row`` runs one behind, so that last row is never converted, and
    # ``start`` counts the lines before it
    reader = csv.reader(io.StringIO(text + '\n"', newline=""))
    rows = filter(None, reader)  # a blank line is an empty row
    row, staged, start, end = next(rows), array("d"), 0, reader.line_num
    for i, following in enumerate(rows, n):
        if len(row) != width:
            raise InvalidDataError(f"row {i} has {len(row)} fields, expected {width}")
        for j in sel:
            try:
                staged.append(float(row[j]))
            except ValueError as exc:
                name = header[j] if header is not None and j < len(header) else str(j)
                raise InvalidDataError(
                    f"non-numeric value {row[j]!r} at row {i}, column {name}", column=name
                ) from exc
        row, start, end = following, end, reader.line_num
    parsed = np.frombuffer(staged).reshape(-1, len(sel))
    if row == [""]:
        return parsed, ""
    return parsed, "".join(itertools.islice(io.StringIO(text, newline=""), start, None))
