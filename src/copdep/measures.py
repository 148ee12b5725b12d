"""Dependence measures on checkerboard copulas.

All measures share one object: the conditional CDF of the target block given
a conditioning cell.  On a checkerboard grid the conditional given any point
inside a conditioning cell is constant on that cell, equal to the cell's
mass profile along the target axes divided by the cell's weight, so every
integral over the conditioning block becomes an exact finite sum over cells.
Only conditioning cells that carry mass enter.

One walk, ``_target_walk``, feeds every split measure: it reads a complete
grid's masses in split order, relabels a sparser grid whose split is out of
order once, through ``permute_axes``, groups the stored cells by
conditioning cell, drops zero-weight cells and yields each block's weights,
stored target cells and cumulative masses.  For one target axis the
conditional CDF along a conditioning cell is piecewise linear, with at most
2k + 1 pieces for k stored cells, constant over the runs of empty cells
between them; tau_quadratic integrates (F - v)^2 over each piece in closed
form, so its work scales with the stored cells, and its blocks hold about
``_BLOCK_CELLS`` stored cells.  The other kinds build dense rows over all
target cells, so their blocks hold about that many dense cells.  The rule
kinds read CDF rows off the walk and integrate every target cell with one
16-point Gauss-Legendre rule, through one helper, ``_gauss_cells``: it
builds the integrand's argument at the nodes once per block, in one array
that the kind works on in place (F - v for tau_alpha and single-target
custom_phi, F / v for the entropy family).  The entropy family replaces the
rule by closed forms where it would not be exact to rounding: cells where
the integrand is constant, and cells whose conditional CDF vanishes within
half a cell below them (Gauss-Jacobi in the ratio variable for the power
kind, a dilogarithm for x log x).  One builder, ``_unit_nodes``, gives every
rule, Gauss-Legendre and Gauss-Jacobi alike, from the eigenvectors of its
Jacobi matrix, and ``_li2`` sums the dilogarithm's series, so every measure
needs numpy alone.

The mass below points of the target block is one helper, ``_mass_below``,
which ``conditional_cdf`` runs at its one point.  The group kinds run it at
every target cell center, on the walk's masses scattered into dense rows and
on the target-marginal masses, whose CDF is the group gap's reference.  The
Kendall distribution behind the group bound puts each target cell's mass at
that reference value t at its center, so the bound that ``group_tau``
reports, ``_kendall_bound``, is the exact sum of 6 (t - t^2) weighted by the
target-marginal masses.  A bound below ``MIN_KENDALL_BOUND`` is too small to
normalize by.  group_tau's value and bound are computed once per copula and
split and kept in the copula's memo, where ``group_tau_normalized`` finds
them; the warning and the errors still come on every call.

Conventions that matter for reproducibility:
  * zero-weight conditioning cells contribute zero to every sum;
  * sums over conditioning cells are exact (math.fsum), so relabeling the
    conditioning axes cannot change any measure, bit for bit;
  * a value above 1 + 1e-9 for a tau-family measure triggers a warning, not
    a truncation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DegenerateBoundError,
    EvaluationError,
    InvalidArgumentError,
    _count,
    _number,
)
from .grid import (
    VALIDITY_TOL,
    CheckerboardCopula,
    GroupSplit,
    _strides,
)

#: Slack allowed above the theoretical unit bound before warning.
UNIT_SLACK = 1e-9

#: Smallest Kendall bound that a group value may be divided by.
MIN_KENDALL_BOUND = 1e-12

#: Points of the Gauss-Legendre rule applied to every target cell.
_GAUSS_ORDER = 16

#: Stored cells in one block of the walk, or (row, target cell) pairs in one
#: block of dense rows.  Small blocks bound the temporaries; on dense 64^3
#: grids blocks of 64 rows (4096 cells) ran the 16-node pass twice as fast as
#: 256 rows.
_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class MeasureKind:
    """Measure family tag plus its parameter, when the family has one.

    The tag names a row of the kind table ``_KINDS``, which fixes alpha's range.
    """

    tag: str
    alpha: float | None = None

    def __post_init__(self):
        spec = _KINDS.get(self.tag)
        if spec is None:
            raise InvalidArgumentError(f"unknown measure kind {self.tag!r}")
        if spec.alpha is None:
            if self.alpha is not None:
                raise InvalidArgumentError(f"{self.tag} takes no alpha")
            return
        if self.alpha is None:
            raise InvalidArgumentError(f"{self.tag} requires alpha")
        a = _number(self.alpha, f"alpha for {self.tag}")
        in_range, needs = spec.alpha
        if not in_range(a):
            raise InvalidArgumentError(f"{self.tag} needs {needs}, got {a}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class MeasureReport:
    """One computed measure value with its provenance."""

    kind: MeasureKind
    value: float
    split: GroupSplit | None
    resolutions: tuple[int, ...]
    upper_bound: float | None = None
    normalizer: float | None = None
    sample_size: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise EvaluationError(f"{self.kind.tag} evaluated to {self.value}")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.tag,
            "alpha": self.kind.alpha,
            "value": self.value,
            "upper_bound": self.upper_bound,
            "normalizer": self.normalizer,
            "u_axes": list(self.split.u_axes) if self.split else None,
            "v_axes": list(self.split.v_axes) if self.split else None,
            "resolutions": list(self.resolutions),
            "sample_size": self.sample_size,
        }


def _warn_above_unit(value: float, label: str) -> None:
    if value > 1.0 + UNIT_SLACK:
        warnings.warn(
            f"{label} = {value!r} exceeds the unit bound; grid artifact, not truncated",
            RuntimeWarning,
            stacklevel=3,
        )


def _fsum(values) -> float:
    """Exact sum of ``values``, read as float64 through a memoryview, so no
    list of Python floats is built."""
    return math.fsum(memoryview(np.ascontiguousarray(values, dtype=np.float64).ravel()))


# ----------------------------------------------------------------------
# conditioning machinery
# ----------------------------------------------------------------------


def _single_target(copula: CheckerboardCopula, split: GroupSplit) -> int:
    """The target resolution of a split that covers the copula with one target axis."""
    if len(split.v_axes) != 1:
        raise InvalidArgumentError(
            "this measure takes exactly one target axis; use group_tau for groups"
        )
    split.check_covers(copula.dims)
    return copula.resolutions[split.v_axes[0]]


def _target_walk(copula: CheckerboardCopula, split: GroupSplit, dense: bool = False):
    """The conditioning cells that carry mass, each walked over its stored
    target cells only, with no array of conditioning cells times m, the
    target cells numbered row-major over the target axes in split order.
    The split must cover the copula.  A complete grid, which stores every
    cell, is read in split order as its masses transposed; a sparser one
    whose axes are out of order is relabelled once, through
    ``permute_axes``, so that every stored cell's flat index is its
    conditioning key times m plus its target number.

    Yields ``(w, cells, edges, t)`` per block of conditioning cells that hold
    the same number k of stored cells, one column per conditioning cell:
    their weights; the masses of their stored cells, shape (k, columns);
    the cumulative masses divided by the weight, shape (k + 1, columns), 0
    first; and the target numbers of those cells in ascending order, shape
    (k, columns), or (k, 1) when they are the same in every column.  A block
    holds about ``_BLOCK_CELLS`` stored cells, or with ``dense`` about that
    many cells of the columns' dense rows over all m target cells, for the
    kinds that build those rows: the walk's own work runs on the larger
    blocks, which are then cut.

    For a single target axis ``edges`` is the conditional CDF at the edges
    of the stored cells, and along a column F is piecewise linear with at
    most 2k + 1 pieces: cell j, [t_j, t_j + 1], where F runs from edges[j]
    to edges[j + 1]; the run of empty cells before it, from the previous
    cell's right edge (0 for the first), where F is edges[j]; and the run
    after the last cell, where F is 1.

    Each column's CDF is a cumulative sum over its own cells in target
    order, so it adds in sequence like the cumulative sum of its dense row.
    A column's weight is its last sum, so F reaches 1 exactly.
    """
    order = split.u_axes + split.v_axes
    m = math.prod(copula.resolutions[a] for a in split.v_axes)
    if copula.cell_index.size == math.prod(copula.resolutions):
        # Every cell is stored, so the masses are the dense grid: read in
        # split order they are the matrix, a view when the axes merge.
        cells = copula.cell_mass.reshape(copula.resolutions).transpose(order).reshape(-1, m).T
        t, step = np.arange(m)[:, None], max(1, _BLOCK_CELLS // m)
        blocks = ((cells[:, lo : lo + step], t) for lo in range(0, cells.shape[1], step))
    else:
        if order != tuple(range(copula.dims)):
            copula = copula.permute_axes(order)
        blocks = _blocks_by_length(copula.cell_index, copula.cell_mass, m)
    width = max(1, _BLOCK_CELLS // m) if dense else _BLOCK_CELLS
    for block, t in blocks:
        edges = np.zeros((block.shape[0] + 1, block.shape[1]))
        np.cumsum(block, axis=0, out=edges[1:])
        w = edges[-1].copy()
        live = w > 0.0
        if not live.all():
            t = np.broadcast_to(t, block.shape)[:, live]
            w, block, edges = w[live], block[:, live], edges[:, live]
        edges[1:] /= w
        for lo in range(0, w.size, width):
            cut = slice(lo, lo + width)
            yield w[cut], block[:, cut], edges[:, cut], t if t.shape[1] == 1 else t[:, cut]


def _blocks_by_length(flat: np.ndarray, mass: np.ndarray, m: int):
    """Stored cells sorted by ``flat`` = conditioning key * m + target
    number, as matrices of at most about ``_BLOCK_CELLS`` cells: the
    masses and target numbers of conditioning cells that hold the same
    number k of cells, one column each, shape (k, columns)."""
    key = flat // m
    t = flat - key * m
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    counts = np.diff(starts, append=key.size)
    by_count = np.argsort(counts)
    starts, counts = starts[by_count], counts[by_count]
    firsts = np.flatnonzero(np.diff(counts, prepend=0)).tolist()
    for first, stop in zip(firsts, firsts[1:] + [counts.size]):
        k = int(counts[first])
        step = max(1, _BLOCK_CELLS // k)
        for lo in range(first, stop, step):
            at = np.arange(k)[:, None] + starts[lo : min(lo + step, stop)]
            yield mass[at], t[at]


def _row_terms(blocks, per_row) -> np.ndarray:
    """Weight times ``per_row(w, cells, edges, t)`` of every conditioning
    cell in walk ``blocks``."""
    return np.concatenate([block[0] * per_row(*block) for block in blocks])


def _run_widths(t: np.ndarray, m: int) -> np.ndarray:
    """Per column of a walk block, the number of empty target cells before
    each stored cell, at ascending target numbers ``t`` of shape
    (k, columns), and after the last one, up to m: shape (k + 1, columns)."""
    width = np.empty((t.shape[0] + 1, t.shape[1]), dtype=t.dtype)
    width[:-1] = t
    width[-1] = m
    width[1:] -= t + 1
    return width


def _rule_terms(copula: CheckerboardCopula, split: GroupSplit, cells) -> np.ndarray:
    """:func:`_row_terms` of the sum over target cells of ``cells(f0, f1)``,
    where f0 and f1 hold the conditional CDF at the left and right edge of
    every target cell, one row per conditioning cell."""
    m = _single_target(copula, split)

    def per_row(w, masses, edges, t):
        f = np.ascontiguousarray(edges.T)
        if masses.shape[0] < m:  # hold F over the runs of empty cells
            spans = _run_widths(t, m) + 1  # cell edges at each value
            f = f.ravel().repeat(spans.T.ravel()).reshape(-1, m + 1)
        return cells(f[:, :-1], f[:, 1:]).sum(axis=1)

    return _row_terms(_target_walk(copula, split, dense=True), per_row)


@lru_cache(maxsize=16)
def _unit_nodes(power: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights on [0, 1] for the weight t**power.

    Golub and Welsch (1969): the nodes are the eigenvalues of the Jacobi
    matrix of the weight (1 + x)**power on [-1, 1], mapped to [0, 1], and
    the weights are the squared first components of its eigenvectors,
    scaled to sum to 1/(power + 1) as computed, which keeps near-constant
    integrands (renyi_alpha near independence) at their exact-node values
    to rounding.  With s = 2k + power the matrix has diagonal
    power^2/(s(s + 2)), 0 where s = 0, and off-diagonal
    sqrt(4k^2 (k + power)^2 / (s^2 (s + 1)(s - 1))).  Power 0 is the
    Gauss-Legendre rule of every rule kind.
    """
    k = np.arange(_GAUSS_ORDER, dtype=np.float64)
    s = 2.0 * k + power
    diagonal = np.divide(power * power, s * (s + 2.0), out=np.zeros_like(s), where=s > 0.0)
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * k * (k + power) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    x, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    nodes = (x + 1.0) / 2.0
    weights = vectors[0] ** 2
    weights /= weights.sum() * (power + 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gauss_cells(lo: np.ndarray, slope: np.ndarray, g) -> np.ndarray:
    """Per (row, target cell), the 16-point Gauss-Legendre mean over x in
    [0, 1] of g(y), where y = lo + slope x on the cell.

    ``g`` gets y at every node in one new array, shape (nodes, rows, cells),
    which it may overwrite and return.  Nodes lead so that every step runs
    along whole rows: with nodes last the two broadcasts took three times
    as long.
    """
    nodes, weights = _unit_nodes(0.0)
    y = np.empty(nodes.shape + lo.shape)
    np.multiply(nodes[:, None, None], slope, out=y)
    y += lo
    return (weights @ g(y).reshape(nodes.size, -1)).reshape(lo.shape)


def _gap_cells(g):
    """``cells`` function for :func:`_rule_terms`: g(F - v) integrated over
    every target cell by :func:`_gauss_cells`, where on target cell j,
    F - v at node x is (f0 - j/m) + ((f1 - f0) - 1/m) x."""

    def cells(f0, f1):
        m = f0.shape[1]
        return _gauss_cells(f0 - np.arange(m) / m, f1 - f0 - 1.0 / m, g) / m

    return cells


def _unit_point(point) -> np.ndarray:
    """``point`` as a flat float array; rejects non-numeric, empty and off-cube points."""
    try:
        p = np.asarray(point, dtype=np.float64).ravel()
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"expected a numeric point, got {point!r}") from exc
    if p.size == 0 or not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise InvalidArgumentError(f"point {p.tolist()} outside the unit cube")
    return p


def conditional_cdf(copula: CheckerboardCopula, split: GroupSplit, u_cell, v) -> float:
    """P(target <= v | conditioning block in cell ``u_cell``).

    ``u_cell`` indexes the conditioning cell (one index per axis of the
    conditioning block, in split order).  ``v`` is a scalar for a single
    target axis, else a point with one coordinate per target axis.  A
    zero-mass conditioning cell returns 0 by convention, which absorbs the
    0/0 case.
    """
    split.check_covers(copula.dims)
    u_res = [copula.resolutions[a] for a in split.u_axes]
    try:
        cell = tuple(_count(i, "cell index", least=0) for i in u_cell)
    except TypeError:  # not a sequence: one bare index
        cell = (_count(u_cell, "cell index", least=0),)
    if len(cell) != len(u_res) or any(i >= m for i, m in zip(cell, u_res)):
        raise InvalidArgumentError(f"cell {cell} outside grid {tuple(u_res)}")
    vs = _unit_point(v)
    if vs.size != len(split.v_axes):
        raise InvalidArgumentError(
            f"target point needs {len(split.v_axes)} coordinates, got {vs.size}"
        )

    index = copula.cell_index
    if not index.size:
        return 0.0
    # Flat indices of the conditioning cell's target cells, row-major over
    # the target axes in split order, looked up among the stored cells.
    res, strides = copula.resolutions, _strides(copula.resolutions)
    wanted = np.int64(sum(i * strides[a] for i, a in zip(cell, split.u_axes)))
    for a in split.v_axes:
        wanted = np.add.outer(wanted, np.arange(res[a], dtype=np.int64) * strides[a])
    wanted = wanted.ravel()
    pos = np.minimum(np.searchsorted(index, wanted), index.size - 1)
    acc = np.where(index[pos] == wanted, copula.cell_mass[pos], 0.0)
    weight = float(acc.sum())
    if weight <= 0.0:
        return 0.0
    ramps = [_ramp(res[a], [x * res[a]]) for x, a in zip(vs, split.v_axes)]
    return float(_mass_below(acc[None, :], ramps)[0, 0]) / weight


# ----------------------------------------------------------------------
# single-target measures
# ----------------------------------------------------------------------


def tau_quadratic(copula: CheckerboardCopula, split: GroupSplit) -> MeasureReport:
    """Quadratic dependence of the target on the conditioning block.

    6 * sum over conditioning cells of weight * integral of
    (conditional CDF - v)^2 dv, with the v-integral exact per cell.
    0 for independence; at resolution m the complete-dependence maximum is
    1 - 1/m, approaching 1 as the grid refines.
    """
    m = _single_target(copula, split)

    def squares(g0, g1):
        """3 / width times the integral of g^2 over a piece where g is linear
        from g0 to g1."""
        return g0 * (g0 + g1) + g1 * g1

    def per_row(w, cells, edges, t):
        k, n = cells.shape
        left = edges[:-1] - t / m  # F - v at each cell's left edge
        right = edges[1:] - (t + 1) / m  # and at its right edge
        sums = squares(left, right).sum(axis=0)
        if k < m:  # add the runs of empty cells, before each cell and after the last
            run_start = np.zeros((k + 1, n))  # F = v = 0 where the first run starts
            run_start[1:] = right
            run_end = np.zeros((k + 1, n))  # F = v = 1 where the last run ends
            run_end[:-1] = left
            sums += (squares(run_start, run_end) * _run_widths(t, m)).sum(axis=0)
        return sums

    value = 6.0 * _fsum(_row_terms(_target_walk(copula, split), per_row) / (3.0 * m))
    _warn_above_unit(value, "tau_quadratic")
    return MeasureReport(
        kind=MeasureKind("tau_quadratic"),
        value=value,
        split=split,
        resolutions=copula.resolutions,
        normalizer=6.0,
    )


def tau_alpha(copula: CheckerboardCopula, split: GroupSplit, alpha: float) -> MeasureReport:
    """Distance-family measure |conditional CDF - v|^alpha, normalized.

    The normalizer (alpha+1)(alpha+2)/2 makes complete dependence score 1
    in the continuous limit: under a functional relation the conditional is
    a unit step at a uniformly distributed threshold, and the absolute
    moment of that step integrates to 2/((alpha+1)(alpha+2)).  It recovers
    the classical constants 3 at alpha=1 and 6 at alpha=2.

    alpha=2 reuses the exact closed-form path, so it matches tau_quadratic
    bit for bit; other alphas use Gauss-Legendre nodes per target cell.
    """
    kind = MeasureKind("tau_alpha", alpha)
    a = kind.alpha
    if a == 2.0:
        return replace(tau_quadratic(copula, split), kind=kind)
    normalizer = (a + 1.0) * (a + 2.0) / 2.0

    def power(gaps):
        np.abs(gaps, out=gaps)
        if a != 1.0:
            gaps **= a
        return gaps

    terms = _rule_terms(copula, split, _gap_cells(power))
    value = normalizer * _fsum(terms)
    _warn_above_unit(value, "tau_alpha")
    return MeasureReport(
        kind=kind,
        value=value,
        split=split,
        resolutions=copula.resolutions,
        normalizer=normalizer,
    )


def _li2(s: np.ndarray) -> np.ndarray:
    """Li2(s) = sum over k >= 1 of s^k / k^2 for 1-D s in [0, 1): 50 terms
    in x = min(s, 1 - s) <= 1/2, smallest first, from one running product
    (a Horner loop of 50 passes took three times as long on a block's few
    near cells), and above 1/2 the reflection
    Li2(s) = pi^2/6 - log(s) log(1 - s) - Li2(1 - s)."""
    x = np.minimum(s, 1.0 - s)
    k = np.arange(50.0, 0.0, -1.0)
    out = (1.0 / (k * k)) @ np.cumprod(np.broadcast_to(x, (k.size, x.size)), axis=0)[::-1]
    high = s > 0.5
    reflected = s[high]
    out[high] = math.pi**2 / 6.0 - np.log(reflected) * np.log1p(-reflected) - out[high]
    return out


def _ratio_cells(alpha: float | None):
    """``cells`` function for :func:`_rule_terms`: per (row, target cell), the
    integral over the cell of phi(conditional CDF / v).

    phi is r**alpha, or r*log(r) (with 0 log 0 = 0) when ``alpha`` is None,
    and may overwrite its argument.
    On a cell [v0, v1] the conditional CDF is F(v) = c + B v, with edge
    values f0 and f1, and each cell takes one of these cases:

      * c == 0: F/v equals B on the whole cell, giving phi(B) times the cell
        width exactly.  Cell 0 and cells where F vanishes are such cells.
      * c < 0 and 3 f0 < f1: the zero v* = -c/B of F lies within half a cell
        below v0, too close for a polynomial rule.  In s = F/(B v), which
        runs over [s0, s1] with s1 <= 3/4, the integral is
        B^alpha v* [J(s1) - J(s0)], J(b) = b^(alpha+1) times a Gauss-Jacobi
        sum of (1 - b t)^-2, for the power kind, and
        B v* [log B (P(s1) - P(s0)) + K(s1) - K(s0)] for x log x, with P and
        K the antiderivatives of s/(1-s)^2 and s log s/(1-s)^2 from 0.
      * otherwise the integrand's nearest singularity is at least two
        half-widths from the cell center, where the Gauss-Legendre rule is
        exact to rounding.  That includes B == 0, where the only singularity
        is v = 0, at least three half-widths away.

    The rule runs on every target cell, and the closed forms then overwrite
    its value on the flat and near cells.  :func:`_gauss_cells` builds F at
    the nodes, from f0 with slope f1 - f0, and the integrand divides it in
    place by v = (j + x)/m.
    """
    if alpha is None:
        def phi(r):
            out = np.log(r, out=np.zeros_like(r), where=r > 0.0)
            out *= r
            return out

        def p(s):
            return s / (1.0 - s) + np.log1p(-s)

        def k(s):
            log_s = np.log(s, out=np.zeros_like(s), where=s > 0.0)
            l1 = np.log1p(-s)
            return s * log_s / (1.0 - s) + l1 * log_s + l1 + _li2(s)

        def near_integral(b, root, s0, s1):
            k0, k1 = np.split(k(np.concatenate([s0, s1])), 2)  # one _li2 call
            return b * root * (np.log(b) * (p(s1) - p(s0)) + k1 - k0)
    else:
        t, wt = _unit_nodes(alpha)

        def phi(r):
            r **= alpha
            return r

        def j(s):
            return s ** (alpha + 1.0) * ((1.0 - s[:, None] * t) ** -2 @ wt)

        def near_integral(b, root, s0, s1):
            return b**alpha * root * (j(s1) - j(s0))

    def cells(f0, f1):
        m = f0.shape[1]
        v0 = np.broadcast_to(np.arange(m) / m, f0.shape)
        v1 = np.broadcast_to(np.arange(1, m + 1) / m, f0.shape)
        slope = (f1 - f0) * m
        intercept = f0 - slope * v0
        flat = intercept == 0.0
        near = (intercept < 0.0) & (3.0 * f0 < f1)
        v = (np.arange(m) + _unit_nodes(0.0)[0][:, None, None]) / m

        def ratio(y):
            y /= v
            return phi(np.maximum(y, 0.0, out=y))

        out = _gauss_cells(f0, f1 - f0, ratio) / m
        out[flat] = phi(slope[flat]) * (v1 - v0)[flat]
        b = slope[near]
        out[near] = near_integral(
            b, -intercept[near] / b, f0[near] / (b * v0[near]), f1[near] / (b * v1[near])
        )
        return out

    return cells


def renyi_alpha(
    copula: CheckerboardCopula,
    split: GroupSplit,
    alpha: float,
) -> MeasureReport:
    """Entropy-form measure log(E[(conditional CDF / v)^alpha]) / (alpha - 1).

    Defined for 0 < alpha < 2, alpha != 1; the integral diverges as alpha
    approaches 2 under complete dependence, which is why the range stops
    there.  0 for independence; unbounded above.
    """
    kind = MeasureKind("renyi_alpha", alpha)
    a = kind.alpha
    total = _fsum(_rule_terms(copula, split, _ratio_cells(a)))
    if total <= 0.0:
        raise EvaluationError(f"nonpositive integral {total} in renyi_alpha")
    value = math.log(total) / (a - 1.0)
    return MeasureReport(
        kind=kind,
        value=value,
        split=split,
        resolutions=copula.resolutions,
    )


def renyi_limit(copula: CheckerboardCopula, split: GroupSplit) -> MeasureReport:
    """Kullback-Leibler form: E[(F/v) log(F/v)] over the conditioning law.

    The alpha -> 1 limit of the entropy family.  0 for independence, 1 in
    the continuous complete-dependence limit, unbounded in general.
    """
    value = _fsum(_rule_terms(copula, split, _ratio_cells(None)))
    return MeasureReport(
        kind=MeasureKind("renyi_limit"),
        value=value,
        split=split,
        resolutions=copula.resolutions,
    )


def mutual_information(copula: CheckerboardCopula) -> MeasureReport:
    """Plug-in mutual information of the grid against its axis marginals.

    Sum of p * log(p / product of marginal slab masses) over cells with
    mass.  Resolution-dependent: for grids approximating singular copulas
    the value grows without bound as the resolution increases, unlike the
    tau family, which stays in [0, 1].
    """
    live = copula.cell_mass > 0.0
    p = copula.cell_mass[live]
    denom = np.ones(p.size)
    for axis in range(copula.dims):
        slabs, coords = copula._block_sums((axis,))
        denom *= slabs[coords[live]]
    value = _fsum(p * np.log(p / denom))
    return MeasureReport(
        kind=MeasureKind("mutual_information"),
        value=value,
        split=None,
        resolutions=copula.resolutions,
    )


def generic_measure(copula: CheckerboardCopula, split: GroupSplit, phi) -> MeasureReport:
    """Unnormalized measure with a caller-supplied convex phi.

    Integrates phi(conditional CDF - reference) against the conditioning
    weights, where the reference is v itself for a single target axis
    (Lebesgue dv) and the target-marginal CDF at cell centers for a target
    group (target-marginal weights).  ``phi`` must map a numpy array to
    numbers of the same shape; convexity is the caller's responsibility,
    phi(0) = 0 is recommended.
    """
    def at(x):
        out = np.asarray(phi(x))
        if out.shape != x.shape or out.dtype.kind not in "biuf":
            raise InvalidArgumentError(
                f"phi must return numbers shaped {x.shape}, got {out.dtype} shaped {out.shape}"
            )
        return out.astype(np.float64, copy=False)

    if len(split.v_axes) == 1:
        terms = _rule_terms(copula, split, _gap_cells(at))
    else:
        terms = _gap_terms(copula, split, at)[0]
    if not np.all(np.isfinite(terms)):
        raise EvaluationError("phi produced a non-finite value")
    value = _fsum(terms)
    return MeasureReport(
        kind=MeasureKind("custom_phi"),
        value=value,
        split=split,
        resolutions=copula.resolutions,
    )


# ----------------------------------------------------------------------
# group-target measures and the Kendall bound
# ----------------------------------------------------------------------


def _target_marginal_masses(copula: CheckerboardCopula, v_axes) -> np.ndarray:
    """Target-block cell masses, each cell summed exactly over the rest;
    InvalidArgumentError naming the cell where one is below -VALIDITY_TOL."""
    keys = copula._key(v_axes)
    order = np.argsort(keys, kind="stable")  # keys come in ascending runs
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    masses = copula.cell_mass[order]
    bounds = starts.tolist() + [masses.size]
    v_res = tuple(copula.resolutions[a] for a in v_axes)
    out = np.zeros(math.prod(v_res))
    view = memoryview(masses)
    out[keys[starts]] = [math.fsum(view[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    low = int(out.argmin())
    if out[low] < -VALIDITY_TOL:
        cell = tuple(int(i) for i in np.unravel_index(low, v_res))
        raise InvalidArgumentError(f"target-marginal cell {cell} has negative mass {out[low]:.3g}")
    return out


def _ramp(m: int, points) -> np.ndarray:
    """Share of each of m unit cells below each of ``points``, in units of
    one cell, shape (m, points): 0 under the point, 1 over it, the overlap
    for the cell that holds it."""
    return np.clip(np.asarray(points, dtype=np.float64)[None, :] - np.arange(m)[:, None], 0.0, 1.0)


def _mass_below(rows: np.ndarray, ramps) -> np.ndarray:
    """Per row of target-cell masses, row-major over the target axes, the
    mass below every point of the grid of points those axes' ``_ramp``
    matrices hold, row-major too: each target axis in turn, leading first,
    is contracted with its ramp and moved last."""
    out = rows
    for ramp in ramps:
        m = ramp.shape[0]
        out = out.reshape(rows.shape[0], m, -1).transpose(0, 2, 1).reshape(-1, m) @ ramp
    return out.reshape(rows.shape[0], -1)


def _gap_terms(copula: CheckerboardCopula, split: GroupSplit, phi) -> tuple:
    """:func:`_row_terms` of the ``target_w``-weighted row sums of ``phi(gaps)``
    (each row alone: a BLAS matrix-vector product rounds a row by its place in
    the block), then ``target_w`` and ``reference``: the target-marginal cell
    masses, and the target-marginal CDF at every target cell center, which
    ``gaps`` subtracts from each conditional CDF there."""
    split.check_covers(copula.dims)
    # Half of a cell's own mass is below its center.
    ramps = [_ramp(m, np.arange(m) + 0.5) for m in (copula.resolutions[a] for a in split.v_axes)]
    target_w = _target_marginal_masses(copula, split.v_axes)
    reference = _mass_below(target_w[None, :], ramps)[0]

    def per_row(w, masses, edges, t):
        rows = np.zeros((w.size, target_w.size))
        rows[np.arange(w.size), t] = masses
        return (phi(_mass_below(rows, ramps) / w[:, None] - reference) * target_w).sum(axis=1)

    return _row_terms(_target_walk(copula, split, dense=True), per_row), target_w, reference


def _kendall_bound(masses: np.ndarray, ts: np.ndarray) -> float:
    """6 * integral of (t - t^2) dK(t), where the Kendall distribution K puts
    each target cell's mass at ``ts``, the target-marginal CDF at its center:
    the mass-weighted sum of 6 (t - t^2), added exactly."""
    return 6.0 * _fsum((ts - ts * ts) * masses)


def group_tau(copula: CheckerboardCopula, split: GroupSplit) -> MeasureReport:
    """Quadratic dependence of a target group on the conditioning block.

    6 * sum over conditioning cells of weight times the target-weighted
    squared gap between the conditional CDF and the target-marginal CDF,
    both evaluated at target cell centers.  Zero exactly when the grid
    factorizes into (conditioning marginal) x (target marginal); bounded by
    the Kendall-function bound reported as ``upper_bound``, which depends
    on the dependence inside the target group.
    """
    if len(split.v_axes) < 2:
        raise InvalidArgumentError("group_tau needs a target group; use tau_quadratic")

    def compute():
        terms, target_w, reference = _gap_terms(copula, split, np.square)
        return 6.0 * _fsum(terms), _kendall_bound(target_w, reference)

    value, bound = copula._memoized(("group_tau", split), compute)
    _warn_above_unit(value / bound if bound > 0 else value, "group_tau / bound")
    return MeasureReport(
        kind=MeasureKind("group_tau"),
        value=value,
        split=split,
        resolutions=copula.resolutions,
        upper_bound=bound,
        normalizer=6.0,
    )


def group_tau_normalized(copula: CheckerboardCopula, split: GroupSplit) -> MeasureReport:
    """group_tau rescaled by its Kendall bound so the maximum is 1."""
    base = group_tau(copula, split)
    if base.upper_bound < MIN_KENDALL_BOUND:
        raise DegenerateBoundError(
            f"Kendall bound {base.upper_bound} too small to normalize"
        )
    return replace(
        base,
        kind=MeasureKind("group_tau_normalized"),
        value=base.value / base.upper_bound,
        normalizer=base.upper_bound,
    )


def averaged_dependence(copula: CheckerboardCopula, split: GroupSplit) -> MeasureReport:
    """Mean single-axis quadratic dependence over the target group.

    Averages tau_quadratic of each target axis on the conditioning block.
    Has a constant unit scale, at the cost of measuring only one axis at a
    time: a target whose axes each carry half the relation scores the mean.
    """
    split.check_covers(copula.dims)
    values = []
    for axis in split.v_axes:
        sub = copula.marginal(split.u_axes + (axis,))
        sub_split = GroupSplit(tuple(range(len(split.u_axes))), (len(split.u_axes),))
        values.append(tau_quadratic(sub, sub_split).value)
    value = math.fsum(values) / len(values)
    return MeasureReport(
        kind=MeasureKind("averaged_dependence"),
        value=value,
        split=split,
        resolutions=copula.resolutions,
    )


# ----------------------------------------------------------------------
# the kind table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """How one measure kind is computed and checked.

    ``compute`` takes the copula, then the split when ``needs_split``, then
    alpha when the kind has one; it is None for custom_phi, which takes a
    phi as well and is computed by :func:`generic_measure`.  ``alpha`` is
    None, or a test that alpha is in range plus the range in words.
    """

    compute: Callable[..., MeasureReport] | None
    alpha: tuple[Callable[[float], bool], str] | None = None
    needs_split: bool = True


_KINDS = {
    "tau_quadratic": _Kind(tau_quadratic),
    "tau_alpha": _Kind(tau_alpha, (lambda a: 1.0 <= a < math.inf, "a finite alpha >= 1")),
    "renyi_alpha": _Kind(
        renyi_alpha, (lambda a: 0.0 < a < 2.0 and a != 1.0, "0 < alpha < 2, alpha != 1")
    ),
    "renyi_limit": _Kind(renyi_limit),
    "mutual_information": _Kind(mutual_information, needs_split=False),
    "group_tau": _Kind(group_tau),
    "group_tau_normalized": _Kind(group_tau_normalized),
    "averaged_dependence": _Kind(averaged_dependence),
    "custom_phi": _Kind(None),
}


def compute_measure(
    copula: CheckerboardCopula,
    split: GroupSplit | None,
    kind: MeasureKind,
) -> MeasureReport:
    """Route a MeasureKind to its implementation through the kind table."""
    spec = _KINDS[kind.tag]
    if spec.compute is None:
        raise InvalidArgumentError(f"cannot dispatch measure kind {kind.tag!r}")
    args = [copula]
    if spec.needs_split:
        if split is None:
            raise InvalidArgumentError(f"{kind.tag} requires a group split")
        args.append(split)
    if spec.alpha is not None:
        args.append(kind.alpha)
    return spec.compute(*args)
