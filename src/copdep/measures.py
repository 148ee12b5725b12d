"""Dependence measures on checkerboard copulas.

All measures share one object: the conditional CDF of the target block given
a conditioning cell.  On a checkerboard grid the conditional given any point
inside a conditioning cell is constant on that cell, equal to the cell's
mass profile along the target axes divided by the cell's weight, so every
integral over the conditioning block becomes an exact finite sum over cells.
Only conditioning cells that carry mass enter.

One walk, ``_target_walk``, feeds every split measure: it groups the stored
cells by conditioning cell, drops zero-weight cells and yields each block's
weights, stored target cells and cumulative masses.  For one target axis
the conditional CDF along a conditioning cell is piecewise linear, with at
most 2k + 1 pieces for k stored cells, constant over the runs of empty
cells between them; tau_quadratic integrates (F - v)^2 over each piece in
closed form, so its work scales with the stored cells.  The other kinds
take the walk in blocks of about ``_BLOCK_CELLS`` dense cells.  The rule
kinds read CDF rows off it and integrate every target cell with one
16-point Gauss-Legendre rule, which the entropy family replaces by closed
forms where it would not be exact to rounding: cells where the integrand is
constant, and cells whose conditional CDF vanishes within half a cell below
them (Gauss-Jacobi in the ratio variable for the power kind, a dilogarithm
for x log x).

The group kinds scatter the walk's masses into dense rows and work at target
cell centers.  One helper, ``_at_centers``, gives the mass below every
center for rows of target-cell masses: the conditional CDF of each
conditioning row, and the target-marginal CDF, which is the reference for
the group gap and places the knots of the Kendall distribution behind the
group bound.  ``_kendall_steps`` places those knots and ``_kendall_bound``
reduces them to the bound that ``group_tau`` reports.  A target marginal
whose mass is not 1 raises, and a bound below ``MIN_KENDALL_BOUND`` is too
small to normalize by.

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
    _scatter,
    _strides,
)

#: Slack allowed above the theoretical unit bound before warning.
UNIT_SLACK = 1e-9

#: Smallest Kendall bound that a group value may be divided by.
MIN_KENDALL_BOUND = 1e-12

#: How far from 1 a Kendall CDF's last level, the target marginal's mass, may be.
_KENDALL_TOL = 1e-6

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


def _target_walk(copula: CheckerboardCopula, split: GroupSplit):
    """The conditioning cells that carry mass, each walked over its stored
    target cells only, with no array of conditioning cells times m, the
    target cells numbered row-major over the target axes in split order.
    The split must cover the copula.

    Yields ``(w, cells, edges, t)`` per block of conditioning cells that hold
    the same number k of stored cells, one column per conditioning cell:
    their weights; the masses of their stored cells, shape (k, columns);
    the cumulative masses divided by the weight, shape (k + 1, columns), 0
    first; and the target numbers of those cells in ascending order, shape
    (k, columns), or (k, 1) when they are the same in every column.

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
    m = math.prod(copula.resolutions[a] for a in split.v_axes)
    n_u = math.prod(copula.resolutions[a] for a in split.u_axes)
    in_order = split.u_axes + split.v_axes == tuple(range(copula.dims))
    flat = copula._key(split.u_axes + split.v_axes)  # conditioning key * m + t
    mass = copula.cell_mass
    if flat.size == n_u * m:
        # Every cell is stored: in split order the masses are the matrix.
        if not in_order:
            mass = _scatter(flat, mass, flat.size)
        cells, t = mass.reshape(n_u, m).T, np.arange(m)[:, None]
        step = max(1, _BLOCK_CELLS // m)
        blocks = ((cells[:, lo : lo + step], t) for lo in range(0, n_u, step))
    else:
        if not in_order:
            order = np.argsort(flat)
            flat, mass = flat[order], mass[order]
        blocks = _blocks_by_length(flat, mass, m)
    for block, t in blocks:
        edges = np.zeros((block.shape[0] + 1, block.shape[1]))
        np.cumsum(block, axis=0, out=edges[1:])
        w = edges[-1].copy()
        live = w > 0.0
        if not live.all():
            t = np.broadcast_to(t, block.shape)[:, live]
            w, block, edges = w[live], block[:, live], edges[:, live]
        edges[1:] /= w
        yield w, block, edges, t


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


def _dense_walk(copula: CheckerboardCopula, split: GroupSplit):
    """The walk in blocks of at most about ``_BLOCK_CELLS`` / m conditioning
    cells, so that their dense rows over all m target cells stay small.  An
    array of one column passes whole: it holds target numbers shared by every
    column, or the block has one column."""
    step = max(1, _BLOCK_CELLS // math.prod(copula.resolutions[a] for a in split.v_axes))
    for block in _target_walk(copula, split):
        for lo in range(0, block[0].size, step):
            yield tuple(x if x.shape[-1] == 1 else x[..., lo : lo + step] for x in block)


def _row_terms(blocks, per_row) -> np.ndarray:
    """Weight times ``per_row(w, cells, edges, t)`` of every conditioning
    cell in walk ``blocks``; empty when none carries mass."""
    terms = [block[0] * per_row(*block) for block in blocks]
    return np.concatenate(terms) if terms else np.zeros(0)


def _rule_terms(copula: CheckerboardCopula, split: GroupSplit, cells) -> np.ndarray:
    """:func:`_row_terms` of the sum over target cells of ``cells(f0, f1)``,
    where f0 and f1 hold the conditional CDF at the left and right edge of
    every target cell, one row per conditioning cell."""
    m = _single_target(copula, split)

    def per_row(w, masses, edges, t):
        f = np.ascontiguousarray(edges.T)
        if masses.shape[0] < m:  # hold F over the runs of empty cells
            spans = np.empty(edges.shape, dtype=t.dtype)  # cell edges at each value
            spans[0] = t[0] + 1
            np.subtract(t[1:], t[:-1], out=spans[1:-1])
            spans[-1] = m - t[-1]
            f = f.ravel().repeat(spans.T.ravel()).reshape(-1, m + 1)
        return cells(f[:, :-1], f[:, 1:]).sum(axis=1)

    return _row_terms(_dense_walk(copula, split), per_row)


@lru_cache(maxsize=16)
def _unit_nodes(power: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights on [0, 1] for the weight t**power.

    Power 0 is the Gauss-Legendre rule.
    """
    from scipy.special import roots_jacobi

    x, wt = roots_jacobi(_GAUSS_ORDER, 0.0, power)
    nodes = (x + 1.0) / 2.0
    weights = wt / 2.0 ** (power + 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=64)
def _node_positions(m: int) -> np.ndarray:
    """v at the Gauss-Legendre nodes of every target cell, shape (m, nodes)."""
    out = (np.arange(m)[:, None] + _unit_nodes(0.0)[0][None, :]) / m
    out.setflags(write=False)
    return out


def _gauss_rule(f0: np.ndarray, f1: np.ndarray, g, m: int, first: int = 0) -> np.ndarray:
    """Integral of g(F, v) over target cells ``first``, ``first + 1``, ... of
    width 1/m, one value per (row, cell), by the 16-point Gauss-Legendre rule.

    F is linear on each cell from ``f0`` to ``f1``, shape (rows, cells).
    ``g`` takes F at the nodes, shape (rows, cells, nodes), and v at the
    nodes, shape (cells, nodes), and must return an array of the first shape.
    """
    nodes, weights = _unit_nodes(0.0)
    v_at = _node_positions(m)[first : first + f0.shape[1]]
    return g(f0[..., None] + (f1 - f0)[..., None] * nodes, v_at) @ weights / m


def _gauss_cells(g):
    """``cells`` function for :func:`_rule_terms`: g(F, v) integrated over every
    target cell by the Gauss-Legendre rule."""
    return lambda f0, f1: _gauss_rule(f0, f1, g, f0.shape[1])


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
    acc = acc.reshape([res[a] for a in split.v_axes])
    weight = float(acc.sum())
    if weight <= 0.0:
        return 0.0
    for coord, m in zip(vs, acc.shape):
        ramp = np.clip(coord * m - np.arange(m), 0.0, 1.0)
        acc = np.tensordot(acc, ramp, axes=([0], [0]))
    return float(acc) / weight


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
            width = np.empty((k + 1, n), dtype=t.dtype)
            width[:-1] = t
            width[-1] = m
            width[1:] -= t + 1
            sums += (squares(run_start, run_end) * width).sum(axis=0)
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
    terms = _rule_terms(copula, split, _gauss_cells(lambda f, v: np.abs(f - v) ** a))
    value = normalizer * _fsum(terms)
    _warn_above_unit(value, "tau_alpha")
    return MeasureReport(
        kind=kind,
        value=value,
        split=split,
        resolutions=copula.resolutions,
        normalizer=normalizer,
    )


def _ratio_cells(alpha: float | None):
    """``cells`` function for :func:`_rule_terms`: per (row, target cell), the
    integral over the cell of phi(conditional CDF / v).

    phi is r**alpha, or r*log(r) (with 0 log 0 = 0) when ``alpha`` is None.
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

    The rule runs only on the span of target cells from the first to the
    last one that some row of the block needs it for; every cell outside
    that span takes one of the closed forms.
    """
    from scipy.special import spence, xlogy

    if alpha is None:
        def phi(r):
            return r * np.log(np.where(r > 0.0, r, 1.0))

        def p(s):
            return s / (1.0 - s) + np.log1p(-s)

        def k(s):
            l1 = np.log1p(-s)
            return xlogy(s, s) / (1.0 - s) + xlogy(l1, s) + l1 + spence(1.0 - s)

        def near_integral(b, root, s0, s1):
            return b * root * (np.log(b) * (p(s1) - p(s0)) + k(s1) - k(s0))
    else:
        t, wt = _unit_nodes(alpha)

        def phi(r):
            return r**alpha

        def j(s):
            return s ** (alpha + 1.0) * ((1.0 - s[:, None] * t) ** -2 @ wt)

        def near_integral(b, root, s0, s1):
            return b**alpha * root * (j(s1) - j(s0))

    def integrand(f, v):
        return phi(np.maximum(f / v, 0.0))

    def cells(f0, f1):
        m = f0.shape[1]
        v0 = np.broadcast_to(np.arange(m) / m, f0.shape)
        v1 = np.broadcast_to(np.arange(1, m + 1) / m, f0.shape)
        slope = (f1 - f0) * m
        intercept = f0 - slope * v0
        flat = intercept == 0.0
        near = (intercept < 0.0) & (3.0 * f0 < f1)
        out = np.empty(f0.shape)
        needed = np.flatnonzero(~(flat | near).all(axis=0))
        if needed.size:
            span = slice(needed[0], needed[-1] + 1)
            out[:, span] = _gauss_rule(f0[:, span], f1[:, span], integrand, m, span.start)
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
        terms = _rule_terms(copula, split, _gauss_cells(lambda f, v: at(f - v)))
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


@lru_cache(maxsize=64)
def _center_ramp(m: int) -> np.ndarray:
    """Overlap of cell i below the center of cell j: 0 under, 1/2 on, 1 over."""
    ramp = np.clip((np.arange(m)[None, :] + 0.5) - np.arange(m)[:, None], 0.0, 1.0)
    ramp.setflags(write=False)
    return ramp


def _at_centers(rows: np.ndarray, v_res: tuple[int, ...]) -> np.ndarray:
    """Per row of target-cell masses, the mass below every target cell center
    (half of a cell's own mass is below its center): each target axis in
    turn, leading first, is contracted with its center ramp and moved last."""
    out = rows
    for m in v_res:
        out = out.reshape(rows.shape[0], m, -1).transpose(0, 2, 1).reshape(-1, m) @ _center_ramp(m)
    return out.reshape(rows.shape[0], -1)


def _gap_terms(copula: CheckerboardCopula, split: GroupSplit, phi) -> tuple:
    """:func:`_row_terms` of the ``target_w``-weighted row sums of ``phi(gaps)``
    (each row alone: a BLAS matrix-vector product rounds a row by its place in
    the block), then ``target_w`` and ``reference``: the target-marginal cell
    masses, and the target-marginal CDF at every target cell center, which
    ``gaps`` subtracts from each conditional CDF there."""
    split.check_covers(copula.dims)
    v_res = tuple(copula.resolutions[a] for a in split.v_axes)
    target_w = _target_marginal_masses(copula, split.v_axes)
    reference = _at_centers(target_w[None, :], v_res)[0]

    def per_row(w, masses, edges, t):
        rows = np.zeros((w.size, target_w.size))
        rows[np.arange(w.size), t] = masses
        return (phi(_at_centers(rows, v_res) / w[:, None] - reference) * target_w).sum(axis=1)

    return _row_terms(_dense_walk(copula, split), per_row), target_w, reference


def _kendall_steps(masses: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knots (t, K), t ascending, of the step CDF putting each cell's mass at ``ts``."""
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    cum = np.cumsum(masses[order])  # adds in sequence, one mass at a time
    if not cum[-1] >= 1.0 - _KENDALL_TOL:
        raise InvalidArgumentError(f"target marginal has total mass {cum[-1]}, not 1")
    last = np.r_[ts[1:] != ts[:-1], True]  # one knot per distinct t, at its last mass
    # Guard every knot against eps drift past 1, so the knots stay nondecreasing.
    np.minimum(cum, 1.0, out=cum)
    return ts[last], cum[last]


def _kendall_bound(t: np.ndarray, k: np.ndarray) -> float:
    """6 * integral of (t - t^2) dK(t) for the step CDF with knots (t, K): a
    Stieltjes sum over the jumps, added exactly."""
    return _fsum(6.0 * (t - t * t) * np.diff(k, prepend=0.0))


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
    terms, target_w, reference = _gap_terms(copula, split, np.square)
    value = 6.0 * _fsum(terms)
    bound = _kendall_bound(*_kendall_steps(target_w, reference))
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
