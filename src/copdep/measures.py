"""Dependence measures on checkerboard copulas.

All measures share one object: the conditional CDF of the target block given
a conditioning cell.  On a checkerboard grid the conditional given any point
inside a conditioning cell is constant on that cell, equal to the cell's
mass profile along the target axes divided by the cell's weight, so every
integral over the conditioning block becomes an exact finite sum over cells.
Only conditioning cells that carry mass enter: their rows are scattered from
the copula's stored cells, so the work scales with the occupied conditioning
cells times the target cells, not with the whole grid.

The quadratic measure integrates (conditional CDF - reference)^2 in closed
form per target cell (the integrand is piecewise quadratic).  Every other
single-target measure integrates phi of the conditional CDF and v over each
target cell with one fixed 16-point Gauss-Legendre rule.  The entropy family
replaces that rule by closed forms on the cells where it would not be exact
to rounding: cells where the integrand is constant, and cells whose
conditional CDF vanishes within half a cell below them, which are integrated
exactly in the ratio variable (Gauss-Jacobi for the power kind, a dilogarithm
for x log x); the rule skips the target cells outside the span that a
block of conditioning rows needs it for.

The group measures work at target cell centers.  One helper, ``_at_centers``,
gives the mass below every center for rows of target-cell masses: the
conditional CDF of each conditioning row, and the target-marginal CDF, which
is the reference for the group gap and places the knots of the Kendall
distribution behind the group bound.  A bound below ``MIN_KENDALL_BOUND`` is
too small to normalize by.

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
    _convert,
)
from .grid import CheckerboardCopula, GroupSplit, _compress, _prod, _strides, _unit_point

#: Slack allowed above the theoretical unit bound before warning.
UNIT_SLACK = 1e-9

#: Smallest Kendall bound that a group value may be divided by.
MIN_KENDALL_BOUND = 1e-12

#: Points of the Gauss-Legendre rule applied to every target cell.
_GAUSS_ORDER = 16

#: (row, target cell) pairs evaluated at once.  Small blocks bound the
#: temporaries; on dense 64^3 grids blocks of 64 rows (4096 cells) ran the
#: 16-node pass twice as fast as 256 rows.
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
        a = _convert(self.alpha, float, f"alpha for {self.tag}")
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


@dataclass(frozen=True)
class KendallCdf:
    """Distribution function of the target-marginal CDF of its own vector.

    ``knots`` lists (t, K(t)) pairs with t ascending and K nondecreasing.
    ``kind`` is "step" (right-continuous jumps at the knots, the grid
    convention) or "linear" (piecewise linear between knots; used for the
    single-axis case where the distribution is exactly uniform).
    """

    knots: tuple[tuple[float, float], ...]
    kind: str = "step"

    def __post_init__(self):
        if self.kind not in ("step", "linear"):
            raise InvalidArgumentError(f"unknown Kendall CDF kind {self.kind!r}")
        knots = tuple(
            (_convert(t, float, "knot"), _convert(k, float, "knot")) for t, k in self.knots
        )
        if not knots:
            raise InvalidArgumentError("Kendall CDF needs at least one knot")
        if not all(math.isfinite(t) and math.isfinite(k) for t, k in knots):
            raise InvalidArgumentError(f"Kendall CDF knots must be finite, got {knots}")
        ts = [t for t, _ in knots]
        ks = [k for _, k in knots]
        if any(b < a for a, b in zip(ts, ts[1:])) or any(b < a for a, b in zip(ks, ks[1:])):
            raise InvalidArgumentError("Kendall CDF knots must be nondecreasing")
        if abs(ks[-1] - 1.0) > 1e-6:
            raise InvalidArgumentError(f"Kendall CDF must reach 1, got {ks[-1]}")
        object.__setattr__(self, "knots", knots)


def _warn_above_unit(value: float, label: str) -> None:
    if value > 1.0 + UNIT_SLACK:
        warnings.warn(
            f"{label} = {value!r} exceeds the unit bound; grid artifact, not truncated",
            RuntimeWarning,
            stacklevel=3,
        )


def _fsum(values) -> float:
    return math.fsum(np.asarray(values, dtype=np.float64).tolist())


# ----------------------------------------------------------------------
# conditioning machinery
# ----------------------------------------------------------------------


def _active_rows(
    copula: CheckerboardCopula, split: GroupSplit
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and mass rows (over the target cells) of the conditioning
    cells that carry mass, in conditioning-key order.

    Each row holds exactly the cell masses of the dense row, zeros
    included, so it sums to the same bits as the dense row.
    """
    split.check_covers(copula.dims)
    res = copula.resolutions
    n_u = _prod(res[a] for a in split.u_axes)
    n_v = _prod(res[a] for a in split.v_axes)
    if copula.cell_index.size == n_u * n_v and split.u_axes + split.v_axes == tuple(
        range(copula.dims)
    ):
        # Every cell is stored, in split order: the masses are the matrix.
        mat = copula.cell_mass.reshape(n_u, n_v)
    else:
        rows, row_of = _compress(copula._key(split.u_axes), n_u)
        mat = np.zeros((rows.size, n_v))
        mat.reshape(-1)[row_of * n_v + copula._key(split.v_axes)] = copula.cell_mass
    w = mat.sum(axis=1)
    live = np.flatnonzero(w > 0.0)
    if live.size == w.size:
        return w, mat
    return w[live], mat[live]


def _row_sums(
    copula: CheckerboardCopula, split: GroupSplit, cells
) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the conditioning cells that carry mass, and for each of
    them the sum over target cells of ``cells(f0, f1)``.

    f0 and f1 hold the conditioning cell's conditional CDF at the left and
    right edge of every target cell, one row per conditioning cell.  They
    are built and reduced a block of rows at a time, so no array spans all
    rows but the mass matrix itself.
    """
    if len(split.v_axes) != 1:
        raise InvalidArgumentError(
            "this measure takes exactly one target axis; use group_tau for groups"
        )
    w, mat = _active_rows(copula, split)
    sums = np.empty(w.size)
    step = max(1, _BLOCK_CELLS // mat.shape[1])
    for lo in range(0, w.size, step):
        rows = slice(lo, lo + step)
        block = mat[rows]
        edges = np.zeros((block.shape[0], block.shape[1] + 1))
        np.cumsum(block, axis=1, out=edges[:, 1:])
        edges[:, 1:] /= w[rows, None]
        sums[rows] = cells(edges[:, :-1], edges[:, 1:]).sum(axis=1)
    return w, sums


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
    """``cells`` function for :func:`_row_sums`: g(F, v) integrated over every
    target cell by the Gauss-Legendre rule."""
    return lambda f0, f1: _gauss_rule(f0, f1, g, f0.shape[1])


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
    raw = np.atleast_1d(np.asarray(u_cell))
    if raw.dtype.kind not in "iu" or raw.ndim != 1:
        raise InvalidArgumentError(f"cell {u_cell!r} must be a sequence of integer indices")
    cell = tuple(int(i) for i in raw)
    if len(cell) != len(u_res) or any(not 0 <= i < m for i, m in zip(cell, u_res)):
        raise InvalidArgumentError(f"cell {cell} outside grid {tuple(u_res)}")
    vs = np.asarray(v, dtype=np.float64).ravel()
    if vs.size != len(split.v_axes):
        raise InvalidArgumentError(
            f"target point needs {len(split.v_axes)} coordinates, got {vs.size}"
        )
    _unit_point(vs)

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
    def cells(f0, f1):
        m = f0.shape[1]
        v = np.arange(m + 1) / m
        ga, gb = f0 - v[:-1], f1 - v[1:]  # F - v at the cell edges
        return (ga * ga + ga * gb + gb * gb) / (3.0 * m)

    w, per_row = _row_sums(copula, split, cells)
    value = 6.0 * _fsum(w * per_row)
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
    w, per_row = _row_sums(copula, split, _gauss_cells(lambda f, v: np.abs(f - v) ** a))
    value = normalizer * _fsum(w * per_row)
    _warn_above_unit(value, "tau_alpha")
    return MeasureReport(
        kind=kind,
        value=value,
        split=split,
        resolutions=copula.resolutions,
        normalizer=normalizer,
    )


def _ratio_cells(alpha: float | None):
    """``cells`` function for :func:`_row_sums`: per (row, target cell), the
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
    w, per_row = _row_sums(copula, split, _ratio_cells(a))
    total = _fsum(w * per_row)
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
    w, per_row = _row_sums(copula, split, _ratio_cells(None))
    value = _fsum(w * per_row)
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
    group (target-marginal weights).  ``phi`` must accept numpy arrays;
    convexity is the caller's responsibility, phi(0) = 0 is recommended.
    """
    if len(split.v_axes) == 1:
        w, per_row = _row_sums(
            copula, split, _gauss_cells(lambda f, v: np.asarray(phi(f - v), dtype=np.float64))
        )
    else:
        w, gaps, target_w, _ = _center_gaps(copula, split)
        per_row = (np.asarray(phi(gaps), dtype=np.float64) * target_w).sum(axis=1)
    if not np.all(np.isfinite(per_row)):
        raise EvaluationError("phi produced a non-finite value")
    value = _fsum(w * per_row)
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
    """Target-block cell masses, each cell summed exactly over the rest."""
    v_axes = tuple(v_axes)
    keys = copula._key(v_axes)
    order = np.argsort(keys, kind="stable")  # keys come in ascending runs
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    groups = np.split(copula.cell_mass[order], starts[1:])
    out = np.zeros(_prod(copula.resolutions[a] for a in v_axes))
    out[keys[starts]] = [math.fsum(group.tolist()) for group in groups]
    return out


@lru_cache(maxsize=64)
def _center_ramp(m: int) -> np.ndarray:
    """Overlap of cell i below the center of cell j: 0 under, 1/2 on, 1 over."""
    ramp = np.clip((np.arange(m)[None, :] + 0.5) - np.arange(m)[:, None], 0.0, 1.0)
    ramp.setflags(write=False)
    return ramp


def _at_centers(rows: np.ndarray, v_res: tuple[int, ...]) -> np.ndarray:
    """Per row of target-cell masses, the mass below every target cell center
    (half of a cell's own mass is below its center): each target axis is
    contracted with its center ramp."""
    out = rows.reshape((rows.shape[0],) + v_res)
    for m in v_res:
        out = np.tensordot(out, _center_ramp(m), axes=([1], [0]))
    return out.reshape(rows.shape[0], -1)


def _center_gaps(
    copula: CheckerboardCopula, split: GroupSplit
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights of the conditioning cells that carry mass, the gap between
    their conditional CDF and the target-marginal CDF at every target cell
    center, the target-marginal cell masses, and that marginal CDF."""
    w, mat = _active_rows(copula, split)
    v_res = tuple(copula.resolutions[a] for a in split.v_axes)
    target_w = _target_marginal_masses(copula, split.v_axes)
    reference = _at_centers(target_w[None, :], v_res)[0]
    gaps = _at_centers(mat, v_res) / w[:, None] - reference[None, :]
    return w, gaps, target_w, reference


def kendall_cdf(copula: CheckerboardCopula, v_axes) -> KendallCdf:
    """Distribution of the target-marginal CDF evaluated at its own vector.

    For a single target axis the distribution is exactly uniform, returned
    as a piecewise-linear CDF.  For a group, the grid convention places each
    target cell's mass at the marginal CDF value of the cell center, giving
    a step function that converges to the true Kendall distribution as the
    grid refines.
    """
    v_axes = tuple(int(a) for a in v_axes)
    if not v_axes:
        raise InvalidArgumentError("need at least one target axis")
    if len(set(v_axes)) != len(v_axes) or any(
        a < 0 or a >= copula.dims for a in v_axes
    ):
        raise InvalidArgumentError(f"bad target axes {v_axes}")
    if len(v_axes) == 1:
        return KendallCdf(((0.0, 0.0), (1.0, 1.0)), kind="linear")
    masses = _target_marginal_masses(copula, v_axes)
    v_res = tuple(copula.resolutions[a] for a in v_axes)
    return _kendall_steps(masses, _at_centers(masses[None, :], v_res)[0])


def _kendall_steps(masses: np.ndarray, ts: np.ndarray) -> KendallCdf:
    """Step CDF placing each target cell's mass at its center value ``ts``."""
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    cum = np.cumsum(masses[order])  # adds in sequence, one mass at a time
    last = np.r_[ts[1:] != ts[:-1], True]  # one knot per distinct t, at its last mass
    # Guard every knot against eps drift past 1, so the knots stay nondecreasing.
    np.minimum(cum, 1.0, out=cum)
    return KendallCdf(tuple(zip(ts[last].tolist(), cum[last].tolist())), kind="step")


def max_bound(kendall: KendallCdf) -> float:
    """Largest reachable group measure: 6 * integral of (t - t^2) dK(t).

    A Stieltjes sum over the jumps for step CDFs; exact polynomial segment
    integrals for piecewise-linear CDFs (the single-axis case K(t) = t
    yields exactly 1).
    """
    if kendall.kind == "linear":
        total = 0.0
        for (t0, k0), (t1, k1) in zip(kendall.knots, kendall.knots[1:]):
            if t1 == t0:
                continue
            slope = (k1 - k0) / (t1 - t0)
            total += slope * (3.0 * (t1 * t1 - t0 * t0) - 2.0 * (t1**3 - t0**3))
        return total
    prev = 0.0
    terms = []
    for t, k in kendall.knots:
        jump = k - prev
        prev = k
        terms.append(6.0 * (t - t * t) * jump)
    return math.fsum(terms)


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
    w, gaps, target_w, reference = _center_gaps(copula, split)
    per_row = (gaps * gaps) @ target_w
    value = 6.0 * _fsum(w * per_row)
    bound = max_bound(_kendall_steps(target_w, reference))
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
    if base.upper_bound is None or base.upper_bound < MIN_KENDALL_BOUND:
        raise DegenerateBoundError(
            f"Kendall bound {base.upper_bound} too small to normalize"
        )
    return MeasureReport(
        kind=MeasureKind("group_tau_normalized"),
        value=base.value / base.upper_bound,
        split=split,
        resolutions=copula.resolutions,
        upper_bound=base.upper_bound,
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
