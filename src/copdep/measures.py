"""Dependence measures on checkerboard copulas.

All measures share one object: the conditional CDF of the target block given
a conditioning cell.  On a checkerboard grid the conditional given any point
inside a conditioning cell is constant on that cell, equal to the cell's
mass profile along the target axes divided by the cell's weight, so every
integral over the conditioning block becomes an exact finite sum over cells.

The quadratic measure integrates (conditional CDF - reference)^2 in closed
form per target cell (the integrand is piecewise quadratic).  Every other
single-target measure integrates phi of the conditional CDF and v over each
target cell with one fixed 16-point Gauss-Legendre rule.  The entropy family
replaces that rule by closed forms on the cells where it would not be exact
to rounding: cells where the integrand is constant, and cells whose
conditional CDF vanishes within half a cell below them, which are integrated
exactly in the ratio variable (Gauss-Jacobi for the power kind, a dilogarithm
for x log x).  The group measure evaluates at target cell centers against
the target-marginal weights.

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

import numpy as np

from .errors import (
    DegenerateBoundError,
    EvaluationError,
    InvalidArgumentError,
)
from .grid import CheckerboardCopula, GroupSplit, _prod

#: Slack allowed above the theoretical unit bound before warning.
UNIT_SLACK = 1e-9

#: Points of the Gauss-Legendre rule applied to every target cell.
_GAUSS_ORDER = 16

#: Conditioning rows evaluated at once.  Small blocks bound the temporaries;
#: on dense 64^3 grids 64 rows ran the 16-node pass twice as fast as 256.
_BLOCK_ROWS = 64

_PARAMETRIC_TAGS = {"tau_alpha", "renyi_alpha"}
_KNOWN_TAGS = {
    "tau_quadratic",
    "tau_alpha",
    "renyi_alpha",
    "renyi_limit",
    "mutual_information",
    "group_tau",
    "group_tau_normalized",
    "averaged_dependence",
    "custom_phi",
}


@dataclass(frozen=True)
class MeasureKind:
    """Measure family tag plus its parameter, when the family has one."""

    tag: str
    alpha: float | None = None

    def __post_init__(self):
        if self.tag not in _KNOWN_TAGS:
            raise InvalidArgumentError(f"unknown measure kind {self.tag!r}")
        if self.tag in _PARAMETRIC_TAGS:
            if self.alpha is None:
                raise InvalidArgumentError(f"{self.tag} requires alpha")
            a = float(self.alpha)
            if self.tag == "tau_alpha" and not 1.0 <= a < math.inf:
                raise InvalidArgumentError(f"tau_alpha needs a finite alpha >= 1, got {a}")
            if self.tag == "renyi_alpha" and not (0.0 < a < 2.0 and a != 1.0):
                raise InvalidArgumentError(
                    f"renyi_alpha needs 0 < alpha < 2, alpha != 1, got {a}"
                )
            object.__setattr__(self, "alpha", a)
        elif self.alpha is not None:
            raise InvalidArgumentError(f"{self.tag} takes no alpha")


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
        knots = tuple((float(t), float(k)) for t, k in self.knots)
        if not knots:
            raise InvalidArgumentError("Kendall CDF needs at least one knot")
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
    cells that carry mass."""
    split.check_covers(copula.dims)
    order = split.u_axes + split.v_axes
    t = np.ascontiguousarray(np.transpose(copula.grid, order))
    mat = t.reshape(_prod(copula.resolutions[a] for a in split.u_axes), -1)
    w = mat.sum(axis=1)
    live = np.flatnonzero(w > 0.0)
    if live.size == w.size:
        return w, mat
    return w[live], mat[live]


def _conditional_edges(
    copula: CheckerboardCopula, split: GroupSplit
) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the conditioning cells that carry mass, and their
    conditional CDF at the target cell edges (one row per cell)."""
    if len(split.v_axes) != 1:
        raise InvalidArgumentError(
            "this measure takes exactly one target axis; use group_tau for groups"
        )
    w, mat = _active_rows(copula, split)
    edges = np.empty((mat.shape[0], mat.shape[1] + 1))
    edges[:, 0] = 0.0
    np.cumsum(mat, axis=1, out=edges[:, 1:])
    edges[:, 1:] /= w[:, None]
    return w, edges


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


def _cell_values(edges: np.ndarray, fn) -> np.ndarray:
    """fn(left, right) of the edge values of every target cell, one value per
    (row, cell), evaluated a block of rows at a time."""
    out = np.empty((edges.shape[0], edges.shape[1] - 1))
    for lo in range(0, edges.shape[0], _BLOCK_ROWS):
        block = edges[lo : lo + _BLOCK_ROWS]
        out[lo : lo + _BLOCK_ROWS] = fn(block[:, :-1], block[:, 1:])
    return out


def _cell_integrals(edges: np.ndarray, g) -> np.ndarray:
    """Integral of g(F, v) over every target cell, one value per (row, cell).

    F is the conditional CDF, linear on each cell between its edge values.
    ``g`` takes F at the nodes, shape (rows, cells, nodes), and v at the
    nodes, shape (cells, nodes), and must return an array of the first shape.
    """
    nodes, weights = _unit_nodes(0.0)
    m = edges.shape[1] - 1
    v_at = (np.arange(m)[:, None] + nodes[None, :]) / m

    def rule(fa, fb):
        return g(fa[..., None] + (fb - fa)[..., None] * nodes, v_at) @ weights / m

    return _cell_values(edges, rule)


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
    cell = tuple(int(i) for i in np.atleast_1d(np.asarray(u_cell, dtype=np.int64)))
    if len(cell) != len(u_res) or any(not 0 <= i < m for i, m in zip(cell, u_res)):
        raise InvalidArgumentError(f"cell {cell} outside grid {tuple(u_res)}")
    vs = np.asarray(v, dtype=np.float64).ravel()
    if vs.size != len(split.v_axes):
        raise InvalidArgumentError(
            f"target point needs {len(split.v_axes)} coordinates, got {vs.size}"
        )
    if np.any(vs < 0.0) or np.any(vs > 1.0) or not np.all(np.isfinite(vs)):
        raise InvalidArgumentError(f"target point {vs.tolist()} outside [0, 1]")

    view = np.transpose(copula.grid, split.u_axes + split.v_axes)
    acc = np.ascontiguousarray(view[cell])
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
    w, gap = _conditional_edges(copula, split)
    m = gap.shape[1] - 1
    gap -= np.arange(m + 1) / m  # F - v at the cell edges
    cells = _cell_values(gap, lambda ga, gb: (ga * ga + ga * gb + gb * gb) / (3.0 * m))
    value = 6.0 * _fsum(w * cells.sum(axis=1))
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
    a = float(alpha)
    if not 1.0 <= a < math.inf:
        raise InvalidArgumentError(f"alpha must be finite and >= 1, got {a}")
    if a == 2.0:
        return replace(tau_quadratic(copula, split), kind=MeasureKind("tau_alpha", 2.0))
    normalizer = (a + 1.0) * (a + 2.0) / 2.0
    w, profile = _conditional_edges(copula, split)
    per_row = _cell_integrals(profile, lambda f, v: np.abs(f - v) ** a).sum(axis=1)
    value = normalizer * _fsum(w * per_row)
    _warn_above_unit(value, "tau_alpha")
    return MeasureReport(
        kind=MeasureKind("tau_alpha", a),
        value=value,
        split=split,
        resolutions=copula.resolutions,
        normalizer=normalizer,
    )


def _ratio_integrals(profile: np.ndarray, alpha: float | None) -> np.ndarray:
    """Per (row, cell): integral over the cell of phi(conditional CDF / v).

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
    """
    from scipy.special import spence, xlogy

    if alpha is None:
        def phi(r):
            return r * np.log(np.where(r > 0.0, r, 1.0))
    else:
        def phi(r):
            return r**alpha

    m = profile.shape[1] - 1
    f0, f1 = profile[:, :-1], profile[:, 1:]
    v0 = np.broadcast_to(np.arange(m) / m, f0.shape)
    v1 = np.broadcast_to(np.arange(1, m + 1) / m, f0.shape)
    slope = (f1 - f0) * m
    intercept = f0 - slope * v0
    out = _cell_integrals(profile, lambda f, v: phi(np.maximum(f / v, 0.0)))

    flat = intercept == 0.0
    out[flat] = phi(slope[flat]) * (v1 - v0)[flat]
    near = (intercept < 0.0) & (3.0 * f0 < f1)
    b = slope[near]
    root = -intercept[near] / b
    s0 = f0[near] / (b * v0[near])
    s1 = f1[near] / (b * v1[near])
    if alpha is None:
        def p(s):
            return s / (1.0 - s) + np.log1p(-s)

        def k(s):
            l1 = np.log1p(-s)
            return xlogy(s, s) / (1.0 - s) + xlogy(l1, s) + l1 + spence(1.0 - s)

        out[near] = b * root * (np.log(b) * (p(s1) - p(s0)) + k(s1) - k(s0))
    else:
        t, wt = _unit_nodes(alpha)

        def j(s):
            return s ** (alpha + 1.0) * ((1.0 - s[:, None] * t) ** -2 @ wt)

        out[near] = b**alpha * root * (j(s1) - j(s0))
    return out


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
    a = float(alpha)
    if not (0.0 < a < 2.0) or a == 1.0:
        raise InvalidArgumentError(f"alpha must be in (0, 2) excluding 1, got {a}")
    w, profile = _conditional_edges(copula, split)
    total = _fsum(w * _ratio_integrals(profile, a).sum(axis=1))
    if total <= 0.0:
        raise EvaluationError(f"nonpositive integral {total} in renyi_alpha")
    value = math.log(total) / (a - 1.0)
    return MeasureReport(
        kind=MeasureKind("renyi_alpha", a),
        value=value,
        split=split,
        resolutions=copula.resolutions,
    )


def renyi_limit(copula: CheckerboardCopula, split: GroupSplit) -> MeasureReport:
    """Kullback-Leibler form: E[(F/v) log(F/v)] over the conditioning law.

    The alpha -> 1 limit of the entropy family.  0 for independence, 1 in
    the continuous complete-dependence limit, unbounded in general.
    """
    w, profile = _conditional_edges(copula, split)
    value = _fsum(w * _ratio_integrals(profile, None).sum(axis=1))
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
    slabs = []
    g = copula.grid
    for axis in range(copula.dims):
        others = tuple(a for a in range(copula.dims) if a != axis)
        slabs.append(g.sum(axis=others) if others else np.array(g, copy=True))
    live = np.flatnonzero(copula.mass > 0.0)
    p = copula.mass[live]
    indices = np.unravel_index(live, copula.resolutions)
    denom = slabs[0][indices[0]].copy()
    for axis in range(1, copula.dims):
        denom *= slabs[axis][indices[axis]]
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
        w, profile = _conditional_edges(copula, split)
        vals = _cell_integrals(
            profile, lambda f, v: np.asarray(phi(f - v), dtype=np.float64)
        )
    else:
        w, gaps, target_w = _center_gaps(copula, split)
        vals = np.asarray(phi(gaps), dtype=np.float64) * target_w
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("phi produced a non-finite value")
    value = _fsum(w * vals.sum(axis=1))
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
    others = tuple(a for a in range(copula.dims) if a not in v_axes)
    order = v_axes + others
    block = np.ascontiguousarray(np.transpose(copula.grid, order))
    nv = _prod(copula.resolutions[a] for a in v_axes)
    block = block.reshape(nv, -1)
    return np.asarray([math.fsum(row.tolist()) for row in block])


@lru_cache(maxsize=64)
def _center_ramp(m: int) -> np.ndarray:
    """Overlap of cell i below the center of cell j: 0 under, 1/2 on, 1 over."""
    ramp = np.clip((np.arange(m)[None, :] + 0.5) - np.arange(m)[:, None], 0.0, 1.0)
    ramp.setflags(write=False)
    return ramp


def _center_contract(block: np.ndarray, v_res: tuple[int, ...]) -> np.ndarray:
    """Contract trailing target axes with the center ramps of each axis."""
    out = block
    for m in v_res:
        out = np.tensordot(out, _center_ramp(m), axes=([1], [0]))
    return out


def _center_profiles(w: np.ndarray, mat: np.ndarray, v_res) -> np.ndarray:
    """Conditional CDF at every target cell center, per conditioning cell."""
    t = mat.reshape((mat.shape[0],) + tuple(v_res))
    out = _center_contract(t, tuple(v_res))
    return out.reshape(mat.shape[0], -1) / w[:, None]


def _center_reference(target_w: np.ndarray, v_res) -> np.ndarray:
    """Target-marginal CDF at every target cell center."""
    out = _center_contract(target_w.reshape((1,) + tuple(v_res)), tuple(v_res))
    return out.reshape(-1)


def _center_gaps(
    copula: CheckerboardCopula, split: GroupSplit
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights of the conditioning cells that carry mass, the gap between
    their conditional CDF and the target-marginal CDF at every target cell
    center, and the target-marginal cell masses."""
    w, mat = _active_rows(copula, split)
    v_res = tuple(copula.resolutions[a] for a in split.v_axes)
    target_w = _target_marginal_masses(copula, split.v_axes)
    reference = _center_reference(target_w, v_res)
    gaps = _center_profiles(w, mat, v_res) - reference[None, :]
    return w, gaps, target_w


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
    v_res = tuple(copula.resolutions[a] for a in v_axes)
    masses = _target_marginal_masses(copula, v_axes)
    ts = _center_reference(masses, v_res)
    order = np.argsort(ts, kind="stable")
    knots = []
    cum = 0.0
    for i in order:
        cum += float(masses[i])
        t = float(ts[i])
        if knots and knots[-1][0] == t:
            knots[-1] = (t, cum)
        else:
            knots.append((t, cum))
    # Guard the accumulated total against eps drift past 1.
    t_last, k_last = knots[-1]
    knots[-1] = (t_last, min(k_last, 1.0))
    return KendallCdf(tuple(knots), kind="step")


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
    w, gaps, target_w = _center_gaps(copula, split)
    per_row = (gaps * gaps) @ target_w
    value = 6.0 * _fsum(w * per_row)
    bound = max_bound(kendall_cdf(copula, split.v_axes))
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
    if base.upper_bound is None or base.upper_bound < 1e-12:
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
# dispatch
# ----------------------------------------------------------------------


def compute_measure(
    copula: CheckerboardCopula,
    split: GroupSplit | None,
    kind: MeasureKind,
) -> MeasureReport:
    """Route a MeasureKind to its implementation."""
    if kind.tag == "mutual_information":
        return mutual_information(copula)
    if split is None:
        raise InvalidArgumentError(f"{kind.tag} requires a group split")
    if kind.tag == "tau_quadratic":
        return tau_quadratic(copula, split)
    if kind.tag == "tau_alpha":
        return tau_alpha(copula, split, kind.alpha)
    if kind.tag == "renyi_alpha":
        return renyi_alpha(copula, split, kind.alpha)
    if kind.tag == "renyi_limit":
        return renyi_limit(copula, split)
    if kind.tag == "group_tau":
        return group_tau(copula, split)
    if kind.tag == "group_tau_normalized":
        return group_tau_normalized(copula, split)
    if kind.tag == "averaged_dependence":
        return averaged_dependence(copula, split)
    raise InvalidArgumentError(f"cannot dispatch measure kind {kind.tag!r}")
