"""Dependence measures on checkerboard copulas.

All measures share one object: the conditional CDF of the target block given
a conditioning cell.  On a checkerboard grid the conditional given any point
inside a conditioning cell is constant on that cell, equal to the cell's
mass profile along the target axes divided by the cell's weight, so every
integral over the conditioning block becomes an exact finite sum over cells.

The quadratic measure integrates (conditional CDF - reference)^2 in closed
form per target cell (the integrand is piecewise quadratic).  The alpha
distance family uses fixed-order Gauss-Legendre nodes per cell, the entropy
family uses adaptive quadrature with closed forms on cells where the
integrand is constant, and the group measure evaluates at target cell
centers against the target-marginal weights.

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
from dataclasses import dataclass
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
            if self.tag == "tau_alpha" and a < 1.0:
                raise InvalidArgumentError(f"tau_alpha needs alpha >= 1, got {a}")
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


def _split_matrix(copula: CheckerboardCopula, split: GroupSplit) -> np.ndarray:
    """Masses as a (conditioning cells) x (target cells) matrix."""
    split.check_covers(copula.dims)
    order = split.u_axes + split.v_axes
    t = np.ascontiguousarray(np.transpose(copula.grid, order))
    nu = _prod(copula.resolutions[a] for a in split.u_axes)
    return t.reshape(nu, -1)


def _active(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights and rows of the conditioning cells that carry mass."""
    w = mat.sum(axis=1)
    live = np.flatnonzero(w > 0.0)
    if live.size == w.size:
        return w, mat
    return w[live], mat[live]


def _edge_profiles(w: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Conditional CDF at the target cell edges, one row per active cell."""
    edges = np.empty((mat.shape[0], mat.shape[1] + 1))
    edges[:, 0] = 0.0
    np.cumsum(mat, axis=1, out=edges[:, 1:])
    edges[:, 1:] /= w[:, None]
    return edges


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

    mat = _split_matrix(copula, split)
    flat = 0
    for i, m in zip(cell, u_res):
        flat = flat * m + i
    row = mat[flat]
    weight = float(row.sum())
    if weight <= 0.0:
        return 0.0
    v_res = tuple(copula.resolutions[a] for a in split.v_axes)
    acc = row.reshape(v_res)
    for coord, m in zip(vs, v_res):
        ramp = np.clip(coord * m - np.arange(m), 0.0, 1.0)
        acc = np.tensordot(acc, ramp, axes=([0], [0]))
    return float(acc) / weight


# ----------------------------------------------------------------------
# single-target measures
# ----------------------------------------------------------------------


def _require_single_target(split: GroupSplit) -> None:
    if len(split.v_axes) != 1:
        raise InvalidArgumentError(
            "this measure takes exactly one target axis; use group_tau for groups"
        )


def tau_quadratic(copula: CheckerboardCopula, split: GroupSplit) -> MeasureReport:
    """Quadratic dependence of the target on the conditioning block.

    6 * sum over conditioning cells of weight * integral of
    (conditional CDF - v)^2 dv, with the v-integral exact per cell.
    0 for independence; at resolution m the complete-dependence maximum is
    1 - 1/m, approaching 1 as the grid refines.
    """
    _require_single_target(split)
    mat = _split_matrix(copula, split)
    w, mat = _active(mat)
    m = mat.shape[1]
    profile = _edge_profiles(w, mat)
    g = profile - np.arange(m + 1) / m
    ga, gb = g[:, :-1], g[:, 1:]
    per_row = ((ga * ga + ga * gb + gb * gb) / (3.0 * m)).sum(axis=1)
    value = 6.0 * _fsum(w * per_row)
    _warn_above_unit(value, "tau_quadratic")
    return MeasureReport(
        kind=MeasureKind("tau_quadratic"),
        value=value,
        split=split,
        resolutions=copula.resolutions,
        normalizer=6.0,
    )


@lru_cache(maxsize=16)
def _unit_gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    if order < 1:
        raise InvalidArgumentError(f"quadrature order must be positive, got {order}")
    from scipy.special import roots_legendre

    x, wt = roots_legendre(order)
    nodes = (x + 1.0) / 2.0
    weights = wt / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def tau_alpha(
    copula: CheckerboardCopula,
    split: GroupSplit,
    alpha: float,
    quad_order: int = 16,
) -> MeasureReport:
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
    if a < 1.0:
        raise InvalidArgumentError(f"alpha must be >= 1, got {a}")
    _require_single_target(split)
    normalizer = (a + 1.0) * (a + 2.0) / 2.0
    if a == 2.0:
        base = tau_quadratic(copula, split)
        return MeasureReport(
            kind=MeasureKind("tau_alpha", 2.0),
            value=base.value,
            split=split,
            resolutions=copula.resolutions,
            normalizer=normalizer,
        )
    mat = _split_matrix(copula, split)
    w, mat = _active(mat)
    m = mat.shape[1]
    profile = _edge_profiles(w, mat)
    fa, fb = profile[:, :-1], profile[:, 1:]
    nodes, weights = _unit_gauss_nodes(quad_order)
    # F and v sampled at the nodes of every cell: shape (rows, cells, order).
    f_at = fa[:, :, None] + (fb - fa)[:, :, None] * nodes[None, None, :]
    v_at = (np.arange(m)[:, None] + nodes[None, :]) / m
    cell_vals = np.abs(f_at - v_at[None, :, :]) ** a @ weights
    per_row = cell_vals.sum(axis=1) / m
    value = normalizer * _fsum(w * per_row)
    _warn_above_unit(value, "tau_alpha")
    return MeasureReport(
        kind=MeasureKind("tau_alpha", a),
        value=value,
        split=split,
        resolutions=copula.resolutions,
        normalizer=normalizer,
    )


def _ratio_cell_terms(w: np.ndarray, mat: np.ndarray, transform: str, alpha: float = 0.0):
    """Per conditioning cell: integral over v of phi(conditional CDF / v).

    ``transform`` selects phi: "power" for r**alpha, "xlogx" for r*log(r)
    (with 0 log 0 = 0).  Within a target cell the conditional CDF is linear,
    F(v) = c + B v; three cases arise:

      * c == 0: the ratio F/v equals the slope B on the whole cell, so the
        integral is phi(B) times the cell width.  This is always the case on
        the first cell, which removes the v -> 0 endpoint from quadrature.
      * B == 0: F is a positive constant and the integral has a closed form.
      * otherwise: smooth integrand on [v0, v1] with v0 > 0, handled by
        adaptive quadrature.
    """
    from scipy.integrate import quad

    m = mat.shape[1]
    profile = _edge_profiles(w, mat)
    rows = []
    for r in range(mat.shape[0]):
        terms = []
        for l in range(m):
            v0, v1 = l / m, (l + 1) / m
            f0, f1 = float(profile[r, l]), float(profile[r, l + 1])
            if f1 == 0.0:
                continue  # F identically zero on the cell
            slope = (f1 - f0) * m
            intercept = f0 - slope * v0
            if intercept == 0.0:
                ratio = slope
                if transform == "power":
                    val = ratio**alpha * (v1 - v0)
                else:
                    val = 0.0 if ratio == 0.0 else ratio * math.log(ratio) * (v1 - v0)
            elif slope == 0.0:
                if transform == "power":
                    val = f0**alpha * (v1 ** (1.0 - alpha) - v0 ** (1.0 - alpha)) / (1.0 - alpha)
                else:
                    val = f0 * (
                        math.log(f0) * (math.log(v1) - math.log(v0))
                        - (math.log(v1) ** 2 - math.log(v0) ** 2) / 2.0
                    )
            else:
                # the ratio is nonnegative up to rounding; clamp so a tiny
                # negative excursion cannot produce a complex power
                if transform == "power":
                    def integrand(v):
                        r_ = (intercept + slope * v) / v
                        return r_**alpha if r_ > 0.0 else 0.0
                else:
                    def integrand(v):
                        r_ = (intercept + slope * v) / v
                        return r_ * math.log(r_) if r_ > 0.0 else 0.0
                val, _ = quad(
                    integrand, v0, v1, epsabs=1e-12, epsrel=1e-12, limit=200
                )
            terms.append(val)
        rows.append(math.fsum(terms))
    return np.asarray(rows)


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
    _require_single_target(split)
    mat = _split_matrix(copula, split)
    w, mat = _active(mat)
    per_row = _ratio_cell_terms(w, mat, "power", a)
    total = _fsum(w * per_row)
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
    _require_single_target(split)
    mat = _split_matrix(copula, split)
    w, mat = _active(mat)
    per_row = _ratio_cell_terms(w, mat, "xlogx")
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


def generic_measure(
    copula: CheckerboardCopula,
    split: GroupSplit,
    phi,
    quad_order: int = 16,
) -> MeasureReport:
    """Unnormalized measure with a caller-supplied convex phi.

    Integrates phi(conditional CDF - reference) against the conditioning
    weights, where the reference is v itself for a single target axis
    (Lebesgue dv) and the target-marginal CDF at cell centers for a target
    group (target-marginal weights).  ``phi`` must accept numpy arrays;
    convexity is the caller's responsibility, phi(0) = 0 is recommended.
    """
    split.check_covers(copula.dims)
    mat = _split_matrix(copula, split)
    w, mat = _active(mat)
    if len(split.v_axes) == 1:
        m = mat.shape[1]
        profile = _edge_profiles(w, mat)
        fa, fb = profile[:, :-1], profile[:, 1:]
        nodes, weights = _unit_gauss_nodes(quad_order)
        f_at = fa[:, :, None] + (fb - fa)[:, :, None] * nodes[None, None, :]
        v_at = (np.arange(m)[:, None] + nodes[None, :]) / m
        vals = np.asarray(phi(f_at - v_at[None, :, :]), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("phi produced a non-finite value")
        per_row = (vals @ weights).sum(axis=1) / m
    else:
        v_res = tuple(copula.resolutions[a] for a in split.v_axes)
        target_w = _target_marginal_masses(copula, split.v_axes)
        reference = _center_reference(target_w, v_res)
        centered = _center_profiles(w, mat, v_res)
        vals = np.asarray(phi(centered - reference[None, :]), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("phi produced a non-finite value")
        per_row = vals @ target_w
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
    split.check_covers(copula.dims)
    mat = _split_matrix(copula, split)
    w, mat = _active(mat)
    v_res = tuple(copula.resolutions[a] for a in split.v_axes)
    target_w = _target_marginal_masses(copula, split.v_axes)
    reference = _center_reference(target_w, v_res)
    centered = _center_profiles(w, mat, v_res)
    gaps = centered - reference[None, :]
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
    quad_order: int = 16,
) -> MeasureReport:
    """Route a MeasureKind to its implementation."""
    if kind.tag == "mutual_information":
        return mutual_information(copula)
    if split is None:
        raise InvalidArgumentError(f"{kind.tag} requires a group split")
    if kind.tag == "tau_quadratic":
        return tau_quadratic(copula, split)
    if kind.tag == "tau_alpha":
        return tau_alpha(copula, split, kind.alpha, quad_order=quad_order)
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
