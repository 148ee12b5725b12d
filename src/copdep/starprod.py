"""Generalized Markov product of copulas and its verification harnesses.

Two grids can be composed through a shared middle block: if A couples a
conditioning block U to a middle block S, and B couples S to a target block
V, the product couples U to V by mixing B's conditionals with A's, cell by
cell.  On checkerboards the composition is an exact finite sum (conditionals
are cellwise constant), so the data-processing inequality -- dependence
through a middle block never exceeds the direct dependence -- holds at
machine precision and can be fuzz-tested rather than merely trusted.

Layout convention, frozen throughout the package: A carries the U axes first
and the S axes last; B carries the S axes first and the target axes last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IncompatibleOperandsError, InvalidArgumentError, _count
from .estimation import _sample_matrix, fit_checkerboard, pseudo_observations
from .grid import CheckerboardCopula, GroupSplit, _check_axes, require_valid
from .measures import MeasureKind, compute_measure

#: Slack for the data-processing inequality check.
DPI_SLACK = 1e-9

#: Cellwise agreement required between the two coupling marginals.
COUPLING_TOL = 1e-9


def star(a: CheckerboardCopula, b: CheckerboardCopula, n: int) -> CheckerboardCopula:
    """Compose two grids through their shared middle block of ``n`` axes.

    Cell masses of the product: sum over middle cells of
    mass_A(u, s) * mass_B(s, v) / weight(s), with zero-weight middle cells
    contributing nothing.  The result is a valid copula whose conditioning
    marginal equals A's and whose target marginal equals B's.

    The middle-block marginals of A and B must agree cellwise within
    COUPLING_TOL, else IncompatibleOperandsError.
    """
    n = _count(n, "middle block size")
    if a.dims != 2 * n:
        raise InvalidArgumentError(
            f"first operand must have {2 * n} axes (conditioning + middle), has {a.dims}"
        )
    if b.dims < n + 1:
        raise InvalidArgumentError(
            f"second operand must have at least {n + 1} axes, has {b.dims}"
        )
    if a.resolutions[n:] != b.resolutions[:n]:
        raise InvalidArgumentError(
            f"middle-block resolutions differ: {a.resolutions[n:]} vs {b.resolutions[:n]}"
        )
    middle = a._block_sums(range(n, 2 * n))[0] - b._block_sums(range(n))[0]
    discrepancy = float(np.abs(middle).max())
    if not discrepancy < COUPLING_TOL:
        raise IncompatibleOperandsError(
            f"operands disagree on the coupling marginal by up to {discrepancy:.3e};"
            f" star needs less than {COUPLING_TOL:g}"
        )
    a2 = a.mass.reshape(math.prod(a.resolutions[:n]), -1)
    b2 = b.mass.reshape(a2.shape[1], -1)
    weights = b2.sum(axis=1)
    cond_b = np.divide(
        b2,
        weights[:, None],
        out=np.zeros_like(b2),
        where=weights[:, None] > 0.0,
    )
    mass = np.einsum("us,sv->uv", a2, cond_b)
    return CheckerboardCopula(a.resolutions[:n] + b.resolutions[n:], mass)


def identity_coupling(n: int, m: int) -> CheckerboardCopula:
    """Coupling that makes the product act as the identity on its second operand.

    2n axes at resolution m, all mass on cells whose conditioning index
    tuple equals the middle index tuple.  Composing it with any compatible
    grid returns that grid, because each conditioning cell pins down one
    middle cell.
    """
    n, m = _count(n, "n"), _count(m, "m")
    n_s = m**n
    diagonal = np.arange(n_s, dtype=np.int64) * (n_s + 1)
    return require_valid(
        CheckerboardCopula._from_cells((m,) * (2 * n), diagonal, np.full(n_s, 1.0 / n_s)),
        "identity_coupling",
    )


@dataclass(frozen=True)
class DpiReport:
    """Chained vs direct dependence for one operand pair and measure kind."""

    kind: MeasureKind
    tau_chain: float
    tau_direct: float
    holds: bool


def dpi_report(
    a: CheckerboardCopula,
    b: CheckerboardCopula,
    n: int,
    kind: MeasureKind,
) -> DpiReport:
    """Check that composing through the middle block cannot raise the measure.

    Computes the measure of star(a, b) conditioning on the first block and
    of b conditioning on the middle block, then tests chain <= direct with
    1e-9 slack.  Only distance-family kinds make sense here (the inequality
    is a convexity statement), so entropy kinds are rejected.
    """
    if kind.tag not in ("tau_quadratic", "tau_alpha", "group_tau"):
        raise InvalidArgumentError(
            f"data-processing check needs a distance-family kind, got {kind.tag}"
        )
    chained = star(a, b, n)
    split_chain = GroupSplit(tuple(range(n)), tuple(range(n, chained.dims)))
    split_direct = GroupSplit(tuple(range(n)), tuple(range(n, b.dims)))
    tau_chain = compute_measure(chained, split_chain, kind).value
    tau_direct = compute_measure(b, split_direct, kind).value
    return DpiReport(
        kind=kind,
        tau_chain=tau_chain,
        tau_direct=tau_direct,
        holds=tau_chain <= tau_direct + DPI_SLACK,
    )


# ----------------------------------------------------------------------
# invariance harness
# ----------------------------------------------------------------------


#: The fields each TransformCase kind reads.
_TRANSFORM_FIELDS = {
    "column_map": ("column", "mapping"),
    "permute_conditioning": ("permutation",),
}


@dataclass(frozen=True)
class TransformCase:
    """One invariance probe.

    kinds:
      * "column_map": apply ``mapping`` to raw-data column ``column`` and
        refit.  The mapping must be strictly monotone on the observed
        values; increasing maps (and any map of a conditioning column) must
        not change the measure at all, a decreasing map of the target
        column must agree within 1e-12.
      * "permute_conditioning": relabel the conditioning axes by
        ``permutation`` (a permutation of positions within the block).
        Exact invariance.

    A kind needs the fields it reads (``_TRANSFORM_FIELDS``) and refuses the rest.
    """

    kind: str
    label: str = ""
    column: int | None = None
    mapping: Callable | None = None
    permutation: tuple[int, ...] | None = None

    def __post_init__(self):
        reads = _TRANSFORM_FIELDS.get(self.kind)
        if reads is None:
            raise InvalidArgumentError(f"unsupported transform kind {self.kind!r}")
        for field in ("column", "mapping", "permutation"):
            given = getattr(self, field) is not None
            if given != (field in reads):
                verb = "does not read" if given else "needs"
                raise InvalidArgumentError(f"{self.kind} {verb} {field}")


@dataclass(frozen=True)
class InvarianceResult:
    label: str
    deviation: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class InvarianceReport:
    baseline: float
    results: tuple[InvarianceResult, ...]
    max_deviation: float
    passed: bool


def equitability_suite(
    *,
    data,
    split: GroupSplit,
    transforms,
    resolutions,
    kind: MeasureKind = MeasureKind("tau_quadratic"),
) -> InvarianceReport:
    """Recompute a measure under rank-preserving transformations of a sample.

    ``data`` is fitted at ``resolutions``; each transform refits or relabels
    that fit and recomputes the measure.
    """
    data = _sample_matrix(data)
    base_cop = fit_checkerboard(pseudo_observations(data), resolutions)
    baseline = compute_measure(base_cop, split, kind).value

    results = []
    for case in transforms:
        label = case.label or case.kind
        if case.kind == "column_map":
            (col,) = _check_axes((case.column,), data.shape[1])
            column = np.asarray(case.mapping(data[:, col]))
            if column.shape != (len(data),) or column.dtype.kind not in "biuf":
                raise InvalidArgumentError(
                    f"column_map mapping must return numbers shaped ({len(data)},),"
                    f" got {column.dtype} shaped {column.shape}"
                )
            mapped = np.array(data, copy=True)
            mapped[:, col] = column
            direction = _monotone_direction(data[:, col], mapped[:, col])
            refit = fit_checkerboard(pseudo_observations(mapped), resolutions)
            value = compute_measure(refit, split, kind).value
            is_target = col in split.v_axes
            tol = 1e-12 if (is_target and direction < 0) else 0.0
        else:  # permute_conditioning
            perm = _check_axes(case.permutation, len(split.u_axes))
            if len(perm) != len(split.u_axes):
                raise InvalidArgumentError(
                    f"{perm} is not a permutation of the conditioning positions"
                )
            full = list(range(base_cop.dims))
            for pos, src in enumerate(perm):
                full[split.u_axes[pos]] = split.u_axes[src]
            value = compute_measure(base_cop.permute_axes(full), split, kind).value
            tol = 0.0
        deviation = abs(value - baseline)
        results.append(
            InvarianceResult(
                label=label,
                deviation=deviation,
                tolerance=tol,
                passed=deviation <= tol,
            )
        )
    max_dev = max((r.deviation for r in results), default=0.0)
    return InvarianceReport(
        baseline=baseline,
        results=tuple(results),
        max_deviation=max_dev,
        passed=all(r.passed for r in results),
    )


def _monotone_direction(original: np.ndarray, mapped: np.ndarray) -> int:
    """+1 for rank-preserving, -1 for rank-reversing; otherwise rejects.

    The direction is judged across distinct original values: equal values
    must map to one value, and distinct ones to distinct values.
    """
    order = np.argsort(original, kind="stable")
    distinct = np.diff(original[order]) > 0.0
    step = np.diff(mapped[order])
    if np.any(step[~distinct] != 0.0):
        raise InvalidArgumentError("mapping sends equal observed values to different values")
    step = step[distinct]
    if np.all(step > 0.0):
        return 1
    if np.all(step < 0.0):
        return -1
    raise InvalidArgumentError(
        "mapping is not strictly monotone on the observed values"
    )
