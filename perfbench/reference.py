"""Reference values for the benchmark's output checks, independent of copdep.

Each function recomputes, with numpy and scipy.special only, the number the
seed version of copdep returns on the same input.  The closed-form kinds are
the same exact finite sums; ``tau_alpha`` uses the same 16-point
Gauss-Legendre rule per target cell, because that rule defines its value;
the entropy kinds, which copdep integrates by adaptive quadrature at 1e-12,
use exact antiderivatives here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import spence

#: |program - reference| allowed for sums that are exact on the grid.
ABS_TOL = 1e-12
#: |program - reference| / |reference| allowed for quadrature-defined kinds.
REL_TOL = 1e-9
#: Slack of copdep's own data-processing and group-bound checks.
PROPERTY_SLACK = 1e-9


def xi_gaussian(r2: float) -> float:
    """Population xi of a Gaussian target with squared multiple correlation r2.

    (3/pi) arcsin((1 + r2)/2) - 1/2 (Chatterjee 2021, JASA).
    """
    return 3.0 / math.pi * math.asin((1.0 + r2) / 2.0) - 0.5


def cell_index(data: np.ndarray, m: int) -> np.ndarray:
    """Flat grid cell (row-major) of each row's normalized ranks (r + 0.5)/N."""
    n, d = data.shape
    if n % m:
        # Exact uniform marginals, hence no IPF in the program, need m | N.
        raise ValueError(f"resolution {m} must divide the row count {n}")
    idx = np.zeros(n, dtype=np.int64)
    for j in range(d):
        ranks = np.empty(n)
        ranks[np.argsort(data[:, j], kind="stable")] = np.arange(n, dtype=np.float64)
        cells = np.minimum(np.floor((ranks + 0.5) / n * m).astype(np.int64), m - 1)
        idx = idx * m + cells
    return idx


def _live_rows(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = mat.sum(axis=1)
    live = w > 0.0
    return w[live], mat[live]


def _edges(w: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Conditional CDF at the target cell edges, one row per conditioning cell."""
    edges = np.zeros((mat.shape[0], mat.shape[1] + 1))
    edges[:, 1:] = np.cumsum(mat, axis=1) / w[:, None]
    return edges


def tau_quadratic(mat: np.ndarray) -> float:
    """6 * sum_u w_u * integral (F_u(v) - v)^2 dv over a (cond x target) mass matrix."""
    w, mat = _live_rows(mat)
    m = mat.shape[1]
    g = _edges(w, mat) - np.arange(m + 1) / m
    ga, gb = g[:, :-1], g[:, 1:]
    per_row = ((ga * ga + ga * gb + gb * gb) / (3.0 * m)).sum(axis=1)
    return 6.0 * math.fsum((w * per_row).tolist())


def tau_alpha(mat: np.ndarray, alpha: float, order: int = 16) -> float:
    w, mat = _live_rows(mat)
    m = mat.shape[1]
    e = _edges(w, mat)
    x, wt = np.polynomial.legendre.leggauss(order)
    nodes, weights = (x + 1.0) / 2.0, wt / 2.0
    fa, fb = e[:, :-1], e[:, 1:]
    f_at = fa[:, :, None] + (fb - fa)[:, :, None] * nodes
    v_at = (np.arange(m)[:, None] + nodes) / m
    per_row = (np.abs(f_at - v_at) ** alpha @ weights).sum(axis=1) / m
    return (alpha + 1.0) * (alpha + 2.0) / 2.0 * math.fsum((w * per_row).tolist())


def _linear_pieces(mat: np.ndarray):
    """Weights and, per target cell, F(v) = c + B v on [v0, v1]."""
    w, mat = _live_rows(mat)
    if not np.all(mat > 0.0):
        raise ValueError("entropy references assume every cell carries mass")
    m = mat.shape[1]
    e = _edges(w, mat)
    v0 = np.arange(m) / m
    v1 = np.arange(1, m + 1) / m
    slope = (e[:, 1:] - e[:, :-1]) * m
    intercept = e[:, :-1] - slope * v0
    return w, slope, intercept, v0, v1


def _dilog(x):
    """Li2(x) for x <= 1."""
    return spence(1.0 - x)


def renyi_sqrt(mat: np.ndarray) -> float:
    """renyi_alpha at alpha = 1/2: -2 log sum_u w_u integral sqrt(F_u(v)/v) dv."""
    w, b, c, v0, v1 = _linear_pieces(mat)
    safe_c = np.where(c == 0.0, 1.0, c)

    def antideriv(v):
        # d/dv [sqrt(v(Bv+c)) + c/sqrt(B) ln(sqrt(Bv) + sqrt(Bv+c))] = sqrt((Bv+c)/v)
        return np.sqrt(v * (b * v + safe_c)) + safe_c / np.sqrt(b) * np.log(
            np.sqrt(b * v) + np.sqrt(b * v + safe_c)
        )

    cells = np.where(c == 0.0, np.sqrt(b) * (v1 - v0), antideriv(v1) - antideriv(v0))
    return math.log(math.fsum((w * cells.sum(axis=1)).tolist())) / (0.5 - 1.0)


def renyi_limit(mat: np.ndarray) -> float:
    """sum_u w_u integral r log r dv with r = F_u(v)/v = B + c/v on each cell."""
    w, b, c, v0, v1 = _linear_pieces(mat)
    pos = c > 0.0
    safe_c = np.where(c == 0.0, 1.0, c)

    def antideriv(v):
        lv = np.log(v)
        f = b * v + safe_c
        # c * integral ln(Bv + c)/v dv, split by the sign of c so Li2 stays on (-inf, 1)
        j_pos = safe_c * (np.log(np.abs(safe_c)) * lv - _dilog(-b * v / np.abs(safe_c)))
        j_neg = safe_c * (np.log(b * v) ** 2 / 2.0 + _dilog(-safe_c / (b * v)))
        return f * np.log(f) - b * v * lv - safe_c * lv * lv / 2.0 + np.where(pos, j_pos, j_neg)

    # Cells with c == 0 (always cell 0, where v0 = 0) take the closed form below.
    general = antideriv(v1) - antideriv(np.where(c == 0.0, v1, v0))
    cells = np.where(c == 0.0, b * np.log(b) * (v1 - v0), general)
    return math.fsum((w * cells.sum(axis=1)).tolist())


def mutual_information(grid: np.ndarray) -> float:
    d = grid.ndim
    denom = np.ones_like(grid)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = grid.shape[axis]
        denom = denom * grid.sum(axis=tuple(a for a in range(d) if a != axis)).reshape(shape)
    live = grid > 0.0
    p = grid[live]
    return math.fsum((p * np.log(p / denom[live])).tolist())


def _center_ramp(m: int) -> np.ndarray:
    """R[j, i]: share of target cell i below the centre of cell j (1, 1/2 or 0)."""
    i = np.arange(m)
    return np.where(i[None, :] < i[:, None], 1.0, np.where(i[None, :] == i[:, None], 0.5, 0.0))


def group_tau(grid: np.ndarray) -> tuple[float, float]:
    """group_tau of axes (1, 2) on axis 0 of a 3-D grid, and its Kendall bound."""
    r1, r2 = _center_ramp(grid.shape[1]), _center_ramp(grid.shape[2])
    w = grid.sum(axis=(1, 2))
    target = grid.sum(axis=0)
    centre = np.einsum("ja,uab,kb->ujk", r1, grid, r2) / w[:, None, None]
    ref = r1 @ target @ r2.T
    gaps = centre - ref
    value = 6.0 * math.fsum((w * ((gaps * gaps) * target).sum(axis=(1, 2))).tolist())
    bound = 6.0 * math.fsum(((ref - ref * ref) * target).ravel().tolist())
    return value, bound


def conditional_cdf(grid: np.ndarray, i: int, j: int, v: float) -> float:
    """P(axis 2 <= v | axes (0, 1) in cell (i, j))."""
    row = grid[i, j]
    m = row.size
    return float(row @ np.clip(v * m - np.arange(m), 0.0, 1.0)) / float(row.sum())


def grid_measures(grid: np.ndarray, queries) -> dict:
    """Every value a grid_measures pass reports, keyed as the worker keys them."""
    m = grid.shape[0]
    split_last = grid.reshape(m * m, m)
    gt, bound = group_tau(grid)
    return {
        "tau_quadratic": tau_quadratic(split_last),
        "tau_alpha": tau_alpha(split_last, 1.0),
        "renyi_alpha": renyi_sqrt(split_last),
        "renyi_limit": renyi_limit(split_last),
        "group_tau": gt,
        "group_tau_bound": bound,
        "group_tau_normalized": gt / bound,
        "averaged_dependence": (tau_quadratic(grid.sum(axis=2)) + tau_quadratic(grid.sum(axis=1))) / 2.0,
        "mutual_information": mutual_information(grid),
        "conditional_cdf": [conditional_cdf(grid, i, j, v) for i, j, v in queries],
    }


def csv_ingest(data: np.ndarray, m: int) -> float:
    """tau_quadratic of the last column on the others, fitted at resolution m."""
    idx = cell_index(data, m)
    counts = np.bincount(idx, minlength=m ** data.shape[1]).astype(np.float64)
    return tau_quadratic((counts / data.shape[0]).reshape(-1, m))


def high_dim_fit(data: np.ndarray, m: int) -> dict:
    """Occupied cells and tau_quadratic of the last axis, from the occupied cells only."""
    idx = cell_index(data, m)
    cells, counts = np.unique(idx, return_counts=True)
    cond, rows = np.unique(cells // m, return_inverse=True)
    mat = np.zeros((cond.size, m))
    mat[rows, cells % m] = counts / data.shape[0]
    return {"occupied_cells": int(cells.size), "tau_quadratic": tau_quadratic(mat)}
