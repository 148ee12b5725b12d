"""The cell-list copula against the dense-array implementation it replaced.

``Dense`` below keeps the previous code path: every layout-dependent step
(validation, marginals, the conditioning matrix, the conditional CDF, slab
sums and target marginals) works on the full ``m_1 x ... x m_d`` mass
array, and the measure reductions on top of it are the ones that array fed.
On small random grids, most cells empty, every measure kind must agree with
it to 1e-12.  ``rank_box_grid`` fits a sample by brute force, one row at a
time, for the fit to be checked against.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi, spence, xlogy

from copdep import (
    CopdepError,
    GroupSplit,
    averaged_dependence,
    conditional_cdf,
    fit_checkerboard,
    generic_measure,
    group_tau,
    group_tau_normalized,
    mutual_information,
    pseudo_observations,
    renyi_alpha,
    renyi_limit,
    tau_alpha,
    tau_quadratic,
)
from conftest import unchecked

TOL = 1e-12

# Random grids with nonuniform marginals can exceed the unit bound.
pytestmark = pytest.mark.filterwarnings("ignore:.*exceeds the unit bound")


def unit_nodes(power):
    x, wt = roots_jacobi(16, 0.0, power)
    return (x + 1.0) / 2.0, wt / 2.0 ** (power + 1.0)


class Dense:
    """Measures computed from the dense mass array of a copula."""

    def __init__(self, resolutions, grid):
        self.res = tuple(resolutions)
        self.grid = np.asarray(grid, dtype=np.float64).reshape(self.res)

    # -- layout-dependent steps ------------------------------------------

    def active_rows(self, split):
        t = np.ascontiguousarray(np.transpose(self.grid, split.u_axes + split.v_axes))
        mat = t.reshape(int(np.prod([self.res[a] for a in split.u_axes])), -1)
        w = mat.sum(axis=1)
        live = np.flatnonzero(w > 0.0)
        return w[live], mat[live]

    def edges(self, split):
        w, mat = self.active_rows(split)
        edges = np.zeros((mat.shape[0], mat.shape[1] + 1))
        np.cumsum(mat, axis=1, out=edges[:, 1:])
        edges[:, 1:] /= w[:, None]
        return w, edges

    def slabs(self, axis):
        others = tuple(a for a in range(self.grid.ndim) if a != axis)
        return self.grid.sum(axis=others) if others else self.grid.copy()

    def target_masses(self, v_axes):
        others = tuple(a for a in range(self.grid.ndim) if a not in v_axes)
        block = np.ascontiguousarray(np.transpose(self.grid, tuple(v_axes) + others))
        block = block.reshape(int(np.prod([self.res[a] for a in v_axes])), -1)
        return np.asarray([math.fsum(row.tolist()) for row in block])

    def marginal(self, axes):
        removed = tuple(a for a in range(self.grid.ndim) if a not in axes)
        block = np.ascontiguousarray(np.transpose(self.grid, tuple(axes) + removed))
        n_kept = int(np.prod([self.res[a] for a in axes]))
        return Dense([self.res[a] for a in axes], block.reshape(n_kept, -1).sum(axis=1))

    def conditional_cdf(self, split, cell, v):
        acc = np.ascontiguousarray(np.transpose(self.grid, split.u_axes + split.v_axes)[cell])
        weight = float(acc.sum())
        if weight <= 0.0:
            return 0.0
        for coord, m in zip(np.atleast_1d(v), acc.shape):
            acc = np.tensordot(acc, np.clip(coord * m - np.arange(m), 0.0, 1.0), axes=([0], [0]))
        return float(acc) / weight

    def validate(self):
        flat = self.grid.ravel()
        worst = max(float(np.abs(self.slabs(a) - 1.0 / m).max()) for a, m in enumerate(self.res))
        return max(0.0, -float(flat.min())), abs(float(flat.sum()) - 1.0), worst

    # -- measures --------------------------------------------------------

    @staticmethod
    def gauss(edges, g):
        nodes, weights = unit_nodes(0.0)
        m = edges.shape[1] - 1
        v_at = (np.arange(m)[:, None] + nodes[None, :]) / m
        fa, fb = edges[:, :-1], edges[:, 1:]
        return g(fa[..., None] + (fb - fa)[..., None] * nodes, v_at) @ weights / m

    def tau_quadratic(self, split):
        w, gap = self.edges(split)
        m = gap.shape[1] - 1
        gap -= np.arange(m + 1) / m
        ga, gb = gap[:, :-1], gap[:, 1:]
        cells = (ga * ga + ga * gb + gb * gb) / (3.0 * m)
        return 6.0 * math.fsum((w * cells.sum(axis=1)).tolist())

    def tau_alpha(self, split, a):
        w, edges = self.edges(split)
        cells = self.gauss(edges, lambda f, v: np.abs(f - v) ** a)
        return (a + 1.0) * (a + 2.0) / 2.0 * math.fsum((w * cells.sum(axis=1)).tolist())

    def custom_phi(self, split, phi):
        w, edges = self.edges(split)
        return math.fsum((w * self.gauss(edges, lambda f, v: phi(f - v)).sum(axis=1)).tolist())

    def ratio_total(self, split, alpha):
        """Previous entropy kernel: the rule on every cell, then closed forms."""
        if alpha is None:
            def phi(r):
                return r * np.log(np.where(r > 0.0, r, 1.0))
        else:
            def phi(r):
                return r**alpha
        w, profile = self.edges(split)
        m = profile.shape[1] - 1
        f0, f1 = profile[:, :-1], profile[:, 1:]
        v0 = np.broadcast_to(np.arange(m) / m, f0.shape)
        v1 = np.broadcast_to(np.arange(1, m + 1) / m, f0.shape)
        slope = (f1 - f0) * m
        intercept = f0 - slope * v0
        out = self.gauss(profile, lambda f, v: phi(np.maximum(f / v, 0.0)))
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
            t, wt = unit_nodes(alpha)

            def j(s):
                return s ** (alpha + 1.0) * ((1.0 - s[:, None] * t) ** -2 @ wt)

            out[near] = b**alpha * root * (j(s1) - j(s0))
        return math.fsum((w * out.sum(axis=1)).tolist())

    def renyi_alpha(self, split, a):
        total = self.ratio_total(split, a)
        if total <= 0.0:
            raise CopdepError("nonpositive integral")
        return math.log(total) / (a - 1.0)

    def renyi_limit(self, split):
        return self.ratio_total(split, None)

    def mutual_information(self):
        flat = self.grid.ravel()
        live = np.flatnonzero(flat > 0.0)
        idx = np.unravel_index(live, self.res)
        denom = np.ones(live.size)
        for axis in range(len(self.res)):
            denom *= self.slabs(axis)[idx[axis]]
        p = flat[live]
        return math.fsum((p * np.log(p / denom)).tolist())

    def center_gaps(self, split):
        w, mat = self.active_rows(split)
        v_res = tuple(self.res[a] for a in split.v_axes)

        def contract(block):
            for m in v_res:
                ramp = np.clip((np.arange(m)[None, :] + 0.5) - np.arange(m)[:, None], 0.0, 1.0)
                block = np.tensordot(block, ramp, axes=([1], [0]))
            return block

        target_w = self.target_masses(split.v_axes)
        reference = contract(target_w.reshape((1,) + v_res)).reshape(-1)
        profiles = contract(mat.reshape((mat.shape[0],) + v_res)).reshape(mat.shape[0], -1)
        return w, profiles / w[:, None] - reference[None, :], target_w, reference

    @staticmethod
    def kendall_bound(target_w, ts):
        """6 * integral of (t - t^2) dK(t), K putting each target cell's mass at its t."""
        return 6.0 * math.fsum(((ts - ts * ts) * target_w).tolist())

    def group_tau(self, split):
        w, gaps, target_w, ts = self.center_gaps(split)
        value = 6.0 * math.fsum((w * ((gaps * gaps) @ target_w)).tolist())
        return value, self.kendall_bound(target_w, ts)

    def group_tau_normalized(self, split):
        value, bound = self.group_tau(split)
        if bound < 1e-12:
            raise CopdepError("bound too small")
        return value / bound

    def averaged_dependence(self, split):
        k = len(split.u_axes)
        inner = GroupSplit(tuple(range(k)), (k,))
        return math.fsum(
            self.marginal(split.u_axes + (a,)).tau_quadratic(inner) for a in split.v_axes
        ) / len(split.v_axes)


def close(got, want):
    return abs(got - want) <= TOL * max(1.0, abs(want))


def outcome(fn):
    """The value, or "error" when the call raised a package error."""
    try:
        return fn()
    except CopdepError:
        return "error"


def assert_outcomes_agree(pairs):
    """Each (ours, theirs) pair of calls gives close values, or both errors."""
    for ours, theirs in pairs:
        got, want = outcome(ours), outcome(theirs)
        if want == "error":
            assert got == "error"
        else:
            assert got != "error" and close(got, want), (got, want)


@st.composite
def sparse_grids(draw):
    dims = draw(st.integers(2, 4))
    res = tuple(draw(st.lists(st.integers(1, 8), min_size=dims, max_size=dims)))
    if max(res) == 1:
        res = res[:-1] + (2,)
    n = int(np.prod(res))
    occupancy = draw(st.floats(0.01, 0.6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cells = rng.choice(n, size=max(1, round(occupancy * n)), replace=False)
    mass = np.zeros(n)
    mass[cells] = rng.gamma(2.0, 1.0, size=cells.size)
    mass /= mass.sum()
    order = tuple(int(a) for a in rng.permutation(dims))
    cut = draw(st.integers(1, dims - 1))
    return res, mass, order, cut, rng


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_grids())
def test_every_measure_matches_the_dense_oracle(case):
    res, mass, order, cut, rng = case
    cop = unchecked(res, mass)
    dense = Dense(res, mass)
    assert np.count_nonzero(mass) == cop.cell_index.size
    single = GroupSplit(order[:-1], order[-1:])
    group = GroupSplit(order[:cut], order[cut:])

    pairs = [
        (lambda: tau_quadratic(cop, single).value, lambda: dense.tau_quadratic(single)),
        (lambda: tau_alpha(cop, single, 1.0).value, lambda: dense.tau_alpha(single, 1.0)),
        (lambda: tau_alpha(cop, single, 3.5).value, lambda: dense.tau_alpha(single, 3.5)),
        (lambda: renyi_alpha(cop, single, 0.5).value, lambda: dense.renyi_alpha(single, 0.5)),
        (lambda: renyi_alpha(cop, single, 1.5).value, lambda: dense.renyi_alpha(single, 1.5)),
        (lambda: renyi_limit(cop, single).value, lambda: dense.renyi_limit(single)),
        (lambda: mutual_information(cop).value, dense.mutual_information),
    ]
    if len(group.v_axes) >= 2:
        _, _, target_w, ts = dense.center_gaps(group)
        assert group_tau(cop, group).upper_bound == Dense.kendall_bound(target_w, ts)
        pairs += [
            (lambda: group_tau(cop, group).value, lambda: dense.group_tau(group)[0]),
            (lambda: group_tau(cop, group).upper_bound, lambda: dense.group_tau(group)[1]),
            (
                lambda: group_tau_normalized(cop, group).value,
                lambda: dense.group_tau_normalized(group),
            ),
        ]
    pairs.append(
        (lambda: averaged_dependence(cop, group).value, lambda: dense.averaged_dependence(group))
    )
    assert_outcomes_agree(pairs)

    for _ in range(3):
        cell = tuple(int(rng.integers(res[a])) for a in group.u_axes)
        v = rng.random(len(group.v_axes))
        assert close(conditional_cdf(cop, group, cell, v), dense.conditional_cdf(group, cell, v))

    report = cop.validate()
    negative, total, worst = dense.validate()
    assert close(report.max_negative_mass, negative)
    assert close(report.total_mass_error, total)
    assert close(report.worst_marginal_error, worst)
    kept = order[:cut]
    marginal, permuted = cop.marginal(kept), cop.permute_axes(order)
    for copy in (marginal, permuted):  # every stored cell carries mass
        assert np.count_nonzero(copy.mass) == copy.cell_index.size
    assert np.allclose(marginal.mass, dense.marginal(kept).grid.ravel(), rtol=0, atol=TOL)
    assert np.array_equal(permuted.mass, np.transpose(dense.grid, order).ravel())


@st.composite
def sparse_rows(draw):
    """Grids whose conditioning cells hold one to three target cells each.

    The target axis has 1, 2 or up to 32 cells, and often its first and last
    cells are empty everywhere; one conditioning cell may hold +x and -x, so
    its weight is zero; the target axis sits anywhere in the axis order.
    """
    dims = draw(st.integers(2, 4))
    m_v = draw(st.sampled_from([1, 2]) | st.integers(3, 32))
    u_res = draw(st.lists(st.integers(1, 5), min_size=dims - 1, max_size=dims - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_u = int(np.prod(u_res))
    lo, hi = (1, m_v - 1) if m_v >= 3 and draw(st.booleans()) else (0, m_v)
    mat = np.zeros((n_u, m_v))
    occupied = np.flatnonzero(rng.random(n_u) < draw(st.floats(0.2, 1.0)))
    for row in occupied if occupied.size else [0]:
        k = int(rng.integers(1, min(3, hi - lo) + 1))
        mat[row, rng.choice(np.arange(lo, hi), size=k, replace=False)] = rng.gamma(2.0, 1.0, k)
    mat /= mat.sum()
    empty = np.flatnonzero(~mat.any(axis=1))
    if m_v >= 2 and empty.size and draw(st.booleans()):
        x = rng.random()
        mat[empty[0], [0, m_v - 1]] = x, -x
    order = tuple(int(a) for a in rng.permutation(dims))  # split order; the target last
    grid = np.transpose(mat.reshape(u_res + [m_v]), np.argsort(order))
    return grid.shape, grid, GroupSplit(order[:-1], order[-1:])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_rows())
def test_single_target_measures_on_sparse_rows_match_the_dense_oracle(case):
    # tau_quadratic integrates the runs of empty target cells in closed form;
    # the rule kinds hold the conditional CDF constant over them
    res, grid, split = case
    cop, dense = unchecked(res, grid), Dense(res, grid)
    pairs = [
        (lambda: tau_quadratic(cop, split).value, lambda: dense.tau_quadratic(split)),
        (lambda: tau_alpha(cop, split, 1.0).value, lambda: dense.tau_alpha(split, 1.0)),
        (lambda: tau_alpha(cop, split, 3.5).value, lambda: dense.tau_alpha(split, 3.5)),
        (lambda: renyi_alpha(cop, split, 0.5).value, lambda: dense.renyi_alpha(split, 0.5)),
        (lambda: renyi_alpha(cop, split, 1.5).value, lambda: dense.renyi_alpha(split, 1.5)),
        (lambda: renyi_limit(cop, split).value, lambda: dense.renyi_limit(split)),
        (
            lambda: generic_measure(cop, split, np.abs).value,
            lambda: dense.custom_phi(split, np.abs),
        ),
    ]
    assert_outcomes_agree(pairs)


def rank_box_grid(data, res):
    """Dense checkerboard of the rank boxes, row by row.

    Row i owns on axis j the interval [lo, hi) / N, where lo rows lie
    strictly below it and hi rows at or below it, so tied rows share one
    interval.  Its mass 1/N goes to the outer product of the per-axis
    fractions of that interval inside each cell.  Bounds are compared in
    units of 1/(N m), where they are integers, and the rows are summed in
    extended precision, so the reference is accurate well below 1e-15.
    """
    n = data.shape[0]
    fractions = []
    for col, m in zip(data.T, res):
        lo = (col[None, :] < col[:, None]).sum(axis=1) * m
        hi = (col[None, :] <= col[:, None]).sum(axis=1) * m
        cells = np.arange(m)
        inside = np.minimum(hi[:, None], (cells + 1) * n) - np.maximum(lo[:, None], cells * n)
        fractions.append(np.maximum(inside, 0) / (hi - lo)[:, None])
    grid = np.zeros(res, dtype=np.longdouble)
    for i in range(n):
        box = fractions[0][i]
        for frac in fractions[1:]:
            box = np.multiply.outer(box, frac[i])
        grid += box
    return (grid / n).astype(np.float64)


@pytest.mark.parametrize("seed", range(4))
def test_rebalancing_matches_the_dense_oracle(seed):
    # The fit needs no rebalancing: tied rows and resolutions that do not
    # divide N still give exact slabs, matching the brute-force boxes.
    rng = np.random.default_rng(seed)
    res = (3, 5, 4)
    data = rng.standard_normal((97, 3))
    data[:, 1] = np.round(data[:, 1])
    data[:, 2] = rng.integers(0, 3, size=97)
    with pytest.warns(RuntimeWarning, match="tied"):
        got = fit_checkerboard(pseudo_observations(data), res)
    want = rank_box_grid(data, res)
    assert np.array_equal(got.cell_index, np.flatnonzero(want))
    assert np.abs(got.mass - want.ravel()).max() <= 1e-15
    for axis, m in enumerate(res):
        slabs = np.bincount(got._key((axis,)), weights=got.cell_mass, minlength=m)
        assert np.abs(slabs - 1.0 / m).max() <= 1e-15


def test_fit_matches_dense_binning():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((301, 3))  # no resolution divides 301, so boxes cross cells
    data[:, 2] += data[:, 0]
    res = (4, 5, 3)
    want = rank_box_grid(data, res)
    got = fit_checkerboard(pseudo_observations(data), res)
    assert np.array_equal(got.cell_index, np.flatnonzero(want))
    assert np.abs(got.mass - want.ravel()).max() <= 1e-15


@st.composite
def tied_samples(draw):
    """Samples whose columns are continuous, or drawn from a few values."""
    n = draw(st.integers(2, 300))
    dims = draw(st.integers(2, 4))
    res = tuple(draw(st.lists(st.integers(1, 16), min_size=dims, max_size=dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.lists(st.sampled_from([0, 1, 2, 3, 7]), min_size=dims, max_size=dims))
    columns = [
        rng.integers(0, k, size=n).astype(np.float64) if k else rng.standard_normal(n)
        for k in levels
    ]
    return np.column_stack(columns), res


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tied_samples())
@pytest.mark.filterwarnings("ignore:.*tied value")
def test_fit_matches_the_rank_box_oracle(case):
    data, res = case
    got = fit_checkerboard(pseudo_observations(data), res)
    want = rank_box_grid(data, res).ravel()
    assert np.array_equal(got.cell_index, np.flatnonzero(want))
    assert np.abs(got.mass - want).max() <= 1e-15
