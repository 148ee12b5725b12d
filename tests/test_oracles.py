"""Dual-route checks: every closed-form or vectorized path is re-derived
with an independent brute-force implementation (explicit loops, Riemann
sums, or Monte Carlo) and the two routes are compared.
"""

import math

import numpy as np
import pytest

from copdep import (
    CheckerboardCopula,
    GroupSplit,
    comonotone_copula,
    group_tau,
    mixture_copula,
    mutual_information,
    random_copula,
    renyi_alpha,
    renyi_limit,
    tau_alpha,
)
from conftest import dense_rebalance

PAIR = GroupSplit((0,), (1,))


def overlap(point, cell, m):
    """Fraction of grid cell ``cell`` (axis resolution m) below ``point``."""
    return min(max(point * m - cell, 0.0), 1.0)


def brute_conditional(copula, split, u_cell, v_point):
    """Conditional CDF from raw cell masses, explicit loops only."""
    grid = copula.mass.reshape(copula.resolutions)
    v_res = [copula.resolutions[a] for a in split.v_axes]
    weight = 0.0
    value = 0.0
    for idx in np.ndindex(*copula.resolutions):
        if tuple(idx[a] for a in split.u_axes) != tuple(u_cell):
            continue
        mass = float(grid[idx])
        weight += mass
        frac = 1.0
        for coord, axis, m in zip(v_point, split.v_axes, v_res):
            frac *= overlap(coord, idx[axis], m)
        value += mass * frac
    return value / weight if weight > 0 else 0.0


def brute_group_tau(copula, split):
    """Group measure from first principles: loops over every cell pair."""
    u_res = [copula.resolutions[a] for a in split.u_axes]
    v_res = [copula.resolutions[a] for a in split.v_axes]
    grid = copula.mass.reshape(copula.resolutions)

    target_mass = {}
    for idx in np.ndindex(*copula.resolutions):
        key = tuple(idx[a] for a in split.v_axes)
        target_mass[key] = target_mass.get(key, 0.0) + float(grid[idx])

    def target_cdf(point):
        total = 0.0
        for cell, mass in target_mass.items():
            frac = 1.0
            for coord, c, m in zip(point, cell, v_res):
                frac *= overlap(coord, c, m)
            total += mass * frac
        return total

    total = 0.0
    for u_cell in np.ndindex(*u_res):
        weight = 0.0
        for idx in np.ndindex(*copula.resolutions):
            if tuple(idx[a] for a in split.u_axes) == u_cell:
                weight += float(grid[idx])
        if weight == 0.0:
            continue
        inner = 0.0
        for v_cell in np.ndindex(*v_res):
            center = [(c + 0.5) / m for c, m in zip(v_cell, v_res)]
            f = brute_conditional(copula, split, u_cell, center)
            ref = target_cdf(center)
            inner += target_mass[v_cell] * (f - ref) ** 2
        total += weight * inner
    return 6.0 * total


class TestGroupTauOracle:
    def test_random_copulas_match_brute_force(self, rng):
        for _ in range(3):
            cop = random_copula((3, 3, 3), rng)
            split = GroupSplit((0,), (1, 2))
            fast = group_tau(cop, split).value
            slow = brute_group_tau(cop, split)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_two_block_split_matches_brute_force(self, rng):
        cop = random_copula((2, 3, 2, 3), rng)
        split = GroupSplit((0, 1), (2, 3))
        assert group_tau(cop, split).value == pytest.approx(
            brute_group_tau(cop, split), abs=1e-12
        )


class TestConditionalOracle:
    def test_group_conditional_matches_brute_force(self, rng):
        from copdep import conditional_cdf

        cop = random_copula((3, 4, 2), rng)
        split = GroupSplit((0,), (1, 2))
        for cell in ((0,), (2,)):
            for point in ((0.3, 0.7), (0.91, 0.18)):
                fast = conditional_cdf(cop, split, cell, point)
                slow = brute_conditional(cop, split, cell, point)
                assert fast == pytest.approx(slow, abs=1e-12)

    def test_out_of_order_split_matches_brute_force(self, rng):
        from copdep import conditional_cdf

        cop = random_copula((3, 4, 5), rng)
        split = GroupSplit((2, 0), (1,))
        for cell in ((0, 0), (4, 1), (2, 2)):
            for v in (0.0, 0.3, 0.62, 1.0):
                fast = conditional_cdf(cop, split, cell, v)
                slow = brute_conditional(cop, split, cell, (v,))
                assert fast == pytest.approx(slow, abs=1e-12)


def riemann_ratio_integral(copula, phi, n_points=200_000):
    """Midpoint Riemann sum of phi(conditional CDF / v) over v, weighted."""
    mat = copula.mass.reshape(copula.resolutions[0], -1)
    m_v = mat.shape[1]
    vs = (np.arange(n_points) + 0.5) / n_points
    cell = np.minimum((vs * m_v).astype(int), m_v - 1)
    frac = vs * m_v - cell
    total = 0.0
    for row in mat:
        w = row.sum()
        if w == 0.0:
            continue
        cum = np.concatenate([[0.0], np.cumsum(row)]) / w
        f = cum[cell] + (cum[cell + 1] - cum[cell]) * frac
        total += w * float(np.mean(phi(f / vs)))
    return total


class TestEntropyOracles:
    def test_renyi_alpha_matches_riemann_on_random_grid(self, rng):
        cop = random_copula((6, 6), rng)
        for alpha in (0.5, 1.5):
            fast = renyi_alpha(cop, PAIR, alpha).value
            slow = math.log(
                riemann_ratio_integral(cop, lambda r: r**alpha)
            ) / (alpha - 1.0)
            assert fast == pytest.approx(slow, abs=1e-3)

    def test_renyi_alpha_matches_riemann_on_comonotone(self):
        cop = comonotone_copula(2, 8)
        fast = renyi_alpha(cop, PAIR, 1.5).value
        slow = math.log(riemann_ratio_integral(cop, lambda r: r**1.5)) / 0.5
        assert fast == pytest.approx(slow, abs=1e-3)

    def test_renyi_limit_matches_riemann(self, rng):
        def xlogx(r):
            out = np.zeros_like(r)
            mask = r > 0
            out[mask] = r[mask] * np.log(r[mask])
            return out

        for cop in (random_copula((6, 6), rng), comonotone_copula(2, 8)):
            fast = renyi_limit(cop, PAIR).value
            slow = riemann_ratio_integral(cop, xlogx)
            assert fast == pytest.approx(slow, abs=1e-3)

    def test_tau_alpha_matches_riemann(self, rng):
        cop = random_copula((6, 6), rng)
        mat = cop.mass.reshape(cop.resolutions)
        n_points = 200_000
        vs = (np.arange(n_points) + 0.5) / n_points
        cell = np.minimum((vs * 6).astype(int), 5)
        frac = vs * 6 - cell
        slow = 0.0
        for row in mat:
            w = row.sum()
            cum = np.concatenate([[0.0], np.cumsum(row)]) / w
            f = cum[cell] + (cum[cell + 1] - cum[cell]) * frac
            slow += w * float(np.mean(np.abs(f - vs) ** 1.5))
        slow *= 2.5 * 3.5 / 2.0
        fast = tau_alpha(cop, PAIR, 1.5).value
        assert fast == pytest.approx(slow, abs=1e-4)


def _edge_profiles(w: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Conditional CDF at the target cell edges, one row per active cell."""
    edges = np.empty((mat.shape[0], mat.shape[1] + 1))
    edges[:, 0] = 0.0
    np.cumsum(mat, axis=1, out=edges[:, 1:])
    edges[:, 1:] /= w[:, None]
    return edges


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


def adaptive_ratio_total(copula, split, transform, alpha=0.0):
    """Weighted total of phi(F/v) by adaptive quadrature per target cell."""
    nu = int(np.prod([copula.resolutions[a] for a in split.u_axes]))
    grid = copula.mass.reshape(copula.resolutions)
    mat = np.transpose(grid, split.u_axes + split.v_axes).reshape(nu, -1)
    w = mat.sum(axis=1)
    live = w > 0.0
    terms = _ratio_cell_terms(w[live], mat[live], transform, alpha)
    return math.fsum((w[live] * terms).tolist())


def _runs_copula(m, rng):
    """Rebalanced grid whose row i carries mass only on target cells i to
    i + m/2 - 1 (mod m): F(v0) = 0 at v0 > 0, and flat runs of F."""
    i, j = np.indices((m, m))
    raw = rng.gamma(2.0, 1.0, size=(m, m)) * ((j - i) % m < m // 2)
    return CheckerboardCopula((m, m), dense_rebalance((m, m), raw / raw.sum()))


def _near_boundary_copula(rng):
    """Rows whose cell 2 has 3 f0 just below f1 (closed form) and just above
    it (Gauss-Legendre), with an intercept c < 0 in both."""
    rows = []
    for ratio in (3.0 + 1e-9, 3.0 - 1e-9, 3.0 + 1e-6, 3.0 - 1e-6):
        row = rng.gamma(2.0, 1.0, size=8)
        row[2] = (ratio - 1.0) * (row[0] + row[1])
        rows.append(row)
    raw = np.asarray(rows)
    return CheckerboardCopula(raw.shape, raw.ravel() / raw.sum())


def entropy_cases(rng):
    for res in ((6, 6), (13, 9), (32, 32)):
        yield f"random {res}", random_copula(res, rng), PAIR
    yield "random (4, 5, 6)", random_copula((4, 5, 6), rng), GroupSplit((1, 0), (2,))
    yield "mixture 64", mixture_copula(0.5, 64), PAIR
    yield "comonotone 64", comonotone_copula(2, 64), PAIR
    yield "empty target runs", _runs_copula(16, rng), PAIR
    yield "3 f0 near f1", _near_boundary_copula(rng), PAIR


class TestEntropyKernelOracle:
    """The closed-form and fixed-rule entropy kernel against per-cell
    adaptive quadrature, on the total over conditioning cells."""

    def test_near_boundary_rows_straddle_the_switch(self, rng):
        cop = _near_boundary_copula(rng)
        mass = cop.mass.reshape(cop.resolutions)
        edges = np.cumsum(mass, axis=1) / mass.sum(axis=1, keepdims=True)
        f0, f1 = edges[:, 1], edges[:, 2]
        assert list(3.0 * f0 < f1) == [True, False, True, False]
        assert np.all(np.abs(f1 / (3.0 * f0) - 1.0) < 1e-6)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.5, 1.9])
    def test_renyi_alpha_total(self, rng, alpha):
        for label, cop, split in entropy_cases(rng):
            value = renyi_alpha(cop, split, alpha).value
            total = math.exp(value * (alpha - 1.0))
            oracle = adaptive_ratio_total(cop, split, "power", alpha)
            assert abs(total - oracle) <= 1e-12 * abs(oracle), label

    def test_renyi_limit_total(self, rng):
        for label, cop, split in entropy_cases(rng):
            value = renyi_limit(cop, split).value
            oracle = adaptive_ratio_total(cop, split, "xlogx")
            assert abs(value - oracle) <= 1e-12 * abs(oracle), label


class TestMutualInformationOracle:
    def test_matches_explicit_loop(self, rng):
        cop = random_copula((3, 4, 2), rng)
        grid = cop.mass.reshape(cop.resolutions)
        slabs = [grid.sum(axis=(1, 2)), grid.sum(axis=(0, 2)), grid.sum(axis=(0, 1))]
        slow = 0.0
        for idx in np.ndindex(*cop.resolutions):
            p = float(grid[idx])
            if p > 0.0:
                q = slabs[0][idx[0]] * slabs[1][idx[1]] * slabs[2][idx[2]]
                slow += p * math.log(p / q)
        assert mutual_information(cop).value == pytest.approx(slow, abs=1e-12)


class TestKendallBoundOracle:
    @staticmethod
    def _mc_bound(cop, v_axes, rng, n=50_000):
        """Sample the target-marginal grid measure of a target pair and
        estimate 6 E[C - C^2], C its CDF: cell masses times the share of
        each cell below the point, one ramp per axis."""
        cv = cop.marginal(v_axes)
        flat = rng.choice(cv.mass.size, size=n, p=cv.mass / cv.mass.sum())
        cells = np.column_stack(np.unravel_index(flat, cv.resolutions))
        points = (cells + rng.random((n, len(v_axes)))) / np.array(cv.resolutions)
        ramp0, ramp1 = (
            np.clip(points[:, [k]] * m - np.arange(m), 0.0, 1.0)
            for k, m in enumerate(cv.resolutions)
        )
        ts = np.einsum("pi,ij,pj->p", ramp0, cv.mass.reshape(cv.resolutions), ramp1)
        return 6.0 * float(np.mean(ts - ts * ts))

    def test_monte_carlo_on_random_target_group(self, rng):
        # the grid bound places cell mass at the center value of C, the
        # Monte Carlo route averages C over each cell, so the two agree up
        # to the within-cell spread (plus MC noise), tighter as m grows
        for m, tol in ((4, 0.04), (8, 0.015), (16, 0.01)):
            cop = random_copula((m, m, m), rng)
            grid_bound = group_tau(cop, GroupSplit((0,), (1, 2))).upper_bound
            mc = self._mc_bound(cop, (1, 2), rng)
            assert abs(grid_bound - mc) < tol, (m, grid_bound, mc)
