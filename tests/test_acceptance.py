"""Acceptance suite: one test per criterion, printing one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math

import numpy as np

from copdep import (
    CheckerboardCopula,
    GroupSplit,
    MeasureKind,
    SynthModel,
    assignment_copula,
    comonotone_copula,
    compute_measure,
    dpi_report,
    fit_checkerboard,
    generate,
    group_tau,
    identity_coupling,
    independence_copula,
    make_rng,
    mixture_copula,
    mutual_information,
    pseudo_observations,
    random_copula,
    random_star_pair,
    renyi_alpha,
    renyi_limit,
    tau_alpha,
    tau_quadratic,
)

PAIR = GroupSplit((0,), (1,))


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_independence_zero():
    worst = 0.0
    for n in (1, 2, 3):
        cop = independence_copula((8,) * (n + 1))
        split = GroupSplit(tuple(range(n)), (n,))
        worst = max(worst, abs(tau_quadratic(cop, split).value))
    report(1, worst <= 1e-12, f"independence tau, worst |value| {worst:.3e}")


def test_criterion_2_complete_dependence_maximum():
    worst = 0.0
    for dims in (2, 3):
        vals = []
        for m in (4, 16, 64):
            split = GroupSplit(tuple(range(dims - 1)), (dims - 1,))
            val = tau_quadratic(comonotone_copula(dims, m), split).value
            worst = max(worst, abs(val - (1.0 - 1.0 / m)))
            vals.append(val)
        assert vals[0] < vals[1] < vals[2]
    report(2, worst <= 1e-12, f"comonotone tau vs 1 - 1/m, worst error {worst:.3e}")


def test_criterion_3_mixture_calibration():
    worst = 0.0
    for theta in (0.25, 0.5, 0.75):
        data = generate(SynthModel(tag="mixture", theta=theta, seed=11), 20000)
        cop = fit_checkerboard(pseudo_observations(data), (32, 32))
        tau = tau_quadratic(cop, PAIR).value
        worst = max(worst, abs(tau - theta**2))
    report(3, worst < 0.03, f"fitted tau vs theta^2, worst error {worst:.4f}")


def test_criterion_4_nonsymmetry_square_law():
    data = generate(SynthModel(tag="square_law", seed=5), 20000)
    cop = fit_checkerboard(pseudo_observations(data), (32, 32))
    forward = tau_quadratic(cop, GroupSplit((0,), (1,))).value
    backward = tau_quadratic(cop, GroupSplit((1,), (0,))).value
    ok = forward > 0.9 and abs(backward - 0.25) < 0.05
    report(4, ok, f"X->Y {forward:.4f} (> 0.9), Y->X {backward:.4f} (vs 0.25)")


def test_criterion_5_data_processing_inequality():
    rng = make_rng(42)
    kinds = (MeasureKind("tau_quadratic"), MeasureKind("tau_alpha", 1.0))
    worst_excess = -np.inf
    for trial in range(200):
        n = 1 if trial % 2 == 0 else 2
        a, b = random_star_pair(n, 8, rng)
        for kind in kinds:
            rep = dpi_report(a, b, n, kind)
            worst_excess = max(worst_excess, rep.tau_chain - rep.tau_direct)
    ok = worst_excess <= 1e-9

    # equality case: the identity coupling must return its operand; checked
    # on operands whose middle marginal is exact (assignment and blend grids)
    worst_eq = 0.0
    for n in (1, 2):
        b = assignment_copula(n, 8, rng)
        for kind in kinds:
            rep = dpi_report(identity_coupling(n, 8), b, n, kind)
            worst_eq = max(worst_eq, abs(rep.tau_chain - rep.tau_direct))
    for theta in (0.3, 0.8):
        rep = dpi_report(
            identity_coupling(1, 8), mixture_copula(theta, 8), 1, MeasureKind("tau_quadratic")
        )
        worst_eq = max(worst_eq, abs(rep.tau_chain - rep.tau_direct))
    ok = ok and worst_eq <= 1e-12
    report(
        5,
        ok,
        f"200 pairs worst chain-direct {worst_excess:.3e}, identity gap {worst_eq:.3e}",
    )


def test_criterion_6_invariance():
    data = generate(SynthModel(tag="functional", dimension=3, seed=21), 4000)
    split = GroupSplit((0, 1), (2,))
    res = (8, 8, 8)
    kinds = [
        MeasureKind("tau_quadratic"),
        MeasureKind("tau_alpha", 1.5),
        MeasureKind("renyi_alpha", 0.5),
        MeasureKind("renyi_limit"),
        MeasureKind("averaged_dependence"),
    ]
    base_cop = fit_checkerboard(pseudo_observations(data), res)
    base = {k.tag: compute_measure(base_cop, split, k).value for k in kinds}
    base_mi = mutual_information(base_cop).value

    # strictly monotone per-column transforms leave every measure unchanged,
    # mutual information included (the fitted grid is bit-identical)
    mono = np.column_stack([np.exp(data[:, 0]), data[:, 1] ** 3, 5.0 * data[:, 2] + 1.0])
    cop_mono = fit_checkerboard(pseudo_observations(mono), res)
    worst = abs(mutual_information(cop_mono).value - base_mi)
    for k in kinds:
        worst = max(worst, abs(compute_measure(cop_mono, split, k).value - base[k.tag]))

    # conditioning-block swap (on the transformed data) for split measures
    swapped = mono[:, [1, 0, 2]]
    swapped_split = GroupSplit((1, 0), (2,))
    cop2 = fit_checkerboard(pseudo_observations(swapped), res)
    for k in kinds:
        worst = max(worst, abs(compute_measure(cop2, swapped_split, k).value - base[k.tag]))

    # group kinds under a conditioning permutation
    data4 = generate(SynthModel(tag="independent", dimension=4, seed=22), 4000)
    data4[:, 2] = data4[:, 0] + data4[:, 1]
    data4[:, 3] = data4[:, 0] * data4[:, 1]
    gsplit = GroupSplit((0, 1), (2, 3))
    cop4 = fit_checkerboard(pseudo_observations(data4), (4, 4, 4, 4))
    cop4p = fit_checkerboard(pseudo_observations(data4[:, [1, 0, 2, 3]]), (4, 4, 4, 4))
    psplit = GroupSplit((1, 0), (2, 3))
    for tag in ("group_tau", "group_tau_normalized"):
        kind = MeasureKind(tag)
        worst = max(
            worst,
            abs(
                compute_measure(cop4p, psplit, kind).value
                - compute_measure(cop4, gsplit, kind).value
            ),
        )
    exact_ok = worst == 0.0

    # target-axis reversal changes the quadratic measure by < 1e-12
    rev = tau_quadratic(base_cop.reverse_axis(2), split).value
    rev_dev = abs(rev - base["tau_quadratic"])
    report(
        6,
        exact_ok and rev_dev < 1e-12,
        f"monotone/permutation deviation {worst:.1e} (exact), reversal {rev_dev:.1e}",
    )


def test_criterion_7_kendall_bound():
    group = GroupSplit((0,), (1, 2))
    comonotone = group_tau(comonotone_copula(3, 16), group).upper_bound
    ok = comonotone == 1.0 + 1.0 / (8 * 16 * 16)

    grid_bound = group_tau(independence_copula((2, 64, 64)), group).upper_bound
    grid_err = abs(grid_bound - 5.0 / 6.0)
    ok = ok and grid_err < 0.01

    rng = make_rng(7)
    u, v = rng.random(10**6), rng.random(10**6)
    t = u * v
    mc_bound = 6.0 * float(np.mean(t - t * t))
    mc_err = abs(mc_bound - 5.0 / 6.0)
    ok = ok and mc_err < 0.005

    worst_excess = -np.inf
    for _ in range(100):
        cop = random_copula((4, 4, 4, 4), rng)
        rep = group_tau(cop, GroupSplit((0, 1), (2, 3)))
        worst_excess = max(worst_excess, rep.value - rep.upper_bound)
    ok = ok and worst_excess <= 1e-9
    report(
        7,
        ok,
        f"comonotone pair bound {comonotone!r}, grid err {grid_err:.2e}, MC err {mc_err:.2e}, "
        f"worst group excess {worst_excess:.2e}",
    )


def test_criterion_8_entropy_contrast():
    ok = True
    details = []
    for m in (8, 64, 512):
        cop = comonotone_copula(3, m)
        mi = mutual_information(cop).value
        tau = tau_quadratic(cop, GroupSplit((0, 1), (2,))).value
        ok = ok and abs(mi - 2.0 * math.log(m)) <= 1e-9 and tau <= 1.0 + 1e-9
        details.append(f"MI(m={m})={mi:.4f}")
    mis = [float(d.split("=")[-1]) for d in details]
    ok = ok and mis[0] < mis[1] < mis[2]

    r_val = renyi_limit(comonotone_copula(3, 512), GroupSplit((0, 1), (2,))).value
    ok = ok and abs(r_val - 1.0) < 0.05

    r_pi = 0.0
    for alpha in (0.5, 1.5):
        r_pi = max(r_pi, abs(renyi_alpha(independence_copula((8, 8)), PAIR, alpha).value))
    ok = ok and r_pi == 0.0
    report(
        8,
        ok,
        f"{', '.join(details)} (= 2 ln m), R(comonotone)={r_val:.4f}, R_alpha(product)={r_pi!r}",
    )


def test_criterion_9_group_independence():
    rng = make_rng(13)
    # internally dependent target group, independent of the conditioning axis
    cv = fit_checkerboard(
        pseudo_observations(generate(SynthModel(tag="mixture", theta=0.8, seed=3), 4000)),
        (4, 4),
    )
    w_u = np.full(4, 0.25)
    prod = CheckerboardCopula((4, 4, 4), np.einsum("i,jk->ijk", w_u, cv.mass.reshape(4, 4)))
    val = group_tau(prod, GroupSplit((0,), (1, 2))).value
    report(9, val <= 1e-12, f"product grid group measure {val:.3e}")


def test_criterion_10_determinism():
    def one_run():
        out = {}
        data = generate(SynthModel(tag="mixture", theta=0.5, seed=99), 5000)
        cop = fit_checkerboard(pseudo_observations(data), (16, 16))
        out["mass"] = cop.mass.tolist()
        out["tau"] = tau_quadratic(cop, PAIR).value
        out["tau_alpha"] = tau_alpha(cop, PAIR, 1.5).value
        out["renyi"] = renyi_alpha(cop, PAIR, 0.5).value
        rng = make_rng(1234)
        a, b = random_star_pair(1, 8, rng)
        rep = dpi_report(a, b, 1, MeasureKind("tau_quadratic"))
        out["dpi"] = [rep.tau_chain, rep.tau_direct]
        cop4 = random_copula((4, 4, 4, 4), rng)
        grp = group_tau(cop4, GroupSplit((0, 1), (2, 3)))
        out["group"] = [grp.value, grp.upper_bound]
        return json.dumps(out)

    first, second = one_run(), one_run()
    report(10, first == second, f"repeated run digest identical ({len(first)} bytes)")
