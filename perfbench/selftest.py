"""Self-test of the output checks: exact outputs pass, perturbed references fail.

    python3 perfbench/selftest.py

Uses small inputs built by ``inputs`` and values from ``reference`` as
stand-ins for program outputs, so copdep is not needed.  Each reference is
then moved by ten times its tolerance, and the check must count a failure.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import checks
import inputs
import reference


def failures(check, *args) -> list[str]:
    tally = checks.Tally()
    check(tally, *args)
    return tally.failures


def perturbed(value, key):
    if key in checks.QUADRATURE_KINDS:
        return value * (1.0 + 10 * reference.REL_TOL)
    return value + 10 * reference.ABS_TOL


def grid_measures() -> None:
    grid = inputs.balanced_grid(inputs.philox(0), 8, 3)
    queries = [[1, 2, 0.3], [7, 0, 0.9], [4, 4, 0.55]]
    ref = reference.grid_measures(grid, queries)
    outputs = copy.deepcopy(ref)
    assert failures(checks.grid_measures, [outputs], ref) == []
    for key in ref:
        moved = copy.deepcopy(ref)
        if key == "conditional_cdf":
            moved[key][1] = perturbed(moved[key][1], key)
        else:
            moved[key] = perturbed(moved[key], key)
        found = failures(checks.grid_measures, [outputs], moved)
        assert len(found) == 1, (key, found)
    missing = dict(outputs, renyi_limit=None)
    assert len(failures(checks.grid_measures, [missing], ref)) == 1
    assert len(failures(checks.grid_measures, [{}], ref)) == 1 + 9 + len(queries)


def csv_ingest() -> None:
    value = 0.195468
    ok = {"exit": 0, "value": value}
    assert failures(checks.csv_cli, [ok], value) == []
    assert len(failures(checks.csv_cli, [ok], value + 10 * reference.ABS_TOL)) == 1
    assert len(failures(checks.csv_cli, [{"exit": 2, "value": None}], value)) == 1
    assert len(failures(checks.csv_replay, [{"value": 0.25}], 0.25)) == 1  # far from xi


def high_dim_fit() -> None:
    data = inputs.gaussian_sample(inputs.philox(0), 4096, 5, 0.5)
    ref = reference.high_dim_fit(data, 4)
    assert failures(checks.high_dim_fit, [dict(ref)], ref) == []
    moved = dict(ref, occupied_cells=ref["occupied_cells"] + 1)
    assert len(failures(checks.high_dim_fit, [dict(ref)], moved)) == 1
    moved = dict(ref, tau_quadratic=perturbed(ref["tau_quadratic"], "tau_quadratic"))
    assert len(failures(checks.high_dim_fit, [dict(ref)], moved)) == 1


def property_rounds() -> None:
    good = {"dpi": [[0.1, 0.2, True], [0.2, 0.2, True]], "bounds": [[0.4, 0.5]]}
    assert failures(checks.property_rounds, [good]) == []
    bad = {"dpi": [[0.3, 0.2, True], [0.1, 0.2, False], None], "bounds": [[0.6, 0.5], None]}
    assert len(failures(checks.property_rounds, [bad])) == 5


def main() -> int:
    for test in (grid_measures, csv_ingest, high_dim_fit, property_rounds):
        test()
        print(f"ok: {test.__name__}")
    # The grid references themselves: entropy closed forms against brute quadrature.
    grid = inputs.balanced_grid(inputs.philox(1), 4, 3).reshape(16, 4)
    v = (np.arange(400_000) + 0.5) / 400_000
    w = grid.sum(axis=1)
    f = np.array([np.interp(v, np.arange(5) / 4, np.concatenate([[0.0], np.cumsum(r)]) / r.sum()) for r in grid])
    r = f / v
    dv = 1.0 / v.size
    brute_limit = float(w @ ((r * np.log(r)).sum(axis=1) * dv))
    brute_sqrt = -2.0 * np.log(float(w @ (np.sqrt(r).sum(axis=1) * dv)))
    assert abs(brute_limit - reference.renyi_limit(grid)) < 1e-5, (brute_limit, reference.renyi_limit(grid))
    assert abs(brute_sqrt - reference.renyi_sqrt(grid)) < 1e-5, (brute_sqrt, reference.renyi_sqrt(grid))
    print("ok: entropy references against a Riemann sum")
    return 0


if __name__ == "__main__":
    sys.exit(main())
