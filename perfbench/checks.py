"""Output checks: every operation a run attempts either matches or is a failure.

An operation fails when it raised (its output is missing), exited non-zero,
or missed its check.  ``fail_frac`` is ``len(failures) / attempted``.
"""

from __future__ import annotations

import math

from reference import ABS_TOL, PROPERTY_SLACK, REL_TOL, xi_gaussian

#: The CLI value may sit this far from the Gaussian closed form (grid bias
#: at m = 32 and sampling error at N = 1e6 are both about 1e-3).
XI_TOL = 0.005
#: Population value for three equicorrelated Gaussians at rho = 1/2:
#: R^2 of the last on the other two is 2 rho^2 / (1 + rho) = 1/3.
XI_CSV = xi_gaussian(1.0 / 3.0)

CLOSED_FORM_KINDS = (
    "tau_quadratic",
    "group_tau",
    "group_tau_normalized",
    "averaged_dependence",
    "mutual_information",
)
QUADRATURE_KINDS = ("tau_alpha", "renyi_alpha", "renyi_limit")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def near_abs(got, want, tol=ABS_TOL) -> bool:
    return _number(got) and abs(got - want) <= tol


def near_rel(got, want, tol=REL_TOL) -> bool:
    return _number(got) and abs(got - want) <= tol * abs(want)


def csv_value(tally: Tally, label: str, value, ref: float) -> None:
    tally.check(
        f"{label}: value {value!r}, reference {ref!r}, xi {XI_CSV:.5f}",
        _number(value) and abs(value - XI_CSV) <= XI_TOL and near_abs(value, ref),
    )


def csv_cli(tally: Tally, runs: list[dict], ref: float) -> None:
    for i, run in enumerate(runs):
        if run["exit"] != 0:
            tally.check(f"cli pass {i}: exit code {run['exit']}", False)
        else:
            csv_value(tally, f"cli pass {i}", run["value"], ref)


def csv_replay(tally: Tally, outputs: list[dict], ref: float) -> None:
    for i, out in enumerate(outputs):
        csv_value(tally, f"in-process pass {i}", out.get("value"), ref)


def grid_measures(tally: Tally, outputs: list[dict], ref: dict) -> None:
    for i, out in enumerate(outputs):
        tally.check(f"pass {i}: load_copula", bool(out))
        for kind in CLOSED_FORM_KINDS:
            tally.check(f"pass {i}: {kind} {out.get(kind)!r} vs {ref[kind]!r}", near_abs(out.get(kind), ref[kind]))
        for kind in QUADRATURE_KINDS:
            tally.check(f"pass {i}: {kind} {out.get(kind)!r} vs {ref[kind]!r}", near_rel(out.get(kind), ref[kind]))
        bound = out.get("group_tau_bound")
        tally.check(
            f"pass {i}: group_tau bound {bound!r} vs {ref['group_tau_bound']!r}",
            near_abs(bound, ref["group_tau_bound"])
            and _number(out.get("group_tau"))
            and out["group_tau"] <= bound,
        )
        cdf = out.get("conditional_cdf") or [None] * len(ref["conditional_cdf"])
        for q, (got, want) in enumerate(zip(cdf, ref["conditional_cdf"])):
            tally.check(f"pass {i}: conditional_cdf query {q} {got!r} vs {want!r}", near_abs(got, want))


def high_dim_fit(tally: Tally, outputs: list[dict], ref: dict) -> None:
    for i, out in enumerate(outputs):
        cells = out.get("occupied_cells")
        tally.check(f"pass {i}: occupied cells {cells} vs {ref['occupied_cells']}", cells == ref["occupied_cells"])
        tau = out.get("tau_quadratic")
        tally.check(f"pass {i}: tau_quadratic {tau!r} vs {ref['tau_quadratic']!r}", near_abs(tau, ref["tau_quadratic"]))


def property_rounds(tally: Tally, outputs: list[dict]) -> None:
    for i, out in enumerate(outputs):
        for j, dpi in enumerate(out.get("dpi", [])):
            ok = dpi is not None and dpi[2] and _number(dpi[0]) and dpi[0] <= dpi[1] + PROPERTY_SLACK
            tally.check(f"pass {i}: dpi report {j} {dpi!r}", ok)
        for j, pair in enumerate(out.get("bounds", [])):
            ok = pair is not None and _number(pair[0]) and pair[0] <= pair[1] + PROPERTY_SLACK
            tally.check(f"pass {i}: group_tau {j} within bound {pair!r}", ok)
