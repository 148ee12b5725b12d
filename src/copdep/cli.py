"""Command-line front end.

Machine-readable JSON goes to stdout, human-readable notes to stderr.
Exit codes: 0 success, 2 invalid input, 3 numerical or validation failure,
4 property-suite failure.  Every command is deterministic given its flags
and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CopdepError,
    InsufficientDataError,
    InvalidArgumentError,
    InvalidDataError,
    _count,
)
from .estimation import (
    _column_slots,
    _rank_slots,
    _select_columns,
    PseudoObservations,
    ResolutionPolicy,
    choose_resolution,
    fit_checkerboard,
    read_csv,
)
from .generators import (
    _TAGS as _MODELS,
    SynthModel,
    assignment_copula,
    generate,
    make_rng,
    random_copula,
    random_star_pair,
)
from .grid import (
    CheckerboardCopula,
    GroupSplit,
    comonotone_copula,
    independence_copula,
    load_copula,
    save_copula,
)
from .measures import (
    _KINDS,
    MeasureKind,
    compute_measure,
    group_tau,
    tau_quadratic,
)
from .starprod import TransformCase, dpi_report, equitability_suite, identity_coupling, star

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_SUITE_FAILURE = 4

#: Errors that mean the input or an argument is bad (exit 2); every other
#: CopdepError is a numerical or validation failure (exit 3).
_INPUT_ERRORS = (
    InvalidArgumentError,
    InvalidDataError,
    InsufficientDataError,
    OSError,
)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _parse_columns(spec: str | None) -> list | None:
    if spec is None:
        return None
    return [tok.strip() for tok in spec.split(",") if tok.strip()]


def _resolve_split(v_spec, names: list[str] | None, dims: int) -> GroupSplit:
    """The ``--v-cols`` target (default: the last column) on every other column, in order."""
    v = [dims - 1] if v_spec is None else _select_columns(_parse_columns(v_spec), names, dims)
    return GroupSplit(tuple(j for j in range(dims) if j not in v), tuple(v))


def _looks_like_json(path: Path) -> bool:
    if path.suffix.lower() == ".json":
        return True
    with path.open("rb") as fh:
        head = fh.read(64).decode("utf-8", errors="replace").lstrip()
    return head.startswith("{")


def _fit_csv(args) -> tuple[CheckerboardCopula, PseudoObservations, list[str]]:
    """Read, rank and fit the CSV named by ``--input``: the copula, the
    pseudo-observations and the column names."""
    m = args.resolution
    if m is not None:
        m = _count(m, "--resolution", least=2)
    columns = _parse_columns(args.columns)
    if columns is not None and len(columns) < 2:
        raise InvalidArgumentError(f"--columns must name at least 2 columns, got {columns}")
    data, names = read_csv(args.input, columns)
    if len(names) < 2:  # a one-column file read without --columns
        raise InvalidArgumentError(f"{args.input} has 1 column; a copula needs at least 2")
    # pseudo_observations(data) in two steps, so the parsed matrix goes as
    # soon as it is copied into the interval buffer and no sort runs beside it.
    slots = _column_slots(data)
    del data
    pseudo = _rank_slots(slots)
    if m is None:
        policy = ResolutionPolicy(mode="automatic")
    else:
        policy = ResolutionPolicy(mode="fixed", fixed_m=m, max_m=max(128, m))
    res = choose_resolution(pseudo.n_rows, pseudo.n_cols, policy)
    return fit_checkerboard(pseudo, res, max_resolution=policy.max_m), pseudo, names


def _load_measure_input(args) -> tuple[CheckerboardCopula, GroupSplit | None, int | None]:
    """A copula plus split from either a copula JSON file or a CSV sample."""
    path = Path(args.input)
    if _looks_like_json(path):
        copula = load_copula(path)
        _reject_flags(args, ("columns", "resolution"), "a copula file")
        names = None
        sample_size = None
    else:
        copula, pseudo, names = _fit_csv(args)
        sample_size = pseudo.n_rows
    if not _KINDS[args.kind].needs_split:
        _reject_flags(args, ("v_cols",), args.kind)
        return copula, None, sample_size
    return copula, _resolve_split(args.v_cols, names, copula.dims), sample_size


def _reject_flags(args, dests, context: str) -> None:
    """InvalidArgumentError naming the first of ``dests`` that was given,
    since ``context`` does not read it."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise InvalidArgumentError(f"--{dest.replace('_', '-')} does not apply to {context}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_estimate(args) -> int:
    copula, pseudo, names = _fit_csv(args)
    report = copula.validate()
    save_copula(copula, args.output)
    _note(f"columns: {names}")
    _note(f"fitted {pseudo.n_rows} rows at resolutions {list(copula.resolutions)}")
    _note(f"validate: {report.summary()}")
    _emit(
        {
            "output": str(args.output),
            "rows": pseudo.n_rows,
            "resolutions": list(copula.resolutions),
            "ties": list(pseudo.tie_counts),
            "valid": report.passed,
        }
    )
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def cmd_measure(args) -> int:
    kind = MeasureKind(args.kind, args.alpha)
    copula, split, sample_size = _load_measure_input(args)
    report = compute_measure(copula, split, kind)
    if sample_size is not None:
        report = replace(report, sample_size=sample_size)
    _note(f"{kind.tag}: {report.value:.12g}")
    _emit(report.to_json_dict())
    return EXIT_OK


def cmd_star(args) -> int:
    a = load_copula(args.a)
    b = load_copula(args.b)
    result = star(a, b, args.n)
    save_copula(result, args.output)
    _note(f"composed {a.resolutions} * {b.resolutions} -> {result.resolutions}")
    _emit(
        {
            "output": str(args.output),
            "resolutions": list(result.resolutions),
            "middle_block": args.n,
        }
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    theta, correlation, axes = args.theta, None, range(args.dimension)
    if args.model == "gaussian":  # --theta is the common correlation
        rho = 0.5 if theta is None else theta
        theta, correlation = None, tuple(tuple(1.0 if i == j else rho for j in axes) for i in axes)
    model = SynthModel(
        tag=args.model,
        dimension=args.dimension,
        theta=theta,
        sigma=args.sigma,
        correlation=correlation,
        seed=args.seed,
    )
    data = generate(model, args.rows)
    header = ",".join(f"x{j}" for j in range(data.shape[1] - 1)) + ",y"
    np.savetxt(args.output, data, fmt="%.17g", delimiter=",", header=header, comments="")
    _note(f"wrote {args.rows} rows of {args.model} to {args.output}")
    _emit({"output": str(args.output), "rows": args.rows, "model": args.model, "seed": args.seed})
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = _SUITES[args.suite](trials=_count(args.trials, "trials"), seed=args.seed)
    results = []
    for name, passed, detail in checks:
        _note(f"{'PASS' if passed else 'FAIL'}: {name} ({detail})")
        results.append({"name": name, "passed": passed, "detail": detail})
    all_passed = all(r["passed"] for r in results)
    _emit({"suite": args.suite, "passed": all_passed, "results": results})
    return EXIT_OK if all_passed else EXIT_SUITE_FAILURE


# ----------------------------------------------------------------------
# verification suites
# ----------------------------------------------------------------------


def _suite_axioms(trials: int, seed: int):
    checks = []
    for n in (1, 2, 3):
        cop = independence_copula((8,) * (n + 1))
        split = GroupSplit(tuple(range(n)), (n,))
        val = tau_quadratic(cop, split).value
        checks.append(
            (f"independence zero (n={n})", abs(val) <= 1e-12, f"value {val:.3e}")
        )
    for m in (4, 16, 64):
        cop = comonotone_copula(2, m)
        val = tau_quadratic(cop, GroupSplit((0,), (1,))).value
        target = 1.0 - 1.0 / m
        checks.append(
            (
                f"complete dependence (m={m})",
                abs(val - target) <= 1e-12,
                f"value {val:.12f} vs {target:.12f}",
            )
        )
    rng = make_rng(seed)
    worst = (0.0, 1.0)
    ok = True
    for _ in range(trials):
        cop = random_copula((4, 4, 4), rng)
        val = tau_quadratic(cop, GroupSplit((0, 1), (2,))).value
        worst = (min(worst[0], val), max(worst[1], val))
        ok = ok and -1e-12 <= val <= 1.0 + 1e-9
    checks.append((f"range on {trials} random grids", ok, f"range {worst}"))
    return checks


def _suite_dpi(trials: int, seed: int):
    rng = make_rng(seed)
    checks = []
    kinds = (MeasureKind("tau_quadratic"), MeasureKind("tau_alpha", 1.0))
    violations = 0
    for t in range(trials):
        n = 1 if t % 2 == 0 else 2
        a, b = random_star_pair(n, 8 if n == 1 else 4, rng)
        for kind in kinds:
            rep = dpi_report(a, b, n, kind)
            if not rep.holds:
                violations += 1
    checks.append(
        (f"chain <= direct on {trials} random pairs", violations == 0, f"{violations} violations")
    )
    gap = 0.0
    for n in (1, 2):
        b = assignment_copula(n, 8, make_rng(seed + n))
        rep = dpi_report(identity_coupling(n, 8), b, n, MeasureKind("tau_quadratic"))
        gap = max(gap, abs(rep.tau_chain - rep.tau_direct))
    checks.append(("identity coupling equality", gap <= 1e-12, f"gap {gap:.3e}"))
    return checks


def _suite_equitability(trials: int, seed: int):
    split = GroupSplit((0, 1), (2,))
    transforms = [
        TransformCase(kind="column_map", label="exp on first driver", column=0, mapping=np.exp),
        TransformCase(
            kind="column_map", label="cube on second driver", column=1, mapping=lambda x: x**3
        ),
        TransformCase(
            kind="column_map", label="negate target", column=2, mapping=lambda x: -x
        ),
        TransformCase(kind="permute_conditioning", label="swap drivers", permutation=(1, 0)),
    ]
    samples = [
        equitability_suite(
            data=generate(SynthModel(tag="functional", dimension=3, seed=seed + t), 4000),
            split=split,
            transforms=transforms,
            resolutions=(8, 8, 8),
        ).results
        for t in range(trials)
    ]
    return [
        (
            f"invariance: {results[0].label}",
            all(r.passed for r in results),
            f"worst deviation {max(r.deviation for r in results):.3e} on {trials} samples",
        )
        for results in zip(*samples)
    ]


def _suite_bounds(trials: int, seed: int):
    checks = []
    group = GroupSplit((0,), (1, 2))
    for m in (8, 16, 64):
        bound = group_tau(comonotone_copula(3, m), group).upper_bound
        exact = 1.0 + 1.0 / (8 * m * m)
        checks.append(
            (f"comonotone pair bound is 1 + 1/(8m^2) (m={m})", bound == exact, f"value {bound!r}")
        )
    five_sixths = group_tau(independence_copula((2, 64, 64)), group).upper_bound
    checks.append(
        (
            "independence pair bound near 5/6",
            abs(five_sixths - 5.0 / 6.0) <= 0.01,
            f"value {five_sixths:.6f}",
        )
    )
    rng = make_rng(seed)
    violations = 0
    worst_gap = 0.0
    for _ in range(trials):
        cop = random_copula((4, 4, 4, 4), rng)
        rep = group_tau(cop, GroupSplit((0, 1), (2, 3)))
        gap = rep.value - rep.upper_bound
        worst_gap = max(worst_gap, gap)
        if gap > 1e-9:
            violations += 1
    checks.append(
        (
            f"group value <= bound on {trials} random grids",
            violations == 0,
            f"worst excess {worst_gap:.3e}",
        )
    )
    return checks


_SUITES = {
    "axioms": _suite_axioms,
    "dpi": _suite_dpi,
    "equitability": _suite_equitability,
    "bounds": _suite_bounds,
}


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copdep",
        description="Directional dependence measures on checkerboard copulas",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit a copula grid from a CSV sample")
    est.add_argument("--input", required=True)
    est.add_argument("--output", required=True)
    est.add_argument("--columns", help="comma-separated names or 0-based indices")
    est.add_argument("--resolution", type=int, help="default: from the sample size")
    est.set_defaults(handler=cmd_estimate)

    mea = sub.add_parser("measure", help="compute a dependence measure")
    mea.add_argument("--input", required=True, help="copula JSON or CSV sample")
    mea.add_argument("--columns", help="CSV only: columns to load")
    mea.add_argument("--v-cols", help="target columns (default: last); the rest condition")
    mea.add_argument(
        "--kind",
        default="tau_quadratic",
        choices=[tag for tag, spec in _KINDS.items() if spec.compute is not None],
    )
    mea.add_argument("--alpha", type=float)
    mea.add_argument("--resolution", type=int, help="CSV only; default: from the sample size")
    mea.set_defaults(handler=cmd_measure)

    stp = sub.add_parser("star", help="compose two copula files through a middle block")
    stp.add_argument("a", help="copula JSON with conditioning + middle axes")
    stp.add_argument("b", help="copula JSON with middle + target axes")
    stp.add_argument("--n", type=int, required=True, help="middle block size")
    stp.add_argument("--output", required=True)
    stp.set_defaults(handler=cmd_star)

    syn = sub.add_parser("synth", help="write a synthetic CSV sample")
    syn.add_argument("--model", required=True, choices=_MODELS)
    syn.add_argument("--rows", type=int, default=1000)
    syn.add_argument("--dimension", type=int, default=2)
    syn.add_argument("--theta", type=float, help="mixture and gaussian only")
    syn.add_argument("--sigma", type=float, help="functional only; default: 0")
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--output", required=True)
    syn.set_defaults(handler=cmd_synth)

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("--suite", required=True, choices=list(_SUITES))
    ver.add_argument("--trials", type=int, default=50)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        _note(f"error: {exc}")
        return EXIT_INVALID_INPUT
    except CopdepError as exc:
        _note(f"error: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
