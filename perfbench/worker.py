"""One workload's passes in a fresh interpreter; prints one JSON result line.

Run by ``run.py`` with ``src`` on PYTHONPATH:

    python perfbench/worker.py WORKLOAD WORKDIR SEED SECONDS TRACE
    python perfbench/worker.py probe

The first pass is an untimed warm-up.  Every pass builds its own copula and
arrays from the files in WORKDIR (or, for property_rounds, from its own
Philox stream), so nothing computed in one pass is reused by the next.
Outputs are returned raw; ``run.py`` checks them against the references.
With TRACE=1 untraced and traced passes alternate.  After a traced pass,
steps that run only inside other calls are timed by one extra call each,
outside the pass: ``validate`` on the pass's main copula and, on
property_rounds, ``star`` on every random pair.
"""

import copdep  # noqa: I001  first, so import cost is not mixed with the harness's

import contextlib
import ctypes
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import inputs
import spans

MIN_PASSES = 3  # the same floor run.py puts on CLI passes
PROPERTY_ROUNDS_PER_PASS = 250
SINGLE_SPLIT = ((0, 1), (2,))
GROUP_SPLIT = ((0,), (1, 2))
WIDE_SPLIT = ((0, 1, 2, 3), (4,))
PROPERTY_GROUP_SPLIT = ((0, 1), (2, 3))


class Pass:
    """Timing, outputs and failures of one pass."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.api = spans.api(copdep, recorder)
        self.seconds = None
        self.outputs = {}
        self.errors = []
        self.rounds = []
        self.counts = None

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    @contextlib.contextmanager
    def timed(self):
        span = self.recorder.span(spans.ROOT) if self.traced else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            yield
        self.seconds = time.perf_counter() - start

    def op(self, key, fn):
        """Run one operation; an exception becomes a recorded failure."""
        try:
            return fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def note_grid(self, copula, pair):
        """On a traced pass: grid counts, and ``validate`` timed on its own."""
        if self.traced:
            self.counts = grid_counts(copula, pair)
            self.op("validate", lambda: self.api.validate(copula))


def split(pair):
    return copdep.GroupSplit(*pair)


def csv_ingest_pass(p: Pass, work: Path, seed: int, index: int):
    """The CLI's call sequence for ``measure --resolution 32``, in-process."""
    path = work / "gaussian_1e6x3.csv"
    policy = copdep.ResolutionPolicy(mode="fixed", fixed_m=inputs.CSV_RESOLUTION, max_m=128)
    kind = copdep.MeasureKind("tau_quadratic")
    api = p.api

    def sequence():
        data, _ = api.read_csv(path)
        pseudo = api.pseudo_observations(data)
        res = api.choose_resolution(pseudo.n_rows, pseudo.n_cols, policy)
        copula = api.fit_checkerboard(pseudo, res, max_resolution=policy.max_m)
        report = api.compute_measure(copula, split(SINGLE_SPLIT), kind)
        return copula, api.to_json_dict(report)

    with p.timed():
        result = p.op("measure", sequence)
    if result is not None:
        p.outputs["value"] = result[1]["value"]
        p.note_grid(result[0], SINGLE_SPLIT)


def grid_measures_pass(p: Pass, work: Path, seed: int, index: int):
    queries = json.loads((work / "conditional_cdf_queries.json").read_text(encoding="utf-8"))
    single, group, api = split(SINGLE_SPLIT), split(GROUP_SPLIT), p.api
    calls = {
        "tau_quadratic": lambda c: api.tau_quadratic(c, single),
        "tau_alpha": lambda c: api.tau_alpha(c, single, 1.0),
        "renyi_alpha": lambda c: api.renyi_alpha(c, single, 0.5),
        "renyi_limit": lambda c: api.renyi_limit(c, single),
        "group_tau": lambda c: api.group_tau(c, group),
        "group_tau_normalized": lambda c: api.group_tau_normalized(c, group),
        "averaged_dependence": lambda c: api.averaged_dependence(c, group),
        "mutual_information": lambda c: api.mutual_information(c),
    }
    reports = {}
    with p.timed():
        copula = p.op("load_copula", lambda: api.load_copula(work / "dense_64x64x64.json"))
        if copula is not None:
            for key, call in calls.items():
                reports[key] = p.op(key, lambda: call(copula))
            cdf = [
                p.op("conditional_cdf", lambda: api.conditional_cdf(copula, single, (i, j), v))
                for i, j, v in queries
            ]
    if copula is None:
        return
    p.outputs = {key: (rep.value if rep is not None else None) for key, rep in reports.items()}
    if reports.get("group_tau") is not None:
        p.outputs["group_tau_bound"] = reports["group_tau"].upper_bound
    p.outputs["conditional_cdf"] = cdf
    p.note_grid(copula, SINGLE_SPLIT)


def high_dim_fit_pass(p: Pass, work: Path, seed: int, index: int):
    data = np.load(work / "gaussian_1e5x5.npy")
    res = (inputs.WIDE_RESOLUTION,) * inputs.WIDE_DIMS
    wide, api = split(WIDE_SPLIT), p.api
    with p.timed():
        copula = p.op("fit", lambda: api.fit_checkerboard(api.pseudo_observations(data), res))
        report = None if copula is None else p.op("tau_quadratic", lambda: api.tau_quadratic(copula, wide))
    if copula is None:
        return
    p.outputs["occupied_cells"] = int(np.count_nonzero(copula.mass))
    if report is not None:
        p.outputs["tau_quadratic"] = report.value
    p.note_grid(copula, WIDE_SPLIT)


def property_rounds_pass(p: Pass, work: Path, seed: int, index: int):
    """The calls of ``verify --suite dpi`` and ``--suite bounds``, round after round."""
    rng = inputs.philox(seed, stream=index + 1)
    kinds = (copdep.MeasureKind("tau_quadratic"), copdep.MeasureKind("tau_alpha", 1.0))
    group, api = split(PROPERTY_GROUP_SPLIT), p.api
    dpi, bounds, pairs = [], [], []
    copula = None

    def star_checks(n, m):
        a, b = api.random_star_pair(n, m, rng)
        if p.traced:
            pairs.append((a, b, n))
        return [api.dpi_report(a, b, n, kind) for kind in kinds]

    with p.timed():
        for _ in range(PROPERTY_ROUNDS_PER_PASS):
            start = time.perf_counter()
            for n, m in ((1, 8), (2, 4)):
                reports = p.op("dpi", lambda: star_checks(n, m))
                dpi.extend(reports if reports is not None else [None] * len(kinds))
            copula = p.op("random_copula", lambda: api.random_copula((4,) * 4, rng))
            bounds.append(None if copula is None else p.op("group_tau", lambda: api.group_tau(copula, group)))
            p.rounds.append(time.perf_counter() - start)
    p.outputs["dpi"] = [None if r is None else [r.tau_chain, r.tau_direct, bool(r.holds)] for r in dpi]
    p.outputs["bounds"] = [None if r is None else [r.value, r.upper_bound] for r in bounds]
    for a, b, n in pairs:
        p.op("star", lambda: api.star(a, b, n))
    if copula is not None:
        p.note_grid(copula, PROPERTY_GROUP_SPLIT)


PASSES = {
    "csv_ingest": csv_ingest_pass,
    "grid_measures": grid_measures_pass,
    "high_dim_fit": high_dim_fit_pass,
    "property_rounds": property_rounds_pass,
}


def grid_counts(copula, pair) -> dict:
    """Cells, occupancy and active conditioning rows of a pass's main copula."""
    mass = np.asarray(copula.mass)
    cond = int(np.prod([copula.resolutions[a] for a in pair[0]]))
    order = tuple(pair[0]) + tuple(pair[1])
    rows = np.transpose(mass.reshape(copula.resolutions), order).reshape(cond, -1).sum(axis=1)
    occupied = int(np.count_nonzero(mass))
    active = int(np.count_nonzero(rows))
    return {
        "grid.cells": int(mass.size),
        "grid.occupied_cells": occupied,
        "grid.occupancy": occupied / mass.size,
        "grid.dense_mb": 8.0 * mass.size / 2**20,
        "measures.active_rows": active,
        "measures.active_ratio": active / cond,
    }


def peak_rss_mb() -> float:
    """This process's own peak RSS.

    ``ru_maxrss`` would also count the peak of run.py, which spawned this
    process (see cli_passes.py); VmHWM is the high-water mark of this
    process's memory alone.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, name, None)
            if fn is not None:
                return int(fn())
    return None


def main(argv):
    if argv[1] == "probe":
        print(json.dumps({"copdep_file": copdep.__file__, "blas_threads": blas_threads()}))
        return
    workload, work, seed, seconds, trace = argv[1], Path(argv[2]), int(argv[3]), float(argv[4]), argv[5] == "1"
    run_pass = PASSES[workload]
    recorder = spans.Recorder() if trace else None
    warm = Pass()
    run_pass(warm, work, seed, 0)
    passes, traced, layers = [], [], []
    index = 1
    start = time.perf_counter()
    while True:
        for p in (Pass(), Pass(recorder)) if trace else (Pass(),):
            run_pass(p, work, seed, index)
            index += 1
            if p.traced:
                layers.append({**recorder.take(), "counts": p.counts})
                traced.append(p)
            else:
                passes.append(p)
        if time.perf_counter() - start >= seconds and (trace or len(passes) >= MIN_PASSES):
            break

    everything = [warm, *passes, *traced]
    result = {
        "copdep_file": copdep.__file__,
        "blas_threads": blas_threads(),
        "pass_seconds": [p.seconds for p in passes],
        "round_seconds": [r for p in passes for r in p.rounds],
        "outputs": [p.outputs for p in everything],
        "errors": [e for p in everything for e in p.errors],
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        result["traced"] = layers
        result["layer_errors"] = dict(recorder.errors)
        result["untraced_pass_s"] = statistics.median(result["pass_seconds"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
