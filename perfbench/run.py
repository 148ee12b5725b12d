"""copdep benchmark: seeded workloads over the CSV -> grid -> measure pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  NAME is one of csv_ingest, grid_measures, high_dim_fit,
property_rounds, or ``all`` for each in turn.  This process builds the inputs
with numpy and their reference values with numpy and scipy.special, and never
imports copdep; the work runs in fresh child processes.

``--trace 0`` reports the end-to-end metrics: median pass time, set-up time
(fresh interpreter to ``import copdep`` returning, median of several) and
the peak RSS of the process doing the work.  ``--trace 1`` alternates
untraced and traced passes and reports self time per layer.  The last line
of stdout is the result object; the line before it holds the run's context,
input digests, fail_frac and diagnostics.  A summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("csv_ingest", "grid_measures", "high_dim_fit", "property_rounds")
SETUP_SAMPLES = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
SETUP_CODE = "import time, copdep; print(time.monotonic(), copdep.__file__)"
MEASURE_KINDS = (
    "tau_quadratic",
    "tau_alpha",
    "renyi_alpha",
    "renyi_limit",
    "mutual_information",
    "group_tau",
    "group_tau_normalized",
    "averaged_dependence",
    "conditional_cdf",
)
LAYER_SPANS = (
    "estimation.read_csv",
    "estimation.pseudo_observations",
    "estimation.fit_checkerboard",
    "grid.load_copula",
    "grid.validate",
    "measures.compute_measure",
    *(f"measures.{k}" for k in MEASURE_KINDS),
    "starprod.star",
    "starprod.dpi_report",
    "generators.random_star_pair",
    "generators.random_copula",
)
GRID_COUNTS = (
    "grid.cells",
    "grid.occupied_cells",
    "grid.occupancy",
    "grid.dense_mb",
    "measures.active_rows",
    "measures.active_ratio",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], stderr_path: Path) -> tuple[int, str]:
    """Exit code and stdout of one child process.

    The child leads its own process group, so a timeout also ends whatever
    it started.
    """
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err, start_new_session=True
        )
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return proc.returncode, out.decode("utf-8", errors="replace")


def check_import_location(path: str) -> None:
    if Path(path).resolve().parent != (SRC / "copdep").resolve():
        raise BenchError(f"copdep was imported from {path}, not from {SRC}")


def measure_setup(work: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to ``import copdep`` returning."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        code, out = run_child([sys.executable, "-c", SETUP_CODE], work / "setup.err")
        if code != 0:
            raise BenchError(f"import copdep failed with exit code {code}")
        stamp, path = out.split()
        check_import_location(path)
        samples.append(float(stamp) - start)
    return samples


def probe(work: Path) -> dict:
    """Untimed first import (compiles bytecode, warms the file cache) plus BLAS threads."""
    code, out = run_child([sys.executable, str(HERE / "worker.py"), "probe"], work / "probe.err")
    if code != 0:
        raise BenchError(f"cannot import copdep from {SRC}: {(work / 'probe.err').read_text()[-2000:]}")
    found = json.loads(out.strip().splitlines()[-1])
    check_import_location(found["copdep_file"])
    return found


def cli_passes(csv: Path, work: Path, seconds: float, min_passes: int) -> tuple[dict, list[dict]]:
    """The untimed warm-up CLI pass and the timed ones, spawned by cli_passes.py."""
    cmd = [sys.executable, "-m", "copdep.cli", "measure", "--input", str(csv), "--resolution", "32", "--kind", "tau_quadratic"]
    launcher = [sys.executable, str(HERE / "cli_passes.py"), str(seconds), str(min_passes)]
    code, out = run_child(launcher + cmd, work / "cli.err")
    if code != 0 or not out.strip():
        raise BenchError(f"cli_passes.py exited {code}: {(work / 'cli.err').read_text()[-4000:]}")
    found = json.loads(out.strip().splitlines()[-1])
    for run in [found["warm"], *found["runs"]]:
        try:
            run["value"] = json.loads(run.pop("stdout"))["value"] if run["exit"] == 0 else None
        except (KeyError, TypeError, ValueError):
            run["value"] = None
    return found["warm"], found["runs"]


def run_worker(workload: str, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(work), str(seed), str(seconds), "1" if trace else "0"]
    code, out = run_child(cmd, work / "worker.err")
    if code != 0 or not out.strip():
        raise BenchError(f"worker exited {code}: {(work / 'worker.err').read_text()[-4000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    check_import_location(result["copdep_file"])
    return result


def tail(samples: list[float]) -> dict:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for pct in (50.0, 90.0, 99.0, 99.9):
        if len(samples) * (1.0 - pct / 100.0) >= 10:
            best = pct
    if best is None:
        return {"percentile": None, "samples": len(samples)}
    ordered = sorted(samples)
    k = min(len(ordered) - 1, int(len(ordered) * best / 100.0))
    return {"percentile": best, "seconds": ordered[k], "samples": len(ordered), "beyond": len(ordered) - k - 1}


def cache_sizes() -> list[str]:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            fields = [(index / f).read_text().strip() for f in ("level", "type", "size")]
        except OSError:
            continue
        out.append("L{} {} {}".format(*fields))
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "copdep").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def context(seed: int, blas_threads) -> dict:
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = None
    return {
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": load,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas_threads": blas_threads,
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caches": cache_sizes(),
    }


def build(workload: str, seed: int, work: Path) -> tuple[dict, object, float]:
    """Inputs, their reference values, and the dense size (MB) of the main grid."""
    if workload == "csv_ingest":
        made = inputs.make_csv_ingest(seed, work)
        ref = reference.csv_ingest(made.pop("data"), inputs.CSV_RESOLUTION)
        cells = inputs.CSV_RESOLUTION**3
    elif workload == "grid_measures":
        made = inputs.make_grid_measures(seed, work)
        ref = reference.grid_measures(made.pop("grid"), made.pop("queries"))
        cells = inputs.GRID_RESOLUTION**3
    elif workload == "high_dim_fit":
        made = inputs.make_high_dim_fit(seed, work)
        ref = reference.high_dim_fit(made.pop("data"), inputs.WIDE_RESOLUTION)
        cells = inputs.WIDE_RESOLUTION**inputs.WIDE_DIMS
    else:
        made, ref, cells = {}, None, 4**4
    return made, ref, 8.0 * cells / 2**20


def layer_metrics(worker: dict, cli_startup: float | None, csv_bytes: int, cli_errors: int) -> dict:
    """Median over traced passes of each layer's self time, plus counts."""
    rows = []
    for traced in worker["traced"]:
        self_s = traced["self_s"]
        row = {f"{name}_s": self_s.get(name, 0.0) for name in LAYER_SPANS}
        for layer in spans.LAYERS:
            row[f"{layer}.self_s"] = traced["layer_s"].get(layer, 0.0)
        row["trace.pass_s"] = traced["pass_s"]
        startup = cli_startup or 0.0
        row["trace.coverage"] = (sum(traced["layer_s"].values()) + startup) / (traced["pass_s"] + startup)
        row.update({k: (traced["counts"] or {}).get(k, 0) for k in GRID_COUNTS})
        rows.append(row)
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    read_s = metrics["estimation.read_csv_s"]
    metrics["estimation.csv_bytes"] = csv_bytes
    metrics["estimation.read_csv_mb_per_s"] = csv_bytes / 2**20 / read_s if read_s > 0 else 0.0
    metrics["cli.startup_s"] = cli_startup if cli_startup is not None else 0.0
    metrics["cli.errors"] = cli_errors
    for layer in spans.LAYERS:
        metrics[f"{layer}.errors"] = worker["layer_errors"].get(layer, 0)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - worker["untraced_pass_s"]
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    made, ref, dense_mb = build(workload, seed, work)
    described = inputs.describe(made)
    if workload == "property_rounds":
        described = [{"philox_key": seed, "streams": "one per pass, jumped by pass index"}]
    found = probe(work)
    setup = None if trace else measure_setup(work)
    tally = checks.Tally()
    cli_warm, cli_runs, worker = None, [], None
    if workload == "csv_ingest":
        cli_warm, cli_runs = cli_passes(made["csv"], work, seconds / 2 if trace else seconds, 1 if trace else MIN_PASSES)
        checks.csv_cli(tally, [cli_warm, *cli_runs], ref)
        if trace:
            worker = run_worker(workload, work, seed, seconds / 2, True)
            checks.csv_replay(tally, worker["outputs"], ref)
    else:
        worker = run_worker(workload, work, seed, seconds, trace)
        if workload == "grid_measures":
            checks.grid_measures(tally, worker["outputs"], ref)
        elif workload == "high_dim_fit":
            checks.high_dim_fit(tally, worker["outputs"], ref)
        else:
            checks.property_rounds(tally, worker["outputs"])

    if cli_runs:
        pass_times = [r["seconds"] for r in cli_runs]
    else:
        pass_times = worker["pass_seconds"]
    samples = worker["round_seconds"] if worker and worker["round_seconds"] else pass_times
    if trace:
        startup = None
        if workload == "csv_ingest":
            startup = statistics.median(pass_times) - statistics.median(sum(t["layer_s"].values()) for t in worker["traced"])
        csv_bytes = made["csv"].stat().st_size if workload == "csv_ingest" else 0
        cli_errors = sum(1 for r in [cli_warm, *cli_runs] if r and r["exit"] != 0)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer_metrics(worker, startup, csv_bytes, cli_errors).items()}
    else:
        rss = statistics.median(r["peak_rss_mb"] for r in cli_runs) if cli_runs else worker["peak_rss_mb"]
        metrics = {
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    fail_frac = len(tally.failures) / tally.attempted
    detail = {
        "workload": workload,
        "trace": int(trace),
        "context": context(seed, found["blas_threads"]),
        "inputs": described,
        "grid_dense_mb": dense_mb,
        "fail_frac": {"value": fail_frac, "unit": "ratio"},
        "attempted": tally.attempted,
        "failures": tally.failures[:20],
        "errors": (worker or {}).get("errors", [])[:20],
        "pass_seconds": pass_times,
        "setup_seconds": setup,
        "tail": tail(samples),
        "metrics": metrics,
    }
    summary = {"correct": not tally.failures, "attempted": tally.attempted, "failed": len(tally.failures)}
    return detail, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "copdep" / "__init__.py").is_file():
        print(f"error: no copdep sources under {SRC}", file=sys.stderr)
        return 2

    work_root = HERE / "_work"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        work = work_root / f"{name}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for name, (detail, summary) in results.items():
        print(json.dumps(detail))
        shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in detail["metrics"].items())
        print(
            f"{name} seed {args.seed}: {shown}, fail_frac {detail['fail_frac']['value']:.6g} ratio "
            f"({summary['failed']}/{summary['attempted']})",
            file=sys.stderr,
        )
    single = args.workload != "all"
    print(json.dumps({
        "correct": all(s["correct"] for _, s in results.values()),
        "attempted": sum(s["attempted"] for _, s in results.values()),
        "failed": sum(s["failed"] for _, s in results.values()),
        "metrics": {
            (k if single else f"{name}.{k}"): m
            for name, (detail, _) in results.items()
            for k, m in detail["metrics"].items()
        },
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("occupancy", "ratio", "coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
