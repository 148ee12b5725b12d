"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports copdep, so a change to the program cannot change the
inputs it is measured on.  Every generator is a Philox stream keyed by the
workload seed; the same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

CSV_ROWS = 1_000_000
CSV_RHO = 0.5
CSV_HEADER = "x0,x1,y"
CSV_RESOLUTION = 32

GRID_RESOLUTION = 64
GRID_QUERIES = 64
#: The benchmark's own IPF stops well inside the 1e-9 bound that
#: copdep applies when it loads a copula JSON, so summation order on the
#: program side cannot push a marginal over the bound.
GRID_IPF_TOL = 1e-11

WIDE_ROWS = 100_000
WIDE_DIMS = 5
WIDE_RHO = 0.5
WIDE_RESOLUTION = 32


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by the seed; ``stream`` jumps to a disjoint block."""
    bits = np.random.Philox(key=seed)
    return np.random.Generator(bits.jumped(stream) if stream else bits)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def gaussian_sample(rng: np.random.Generator, rows: int, dims: int, rho: float) -> np.ndarray:
    """Rows of an equicorrelated standard Gaussian vector."""
    corr = np.full((dims, dims), rho)
    np.fill_diagonal(corr, 1.0)
    return rng.standard_normal((rows, dims)) @ np.linalg.cholesky(corr).T


def write_csv(data: np.ndarray, path: Path) -> None:
    """``%.17g`` round-trips every double, so the file parses back to ``data``."""
    line = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, data.shape[0], 100_000):
            block = data[start : start + 100_000]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def balanced_grid(rng: np.random.Generator, m: int, dims: int) -> np.ndarray:
    """Gamma(2) cell masses rescaled by IPF until every marginal is uniform."""
    grid = rng.gamma(2.0, 1.0, size=(m,) * dims)
    grid /= grid.sum()
    for _ in range(200):
        for axis in range(dims):
            others = tuple(a for a in range(dims) if a != axis)
            shape = [1] * dims
            shape[axis] = m
            grid *= (1.0 / m) / grid.sum(axis=others).reshape(shape)
        worst = max(
            float(np.abs(grid.sum(axis=tuple(a for a in range(dims) if a != axis)) - 1.0 / m).max())
            for axis in range(dims)
        )
        if worst < GRID_IPF_TOL and abs(float(grid.sum()) - 1.0) < GRID_IPF_TOL:
            return grid
    raise RuntimeError(f"benchmark IPF did not converge: marginal error {worst:.3e}")


def make_csv_ingest(seed: int, work: Path) -> dict:
    data = gaussian_sample(philox(seed), CSV_ROWS, 3, CSV_RHO)
    path = work / "gaussian_1e6x3.csv"
    write_csv(data, path)
    return {"data": data, "csv": path}


def make_grid_measures(seed: int, work: Path) -> dict:
    rng = philox(seed)
    grid = balanced_grid(rng, GRID_RESOLUTION, 3)
    path = work / "dense_64x64x64.json"
    payload = {"dims": 3, "resolutions": [GRID_RESOLUTION] * 3, "mass": grid.ravel().tolist()}
    path.write_text(json.dumps(payload), encoding="utf-8")
    cells = rng.integers(0, GRID_RESOLUTION, size=(GRID_QUERIES, 2))
    points = rng.random(GRID_QUERIES)
    queries = [[int(i), int(j), float(v)] for (i, j), v in zip(cells, points)]
    qpath = work / "conditional_cdf_queries.json"
    qpath.write_text(json.dumps(queries), encoding="utf-8")
    # The reference reads the masses back from the file, exactly as copdep sees them.
    mass = np.asarray(json.loads(path.read_text(encoding="utf-8"))["mass"])
    return {"grid": mass.reshape((GRID_RESOLUTION,) * 3), "queries": queries, "json": path, "query_json": qpath}


def make_high_dim_fit(seed: int, work: Path) -> dict:
    data = gaussian_sample(philox(seed), WIDE_ROWS, WIDE_DIMS, WIDE_RHO)
    path = work / "gaussian_1e5x5.npy"
    np.save(path, data)
    return {"data": data, "npy": path}


def describe(inputs: dict) -> list[dict]:
    """Name, size and sha256 of every input file."""
    files = [v for v in inputs.values() if isinstance(v, Path)]
    return [
        {"file": p.name, "bytes": p.stat().st_size, "sha256": sha256_file(p)}
        for p in sorted(files)
    ]
