"""Batched kernel execution speedup: per-tile hot path vs batched.

Times two configurations of the same bounded ``fit_mle`` on one
dataset (the PR-8 acceptance experiment):

* ``pertile`` — the hot path: geometry cache + warm rank hints + a
  4-thread DAG executor, one Python-level kernel call per tile;
* ``batched`` — the same knobs routed through the batched execution
  layer: one vectorized covariance evaluation per ``theta``
  (``from_geometry_batch``) and homogeneous ready-set groups executed
  as stacked BLAS calls (:mod:`repro.runtime.batchdispatch`).

Writes the machine-readable ``benchmarks/out/BENCH_batched_kernels.json``.
``BENCH_BATCHED_N`` scales the dataset (default 1800, tile 60 — the
paper-style single-node problem); the committed artifact records the
full-size run, CI's perf-smoke job replays a small one and only
asserts no regression (the Python-dispatch overhead being amortized
shrinks with the tile count).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import fit_mle
from repro.core.likelihood import loglikelihood
from repro.data import sample_gaussian_field
from repro.kernels import ExponentialKernel
from repro.ordering import order_points

N = int(os.environ.get("BENCH_BATCHED_N", "1800"))
TILE = 60 if N >= 900 else 40
VARIANT = "mp-dense-tlr"
WORKERS = 4
MAX_NFEV = 12
THETA = np.array([1.0, 0.1])


def _dataset():
    gen = np.random.default_rng(0)
    x = gen.uniform(size=(N, 2))
    x = x[order_points(x, "morton")]
    kern = ExponentialKernel()
    z = sample_gaussian_field(kern, THETA, x, seed=5)
    return kern, x, z


def _timed_fit(kern, x, z, **engine_kwargs):
    t0 = time.perf_counter()
    result = fit_mle(
        kern, x, z, tile_size=TILE, variant=VARIANT,
        theta0=THETA, max_nfev=MAX_NFEV, max_iter=MAX_NFEV,
        cache=True, workers=WORKERS,
        **engine_kwargs,
    )
    return time.perf_counter() - t0, result


def test_batched_kernels_speedup(artifact_dir, benchmark):
    kern, x, z = _dataset()
    # Best-of-3 per configuration: single runs on a loaded box are
    # noisy enough to flake the gate; the minimum of three is a stable
    # estimate of each configuration's true cost.
    t_pertile, r_pertile = min(
        (_timed_fit(kern, x, z) for _ in range(3)), key=lambda tr: tr[0]
    )
    t_batched, r_batched = min(
        (_timed_fit(kern, x, z, batch=True) for _ in range(3)),
        key=lambda tr: tr[0],
    )

    record = {
        "experiment": "batched_kernels",
        "n": N,
        "tile_size": TILE,
        "variant": VARIANT,
        "kernel": "exponential",
        "nfev": MAX_NFEV,
        "workers": WORKERS,
        "seconds": {
            "pertile": round(t_pertile, 4),
            "batched": round(t_batched, 4),
        },
        "speedup": round(t_pertile / t_batched, 3),
        "loglik": {
            "pertile": r_pertile.loglik,
            "batched": r_batched.loglik,
        },
    }
    path = artifact_dir / "BENCH_batched_kernels.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n[artifact] {path}\n{json.dumps(record, indent=2)}")

    # Batching regroups the same per-tile operations, so the optimizer
    # trace must be unchanged — not merely close.
    assert r_batched.loglik == r_pertile.loglik
    np.testing.assert_array_equal(r_batched.theta, r_pertile.theta)
    # Acceptance: >= 1.5x at the full benchmark size; CI smoke replays
    # only assert the batched path is not a regression.
    if N >= 1800:
        assert record["speedup"] >= 1.5
    else:
        assert record["speedup"] >= 1.0

    # Steady-state single-evaluation timing through the batched layer.
    from repro.tile.geometry import GeometryCache

    cache = GeometryCache()
    loglikelihood(
        kern, THETA, x, z, tile_size=TILE, variant=VARIANT,
        cache=cache, workers=WORKERS, batch=True,
    )
    benchmark(
        loglikelihood,
        kern, THETA, x, z, tile_size=TILE, variant=VARIANT,
        cache=cache, workers=WORKERS, batch=True,
    )
