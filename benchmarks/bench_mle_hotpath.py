"""MLE hot-path engine speedup: cold vs cached vs cached+parallel.

Times three configurations of the same bounded ``fit_mle`` on one
dataset (the PR-3 acceptance experiment):

* ``cold``            — no geometry cache, sequential;
* ``cached``          — the geometry cache added (bit-identical
                        results);
* ``cached_parallel`` — cache + a 4-thread DAG executor (bit-identical
                        results).

All three run the one low-rank arithmetic (exact-stacking updates)
and feed warm rank hints between evaluations, so the comparison
isolates the geometry cache and the thread pool.

Writes the machine-readable ``benchmarks/out/BENCH_mle_hotpath.json``.
``BENCH_MLE_HOTPATH_N`` scales the dataset (default 1800, tile 60 —
the paper-style single-node problem); the committed artifact records
the full-size run, CI's perf-smoke job replays a small one.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import EvaluationEngine, fit_mle
from repro.data import sample_gaussian_field
from repro.kernels import ExponentialKernel
from repro.ordering import order_points

N = int(os.environ.get("BENCH_MLE_HOTPATH_N", "1800"))
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
        **engine_kwargs,
    )
    return time.perf_counter() - t0, result


def test_mle_hotpath_speedup(artifact_dir, benchmark):
    kern, x, z = _dataset()
    t_cold, r_cold = _timed_fit(kern, x, z, cache=False)
    t_cache, r_cache = _timed_fit(kern, x, z, cache=True)
    t_par, r_par = _timed_fit(
        kern, x, z, cache=True, workers=WORKERS
    )

    record = {
        "experiment": "mle_hotpath",
        "n": N,
        "tile_size": TILE,
        "variant": VARIANT,
        "kernel": "exponential",
        "nfev": MAX_NFEV,
        "workers": WORKERS,
        "seconds": {
            "cold": round(t_cold, 4),
            "cached": round(t_cache, 4),
            "cached_parallel": round(t_par, 4),
        },
        "speedup": {
            "cached": round(t_cold / t_cache, 3),
            "cached_parallel": round(t_cold / t_par, 3),
        },
        "loglik": {
            "cold": r_cold.loglik,
            "cached": r_cache.loglik,
            "cached_parallel": r_par.loglik,
        },
    }
    path = artifact_dir / "BENCH_mle_hotpath.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n[artifact] {path}\n{json.dumps(record, indent=2)}")

    # The cache must be invisible in the optimizer trace.
    assert r_cache.loglik == r_cold.loglik
    np.testing.assert_array_equal(r_cache.theta, r_cold.theta)
    # The threaded path must agree.
    np.testing.assert_allclose(r_par.loglik, r_cold.loglik, rtol=1e-6)
    np.testing.assert_allclose(r_par.theta, r_cold.theta, rtol=1e-4)
    # Acceptance: >= 2x at the full benchmark size (small CI replays
    # only assert the fast path is not a regression).
    if N >= 1800:
        assert record["speedup"]["cached_parallel"] >= 2.0
    else:
        assert record["speedup"]["cached_parallel"] > 0.7

    # Steady-state per-evaluation timing of the warm engine.
    eng = EvaluationEngine(
        kern, x, z, tile_size=TILE, variant=VARIANT, workers=WORKERS,
    )
    eng.evaluate(THETA)
    benchmark(eng.evaluate, THETA)
