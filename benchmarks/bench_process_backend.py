"""Process backend speedup + strong scaling: threads vs processes.

The PR-10 acceptance experiment, in two parts:

* ``fit`` — the same bounded ``fit_mle`` under ``backend="thread"``
  (the PR-7 DAG executor, parallel only as far as BLAS releases the
  GIL) and ``backend="process"`` (the shared-memory owner-computes
  pool, :mod:`repro.runtime.procpool`).  The optimizer traces must be
  bit-identical — the backends may only differ in wall clock;
* ``scaling`` — strong scaling of one factorization across 1/2/4/8
  worker processes on a fixed planned matrix, with each run's
  *measured* cross-owner traffic recorded next to the simulator's
  wire-format *prediction* (exact on the dense plan, drifting on the
  TLR plan exactly where execution's ranks leave the planned ones).

Writes ``benchmarks/out/BENCH_process_backend.json``.  ``BENCH_PROC_N``
scales the dataset (default 1800, tile 60).  The speedup gate is
honest about hardware: processes can only beat threads when there are
cores to spread over, so it arms at >= 4 physical cores and full size
(``cores`` is recorded in the artifact either way); CI's perf-smoke
replay at n=400 asserts no regression under the same condition.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import fit_mle
from repro.data import sample_gaussian_field
from repro.kernels import ExponentialKernel
from repro.ordering import order_points
from repro.runtime import ProcessPoolEngine, cholesky_tasks, model_comm_volume
from repro.tile import build_planned_covariance

N = int(os.environ.get("BENCH_PROC_N", "1800"))
TILE = 60 if N >= 900 else 40
VARIANT = "mp-dense-tlr"
WORKERS = 4
MAX_NFEV = 8
THETA = np.array([1.0, 0.1])
CORES = os.cpu_count() or 1
#: Processes only pay off with cores to spread over; below this the
#: artifact still records the measurement but the gate stays off.
GATE = CORES >= 4


def _dataset():
    gen = np.random.default_rng(0)
    x = gen.uniform(size=(N, 2))
    x = x[order_points(x, "morton")]
    kern = ExponentialKernel()
    z = sample_gaussian_field(kern, THETA, x, seed=5)
    return kern, x, z


def _timed_fit(kern, x, z, backend):
    t0 = time.perf_counter()
    result = fit_mle(
        kern, x, z, tile_size=TILE, variant=VARIANT,
        theta0=THETA, max_nfev=MAX_NFEV, max_iter=MAX_NFEV,
        cache=True, workers=WORKERS, backend=backend,
    )
    return time.perf_counter() - t0, result


def _comm_dict(stats):
    return {
        "remote_reads": stats.remote_reads,
        "remote_bytes": stats.remote_bytes,
        "local_reads": stats.local_reads,
    }


def test_process_backend_speedup_and_scaling(artifact_dir, benchmark):
    kern, x, z = _dataset()

    # -- fit: thread vs process, bit-identical traces -------------------
    t_thread, r_thread = min(
        (_timed_fit(kern, x, z, "thread") for _ in range(2)),
        key=lambda tr: tr[0],
    )
    t_process, r_process = min(
        (_timed_fit(kern, x, z, "process") for _ in range(2)),
        key=lambda tr: tr[0],
    )
    assert r_process.loglik == r_thread.loglik
    np.testing.assert_array_equal(r_process.theta, r_thread.theta)
    assert r_process.history == r_thread.history

    # -- strong scaling of one factorization ----------------------------
    from repro.analysis import plan_from_matrix

    theta_fac = np.array([1.0, 0.1, 0.5])
    from repro.kernels import MaternKernel

    mat, rep = build_planned_covariance(
        MaternKernel(), theta_fac, x, TILE, nugget=1e-8,
        use_mp=True, use_tlr=True, band_size=2,
    )
    dense_mat, _ = build_planned_covariance(
        MaternKernel(), theta_fac, x, TILE, nugget=1e-8,
    )
    tasks = list(cholesky_tasks(mat.nt))
    tlr_plan = plan_from_matrix(mat)
    dense_plan = plan_from_matrix(dense_mat)

    scaling = {}
    for workers in (1, 2, 4, 8):
        with ProcessPoolEngine(workers=workers) as engine:
            t0 = time.perf_counter()
            _, run = engine.execute(mat.copy())
            elapsed = time.perf_counter() - t0
            _, dense_run = engine.execute(dense_mat.copy())
            modeled_tlr = model_comm_volume(tlr_plan, engine.grid, tasks)
            modeled_dense = model_comm_volume(dense_plan, engine.grid, tasks)
        # The dense plan's wire model is exact — pin it here too, so
        # the committed artifact can never record a divergence.
        assert _comm_dict(dense_run.comm) == _comm_dict(modeled_dense)
        scaling[str(workers)] = {
            "seconds": round(elapsed, 4),
            "max_concurrency": run.max_concurrency,
            "blas_clamp": run.blas_clamp,
            "comm_measured": _comm_dict(run.comm),
            "comm_modeled": _comm_dict(modeled_tlr),
            "comm_dense_measured": _comm_dict(dense_run.comm),
            "comm_dense_modeled": _comm_dict(modeled_dense),
        }

    record = {
        "experiment": "process_backend",
        "n": N,
        "tile_size": TILE,
        "variant": VARIANT,
        "kernel": "exponential",
        "nfev": MAX_NFEV,
        "workers": WORKERS,
        "cores": CORES,
        "gate_armed": bool(GATE and N >= 1800),
        "seconds": {
            "thread": round(t_thread, 4),
            "process": round(t_process, 4),
        },
        "speedup": round(t_thread / t_process, 3),
        "loglik": {
            "thread": r_thread.loglik,
            "process": r_process.loglik,
        },
        "strong_scaling": scaling,
    }
    path = artifact_dir / "BENCH_process_backend.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n[artifact] {path}\n{json.dumps(record, indent=2)}")

    # Acceptance: with real cores to spread over, the process backend
    # must beat threads at full size and at minimum not regress on the
    # CI smoke replay.  On narrower boxes the numbers are recorded but
    # a speedup is physically impossible, so the gate stays off.
    if GATE and N >= 1800:
        assert record["speedup"] >= 1.1
    elif GATE:
        assert record["speedup"] >= 1.0

    # Steady-state single-factorization timing on a persistent pool.
    with ProcessPoolEngine(workers=min(WORKERS, CORES)) as engine:
        engine.execute(mat.copy())  # warm-up
        benchmark(
            lambda: engine.execute(mat.copy())
        )
