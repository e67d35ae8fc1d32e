"""Gaussian log-likelihood evaluation (paper Eq. 1).

    l(theta) = -(n/2) log(2 pi) - (1/2) log|Sigma(theta)|
               - (1/2) z^T Sigma(theta)^{-1} z

The tiled path builds the covariance under a compute variant's plan,
runs the tile Cholesky, takes ``log|Sigma|`` from the factor diagonal,
and the quadratic form from one forward solve.  A plain-NumPy dense
FP64 path is provided as the independent reference for tests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..exceptions import (
    ConfigurationError,
    NotPositiveDefiniteError,
    SchedulingError,
    ShapeError,
)
from ..kernels.base import CovarianceKernel
from ..obs.telemetry import maybe_span
from ..resilience import Deadline, ResilienceConfig
from ..resilience.validate import require_finite
from ..tile.assembly import AssemblyReport, build_planned_covariance
from ..tile.cholesky import CholeskyStats, tile_cholesky
from ..tile.geometry import GeometryCache, TileGeometry
from ..tile.matrix import TileMatrix
from ..tile.recovery import RecoveryReport, factor_with_recovery
from ..tile.solve import forward_solve, tile_logdet
from .variants import DENSE_FP64, VariantConfig, get_variant

__all__ = [
    "LikelihoodResult",
    "loglikelihood",
    "loglikelihood_replicated",
    "loglikelihood_dense_reference",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class LikelihoodResult:
    """One likelihood evaluation, with the pieces experiments report."""

    value: float
    logdet: float
    quadratic: float
    n: int
    variant: str
    factor: TileMatrix
    report: AssemblyReport
    stats: CholeskyStats
    #: Non-``None`` only when the variant's recovery ladder had to
    #: rescue this evaluation from a factorization breakdown.
    recovery: RecoveryReport | None = None

    def __float__(self) -> float:  # pragma: no cover - convenience
        return self.value


def _check_observations(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    require_finite("x", x)
    require_finite("z", z)
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.shape[0] != len(x):
        raise ShapeError(
            f"{len(x)} locations but {z.shape[0]} observations"
        )
    return z


def _factor_planned(
    matrix: TileMatrix,
    *,
    fp16_accumulate_fp32: bool,
    workers: int,
    resilience=None,
    deadline=None,
    batch: bool = False,
    backend: str = "auto",
    procpool=None,
    telemetry=None,
) -> tuple[TileMatrix, CholeskyStats]:
    """Factor a planned covariance under a ``"factorize"`` span; see
    :func:`_factor_planned_impl` for the backend routing contract.
    ``telemetry`` flows into the executors (per-task spans, merged
    worker timelines) and receives each run's
    :class:`~repro.runtime.parallel.ParallelRunReport` metrics."""
    with maybe_span(
        telemetry, "factorize", nt=matrix.nt, backend=backend,
        workers=workers, batch=bool(batch),
    ):
        return _factor_planned_impl(
            matrix,
            fp16_accumulate_fp32=fp16_accumulate_fp32, workers=workers,
            resilience=resilience, deadline=deadline, batch=batch,
            backend=backend, procpool=procpool, telemetry=telemetry,
        )


def _factor_planned_impl(
    matrix: TileMatrix,
    *,
    fp16_accumulate_fp32: bool,
    workers: int,
    resilience=None,
    deadline=None,
    batch: bool = False,
    backend: str = "auto",
    procpool=None,
    telemetry=None,
) -> tuple[TileMatrix, CholeskyStats]:
    """Factor a planned covariance: sequentially, on the threaded DAG
    executor, on the batched homogeneous-group dispatcher, or on the
    process-parallel backend.

    The parallel engines wrap task failures in
    :class:`~repro.exceptions.SchedulingError`; an underlying
    :class:`~repro.exceptions.NotPositiveDefiniteError` is unwrapped
    here so MLE drivers and the recovery ladder see the same exception
    either way.

    ``backend`` selects the execution engine:

    * ``"auto"`` (default): the historical routing below — batched
      dispatcher when ``batch``, sequential when ``workers <= 1`` with
      no task-level resilience or deadline, threaded DAG executor
      otherwise;
    * ``"sequential"``: force one worker, then the auto routing (so
      resilience/deadline still get their executor, at ``workers=1``);
    * ``"thread"``: the thread-based executors regardless of worker
      count (the batched dispatcher when ``batch``, else the DAG
      executor);
    * ``"process"``: the shared-memory
      :class:`~repro.runtime.procpool.ProcessPoolEngine` — pass an
      engine via ``procpool`` to reuse its persistent worker pool
      across evaluations (the
      :class:`~repro.core.engine.EvaluationEngine` does), else an
      ephemeral pool spins up for this call.  Deadlines, retry, chaos,
      and ``batch`` all apply in-worker; results are bit-identical to
      every other backend.

    Task-level resilience hooks (retry / chaos) and deadlines live in
    the executors, so configuring either routes the factorization
    through one even at ``workers=1``; with both absent the sequential
    reference path runs bit-identically to the seed.  ``batch=True``
    routes through
    :func:`~repro.runtime.batchdispatch.execute_cholesky_batched`
    (stacked BLAS over homogeneous ready groups, dense results
    bit-identical) — but the batched dispatcher supports neither
    deadlines nor task-level resilience, so those knobs win and the
    run falls back to the heap executor.
    """
    task_level = resilience is not None and resilience.task_level
    if backend == "process":
        from ..runtime.procpool import ProcessPoolEngine

        engine = procpool
        ephemeral = engine is None
        if ephemeral:
            engine = ProcessPoolEngine(workers=workers)
        try:
            factored, run = engine.execute(
                matrix,
                fp16_accumulate_fp32=fp16_accumulate_fp32,
                deadline=deadline,
                retry=None if resilience is None else resilience.retry,
                chaos=None if resilience is None
                else resilience.resolve_chaos(),
                batch=batch,
                telemetry=telemetry,
            )
        except SchedulingError as exc:
            cause = exc.__cause__
            if isinstance(cause, NotPositiveDefiniteError):
                raise cause from exc
            raise
        finally:
            if ephemeral:
                engine.close()
        if telemetry is not None:
            telemetry.record_run_report(run)
        return factored, run.stats
    if backend == "sequential":
        workers = 1
    elif backend not in ("auto", "thread"):
        raise ConfigurationError(
            f"unknown execution backend {backend!r}; expected 'auto', "
            "'sequential', 'thread', or 'process'"
        )
    if (
        backend in ("auto", "thread") and batch
        and not task_level and deadline is None
    ):
        from ..runtime.batchdispatch import execute_cholesky_batched

        factored, run = execute_cholesky_batched(
            matrix,
            workers=workers,
            fp16_accumulate_fp32=fp16_accumulate_fp32,
            telemetry=telemetry,
        )
        if telemetry is not None:
            telemetry.record_run_report(run)
        return factored, run.stats
    if (
        backend != "thread" and workers <= 1
        and not task_level and deadline is None
    ):
        return tile_cholesky(
            matrix,
            fp16_accumulate_fp32=fp16_accumulate_fp32,
        )
    from ..runtime.parallel import execute_cholesky_parallel

    try:
        factored, run = execute_cholesky_parallel(
            matrix,
            workers=workers,
            fp16_accumulate_fp32=fp16_accumulate_fp32,
            deadline=deadline,
            retry=None if resilience is None else resilience.retry,
            chaos=None if resilience is None else resilience.resolve_chaos(),
            telemetry=telemetry,
        )
    except SchedulingError as exc:
        cause = exc.__cause__
        if isinstance(cause, NotPositiveDefiniteError):
            raise cause from exc
        raise
    if telemetry is not None:
        telemetry.record_run_report(run)
    return factored, run.stats


def loglikelihood(
    kernel: CovarianceKernel,
    theta: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    *,
    tile_size: int,
    variant: "str | VariantConfig" = DENSE_FP64,
    nugget: float = 0.0,
    geometry: TileGeometry | None = None,
    cache: GeometryCache | None = None,
    rank_hints: "dict[tuple[int, int], int] | None" = None,
    workers: int | None = None,
    resilience: ResilienceConfig | None = None,
    deadline: Deadline | None = None,
    batch: bool | None = None,
    backend: str | None = None,
    procpool=None,
    telemetry=None,
) -> LikelihoodResult:
    """Evaluate Eq. (1) through the tiled Cholesky pipeline.

    Raises :class:`~repro.exceptions.NotPositiveDefiniteError` when the
    covariance at ``theta`` fails to factor (MLE drivers treat that as
    a rejected step).  Variants with a
    :class:`~repro.tile.recovery.RecoveryPolicy` first escalate through
    the recovery ladder; a rescued evaluation carries the
    :class:`~repro.tile.recovery.RecoveryReport` on ``result.recovery``
    and only exhaustion raises (as
    :class:`~repro.exceptions.RecoveryExhaustedError`).

    The hot-path knobs (``geometry``/``cache``, ``rank_hints``,
    ``workers``) are documented on
    :func:`~repro.tile.assembly.build_planned_covariance`; ``workers``
    defaults to the variant's setting.  The
    :class:`~repro.core.engine.EvaluationEngine` wires them together
    for repeated evaluations.

    ``resilience`` opts into the hardening layer
    (:class:`~repro.resilience.ResilienceConfig`: task retries with
    seeded backoff, chaos injection); ``deadline`` bounds the wall
    clock of the factorization, raising
    :class:`~repro.exceptions.DeadlineExceededError` after a clean
    pool drain.  Both default to ``None`` — the unhardened path, which
    is bit-identical to earlier releases.

    ``backend`` picks the execution engine (``"auto"`` /
    ``"sequential"`` / ``"thread"`` / ``"process"``; see
    :func:`_factor_planned`), defaulting to the variant's setting;
    ``procpool`` supplies a persistent
    :class:`~repro.runtime.procpool.ProcessPoolEngine` so repeated
    ``backend="process"`` evaluations reuse one worker pool.  Every
    backend returns bit-identical results.

    ``telemetry`` (a :class:`~repro.obs.Telemetry`) wraps the
    evaluation in a ``"loglikelihood"`` span with ``"generate"`` /
    ``"compress"`` / ``"factorize"`` / ``"solve"`` children, and
    records the evaluation's :class:`CholeskyStats` into the metrics
    registry.  Traced evaluations are bit-identical to untraced ones
    (pinned by tests and the overhead benchmark).
    """
    cfg = get_variant(variant)
    if resilience is not None:
        resilience = resilience.bind()  # one chaos injector per call
    z = _check_observations(x, z)
    nworkers = cfg.workers if workers is None else max(1, int(workers))
    use_batch = cfg.batch if batch is None else bool(batch)
    use_backend = cfg.backend if backend is None else str(backend)
    if use_batch:
        # The batched layer sizes every pool (generation, compression,
        # dispatch) to the physical cores: oversubscribed threads only
        # add overhead around vectorized calls, and thread count never
        # changes results on any of these paths.
        nworkers = min(nworkers, max(1, os.cpu_count() or 1))
    hotpath = dict(
        geometry=geometry, cache=cache, rank_hints=rank_hints,
        workers=nworkers, batch=use_batch,
        telemetry=telemetry,
    )
    recovery: RecoveryReport | None = None
    with maybe_span(
        telemetry, "loglikelihood", variant=cfg.name, n=z.shape[0],
        backend=use_backend, workers=nworkers,
    ):
        if cfg.recovery is not None:

            def rebuild(**overrides):
                extra = overrides.pop("extra_nugget", 0.0)
                return build_planned_covariance(
                    kernel, theta, x, tile_size, nugget=nugget + extra,
                    **overrides, **hotpath, **cfg.assembly_kwargs(),
                )

            def factor_fn(matrix):
                return _factor_planned(
                    matrix, fp16_accumulate_fp32=cfg.fp16_accumulate_fp32,
                    workers=nworkers,
                    resilience=resilience, deadline=deadline,
                    batch=use_batch, backend=use_backend,
                    procpool=procpool, telemetry=telemetry,
                )

            factor, stats, report, rec = factor_with_recovery(
                rebuild,
                policy=cfg.recovery,
                fp16_accumulate_fp32=cfg.fp16_accumulate_fp32,
                factor_fn=factor_fn,
            )
            recovery = rec if rec.actions else None
        else:
            matrix, report = build_planned_covariance(
                kernel, theta, x, tile_size, nugget=nugget,
                **hotpath, **cfg.assembly_kwargs(),
            )
            factor, stats = _factor_planned(
                matrix, fp16_accumulate_fp32=cfg.fp16_accumulate_fp32,
                workers=nworkers,
                resilience=resilience, deadline=deadline,
                batch=use_batch, backend=use_backend,
                procpool=procpool, telemetry=telemetry,
            )
        with maybe_span(telemetry, "solve", n=z.shape[0]):
            logdet = tile_logdet(factor)
            y = forward_solve(factor, z)
            quad = float(y @ y)
    n = z.shape[0]
    value = -0.5 * n * _LOG_2PI - 0.5 * logdet - 0.5 * quad
    if telemetry is not None:
        telemetry.record_cholesky_stats(stats)
    return LikelihoodResult(
        value=value,
        logdet=logdet,
        quadratic=quad,
        n=n,
        variant=cfg.name,
        factor=factor,
        report=report,
        stats=stats,
        recovery=recovery,
    )


def loglikelihood_replicated(
    kernel: CovarianceKernel,
    theta: np.ndarray,
    x: np.ndarray,
    z_replicates: np.ndarray,
    *,
    tile_size: int,
    variant: "str | VariantConfig" = DENSE_FP64,
    nugget: float = 0.0,
    geometry: TileGeometry | None = None,
    cache: GeometryCache | None = None,
    rank_hints: "dict[tuple[int, int], int] | None" = None,
    workers: int | None = None,
    resilience: ResilienceConfig | None = None,
    deadline: Deadline | None = None,
    batch: bool | None = None,
    backend: str | None = None,
    procpool=None,
    telemetry=None,
) -> np.ndarray:
    """Log-likelihoods of many independent replicates sharing one
    location set (the Fig. 6 protocol: 100 synthetic fields at the same
    design).

    Factors the covariance *once* and solves all replicates against it
    — amortizing the O(n^3) over the O(reps * n^2) solves.  Returns one
    value per row of ``z_replicates``.

    Variants with a :class:`~repro.tile.recovery.RecoveryPolicy` route
    through the same recovery ladder as :func:`loglikelihood`, so an
    indefinite planned covariance is rescued rather than raised.
    """
    cfg = get_variant(variant)
    if resilience is not None:
        resilience = resilience.bind()  # one chaos injector per call
    require_finite("x", x)
    require_finite("z_replicates", z_replicates)
    z = np.asarray(z_replicates, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError("z_replicates must be (reps, n)")
    if z.shape[1] != len(x):
        raise ShapeError(
            f"{len(x)} locations but replicate length {z.shape[1]}"
        )
    nworkers = cfg.workers if workers is None else max(1, int(workers))
    use_batch = cfg.batch if batch is None else bool(batch)
    use_backend = cfg.backend if backend is None else str(backend)
    if use_batch:
        # Same pool-sizing rule as loglikelihood (see there).
        nworkers = min(nworkers, max(1, os.cpu_count() or 1))
    hotpath = dict(
        geometry=geometry, cache=cache, rank_hints=rank_hints,
        workers=nworkers, batch=use_batch,
        telemetry=telemetry,
    )
    with maybe_span(
        telemetry, "loglikelihood_replicated", variant=cfg.name,
        n=z.shape[1], reps=z.shape[0], backend=use_backend,
    ):
        if cfg.recovery is not None:

            def rebuild(**overrides):
                extra = overrides.pop("extra_nugget", 0.0)
                return build_planned_covariance(
                    kernel, theta, x, tile_size, nugget=nugget + extra,
                    **overrides, **hotpath, **cfg.assembly_kwargs(),
                )

            def factor_fn(matrix):
                return _factor_planned(
                    matrix, fp16_accumulate_fp32=cfg.fp16_accumulate_fp32,
                    workers=nworkers,
                    resilience=resilience, deadline=deadline,
                    batch=use_batch, backend=use_backend,
                    procpool=procpool, telemetry=telemetry,
                )

            factor, _, report, _ = factor_with_recovery(
                rebuild,
                policy=cfg.recovery,
                fp16_accumulate_fp32=cfg.fp16_accumulate_fp32,
                factor_fn=factor_fn,
            )
        else:
            matrix, report = build_planned_covariance(
                kernel, theta, x, tile_size, nugget=nugget,
                **hotpath, **cfg.assembly_kwargs(),
            )
            factor, _ = _factor_planned(
                matrix, fp16_accumulate_fp32=cfg.fp16_accumulate_fp32,
                workers=nworkers,
                resilience=resilience, deadline=deadline,
                batch=use_batch, backend=use_backend,
                procpool=procpool, telemetry=telemetry,
            )
        with maybe_span(telemetry, "solve", n=z.shape[1],
                        reps=z.shape[0]):
            logdet = tile_logdet(factor)
            y = forward_solve(factor, z.T)  # (n, reps)
            quads = np.einsum("ij,ij->j", y, y)
    n = z.shape[1]
    return -0.5 * n * _LOG_2PI - 0.5 * logdet - 0.5 * quads


def loglikelihood_dense_reference(
    kernel: CovarianceKernel,
    theta: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    *,
    nugget: float = 0.0,
) -> float:
    """Plain NumPy reference (no tiles) for validation."""
    z = _check_observations(x, z)
    sigma = kernel.covariance_matrix(theta, x, nugget=nugget)
    low = np.linalg.cholesky(sigma)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    y = np.linalg.solve(low, z)
    return -0.5 * len(z) * _LOG_2PI - 0.5 * logdet - 0.5 * float(y @ y)
