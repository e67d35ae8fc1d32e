"""Threaded parallel execution engine.

The discrete-event simulator predicts schedules; this engine *runs*
them: a worker pool consumes ready tasks from a priority queue,
dependence counters release successors as results land, and each tile
kernel executes for real.  NumPy/BLAS releases the GIL inside the
heavy kernels, so on a multi-core host the DAG parallelism is genuine
— a working single-node analogue of PaRSEC's shared-memory scheduling.

Determinism note: tiles are replaced atomically under a lock and the
dependence structure serializes conflicting accesses, so results are
bit-identical to the sequential engine for dense FP64 and
representation-identical for approximate variants.

Resilience (all opt-in, no-op when the knobs are ``None``):

* any worker failure — a kernel exception *or* a dispatch bug —
  records the first error, poisons the queue through a
  :class:`~repro.resilience.deadline.CancellationToken`, wakes every
  waiter, and lets the pool drain; the caller gets one exception and
  zero leaked threads instead of a deadlock;
* a ``deadline`` (or external ``cancel`` token) is polled at every
  dispatch boundary: in-flight kernels finish, nothing new starts,
  and :class:`~repro.exceptions.DeadlineExceededError` surfaces after
  the join;
* a ``retry`` policy re-runs transiently failing tasks (injected
  chaos, non-finite kernel output) with seeded backoff before the
  failure escalates;
* a ``chaos`` injector corrupts/delays/fails tasks deterministically
  per ``(seed, epoch, uid, attempt)`` — thread-schedule independent.
"""

from __future__ import annotations

import heapq
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import time

import networkx as nx
import numpy as np

from ..exceptions import (
    DeadlineExceededError,
    NumericalCorruptionError,
    SchedulingError,
)
from ..obs.tracer import current_span_id
from ..tile import kernels as K
from ..tile.cholesky import CholeskyStats
from ..tile.matrix import TileMatrix
from ..tile.tile import LowRankTile, Tile
from .blasclamp import clamp_blas_threads
from .comm import CommStats
from .scheduler import panel_priorities
from .task import Task
from .trace import ExecutionTrace, TaskRecord

__all__ = ["ParallelRunReport", "execute_cholesky_parallel"]


def _make_lock():
    """Executor-internal lock constructor.

    The concurrency sanitizer (:mod:`repro.analysis.sanitize`)
    monkeypatches this seam to observe the dispatch lock's
    acquire/release edges; the plain path pays one extra call per run.
    """
    return threading.Lock()


@dataclass
class ParallelRunReport:
    """Outcome of a threaded run."""

    workers: int
    tasks: int
    wall_time_s: float
    max_concurrency: int = 1
    errors: list[str] = field(default_factory=list)
    #: Kernel counts / densification tallies of the run, matching what
    #: the sequential :func:`~repro.tile.cholesky.tile_cholesky` reports.
    stats: CholeskyStats = field(default_factory=CholeskyStats)
    #: Transient task failures absorbed by the retry policy.
    retries: int = 0
    #: Chaos injections that fired during this run (0 without chaos).
    chaos_events: int = 0
    #: Homogeneous groups executed as single stacked-BLAS calls (only
    #: non-zero for :func:`~repro.runtime.batchdispatch.execute_cholesky_batched`).
    batches: int = 0
    #: Tasks that ran inside a batched group.
    batched_tasks: int = 0
    #: Tasks that fell back to the per-tile kernels (low-rank or
    #: otherwise non-batchable groups).
    fallback_tasks: int = 0
    #: Per-worker BLAS thread clamp applied for this run (``None`` when
    #: no clamp was needed — a single worker keeps the library default).
    blas_clamp: int | None = None
    #: Measured cross-owner tile traffic (process backend only).
    comm: CommStats | None = None
    #: Real wall-clock task timeline (monotonic start/end relative to
    #: run start, ``node``/``core`` = worker slot) — same shape the
    #: simulator emits, so :func:`repro.runtime.gantt.render_gantt`
    #: renders real runs too.  Only populated when tracing was
    #: requested; ``None`` keeps the untraced path free.
    trace: "ExecutionTrace | None" = None


def _tile_is_finite(tile: Tile) -> bool:
    """Cheap non-finite scan of a task's output representation."""
    if isinstance(tile, LowRankTile):
        return bool(
            np.isfinite(tile.u).all() and np.isfinite(tile.v).all()
        )
    return bool(np.isfinite(tile.data).all())


def execute_cholesky_parallel(
    matrix: TileMatrix,
    *,
    workers: int = 4,
    fp16_accumulate_fp32: bool = True,
    tasks: list[Task] | None = None,
    dag: nx.DiGraph | None = None,
    deadline=None,
    cancel=None,
    retry=None,
    chaos=None,
    check_finite: bool | None = None,
    telemetry=None,
    collect_trace: bool | None = None,
) -> tuple[TileMatrix, ParallelRunReport]:
    """Factor ``matrix`` in place using a thread pool over the task DAG.

    Raises :class:`~repro.exceptions.SchedulingError` if any task
    failed (the first underlying exception is chained), or
    :class:`~repro.exceptions.DeadlineExceededError` directly when the
    ``deadline`` expired / the ``cancel`` token was cancelled — in
    both cases only after every worker has returned.

    ``retry`` (a :class:`~repro.resilience.retry.RetryPolicy`) retries
    transiently failing tasks; ``chaos`` (a
    :class:`~repro.resilience.chaos.ChaosConfig` or
    :class:`~repro.resilience.chaos.ChaosInjector`) opts into seeded
    fault injection.  ``check_finite`` scans each task's output for
    NaN/inf, raising :class:`~repro.exceptions.NumericalCorruptionError`
    (default: enabled exactly when ``retry`` or ``chaos`` is set, so
    the plain path pays nothing).

    ``telemetry`` (a :class:`~repro.obs.Telemetry`) records one span
    per executed task, parented to the caller's enclosing span;
    ``collect_trace`` forces the wall-clock
    :class:`~repro.runtime.trace.ExecutionTrace` on the report even
    without a telemetry bundle (default: collect exactly when an
    enabled telemetry is passed).  Tasks buffer their timing
    per-worker and flush once at worker exit, so the hot loop takes no
    extra locks; with both off, the execution path is unchanged.
    """
    if workers < 1:
        raise SchedulingError("need at least one worker")
    spans_on = telemetry is not None and telemetry.tracer.enabled
    tracing = spans_on if collect_trace is None else bool(collect_trace)
    tracing = tracing or spans_on
    parent_sid = current_span_id() if spans_on else None
    if tasks is None and dag is None:
        # The default path of every likelihood evaluation: dependence
        # structure AND priority map come from the lru-cached plan
        # (both are functions of nt alone — theta-independent), so one
        # MLE fit pays the analysis once, not once per evaluation.
        from .batchdispatch import _cholesky_plan

        cached_tasks, cached_indegree, successors, prio = _cholesky_plan(
            matrix.nt
        )
        tasks = list(cached_tasks)
        indegree = dict(cached_indegree)
    elif dag is not None:
        if tasks is None:
            from .taskgraph import cholesky_tasks

            tasks = list(cholesky_tasks(matrix.nt))
        indegree = {uid: dag.in_degree(uid) for uid in dag.nodes}
        successors = {uid: list(dag.successors(uid)) for uid in dag.nodes}
        prio = panel_priorities(dag)
    else:
        from .batchdispatch import _dependences
        from .scheduler import panel_priorities_tasks

        indegree, successors = _dependences(tuple(tasks))
        prio = panel_priorities_tasks(tasks)
    task_by_uid = {t.uid: t for t in tasks}

    if chaos is not None and not hasattr(chaos, "perturb_task"):
        from ..resilience.chaos import ChaosInjector

        chaos = ChaosInjector(chaos)
    epoch = chaos.next_epoch() if chaos is not None else 0
    if check_finite is None:
        check_finite = retry is not None or chaos is not None
    if cancel is None:
        from ..resilience.deadline import CancellationToken

        cancel = CancellationToken()

    lock = _make_lock()
    ready: list[tuple[float, int]] = [
        (-prio[uid], uid) for uid, deg in indegree.items() if deg == 0
    ]
    heapq.heapify(ready)
    remaining = len(tasks)
    done = threading.Condition(lock)
    errors: list[BaseException] = []
    running = 0
    max_running = 0
    retries = 0
    chaos_before = chaos.stats.events if chaos is not None else 0

    stats = CholeskyStats()

    def compute_task(task: Task, attempt: int) -> Tile:
        """One attempt at ``task``: chaos perturbation, the kernel,
        chaos corruption, and the finite check — but no state update,
        so a failed attempt is retryable."""
        if chaos is not None:
            chaos.perturb_task(epoch, task.uid, attempt)
        if task.op == "potrf":
            out = K.potrf(matrix.get(*task.output), index=task.output)
        elif task.op == "trsm":
            (lkk,) = task.inputs
            out = K.trsm(
                matrix.get(*lkk), matrix.get(*task.output),
                fp16_accumulate_fp32=fp16_accumulate_fp32,
            )
        elif task.op == "syrk":
            (amk,) = task.inputs
            out = K.syrk(
                matrix.get(*amk), matrix.get(*task.output),
                fp16_accumulate_fp32=fp16_accumulate_fp32,
            )
        else:
            amk, ank = task.inputs
            out = K.gemm(
                matrix.get(*amk), matrix.get(*ank),
                matrix.get(*task.output),
                fp16_accumulate_fp32=fp16_accumulate_fp32,
            )
        if chaos is not None:
            out = chaos.corrupt_tile(out, epoch, task.uid, attempt)
        if check_finite and not _tile_is_finite(out):
            raise NumericalCorruptionError(
                f"task {task.op}@{task.output} produced non-finite "
                f"values (attempt {attempt})",
                tile_index=task.output,
            )
        return out

    def run_task(task: Task) -> int:
        nonlocal retries
        attempts = 1
        if retry is None:
            out = compute_task(task, 1)
        else:

            def note_retry(attempt: int, exc: BaseException) -> None:
                nonlocal retries, attempts
                attempts += 1
                with lock:
                    retries += 1
                    stats.retries += 1

            out = retry.call(
                lambda attempt: compute_task(task, attempt),
                site=task.uid, on_retry=note_retry,
            )
        if task.op == "gemm":
            was_lr = matrix.get(*task.output).is_low_rank
            with lock:
                if was_lr and not out.is_low_rank:
                    stats.densified_tiles += 1
                if out.is_low_rank:
                    stats.max_rank_seen = max(stats.max_rank_seen, out.rank)
        matrix.set(*task.output, out)
        return attempts

    # Flushed per-worker task timings: (uid, op, tile, slot, start_abs,
    # end_abs, attempts).  Absolute perf_counter values — the trace
    # rebases to t0 and the tracer keeps absolutes.
    timeline: list[tuple] = []

    def worker_loop(slot: int = 0) -> None:
        nonlocal remaining, running, max_running
        dispatched = False
        # Per-worker tally, flushed once under the lock at worker exit
        # (Counter bulk update instead of one locked dict write per
        # task).
        tally: Counter[str] = Counter()
        # Per-worker trace buffer, flushed with the tally — the hot
        # loop never touches a shared structure for telemetry.
        recs: list[tuple] = []
        try:
            while True:
                with done:
                    while (
                        ready or remaining > 0
                    ) and not errors and not cancel.cancelled:
                        if deadline is not None and deadline.expired:
                            cancel.cancel(
                                f"deadline of {deadline.budget_s:.3g}s "
                                "exceeded"
                            )
                            break
                        if ready:
                            break
                        if remaining == 0:
                            break
                        # Bounded wait so deadline expiry is noticed
                        # even when no task ever completes.
                        done.wait(
                            timeout=None if deadline is None
                            else max(min(deadline.remaining(), 0.05), 0.001)
                        )
                    if remaining == 0 or errors or cancel.cancelled:
                        done.notify_all()
                        return
                    _, uid = heapq.heappop(ready)
                    running += 1
                    dispatched = True
                    max_running = max(max_running, running)
                task = task_by_uid[uid]
                if tracing:
                    t_start = time.perf_counter()
                    attempts = run_task(task)
                    recs.append((
                        uid, task.op, task.output, slot, t_start,
                        time.perf_counter(), attempts,
                    ))
                else:
                    run_task(task)
                tally[task.op] += 1
                with done:
                    dispatched = False
                    running -= 1
                    remaining -= 1
                    for succ in successors[uid]:
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            heapq.heappush(ready, (-prio[succ], succ))
                    done.notify_all()
        except BaseException as exc:
            # Poison the queue: record the first error, wake every
            # waiter, stop all dispatching.  This covers kernel
            # failures AND dispatch bookkeeping bugs — either way the
            # pool drains instead of deadlocking on `done.wait()`.
            with done:
                errors.append(exc)
                if dispatched:
                    running -= 1
                cancel.cancel(f"worker failed: {exc!r}")
                done.notify_all()
        finally:
            if tally or recs:
                with lock:
                    stats.count_batch(tally)
                    timeline.extend(recs)

    t0 = time.perf_counter()
    # Oversubscription guard: each worker thread issues BLAS calls, so
    # the per-call BLAS thread count is clamped to cores/workers for
    # the duration of the pool (restored on exit, no-op at workers=1).
    with clamp_blas_threads(workers) as blas_clamp:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(worker_loop, slot) for slot in range(workers)
            ]
            for f in futures:
                f.result()
    wall = time.perf_counter() - t0

    if errors:
        first = errors[0]
        if isinstance(first, DeadlineExceededError):
            raise first
        raise SchedulingError(
            f"parallel execution failed: {first!r}"
        ) from first
    if cancel.cancelled:
        # Deadline expiry / external cancellation noticed at a
        # dispatch boundary: the pool has drained, no task raised.
        raise DeadlineExceededError(
            f"execution cancelled after {wall:.3g}s: {cancel.reason}",
            budget_s=None if deadline is None else deadline.budget_s,
            where="execute_cholesky_parallel",
        )
    if remaining != 0:  # pragma: no cover - invariant
        raise SchedulingError(f"{remaining} tasks never executed")
    trace_obj = None
    if tracing and timeline:
        timeline.sort(key=lambda r: r[4])
        trace_obj = ExecutionTrace(
            records=[
                TaskRecord(
                    uid=uid, op=op, node=slot, core=slot,
                    start=start - t0, end=end - t0, attempts=attempts,
                )
                for uid, op, _tile, slot, start, end, attempts in timeline
            ],
            nodes=workers, cores_per_node=1,
        )
        if spans_on:
            add_span = telemetry.tracer.add_span
            for uid, op, tile, slot, start, end, attempts in timeline:
                add_span(
                    op, start, end, parent=parent_sid, tid=slot,
                    attrs={"uid": uid, "tile": list(tile),
                           "worker": slot, "attempt": attempts},
                )
    report = ParallelRunReport(
        workers=workers,
        tasks=len(tasks),
        wall_time_s=wall,
        max_concurrency=max_running,
        stats=stats,
        retries=retries,
        chaos_events=(
            chaos.stats.events - chaos_before if chaos is not None else 0
        ),
        blas_clamp=blas_clamp,
        trace=trace_obj,
    )
    return matrix, report
