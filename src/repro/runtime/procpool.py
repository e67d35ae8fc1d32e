"""Process-parallel execution engine: tile Cholesky beyond the GIL.

The threaded executor (:mod:`repro.runtime.parallel`) parallelizes
only as far as BLAS releases the GIL; this engine runs the *same* task
DAG across persistent **worker processes** over a shared-memory tile
store (:mod:`repro.tile.shm`) — a working single-node analogue of
PaRSEC's distributed owner-computes execution:

* workers are forked/spawned **once** per engine (one per fit when the
  :class:`~repro.core.engine.EvaluationEngine` owns it) and reused by
  every likelihood evaluation; per evaluation the parent ships one
  small config message plus task descriptors — uids and tile handles,
  never payloads or task streams;
* tiles are partitioned 2-D block-cyclic
  (:class:`~repro.runtime.distribution.BlockCyclic2D`) and each task
  executes on the rank owning its output tile; inputs owned by other
  ranks are explicit counted copies
  (:class:`~repro.runtime.comm.CommStats`), cross-checkable against
  the simulator's comm model;
* dispatch reuses the lru-cached plan — dependence counters,
  successor lists, and panel priorities are all functions of ``nt``
  alone — and releases ready tasks in per-owner message batches;
* per-worker BLAS threads are clamped against oversubscription
  (:mod:`repro.runtime.blasclamp`), and the clamp is reported;
* failure semantics match the threaded engine: worker exceptions wrap
  in :class:`~repro.exceptions.SchedulingError` after the pool drains,
  deadlines/cancellation stop dispatch and surface
  :class:`~repro.exceptions.DeadlineExceededError`, seeded chaos keys
  on ``(seed, epoch, uid, attempt)``; a worker killed mid-task raises
  :class:`~repro.exceptions.WorkerLostError` (never a hang), with the
  pool torn down and the store unlinked.

Determinism: identical kernels, identical per-tile dependence order,
byte-exact shared-memory round-trips — results are bit-identical to
the sequential, threaded, and batched engines (pinned by tests).
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import queue as queue_mod
import time
from collections import Counter

from ..exceptions import (
    ChaosError,
    CompressionError,
    ConfigurationError,
    DeadlineExceededError,
    NotPositiveDefiniteError,
    NumericalCorruptionError,
    SchedulingError,
    ShapeError,
    WorkerLostError,
)
from ..obs.tracer import current_span_id
from ..tile.cholesky import CholeskyStats
from ..tile.matrix import TileMatrix
from ..tile.shm import SharedTileStore
from .blasclamp import blas_clamp_for, clamp_blas_threads
from .comm import CommStats
from .distribution import BlockCyclic2D
from .parallel import ParallelRunReport
from .procworker import worker_main
from .trace import ExecutionTrace, TaskRecord

__all__ = ["ProcessPoolEngine"]

#: Result-queue poll interval: long enough to stay off the CPU, short
#: enough that deadlines and dead workers are noticed promptly.
_POLL_S = 0.02

#: Hard ceiling on waiting for an in-flight task with every worker
#: alive — a backstop against a silently wedged worker, far above any
#: real kernel time.
_STALL_S = float(os.environ.get("REPRO_PROC_STALL_S", "600"))

_EXC_TYPES: dict[str, type] = {
    "NotPositiveDefiniteError": NotPositiveDefiniteError,
    "NumericalCorruptionError": NumericalCorruptionError,
    "ChaosError": ChaosError,
    "CompressionError": CompressionError,
    "ShapeError": ShapeError,
    "SchedulingError": SchedulingError,
}


def _rebuild_exc(info: dict) -> BaseException:
    """The worker-side exception, reconstructed parent-side so callers
    (NPD unwrapping, retry classification in tests) see the same types
    as with the threaded engine."""
    exc_type = _EXC_TYPES.get(info["type"])
    if exc_type in (NotPositiveDefiniteError, NumericalCorruptionError):
        return exc_type(info["message"], tile_index=info["tile_index"])
    if exc_type is ChaosError:
        return ChaosError(info["message"], site=info["site"])
    if exc_type is not None:
        return exc_type(info["message"])
    return RuntimeError(f"{info['type']}: {info['message']}")


class ProcessPoolEngine:
    """Persistent owner-computes worker pool for tile Cholesky.

    Parameters
    ----------
    workers:
        Process count; the 2-D block-cyclic grid defaults to the
        squarest ``p x q`` factorization of it.
    grid:
        Explicit :class:`~repro.runtime.distribution.BlockCyclic2D`
        override (its ``nodes`` must equal ``workers``).
    start_method:
        ``"fork"`` (default where available — workers inherit the
        loaded BLAS and start in milliseconds) or ``"spawn"``
        (portable; the env-based BLAS clamp applies at library load).
        Also settable via ``REPRO_PROC_START_METHOD``.

    The pool starts lazily on the first :meth:`execute` and survives
    across evaluations; :meth:`close` (or context-manager exit) stops
    the workers.  After a :class:`~repro.exceptions.WorkerLostError`
    the pool is torn down but the engine stays usable — the next
    :meth:`execute` starts a fresh pool.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        grid: BlockCyclic2D | None = None,
        start_method: str | None = None,
    ):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = int(workers)
        self.grid = BlockCyclic2D.squarest(workers) if grid is None else grid
        if self.grid.nodes != self.workers:
            raise ConfigurationError(
                f"grid has {self.grid.nodes} nodes for {self.workers} workers"
            )
        if start_method is None:
            start_method = os.environ.get("REPRO_PROC_START_METHOD")
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self.start_method = start_method
        self.blas_clamp = blas_clamp_for(self.workers)
        self._ctx = mp.get_context(start_method)
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> None:
        """Spawn the workers and wait for their ready handshakes."""
        if self._procs:
            return
        ctx = self._ctx
        self._result_q = ctx.Queue()
        self._task_qs = [ctx.Queue() for _ in range(self.workers)]
        init = {"blas_threads": self.blas_clamp if self.workers > 1 else 0}
        # Clamp while creating processes: spawned children read the
        # clamped env at BLAS load time; the clamp restores on exit.
        with clamp_blas_threads(self.workers):
            for rank in range(self.workers):
                proc = ctx.Process(
                    target=worker_main,
                    args=(rank, self._task_qs[rank], self._result_q, init),
                    name=f"repro-worker-{rank}",
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        pending = set(range(self.workers))
        t_end = time.monotonic() + 120.0
        while pending:
            try:
                msg = self._result_q.get(timeout=_POLL_S)
            except queue_mod.Empty:
                dead = self._dead_worker()
                if dead is not None:
                    self._teardown()
                    raise WorkerLostError(
                        f"worker {dead[0]} died during startup "
                        f"(exitcode {dead[1]})",
                        rank=dead[0], exitcode=dead[1],
                    )
                if time.monotonic() > t_end:  # pragma: no cover
                    self._teardown()
                    raise SchedulingError("worker pool failed to start")
                continue
            if msg[0] == "ready":
                pending.discard(msg[1])

    def close(self) -> None:
        """Stop the workers and release the queues (idempotent)."""
        if not self._procs:
            return
        for q in self._task_qs:
            try:
                q.put(("stop",))
            except (ValueError, OSError):  # pragma: no cover - closed
                continue
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._teardown()

    def _teardown(self) -> None:
        """Terminate anything still alive and drop queue resources."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []
        for q in [*self._task_qs, self._result_q]:
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except (ValueError, OSError):  # pragma: no cover
                continue  # already closed
        self._task_qs = []
        self._result_q = None

    def __enter__(self) -> "ProcessPoolEngine":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            return  # interpreter teardown; daemon workers die with us

    def _dead_worker(self) -> tuple[int, int] | None:
        for rank, proc in enumerate(self._procs):
            if not proc.is_alive():
                return rank, proc.exitcode
        return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        matrix: TileMatrix,
        *,
        fp16_accumulate_fp32: bool = True,
        deadline=None,
        cancel=None,
        retry=None,
        chaos=None,
        check_finite: bool | None = None,
        batch: bool = False,
        telemetry=None,
        collect_trace: bool | None = None,
    ) -> tuple[TileMatrix, ParallelRunReport]:
        """Factor ``matrix`` in place across the worker processes.

        Same contract as
        :func:`~repro.runtime.parallel.execute_cholesky_parallel`:
        raises :class:`~repro.exceptions.SchedulingError` on task
        failure (first worker exception chained; a dead worker raises
        the :class:`~repro.exceptions.WorkerLostError` subclass) and
        :class:`~repro.exceptions.DeadlineExceededError` on
        deadline/cancellation — in every case only after in-flight
        tasks have drained (or the pool has been torn down) and the
        shared-memory store has been unlinked.  ``batch=True`` lets
        workers run homogeneous groups of one dispatch as stacked BLAS
        calls (dense results bit-identical; ignored under retry/chaos,
        which need per-task semantics).

        ``telemetry`` merges the workers' shipped span timings into
        the parent tracer (worker ``rank`` appears as process
        ``rank + 1``), giving one cross-process timeline;
        ``collect_trace`` attaches the wall-clock
        :class:`~repro.runtime.trace.ExecutionTrace` (``node`` =
        worker rank) to the report.  Workers and parent share the
        ``time.perf_counter`` epoch (CLOCK_MONOTONIC), so no clock
        translation happens anywhere.
        """
        self.start()
        spans_on = telemetry is not None and telemetry.tracer.enabled
        tracing = (
            spans_on if collect_trace is None else bool(collect_trace)
        )
        tracing = tracing or spans_on
        parent_sid = current_span_id() if spans_on else None
        from .batchdispatch import _cholesky_plan

        tasks, indegree0, successors, prio = _cholesky_plan(matrix.nt)
        task_by_uid = {t.uid: t for t in tasks}
        indegree = dict(indegree0)

        if chaos is not None and not hasattr(chaos, "perturb_task"):
            from ..resilience.chaos import ChaosInjector

            chaos = ChaosInjector(chaos)
        epoch = chaos.next_epoch() if chaos is not None else 0
        if check_finite is None:
            check_finite = retry is not None or chaos is not None

        store = SharedTileStore(matrix.layout)
        t0 = time.perf_counter()
        try:
            handles = store.put_matrix(matrix)
            cfg = {
                "nt": matrix.nt,
                "fp16_accumulate_fp32": fp16_accumulate_fp32,
                "epoch": epoch,
                "check_finite": check_finite,
                "chaos": None if chaos is None else chaos.config,
                "retry": retry,
                "grid": self.grid,
                "batch": batch,
                "trace": tracing,
            }
            for q in self._task_qs:
                q.put(("eval", cfg))

            ready = [
                (-prio[uid], uid) for uid, deg in indegree.items() if deg == 0
            ]
            heapq.heapify(ready)
            remaining = len(tasks)
            in_flight: dict[int, int] = {}
            errors: list[BaseException] = []
            draining = False
            cancel_reason = ""
            comm = CommStats()
            opcounts: Counter[str] = Counter()
            stats = CholeskyStats()
            retries = 0
            chaos_delta = [0, 0, 0]
            max_busy = 0
            last_progress = time.monotonic()
            # Merged worker timeline: (uid, op, rank, tile, start_abs,
            # end_abs, attempts, batched).
            timeline: list[tuple] = []

            def flush() -> None:
                """Dispatch every ready task to its owner, one message
                per owner (the tasks of one flush are pairwise
                independent: all were simultaneously ready)."""
                nonlocal max_busy
                if draining:
                    return
                buckets: dict[int, list] = {}
                while ready:
                    _, uid = heapq.heappop(ready)
                    task = task_by_uid[uid]
                    rank = self.grid.owner(*task.output)
                    buckets.setdefault(rank, []).append((
                        uid, handles[task.output],
                        tuple(handles[key] for key in task.inputs),
                    ))
                    in_flight[uid] = rank
                for rank, items in buckets.items():
                    self._task_qs[rank].put(("run", items))
                max_busy = max(max_busy, len(set(in_flight.values())))

            def start_drain(reason: str) -> None:
                nonlocal draining, cancel_reason
                if not draining:
                    draining = True
                    cancel_reason = cancel_reason or reason

            flush()
            while True:
                if remaining == 0:
                    break
                if draining and not in_flight:
                    break
                if not in_flight:  # pragma: no cover - DAG invariant
                    raise SchedulingError(
                        f"stalled with {remaining} tasks unreached"
                    )
                if deadline is not None and deadline.expired:
                    start_drain(
                        f"deadline of {deadline.budget_s:.3g}s exceeded"
                    )
                if cancel is not None and cancel.cancelled:
                    start_drain(cancel.reason or "cancelled")
                try:
                    msg = self._result_q.get(timeout=_POLL_S)
                except queue_mod.Empty:
                    dead = self._dead_worker()
                    if dead is not None:
                        self._teardown()
                        raise WorkerLostError(
                            f"worker {dead[0]} died mid-factorization "
                            f"(exitcode {dead[1]}) with "
                            f"{len(in_flight)} tasks in flight",
                            rank=dead[0], exitcode=dead[1],
                        )
                    if time.monotonic() - last_progress > _STALL_S:
                        self._teardown()  # pragma: no cover - backstop
                        raise WorkerLostError(
                            f"no progress for {_STALL_S:.0f}s with "
                            f"{len(in_flight)} tasks in flight"
                        )
                    continue
                last_progress = time.monotonic()
                kind = msg[0]
                if kind == "ok":
                    _, rank, uid, handle, info = msg
                    in_flight.pop(uid, None)
                    remaining -= 1
                    handles[handle.index] = handle
                    store.handles[handle.index] = handle
                    opcounts[info["op"]] += 1
                    span = info.get("span")
                    if tracing and span is not None:
                        timeline.append((
                            uid, info["op"], rank, handle.index,
                            span[0], span[1], span[2], span[3],
                        ))
                    comm.remote_reads += info["remote_reads"]
                    comm.remote_bytes += info["remote_bytes"]
                    comm.local_reads += info["local_reads"]
                    retries += info["retries"]
                    for i in range(3):
                        chaos_delta[i] += info["chaos"][i]
                    if info["densified"]:
                        stats.densified_tiles += 1
                    if info["lr_rank"] is not None:
                        stats.max_rank_seen = max(
                            stats.max_rank_seen, info["lr_rank"]
                        )
                    for succ in successors[uid]:
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            heapq.heappush(ready, (-prio[succ], succ))
                    flush()
                elif kind == "err":
                    _, _, uid, info = msg
                    in_flight.pop(uid, None)
                    remaining -= 1
                    retries += info.get("retries", 0)
                    for i in range(3):
                        chaos_delta[i] += info.get("chaos", (0, 0, 0))[i]
                    errors.append(_rebuild_exc(info))
                    start_drain(f"task {uid} failed")
                # "ready" handshakes from a restart are ignored here

            wall = time.perf_counter() - t0
            if chaos is not None:
                with chaos._lock:
                    chaos.stats.corrupted_tiles += chaos_delta[0]
                    chaos.stats.failed_tasks += chaos_delta[1]
                    chaos.stats.delayed_tasks += chaos_delta[2]
            if errors:
                first = errors[0]
                raise SchedulingError(
                    f"process execution failed: {first!r}"
                ) from first
            if draining:
                raise DeadlineExceededError(
                    f"execution cancelled after {wall:.3g}s: "
                    f"{cancel_reason}",
                    budget_s=None if deadline is None else deadline.budget_s,
                    where="ProcessPoolEngine.execute",
                )
            store.read_into(matrix)
            stats.retries = retries
            stats.count_batch(opcounts)
            trace_obj = None
            if tracing and timeline:
                timeline.sort(key=lambda r: (r[4], r[0]))
                trace_obj = ExecutionTrace(
                    records=[
                        TaskRecord(
                            uid=uid, op=op, node=rank, core=rank,
                            start=start - t0, end=end - t0,
                            attempts=attempts,
                        )
                        for uid, op, rank, _tile, start, end,
                        attempts, _batched in timeline
                    ],
                    nodes=self.workers, cores_per_node=1,
                )
                if spans_on:
                    add_span = telemetry.tracer.add_span
                    for (uid, op, rank, tile, start, end, attempts,
                         batched) in timeline:
                        add_span(
                            op, start, end, parent=parent_sid,
                            pid=rank + 1, tid=rank,
                            attrs={"uid": uid, "tile": list(tile),
                                   "worker": rank,
                                   "attempt": attempts,
                                   "batched": batched},
                        )
            report = ParallelRunReport(
                workers=self.workers,
                tasks=len(tasks),
                wall_time_s=wall,
                max_concurrency=max_busy,
                stats=stats,
                retries=retries,
                chaos_events=sum(chaos_delta),
                blas_clamp=self.blas_clamp if self.workers > 1 else None,
                comm=comm,
                trace=trace_obj,
            )
            return matrix, report
        finally:
            store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "started" if self.started else "idle"
        return (
            f"ProcessPoolEngine(workers={self.workers}, "
            f"grid={self.grid.p}x{self.grid.q}, "
            f"start_method={self.start_method!r}, {state})"
        )
