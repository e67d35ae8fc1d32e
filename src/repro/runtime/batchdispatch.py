"""Homogeneous ready-set dispatch: wave-based batched DAG execution.

The heap executor (:mod:`repro.runtime.parallel`) pops one task at a
time and pays Python dispatch per tile.  This executor instead drains
the *entire ready set* each step — tasks that are simultaneously ready
share no DAG edge, so they are mutually independent — groups it by a
homogeneity key, and executes each group as **one** stacked BLAS call
from :mod:`repro.tile.batch`:

======  =============================================================
group   key
======  =============================================================
POTRF   ``("potrf", tile shape, precision)``
TRSM    ``("trsm", L index, tile shape, precision)`` — one wide-RHS
        solve needs a *shared* triangular factor, so the diagonal
        tile's index joins the key
SYRK    ``("syrk", A shape, precision of C)``
GEMM    ``("gemm", A shape, B shape, precision of C)``
======  =============================================================

A task joins a group only when every operand is dense and the group's
compute dtype is not binary16 (the emulated HGEMM mode); everything
else — low-rank TLR tiles, mixed structures after densification —
falls back to the per-tile kernels in deterministic uid order.

Determinism: waves are a function of the DAG alone, groups are built
in sorted-uid order, large groups are chunked by *slice* (stacked
gufuncs are slice-independent), and each tile's sequence of updates is
fully ordered by its DAG edges — so the accumulate order within every
tile matches the sequential reference exactly, and dense-FP64 results
are bit-identical to both other executors (pinned by tests).

This executor intentionally supports no deadlines, retry, or chaos —
:func:`~repro.core.likelihood._factor_planned` routes to the resilient
heap executor whenever those knobs are set.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from ..exceptions import NotPositiveDefiniteError, SchedulingError
from ..obs.tracer import current_span_id
from ..tile import kernels as K
from ..tile.batch import (
    ScratchPool,
    batched_gemm,
    batched_potrf,
    batched_syrk,
    batched_trsm,
)
from ..tile.cholesky import CholeskyStats
from ..tile.matrix import TileMatrix
from ..tile.precision import Precision
from . import parallel as _parallel
from .blasclamp import clamp_blas_threads
from .parallel import ParallelRunReport
from .task import Task
from .trace import ExecutionTrace, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["execute_cholesky_batched"]

#: Below this group size a stacked call buys nothing over the per-tile
#: kernel; singletons run through :mod:`repro.tile.kernels` directly.
_MIN_BATCH = 2


def _dependences(
    tasks: tuple[Task, ...],
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Indegrees and successor lists of a sequential task stream.

    Same RAW/WAW/WAR analysis as :func:`repro.runtime.dag.build_dag`,
    but producing plain dicts — the wave loop only ever needs these
    two, and a :class:`networkx.DiGraph` costs more to build than a
    whole factorization panel takes to run.
    """
    last_writer: dict[tuple[int, int], int] = {}
    readers_since_write: dict[tuple[int, int], list[int]] = {}
    indegree: dict[int, int] = {}
    successors: dict[int, list[int]] = {}
    for task in tasks:
        deps: set[int] = set()
        for tile in task.tiles:
            writer = last_writer.get(tile)
            if writer is not None:
                deps.add(writer)
        for reader in readers_since_write.get(task.output, ()):
            deps.add(reader)
        deps.discard(task.uid)
        successors[task.uid] = []
        indegree[task.uid] = len(deps)
        for dep in deps:
            successors[dep].append(task.uid)
        last_writer[task.output] = task.uid
        readers_since_write[task.output] = []
        for tile in task.inputs:
            readers_since_write.setdefault(tile, []).append(task.uid)
    return indegree, successors


@lru_cache(maxsize=8)
def _cholesky_plan(
    nt: int,
) -> tuple[
    tuple[Task, ...],
    dict[int, int],
    dict[int, list[int]],
    dict[int, float],
]:
    """Task stream + dependence structure + panel priorities for an
    ``nt x nt`` Cholesky.

    Everything here is a function of ``nt`` alone (theta-independent),
    so the evaluations of one MLE fit all share it; callers must *copy*
    the indegree dict before mutating (the successor lists and the
    priority map are read-only in the executors).
    """
    from .scheduler import panel_priorities_tasks
    from .taskgraph import cholesky_tasks

    tasks = tuple(cholesky_tasks(nt))
    indegree, successors = _dependences(tasks)
    return tasks, indegree, successors, panel_priorities_tasks(tasks)


@dataclass(frozen=True)
class _Group:
    """One homogeneous batch: the tasks and the batched kernel to run."""

    op: str
    tasks: tuple[Task, ...]


def _group_key(task: Task, tiles: dict[tuple[int, int], object], f16_ok: bool):
    """Homogeneity key for ``task``, or ``None`` when it must run
    per-tile (low-rank operand / binary16 compute / HGEMM mode)."""
    out = tiles[task.output]
    if out.is_low_rank:
        return None
    op = task.op
    if op == "potrf":
        # potrf always computes in compute_dtype(precision) (fp16 ->
        # f32), so it is always batchable when dense.
        return ("potrf", out.shape, out.precision)
    if not f16_ok and out.precision is Precision.FP16:
        # compute_dtype would be binary16: the emulated pure-HGEMM mode.
        return None
    a = tiles[task.inputs[0]]
    if a.is_low_rank:
        return None
    if op == "trsm":
        return ("trsm", task.inputs[0], out.shape, out.precision)
    if op == "syrk":
        return ("syrk", a.shape, a.precision, out.precision)
    b = tiles[task.inputs[1]]
    if b.is_low_rank:
        return None
    return ("gemm", a.shape, a.precision, b.shape, b.precision, out.precision)


def execute_cholesky_batched(
    matrix: TileMatrix,
    *,
    workers: int = 1,
    fp16_accumulate_fp32: bool = True,
    tasks: list[Task] | None = None,
    dag: nx.DiGraph | None = None,
    pool: ScratchPool | None = None,
    min_batch: int = _MIN_BATCH,
    clamp: bool = True,
    telemetry=None,
    collect_trace: bool | None = None,
) -> tuple[TileMatrix, ParallelRunReport]:
    """Factor ``matrix`` in place by draining the DAG in waves of
    homogeneous batched kernel calls.

    ``workers > 1`` chunks each wave's groups (and large groups by
    slice) across a thread pool; results are identical to ``workers=1``
    because tasks within a wave are mutually independent and stacked
    gufuncs are slice-independent.  The pool is sized to
    ``min(workers, physical cores)`` — oversubscribed dispatch threads
    only add overhead around stacked calls, and since chunking never
    changes results, clamping cannot either.  ``pool`` is the
    scratch-buffer pool (fresh per call when ``None``); pass one in to
    reuse buffers across the evaluations of a fit.

    Raises :class:`~repro.exceptions.NotPositiveDefiniteError` directly
    on an indefinite diagonal tile (same contract as the sequential
    reference) and wraps any other kernel failure in
    :class:`~repro.exceptions.SchedulingError`.

    ``telemetry`` records one span per wave with one child span per
    stacked group / scalar fallback; ``collect_trace`` (default: on
    exactly when an enabled telemetry is passed) attaches the
    wall-clock :class:`~repro.runtime.trace.ExecutionTrace` — group
    members share their stacked call's interval — to the report.
    """
    if workers < 1:
        raise SchedulingError("need at least one worker")
    spans_on = telemetry is not None and telemetry.tracer.enabled
    tracing = spans_on if collect_trace is None else bool(collect_trace)
    tracing = tracing or spans_on
    parent_sid = current_span_id() if spans_on else None
    if tasks is None and dag is None:
        cached_tasks, cached_indegree, successors, _ = _cholesky_plan(matrix.nt)
        tasks = list(cached_tasks)
        indegree = dict(cached_indegree)
    elif dag is not None:
        if tasks is None:
            from .taskgraph import cholesky_tasks

            tasks = list(cholesky_tasks(matrix.nt))
        indegree = {uid: dag.in_degree(uid) for uid in dag.nodes}
        successors = {uid: list(dag.successors(uid)) for uid in dag.nodes}
    else:
        indegree, successors = _dependences(tuple(tasks))
    if pool is None:
        pool = ScratchPool()
    task_by_uid = {t.uid: t for t in tasks}
    tiles = matrix._tiles  # hot-loop access; keys come from the task plan
    f16_ok = bool(fp16_accumulate_fp32)
    # Extra dispatch threads beyond the physical cores only add pool
    # overhead around stacked calls; the batched layer sizes itself to
    # the hardware (results are identical either way — see below).
    # ``clamp=False`` keeps the requested width (the concurrency
    # sanitizer uses it to drive real thread interleavings).
    eff_workers = workers
    if clamp:
        eff_workers = max(1, min(workers, os.cpu_count() or 1))

    ready = sorted(uid for uid, deg in indegree.items() if deg == 0)
    remaining = len(tasks)
    stats = CholeskyStats()
    # Guards the LR-gemm stat updates of concurrent per-tile fallbacks
    # (same seam the sanitizer patches in the heap executor).
    stats_lock = _parallel._make_lock()
    batches = 0
    batched_tasks = 0
    fallback_tasks = 0
    max_wave = 0
    # Wall-clock timeline of stacked/scalar calls: one ``(op, tasks,
    # slot, start_abs, end_abs, batched)`` entry per *call* (not per
    # task), appended under ``stats_lock``; dispatch threads map
    # lazily onto small worker-slot ids.
    timeline: list[tuple] = []
    slot_of: dict[int, int] = {}

    def note_call(op, batch, start, end, batched_flag) -> None:
        ident = threading.get_ident()
        with stats_lock:
            slot = slot_of.setdefault(ident, len(slot_of))
            timeline.append((op, batch, slot, start, end, batched_flag))

    def run_single(task: Task) -> None:
        """Per-tile fallback, identical to the heap executor's kernels."""
        if task.op == "potrf":
            out = K.potrf(tiles[task.output], index=task.output)
        elif task.op == "trsm":
            (lkk,) = task.inputs
            out = K.trsm(
                tiles[lkk], tiles[task.output],
                fp16_accumulate_fp32=fp16_accumulate_fp32,
            )
        elif task.op == "syrk":
            (amk,) = task.inputs
            out = K.syrk(
                tiles[amk], tiles[task.output],
                fp16_accumulate_fp32=fp16_accumulate_fp32,
            )
        else:
            amk, ank = task.inputs
            out = K.gemm(
                tiles[amk], tiles[ank], tiles[task.output],
                fp16_accumulate_fp32=fp16_accumulate_fp32,
            )
        if task.op == "gemm":
            was_lr = tiles[task.output].is_low_rank
            with stats_lock:
                if was_lr and not out.is_low_rank:
                    stats.densified_tiles += 1
                if out.is_low_rank:
                    stats.max_rank_seen = max(
                        stats.max_rank_seen, out.rank
                    )
        tiles[task.output] = out

    def run_group(group: _Group) -> None:
        """One stacked call for a whole homogeneous group."""
        op = group.op
        batch = group.tasks
        # Groups are homogeneous by construction (``_group_key``), so the
        # kernels' direct-caller validation is skipped here.
        if op == "potrf":
            outs = batched_potrf(
                [tiles[t.output] for t in batch],
                [t.output for t in batch], pool=pool, validate=False,
            )
        elif op == "trsm":
            outs = batched_trsm(
                tiles[batch[0].inputs[0]],
                [tiles[t.output] for t in batch],
                fp16_accumulate_fp32=fp16_accumulate_fp32, pool=pool,
                validate=False,
            )
        elif op == "syrk":
            outs = batched_syrk(
                [tiles[t.inputs[0]] for t in batch],
                [tiles[t.output] for t in batch],
                fp16_accumulate_fp32=fp16_accumulate_fp32, pool=pool,
                validate=False,
            )
        else:
            outs = batched_gemm(
                [tiles[t.inputs[0]] for t in batch],
                [tiles[t.inputs[1]] for t in batch],
                [tiles[t.output] for t in batch],
                fp16_accumulate_fp32=fp16_accumulate_fp32, pool=pool,
                validate=False,
            )
        for task, out in zip(batch, outs):
            tiles[task.output] = out

    def traced_single(task: Task) -> None:
        start = time.perf_counter()
        run_single(task)
        note_call(task.op, (task,), start, time.perf_counter(), False)

    def traced_group(group: _Group) -> None:
        start = time.perf_counter()
        run_group(group)
        note_call(group.op, group.tasks, start, time.perf_counter(), True)

    # The untraced path dispatches the original closures unchanged.
    exec_single = traced_single if tracing else run_single
    exec_group = traced_group if tracing else run_group

    def chunk_group(group: _Group, nchunks: int) -> list[_Group]:
        """Split a large group into slice chunks for worker-level
        parallelism; stacked gufuncs are slice-independent, so the
        per-tile results do not change."""
        batch = group.tasks
        if nchunks <= 1 or len(batch) < 2 * min_batch:
            return [group]
        size = max(min_batch, (len(batch) + nchunks - 1) // nchunks)
        return [
            _Group(group.op, batch[i:i + size])
            for i in range(0, len(batch), size)
        ]

    t0 = time.perf_counter()
    # Oversubscription guard: eff_workers dispatch threads each issuing
    # BLAS calls must share the physical cores (restored on exit).
    clamp_cm = clamp_blas_threads(eff_workers)
    blas_clamp = clamp_cm.__enter__()
    executor = (
        ThreadPoolExecutor(max_workers=eff_workers)
        if eff_workers > 1 else None
    )
    wave_index = 0
    try:
        while remaining:
            if not ready:  # pragma: no cover - DAG invariant
                raise SchedulingError(
                    f"stalled with {remaining} tasks unreached"
                )
            wave = [task_by_uid[uid] for uid in ready]
            max_wave = max(max_wave, len(wave))
            wave_t0 = time.perf_counter() if spans_on else 0.0
            wave_mark = len(timeline)

            # Group the wave in sorted-uid order (deterministic).
            groups: dict[tuple, list[Task]] = {}
            singles: list[Task] = []
            for task in wave:
                key = _group_key(task, tiles, f16_ok)
                if key is None:
                    singles.append(task)
                else:
                    groups.setdefault(key, []).append(task)
            batched: list[_Group] = []
            for key, batch in groups.items():
                if len(batch) >= min_batch:
                    batched.append(_Group(key[0], tuple(batch)))
                else:
                    singles.extend(batch)

            units: list[_Group] = []
            if executor is not None:
                for group in batched:
                    units.extend(chunk_group(group, eff_workers))
            else:
                units = batched

            if executor is not None and (len(units) + len(singles)) > 1:
                futures = [
                    executor.submit(exec_group, g) for g in units
                ] + [executor.submit(exec_single, t) for t in singles]
                first_exc: BaseException | None = None
                for f in futures:
                    try:
                        f.result()
                    except BaseException as exc:
                        if first_exc is None:
                            first_exc = exc
                if first_exc is not None:
                    raise first_exc
            else:
                for group in units:
                    exec_group(group)
                for task in singles:
                    exec_single(task)

            batches += len(units)
            batched_tasks += sum(len(g.tasks) for g in units)
            fallback_tasks += len(singles)
            stats.count_batch(Counter(t.op for t in wave))

            if spans_on:
                # The wave's futures have all resolved, so the slice
                # below has no concurrent writers.
                wave_sid = telemetry.tracer.add_span(
                    "wave", wave_t0, time.perf_counter(),
                    parent=parent_sid,
                    attrs={"wave": wave_index, "tasks": len(wave),
                           "groups": len(units),
                           "singles": len(singles)},
                )
                add_span = telemetry.tracer.add_span
                for op, batch, slot, start, end, batched_flag in (
                    timeline[wave_mark:]
                ):
                    add_span(
                        op, start, end, parent=wave_sid, tid=slot,
                        attrs={"batched": batched_flag,
                               "tasks": len(batch), "worker": slot},
                    )
            wave_index += 1

            # Release successors: the whole wave completed.
            next_ready: list[int] = []
            for task in wave:
                remaining -= 1
                for succ in successors[task.uid]:
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        next_ready.append(succ)
            ready = sorted(next_ready)
    except NotPositiveDefiniteError:
        raise
    except SchedulingError:
        raise
    except BaseException as exc:
        raise SchedulingError(
            f"batched execution failed: {exc!r}"
        ) from exc
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
        clamp_cm.__exit__(None, None, None)
    wall = time.perf_counter() - t0

    trace_obj = None
    if tracing and timeline:
        records = []
        for op, batch, slot, start, end, _batched in timeline:
            # Group members share their stacked call's interval.
            records.extend(
                TaskRecord(
                    uid=task.uid, op=op, node=slot, core=slot,
                    start=start - t0, end=end - t0,
                )
                for task in batch
            )
        records.sort(key=lambda r: (r.start, r.uid))
        trace_obj = ExecutionTrace(
            records=records, nodes=max(len(slot_of), 1),
            cores_per_node=1,
        )

    report = ParallelRunReport(
        workers=eff_workers,
        tasks=len(tasks),
        wall_time_s=wall,
        max_concurrency=max_wave if eff_workers > 1 else 1,
        stats=stats,
        batches=batches,
        batched_tasks=batched_tasks,
        fallback_tasks=fallback_tasks,
        blas_clamp=blas_clamp,
        trace=trace_obj,
    )
    return matrix, report
