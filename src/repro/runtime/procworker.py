"""Worker process of the process-parallel backend.

:func:`worker_main` is the entry point
:class:`~repro.runtime.procpool.ProcessPoolEngine` spawns N times.  A
worker is a small loop over three message kinds:

* ``("eval", cfg)`` — arm for one factorization: which plan (``nt``),
  the kernel knobs, the ownership grid, the chaos/retry policies, the
  fast-LR flag, and the chaos epoch.  The task stream itself is
  rebuilt locally from ``nt`` (and cached across evaluations) — the
  parent never ships tasks, only uids;
* ``("run", items)`` — execute task descriptors ``(uid, out_handle,
  in_handles)`` against shared-memory tile views, one result message
  per task (the parent's dependence counters need per-task
  completion).  Items in one message are pairwise independent by
  construction (they were simultaneously ready), so when batching is
  armed the worker groups them exactly like
  :mod:`~repro.runtime.batchdispatch` and runs stacked BLAS calls;
* ``("stop",)`` — detach from every segment and exit.

Owner-computes accounting: every input tile whose
:class:`~repro.runtime.distribution.BlockCyclic2D` owner differs from
this worker's rank is copied out of the other rank's home slab (the
"wire transfer") and counted per consuming task — the same per-task
charging :func:`~repro.runtime.comm.model_comm_volume` predicts, so
measured and modeled traffic are directly comparable.  Local inputs
are zero-copy views.

Determinism: the kernels, the per-tile dependence order, and the
chaos/retry keying ``(seed, epoch, uid, attempt)`` are identical to
the threaded executor's, and payloads round-trip through shared memory
byte-exactly — so results are bit-identical to the sequential and
threaded engines, and chaos schedules are independent of how tasks
land on workers.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from ..resilience.chaos import ChaosInjector
from ..tile import kernels as K
from ..tile.batch import (
    ScratchPool,
    batched_gemm,
    batched_potrf,
    batched_syrk,
    batched_trsm,
)
from ..tile.shm import SegmentCache, payload_nbytes
from ..tile.tile import DenseTile, LowRankTile, Tile
from .batchdispatch import _group_key
from .blasclamp import _set_inprocess
from .parallel import _tile_is_finite
from .task import Task

__all__ = ["worker_main"]

#: Minimum homogeneous group size worth a stacked call (same value as
#: the in-process batched dispatcher).
_MIN_BATCH = 2


@dataclass
class _EvalState:
    """One factorization's worth of worker-side configuration."""

    rank: int
    task_by_uid: dict[int, Task]
    grid: object
    fp16_accumulate_fp32: bool
    epoch: int
    check_finite: bool
    batch: bool
    retry: object | None
    chaos: ChaosInjector | None
    #: Ship per-task span timings back with results.  Clocks are
    #: ``time.perf_counter`` (CLOCK_MONOTONIC, shared epoch with the
    #: parent on Linux), so the parent merges them into one timeline
    #: without any clock translation.
    trace: bool = False


_plan_cache: dict[int, dict[int, Task]] = {}


def _tasks_for(nt: int) -> dict[int, Task]:
    plan = _plan_cache.get(nt)
    if plan is None:
        from .taskgraph import cholesky_tasks

        plan = _plan_cache[nt] = {t.uid: t for t in cholesky_tasks(nt)}
    return plan


def _arm(rank: int, cfg: dict) -> _EvalState:
    chaos_cfg = cfg["chaos"]
    return _EvalState(
        rank=rank,
        task_by_uid=_tasks_for(cfg["nt"]),
        grid=cfg["grid"],
        fp16_accumulate_fp32=cfg["fp16_accumulate_fp32"],
        epoch=cfg["epoch"],
        check_finite=cfg["check_finite"],
        batch=cfg["batch"],
        retry=cfg["retry"],
        chaos=None if chaos_cfg is None else ChaosInjector(chaos_cfg),
        trace=cfg.get("trace", False),
    )


def _exc_info(exc: BaseException) -> dict:
    """Picklable description of a worker-side failure; the parent
    rebuilds the matching exception type from it."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "tile_index": getattr(exc, "tile_index", None),
        "site": getattr(exc, "site", ""),
    }


def _kernel(task: Task, tiles: dict, st: _EvalState) -> Tile:
    """The per-tile kernels, identical to the threaded executor's."""
    if task.op == "potrf":
        return K.potrf(tiles[task.output], index=task.output)
    if task.op == "trsm":
        (lkk,) = task.inputs
        return K.trsm(
            tiles[lkk], tiles[task.output],
            fp16_accumulate_fp32=st.fp16_accumulate_fp32,
        )
    if task.op == "syrk":
        (amk,) = task.inputs
        return K.syrk(
            tiles[amk], tiles[task.output],
            fp16_accumulate_fp32=st.fp16_accumulate_fp32,
        )
    amk, ank = task.inputs
    return K.gemm(
        tiles[amk], tiles[ank], tiles[task.output],
        fp16_accumulate_fp32=st.fp16_accumulate_fp32,
    )


def _compute(task: Task, tiles: dict, st: _EvalState, attempt: int) -> Tile:
    """One attempt: chaos perturbation, kernel, chaos corruption,
    finite check — no state update, so a failed attempt is retryable
    (mirrors the threaded executor's ``compute_task``)."""
    if st.chaos is not None:
        st.chaos.perturb_task(st.epoch, task.uid, attempt)
    out = _kernel(task, tiles, st)
    if st.chaos is not None:
        out = st.chaos.corrupt_tile(out, st.epoch, task.uid, attempt)
    if st.check_finite and not _tile_is_finite(out):
        from ..exceptions import NumericalCorruptionError

        raise NumericalCorruptionError(
            f"task {task.op}@{task.output} produced non-finite values "
            f"(attempt {attempt})",
            tile_index=task.output,
        )
    return out


def _gather_tiles(items, st: _EvalState, cache: SegmentCache):
    """Tile objects for every handle a run message references, plus
    the per-task comm tallies.

    A remote input (owner != this rank) is copied out of shared memory
    — the explicit "wire transfer" — and charged once per *consuming
    task* (the model's convention); the physical copy is deduplicated
    within the message.  Local tiles are zero-copy views.
    """
    tiles: dict[tuple[int, int], Tile] = {}
    comm = {"remote_reads": 0, "remote_bytes": 0, "local_reads": 0}
    per_task_comm: dict[int, dict] = {}

    def materialize(handle, remote: bool) -> None:
        if handle.index in tiles:
            return
        tile = cache.view(handle)
        if remote:
            # Private copy: the consuming kernels must not race with
            # the owner's subsequent overwrites of this home slab (the
            # dependence edges order tasks, and the copy pins bytes).
            tile = (
                LowRankTile(tile.u.copy(), tile.v.copy())
                if tile.is_low_rank
                else DenseTile(tile.data.copy())
            )
        tiles[handle.index] = tile

    for uid, out_handle, in_handles in items:
        task_comm = {"remote_reads": 0, "remote_bytes": 0, "local_reads": 0}
        materialize(out_handle, False)  # owner-computes: always local
        for handle in in_handles:
            remote = st.grid.owner(*handle.index) != st.rank
            materialize(handle, remote)
            if remote:
                task_comm["remote_reads"] += 1
                task_comm["remote_bytes"] += payload_nbytes(handle)
            else:
                task_comm["local_reads"] += 1
        for key in task_comm:
            comm[key] += task_comm[key]
        per_task_comm[uid] = task_comm
    return tiles, per_task_comm


def _result_info(task: Task, out: Tile, was_lr: bool, task_comm: dict,
                 retries: int, chaos_delta: tuple[int, int, int],
                 span: tuple | None = None) -> dict:
    info = dict(task_comm)
    info["op"] = task.op
    info["retries"] = retries
    info["chaos"] = chaos_delta
    info["densified"] = bool(
        task.op == "gemm" and was_lr and not out.is_low_rank
    )
    info["lr_rank"] = out.rank if out.is_low_rank else None
    if span is not None:
        # (start_abs, end_abs, attempts, batched) — the task's
        # wall-clock interval on this worker, for the parent's merged
        # trace.  Group members share their stacked call's interval.
        info["span"] = span
    return info


def _chaos_snapshot(st: _EvalState) -> tuple[int, int, int]:
    if st.chaos is None:
        return (0, 0, 0)
    s = st.chaos.stats
    return (s.corrupted_tiles, s.failed_tasks, s.delayed_tasks)


def _run_items(rank, items, st: _EvalState, cache: SegmentCache,
               pool: ScratchPool, result_q) -> None:
    tiles, per_task_comm = _gather_tiles(items, st, cache)
    handles = {uid: out_handle for uid, out_handle, _ in items}

    def finish(task: Task, out: Tile, was_lr: bool, retries: int,
               delta: tuple[int, int, int],
               span: tuple | None = None) -> None:
        new_handle = cache.write(handles[task.uid], out)
        result_q.put((
            "ok", rank, task.uid, new_handle,
            _result_info(task, out, was_lr, per_task_comm[task.uid],
                         retries, delta, span=span),
        ))

    def run_single(task: Task) -> None:
        before = _chaos_snapshot(st)
        retries = 0
        was_lr = tiles[task.output].is_low_rank
        t_start = time.perf_counter() if st.trace else 0.0
        try:
            if st.retry is None:
                out = _compute(task, tiles, st, 1)
            else:

                def note_retry(attempt, exc):
                    nonlocal retries
                    retries += 1

                out = st.retry.call(
                    lambda attempt: _compute(task, tiles, st, attempt),
                    site=task.uid, on_retry=note_retry,
                )
        except BaseException as exc:
            after = _chaos_snapshot(st)
            info = _exc_info(exc)
            info["retries"] = retries
            info["chaos"] = tuple(a - b for a, b in zip(after, before))
            result_q.put(("err", rank, task.uid, info))
            return
        after = _chaos_snapshot(st)
        tiles[task.output] = out
        span = (
            (t_start, time.perf_counter(), retries + 1, False)
            if st.trace else None
        )
        finish(task, out, was_lr, retries,
               tuple(a - b for a, b in zip(after, before)), span=span)

    tasks = [st.task_by_uid[uid] for uid, _, _ in items]
    # Batched grouping mirrors the in-process dispatcher: only when
    # armed, only without per-task resilience semantics, and only for
    # homogeneous dense groups — everything else runs per-tile.
    use_groups = (
        st.batch and st.retry is None and st.chaos is None
        and len(tasks) >= _MIN_BATCH
    )
    groups: dict[tuple, list[Task]] = {}
    singles: list[Task] = []
    if use_groups:
        for task in tasks:
            key = _group_key(task, tiles, st.fp16_accumulate_fp32)
            if key is None:
                singles.append(task)
            else:
                groups.setdefault(key, []).append(task)
    else:
        singles = tasks

    for key, batch in groups.items():
        if len(batch) < _MIN_BATCH:
            singles.extend(batch)
            continue
        group_t0 = time.perf_counter() if st.trace else 0.0
        try:
            op = key[0]
            if op == "potrf":
                outs = batched_potrf(
                    [tiles[t.output] for t in batch],
                    [t.output for t in batch], pool=pool, validate=False,
                )
            elif op == "trsm":
                outs = batched_trsm(
                    tiles[batch[0].inputs[0]],
                    [tiles[t.output] for t in batch],
                    fp16_accumulate_fp32=st.fp16_accumulate_fp32,
                    pool=pool, validate=False,
                )
            elif op == "syrk":
                outs = batched_syrk(
                    [tiles[t.inputs[0]] for t in batch],
                    [tiles[t.output] for t in batch],
                    fp16_accumulate_fp32=st.fp16_accumulate_fp32,
                    pool=pool, validate=False,
                )
            else:
                outs = batched_gemm(
                    [tiles[t.inputs[0]] for t in batch],
                    [tiles[t.inputs[1]] for t in batch],
                    [tiles[t.output] for t in batch],
                    fp16_accumulate_fp32=st.fp16_accumulate_fp32,
                    pool=pool, validate=False,
                )
        except BaseException:
            # A stacked call cannot attribute its failure to one
            # task; nothing was written, so replay the group
            # per-tile (bit-identical) to pin the failing uid.
            singles.extend(batch)
            continue
        group_span = (
            (group_t0, time.perf_counter(), 1, True)
            if st.trace else None
        )
        for task, out in zip(batch, outs):
            was_lr = tiles[task.output].is_low_rank
            tiles[task.output] = out
            finish(task, out, was_lr, 0, (0, 0, 0), span=group_span)
    for task in singles:
        run_single(task)


def worker_main(rank: int, task_q, result_q, init: dict) -> None:
    """Entry point of one worker process (fork- and spawn-safe)."""
    cache = SegmentCache()
    pool = ScratchPool()
    state: _EvalState | None = None
    try:
        if init.get("blas_threads"):
            # Spawned workers already picked the clamp up from the
            # environment at BLAS load; forked workers inherited the
            # parent's in-process clamp.  Re-applying is a cheap no-op
            # that also covers exotic start paths.
            _set_inprocess(init["blas_threads"])
        result_q.put(("ready", rank))
        while True:
            msg = task_q.get()
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "eval":
                state = _arm(rank, msg[1])
            elif kind == "run":
                _run_items(rank, msg[1], state, cache, pool, result_q)
    except (KeyboardInterrupt, EOFError, OSError):  # pragma: no cover
        state = None  # parent died or is tearing the pool down; exit
    finally:
        cache.close()
