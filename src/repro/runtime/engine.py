"""Sequential execution engine: runs a task stream *for real*.

The engine interprets the task stream from
:mod:`repro.runtime.taskgraph` against an actual
:class:`~repro.tile.matrix.TileMatrix`, dispatching to the numerical
kernels.  It is the single-worker instantiation of the runtime — used
to validate that the task-graph path computes bit-identical results to
the direct loop in :func:`repro.tile.cholesky.tile_cholesky`, and to
attach real wall-clock timings to a trace.
"""

from __future__ import annotations

import time

from ..exceptions import SchedulingError
from ..perfmodel.kernelmodel import task_flops
from ..tile import kernels as K
from ..tile.matrix import TileMatrix
from .simulator import shape_for_task
from .task import Task
from .trace import ExecutionTrace, TaskRecord

__all__ = ["execute_cholesky_tasks", "execute_forward_solve_tasks"]


def execute_cholesky_tasks(
    matrix: TileMatrix,
    tasks: list[Task],
    *,
    fp16_accumulate_fp32: bool = True,
) -> tuple[TileMatrix, ExecutionTrace]:
    """Execute a Cholesky task stream in order on ``matrix``.

    The stream must be a valid sequential order (the generator output
    or any topological order of its DAG).  Returns the factored matrix
    and a trace with real durations and modeled flop counts.
    """
    trace = ExecutionTrace(nodes=1, cores_per_node=1)
    clock = 0.0
    for task in tasks:
        t0 = time.perf_counter()
        if task.op == "potrf":
            out = K.potrf(matrix.get(*task.output), index=task.output)
        elif task.op == "trsm":
            (lkk,) = task.inputs
            out = K.trsm(
                matrix.get(*lkk),
                matrix.get(*task.output),
                fp16_accumulate_fp32=fp16_accumulate_fp32,
            )
        elif task.op == "syrk":
            (amk,) = task.inputs
            out = K.syrk(
                matrix.get(*amk),
                matrix.get(*task.output),
                fp16_accumulate_fp32=fp16_accumulate_fp32,
            )
        elif task.op == "gemm":
            amk, ank = task.inputs
            out = K.gemm(
                matrix.get(*amk),
                matrix.get(*ank),
                matrix.get(*task.output),
                fp16_accumulate_fp32=fp16_accumulate_fp32,
            )
        else:  # pragma: no cover - Task validates ops
            raise SchedulingError(f"unknown op {task.op!r}")
        matrix.set(*task.output, out)
        elapsed = time.perf_counter() - t0
        shape = shape_for_task(task, matrix.layout, _plan_from_matrix(matrix, task))
        trace.add(
            TaskRecord(
                uid=task.uid,
                op=task.op,
                node=0,
                core=0,
                start=clock,
                end=clock + elapsed,
                flops=task_flops(shape),
            )
        )
        clock += elapsed
    return matrix, trace


def execute_forward_solve_tasks(
    factor: TileMatrix,
    tasks: list[Task],
    b: np.ndarray,
) -> np.ndarray:
    """Execute a forward-substitution task stream against a real
    factor and right-hand side.

    The stream is :func:`repro.runtime.taskgraph.forward_solve_tasks`
    (RHS blocks keyed ``(i, -1)``): GEMM tasks apply ``y_i -= L_ij y_j``
    and TRSM tasks the diagonal solve.  Validates that the task-graph
    formulation of the solve matches
    :func:`repro.tile.solve.forward_solve` and gives the simulator a
    real counterpart for the prediction phase.
    """
    import numpy as _np
    from scipy import linalg as sla

    from ..tile.solve import tile_apply

    layout = factor.layout
    y = _np.asarray(b, dtype=_np.float64).copy()
    if y.shape[0] != factor.n:
        raise SchedulingError("rhs dimension does not match the factor")
    for task in tasks:
        i = task.output[0]
        sl_i = layout.block_slice(i)
        if task.op == "gemm":
            (lij, rhs_j) = task.inputs
            j = rhs_j[0]
            y[sl_i] -= tile_apply(factor.get(*lij), y[layout.block_slice(j)])
        elif task.op == "trsm":
            (lii,) = task.inputs
            y[sl_i] = sla.solve_triangular(
                factor.get(*lii).to_dense64(), y[sl_i],
                lower=True, check_finite=False,
            )
        else:
            raise SchedulingError(
                f"unexpected op {task.op!r} in a solve stream"
            )
    return y


def _plan_from_matrix(matrix: TileMatrix, task: Task):
    """Minimal plan-like view over the live matrix (structure and
    precision read from the actual tiles, ranks from LR tiles)."""
    return _LivePlanView(matrix)


class _LivePlanView:
    """Adapter exposing the TilePlan interface the simulator's
    shape builder needs, backed by live tiles."""

    def __init__(self, matrix: TileMatrix):
        self._m = matrix
        self.layout = matrix.layout
        self.meta = {"ranks": {}}

    def is_low_rank(self, i: int, j: int) -> bool:
        return self._m.get(i, j).is_low_rank

    def precision_of(self, i: int, j: int):
        return self._m.get(i, j).precision

    def rank_of(self, i: int, j: int) -> int:
        tile = self._m.get(i, j)
        return tile.rank if tile.is_low_rank else self.layout.tile_size
