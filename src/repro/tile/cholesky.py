"""Tiled Cholesky factorization (paper Algorithm 1, dense and TLR).

The right-looking tile algorithm:

    for k in 0..NT-1:
        POTRF  A[k][k]
        for m in k+1..NT-1:
            TRSM  A[k][k], A[m][k]
        for m in k+1..NT-1:
            SYRK  A[m][k], A[m][m]
            for n in k+1..m-1:
                GEMM  A[m][k], A[n][k], A[m][n]

Each tile keeps the structure (dense / low-rank) and storage precision
assigned by the :class:`~repro.tile.decisions.TilePlan`; the kernels in
:mod:`repro.tile.kernels` convert operands on demand.  This module is
the *sequentially executed* reference; the task-based runtime
(:mod:`repro.runtime`) generates the identical operation stream as a
DAG and a consistency test pins the two together.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import solve_triangular

from .compression import compress_many
from .matrix import TileMatrix
from .tile import LowRankTile

from . import kernels as K

if TYPE_CHECKING:
    from .assembly import AssemblyReport

__all__ = ["CholeskyStats", "tile_cholesky", "compress_factor"]


@dataclass
class CholeskyStats:
    """Execution statistics of one factorization."""

    kernel_counts: dict[str, int] = field(default_factory=dict)
    densified_tiles: int = 0
    max_rank_seen: int = 0
    #: Transient task failures absorbed by the resilience layer's
    #: retry policy (always 0 on the sequential reference path).
    retries: int = 0

    def count(self, op: str) -> None:
        self.kernel_counts[op] = self.kernel_counts.get(op, 0) + 1

    def count_batch(self, ops: Iterable[str] | Counter) -> None:
        """Bulk-tally a batch of operations in one C-level update.

        ``kernel_counts`` stays a plain ``dict`` (its public shape);
        the :class:`collections.Counter` is a transient accumulator,
        so hot loops tally per batch / per panel instead of one dict
        update per task.
        """
        tally = ops if isinstance(ops, Counter) else Counter(ops)
        for op, n in tally.items():
            self.kernel_counts[op] = self.kernel_counts.get(op, 0) + n


def tile_cholesky(
    a: TileMatrix,
    *,
    fp16_accumulate_fp32: bool = True,
    validate_plan: bool = False,
) -> tuple[TileMatrix, CholeskyStats]:
    """Factor ``A = L L^T`` in place (the lower tiles of ``a`` are
    replaced by those of ``L``) and return ``(a, stats)``.

    Low-rank tiles take their updates exactly (stacked factors, see
    :func:`~repro.tile.kernels.gemm`) and convert to dense once the
    stacked width reaches the tile size, so no tolerance is needed
    here: the only TLR truncation is the one made at assembly.

    With ``validate_plan=True`` the static verifier
    (:mod:`repro.analysis.plancheck`) first checks the plan implied by
    the matrix's tile structure/precisions and raises
    :class:`~repro.exceptions.PlanValidationError` on any
    error-severity finding, so a structurally invalid factorization is
    rejected before the first flop.
    """
    if validate_plan:
        # Imported lazily: repro.analysis imports the tile layer.
        from ..analysis.plancheck import check_plan, plan_from_matrix
        from ..exceptions import PlanValidationError

        report = check_plan(plan_from_matrix(a))
        if not report.ok:
            raise PlanValidationError(
                "static plan verification failed: "
                + "; ".join(d.render() for d in report.errors),
                report=report,
            )
    nt = a.nt
    stats = CholeskyStats()
    for k in range(nt):
        # Per-panel Counter tally instead of one dict update per task.
        panel: Counter[str] = Counter()
        lkk = K.potrf(a.get(k, k), index=(k, k))
        a.set(k, k, lkk)
        panel["potrf"] += 1
        for m in range(k + 1, nt):
            amk = K.trsm(
                lkk, a.get(m, k), fp16_accumulate_fp32=fp16_accumulate_fp32
            )
            a.set(m, k, amk)
            panel["trsm"] += 1
        for m in range(k + 1, nt):
            amk = a.get(m, k)
            new_diag = K.syrk(
                amk, a.get(m, m), fp16_accumulate_fp32=fp16_accumulate_fp32
            )
            a.set(m, m, new_diag)
            panel["syrk"] += 1
            for n in range(k + 1, m):
                was_lr = a.get(m, n).is_low_rank
                cmn = K.gemm(
                    amk,
                    a.get(n, k),
                    a.get(m, n),
                    fp16_accumulate_fp32=fp16_accumulate_fp32,
                )
                if was_lr and not cmn.is_low_rank:
                    stats.densified_tiles += 1
                if cmn.is_low_rank:
                    stats.max_rank_seen = max(stats.max_rank_seen, cmn.rank)
                a.set(m, n, cmn)
                panel["gemm"] += 1
        stats.count_batch(panel)
    return a, stats


def compress_factor(
    factor: TileMatrix, report: "AssemblyReport", max_rank: int | None = None
) -> TileMatrix:
    """Truncate the planned-low-rank tiles of a Cholesky factor, in place.

    Exact-stacking updates leave those tiles dense or carrying wide,
    untruncated factors — right for one factorization, but a factor
    that serves many solves pays for that width on every one.  Each
    tile ``L_ij`` the assembly ``report``'s plan marks low-rank is
    truncated where the TLR Cholesky truncates: on ``A_ij = L_ij
    L_jj^T`` (the fully updated Schur complement) at the plan's tile
    tolerance, then ``L_ij = U (L_jj^{-1} V)^T`` by the rank-wise TRSM.
    Tiles whose rank exceeds ``max_rank`` stay as they are.

    One :func:`~repro.tile.compression.compress_many` call truncates
    every tile, warm-started at the assembly ranks, and one wide-RHS
    triangular solve per tile column applies ``L_jj^{-1}`` to all of
    that column's ``V`` factors.
    """
    blocks = {
        (i, j): factor.get(i, j).to_dense64() @ factor.get(j, j).to_dense64().T
        for (i, j), planned in report.plan.use_lr.items()
        if planned
    }
    compressed = compress_many(
        blocks, list(blocks), report.tile_tol, max_rank=max_rank,
        hints=report.ranks,
    )
    columns: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for key, (_, u, _) in compressed.items():
        if u is not None:
            columns[key[1]].append(key)
    for j, keys in columns.items():
        vcat = solve_triangular(
            factor.get(j, j).to_dense64(),
            np.hstack([compressed[key][2] for key in keys]),
            lower=True, check_finite=False,
        )
        start = 0
        for key in keys:
            rank, u, _ = compressed[key]
            v = vcat[:, start:start + rank]
            start += rank
            factor.set(*key, LowRankTile(u, v, factor.get(*key).precision))
    return factor
