"""Numerical recovery ladder for mixed-precision / TLR Cholesky.

Aggressive precision demotion and low-rank compression can push a
covariance that is SPD in exact arithmetic below the positive-definite
floor of its *stored* representation — POTRF then raises
:class:`~repro.exceptions.NotPositiveDefiniteError` even though the
model parameters are perfectly valid.  Instead of rejecting the
optimizer step outright, :func:`factor_with_recovery` escalates through
a ladder of increasingly expensive (and increasingly sure-to-work)
repairs, rebuilding the matrix each time:

1. **promote-tile** — the failing diagonal tile's row and column are
   floored to FP64 (the breakdown is usually local to one panel);
2. **promote-band** — every tile is floored to FP64 (mixed precision
   off, structure kept);
3. **densify** — TLR compression is disabled on top of the FP64 floor
   (full dense FP64 rebuild);
4. **jitter** — a bounded, escalating diagonal shift (relative to the
   matrix's mean diagonal entry) is added via the nugget, the classic
   last-resort regularization.

Rebuilding (rather than patching tiles in place) is essential: tiles
store *rounded* data — promoting the declared precision of an existing
FP16 tile recovers none of the dropped bits — and
:func:`~repro.tile.cholesky.tile_cholesky` destroys its input.

When every rung fails, :class:`~repro.exceptions.RecoveryExhaustedError`
(a :class:`~repro.exceptions.NotPositiveDefiniteError`) carries the
full :class:`RecoveryReport`, so optimizer drivers that treat
indefinite steps as rejections keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import DEFAULT_RECOVERY_JITTER, DEFAULT_RECOVERY_MAX_JITTER
from ..exceptions import (
    ConfigurationError,
    NotPositiveDefiniteError,
    RecoveryExhaustedError,
)
from .cholesky import CholeskyStats, tile_cholesky
from .matrix import TileMatrix
from .precision import Precision

__all__ = [
    "RecoveryPolicy",
    "RecoveryAction",
    "RecoveryReport",
    "factor_with_recovery",
    "DEFAULT_RECOVERY",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Which rungs of the ladder are enabled, and how far jitter goes.

    ``initial_jitter`` / ``max_jitter`` are *relative* to the matrix's
    mean diagonal entry; each jitter attempt multiplies the shift by
    ``jitter_growth`` until ``max_jitter`` bounds it.
    """

    promote_tile: bool = True
    promote_band: bool = True
    densify: bool = True
    max_jitter_attempts: int = 3
    initial_jitter: float = DEFAULT_RECOVERY_JITTER
    max_jitter: float = DEFAULT_RECOVERY_MAX_JITTER
    jitter_growth: float = 100.0

    def __post_init__(self) -> None:
        if self.max_jitter_attempts < 0:
            raise ConfigurationError("max_jitter_attempts must be >= 0")
        if self.max_jitter_attempts:
            if self.initial_jitter <= 0:
                raise ConfigurationError("initial_jitter must be positive")
            if self.max_jitter < self.initial_jitter:
                raise ConfigurationError(
                    "max_jitter must be >= initial_jitter"
                )
            if self.jitter_growth <= 1.0:
                raise ConfigurationError("jitter_growth must be > 1")


#: The ladder with every rung enabled — the sensible default for MP/TLR
#: variants (``variant.with_(recovery=DEFAULT_RECOVERY)``).
DEFAULT_RECOVERY = RecoveryPolicy()


@dataclass(frozen=True)
class RecoveryAction:
    """One escalation attempt of the ladder.

    The resilience layer (:mod:`repro.resilience`) reuses this record
    for its own escalations: ``step`` is then ``"retry"`` (transient
    task retries absorbed during a fit attempt) or ``"downgrade"``
    (the fit fell to a safer compute variant).
    """

    step: str  # "promote_tile" | "promote_band" | "densify" | "jitter"
    #   resilience layer adds:  "retry" | "downgrade"
    tile_index: tuple[int, int] | None  # breakdown that triggered it
    detail: str
    succeeded: bool


@dataclass
class RecoveryReport:
    """What the ladder did for one factorization.

    The fit-level degradation ladder extends the same report shape:
    ``retries`` counts transient task retries the resilience layer
    absorbed, and ``variant_path`` records the compute variants a fit
    moved through (length 1 when no downgrade was needed).
    """

    actions: list[RecoveryAction] = field(default_factory=list)
    attempts: int = 1  # factorization attempts, including the first
    recovered: bool = False
    jitter_added: float = 0.0  # absolute diagonal shift of the success
    #: Transient task retries absorbed (resilience layer; 0 otherwise).
    retries: int = 0
    #: Variant names a degraded fit moved through, first to last.
    variant_path: list[str] = field(default_factory=list)

    @property
    def steps(self) -> tuple[str, ...]:
        """Escalation step names in the order they were tried."""
        return tuple(a.step for a in self.actions)

    def summary(self) -> str:
        if not self.actions:
            return "no recovery needed"
        tail = "recovered" if self.recovered else "exhausted"
        return f"{' -> '.join(self.steps)} ({tail})"


def _diag_scale(matrix: TileMatrix) -> float:
    """Mean diagonal entry — the natural unit for a jitter shift."""
    total = 0.0
    for i in range(matrix.nt):
        total += float(np.trace(matrix.get(i, i).to_dense64()))
    return total / matrix.layout.n


def _panel_floor(
    layout, k: int
) -> dict[tuple[int, int], Precision]:
    """FP64 floor for every lower tile in row/column ``k``."""
    return {
        (i, j): Precision.FP64
        for (i, j) in layout.lower_tiles()
        if i == k or j == k
    }


def factor_with_recovery(
    rebuild: Callable[..., tuple[TileMatrix, "object"]],
    *,
    policy: RecoveryPolicy,
    fp16_accumulate_fp32: bool = True,
    factor_fn: "Callable[..., tuple[TileMatrix, CholeskyStats]] | None" = None,
) -> tuple[TileMatrix, CholeskyStats, "object", RecoveryReport]:
    """Factor with escalating numerical recovery.

    ``rebuild(min_precisions=..., force_dense=..., extra_nugget=...)``
    must construct a fresh planned covariance and return
    ``(matrix, report)`` (an :class:`~repro.tile.assembly.AssemblyReport`
    fits).
    It is called once per attempt — the factorization is destructive
    and tiles store rounded data, so nothing can be reused.

    ``factor_fn(matrix)`` overrides how each attempt is
    factored (e.g. the threaded DAG executor); it must return
    ``(factor, stats)`` and raise
    :class:`~repro.exceptions.NotPositiveDefiniteError` on breakdown.
    The default is the sequential :func:`~repro.tile.cholesky.tile_cholesky`.

    Returns ``(factor, stats, assembly_report, recovery_report)`` of the
    first attempt that completes; raises
    :class:`~repro.exceptions.RecoveryExhaustedError` when the ladder
    runs dry.
    """
    if factor_fn is None:

        def factor_fn(matrix: TileMatrix):
            return tile_cholesky(
                matrix, fp16_accumulate_fp32=fp16_accumulate_fp32
            )

    report = RecoveryReport()
    overrides: dict = {}
    matrix, build_report = rebuild(**overrides)
    scale = _diag_scale(matrix)
    try:
        factor, stats = factor_fn(matrix)
        return factor, stats, build_report, report
    except NotPositiveDefiniteError as exc:
        failure = exc

    steps: list[tuple[str, dict, str]] = []
    if policy.promote_tile and failure.tile_index is not None:
        k = failure.tile_index[0]
        steps.append((
            "promote_tile",
            {"min_precisions": _panel_floor(matrix.layout, k)},
            f"FP64 floor on row/column {k}",
        ))
    if policy.promote_band:
        steps.append((
            "promote_band",
            {"min_precisions": Precision.FP64},
            "FP64 floor on every tile",
        ))
    if policy.densify:
        steps.append((
            "densify",
            {"min_precisions": Precision.FP64, "force_dense": True},
            "dense FP64 rebuild (TLR off)",
        ))
    jitter = policy.initial_jitter
    for _ in range(policy.max_jitter_attempts):
        jitter = min(jitter, policy.max_jitter)
        steps.append((
            "jitter",
            {"extra_nugget": jitter * scale},
            f"diagonal shift {jitter:.1e} x mean diagonal",
        ))
        if jitter >= policy.max_jitter:
            break
        jitter *= policy.jitter_growth

    for step, extra, detail in steps:
        overrides.update(extra)
        matrix, build_report = rebuild(**overrides)
        report.attempts += 1
        try:
            factor, stats = factor_fn(matrix)
        except NotPositiveDefiniteError as exc:
            failure = exc
            report.actions.append(
                RecoveryAction(step, exc.tile_index, detail, succeeded=False)
            )
            continue
        report.actions.append(
            RecoveryAction(step, failure.tile_index, detail, succeeded=True)
        )
        report.recovered = True
        report.jitter_added = float(overrides.get("extra_nugget", 0.0))
        return factor, stats, build_report, report

    raise RecoveryExhaustedError(
        f"recovery ladder exhausted after {report.attempts} attempts "
        f"({report.summary()}): {failure}",
        tile_index=failure.tile_index,
        report=report,
    )
