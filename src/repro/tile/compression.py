"""Low-rank compression primitives.

TLR compression truncates the SVD of a tile at an *absolute* Frobenius
threshold (the caller derives it from the global matrix norm and the
target accuracy, e.g. ``1e-8`` as in the paper).  Low-rank *updates*
inside the Cholesky need no recompression at all: the GEMM kernel
stacks update factors exactly and converts a tile to dense once the
stacked width reaches the tile size (:func:`repro.tile.kernels.gemm`).

:func:`compress_or_rank` / :func:`compress_many` serve the MLE hot
loop: tiles whose rank exceeds the cap never build truncated factors,
and a *warm rank hint* from the previous optimizer iteration enables
a values-only SVD early-out for tiles known to be over-cap and a
certified randomized range-finder for tiles known to be comfortably
low-rank (exact-SVD fallback whenever the sketch cannot certify the
tolerance).  Without hints both are bit-identical to
:func:`truncated_svd`.

All factor arithmetic here runs in float64; storage precision is
applied by the caller when wrapping results into tiles.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..exceptions import CompressionError
from .precision import Precision
from .tile import DenseTile, LowRankTile

__all__ = [
    "truncated_svd",
    "frobenius_rank",
    "compress_block",
    "compress_many",
    "compress_or_rank",
    "compress_tile",
    "rank_of_block",
]


def frobenius_rank(s: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """Numerical rank at absolute Frobenius tolerance ``tol`` from a
    (descending) singular-value vector.

    Returns ``(rank, tail)`` with ``tail[k] = ||s[k:]||_2``; the rank is
    the smallest ``k`` with ``tail[k] <= tol`` (``len(s)`` when none).
    Shared by every truncation decision in this module so the cutoff
    arithmetic cannot drift between code paths.
    """
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    admissible = np.nonzero(tail <= tol)[0]
    rank = int(admissible[0]) if admissible.size else len(s)
    return rank, tail


def truncated_svd(
    a: np.ndarray, tol: float, max_rank: int | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Rank-truncated SVD ``a ~= u @ v.T`` with Frobenius error <= tol.

    Returns ``(u, v, err)`` where ``err`` is the achieved Frobenius
    error (the L2 norm of the dropped singular values).  The rank is the
    smallest ``k`` with ``sqrt(sum_{i>k} s_i^2) <= tol``; rank 0 is
    returned for tiles that are zero to within ``tol``.

    Raises :class:`~repro.exceptions.CompressionError` when ``max_rank``
    would be exceeded.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    uu, s, vt = np.linalg.svd(a, full_matrices=False)
    rank, tail = frobenius_rank(s, tol)
    if max_rank is not None and rank > max_rank:
        raise CompressionError(
            f"tolerance {tol:g} needs rank {rank} > max_rank {max_rank} "
            f"for a {m}x{n} block"
        )
    err = float(tail[rank]) if rank < len(s) else 0.0
    u = uu[:, :rank] * s[:rank]
    v = vt[:rank, :].T
    return u, v, err


def rank_of_block(a: np.ndarray, tol: float) -> int:
    """Numerical rank of ``a`` at absolute Frobenius tolerance ``tol``
    (without forming factors)."""
    s = np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)
    return frobenius_rank(s, tol)[0]


_SKETCH_OVERSAMPLE = 8


def _tile_seed(key: tuple[int, int]) -> int:
    """Sketch seed of tile ``key``.  It depends on the tile alone, so
    sketched results are independent of call order and scheduling."""
    return ((key[0] + 1) << 20) ^ (key[1] + 1)


def _sketch_compress(
    a: np.ndarray, tol: float, cap: int, hint: int, rng: np.random.Generator
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Randomized range-finder warm-started at ``hint`` columns.

    Each round is certified by :func:`_certify_sketch`; one growth
    retry doubles the width.  Returns ``None`` when the sketch cannot
    certify a rank ``<= cap`` (caller falls back to the exact SVD), so
    accuracy never depends on the sketch quality.
    """
    n = a.shape[1]
    mn = min(a.shape)
    k = min(max(hint, 1) + _SKETCH_OVERSAMPLE, mn)
    for _ in range(2):  # one growth retry before the exact fallback
        q, _ = _thin_qr_fast(a @ rng.standard_normal((n, k)))
        status, res = _certify_sketch(q, a, tol, cap, k, mn)
        if status != "retry":
            return res
        k = min(2 * k, mn)
    return None


def compress_or_rank(
    a: np.ndarray,
    tol: float,
    *,
    max_rank: int | None = None,
    hint: int | None = None,
    key: tuple[int, int] = (0, 0),
) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """Compress one assembly tile, or report its rank when over the cap.

    Returns ``(rank, u, v)``; ``u``/``v`` are ``None`` when
    ``rank > max_rank`` — over-cap tiles never build truncated factors.
    Without ``hint`` the result is bit-identical to
    :func:`truncated_svd`.  A warm ``hint`` (the tile's rank at the
    previous optimizer iterate) enables a values-only SVD early-out for
    tiles expected to stay over the cap, and the certified randomized
    range-finder for tiles expected to stay under it.  The sketch is
    seeded from the tile's ``key`` alone, so results do not depend on
    call order.
    """
    a = np.asarray(a, dtype=np.float64)
    cap = min(a.shape) if max_rank is None else min(int(max_rank), min(a.shape))
    if hint is not None and hint > cap:
        # Expected over-cap: values-only SVD (no U/V work), exact rank.
        s = np.linalg.svd(a, compute_uv=False)
        rank, _ = frobenius_rank(s, tol)
        if rank > cap:
            return rank, None, None
        # Stale hint — fall through and build factors.
    elif hint is not None:
        rng = np.random.default_rng(_tile_seed(key))
        out = _sketch_compress(a, tol, cap, hint, rng)
        if out is not None:
            return out
    uu, s, vt = np.linalg.svd(a, full_matrices=False)
    rank, _ = frobenius_rank(s, tol)
    if rank > cap:
        return rank, None, None
    u = uu[:, :rank] * s[:rank]
    v = vt[:rank, :].T
    return rank, u, v


@lru_cache(maxsize=2048)
def _tile_omega(seed: int, n: int, k: int) -> np.ndarray:
    """Round-1 test matrix of a sketched tile.

    The draw depends only on the tile's key-derived seed and the sketch
    width — never on ``theta`` or the data — so it is cached across
    optimizer iterates.  The array is frozen; callers copy it into
    their operand stacks.
    """
    omega = np.random.default_rng(seed).standard_normal((n, k))
    omega.setflags(write=False)
    return omega


@lru_cache(maxsize=2048)
def _tile_omega2(seed: int, n: int, k: int, k2: int) -> np.ndarray:
    """Growth-retry test matrix: the ``(n, k2)`` draw that follows the
    round-1 ``(n, k)`` draw on the same key-seeded stream."""
    gen = np.random.default_rng(seed)
    gen.standard_normal((n, k))
    omega = gen.standard_normal((n, k2))
    omega.setflags(write=False)
    return omega


def _certify_sketch(
    qp: np.ndarray, blk: np.ndarray, tol: float, cap: int, k: int, mn: int
) -> tuple[str, tuple[int, np.ndarray, np.ndarray] | None]:
    """Certify one range-finder round given its orthonormal basis ``qp``.

    The truncation error of rank ``r`` is

        err(r)^2 = ||A - Q Q^T A||_F^2 + ||tail_r(Q^T A)||_2^2

    (projection loss plus the dropped tail of the small SVD), and only
    a rank whose ``err(r) <= tol`` is accepted.  Both terms are formed
    directly — the residual explicitly, the tail from an SVD of
    ``Q^T A`` — because tile tolerances sit near ``sqrt(eps) * ||A||``,
    where ``||A||^2 - ||Q^T A||^2`` or a Gram-matrix eigensolve would
    lose every significant digit of the quantity being certified.

    Returns ``("ok", (r, u, v))`` when the round certifies a rank,
    ``("retry", None)`` when the sketch must grow, or ``("exact",
    None)`` for the exact-SVD fallback.
    """
    bp = qp.T @ blk
    resid = blk - qp @ bp
    proj2 = float(np.sum(resid * resid))
    ub, s, vt = np.linalg.svd(bp, full_matrices=False)
    tail2 = np.append(np.cumsum(s[::-1] ** 2)[::-1], 0.0)
    admissible = np.nonzero(np.sqrt(proj2 + tail2) <= tol)[0]
    if admissible.size:
        r = int(admissible[0])
        if r > cap:
            return "exact", None
        if r < k or k == mn:
            return "ok", (r, qp @ (ub[:, :r] * s[:r]), vt[:r].T)
    return ("retry", None) if k < mn else ("exact", None)


def compress_many(
    blocks: "dict[tuple[int, int], np.ndarray]",
    keys: "list[tuple[int, int]]",
    tol: float,
    *,
    max_rank: int | None = None,
    hints: "dict[tuple[int, int], int] | None" = None,
) -> "dict[tuple[int, int], tuple[int, np.ndarray | None, np.ndarray | None]]":
    """Batched :func:`compress_or_rank` over many assembly tiles.

    Tiles are grouped by shape (and sketch width) and the per-tile
    numpy calls become stacked ones — one gufunc QR/SVD and one 3-D
    ``matmul`` per group instead of a Python-level call per tile.
    Every stacked slice runs the same LAPACK routine on the same
    operand as the per-tile path, Frobenius norms are taken over the
    original blocks, and each tile's sketch rng is seeded from its own
    key (draws are data-independent, so the test
    matrices are memoized across calls), so results are bit-identical
    to calling :func:`compress_or_rank` tile by tile with the same
    keys (pinned in tests).  Tiles
    whose sketch cannot certify a rank within the first round run the
    growth retry per tile from their *retained* rng (the stream is
    already positioned after the round-1 draw) and, failing that, join
    the stacked exact-SVD group — the same draws and fallback as the
    per-tile path without recomputing round 1.
    """
    out: dict = {}
    if not keys:
        return out

    def _cap(shape) -> int:
        mn = min(shape)
        return mn if max_rank is None else min(int(max_rank), mn)

    values_only: dict = {}
    sketched: dict = {}
    exact: dict = {}
    for key in keys:
        shape = blocks[key].shape
        hint = None if hints is None else hints.get(key)
        if hint is not None and hint > _cap(shape):
            values_only.setdefault(shape, []).append(key)
        elif hint is not None:
            k = min(max(hint, 1) + _SKETCH_OVERSAMPLE, min(shape))
            sketched.setdefault((shape, k), []).append(key)
        else:
            exact.setdefault(shape, []).append(key)

    # Expected over-cap: stacked values-only SVD, no U/V work.  Tiles
    # whose hint proves stale fall through to the exact group, exactly
    # like the per-tile path.
    for shape, group in values_only.items():
        stack = np.stack(
            [np.asarray(blocks[key], dtype=np.float64) for key in group]
        )
        svals = np.linalg.svd(stack, compute_uv=False)
        cap = _cap(shape)
        for key, s in zip(group, svals):
            rank, _ = frobenius_rank(s, tol)
            if rank > cap:
                out[key] = (rank, None, None)
            else:
                exact.setdefault(shape, []).append(key)

    # Certified randomized range-finder, round 1 stacked: draw each
    # tile's test matrix from its own rng, then one batched GEMM + QR +
    # projection for the whole width class.  The small certifying SVD
    # and the truncation bookkeeping stay per tile (k x n work).
    for (shape, k), group in sketched.items():
        m, n = shape
        mn = min(m, n)
        cap = _cap(shape)
        astack = np.stack(
            [np.asarray(blocks[key], dtype=np.float64) for key in group]
        )
        omegas = np.empty((len(group), n, k))
        for p, key in enumerate(group):
            omegas[p] = _tile_omega(_tile_seed(key), n, k)
        qstack = np.linalg.qr(np.matmul(astack, omegas))[0]
        grow: list[tuple[tuple[int, int], np.ndarray]] = []
        for p, key in enumerate(group):
            blk = np.asarray(blocks[key], dtype=np.float64)
            # ``_thin_qr_fast`` hands the per-tile path an F-ordered Q
            # (raw LAPACK output); the projection GEMMs in the certify
            # step are layout-sensitive at the bit level, so restore
            # that layout before reproducing them.
            status, res = _certify_sketch(
                np.asfortranarray(qstack[p]), blk, tol, cap, k, mn
            )
            if status == "ok":
                out[key] = res
            elif status == "retry":
                grow.append((key, blk))
            else:
                exact.setdefault(shape, []).append(key)
        # Growth retry per tile; ``_tile_omega2`` reproduces the draw
        # the per-tile path's second loop iteration reads (the stream
        # position right after round 1), so the grown sketch is
        # bit-identical without replaying round 1.
        k2 = min(2 * k, mn)
        for key, blk in grow:
            q, _ = _thin_qr_fast(blk @ _tile_omega2(_tile_seed(key), n, k, k2))
            status, res = _certify_sketch(q, blk, tol, cap, k2, mn)
            if status == "ok":
                out[key] = res
            else:
                exact.setdefault(shape, []).append(key)

    # Exact truncated SVD, one stacked gesdd per shape.
    for shape, group in exact.items():
        cap = _cap(shape)
        astack = np.stack(
            [np.asarray(blocks[key], dtype=np.float64) for key in group]
        )
        uu, s, vt = np.linalg.svd(astack, full_matrices=False)
        for p, key in enumerate(group):
            rank, _ = frobenius_rank(s[p], tol)
            if rank > cap:
                out[key] = (rank, None, None)
            else:
                out[key] = (
                    rank,
                    uu[p][:, :rank] * s[p][:rank],
                    vt[p][:rank, :].T,
                )
    return out


def compress_block(
    a: np.ndarray,
    tol: float,
    max_rank: int | None = None,
    precision: Precision = Precision.FP64,
) -> LowRankTile:
    """Compress a dense float block into a :class:`LowRankTile`."""
    u, v, _ = truncated_svd(a, tol, max_rank)
    return LowRankTile(u, v, precision)


def compress_tile(
    tile: DenseTile,
    tol: float,
    max_rank: int | None = None,
    precision: Precision | None = None,
) -> LowRankTile:
    """Compress a :class:`DenseTile`, defaulting to its precision."""
    return compress_block(
        tile.to_dense64(), tol, max_rank, precision or tile.precision
    )


# ----------------------------------------------------------------------
# Raw LAPACK for the sketch: no ``numpy.linalg`` wrapper overhead.
# ----------------------------------------------------------------------

_probe = np.empty(0, dtype=np.float64)
_geqrf, _orgqr = get_lapack_funcs(("geqrf", "orgqr"), (_probe,))


def _thin_qr_fast(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economy QR of an ``(m, k)`` array with ``k <= m`` via
    ``geqrf``/``orgqr``; returns ``(q, r)`` and raises
    :class:`~repro.exceptions.CompressionError` on a LAPACK failure."""
    k = a.shape[1]
    qr_, tau, _, info = _geqrf(a)
    if info != 0:
        raise CompressionError(f"geqrf failed with info={info}")
    r = np.triu(qr_[:k])
    q, _, info = _orgqr(qr_[:, :k], tau)
    if info != 0:
        raise CompressionError(f"orgqr failed with info={info}")
    return q, r
