"""Flop and byte counts of the tile kernels, dense and TLR.

These formulas drive the structure-aware decision (dense vs TLR,
Section VI-B / Fig. 5 of the paper) and the discrete-event simulator.
Dense counts follow standard LAPACK conventions; the TLR GEMM count
follows the HiCMA update: form the low-rank product, then recompress
the sum with QR factorizations of the stacked factors plus an SVD of
the small core.
"""

from __future__ import annotations

__all__ = [
    "dense_gemm_flops",
    "dense_trsm_flops",
    "dense_syrk_flops",
    "dense_potrf_flops",
    "lr_product_flops",
    "lr_recompress_flops",
    "tlr_gemm_flops",
    "tlr_trsm_flops",
    "dense_gemm_bytes",
    "tlr_gemm_bytes",
]

#: LAPACK-style constant for the small-core SVD inside recompression.
_SVD_CONST = 22.0


def dense_gemm_flops(b: int, k: int | None = None) -> float:
    """``C (b x b) -= A (b x k) @ B (b x k).T``; ``k`` defaults to b."""
    k = b if k is None else k
    return 2.0 * b * b * k


def dense_trsm_flops(m: int, b: int) -> float:
    """``A (m x b) <- A @ L^{-T}`` with triangular ``L (b x b)``."""
    return float(m) * b * b


def dense_syrk_flops(b: int, k: int | None = None) -> float:
    """``C (b x b, symmetric) -= A (b x k) @ A.T``."""
    k = b if k is None else k
    return float(b) * (b + 1) * k


def dense_potrf_flops(b: int) -> float:
    """Cholesky of one ``b x b`` tile."""
    return b**3 / 3.0 + b * b / 2.0


def lr_product_flops(b: int, ra: int, rb: int) -> float:
    """Low-rank x low-rank product ``(Ua Va^T)(Ub Vb^T)^T``:
    one ``b x ra`` by ``b x rb`` inner product plus folding the small
    core into the thinner factor."""
    core = 2.0 * b * ra * rb
    fold = 2.0 * b * ra * rb / max(ra, rb, 1) * min(ra, rb)
    return core + fold


def lr_recompress_flops(b: int, k: int, rank_out: int | None = None) -> float:
    """QR-of-stacked-factors recompression of a rank-``k``
    representation of a ``b x b`` tile down to ``rank_out``."""
    rank_out = k if rank_out is None else rank_out
    qr = 2.0 * (2.0 * b * k * k)  # two thin QRs (U and V stacks)
    svd = _SVD_CONST * k**3
    form = 2.0 * (2.0 * b * k * rank_out)
    return qr + svd + form


def tlr_gemm_flops(
    b: int, ra: int, rb: int, rc: int, rank_out: int | None = None
) -> float:
    """TLR GEMM ``C (LR, rank rc) -= A (LR, ra) @ B (LR, rb).T``
    including the recompression of the stacked sum.

    This is the paper's (HiCMA) update cost, kept so the structure
    decision and band tuning follow the paper.  The runtime's update
    (:func:`repro.tile.kernels.gemm`) stacks factors exactly and does
    no recompression, so these are modeled, not executed, flops."""
    rn = min(ra, rb)
    stacked = rc + rn
    rank_out = rc if rank_out is None else rank_out
    return lr_product_flops(b, ra, rb) + lr_recompress_flops(b, stacked, rank_out)


def tlr_trsm_flops(b: int, rank: int) -> float:
    """TRSM applied to the ``V`` factor of a low-rank tile."""
    return float(rank) * b * b


def dense_gemm_bytes(b: int, itemsize: int, k: int | None = None) -> float:
    """Memory traffic of a dense GEMM: read A, B, read+write C."""
    k = b if k is None else k
    return float(itemsize) * (2.0 * b * k + 2.0 * b * b)


def tlr_gemm_bytes(b: int, ra: int, rb: int, rc: int, itemsize: int) -> float:
    """Memory traffic of a TLR GEMM.  The factors are streamed several
    times (product, two QRs, reconstruction); the multiplier 4 matches
    the pass count of the recompression pipeline."""
    factors = b * (ra + rb) + 2.0 * b * (rc + min(ra, rb))
    return 4.0 * itemsize * factors
