"""Mixed-precision iterative refinement of tiled solves.

A factorization computed with low-precision / low-rank tiles gives a
slightly perturbed solve; classical iterative refinement recovers
working accuracy by iterating

    r = b - A x;   x <- x + solve(L, r)

with the *residual computed against the exact operator* (here: the
full-accuracy covariance applied tile-wise).  This is the standard
companion of mixed-precision factorizations (Higham et al.) and lets
the MP/TLR factor serve as a preconditioner-quality solver when the
application demands tighter residuals than the storage tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ShapeError
from .matrix import TileMatrix
from .solve import backward_solve, forward_solve, symmetric_matvec

__all__ = ["RefinementResult", "refine_solve"]


@dataclass
class RefinementResult:
    """Outcome of iterative refinement."""

    x: np.ndarray
    residual_norms: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else np.inf


def refine_solve(
    a_exact: TileMatrix,
    factor: TileMatrix,
    b: np.ndarray,
    *,
    tol: float = 1.0e-12,
    max_iter: int = 10,
) -> RefinementResult:
    """Solve ``A x = b`` with the (approximate) factor plus iterative
    refinement against the exact tiled operator ``a_exact``.

    ``tol`` is on the relative residual ``||b - A x|| / ||b||``.  At
    most ``max_iter`` corrections are applied, and the residual of every
    returned iterate is evaluated; ``iterations`` counts the corrections
    in the returned ``x``.  Diverging iterations (residual growth) stop
    early with ``converged = False``, returning the best iterate and its
    residual.
    """
    rhs = np.asarray(b, dtype=np.float64)
    if rhs.shape[0] != a_exact.n or factor.n != a_exact.n:
        raise ShapeError("dimension mismatch between operator, factor, rhs")
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return RefinementResult(
            x=np.zeros_like(rhs), residual_norms=[0.0],
            iterations=0, converged=True,
        )

    x = backward_solve(factor, forward_solve(factor, rhs))
    result = RefinementResult(x=x)
    prev = np.inf
    for it in range(max_iter + 1):
        residual = rhs - symmetric_matvec(a_exact, x)
        rel = float(np.linalg.norm(residual)) / b_norm
        if rel >= prev:
            # Stagnation/divergence: keep the previous (best) iterate,
            # so ``x`` and ``final_residual`` describe the same vector.
            break
        result.x = x
        result.residual_norms.append(rel)
        result.iterations = it
        if rel <= tol:
            result.converged = True
            break
        if it == max_iter:
            break
        prev = rel
        x = x + backward_solve(factor, forward_solve(factor, residual))
    return result
