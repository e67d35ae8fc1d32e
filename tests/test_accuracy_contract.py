"""Accuracy contract of the mp-dense-tlr likelihood (DESIGN.md §6).

A differential test against an independent dense reference — the
covariance from ``scipy.spatial.distance.cdist`` and the likelihood
from SciPy's Cholesky, sharing no code with the tile pipeline.  For
random geometries, parameters, tile sizes and point orderings it
checks, on every execution path (sequential, threaded, batched,
process), cold and warm-started alike:

* the backward error ``||L L^T - Sigma||_F <= eps ||Sigma||_F`` with
  ``eps = tlr_tol + 2 u_high``;
* the log-likelihood error against the perturbation bound that
  follows from it;
* bit-identity of every path with the sequential one, which is what
  DESIGN.md promises for the backends and the batched layer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.spatial.distance import cdist

from repro.core import loglikelihood
from repro.core.variants import get_variant
from repro.kernels import ExponentialKernel
from repro.ordering import order_points
from repro.runtime import ProcessPoolEngine
from repro.tile import leaked_segments

VARIANT = get_variant("mp-dense-tlr")
#: Relative Frobenius budget of the computed factor (DESIGN.md §6).
EPS = VARIANT.tlr_tol + 2.0 * VARIANT.mp_accuracy

PATHS = {
    "sequential": {},
    "thread": {"backend": "thread", "workers": 2},
    "batched": {"batch": True},
    "process": {"backend": "process", "workers": 2},
}


@pytest.fixture(scope="module")
def procpool():
    with ProcessPoolEngine(workers=2) as pool:
        yield pool
    assert leaked_segments() == []


def dense_reference(theta, x, z):
    """``(Sigma, loglik, z^T Sigma^-1 z)`` by SciPy alone."""
    sigma = theta[0] * np.exp(-cdist(x, x) / theta[1])
    low = sla.cholesky(sigma, lower=True, check_finite=False)
    y = sla.solve_triangular(low, z, lower=True, check_finite=False)
    quad = float(y @ y)
    loglik = (
        -0.5 * len(z) * np.log(2.0 * np.pi)
        - float(np.sum(np.log(np.diag(low))))
        - 0.5 * quad
    )
    return sigma, loglik, quad


def loglik_bound(sigma, quad, eps):
    """``|l_hat - l|`` bound for ``||E||_F <= eps ||Sigma||_F``:
    ``0.5 ||Sigma^-1|| eps ||Sigma||_F (sqrt(n) + z^T Sigma^-1 z) / (1 - eta)``
    with ``eta = ||Sigma^-1|| eps ||Sigma||_F`` (DESIGN.md §6)."""
    err = eps * np.linalg.norm(sigma)
    inv_norm = 1.0 / np.linalg.eigvalsh(sigma)[0]
    eta = inv_norm * err
    return 0.5 * inv_norm * err * (np.sqrt(len(sigma)) + quad) / (1.0 - eta), eta


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(120, 300),
    variance=st.floats(0.5, 2.0),
    length=st.floats(0.03, 0.3),
    tile=st.sampled_from([40, 60]),
    ordering=st.sampled_from(["morton", "hilbert", "random"]),
)
@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mp_dense_tlr_loglik_within_contract(
    procpool, seed, n, variance, length, tile, ordering
):
    gen = np.random.default_rng(seed)
    x = gen.random((n, 2))
    x = x[order_points(x, ordering, seed=seed)]
    theta = np.array([variance, length])
    sigma, _, _ = dense_reference(theta, x, np.zeros(n))
    z = np.linalg.cholesky(sigma) @ gen.standard_normal(n)
    sigma, ref, quad = dense_reference(theta, x, z)
    bound, eta = loglik_bound(sigma, quad, EPS)
    assume(eta < 0.5)  # first-order regime of the bound

    kern = ExponentialKernel()
    # Warm rank hints from a nearby iterate exercise the sketch.
    hints = loglikelihood(
        kern, theta * 1.05, x, z, tile_size=tile, variant=VARIANT
    ).report.ranks
    results = {}
    for name, knobs in PATHS.items():
        for warm in (None, hints):
            results[name, warm is not None] = loglikelihood(
                kern, theta, x, z, tile_size=tile, variant=VARIANT,
                rank_hints=warm,
                procpool=procpool if name == "process" else None, **knobs,
            )

    sigma_norm = np.linalg.norm(sigma)
    for key, res in results.items():
        low = np.tril(res.factor.to_dense(lower_only=True))
        backward = np.linalg.norm(low @ low.T - sigma)
        assert backward <= EPS * sigma_norm, key
        assert abs(res.value - ref) <= bound, key
    for warm in (False, True):
        base = results["sequential", warm].value
        for name in PATHS:
            assert results[name, warm].value == base, (name, warm)
