"""The benchmark's workloads: seeded inputs, set-up, one timed
operation, and the dense FP64 reference check.

Each workload calls only the program's public API and sets no
execution knob (``workers``, ``fast_lr``, ``batch``, ``backend``), so
a change of a default shows in the numbers and removing a knob does
not break the benchmark.  Inputs are drawn from the seed by the
benchmark; the program receives only the arrays.  Why each workload
exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy import special
from scipy.spatial.distance import cdist

from repro.core import EvaluationEngine, ExaGeoStatModel
from repro.data import soil_moisture_surrogate
from repro.kernels import ExponentialKernel, MaternKernel
from repro.ordering import order_points

TILE_SIZE = 60
N_TRAIN = 1800

#: Reference-check tolerances.  Log-likelihood: relative error against
#: the dense SciPy log-likelihood.  Kriging: absolute error against
#: dense SciPy kriging, in units of the field's standard deviation
#: (mean) and variance (prediction variance).  Both references build
#: their covariance with the functions below, not the program's kernels.
LOGLIK_RELTOL = 1.0e-6
MEAN_TOL_SIGMA = 1.0e-5
VAR_TOL_SIGMA2 = 1.0e-6


def exponential_covariance(theta, x1, x2) -> np.ndarray:
    """``variance * exp(-d / range)`` in plain NumPy/SciPy, independent
    of the program's kernel code."""
    d = cdist(x1, x2)
    d /= -theta[1]
    np.exp(d, out=d)
    d *= theta[0]
    return d


def matern_covariance(theta, x1, x2) -> np.ndarray:
    """``variance * 2^(1-nu)/Gamma(nu) * r^nu * K_nu(r)`` with
    ``r = d / range`` and 1 at ``r = 0``, straight from
    ``scipy.special.kv``, independent of the program's kernel code."""
    variance, rng, nu = theta
    r = cdist(x1, x2) / rng
    with np.errstate(invalid="ignore"):
        corr = 2.0 ** (1.0 - nu) / special.gamma(nu) * r**nu * special.kv(nu, r)
    corr[r == 0.0] = 1.0
    return variance * corr


def dense_loglik(cov, z) -> float:
    """Gaussian log-likelihood of ``z`` under ``cov`` by dense SciPy
    Cholesky."""
    low = sla.cholesky(cov, lower=True, overwrite_a=True, check_finite=False)
    y = sla.solve_triangular(low, z, lower=True, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    return -0.5 * (len(z) * np.log(2.0 * np.pi) + logdet + float(y @ y))


def exponential_field(rng, x, theta) -> np.ndarray:
    """One exact Gaussian-field draw at ``x`` (dense Cholesky)."""
    cov = exponential_covariance(theta, x, x)
    cov[np.diag_indices_from(cov)] += 1.0e-10
    low = sla.cholesky(cov, lower=True, overwrite_a=True, check_finite=False)
    return low @ rng.standard_normal(len(x))


def theta_trace(rng, theta0, count: int = 64, jitter: float = 0.05):
    """Fixed seeded theta trace around ``theta0``: multiplicative
    log-normal steps, like the late iterates of an optimizer.  A fixed
    trace replaces a budgeted fit, whose path (and so its cost) would
    move with any change to rounding."""
    theta0 = np.asarray(theta0, dtype=np.float64)
    return theta0 * np.exp(jitter * rng.standard_normal((count, theta0.size)))


class LikelihoodWorkload:
    """``mle-*``: one :class:`EvaluationEngine` (the object ``fit_mle``
    uses) evaluates a seeded theta trace; one operation is one warm
    evaluation."""

    kind = "mle"
    unit = "evaluations"
    min_ops = 3
    #: The set-ups leave the engine warm (geometry cached, rank hints).
    warmup = 0
    #: Every timed evaluation keeps its (theta, value) for the check.
    sample_every = 1

    def __init__(self, name, kernel_cls, covariance, variant, theta0, expect,
                 forbid=()):
        self.name = name
        self.kernel_cls = kernel_cls
        #: The reference covariance: independent of ``kernel_cls``.
        self.covariance = covariance
        self.variant = variant
        self.theta0 = np.asarray(theta0, dtype=np.float64)
        #: Layers that must record calls in the traced timed section,
        #: and layers that must record none anywhere in the run.
        self.expect = expect
        self.forbid = forbid

    def inputs(self, seed: int, n: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        if self.kernel_cls is MaternKernel:
            data = soil_moisture_surrogate(n_train=n, n_test=10, seed=seed)
            x, z = data.x_train, data.z_train
        else:
            x = rng.random((n, 2))
            z = exponential_field(rng, x, self.theta0)
        perm = order_points(x, "morton")
        return {
            "x": x[perm], "z": z[perm],
            "thetas": theta_trace(rng, self.theta0),
        }

    def setup(self, inp: dict):
        engine = EvaluationEngine(
            self.kernel_cls(), inp["x"], inp["z"],
            tile_size=TILE_SIZE, variant=self.variant,
        )
        value = engine.evaluate(self.theta0).value
        return engine, (self.theta0, value)

    def requests(self, inp: dict):
        thetas = inp["thetas"]
        i = 0
        while True:
            yield thetas[i % len(thetas)]
            i += 1

    def run(self, engine, theta):
        """One timed operation; returns what the check needs."""
        return theta, engine.evaluate(theta).value

    def items_per_op(self, inp: dict) -> int:
        """Training locations one evaluation covers."""
        return len(inp["z"])

    def check(self, inp: dict, samples: list) -> list[tuple[bool, dict]]:
        """``(ok, errors)`` of the set-up value and of the first, middle
        and last timed evaluation."""
        picked = {0, 1, len(samples) // 2, len(samples) - 1}
        out = []
        for idx in sorted(i for i in picked if 0 <= i < len(samples)):
            theta, value = samples[idx]
            cov = self.covariance(theta, inp["x"], inp["x"])
            ref = dense_loglik(cov, inp["z"])
            err = float(abs(value - ref) / abs(ref))
            out.append((err <= LOGLIK_RELTOL, {"loglik_relerr": err}))
        return out

    def counters(self, state) -> dict:
        return {}


class ServingWorkload:
    """``serve-exp-tlr``: a closed loop with one caller against
    ``ExaGeoStatModel.predict``; one operation is one request of
    ``batch`` locations with uncertainty."""

    kind = "serve"
    unit = "requests"
    #: p99 must have at least ten samples beyond it.
    min_ops = 1000
    #: Untimed requests that fill the cross-covariance LRU first.
    warmup = 64
    #: Every 50th request keeps its outputs for the reference check.
    sample_every = 50
    #: The ``n_test=100`` prediction sets of the repository's experiments.
    batch = 100
    #: An assumed mix (no request trace exists), chosen only so that the
    #: cross-covariance LRU is both hit and evicted; see README.md.
    hot_batches = 16
    hot_share = 0.25
    theta0 = np.array([1.0, 0.1])
    kernel_cls = ExponentialKernel
    variant = "mp-dense-tlr"
    expect = ("kernels", "geometry", "solve", "serving", "model")
    forbid = ()

    name = "serve-exp-tlr"

    def inputs(self, seed: int, n: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        x = rng.random((n, 2))
        z = exponential_field(rng, x, self.theta0)
        hot = [rng.random((self.batch, 2)) for _ in range(self.hot_batches)]
        return {
            "x": x, "z": z, "hot": hot,
            "first": rng.random((self.batch, 2)),
            "stream_seed": [seed, 3],
        }

    def setup(self, inp: dict):
        model = ExaGeoStatModel(
            self.kernel_cls(), self.variant, tile_size=TILE_SIZE
        )
        model.set_params(self.theta0, inp["x"], inp["z"])
        pred = model.predict(inp["first"], return_uncertainty=True)
        return model, (inp["first"], pred.mean.copy(), pred.variance.copy())

    def requests(self, inp: dict):
        """75% fresh uniform batches, 25% re-queries of a hot set."""
        rng = np.random.default_rng(inp["stream_seed"])
        hot = inp["hot"]
        while True:
            if rng.random() < self.hot_share:
                yield hot[int(rng.integers(len(hot)))]
            else:
                yield rng.random((self.batch, 2))

    def run(self, model, x_new):
        pred = model.predict(x_new, return_uncertainty=True)
        return x_new, pred.mean, pred.variance

    def items_per_op(self, inp: dict) -> int:
        """Locations one request predicts."""
        return self.batch

    def counters(self, model) -> dict:
        """The serving engine's own amortization counters."""
        return vars(model.serving_engine().stats())

    def check(self, inp: dict, samples: list) -> list[tuple[bool, dict]]:
        """Dense NumPy kriging of the sampled requests: ``(ok, errors)``
        each, errors in units of sigma (mean) and sigma^2 (variance)."""
        x, z = inp["x"], inp["z"]
        cov = exponential_covariance(self.theta0, x, x)
        low = sla.cholesky(cov, lower=True, check_finite=False)
        weights = sla.cho_solve((low, True), z, check_finite=False)
        sigma2 = self.theta0[0]
        out = []
        for x_new, mean, var in samples:
            cross = exponential_covariance(self.theta0, x, x_new)
            half = sla.solve_triangular(low, cross, lower=True,
                                        check_finite=False)
            ref_mean = cross.T @ weights
            ref_var = sigma2 - np.einsum("ij,ij->j", half, half)
            mean_err = float(np.max(np.abs(mean - ref_mean)) / np.sqrt(sigma2))
            var_err = float(np.max(np.abs(var - ref_var)) / sigma2)
            ok = mean_err <= MEAN_TOL_SIGMA and var_err <= VAR_TOL_SIGMA2
            out.append((ok, {"mean_err": mean_err, "var_err": var_err}))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        LikelihoodWorkload(
            "mle-exp-tlr", ExponentialKernel, exponential_covariance,
            "mp-dense-tlr", (1.0, 0.1),
            expect=("kernels", "geometry", "compression", "assembly",
                    "factorize", "solve", "engine"),
        ),
        LikelihoodWorkload(
            "mle-matern-mp", MaternKernel, matern_covariance,
            "mp-dense", (0.672, 0.173, 0.4358),
            expect=("kernels", "geometry", "assembly", "factorize",
                    "solve", "engine"),
            forbid=("compression",),
        ),
        ServingWorkload(),
    )
}
