"""Cross-module property-based tests (hypothesis) on the core
numerical invariants of the system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import MaternKernel
from repro.ordering import order_points
from repro.runtime import SimConfig, build_dag, cholesky_tasks, simulate_tasks, validate_schedule
from repro.tile import (
    backward_solve,
    build_planned_covariance,
    forward_solve,
    tile_cholesky,
    tile_logdet,
)

KERNEL = MaternKernel()


def make_problem(seed, n, correlation):
    gen = np.random.default_rng(seed)
    x = gen.uniform(size=(n, 2))
    x = x[order_points(x, "morton")]
    theta = np.array([1.0, correlation, 0.5])
    return x, theta


@st.composite
def problem_configs(draw):
    return dict(
        seed=draw(st.integers(0, 10_000)),
        n=draw(st.integers(60, 220)),
        tile=draw(st.sampled_from([16, 25, 40, 64])),
        correlation=draw(st.sampled_from([0.03, 0.1, 0.3])),
        use_mp=draw(st.booleans()),
        use_tlr=draw(st.booleans()),
    )


class TestFactorizationProperties:
    @given(cfg=problem_configs())
    @settings(max_examples=15, deadline=None)
    def test_llt_reconstruction(self, cfg):
        """L L^T ~= Sigma within the variant's accuracy budget."""
        x, theta = make_problem(cfg["seed"], cfg["n"], cfg["correlation"])
        mat, rep = build_planned_covariance(
            KERNEL, theta, x, cfg["tile"], nugget=1e-8,
            use_mp=cfg["use_mp"], use_tlr=cfg["use_tlr"],
            band_size=2 if cfg["use_tlr"] else 1,
        )
        sigma = KERNEL.covariance_matrix(theta, x, nugget=1e-8)
        fac, _ = tile_cholesky(mat)
        low = fac.to_dense(lower_only=True)
        rel = np.linalg.norm(low @ low.T - sigma) / np.linalg.norm(sigma)
        budget = 1e-12 if not (cfg["use_mp"] or cfg["use_tlr"]) else 1e-4
        assert rel < budget

    @given(cfg=problem_configs())
    @settings(max_examples=10, deadline=None)
    def test_solve_residual(self, cfg):
        x, theta = make_problem(cfg["seed"], cfg["n"], cfg["correlation"])
        mat, rep = build_planned_covariance(
            KERNEL, theta, x, cfg["tile"], nugget=1e-8,
            use_mp=cfg["use_mp"], use_tlr=cfg["use_tlr"],
            band_size=2 if cfg["use_tlr"] else 1,
        )
        sigma = KERNEL.covariance_matrix(theta, x, nugget=1e-8)
        fac, _ = tile_cholesky(mat)
        gen = np.random.default_rng(cfg["seed"] + 1)
        b = gen.standard_normal(cfg["n"])
        sol = backward_solve(fac, forward_solve(fac, b))
        rel = np.linalg.norm(sigma @ sol - b) / np.linalg.norm(b)
        assert rel < 1e-3

    @given(cfg=problem_configs())
    @settings(max_examples=10, deadline=None)
    def test_logdet_close_to_reference(self, cfg):
        x, theta = make_problem(cfg["seed"], cfg["n"], cfg["correlation"])
        mat, rep = build_planned_covariance(
            KERNEL, theta, x, cfg["tile"], nugget=1e-8,
            use_mp=cfg["use_mp"], use_tlr=cfg["use_tlr"],
            band_size=2 if cfg["use_tlr"] else 1,
        )
        sigma = KERNEL.covariance_matrix(theta, x, nugget=1e-8)
        fac, _ = tile_cholesky(mat)
        _, ref = np.linalg.slogdet(sigma)
        assert tile_logdet(fac) == pytest.approx(ref, abs=0.5)


class TestMemoryMonotonicity:
    @given(
        seed=st.integers(0, 1000),
        correlation=st.sampled_from([0.03, 0.1]),
    )
    @settings(max_examples=8, deadline=None)
    def test_approximations_never_increase_memory(self, seed, correlation):
        x, theta = make_problem(seed, 160, correlation)
        sizes = {}
        for name, kwargs in (
            ("dense", {}),
            ("mp", dict(use_mp=True)),
            ("mp+tlr", dict(use_mp=True, use_tlr=True, band_size=2)),
        ):
            mat, _ = build_planned_covariance(
                KERNEL, theta, x, 40, nugget=1e-8, **kwargs
            )
            sizes[name] = mat.nbytes
        assert sizes["mp"] <= sizes["dense"]
        assert sizes["mp+tlr"] <= sizes["dense"]


class TestSimulatorProperties:
    @given(
        nt=st.integers(2, 8),
        nodes=st.sampled_from([1, 2, 4, 6]),
        priority=st.sampled_from(["upward", "panel"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_config_schedules_validly(self, nt, nodes, priority):
        from repro.tile import TileLayout
        from repro.tile.decisions import TilePlan
        from repro.tile.precision import Precision

        layout = TileLayout(nt * 32, 32)
        plan = TilePlan(
            layout,
            {k: Precision.FP64 for k in layout.lower_tiles()},
            {k: False for k in layout.lower_tiles()},
        )
        tasks = list(cholesky_tasks(nt))
        dag = build_dag(tasks)
        trace = simulate_tasks(
            tasks, layout, plan,
            SimConfig(nodes=nodes, priority=priority), dag=dag,
        )
        start, end = trace.start_end_maps()
        validate_schedule(dag, start, end)
        assert len(trace.records) == len(tasks)
