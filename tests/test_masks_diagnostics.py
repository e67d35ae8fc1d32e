"""Tests for missing-data masks and tiled diagnostics."""

import numpy as np
import pytest

from repro.data import apply_mask, band_mask, disk_mask, random_mask
from repro.exceptions import ShapeError
from repro.tile import (
    build_planned_covariance,
    condition_estimate,
    power_norm_estimate,
    tile_cholesky,
)
from tests.conftest import random_spd_tilematrix


class TestMasks:
    def test_random_mask_fraction(self):
        m = random_mask(1000, 0.2, seed=1)
        assert m.sum() == 200

    def test_random_mask_seeded(self):
        np.testing.assert_array_equal(
            random_mask(100, 0.3, seed=2), random_mask(100, 0.3, seed=2)
        )

    def test_random_mask_bad_fraction(self):
        with pytest.raises(ShapeError):
            random_mask(10, 0.0)

    def test_disk_mask_geometry(self, rng):
        x = rng.uniform(size=(500, 2))
        m = disk_mask(x, [0.5, 0.5], 0.2)
        d = np.linalg.norm(x - [0.5, 0.5], axis=1)
        np.testing.assert_array_equal(m, d <= 0.2)

    def test_disk_mask_validation(self, rng):
        with pytest.raises(ShapeError):
            disk_mask(rng.uniform(size=(5, 2)), [0.5], 0.1)
        with pytest.raises(ShapeError):
            disk_mask(rng.uniform(size=(5, 2)), [0.5, 0.5], 0.0)

    def test_band_mask(self, rng):
        x = rng.uniform(size=(200, 2))
        m = band_mask(x, axis=1, low=0.3, high=0.5)
        assert np.all((x[m, 1] >= 0.3) & (x[m, 1] <= 0.5))

    def test_apply_mask_partition(self, rng):
        x = rng.uniform(size=(50, 2))
        z = rng.standard_normal(50)
        m = random_mask(50, 0.2, seed=3)
        xo, zo, xm, zm = apply_mask(x, z, m)
        assert len(xo) + len(xm) == 50
        assert len(zo) == len(xo) and len(zm) == len(xm)

    def test_apply_mask_rejects_degenerate(self, rng):
        x = rng.uniform(size=(10, 2))
        z = rng.standard_normal(10)
        with pytest.raises(ShapeError):
            apply_mask(x, z, np.ones(10, dtype=bool))

    def test_cloud_gap_prediction_harder_than_random(self, matern):
        """Kriging MSPE under a contiguous cloud gap exceeds MSPE under
        random missingness of the same size — the structured-gap
        regime."""
        from repro.core import kriging_predict, loglikelihood
        from repro.data import sample_gaussian_field
        from repro.ordering import order_points

        theta = np.array([1.0, 0.1, 0.5])
        gen = np.random.default_rng(7)
        x = gen.uniform(size=(500, 2))
        x = x[order_points(x, "morton")]
        z = sample_gaussian_field(matern, theta, x, seed=8)

        cloud = disk_mask(x, [0.5, 0.5], 0.15)
        n_gap = int(cloud.sum())
        rand = random_mask(500, n_gap / 500, seed=9)

        def gap_mspe(mask):
            xo, zo, xm, zm = apply_mask(x, z, mask)
            fac = loglikelihood(
                matern, theta, xo, zo, tile_size=50, nugget=1e-10
            ).factor
            pred = kriging_predict(matern, theta, xo, zo, xm, fac)
            return float(np.mean((pred.mean - zm) ** 2))

        assert gap_mspe(cloud) > gap_mspe(rand)


class TestDiagnostics:
    def test_power_norm_matches_eigh(self):
        tm = random_spd_tilematrix(60, 15, seed=1)
        lam = power_norm_estimate(tm, iterations=60)
        ref = np.linalg.eigvalsh(tm.to_dense()).max()
        assert lam == pytest.approx(ref, rel=1e-3)

    def test_condition_matches_numpy(self):
        tm = random_spd_tilematrix(60, 15, seed=2)
        fac, _ = tile_cholesky(tm.copy())
        cond = condition_estimate(tm, fac, iterations=80)
        ref = np.linalg.cond(tm.to_dense())
        assert cond == pytest.approx(ref, rel=0.05)

    def test_condition_on_covariance(self, matern, locations_200):
        """Stronger correlation -> worse conditioning (the regime where
        precision loss bites, per the paper's Fig. 6 discussion)."""
        conds = {}
        for label, rng_ in (("weak", 0.03), ("strong", 0.3)):
            theta = np.array([1.0, rng_, 0.5])
            mat, rep = build_planned_covariance(
                matern, theta, locations_200, 40, nugget=1e-8
            )
            fac, _ = tile_cholesky(mat.copy())
            conds[label] = condition_estimate(mat, fac, iterations=40)
        assert conds["strong"] > conds["weak"]

    def test_dimension_check(self):
        tm = random_spd_tilematrix(30, 15, seed=3)
        other = random_spd_tilematrix(45, 15, seed=4)
        fac, _ = tile_cholesky(other)
        with pytest.raises(ShapeError):
            condition_estimate(tm, fac)

    def test_iterations_validated(self):
        tm = random_spd_tilematrix(30, 15, seed=5)
        with pytest.raises(ShapeError):
            power_norm_estimate(tm, iterations=0)
