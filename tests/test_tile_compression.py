"""Unit + property tests for low-rank compression primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CompressionError
from repro.tile import DenseTile, Precision
from repro.tile.compression import (
    compress_block,
    compress_many,
    compress_or_rank,
    compress_tile,
    rank_of_block,
    truncated_svd,
)


def low_rank_matrix(rng, m=30, n=24, rank=5, scale=1.0):
    return scale * (rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)))


class TestTruncatedSVD:
    def test_error_within_tolerance(self, rng):
        a = rng.standard_normal((30, 30))
        tol = 0.5 * np.linalg.norm(a)
        u, v, err = truncated_svd(a, tol)
        assert np.linalg.norm(a - u @ v.T) <= tol + 1e-12
        assert err <= tol

    def test_exact_rank_recovery(self, rng):
        a = low_rank_matrix(rng, rank=4)
        u, v, err = truncated_svd(a, 1e-10)
        assert u.shape[1] == 4
        assert err < 1e-10

    def test_zero_matrix_rank_zero(self):
        u, v, err = truncated_svd(np.zeros((8, 6)), 1e-12)
        assert u.shape == (8, 0) and v.shape == (6, 0)
        assert err == 0.0

    def test_max_rank_violation_raises(self, rng):
        a = rng.standard_normal((20, 20))
        with pytest.raises(CompressionError):
            truncated_svd(a, 1e-14, max_rank=2)

    def test_rank_monotone_in_tolerance(self, rng):
        a = rng.standard_normal((25, 25))
        norm = np.linalg.norm(a)
        ranks = [
            truncated_svd(a, f * norm)[0].shape[1]
            for f in (1e-12, 1e-6, 1e-2, 0.5)
        ]
        assert ranks == sorted(ranks, reverse=True)

    @given(rank=st.integers(0, 8), tol_factor=st.floats(1e-10, 0.3))
    @settings(max_examples=25, deadline=None)
    def test_property_error_bound(self, rank, tol_factor):
        rng = np.random.default_rng(rank * 1000 + 1)
        a = (
            low_rank_matrix(rng, rank=rank)
            if rank
            else np.zeros((30, 24))
        )
        a = a + 1e-6 * rng.standard_normal(a.shape)
        tol = tol_factor * max(np.linalg.norm(a), 1e-30)
        u, v, err = truncated_svd(a, tol)
        assert np.linalg.norm(a - u @ v.T) <= tol * (1 + 1e-9)


class TestRankOfBlock:
    def test_matches_truncated_svd(self, rng):
        a = rng.standard_normal((20, 20))
        tol = 0.1 * np.linalg.norm(a)
        u, _, _ = truncated_svd(a, tol)
        assert rank_of_block(a, tol) == u.shape[1]


class TestCompressTile:
    def test_compress_block_returns_lowrank(self, rng):
        a = low_rank_matrix(rng, rank=3)
        t = compress_block(a, 1e-10, precision=Precision.FP32)
        assert t.rank == 3
        assert t.precision is Precision.FP32

    def test_compress_tile_inherits_precision(self, rng):
        dense = DenseTile(low_rank_matrix(rng, rank=2), Precision.FP32)
        lr = compress_tile(dense, 1e-8)
        assert lr.precision is Precision.FP32


class TestWarmSketch:
    @staticmethod
    def cross_block(seed):
        """Exponential covariance between two neighbouring point
        clusters: numerically low-rank, norm ~30, so a tile tolerance
        of ~3e-7 sits near sqrt(eps) * ||A||."""
        from scipy.spatial.distance import cdist

        gen = np.random.default_rng(seed)
        x1 = gen.random((60, 2)) * 0.2
        x2 = gen.random((60, 2)) * 0.2 + [0.2 + 0.1 * gen.random(), 0.0]
        return np.exp(-cdist(x1, x2) / 0.1)

    def test_certified_within_tolerance(self):
        """The warm-started sketch never exceeds the tolerance it
        certifies, even where the certificate's terms are at the
        rounding floor of ||A||^2."""
        tol = 3e-7
        checked = 0
        for seed in range(40):
            a = self.cross_block(seed)
            hint = compress_or_rank(a, tol, max_rank=30)[0]
            _, u, v = compress_or_rank(
                a, tol, max_rank=30, hint=hint,
                key=(seed, 0),
            )
            if u is not None:  # over-cap tiles build no factors
                checked += 1
                assert np.linalg.norm(a - u @ v.T) <= tol, seed
        assert checked >= 30

    def test_batched_matches_per_tile(self):
        """compress_many with warm hints is bit-identical to
        compress_or_rank per tile with the same keys."""
        blocks = {(i + 2, i): self.cross_block(i) for i in range(6)}
        keys = list(blocks)
        tol = 3e-7
        hints = {k: compress_or_rank(b, tol)[0] for k, b in blocks.items()}
        hints[keys[0]] = 45  # stale over-cap hint: values-only path
        many = compress_many(blocks, keys, tol, max_rank=30, hints=hints)
        for key in keys:
            one = compress_or_rank(
                blocks[key], tol, max_rank=30, hint=hints[key],
                key=key,
            )
            assert one[0] == many[key][0]
            for got, want in zip(many[key][1:], one[1:]):
                np.testing.assert_array_equal(got, want)
