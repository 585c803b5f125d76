"""Tests for vector database generators."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import clustered_vectors

from repro.datasets.vectors import (
    gaussian_vectors,
    latent_manifold_vectors,
    uniform_vectors,
)


class TestUniform:
    def test_shape_and_range(self, rng):
        points = uniform_vectors(100, 5, rng)
        assert points.shape == (100, 5)
        assert points.min() >= 0.0
        assert points.max() <= 1.0

    def test_deterministic_with_seed(self):
        a = uniform_vectors(10, 3, np.random.default_rng(1))
        b = uniform_vectors(10, 3, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            uniform_vectors(0, 3)
        with pytest.raises(ValueError):
            uniform_vectors(3, 0)


class TestGaussian:
    def test_shape(self, rng):
        assert gaussian_vectors(50, 4, rng).shape == (50, 4)

    def test_spectrum_scales_axes(self, rng):
        spectrum = [10.0, 0.1]
        points = gaussian_vectors(3000, 2, rng, spectrum=spectrum)
        assert points[:, 0].std() > 20 * points[:, 1].std()

    def test_spectrum_length_checked(self, rng):
        with pytest.raises(ValueError):
            gaussian_vectors(10, 3, rng, spectrum=[1.0, 2.0])

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            gaussian_vectors(0, 3)


class TestClustered:
    def test_shape(self, rng):
        assert clustered_vectors(40, 3, n_clusters=4, rng=rng).shape == (40, 3)

    def test_tight_spread_concentrates(self, rng):
        points = clustered_vectors(500, 2, n_clusters=3, spread=1e-4, rng=rng)
        # With three tiny clusters, round to find at most 3 distinct cells.
        rounded = np.round(points, 2)
        assert len(np.unique(rounded, axis=0)) <= 3 + 20  # small spill allowed

    def test_rejects_no_clusters(self, rng):
        with pytest.raises(ValueError):
            clustered_vectors(10, 2, n_clusters=0, rng=rng)


class TestLatentManifold:
    def test_shape(self, rng):
        assert latent_manifold_vectors(30, 20, 2, rng=rng).shape == (30, 20)

    def test_low_rank_up_to_noise(self, rng):
        points = latent_manifold_vectors(400, 30, 2, noise=0.0, rng=rng)
        centered = points - points.mean(axis=0)
        singular = np.linalg.svd(centered, compute_uv=False)
        # 2 latent dims -> 4 feature dims (sin lift) bound the rank.
        assert singular[4] < 1e-8 * singular[0]

    def test_rejects_bad_latent_dim(self, rng):
        with pytest.raises(ValueError):
            latent_manifold_vectors(10, 5, 6, rng=rng)
        with pytest.raises(ValueError):
            latent_manifold_vectors(10, 5, 0, rng=rng)

    def test_deterministic(self):
        a = latent_manifold_vectors(15, 10, 3, rng=np.random.default_rng(2))
        b = latent_manifold_vectors(15, 10, 3, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(a, b)
