"""Vector database generators.

``uniform_vectors`` regenerates the paper's Table 3 workload (uniform on
the unit cube); the others provide controlled intrinsic dimensionality for
the sample-database analogues and for dimension-estimation examples.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "uniform_vectors",
    "gaussian_vectors",
    "latent_manifold_vectors",
]


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


def uniform_vectors(
    n: int, d: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Return ``n`` points uniform on the ``d``-dimensional unit cube.

    This is the paper's standard test distribution: "10^6 uniformly chosen
    from the unit cube" (Table 3).
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return _rng(rng).random((n, d))


def gaussian_vectors(
    n: int,
    d: int,
    rng: Optional[np.random.Generator] = None,
    spectrum: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Return Gaussian points, optionally with a decaying axis spectrum.

    ``spectrum`` gives per-axis standard deviations; a fast-decaying
    spectrum yields data whose effective dimension is far below ``d``
    (used for the ``nasa`` analogue).
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    points = _rng(rng).standard_normal((n, d))
    if spectrum is not None:
        scales = np.asarray(spectrum, dtype=np.float64)
        if scales.shape != (d,):
            raise ValueError(f"spectrum must have length {d}")
        points *= scales[None, :]
    return points


def latent_manifold_vectors(
    n: int,
    ambient_dim: int,
    latent_dim: int,
    noise: float = 0.01,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Return points on a smooth ``latent_dim``-manifold in ``R^ambient_dim``.

    A random linear lift of sinusoidally-warped latent coordinates plus
    small isotropic noise; the intrinsic dimension is approximately
    ``latent_dim`` regardless of ``ambient_dim`` (used for the ``colors``
    analogue, whose 112-dimensional histograms have ρ≈2.7).
    """
    if latent_dim < 1 or latent_dim > ambient_dim:
        raise ValueError("need 1 <= latent_dim <= ambient_dim")
    generator = _rng(rng)
    latent = generator.random((n, latent_dim))
    # Nonlinear features of the latent coordinates keep the support curved.
    features = np.hstack([latent, np.sin(2.0 * np.pi * latent)])
    lift = generator.standard_normal((features.shape[1], ambient_dim))
    lift /= np.linalg.norm(lift, axis=1, keepdims=True)
    points = features @ lift
    points += noise * generator.standard_normal((n, ambient_dim))
    return points
