"""Comparison algorithms: Lloyd's K-means (with replicates and K-means++
seeding) and the Gaussian-kernel variant of the centroid pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centralized import ClusteringResult, Dataset, classify, distortion, run_centrex
from .statfn import KernelSpec

__all__ = [
    "KMeansConfig",
    "kmeans_lloyd",
    "kmeanspp_seed",
    "kmeans_replicated",
    "centrex_gaussian",
]


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    init: str = "uniform"  # "uniform" or "plusplus"
    replicates: int = 1
    max_iter: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.replicates < 1 or self.max_iter < 1:
            raise ValueError("k, replicates and max_iter must be positive")
        if self.init not in ("uniform", "plusplus"):
            raise ValueError(f"unknown init {self.init!r}")


def kmeanspp_seed(points, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-sampling seeds: first uniform, then proportional to the squared
    distance to the nearest already-chosen seed."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k > n:
        raise ValueError("k cannot exceed the number of points")
    seeds = [points[rng.integers(n)]]
    d2 = np.sum((points - seeds[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        seeds.append(points[idx])
        d2 = np.minimum(d2, np.sum((points - seeds[-1]) ** 2, axis=1))
    return np.asarray(seeds)


def _lloyd(points, centroids, max_iter):
    """Alternate assignment/update until assignments stabilize.

    Empty clusters are re-seeded from the point farthest from its centroid.
    """
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float).copy()
    k = centroids.shape[0]
    prev = None
    for it in range(1, max_iter + 1):
        assign = classify(points, centroids)
        dists = np.linalg.norm(points - centroids[assign], axis=1)
        for j in range(k):
            members = assign == j
            if not members.any():
                far = int(np.argmax(dists))
                centroids[j] = points[far]
                assign[far] = j
                dists[far] = 0.0
            else:
                centroids[j] = points[members].mean(axis=0)
        if prev is not None and np.array_equal(assign, prev):
            return centroids, assign, it
        prev = assign
    return centroids, prev, max_iter


def kmeans_lloyd(data: Dataset, config: KMeansConfig, rng=None) -> ClusteringResult:
    """One seeded K-means run on the raw points."""
    points = data.points
    if config.k > points.shape[0]:
        raise ValueError("k cannot exceed the number of points")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if config.init == "plusplus":
        seeds = kmeanspp_seed(points, config.k, rng)
    else:
        seeds = points[rng.choice(points.shape[0], size=config.k, replace=False)]
    centroids, assign, iters = _lloyd(points, seeds, config.max_iter)
    counts = np.bincount(assign, minlength=config.k)
    return ClusteringResult(
        centroids=centroids,
        assignments=assign,
        support_counts=counts,
        k_hat=config.k,
        iterations_per_centroid=[iters],
    )


def kmeans_replicated(data: Dataset, config: KMeansConfig) -> ClusteringResult:
    """Run `replicates` independent seeded K-means and keep the solution with
    the smallest distortion (ties by replicate index)."""
    streams = np.random.SeedSequence(config.seed).spawn(config.replicates)
    best = None
    best_obj = np.inf
    for ss in streams:
        result = kmeans_lloyd(data, config, rng=np.random.default_rng(ss))
        obj = distortion(data.points, result.centroids, result.assignments)
        if obj < best_obj:
            best, best_obj = result, obj
    return best


def centrex_gaussian(
    data: Dataset,
    gamma: float = 1e-3,
    epsilon: float = 1e-2,
    beta: float = 1.0,
    seed: int | None = 0,
) -> ClusteringResult:
    """Centroid pipeline with the exponential kernel exp(-beta * u) evaluated
    on normalized squared distances; the fusion constant is recomputed for
    this kernel by quadrature inside the pipeline."""
    kernel = KernelSpec("gaussian", data.d, beta=beta)
    return run_centrex(data, gamma=gamma, epsilon=epsilon, kernel=kernel, seed=seed)
