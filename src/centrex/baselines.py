"""Comparison algorithms: Lloyd's K-means (with replicates and K-means++
seeding) and the Gaussian-kernel variant of the centroid pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centralized import ClusteringResult, Dataset, classify, distortion, run_centrex, sq_dist
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
    distance to the nearest already-chosen seed.  Takes validated input:
    (N, d) points and k <= N."""
    n = points.shape[0]
    seeds = [points[rng.integers(n)]]
    d2 = sq_dist(points, seeds[0])
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        seeds.append(points[idx])
        d2 = np.minimum(d2, sq_dist(points, seeds[-1]))
    return np.asarray(seeds)


def _seeds(points, config: KMeansConfig, rng: np.random.Generator) -> np.ndarray:
    """One replicate's K starting centroids."""
    if config.init == "plusplus":
        return kmeanspp_seed(points, config.k, rng)
    return points[rng.choice(points.shape[0], size=config.k, replace=False)]


def _reseed(points, centroids, assign):
    """Update one replicate that has an empty cluster, cluster by cluster and
    in place: an empty cluster takes the point farthest from its centroid."""
    dists = np.sqrt(sq_dist(points, centroids[assign]))
    for j in range(centroids.shape[0]):
        members = assign == j
        if not members.any():
            far = int(np.argmax(dists))
            centroids[j] = points[far]
            assign[far] = j
            dists[far] = 0.0
        else:
            centroids[j] = points[members].mean(axis=0)


def _update(points, centroids, active, assign):
    """Move the centroids of replicates `active` to their cluster means, in
    place; a replicate with an empty cluster is reseeded instead."""
    d = points.shape[1]
    k = centroids.shape[1]
    bins = len(active) * k
    slot = (assign + k * np.arange(len(active))[:, None]).ravel()
    counts = np.bincount(slot, minlength=bins)
    # bincount adds each bin's weights in input order, so every cluster's
    # coordinate sums in point order, exactly as the axis-0 sum inside
    # points[members].mean(axis=0).
    sums, weights = np.empty((bins, d)), np.empty(assign.shape)
    for j, coord in enumerate(points.T):
        weights[:] = coord  # coordinate j of every point, once per replicate
        sums[:, j] = np.bincount(slot, weights=weights.ravel(), minlength=bins)
    sums /= np.maximum(counts, 1)[:, None]  # in place: no second (R, K, d) array
    sums, counts = sums.reshape(-1, k, d), counts.reshape(-1, k)
    full = counts.all(axis=1)
    centroids[active[full]] = sums[full]
    for i in np.flatnonzero(~full):
        _reseed(points, centroids[active[i]], assign[i])


def _batched_lloyd(points, centroids, max_iter):
    """Alternate assignment/update from each of R seed sets, given as
    centroids (R, K, d) and updated in place, until that replicate's
    assignments stabilize.

    All replicates form one batch, and each leaves it once converged.
    Returns assignments (R, N) and iteration counts (R,).
    """
    reps = centroids.shape[0]
    assignments = np.empty((reps, points.shape[0]), dtype=np.intp)
    iterations = np.full(reps, max_iter)
    active, prev = np.arange(reps), None
    for it in range(1, max_iter + 1):
        assign = classify(points, centroids[active])
        _update(points, centroids, active, assign)
        if prev is not None:
            done = (assign == prev).all(axis=1)
            assignments[active[done]] = assign[done]
            iterations[active[done]] = it
            active, assign = active[~done], assign[~done]
        prev = assign
        if not len(active):
            break
    assignments[active] = prev
    return assignments, iterations


def _best_of(data: Dataset, config: KMeansConfig, rngs) -> ClusteringResult:
    """Lloyd from one seed set per generator; keeps the smallest distortion,
    the first replicate winning ties."""
    points = data.points
    if config.k > points.shape[0]:
        raise ValueError("k cannot exceed the number of points")
    centroids = np.stack([_seeds(points, config, rng) for rng in rngs])
    assignments, iterations = _batched_lloyd(points, centroids, config.max_iter)
    best = int(np.argmin(distortion(points, centroids, assignments)))
    assign = assignments[best].copy()
    return ClusteringResult(
        centroids=centroids[best].copy(),
        assignments=assign,
        support_counts=np.bincount(assign, minlength=config.k),
        k_hat=config.k,
        iterations_per_centroid=[int(iterations[best])],
    )


def kmeans_lloyd(data: Dataset, config: KMeansConfig, rng=None) -> ClusteringResult:
    """One seeded K-means run on the raw points."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _best_of(data, config, [rng])


def kmeans_replicated(data: Dataset, config: KMeansConfig) -> ClusteringResult:
    """Run `replicates` independent seeded K-means and keep the solution with
    the smallest distortion (ties by replicate index).

    Each replicate seeds from its own spawned stream; the replicates then
    iterate together in one batch, with the same results as one kmeans_lloyd
    run per stream.
    """
    streams = np.random.SeedSequence(config.seed).spawn(config.replicates)
    return _best_of(data, config, [np.random.default_rng(ss) for ss in streams])


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
