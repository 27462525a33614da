import numpy as np
import pytest

from centrex.baselines import (
    KMeansConfig,
    centrex_gaussian,
    kmeans_lloyd,
    kmeans_replicated,
    kmeanspp_seed,
)
from centrex.centralized import Dataset, classify, distortion, h_map
from centrex.harness import classification_error
from centrex.statfn import KernelSpec


def _four_cluster_data(seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    centers = np.array([[10, 20], [20, 10], [10, 10], [20, 20]], dtype=float)
    labels = np.repeat(np.arange(4), 100)
    pts = centers[labels] + sigma * rng.standard_normal((400, 2))
    return Dataset(points=pts, sigma=sigma, labels=labels), labels


class TestKMeansLloyd:
    def test_two_points_two_clusters(self):
        data = Dataset(points=np.array([[0.0, 0.0], [5.0, 5.0]]), sigma=1.0)
        res = kmeans_lloyd(data, KMeansConfig(k=2, seed=0))
        assert res.k_hat == 2
        dists = np.linalg.norm(data.points - res.centroids[res.assignments], axis=1)
        assert dists.max() == 0.0

    def test_objective_nonincreasing(self):
        data, _ = _four_cluster_data(0)
        rng = np.random.default_rng(1)
        seeds = data.points[rng.choice(400, size=4, replace=False)]
        centroids = seeds.copy()
        prev_obj = np.inf
        for _ in range(20):
            assign = classify(data.points, centroids)
            obj = float(np.sum((data.points - centroids[assign]) ** 2))
            assert obj <= prev_obj + 1e-9
            prev_obj = obj
            for j in range(4):
                members = assign == j
                if members.any():
                    centroids[j] = data.points[members].mean(axis=0)

    def test_k_exceeding_n_rejected(self):
        data = Dataset(points=np.zeros((3, 2)), sigma=1.0)
        with pytest.raises(ValueError):
            kmeans_lloyd(data, KMeansConfig(k=5, seed=0))

    def test_low_noise_accuracy_with_replicates(self):
        good = 0
        for seed in range(50):
            data, labels = _four_cluster_data(seed)
            res = kmeans_replicated(data, KMeansConfig(k=4, replicates=100, seed=seed))
            if classification_error(labels, res.assignments, 4, 4) < 0.01:
                good += 1
        assert good >= 48


class TestKMeansPlusPlus:
    def test_k_equals_n_takes_all_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        seeds = kmeanspp_seed(pts, 3, np.random.default_rng(0))
        got = {tuple(s) for s in seeds}
        assert got == {tuple(p) for p in pts}

    def test_no_duplicate_seeds(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 2))
        for seed in range(20):
            seeds = kmeanspp_seed(pts, 5, np.random.default_rng(seed))
            assert len({tuple(s) for s in seeds}) == 5

    def test_spread_between_far_pairs(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0], [100.1, 0.0]])
        split = 0
        n = 10_000
        for seed in range(n):
            seeds = kmeanspp_seed(pts, 2, np.random.default_rng(seed))
            sides = {s[0] > 50 for s in seeds}
            if len(sides) == 2:
                split += 1
        assert split >= 0.99 * n


class TestKMeansReplicated:
    def test_single_replicate_reduces_to_lloyd(self):
        data, _ = _four_cluster_data(3)
        cfg = KMeansConfig(k=4, replicates=1, seed=9)
        a = kmeans_replicated(data, cfg)
        ss = np.random.SeedSequence(9).spawn(1)[0]
        b = kmeans_lloyd(data, cfg, rng=np.random.default_rng(ss))
        assert np.array_equal(a.assignments, b.assignments)

    def test_selected_objective_is_minimal(self):
        data, _ = _four_cluster_data(4)
        cfg = KMeansConfig(k=4, replicates=10, seed=2)
        best = kmeans_replicated(data, cfg)
        best_obj = distortion(data.points, best.centroids, best.assignments)
        for ss in np.random.SeedSequence(2).spawn(10):
            res = kmeans_lloyd(data, cfg, rng=np.random.default_rng(ss))
            assert best_obj <= distortion(data.points, res.centroids, res.assignments) + 1e-12

    def test_more_replicates_no_worse(self):
        pes10, pes100 = [], []
        for seed in range(60):
            data, labels = _four_cluster_data(200 + seed)
            r10 = kmeans_replicated(data, KMeansConfig(k=4, replicates=10, seed=seed))
            r100 = kmeans_replicated(data, KMeansConfig(k=4, replicates=100, seed=seed))
            pes10.append(classification_error(labels, r10.assignments, 4, 4))
            pes100.append(classification_error(labels, r100.assignments, 4, 4))
        assert np.mean(pes100) <= np.mean(pes10)


class TestCentrexGaussian:
    def test_small_beta_weights_flatten(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(40, 2)) * 5
        kernel = KernelSpec("gaussian", 2, beta=1e-9)
        out = h_map(pts, kernel, np.array([100.0, -50.0]))
        assert np.allclose(out, pts.mean(axis=0), atol=1e-5)

    def test_determinism(self):
        data, _ = _four_cluster_data(7)
        a = centrex_gaussian(data, beta=0.5, seed=4)
        b = centrex_gaussian(data, beta=0.5, seed=4)
        assert a.k_hat == b.k_hat
        assert np.array_equal(a.centroids, b.centroids)

    def test_comparable_to_wald_kernel(self):
        from centrex.centralized import run_centrex

        pes_g, pes_w = [], []
        for seed in range(30):
            data, labels = _four_cluster_data(500 + seed, sigma=2.5)
            g = centrex_gaussian(data, beta=0.5, seed=seed)
            w = run_centrex(data, seed=seed)
            pes_g.append(classification_error(labels, g.assignments, 4, g.k_hat))
            pes_w.append(classification_error(labels, w.assignments, 4, w.k_hat))
        assert abs(np.mean(pes_g) - np.mean(pes_w)) <= 0.05

    def test_invalid_beta(self):
        data, _ = _four_cluster_data(8)
        with pytest.raises(ValueError):
            centrex_gaussian(data, beta=0.0)
