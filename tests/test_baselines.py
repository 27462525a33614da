import tracemalloc

import numpy as np
import pytest
from oracles import lloyd, lloyd_replicated

from centrex import baselines
from centrex.baselines import (
    KMeansConfig,
    centrex_gaussian,
    kmeans_lloyd,
    kmeans_replicated,
    kmeanspp_seed,
)
from centrex.centralized import BUDGET, Dataset, classify, distortion, h_map, sigma_lim
from centrex.harness import ExperimentConfig, classification_error, generate_dataset
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


def _draw_seeds(points, config, rng):
    if config.init == "plusplus":
        return kmeanspp_seed(points, config.k, rng)
    return points[rng.choice(len(points), size=config.k, replace=False)]


def _seed_sets(points, config):
    """Each replicate's starting centroids, drawn from its own spawned stream."""
    streams = np.random.SeedSequence(config.seed).spawn(config.replicates)
    return [_draw_seeds(points, config, np.random.default_rng(ss)) for ss in streams]


def _assert_bit_identical(result, centroids, assignments, iterations):
    assert result.centroids.tobytes() == np.asarray(centroids, dtype=float).tobytes()
    assert np.array_equal(result.assignments, assignments)
    assert result.iterations_per_centroid == [iterations]


def _scenario_data(scenario, sigma, trial):
    n = 100 if scenario == "dim100k10" else 400
    return generate_dataset(ExperimentConfig(scenario=scenario, n=n, sigmas=(sigma,)), trial)


# sigma_lim of the dim100k10 layout drawn from seed 0.
_LIM100 = sigma_lim(ExperimentConfig(scenario="dim100k10", n=100).centroids, 1e-3, 100)


def _duplicate_points():
    """Five distinct points, each repeated, so seeds coincide and clusters empty."""
    rng = np.random.default_rng(11)
    distinct = rng.normal(size=(5, 2)) * 3.0
    return Dataset(points=distinct[rng.integers(5, size=60)], sigma=1.0)


class TestBatchedLloydMatchesOracle:
    """The batched replicates give, bit for bit, what one replicate at a time
    gives: centroids, assignments, iteration count and chosen replicate."""

    @pytest.mark.parametrize("max_iter", [1, 2, 300])
    @pytest.mark.parametrize("replicates", [1, 7, 100])
    @pytest.mark.parametrize("init", ["uniform", "plusplus"])
    @pytest.mark.parametrize(
        "scenario, sigma",
        [
            ("dim2k4", 1.0),
            ("dim2k4", 2.5),
            ("dim100k10", 1.0),
            # Overlapping clusters, where near-ties in classify occur.
            pytest.param("dim100k10", 0.55 * _LIM100, id="dim100k10-0.55lim"),
            pytest.param("dim100k10", 1.05 * _LIM100, id="dim100k10-1.05lim"),
        ],
    )
    def test_replicated(self, scenario, sigma, init, replicates, max_iter):
        data = _scenario_data(scenario, sigma, trial=replicates + max_iter)
        cfg = KMeansConfig(k=4 if scenario == "dim2k4" else 10, init=init,
                           replicates=replicates, max_iter=max_iter, seed=replicates)
        cents, assign, iters = lloyd_replicated(data.points, _seed_sets(data.points, cfg), max_iter)
        _assert_bit_identical(kmeans_replicated(data, cfg), cents, assign, iters)

    @pytest.mark.parametrize("init", ["uniform", "plusplus"])
    @pytest.mark.parametrize("scenario", ["dim2k4", "dim100k10"])
    def test_single_run(self, scenario, init):
        data = _scenario_data(scenario, 2.5, trial=3)
        cfg = KMeansConfig(k=4 if scenario == "dim2k4" else 10, init=init)
        for seed in range(5):
            seeds = _draw_seeds(data.points, cfg, np.random.default_rng(seed))
            got = kmeans_lloyd(data, cfg, rng=np.random.default_rng(seed))
            _assert_bit_identical(got, *lloyd(data.points, seeds, cfg.max_iter))

    def test_ties_go_to_the_first_replicate(self):
        data = _scenario_data("dim2k4", 1.0, trial=0)
        cfg = KMeansConfig(k=4, replicates=100, seed=0)
        runs = [lloyd(data.points, s, cfg.max_iter) for s in _seed_sets(data.points, cfg)]
        objs = [distortion(data.points, c, a) for c, a, _ in runs]
        tied = [r for r, obj in enumerate(objs) if obj == min(objs)]
        # Label-permuted copies of the best partition tie in distortion.
        assert tied[0] > 0 and not np.array_equal(runs[tied[0]][1], runs[tied[-1]][1])
        _assert_bit_identical(kmeans_replicated(data, cfg), *runs[tied[0]])

    @pytest.mark.parametrize("max_iter", [1, 2, 300])
    @pytest.mark.parametrize("replicates", [1, 7, 100])
    @pytest.mark.parametrize("init", ["uniform", "plusplus"])
    def test_empty_cluster_reseed(self, monkeypatch, init, replicates, max_iter):
        reseed, reseeds = baselines._reseed, []

        def counted(*args):
            reseeds.append(1)
            return reseed(*args)

        monkeypatch.setattr(baselines, "_reseed", counted)
        data = _duplicate_points()
        for k in (4, 5):
            cfg = KMeansConfig(k=k, init=init, replicates=replicates, max_iter=max_iter, seed=k)
            cents, assign, iters = lloyd_replicated(data.points, _seed_sets(data.points, cfg), max_iter)
            _assert_bit_identical(kmeans_replicated(data, cfg), cents, assign, iters)
        if init == "uniform":
            assert reseeds

    def test_one_dimensional_points_round_within_float64_bound(self):
        # At d = 1 the mean over a contiguous column sums pairwise, the batch
        # sums in point order: centroids may differ in the last bits, so they
        # are held to the float64 bound of an n-term sum, n eps max|x|.
        rng = np.random.default_rng(4)
        pts = np.repeat([0.0, 10.0, 20.0, 30.0], 100)[:, None] + rng.normal(size=(400, 1))
        data = Dataset(points=pts, sigma=1.0)
        tol = len(pts) * np.finfo(float).eps * np.abs(pts).max()
        for init in ("uniform", "plusplus"):
            cfg = KMeansConfig(k=4, init=init, replicates=100, seed=1)
            cents, assign, iters = lloyd_replicated(pts, _seed_sets(pts, cfg), cfg.max_iter)
            got = kmeans_replicated(data, cfg)
            assert np.array_equal(got.assignments, assign)
            assert got.iterations_per_centroid == [iters]
            assert np.max(np.abs(got.centroids - cents)) <= tol


class TestMemoryBudget:
    """One kmeans100 call stays within 3 BUDGET bytes: the temporaries of one
    classify block or one centroid update, plus arrays of R N indices and of
    R K d floats.  classify takes as many centroid sets per block as fit
    BUDGET: at d = 2 it holds at most three (block, N, K) arrays, 1.5 BUDGET
    in all, and all 100 sets in one block would be 3.7 MiB.  The update holds
    (R N) slot and weight arrays, 0.3 BUDGET each at dim2k4.  At d = 100 the
    100 replicates fit one block: classify holds one (N, R, K) array of 0.76
    BUDGET, and the centroid stack and its centroids[active] copy take 0.76
    BUDGET each; an (R, N, K, d) difference array would be 76 MiB, and an
    (R, N, d) one 7.6 MiB."""

    @pytest.mark.parametrize("scenario", ["dim2k4", "dim100k10"])
    def test_kmeans100_peak(self, scenario):
        data = _scenario_data(scenario, 1.0, trial=0)
        cfg = KMeansConfig(k=4 if scenario == "dim2k4" else 10, replicates=100)
        tracemalloc.start()
        try:
            kmeans_replicated(data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * BUDGET


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
