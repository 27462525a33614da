import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrex.harness import (
    ExperimentConfig,
    classification_error,
    distortion,
    generate_dataset,
    run_experiment,
)

from oracles import brute_force_matching_error


class TestExperimentConfig:
    def test_dim2k4_layout(self):
        cfg = ExperimentConfig(scenario="dim2k4")
        want = np.array([[10, 20], [20, 10], [10, 10], [20, 20]], dtype=float)
        assert np.array_equal(cfg.centroids, want)

    def test_dim100k10_shapes(self):
        cfg = ExperimentConfig(scenario="dim100k10", n=100, scale_a=2.0, seed=1)
        assert cfg.centroids.shape == (10, 100)
        # layout is fixed by the root seed
        again = ExperimentConfig(scenario="dim100k10", n=100, scale_a=2.0, seed=1)
        assert np.array_equal(cfg.centroids, again.centroids)

    def test_custom_requires_centroids(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="custom", centroids=None)

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="dim2k4", n=401)

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "scenario": "custom",
                    "d": 2,
                    "k": 2,
                    "n": 4,
                    "centroids": [[0, 0], [5, 5]],
                    "sigmas": [1.0],
                    "trials": 1,
                }
            )
        )
        cfg = ExperimentConfig.from_json(path)
        assert cfg.k == 2 and cfg.centroids.shape == (2, 2)


class TestGenerateDataset:
    def test_zero_noise(self):
        cfg = ExperimentConfig(scenario="dim2k4", sigmas=(1.0,))
        data = generate_dataset(cfg, 0, sigma=0.0)
        assert np.array_equal(data.points, cfg.centroids[data.labels])

    def test_cluster_means_near_centroids(self):
        cfg = ExperimentConfig(
            scenario="custom",
            d=2,
            k=2,
            n=20_000,
            centroids=np.array([[0.0, 0.0], [30.0, 0.0]]),
            sigmas=(2.0,),
        )
        data = generate_dataset(cfg, 123)
        for k in range(2):
            sample = data.points[data.labels == k]
            tol = 4 * 2.0 / math.sqrt(len(sample))
            assert np.all(np.abs(sample.mean(axis=0) - cfg.centroids[k]) < tol)

    def test_balanced_counts(self):
        cfg = ExperimentConfig(scenario="dim2k4")
        data = generate_dataset(cfg, 5)
        assert np.all(np.bincount(data.labels) == 100)


class TestClassificationError:
    def test_relabeling_is_perfect(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assignments = np.array([2, 2, 0, 0, 1, 1])
        assert classification_error(labels, assignments, 3, 3) == 0.0

    def test_single_estimated_cluster(self):
        labels = np.repeat(np.arange(4), 25)
        assignments = np.zeros(100, dtype=int)
        assert classification_error(labels, assignments, 4, 1) == pytest.approx(0.75)

    @given(
        n=st.integers(10, 60),
        k_true=st.integers(1, 6),
        k_hat=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, n, k_true, k_hat, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, k_true, size=n)
        assignments = rng.integers(0, k_hat, size=n)
        got = classification_error(labels, assignments, k_true, k_hat)
        want = brute_force_matching_error(labels, assignments, k_true, k_hat)
        assert got == pytest.approx(want, abs=1e-12)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=40)
        assignments = rng.integers(0, 5, size=40)
        base = classification_error(labels, assignments, 4, 5)
        perm_t = rng.permutation(4)
        perm_a = rng.permutation(5)
        assert classification_error(perm_t[labels], assignments, 4, 5) == pytest.approx(base)
        assert classification_error(labels, perm_a[assignments], 4, 5) == pytest.approx(base)


class TestDistortion:
    def test_zero_at_centroids(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert distortion(pts, pts.copy(), np.array([0, 1])) == 0.0

    def test_chi_mean_two_dof(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((10_000, 2))
        cents = np.zeros((1, 2))
        got = distortion(pts, cents, np.zeros(10_000, dtype=int))
        assert got == pytest.approx(math.sqrt(math.pi / 2), abs=0.03)

    def test_scales_with_sigma(self):
        cfg = ExperimentConfig(scenario="dim2k4", sigmas=(1.0,))
        ratios = []
        for seed in range(10):
            d1 = generate_dataset(cfg, seed, sigma=0.5)
            d2 = generate_dataset(cfg, seed, sigma=1.0)
            cents = cfg.centroids
            r1 = distortion(d1.points, cents, d1.labels)
            r2 = distortion(d2.points, cents, d2.labels)
            ratios.append(r2 / r1)
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.05)


class TestRunExperiment:
    def _small_config(self, **kw):
        defaults = dict(
            scenario="dim2k4",
            sigmas=(1.0,),
            trials=1,
            algorithms=("centrex", "kmeans10"),
            seed=31,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_one_row_per_algorithm(self, tmp_path):
        rows = run_experiment(self._small_config(), out_dir=tmp_path)
        assert len(rows) == 2
        assert {r["algorithm"] for r in rows} == {"centrex", "kmeans10"}
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self._small_config()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()

    def test_algorithms_share_datasets(self):
        # identical per-trial data: at low noise both algorithms should agree
        cfg = self._small_config(algorithms=("kmeans100", "kmeans100"))
        rows = run_experiment(cfg)
        assert rows[0]["pe"] == rows[1]["pe"]

    def test_summary_contents(self, tmp_path):
        cfg = self._small_config(trials=3, algorithms=("centrex",))
        run_experiment(cfg, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["centrex"][0]["trials"] == 3
        assert 0.0 <= summary["centrex"][0]["pe_mean"] <= 1.0
