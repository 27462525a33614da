import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from centrex import centralized
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

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"sigmas": (1.0, 2.0, -1.0)}, "sigmas"),
            ({"sigmas": (1.0, math.nan)}, "sigmas"),
            ({"epsilon": 0.0}, "epsilon"),
            ({"gamma": 1.5}, "gamma"),
            ({"beta": 0.0}, "beta"),
        ],
        ids=["sigma_negative", "sigma_nan", "epsilon_zero", "gamma_above_one", "beta_zero"],
    )
    def test_out_of_range_rejected_before_any_cell(self, fields, name):
        # Rejected when the config is built, so no cell of a sweep has run yet.
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(scenario="dim2k4", trials=2, algorithms=("kmeans100",), **fields)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"k": 0, "centroids": np.zeros((0, 2))}, "k"),
            ({"d": 0, "centroids": np.zeros((4, 0))}, "d"),
        ],
        ids=["k_zero", "d_zero"],
    )
    def test_integer_fields_rejected_with_their_name(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            ExperimentConfig(scenario="custom", **fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"scenario": "dim2k4", "d": 3, "k": 7}, "k=7 contradicts the dim2k4 scenario's k=4"),
            ({"scenario": "dim2k4", "d": 3}, "d=3 contradicts the dim2k4 scenario's d=2"),
            ({"scenario": "dim100k10", "n": 100, "k": 2}, "k=2 contradicts the dim100k10 scenario's k=10"),
            ({"centroids": np.zeros((2, 3)), "n": 4, "d": 2}, "d=2 contradicts the custom scenario's d=3"),
            ({"scenario": "dim2k4", "sigmas": ()}, "sigmas must be a nonempty list"),
            ({"scenario": "dim2k4", "algorithms": ()}, "algorithms must be a nonempty list"),
            (
                {"scenario": "dim2k4", "n": 40, "sigmas": (1.0, 0.0), "algorithms": ("kmeans10", "centrex")},
                "sigmas must be positive",
            ),
        ],
        ids=["dim2k4_d_and_k", "dim2k4_d", "dim100k10_k", "custom_d", "no_sigmas", "no_algorithms", "zero_sigma"],
    )
    def test_contradicting_or_empty_fields_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            ExperimentConfig(**fields)

    def test_from_mapping_rejects_a_contradicting_shape(self):
        with pytest.raises(ValueError, match="^k=2 contradicts"):
            ExperimentConfig.from_mapping({"scenario": "dim100k10", "d": 5, "k": 2, "n": 100})

    def test_d_and_k_come_from_the_scenario_or_the_centroids(self):
        cfg = ExperimentConfig(scenario="dim100k10", n=100)
        assert (cfg.k, cfg.d) == (10, 100)
        custom = ExperimentConfig(centroids=np.zeros((2, 3)), n=4)
        assert (custom.k, custom.d) == (2, 3)
        # replace passes the filled d, k and centroids back in.
        again = dataclasses.replace(cfg, sigmas=(2.0,), trials=2)
        assert (again.k, again.d) == (10, 100) and np.array_equal(again.centroids, cfg.centroids)

    def test_zero_sigma_runs_for_kmeans_alone(self):
        config = ExperimentConfig(scenario="dim2k4", n=40, sigmas=(0.0,), algorithms=("kmeans10",))
        [row] = run_experiment(config)
        assert row["sigma"] == 0.0 and row["pe"] == 0.0

    def test_network_fields_checked_when_decentrex_listed(self):
        # NetworkConfig's own rules, before the kmeans10 cell would run.
        with pytest.raises(ValueError, match="L must be positive"):
            ExperimentConfig(
                scenario="dim2k4",
                sigmas=(1.0, 2.0),
                trials=2,
                algorithms=("kmeans10", "decentrex"),
                update_l=0,
            )
        with pytest.raises(ValueError, match="fanout"):
            ExperimentConfig(scenario="dim2k4", algorithms=("decentrex",), fanout=400)
        # Without decentrex the network fields are not used.
        ExperimentConfig(scenario="dim2k4", algorithms=("kmeans10",), update_l=0)

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
        cfg = ExperimentConfig.from_mapping(json.loads(path.read_text()))
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

    @pytest.mark.parametrize(
        "labels, assignments, name",
        [
            ([0, 0, 1, -1], [0, 0, 1, 1], "true_labels"),
            ([0, 0, 1, 2], [0, 0, 1, 1], "true_labels"),
            ([0, 0, 1, 1], [0, 0, 1, -1], "assignments"),
        ],
        ids=["negative_label", "label_k_true", "negative_assignment"],
    )
    def test_out_of_range_labels_rejected(self, labels, assignments, name):
        # A -1 used to wrap onto the last row or column and count as correct.
        with pytest.raises(ValueError, match=f"^{name} must"):
            classification_error(labels, assignments, k_true=2, k_hat=2)

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

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="^true_labels and assignments must be nonempty"):
            classification_error([], [], k_true=2, k_hat=2)

    @given(
        contingency=hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 12), st.integers(1, 40)),
            # Few distinct counts make ties; zero rows and columns come with them.
            elements=st.one_of(st.integers(0, 3), st.sampled_from([0, 5, 50])),
        ),
        transpose=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_assignment(self, contingency, transpose):
        if transpose:
            contingency = contingency.T
        if contingency.sum() == 0:
            contingency[0, 0] = 1
        k_true, k_hat = contingency.shape
        cells = np.repeat(np.arange(contingency.size), contingency.ravel())
        labels, assignments = np.divmod(cells, k_hat)
        rows, cols = linear_sum_assignment(-contingency)
        want = 1.0 - int(contingency[rows, cols].sum()) / cells.size
        assert classification_error(labels, assignments, k_true, k_hat) == want

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

    @pytest.mark.parametrize("d", [1, 2, 8, 9, 100])
    def test_stacked_sets_match_one_set_at_a_time(self, d, monkeypatch):
        rng = np.random.default_rng(d)
        pts = rng.normal(size=(60, d)) * 10
        cents = rng.normal(size=(7, 3, d)) * 10
        assign = rng.integers(3, size=(7, 60))
        want = [float(np.mean(np.sqrt(np.sum((pts - c[a]) ** 2, axis=-1)))) for c, a in zip(cents, assign)]
        assert [distortion(pts, c, a) for c, a in zip(cents, assign)] == want
        # Blocks of all 7 sets, then 1, 2 and 5 (a partial last block).
        for sets_per_block in (7, 1, 2, 5):
            monkeypatch.setattr(centralized, "BUDGET", 24 * 60 * d * sets_per_block)
            got = distortion(pts, cents, assign)
            assert got.shape == (7,) and got.tolist() == want

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

    @pytest.mark.parametrize("name", ["kmeansx", "kmeans1.5", "kmeans-3", "kmeans 2", "kmeans²"])
    def test_malformed_kmeans_name_is_an_unknown_algorithm(self, name):
        # Names are checked when their cell runs, after the kmeans cell before it.
        cfg = self._small_config(algorithms=("kmeans", name))
        with pytest.raises(ValueError, match=f"unknown algorithm {name!r}"):
            run_experiment(cfg)
