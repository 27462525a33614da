"""Outcomes of every pipeline on degenerate inputs, pinned so that a change
to them is a decision rather than an accident."""

import numpy as np
import pytest

from centrex.baselines import KMeansConfig, kmeans_replicated
from centrex.centralized import Dataset, run_centrex
from centrex.decentralized import NetworkConfig, run_decentrex
from centrex.harness import ExperimentConfig, generate_dataset


def _centrex(data):
    return {run_centrex(data).k_hat}


def _decentrex(data):
    cfg = NetworkConfig(n_sensors=data.n, T=30, L=min(5, data.n))
    results, _ = run_decentrex(data, cfg)
    return {r.k_hat for r in results}


def _kmeans10(data):
    result = kmeans_replicated(data, KMeansConfig(k=2, replicates=10))
    assert result.assignments.shape == (data.n,)
    return {result.k_hat}


def _noiseless():
    return Dataset(points=np.repeat([[0.0, 0.0], [10.0, 10.0]], 20, axis=0), sigma=0.0)


def _identical():
    return Dataset(points=np.ones((40, 2)), sigma=1.0)


def _dim_exceeds_count():
    rng = np.random.default_rng(0)
    return Dataset(points=rng.standard_normal((5, 500)), sigma=1.0)


def _one_dimensional():
    rng = np.random.default_rng(1)
    pts = np.concatenate([rng.normal(0.0, 1.0, (20, 1)), rng.normal(10.0, 1.0, (20, 1))])
    return Dataset(points=pts, sigma=1.0)


def _overflowing():
    # Squared distances of 1e400 overflow float64.
    return Dataset(points=[[0.0, 0.0], [1e200, 0.0], [1.0, 1.0], [1e200, 1.0]], sigma=1.0)


def _far_from_origin():
    # Distances are small, but a sum of 20 points near 1e307 overflows.
    rng = np.random.default_rng(2)
    return Dataset(points=np.column_stack([np.full(20, 1e307), rng.normal(size=20)]), sigma=1.0)


NOISELESS = "cannot normalize a noiseless dataset"
OVERFLOW = "overflow float64"

# (dataset, {pipeline: set of k_hat over its results, or the error message}).
# K-means has a fixed k and runs on every input that Dataset accepts; Dataset
# rejects points whose squared distances or sums overflow, so no pipeline sees
# them.
CASES = {
    "noiseless": (_noiseless, {"centrex": NOISELESS, "decentrex": NOISELESS}),
    "overflowing": (
        _overflowing,
        {"centrex": OVERFLOW, "decentrex": OVERFLOW, "kmeans10": OVERFLOW},
    ),
    "far_from_origin": (
        _far_from_origin,
        {"centrex": OVERFLOW, "decentrex": OVERFLOW, "kmeans10": OVERFLOW},
    ),
    "identical": (_identical, {"centrex": {1}, "decentrex": {1}}),
    "dim_exceeds_count": (_dim_exceeds_count, {"centrex": {1}, "decentrex": {1}}),
    # 10 of the 40 sensors keep a third centroid: 5-slot epochs do not mix
    # 40 sensors, so their estimates of one cluster differ beyond fusion.
    "one_dimensional": (_one_dimensional, {"centrex": {2}, "decentrex": {2, 3}}),
}
PIPELINES = {"centrex": _centrex, "decentrex": _decentrex, "kmeans10": _kmeans10}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("case", CASES)
def test_degenerate_input(case, pipeline):
    make_data, outcomes = CASES[case]
    want = outcomes.get(pipeline, {2})
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            PIPELINES[pipeline](make_data())
    else:
        assert PIPELINES[pipeline](make_data()) == want


def _centrex_results(data, k):
    return [run_centrex(data)]


def _kmeans10_results(data, k):
    return [kmeans_replicated(data, KMeansConfig(k=k, replicates=10))]


def _decentrex_results(data, k):
    return run_decentrex(data, NetworkConfig(n_sensors=data.n, T=60, L=10))[0]


@pytest.mark.parametrize(
    "run", [_centrex_results, _kmeans10_results, _decentrex_results], ids=["centrex", "kmeans10", "decentrex"]
)
@pytest.mark.parametrize(
    "scenario, sigma",
    [
        pytest.param("dim2k4", 1.5, id="1.5"),
        pytest.param("dim2k4", 2.5, id="2.5"),
        pytest.param("dim100k10", 3.0, id="dim100k10-3.0"),
    ],
)
def test_scale_equivariance(run, scenario, sigma):
    # Scaling points and sigma by 2^j leaves the normalized points' bits as
    # they are, so every estimate, merge and label is the same and the raw
    # centroids scale exactly; K-means works on the raw points, whose sums
    # and squared distances scale exactly too.
    config = ExperimentConfig(scenario=scenario, sigmas=(sigma,))
    data = generate_dataset(config, 0)
    base = run(data, config.k)
    for j in (-3, 5):
        scaled = run(Dataset(points=data.points * 2.0**j, sigma=sigma * 2.0**j), config.k)
        assert len(scaled) == len(base)
        for a, b in zip(scaled, base):
            assert a.k_hat == b.k_hat
            assert np.array_equal(a.assignments, b.assignments)
            assert np.array_equal(a.centroids, b.centroids * 2.0**j)
