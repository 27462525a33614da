"""Outcomes of every pipeline on degenerate inputs, pinned so that a change
to them is a decision rather than an accident."""

import numpy as np
import pytest

from centrex.baselines import KMeansConfig, kmeans_replicated
from centrex.centralized import Dataset, run_centrex
from centrex.decentralized import NetworkConfig, run_decentrex


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


NOISELESS = "cannot normalize a noiseless dataset"

# (dataset, {pipeline: set of k_hat over its results, or the error message}).
# K-means has a fixed k and runs on every input.
CASES = {
    "noiseless": (_noiseless, {"centrex": NOISELESS, "decentrex": NOISELESS}),
    "identical": (_identical, {"centrex": {1}, "decentrex": {1}}),
    "dim_exceeds_count": (_dim_exceeds_count, {"centrex": {1}, "decentrex": {1}}),
    "one_dimensional": (_one_dimensional, {"centrex": {2}, "decentrex": {2}}),
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
