"""Sweep rows pinned to exact values.

Speed-ups must leave sweep rows unchanged.  These rows were recorded before
r^2 and the Wald threshold were memoized and before the gossip simulator kept
each sensor's own contribution between slots; any later change that moves
k_hat, pe, distortion or messages in the last bit fails here and has to be
explained.
"""

import pytest

from centrex.harness import ExperimentConfig, run_experiment

# (algorithm, sigma, k_hat, pe, distortion, messages)
DIM2K4_ROWS = [
    ("centrex", 1.0, 4, 0.0, 1.2533864284218126, 0),
    ("centrex_gaussian", 1.0, 5, 0.0050000000000000044, 1.2450034732083037, 0),
    ("decentrex", 1.0, 11, 0.6074999999999999, 0.45607635307708816, 168000),
    ("kmeans10", 1.0, 4, 0.0, 1.2542091727525553, 0),
    ("kmeanspp", 1.0, 4, 0.0, 1.2542091727525553, 0),
    ("centrex", 2.5, 4, 0.05249999999999999, 3.4227088125395597, 0),
    ("centrex_gaussian", 2.5, 4, 0.05500000000000005, 3.0552659261430994, 0),
    ("decentrex", 2.5, 7, 0.5974999999999999, 2.8114964843359247, 108000),
    ("kmeans10", 2.5, 4, 0.0625, 3.051555657672434, 0),
    ("kmeanspp", 2.5, 4, 0.0625, 3.051555657672434, 0),
]

DIM100K10_ROWS = [
    ("centrex", 1.0, 10, 0.0, 9.44807207788995, 0),
]


def _rows(config):
    keys = ("algorithm", "sigma", "k_hat", "pe", "distortion", "messages")
    return [tuple(row[k] for k in keys) for row in run_experiment(config)]


@pytest.mark.parametrize(
    "config, expected",
    [
        (
            ExperimentConfig(
                scenario="dim2k4",
                sigmas=(1.0, 2.5),
                algorithms=("centrex", "centrex_gaussian", "decentrex", "kmeans10", "kmeanspp"),
                slots_t=30,
                update_l=5,
            ),
            DIM2K4_ROWS,
        ),
        (ExperimentConfig(scenario="dim100k10", n=100, sigmas=(1.0,)), DIM100K10_ROWS),
    ],
    ids=["dim2k4", "dim100k10"],
)
def test_rows_are_unchanged(config, expected):
    assert _rows(config) == expected
