"""Sweep rows pinned to exact values.

Speed-ups must leave sweep rows unchanged.  The centrex rows were recorded
before r^2 and the Wald threshold were memoized; the kmeans100 rows before the
K-means replicates ran in batches, and all of them before every distance went
through the shared sq_dist kernel.  The decentrex rows were recorded when a
gossip round became push-sum epochs of h_map: at T = 30 and L = 5 a 5-slot
epoch does not mix 400 sensors, so sensors disagree and k_hat stays above 4,
while at T = 100 and L = 10 on dim100k10 they match centrex's k_hat and pe.
The distortions of decentrex at sigma = 1.0 and centrex at 2.5 moved in their
last digits when the d = 2 Wald weight went from gammaincc(1, u/4) to
exp(-u/4), which is within 1 ulp of the true value; k_hat, pe and messages
stayed.  Any later change that moves k_hat, pe, distortion or messages
in the last bit fails here and has to be explained.
"""

import pytest

from centrex.harness import ExperimentConfig, run_experiment

# (algorithm, sigma, k_hat, pe, distortion, messages)
DIM2K4_ROWS = [
    ("centrex", 1.0, 4, 0.0, 1.2533864284218126, 0),
    ("centrex_gaussian", 1.0, 5, 0.0050000000000000044, 1.2450034732083037, 0),
    ("decentrex", 1.0, 7, 0.38249999999999995, 0.889193449265646, 108000),
    ("kmeans10", 1.0, 4, 0.0, 1.2542091727525553, 0),
    ("kmeanspp", 1.0, 4, 0.0, 1.2542091727525553, 0),
    ("kmeans100", 1.0, 4, 0.0, 1.2542091727525553, 0),
    ("centrex", 2.5, 4, 0.05249999999999999, 3.4227088125395606, 0),
    ("centrex_gaussian", 2.5, 4, 0.05500000000000005, 3.0552659261430994, 0),
    ("decentrex", 2.5, 6, 0.2875, 3.3227913234305806, 84000),
    ("kmeans10", 2.5, 4, 0.0625, 3.051555657672434, 0),
    ("kmeanspp", 2.5, 4, 0.0625, 3.051555657672434, 0),
    ("kmeans100", 2.5, 4, 0.0625, 3.051555657672434, 0),
]

DIM100K10_ROWS = [
    ("centrex", 1.0, 10, 0.0, 9.44807207788995, 0),
    ("kmeans100", 1.0, 10, 0.0, 9.44810505760558, 0),
    ("decentrex", 1.0, 10, 0.0, 9.331206255935871, 100000),
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
                algorithms=("centrex", "centrex_gaussian", "decentrex", "kmeans10", "kmeanspp", "kmeans100"),
                slots_t=30,
                update_l=5,
            ),
            DIM2K4_ROWS,
        ),
        (
            ExperimentConfig(
                scenario="dim100k10",
                n=100,
                sigmas=(1.0,),
                algorithms=("centrex", "kmeans100", "decentrex"),
                slots_t=100,
                update_l=10,
            ),
            DIM100K10_ROWS,
        ),
    ],
    ids=["dim2k4", "dim100k10"],
)
def test_rows_are_unchanged(config, expected):
    assert _rows(config) == expected
