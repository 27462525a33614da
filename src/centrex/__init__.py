"""Model-based clustering with an unknown number of Gaussian clusters.

Centralized (CENTREx) and decentralized (DeCENTREx) pipelines built on a
norm-test p-value weight kernel, fixed-point centroid M-estimation, marking,
and centroid fusion, plus K-means baselines and an experiment harness.
"""

from .baselines import KMeansConfig, centrex_gaussian, kmeans_lloyd, kmeans_replicated, kmeanspp_seed
from .centralized import (
    ClusteringResult,
    Dataset,
    classify,
    distortion,
    fixed_point,
    fuse,
    h_map,
    mark,
    run_centrex,
    sigma_lim,
)
from .decentralized import (
    NetworkConfig,
    RoundLog,
    SensorNetwork,
    init_round,
    run_decentrex,
    slot_step,
)
from .harness import (
    ExperimentConfig,
    classification_error,
    generate_dataset,
    run_experiment,
)
from .statfn import KernelSpec, RSquared, marcum_q, r_squared, threshold_mu, weight
from .wald import WaldConfig, fusion_sigma

__version__ = "0.1.0"
