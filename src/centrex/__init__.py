"""Model-based clustering with an unknown number of Gaussian clusters.

Centralized (CENTREx) and decentralized (DeCENTREx) pipelines built on a
norm-test p-value weight kernel, fixed-point centroid M-estimation, marking,
and centroid fusion, plus K-means baselines and an experiment harness.

The package exports the entry points, which check what they are given.  The
stages under them (h_map, mark, fuse, classify, ...) take checked input and
are imported from their modules.
"""

from .baselines import KMeansConfig, centrex_gaussian, kmeans_lloyd, kmeans_replicated
from .centralized import ClusteringResult, Dataset, run_centrex, sigma_lim
from .decentralized import NetworkConfig, run_decentrex
from .harness import ExperimentConfig, classification_error, generate_dataset, run_experiment
from .statfn import KernelSpec, WaldConfig, marcum_q, r_squared, threshold_mu

__version__ = "0.1.0"
