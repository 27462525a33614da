"""Reproduce the sigma = 2.5 evidence behind acceptance criterion 4.

For each root seed, runs CENTREx and 100-replicate K-means on the 100
dim2k4 datasets that the criterion-4 sweep draws at its fifth noise level
(sigma = 2.5, noise index 4), with the same per-cell seeds as
``run_experiment``. It prints, per root, how many trials CENTREx returns
k_hat < 4, the mean paired gap pe(centrex) - pe(kmeans100) and its 95%
interval. For every such trial it also shows why the cluster is lost:

- ``distinct``: how many distinct points (0.5 normalized units apart) the
  centroid list handed to ``fuse`` holds;
- ``modes``: how many distinct limits ``fixed_point`` reaches when started
  from each true normalized centre, with epsilon = 1e-6 and up to 10,000
  iterations, and whether every run converged.

When both counts are below the number of clusters, ``h_map`` itself has
fewer fixed points than clusters, and no fusion rule, scan order or start
choice can restore the lost one. The last line counts the merged trials
for which this holds.

Run from the repository root:

    PYTHONPATH=src python scripts/criterion4_merges.py            # roots 1-8
    PYTHONPATH=src python scripts/criterion4_merges.py --roots 42 # the test's seed

Roots 1-8 take about four minutes on two cores.
"""

import argparse
import math
from unittest import mock

import numpy as np

from centrex import centralized
from centrex.harness import ExperimentConfig, _run_algorithm, classification_error, generate_dataset
from centrex.statfn import KernelSpec

SIGMA = 2.5
SIGMA_INDEX = 4  # position of 2.5 in the criterion-4 grid (1.0, 1.2, 1.5, 2.0, 2.5)
TRIALS = 100
# Index of each algorithm in the criterion-4 fixture, which fixes its per-cell seed.
ALGORITHMS = ((0, "centrex"), (2, "kmeans100"))


def _distinct(points, tol=0.5):
    reps = []
    for p in points:
        if all(np.linalg.norm(p - q) > tol for q in reps):
            reps.append(p)
    return len(reps)


def _true_centre_modes(config, data):
    kernel = KernelSpec("wald", config.d)
    pts = data.normalized_points()
    runs = [
        centralized.fixed_point(pts, kernel, c / data.sigma, 1e-6, 10_000) for c in config.centroids
    ]
    return _distinct([theta for theta, _, _ in runs]), all(conv for _, _, conv in runs)


def run_root(root):
    config = ExperimentConfig(scenario="dim2k4", sigmas=(SIGMA,), seed=root)
    diffs, merges = [], []
    for t in range(TRIALS):
        data = generate_dataset(config, np.random.SeedSequence([root, SIGMA_INDEX, t]))
        pe = {}
        for a_idx, name in ALGORITHMS:
            seed = np.random.SeedSequence([root, SIGMA_INDEX, t, a_idx])
            with mock.patch.object(centralized, "fuse", wraps=centralized.fuse) as fuse:
                cell = _run_algorithm(name, config, data, seed)
            pe[name] = classification_error(data.labels, cell.assignments, config.k, cell.k_hat)
            if name == "centrex" and cell.k_hat < config.k:
                handed = fuse.call_args.args[0]
                modes, converged = _true_centre_modes(config, data)
                merges.append((t, cell.k_hat, len(handed), _distinct(handed), modes, converged))
        diffs.append(pe["centrex"] - pe["kmeans100"])
    diffs = np.array(diffs)
    mean = float(diffs.mean())
    half = 1.96 * float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
    return mean, half, merges


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--roots", type=int, nargs="+", default=list(range(1, 9)))
    args = parser.parse_args()

    gaps, all_merges = [], []
    for root in args.roots:
        mean, half, merges = run_root(root)
        gaps.append(mean)
        all_merges += merges
        print(
            f"root {root}: merges {len(merges)}/{TRIALS}, "
            f"gap {mean:.4f} [{mean - half:.4f}, {mean + half:.4f}]",
            flush=True,
        )
        for t, k_hat, listed, distinct, modes, converged in merges:
            print(
                f"  trial {t}: k_hat {k_hat}, distinct {distinct} of {listed} estimates, "
                f"modes {modes}, converged {converged}",
                flush=True,
            )
    total = TRIALS * len(args.roots)
    n_merges = len(all_merges)
    # Four clusters in the dim2k4 layout.
    lost_before_fuse = sum(distinct < 4 and modes < 4 for *_, distinct, modes, _ in all_merges)
    print(
        f"all: merges {n_merges}/{total} ({n_merges / total:.1%}), "
        f"mean gap {np.mean(gaps):.4f}, per-root {min(gaps):.4f}-{max(gaps):.4f}, "
        f"cluster lost before fuse in {lost_before_fuse}/{n_merges} merges"
    )


if __name__ == "__main__":
    main()
