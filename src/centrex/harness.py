"""Experiment harness: data generation, metrics, sweeps, and persistence.

All randomness derives from a single root seed: the dataset of trial t at
noise index s comes from SeedSequence([root, s, t]) and algorithm-specific
streams from SeedSequence([root, s, t, algorithm_index]), so every algorithm
in a sweep sees identical datasets.
"""

from __future__ import annotations

import csv
import json
import numbers
import re
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .baselines import KMeansConfig, centrex_gaussian, kmeans_replicated
from .centralized import Dataset, distortion, run_centrex
from .decentralized import NetworkConfig, run_decentrex

__all__ = [
    "ExperimentConfig",
    "generate_dataset",
    "classification_error",
    "distortion",
    "run_experiment",
]

CSV_FIELDS = ["algorithm", "sigma", "trial", "k_hat", "pe", "distortion", "messages", "runtime_s"]

# Four-corner layout used by the d=2, K=4 scenario, in units of the scale A.
_DIM2_LAYOUT = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
# (k, d) of each named scenario; a custom one takes them from its centroids.
_SCENARIO_SHAPES = {"dim2k4": (4, 2), "dim100k10": (10, 100)}

_INT_FIELDS = ("d", "k", "n", "trials", "slots_t", "update_l", "fanout", "seed")
_REAL_FIELDS = ("scale_a", "gamma", "epsilon", "beta")


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass
class ExperimentConfig:
    scenario: str = "custom"  # "dim2k4", "dim100k10", or "custom"
    d: int | None = None  # None: from the scenario or the centroids
    k: int | None = None
    n: int = 400
    scale_a: float = 10.0
    centroids: np.ndarray | None = None
    sigmas: tuple = (1.0,)
    trials: int = 1
    gamma: float = 1e-3
    epsilon: float = 1e-2
    algorithms: tuple = ("centrex",)
    beta: float = 1.0
    slots_t: int = 300
    update_l: int = 30
    fanout: int = 1
    seed: int = 0
    record_runtime: bool = False

    def __post_init__(self):
        self._check_types()
        # Ranges are checked here, so a bad value stops the sweep before any cell runs.
        if not all(0 <= s < np.inf for s in self.sigmas):
            raise ValueError(f"sigmas must be finite and nonnegative, got {self.sigmas!r}")
        if 0 in self.sigmas and {"centrex", "centrex_gaussian", "decentrex"} & set(self.algorithms):
            raise ValueError(f"sigmas must be positive when centrex or decentrex is listed, got {self.sigmas!r}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma!r}")
        if not 0 < self.beta < np.inf:
            raise ValueError(f"beta must be finite and positive, got {self.beta!r}")
        if self.scenario not in ("custom", *_SCENARIO_SHAPES):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.centroids is None and self.scenario == "dim2k4":
            self.centroids = self.scale_a * _DIM2_LAYOUT
        elif self.centroids is None and self.scenario == "dim100k10":
            # Centroid layout drawn once for the whole experiment.
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 999]))
            self.centroids = self.scale_a * rng.standard_normal(_SCENARIO_SHAPES["dim100k10"])
        elif self.centroids is None:
            raise ValueError("custom scenario requires explicit centroids")
        self.centroids = np.asarray(self.centroids, dtype=float)
        for name, want in zip(("k", "d"), _SCENARIO_SHAPES.get(self.scenario, self.centroids.shape)):
            given = getattr(self, name)
            if given is None:
                setattr(self, name, want)
            elif given != want:
                raise ValueError(f"{name}={given!r} contradicts the {self.scenario} scenario's {name}={want}")
        if self.centroids.shape != (self.k, self.d):
            raise ValueError("centroids must have shape (k, d)")
        for name in ("d", "k", "n", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.n % self.k != 0:
            raise ValueError("n must be divisible by k for balanced scenarios")
        if "decentrex" in self.algorithms:
            NetworkConfig(n_sensors=self.n, T=self.slots_t, L=self.update_l, fanout=self.fanout)

    def _check_types(self):
        """Reject a field of the wrong type with a ValueError naming it."""
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (_is_int(value) or value is None and name in ("d", "k")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        sigmas, names = self.sigmas, self.algorithms
        if not isinstance(sigmas, (tuple, list)) or not sigmas or not all(map(_is_real, sigmas)):
            raise ValueError(f"sigmas must be a nonempty list of numbers, got {sigmas!r}")
        if not isinstance(names, (tuple, list)) or not names or not all(isinstance(a, str) for a in names):
            raise ValueError(f"algorithms must be a nonempty list of names, got {names!r}")
        if not isinstance(self.scenario, str):
            raise ValueError(f"scenario must be a name, got {self.scenario!r}")
        if not isinstance(self.record_runtime, bool):
            raise ValueError(f"record_runtime must be true or false, got {self.record_runtime!r}")

    @classmethod
    def from_mapping(cls, raw) -> "ExperimentConfig":
        """Config from a parsed JSON object: lists become tuples, centroids an array."""
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "centroids" in raw and raw["centroids"] is not None:
            raw["centroids"] = np.asarray(raw["centroids"], dtype=float)
        for name in ("sigmas", "algorithms"):
            if isinstance(raw.get(name), list):
                raw[name] = tuple(raw[name])
        return cls(**raw)


def generate_dataset(config: ExperimentConfig, trial_seed, sigma=None) -> Dataset:
    """Balanced synthetic dataset: n/k Gaussian draws around each centroid.

    Uses the first entry of config.sigmas unless sigma is given explicitly.
    """
    sigma = float(config.sigmas[0] if sigma is None else sigma)
    rng = np.random.default_rng(trial_seed)
    per = config.n // config.k
    labels = np.repeat(np.arange(config.k), per)
    noise = rng.standard_normal((config.n, config.d))
    points = config.centroids[labels] + sigma * noise
    return Dataset(points=points, sigma=sigma, labels=labels)


def classification_error(true_labels, assignments, k_true, k_hat) -> float:
    """Error probability after optimally matching estimated to true clusters.

    Builds the k_true x k_hat contingency matrix, finds the one-to-one
    matching maximizing the correctly assigned count, and returns
    1 - matched / N.  Estimated clusters left unmatched count as errors.
    """
    true_labels = np.asarray(true_labels, dtype=int)
    assignments = np.asarray(assignments, dtype=int)
    if true_labels.shape != assignments.shape:
        raise ValueError("label arrays must have equal length")
    if np.any((true_labels < 0) | (true_labels >= k_true)):
        raise ValueError(f"true_labels must lie in [0, k_true={k_true})")
    if np.any(assignments < 0):
        raise ValueError("assignments must be nonnegative")
    # An assignment beyond k_hat gets its own column; an unmatched column counts as errors.
    k_hat = max(k_hat, int(assignments.max()) + 1)
    contingency = np.bincount(true_labels * k_hat + assignments, minlength=k_true * k_hat).reshape(k_true, k_hat)
    rows, cols = linear_sum_assignment(-contingency)
    matched = int(contingency[rows, cols].sum())
    return 1.0 - matched / true_labels.size


@dataclass(frozen=True)
class _Cell:
    """Outcome of one algorithm on one dataset, as the sweep rows need it."""

    assignments: np.ndarray
    k_hat: int
    assigned: np.ndarray  # each point's assigned centroid, raw units
    messages: int


def _run_algorithm(name, config, data, seed) -> _Cell:
    """Dispatch one algorithm on one dataset and pool its results.

    A centralized algorithm returns one result covering every point.
    DeCENTREx returns one per sensor, which labels only its own observation
    against its own centroid list; round order is global, so labels are
    comparable across sensors.  Either way the results cover the points in
    order, and k_hat is their most common count.
    """
    messages = 0
    if name == "centrex":
        results = [run_centrex(data, gamma=config.gamma, epsilon=config.epsilon, seed=seed)]
    elif name == "centrex_gaussian":
        results = [
            centrex_gaussian(
                data, gamma=config.gamma, epsilon=config.epsilon, beta=config.beta, seed=seed
            )
        ]
    elif name == "decentrex":
        net_cfg = NetworkConfig(
            n_sensors=data.n,
            T=config.slots_t,
            L=config.update_l,
            fanout=config.fanout,
            seed=seed,
        )
        results, messages = run_decentrex(data, net_cfg, gamma=config.gamma)
    elif name == "kmeanspp":
        cfg = KMeansConfig(k=config.k, init="plusplus", replicates=1, seed=_as_int_seed(seed))
        results = [kmeans_replicated(data, cfg)]
    elif match := re.fullmatch(r"kmeans(\d*)", name):
        replicates = int(match[1] or "1")
        cfg = KMeansConfig(k=config.k, init="uniform", replicates=replicates, seed=_as_int_seed(seed))
        results = [kmeans_replicated(data, cfg)]
    else:
        raise ValueError(f"unknown algorithm {name!r}")
    return _Cell(
        assignments=np.concatenate([r.assignments for r in results]),
        k_hat=int(np.bincount([r.k_hat for r in results]).argmax()),
        assigned=np.concatenate([r.centroids[r.assignments] for r in results]),
        messages=messages,
    )


def _as_int_seed(seed_seq) -> int:
    return int(seed_seq.generate_state(1)[0])


def run_experiment(config: ExperimentConfig, out_dir=None):
    """Full sweep over (sigma, trial, algorithm).

    Returns the list of row dicts; when out_dir is given also writes
    results.csv and summary.json (mean and std of pe/distortion per
    algorithm and sigma).  Fully deterministic from config.seed unless
    record_runtime is enabled.
    """
    rows = []
    for s_idx, sigma in enumerate(config.sigmas):
        for trial in range(config.trials):
            data = generate_dataset(
                config, np.random.SeedSequence([config.seed, s_idx, trial]), sigma
            )
            for a_idx, name in enumerate(config.algorithms):
                alg_seed = np.random.SeedSequence([config.seed, s_idx, trial, a_idx])
                t0 = time.perf_counter()
                cell = _run_algorithm(name, config, data, alg_seed)
                elapsed = time.perf_counter() - t0 if config.record_runtime else 0.0
                pe = classification_error(
                    data.labels, cell.assignments, k_true=config.k, k_hat=cell.k_hat
                )
                dist = distortion(data.points, cell.assigned, np.arange(data.n))
                rows.append(
                    {
                        "algorithm": name,
                        "sigma": float(sigma),
                        "trial": trial,
                        "k_hat": cell.k_hat,
                        "pe": pe,
                        "distortion": dist,
                        "messages": cell.messages,
                        "runtime_s": elapsed,
                    }
                )
    if out_dir is not None:
        _write_outputs(rows, config, Path(out_dir))
    return rows


def _write_outputs(rows, config, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    try:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            for row in rows:
                out = dict(row)
                out["pe"] = f"{row['pe']:.10g}"
                out["distortion"] = f"{row['distortion']:.10g}"
                out["runtime_s"] = f"{row['runtime_s']:.6f}"
                writer.writerow(out)
    except OSError as exc:
        raise OSError(f"failed writing {csv_path}: {exc}") from exc

    summary = {}
    for name in config.algorithms:
        summary[name] = []
        for sigma in config.sigmas:
            sel = [r for r in rows if r["algorithm"] == name and r["sigma"] == float(sigma)]
            pes = np.array([r["pe"] for r in sel])
            dis = np.array([r["distortion"] for r in sel])
            summary[name].append(
                {
                    "sigma": float(sigma),
                    "trials": len(sel),
                    "pe_mean": float(pes.mean()),
                    "pe_std": float(pes.std()),
                    "distortion_mean": float(dis.mean()),
                    "distortion_std": float(dis.std()),
                    "k_hat_mean": float(np.mean([r["k_hat"] for r in sel])),
                }
            )
    json_path = out_dir / "summary.json"
    try:
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    except OSError as exc:
        raise OSError(f"failed writing {json_path}: {exc}") from exc
