"""Command-line entry points.

Subcommands:
    centrex run --config cfg.json [--out DIR]
    decentrex run --config cfg.json [--out DIR]
    kmeans run --config cfg.json [--out DIR]
    sweep --config cfg.json --out DIR
    rsq --dim D [--method quadrature|montecarlo]

Config files are JSON with the ExperimentConfig fields.  The environment
variable CENTREX_SEED overrides the root seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import ExperimentConfig, run_experiment
from .statfn import KernelSpec, r_squared


def _add_run_subcommand(subparsers, name, help_text):
    p = subparsers.add_parser(name, help=help_text)
    p.add_argument("action", choices=["run"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="centrex")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_subcommand(sub, "centrex", "run the centralized pipeline")
    _add_run_subcommand(sub, "decentrex", "run the decentralized simulator")
    _add_run_subcommand(sub, "kmeans", "run the K-means baselines")

    sweep = sub.add_parser("sweep", help="run all configured algorithms over the sigma sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)

    rsq = sub.add_parser("rsq", help="print the variance-inflation constant r^2")
    rsq.add_argument("--dim", type=int, required=True)
    rsq.add_argument("--method", choices=["quadrature", "montecarlo"], default="quadrature")
    rsq.add_argument("--samples", type=int, default=10000)
    rsq.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rsq":
            kernel = KernelSpec("wald", args.dim)
            value = r_squared(kernel, args.method, sample_count=args.samples, seed=args.seed)
            print(f"{value:.10g}")
            return 0
        with open(args.config) as fh:
            raw = json.load(fh)
        if isinstance(raw, dict):
            # Set before the config is built, which draws a dim100k10 layout from
            # the seed and checks the fields each listed algorithm uses.
            env_seed = os.environ.get("CENTREX_SEED")
            if env_seed is not None:
                raw["seed"] = int(env_seed)
            listed = raw.get("algorithms", [])
            if args.command in ("centrex", "decentrex"):
                raw["algorithms"] = [args.command]
            elif args.command == "kmeans" and isinstance(listed, list):
                kmeans = [a for a in listed if isinstance(a, str) and a.startswith("kmeans")]
                raw["algorithms"] = kmeans or ["kmeans10", "kmeans100"]
        config = ExperimentConfig.from_mapping(raw)
        rows = run_experiment(config, out_dir=args.out)
        if args.out is None:
            json.dump(rows, sys.stdout, indent=2, default=float)
            print()
        return 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
