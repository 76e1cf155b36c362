"""Command line: run one experiment from a configuration document.

    python -m nrpos run CONFIG.yaml OUT_DIR

CONFIG.yaml is a YAML (or JSON) document for `config.load_config`,
optionally naming a preset (``preset: ioo-fr1``) plus overrides. OUT_DIR
receives results.csv, cdf.csv and summary.json; the summary's
percentiles are printed.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .experiments import run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m nrpos",
                                     description="NR positioning link-level simulator")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the drops of one experiment")
    run.add_argument("config", help="experiment configuration (YAML or JSON)")
    run.add_argument("out", help="directory for results.csv, cdf.csv and summary.json")
    args = parser.parse_args(argv)

    summary = run_experiment(load_config(args.config), out_dir=args.out).summary
    print(f"{summary.n_converged}/{summary.n_drops} converged; horizontal error "
          + ", ".join(f"p{p} {v:.3g} m" for p, v in summary.percentiles.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
