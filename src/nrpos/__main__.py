"""Command line: run one experiment from a configuration document, or the
accuracy matrix.

    python -m nrpos run CONFIG.yaml OUT_DIR
    python -m nrpos matrix OUT_DIR

CONFIG.yaml is a YAML (or JSON) document for `config.load_config`,
optionally naming a preset (``preset: ioo-fr1``) plus overrides. OUT_DIR
receives results.csv, cdf.csv and summary.json; the summary's
percentiles are printed. `matrix` runs every preset against every method
at 200 drops and writes OUT_DIR/ACCURACY.json (`experiments.accuracy_matrix`);
the repository's committed ACCURACY.json is its output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config
from .experiments import accuracy_matrix, run_experiment


def _metres(percentile) -> str:
    """A matrix cell's percentile, null where no drop converged."""
    return "none" if percentile is None else f"{percentile:.3g} m"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m nrpos",
                                     description="NR positioning link-level simulator")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the drops of one experiment")
    run.add_argument("config", help="experiment configuration (YAML or JSON)")
    run.add_argument("out", help="directory for results.csv, cdf.csv and summary.json")
    matrix = commands.add_parser("matrix", help="run every preset against every method")
    matrix.add_argument("out", help="directory for ACCURACY.json")
    args = parser.parse_args(argv)

    if args.command == "matrix":
        doc = accuracy_matrix()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ACCURACY.json").write_text(json.dumps(doc, indent=2) + "\n")
        for preset, row in doc["cells"].items():
            for method, cell in row.items():
                print(f"{preset} {method}: {cell['converged']}/{doc['n_drops']} converged, "
                      f"p50 {_metres(cell['percentiles']['50'])}, "
                      f"p90 {_metres(cell['percentiles']['90'])}, "
                      f"{cell['outside_area']} outside the area")
        return 0

    summary = run_experiment(load_config(args.config), out_dir=args.out).summary
    print(f"{summary.n_converged}/{summary.n_drops} converged; horizontal error "
          + ", ".join(f"p{p} {v:.3g} m" for p, v in summary.percentiles.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
