"""Batch experiment runner: N terminal drops through the full
signal/channel/measurement/solver chain, with per-drop CSV output,
empirical CDF points and a percentile summary.

Output schemas (stable):

results.csv  ue_id,true_x,true_y,true_z,est_x,est_y,est_z,
             horizontal_error_m,vertical_error_m,converged,in_hull,gdop
cdf.csv      horizontal_error_m,probability   (both columns nondecreasing)
summary.json config echo + percentiles + counts + runtime + seconds per
             pipeline stage (`simulate.STAGES`); a percentile of a run
             with no converged drop is null

A drop's gdop is that of the rows its fix was solved from, at the truth;
the cell is empty without a fix.

The accuracy matrix (`accuracy_matrix`, written as ACCURACY.json) runs every
preset against every method and records, per cell, the converged count,
the percentiles, the converged fixes outside the solver's area and the
results.csv sha256.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import METHODS, PRESETS, ExperimentConfig, preset_config
from .simulate import DropOutcome, Simulator
from .solvers import in_area

PERCENTILES = (50, 67, 90, 95)


@dataclass
class ResultSummary:
    percentiles: dict[int, float]
    n_drops: int
    n_converged: int
    n_failed: int
    runtime_s: float
    stage_s: dict[str, float]
    config: dict

    def to_dict(self) -> dict:
        return {
            "percentiles": {str(p): None if math.isnan(v) else v
                            for p, v in self.percentiles.items()},
            "n_drops": self.n_drops,
            "n_converged": self.n_converged,
            "n_failed": self.n_failed,
            "runtime_s": self.runtime_s,
            "stage_s": self.stage_s,
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ResultSummary":
        return cls(
            percentiles={int(p): math.nan if v is None else v
                         for p, v in doc["percentiles"].items()},
            n_drops=doc["n_drops"],
            n_converged=doc["n_converged"],
            n_failed=doc["n_failed"],
            runtime_s=doc["runtime_s"],
            stage_s=doc["stage_s"],
            config=doc["config"],
        )


@dataclass
class ExperimentResult:
    summary: ResultSummary
    outcomes: list[DropOutcome]
    results_csv: str
    cdf_csv: str
    # the solver's deployment area (x0, y0, x1, y1) the fixes should lie in
    area: tuple[float, float, float, float]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def _results_csv(outcomes) -> str:
    lines = ["ue_id,true_x,true_y,true_z,est_x,est_y,est_z,"
             "horizontal_error_m,vertical_error_m,converged,in_hull,gdop"]
    for o in outcomes:
        est = o.fix.position if o.fix is not None else [math.nan] * 3
        lines.append(",".join([
            str(o.drop_idx),
            _fmt(o.truth[0]), _fmt(o.truth[1]), _fmt(o.truth[2]),
            _fmt(est[0]), _fmt(est[1]), _fmt(est[2]),
            _fmt(o.horizontal_error_m), _fmt(o.vertical_error_m),
            _fmt(bool(o.converged)),
            "" if o.in_hull is None else _fmt(o.in_hull),
            _fmt(o.gdop),
        ]))
    return "\n".join(lines) + "\n"


def _cdf_csv(errors: np.ndarray) -> str:
    lines = ["horizontal_error_m,probability"]
    if len(errors):
        for i, e in enumerate(np.sort(errors)):
            lines.append(f"{float(e)!r},{(i + 1) / len(errors)!r}")
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Run every drop of the experiment, deterministically in the seed.

    Per-drop randomness comes from substreams keyed by (master_seed,
    drop_index), so a drop's result does not depend on the other drops.
    Writes results.csv, cdf.csv and summary.json when out_dir is given.
    """
    started = time.monotonic()
    sim = Simulator(config)
    outcomes = [sim.run_drop(i) for i in range(config.n_drops)]

    errors = np.array([o.horizontal_error_m for o in outcomes if o.converged])
    n_converged = int(sum(1 for o in outcomes if o.converged))
    n_failed = config.n_drops - n_converged
    percentiles = {
        p: (float(np.percentile(errors, p)) if len(errors) else math.nan)
        for p in PERCENTILES
    }
    summary = ResultSummary(
        percentiles=percentiles,
        n_drops=config.n_drops,
        n_converged=n_converged,
        n_failed=n_failed,
        runtime_s=time.monotonic() - started,
        stage_s=dict(sim.stage_s),
        config=config.model_dump(),
    )
    result = ExperimentResult(
        summary=summary,
        outcomes=outcomes,
        results_csv=_results_csv(outcomes),
        cdf_csv=_cdf_csv(errors),
        area=sim.options.area,
    )
    if out_dir is not None:
        write_artifacts(result, out_dir)
    return result


def write_artifacts(result: ExperimentResult, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(result.results_csv)
    (out / "cdf.csv").write_text(result.cdf_csv)
    (out / "summary.json").write_text(
        json.dumps(result.summary.to_dict(), indent=2, sort_keys=False) + "\n"
    )


MATRIX_DROPS = 200


def matrix_cell(result: ExperimentResult) -> dict:
    """One accuracy-matrix cell: what a run's fixes say about its accuracy."""
    summary = result.summary
    return {
        "converged": summary.n_converged,
        "percentiles": summary.to_dict()["percentiles"],
        "outside_area": sum(1 for o in result.outcomes
                            if o.converged and not in_area(o.fix.position, result.area)),
        "results_sha256": hashlib.sha256(result.results_csv.encode()).hexdigest(),
    }


def accuracy_matrix(n_drops: int = MATRIX_DROPS) -> dict:
    """Every preset against every method at n_drops drops, default seed."""
    cells = {
        preset: {
            method: matrix_cell(run_experiment(preset_config(preset, method=method,
                                                             n_drops=n_drops)))
            for method in METHODS
        }
        for preset in PRESETS
    }
    return {"n_drops": n_drops, "cells": cells}
