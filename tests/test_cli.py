"""The command line: `python -m nrpos run CONFIG OUT` on a preset document,
and `python -m nrpos matrix OUT`, also with a cell that has no fix."""

import json
import os
import subprocess
import sys
from pathlib import Path

import nrpos
from nrpos import __main__ as cli
from nrpos.config import METHODS, PRESETS, preset_config
from nrpos.experiments import accuracy_matrix, matrix_cell, run_experiment


def test_run_writes_the_artifacts(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("preset: ioo-fr1\nn_drops: 2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(next(iter(nrpos.__path__))).parent))
    proc = subprocess.run([sys.executable, "-m", "nrpos", "run", str(config), "out"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["cdf.csv", "results.csv", "summary.json"]
    assert len((out / "results.csv").read_text().splitlines()) == 1 + 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_drops"] == 2 and summary["config"]["scenario"] == "ioo"
    assert "2/2 converged" in proc.stdout


def test_matrix_writes_every_cell(tmp_path, monkeypatch, capsys):
    """The matrix command at one drop per cell: the committed file's 200
    drops take over a minute."""
    monkeypatch.setattr(cli, "accuracy_matrix", lambda: accuracy_matrix(n_drops=1))
    assert cli.main(["matrix", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "ACCURACY.json").read_text())
    assert doc["n_drops"] == 1
    assert {p: list(row) for p, row in doc["cells"].items()} == \
        {p: list(METHODS) for p in PRESETS}
    assert len(capsys.readouterr().out.splitlines()) == len(PRESETS) * len(METHODS)


def test_matrix_prints_a_cell_without_a_fix(tmp_path, monkeypatch, capsys):
    """UMa DL-TDOA at a 90 dB downlink noise figure converges on neither of
    its 2 drops: its cell's percentiles are null in ACCURACY.json, which
    parses as strict JSON, and the printed line names none."""
    cell = matrix_cell(run_experiment(preset_config("uma", method="dl-tdoa", n_drops=2,
                                                    dl_noise_figure_db=90.0)))
    monkeypatch.setattr(cli, "accuracy_matrix",
                        lambda: {"n_drops": 2, "cells": {"uma": {"dl-tdoa": cell}}})
    assert cli.main(["matrix", str(tmp_path)]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads((tmp_path / "ACCURACY.json").read_text(), parse_constant=reject)
    assert set(doc["cells"]["uma"]["dl-tdoa"]["percentiles"].values()) == {None}
    assert capsys.readouterr().out == \
        "uma dl-tdoa: 0/2 converged, p50 none, p90 none, 0 outside the area\n"
