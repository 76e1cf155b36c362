"""The command line: `python -m nrpos run CONFIG OUT` on a preset document,
and `python -m nrpos matrix OUT`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import nrpos
from nrpos import __main__ as cli
from nrpos.config import METHODS, PRESETS
from nrpos.experiments import accuracy_matrix


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
