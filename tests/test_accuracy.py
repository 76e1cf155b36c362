"""The committed accuracy matrix, ACCURACY.json (`python -m nrpos matrix .`):
every (preset, method) cell is there with its schema, and five cheap cells
re-run to their committed figures, so the file cannot go stale unseen."""

import json
import re
from pathlib import Path

import pytest

from nrpos.config import METHODS, PRESETS, preset_config
from nrpos.experiments import MATRIX_DROPS, PERCENTILES, matrix_cell, run_experiment

DOC = json.loads((Path(__file__).resolve().parent.parent / "ACCURACY.json").read_text())


def test_every_cell_has_the_schema():
    assert DOC["n_drops"] == MATRIX_DROPS
    assert list(DOC["cells"]) == list(PRESETS)
    for row in DOC["cells"].values():
        assert list(row) == list(METHODS)
        for cell in row.values():
            assert set(cell) == {"converged", "percentiles", "outside_area", "results_sha256"}
            assert 0 <= cell["outside_area"] <= cell["converged"] <= MATRIX_DROPS
            values = [cell["percentiles"][str(p)] for p in PERCENTILES]
            assert len(cell["percentiles"]) == len(PERCENTILES)
            assert values == sorted(values) and values[0] >= 0.0
            assert re.fullmatch("[0-9a-f]{64}", cell["results_sha256"])


# uma dl-aod and ioo-fr1 multi-rtt at MATRIX_DROPS drops are the drop
# benchmark's uma-dl-aod and ioo-multi-rtt populations;
# ioo-fr2 ul-tdoa keeps the uplink cells from going stale; ioo-fr1 ul-aoa
# solves azimuth and zenith rows, the one kind set whose residual order is
# not anchor-row order
@pytest.mark.parametrize("preset,method", [("ioo-fr2", "multi-rtt"), ("uma", "dl-aod"),
                                           ("ioo-fr1", "multi-rtt"), ("ioo-fr2", "ul-tdoa"),
                                           ("ioo-fr1", "ul-aoa")])
def test_cheap_cell_reruns_to_its_committed_figures(preset, method):
    result = run_experiment(preset_config(preset, method=method, n_drops=MATRIX_DROPS))
    assert matrix_cell(result) == DOC["cells"][preset][method]
