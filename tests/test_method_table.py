"""The method table is the one place that knows the positioning methods:
it covers `config.METHODS`, `solve_records` fails on what it cannot
solve with a `SolverError`, and no other module of src/nrpos dispatches
on a method name."""

import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nrpos.config import METHODS, preset_config
from nrpos.simulate import METHOD_TABLE, Simulator, solve_records
from nrpos.solvers import SolverError

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nrpos"
# the module that defines the names, and the table that maps them
ALLOWED_MODULES = {"config.py"}
TABLE = "METHOD_TABLE"


def test_table_covers_the_methods_in_order():
    assert tuple(METHOD_TABLE) == METHODS


def test_unknown_method_is_a_solver_error():
    sim = Simulator(preset_config("ioo-fr1", n_prb=24, n_drops=1))
    records = sim.run_drop(0).records
    with pytest.raises(SolverError, match="unknown method"):
        solve_records(records, sim.anchors, "fingerprint", sim.options)


def test_record_without_anchor_is_a_solver_error():
    """IOO FR1 DL-TDOA drop 0 against anchors that lack its strongest TRP,
    which its time differences are measured against."""
    sim = Simulator(preset_config("ioo-fr1", method="dl-tdoa", n_drops=1))
    records = sim.run_drop(0).records
    ref = records[0].trp_id
    anchors = {t: p for t, p in sim.anchors.items() if t != ref}
    with pytest.raises(SolverError, match=f"no anchor for TRP {ref}"):
        solve_records(records, anchors, "dl-tdoa", sim.options)


def test_dl_aod_solve_needs_the_beam_table():
    sim = Simulator(preset_config("ioo-fr1", method="dl-aod", n_prb=24, n_drops=1))
    records = sim.run_drop(0).records
    assert records
    with pytest.raises(SolverError, match="beam table"):
        solve_records(records, sim.anchors, "dl-aod", sim.options)
    # a report naming a beam the table does not hold, as a record file may;
    # a beam is an int, so a float equal to one (JSON's 2.0) or a bool names
    # none (before, 2.0 raised IndexError and True ValueError)
    for beam in (-1, sim.config.n_beams, 2.0, True):
        stray = replace(records[0], resource_id=beam)
        with pytest.raises(SolverError, match=f"TRP {stray.trp_id} has no beam {beam}"):
            solve_records([stray, *records], sim.anchors, "dl-aod", sim.options, sim.beams)


@pytest.mark.parametrize("method", METHODS)
def test_report_kinds_carry_what_the_method_solves_from(method):
    """A session solves what the UE and the radio nodes report: the records
    of the entry's `ue_report` and `gnb_report` kinds. Over UMa drops 0-7
    at master seed 1, those records alone give each drop's fix bit for
    bit, or its failure. The uplink entries named no report kinds, so a
    session over them had nothing to solve."""
    spec = METHOD_TABLE[method]
    sim = Simulator(preset_config("uma", method=method, n_drops=8))
    outcomes = [sim.run_drop(d) for d in range(8)]
    assert any(o.fix is not None for o in outcomes)
    for o in outcomes:
        reported = [r for r in o.records if r.kind in spec.ue_report + spec.gnb_report]
        if o.fix is None:
            with pytest.raises(SolverError, match=re.escape(o.failure)):
                solve_records(reported, sim.anchors, method, sim.options, sim.beams)
            continue
        fix = solve_records(reported, sim.anchors, method, sim.options, sim.beams)
        assert np.array_equal(fix.position, o.fix.position)
        assert fix.residual_rms == o.fix.residual_rms


def method_dispatch(source: str) -> list[str]:
    """Method-name literals outside the assignment of TABLE: wherever a
    module names a method, in a test, a key, a value or an argument, it
    dispatches on it."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                isinstance(t, ast.Name) and t.id == TABLE
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])):
            exempt.update(id(n) for n in ast.walk(node))
    return [f"{node.value} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in METHODS
            and id(node) not in exempt]


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ALLOWED_MODULES)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_method_dispatch_outside_the_table(path):
    assert method_dispatch(path.read_text()) == []


def test_guard_sees_method_dispatch():
    source = (
        "METHOD_TABLE = {'dl-tdoa': 1, 'ul-aoa': 2}\n"
        "KINDS = {'ul-tdoa': 'tdoa'}\n"
        "def f(method, spec):\n"
        "    if method == 'multi-rtt' or method in ('dl-aod', 'x'):\n"
        "        return {'method': 'dl-tdoa'}\n"
        "    match method:\n"
        "        case 'ul-aoa':\n"
        "            return spec == METHOD_TABLE[method]\n"
        "    start('ul-tdoa', kind='aod')\n"
        "    return METHOD_TABLE['dl-aod'].solve\n"
    )
    assert sorted(method_dispatch(source)) == [
        "dl-aod (line 10)", "dl-aod (line 4)", "dl-tdoa (line 5)", "multi-rtt (line 4)",
        "ul-aoa (line 7)", "ul-tdoa (line 2)", "ul-tdoa (line 9)"]
