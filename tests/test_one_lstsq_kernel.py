"""Every least-squares solve in src/nrpos is `solvers._lstsq`, which calls
the gufunc that `np.linalg.lstsq` wraps (LAPACK's dgelsd) without the
wrapper: the Gauss-Newton step and both closed-form starts. It matches
`np.linalg.lstsq(a, b, rcond=None)[0]` bit for bit on the systems that
drops solve, on rank-deficient systems, and on a NaN system it ends a
Gauss-Newton run where the wrapper's LinAlgError did."""

import dataclasses
import sys

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import gauss_newton_oracle as oracle
from nrpos import solvers
from nrpos.config import preset_config
from nrpos.simulate import Simulator
from nrpos.solvers import RANGE, PositionFix, Row, SolverOptions
from test_one_receive_path import PACKAGE, use_sites
from test_solvers import bits


def lstsq(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


def test_numpy_has_the_kernel():
    kernel = getattr(_umath_linalg, "lstsq", None)
    assert kernel is not None, (
        f"numpy {np.__version__} has no numpy.linalg._umath_linalg.lstsq, "
        "the dgelsd gufunc that solvers._lstsq calls")
    assert "ddd->ddid" in kernel.types, (
        f"numpy {np.__version__}'s dgelsd gufunc has no 'ddd->ddid' loop: {kernel.types}")


def test_every_solve_is_the_one_kernel():
    """No `np.linalg.lstsq` in the package; the gufunc is called in
    `_lstsq` alone, and `_lstsq` by the Gauss-Newton step and the starts."""
    assert use_sites(PACKAGE, "lstsq") == []
    assert use_sites(PACKAGE, "_dgelsd") == ["solvers._lstsq"]
    assert sorted(use_sites(PACKAGE, "_lstsq")) == [
        "solvers._bearing_start", "solvers._gauss_newton", "solvers._range_start"]


def test_guard_sees_a_wrapped_solve(tmp_path):
    (tmp_path / "fit.py").write_text(
        "import numpy as np\n"
        "from numpy.linalg import lstsq\n"
        "def step(j, r):\n"
        "    return np.linalg.lstsq(j, r, rcond=None)[0]\n"
        "def start(a, b):\n"
        "    return lstsq(a, b)[0]\n"
    )
    assert use_sites(tmp_path, "lstsq") == ["fit.step", "fit.start"]


# (preset, method, drops): drops whose solves reach every caller of _lstsq
CAPTURE_CASES = [
    ("uma", "dl-aod", (1, 8, 17)),
    ("ioo-fr1", "multi-rtt", (0, 1)),
    ("uma", "dl-tdoa", (3,)),
]


def test_captured_systems_match_numpy(monkeypatch):
    """Every system the drops solve, by the function that solved it: the
    Gauss-Newton Jacobians of UMa DL-AoD, IOO FR1 multi-RTT and UMa DL-TDOA
    drops, the bearing-line and the squared-range systems."""
    real = solvers._lstsq
    systems = []

    def captured(a, b):
        systems.append((sys._getframe(1).f_code.co_name, np.array(a, dtype=float),
                        np.array(b, dtype=float)))
        return real(a, b)

    monkeypatch.setattr(solvers, "_lstsq", captured)
    for preset, method, drops in CAPTURE_CASES:
        sim = Simulator(preset_config(preset, method=method, n_drops=max(drops) + 1))
        assert all(sim.run_drop(d).fix is not None for d in drops)
    assert {caller for caller, _, _ in systems} == {
        "_gauss_newton", "_bearing_start", "_range_start"}
    assert len(systems) > 100
    for caller, a, b in systems:
        assert bits(real(a, b)) == bits(lstsq(a, b)), caller


@pytest.mark.parametrize("a", [
    pytest.param([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [-1.0, -2.0]], id="rank-1"),
    pytest.param([[1.0, 1.0], [1.0, 1.0 + 1e-15], [2.0, 2.0], [0.5, 0.5]],
                 id="below-the-cutoff"),
    # coplanar anchors in 3-D: the z column is a multiple of the constant one
    pytest.param([[-0.0, -0.0, -20.0, 1.0], [-200.0, -0.0, -20.0, 1.0],
                  [-200.0, -200.0, -20.0, 1.0], [-0.0, -200.0, -20.0, 1.0],
                  [-100.0, 40.0, -20.0, 1.0]], id="coplanar-range-start"),
    pytest.param([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], id="zero"),
])
def test_rank_deficient_systems_match_numpy(a):
    rng = np.random.default_rng(len(a))
    for _ in range(20):
        b = rng.normal(size=len(a)) * 100.0
        assert bits(solvers._lstsq(a, b)) == bits(lstsq(a, b))


def test_nan_system_ends_the_run_as_the_wrapper_did():
    """An anchor with a NaN coordinate makes a NaN Jacobian row, on which
    the SVD does not converge: np.linalg.lstsq raises LinAlgError, and
    `_lstsq` gives a NaN step. The run ends at its first iteration with the
    oracle's fix, whose step is the wrapper's."""
    anchors = np.array([[0.0, 0.0, 10.0], [100.0, 0.0, 10.0], [np.nan, 100.0, 10.0],
                        [0.0, 100.0, 10.0]])
    rows = [Row(RANGE, i, 60.0) for i in range(4)]
    problem = solvers._Problem(rows, anchors, 1.5)
    options = SolverOptions(fix_height=1.5, area=(-1000.0, -1000.0, 1000.0, 1000.0))
    x0 = np.array([40.0, 30.0, 1.5])
    j, r = problem.jacobian(x0), problem._residuals(x0.tolist())
    with pytest.raises(np.linalg.LinAlgError):
        lstsq(j, r)
    with np.errstate(all="ignore"):
        assert np.all(np.isnan(solvers._lstsq(j, r)))
        want, _ = oracle.gauss_newton(problem, x0, options)
    fix = solvers._gauss_newton(problem, x0, options)
    for field in dataclasses.fields(PositionFix):
        assert bits(getattr(fix, field.name)) == bits(getattr(want, field.name)), field.name
    assert fix.iterations == 1 and not fix.converged
