import dataclasses
import math

import numpy as np
import pytest

import gauss_newton_oracle as oracle
from nrpos import solvers
from nrpos.config import preset_config
from nrpos.measurements import MeasurementRecord
from nrpos.simulate import Simulator, solve_records
from nrpos.solvers import (
    AZIMUTH,
    RANGE,
    RANGE_DIFFERENCE,
    ZENITH,
    PositionFix,
    Row,
    SolverError,
    SolverOptions,
    beam_bearings,
    gdop,
    init_guess,
    solve_rows,
    wrap_deg,
)

# an area well around every anchor set of these tests
WIDE_AREA = (-1000.0, -1000.0, 1000.0, 1000.0)
OPT2D = SolverOptions(fix_height=1.5, area=WIDE_AREA)
# DL-AoD beam reports, which become azimuth rows through `beam_bearings`
BEAMS = "beams"


def square_anchors(side=100.0, z=10.0):
    h = side / 2
    return np.array([[-h, -h, z], [h, -h, z], [h, h, z], [-h, h, z]])


def random_anchors(rng, n=6, z=3.0):
    """Non-degenerate anchor sets: jittered ring with a minimum spread."""
    while True:
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
        radii = rng.uniform(30, 120, n)
        pts = np.column_stack([
            radii * np.cos(angles), radii * np.sin(angles), np.full(n, z)
        ])
        spread = pts[:, :2] - pts[:, :2].mean(axis=0)
        if min(np.linalg.svd(spread, compute_uv=False)) > 20.0:
            return pts


def exact_rows(kinds, anchors, ue, ref=0):
    """Noiseless rows of the given kinds from every anchor; range
    differences against anchor row ref, which has none of its own."""
    v = ue - anchors
    d = np.linalg.norm(v, axis=1)
    value = {
        RANGE_DIFFERENCE: lambda i: d[i] - d[ref],
        RANGE: lambda i: d[i],
        AZIMUTH: lambda i: math.degrees(math.atan2(v[i, 1], v[i, 0])),
        ZENITH: lambda i: math.degrees(math.acos(v[i, 2] / d[i])),
    }
    return [Row(kind, i, value[kind](i), ref if kind == RANGE_DIFFERENCE else None)
            for kind in kinds for i in range(len(anchors))
            if i != ref or kind != RANGE_DIFFERENCE]


def problem_of(anchors, values, fix_height, ref=None):
    """`_problem` of one row per kind in values and anchor row i, valued
    values[kind][i]; range differences against anchor row ref."""
    rows = [Row(kind, i, float(v), ref if kind == RANGE_DIFFERENCE else None)
            for kind, column in values.items() for i, v in enumerate(column)]
    return solvers._problem(rows, anchors, fix_height)


def beam_reports(anchors, ue, spacing_deg=10.0):
    """DL-AoD reports and the beam table they name: three beams per TRP,
    the middle one toward the terminal and 10 dB stronger than its
    neighbours, so that the weighted bearing is exactly the departure."""
    records, beams = [], {}
    for i, az in enumerate(r.value for r in exact_rows((AZIMUTH,), anchors, ue)):
        beams[i] = [az - spacing_deg, az, az + spacing_deg]
        records += [MeasurementRecord(kind="PRS_RSRP", trp_id=i, resource_id=b,
                                      payload={"value_dbm": p})
                    for b, p in enumerate((-90.0, -80.0, -90.0))]
    return records, beams


def aod_fix(anchors, records, beams, options):
    return solve_records(records, dict(enumerate(anchors)), "dl-aod", options, beams)


def noiseless_fix(family, anchors, ue, options=OPT2D):
    if family == BEAMS:
        return aod_fix(anchors, *beam_reports(anchors, ue), options)
    return solve_rows(exact_rows(family, anchors, ue), anchors, options)


class TestNoiselessRecovery:
    def test_square_center_symmetry(self):
        ue = np.array([0.0, 0.0, 1.5])
        fix = noiseless_fix((RANGE_DIFFERENCE,), square_anchors(), ue)
        assert fix.converged
        assert np.linalg.norm(fix.position[:2] - ue[:2]) < 1e-6

    def test_three_anchor_trilateration(self):
        anchors = np.array([[0, 0, 3], [100, 0, 3], [0, 100, 3]], dtype=float)
        ue = np.array([30.0, 40.0, 1.5])
        fix = noiseless_fix((RANGE,), anchors, ue)
        assert fix.converged
        assert np.linalg.norm(fix.position[:2] - ue[:2]) < 1e-9

    def test_two_bearing_intersection(self):
        anchors = np.array([[0, 0, 1.5], [100, 0, 1.5]], dtype=float)
        ue = np.array([50.0, 50.0, 1.5])  # bearings 45 and 135 degrees
        rows = [Row(AZIMUTH, 0, 45.0), Row(AZIMUTH, 1, 135.0)]
        fix = solve_rows(rows, anchors, OPT2D)
        assert np.linalg.norm(fix.position[:2] - ue[:2]) < 1e-6

    def test_aoa_four_anchors(self):
        anchors = np.array([[10, 15, 3], [110, 15, 3], [10, 35, 3], [110, 35, 3]],
                           dtype=float)
        ue = np.array([42.0, 27.0, 1.5])
        fix = noiseless_fix((AZIMUTH, ZENITH), anchors, ue)
        assert np.linalg.norm(fix.position[:2] - ue[:2]) < 1e-6

    def test_aod_symmetric_beams(self):
        anchors = np.array([[0, 0, 3], [100, 0, 3], [50, 80, 3]], dtype=float)
        ue = np.array([40.0, 30.0, 1.5])
        fix = noiseless_fix(BEAMS, anchors, ue)
        assert np.linalg.norm(fix.position[:2] - ue[:2]) < 1e-6

    @pytest.mark.parametrize("method,family", [
        pytest.param("tdoa", (RANGE_DIFFERENCE,), id="tdoa"),
        pytest.param("rtt", (RANGE,), id="rtt"),
        pytest.param("aoa", (AZIMUTH, ZENITH), id="aoa"),
        pytest.param("aod", BEAMS, id="aod"),
    ])
    def test_random_instances(self, method, family):
        rng = np.random.default_rng(sum(map(ord, method)))
        for _ in range(60):
            anchors = random_anchors(rng)
            ue = np.array([rng.uniform(-60, 60), rng.uniform(-60, 60), 1.5])
            fix = noiseless_fix(family, anchors, ue)
            assert np.linalg.norm(fix.position[:2] - ue[:2]) < 1e-6
            assert fix.converged


SQUARE = square_anchors()


class TestSolverContracts:
    def test_insufficient_measurements(self):
        rows = exact_rows((RANGE_DIFFERENCE,), SQUARE, np.array([0, 0, 1.5]))[:2]
        with pytest.raises(SolverError, match="tdoa needs >= 3 measurements, got 2"):
            solve_rows(rows, SQUARE, OPT2D)
        with pytest.raises(SolverError, match="rtt needs >= 3 measurements, got 2"):
            solve_rows([Row(RANGE, 0, 10.0), Row(RANGE, 1, 20.0)], SQUARE, OPT2D)
        with pytest.raises(SolverError, match="aoa needs >= 2 measurements, got 1"):
            solve_rows([Row(AZIMUTH, 0, 10.0)], SQUARE, OPT2D)
        # a free height takes one more
        with pytest.raises(SolverError, match="rtt needs >= 4 measurements, got 3"):
            solve_rows(exact_rows((RANGE,), SQUARE[:3], np.zeros(3)), SQUARE,
                       SolverOptions(fix_height=None, area=WIDE_AREA))
        with pytest.raises(SolverError, match="no measurements"):
            solve_rows([], SQUARE, OPT2D)

    def test_collinear_anchors_rejected(self):
        """Ranges and range differences need anchors that span the plane;
        a range difference's reference is one of them."""
        anchors = np.array([[0, 0, 3], [50, 0, 3], [100, 0, 3], [150, 0, 3], [0, 80, 3]],
                           dtype=float)
        ue = np.array([50.0, 40.0, 1.5])
        with pytest.raises(SolverError, match="anchors are collinear"):
            solve_rows(exact_rows((RANGE,), anchors[:4], ue), anchors, OPT2D)
        with pytest.raises(SolverError, match="anchors are collinear"):
            solve_rows(exact_rows((RANGE_DIFFERENCE,), anchors[:4], ue), anchors, OPT2D)
        off_line = [Row(RANGE_DIFFERENCE, i, 1.0, 4) for i in range(4)]
        assert isinstance(solve_rows(off_line, anchors, OPT2D), PositionFix)

    def test_reference_on_a_range_rejected(self):
        """Only a range difference is taken against a reference anchor. Three
        ranges on anchors 0-2 that named anchor 3, at (5000, 5000), as their
        reference moved the default start from (33.3, 33.3) to (1275, 1275),
        though no residual read anchor 3."""
        anchors = np.array([[0, 0, 3], [100, 0, 3], [0, 100, 3], [5000, 5000, 3]],
                           dtype=float)
        rows = [r._replace(ref=3)
                for r in exact_rows((RANGE,), anchors[:3], np.array([30.0, 40.0, 1.5]))]
        message = "only a range difference is taken against a reference anchor"
        with pytest.raises(SolverError, match=message):
            solve_rows(rows, anchors, OPT2D)
        with pytest.raises(SolverError, match=message):
            gdop(rows, anchors, [30.0, 40.0, 1.5], 1.5)
        assert solve_rows([r._replace(ref=None) for r in rows], anchors, OPT2D).converged

    def test_mixed_references_rejected(self):
        rows = [Row(RANGE_DIFFERENCE, 1, 5.0, 0), Row(RANGE_DIFFERENCE, 2, 3.0, 0),
                Row(RANGE_DIFFERENCE, 3, 1.0, 1)]
        with pytest.raises(SolverError,
                           match="all range differences must share one reference anchor"):
            solve_rows(rows, SQUARE, OPT2D)

    @pytest.mark.parametrize("rows,options,message", [
        pytest.param([Row(AZIMUTH, 0, 30.0), Row(AZIMUTH, 1, -150.0), Row(AZIMUTH, 2, 30.0)],
                     OPT2D, "parallel bearings have no unique intersection",
                     id="parallel-bearings"),
        pytest.param(exact_rows((AZIMUTH,), SQUARE, np.array([10.0, 5.0, 1.5])),
                     SolverOptions(fix_height=None, area=WIDE_AREA),
                     "azimuths alone do not measure the height",
                     id="azimuths-and-free-height"),
        pytest.param(exact_rows((RANGE, AZIMUTH), SQUARE, np.zeros(3)), OPT2D,
                     r"no solve from rows of kinds \['azimuth', 'range'\]", id="mixed-kinds"),
        pytest.param(exact_rows((ZENITH,), SQUARE, np.zeros(3)), OPT2D,
                     r"no solve from rows of kinds \['zenith'\]", id="zeniths-alone"),
        pytest.param(exact_rows((AZIMUTH, ZENITH), SQUARE, np.zeros(3))[:-1], OPT2D,
                     "zenith rows must pair with the azimuth rows", id="unpaired-zenith"),
    ])
    def test_undetermined_rows_rejected(self, rows, options, message):
        with pytest.raises(SolverError, match=message):
            solve_rows(rows, SQUARE, options)

    @pytest.mark.parametrize("kinds", [(AZIMUTH,), (AZIMUTH, ZENITH), (RANGE,),
                                       (RANGE_DIFFERENCE,)], ids=["aod", "aoa", "rtt", "tdoa"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, kinds, value):
        """A NaN or infinite value, as a report can carry, fails the solve.
        Before, a bearing's made the closed-form start raise LinAlgError, and
        a range's or range difference's gave the start back as an
        unconverged fix with a non-finite residual RMS."""
        rows = exact_rows(kinds, SQUARE, np.array([10.0, 5.0, 1.5]))
        rows[1] = rows[1]._replace(value=value)
        with pytest.raises(SolverError, match="a measurement is not finite"):
            solve_rows(rows, SQUARE, OPT2D)

    def test_divergence_returns_unconverged(self):
        anchors = np.array([[0, 0, 3], [100, 0, 3], [0, 100, 3]], dtype=float)
        options = SolverOptions(fix_height=1.5, area=WIDE_AREA, max_iterations=1)
        rows = [Row(RANGE, 0, 80.0), Row(RANGE, 1, 90.0), Row(RANGE, 2, 95.0)]
        fix = solve_rows(rows, anchors, options, x0=np.array([500.0, 500.0, 1.5]))
        assert isinstance(fix, PositionFix)

    def test_options_need_the_runs_geometry(self):
        """Every solve has an area and a fix height: options without them,
        or given by position, are refused."""
        with pytest.raises(TypeError):
            SolverOptions(fix_height=1.5)
        with pytest.raises(TypeError):
            SolverOptions(area=WIDE_AREA)
        with pytest.raises(TypeError):
            SolverOptions(WIDE_AREA, 1.5)

    @pytest.mark.parametrize("area", [
        pytest.param(None, id="none"),
        pytest.param((0.0, 0.0, 100.0), id="three-numbers"),
        pytest.param((0.0, 0.0, 100.0, 100.0, 5.0), id="five-numbers"),
        pytest.param((0.0, "south", 100.0, 100.0), id="not-a-number"),
    ])
    def test_area_not_four_numbers_rejected(self, area):
        with pytest.raises(SolverError, match="area must be four finite numbers"):
            SolverOptions(fix_height=1.5, area=area)

    @pytest.mark.parametrize("corner", [0, 1, 2, 3])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_area_not_finite_rejected(self, corner, value):
        area = list(WIDE_AREA)
        area[corner] = value
        with pytest.raises(SolverError, match="area must be four finite numbers"):
            SolverOptions(fix_height=1.5, area=tuple(area))

    @pytest.mark.parametrize("area", [
        pytest.param((100.0, 0.0, 100.0, 50.0), id="x0-equals-x1"),
        pytest.param((100.0, 0.0, 0.0, 50.0), id="x0-above-x1"),
    ])
    def test_area_x0_not_below_x1_rejected(self, area):
        with pytest.raises(SolverError, match="x0 < x1 and y0 < y1"):
            SolverOptions(fix_height=1.5, area=area)

    @pytest.mark.parametrize("area", [
        pytest.param((0.0, 50.0, 100.0, 50.0), id="y0-equals-y1"),
        pytest.param((0.0, 50.0, 100.0, 0.0), id="y0-above-y1"),
    ])
    def test_area_y0_not_below_y1_rejected(self, area):
        with pytest.raises(SolverError, match="x0 < x1 and y0 < y1"):
            SolverOptions(fix_height=1.5, area=area)

    def test_monotone_damping(self, monkeypatch):
        """Every accepted step of every Gauss-Newton run lowers the residual
        RMS strictly, read from the oracle's history of the same run. Only
        a final step below the tolerance, which converges the run, may keep
        it equal."""
        histories = []
        real = solvers._gauss_newton

        def traced(problem, x0, options):
            fix = real(problem, x0, options)
            want, history = oracle.gauss_newton(problem, x0, options)
            assert history[-1] == fix.residual_rms == want.residual_rms
            histories.append((history, fix.converged))
            return fix

        monkeypatch.setattr(solvers, "_gauss_newton", traced)
        rng = np.random.default_rng(9)
        for _ in range(50):
            anchors = random_anchors(rng)
            ue = np.array([rng.uniform(-50, 50), rng.uniform(-50, 50), 1.5])
            rows = [r._replace(value=r.value + rng.normal(0, 2.0))
                    for r in exact_rows((RANGE,), anchors, ue)]
            solve_rows(rows, anchors, OPT2D)
        assert len(histories) >= 50 and any(len(h) > 2 for h, _ in histories)
        for hist, converged in histories:
            steps = list(zip(hist, hist[1:]))
            assert all(a > b for a, b in steps[:-1])
            assert all(a > b or (a == b and converged) for a, b in steps[-1:])

    def test_flat_rms_run_stops_early(self):
        """A diverging bearing fan: bearings of 0, +1 and -1 degrees from
        anchors on the y axis meet nowhere, so the fit runs off east, where
        the RMS goes flat. Accepting equal RMS, the run takes 42 equal-RMS
        steps up to the iteration cap; under strict decrease it ends, not
        converged, when 25 halvings find no lower RMS."""
        anchors = np.array([[0.0, 0.0, 25.0], [0.0, 100.0, 25.0], [0.0, -100.0, 25.0]])
        problem = problem_of(anchors, {AZIMUTH: [0.0, 1.0, -1.0]}, 1.5)
        x0 = np.array([1000.0, 0.0, 1.5])
        walk, history = oracle.gauss_newton(problem, x0, OPT2D, accept_equal=True)
        assert walk.iterations == OPT2D.max_iterations and not walk.converged
        assert sum(a == b for a, b in zip(history, history[1:])) >= 40
        fix = solvers._gauss_newton(problem, x0, OPT2D)
        assert not fix.converged and fix.iterations < 10
        assert fix.residual_rms == walk.residual_rms

    def test_search_ends_at_a_candidate_that_rounds_to_the_point(self, monkeypatch):
        """The first run of UMa DL-AoD drop 9 at master seed 1, its rows and
        start captured: short of its minimum, the line search's halvings
        come to a candidate that rounds to the current point, and every
        shorter one rounds to it too. The search ends there, as 25
        halvings end it, with the oracle's fix to the bit and 20 residual
        evaluations against the oracle's 39."""
        site = {0: [500.0, 0.0, 48.51391088977806],
                1: [250.00000000000006, 433.0127018922193, 24.324788381589013],
                2: [-250.00000000000023, -433.0127018922192, 32.699793469177266],
                3: [250.00000000000006, -433.0127018922193, 44.83107781461325]}
        anchors = np.array([site[i // 2] for i in range(8)])
        bearings = [-27.39807652416453, -111.78156832908046, -51.60053467237009,
                    -70.52598691010702] * 2
        problem = solvers._problem([Row(AZIMUTH, i, v) for i, v in enumerate(bearings)],
                                   anchors, 1.5)
        x0 = np.array([239.58267761293197, -140.1765999097706, 1.5])
        options = SolverOptions(fix_height=1.5, area=(-800.0, -800.0, 800.0, 800.0))
        calls = {"package": 0, "oracle": 0}

        def counted(key, f):
            def call(*args):
                calls[key] += 1
                return f(*args)
            return call

        monkeypatch.setattr(problem, "_residuals", counted("package", problem._residuals))
        monkeypatch.setattr(oracle, "residuals", counted("oracle", oracle.residuals))
        fix = solvers._gauss_newton(problem, x0, options)
        want, _ = oracle.gauss_newton(problem, x0, options)
        for field in dataclasses.fields(PositionFix):
            assert bits(getattr(fix, field.name)) == bits(getattr(want, field.name)), field.name
        assert not fix.converged
        assert calls == {"package": 20, "oracle": 39}

    def test_translation_equivariance(self):
        rng = np.random.default_rng(10)
        anchors = random_anchors(rng)
        ue = np.array([20.0, -10.0, 1.5])
        noisy = [r._replace(value=r.value + 0.5 * np.sin(r.anchor))
                 for r in exact_rows((RANGE,), anchors, ue)]
        fix_a = solve_rows(noisy, anchors, OPT2D)
        shift = np.array([1000.0, -500.0, 0.0])
        fix_b = solve_rows(noisy, anchors + shift, OPT2D,
                           x0=init_guess(anchors + shift, fix_height=1.5))
        assert np.allclose(fix_a.position + shift, fix_b.position, atol=1e-6)

    def test_converged_gradient_small(self):
        rng = np.random.default_rng(11)
        anchors = random_anchors(rng)
        ue = np.array([10.0, 5.0, 1.5])
        rows = exact_rows((RANGE,), anchors, ue)
        fix = solve_rows(rows, anchors, OPT2D)
        assert fix.converged
        problem = solvers._problem(rows, anchors, OPT2D.fix_height)
        r, j = residuals(problem, fix.position), problem.jacobian(fix.position)
        assert np.linalg.norm(2.0 * j.T @ r / len(r)) < 1e-6

    def test_wrap_deg(self):
        assert wrap_deg(190.0) == -170.0
        assert wrap_deg(-190.0) == 170.0
        assert wrap_deg(180.0) == 180.0
        assert wrap_deg(540.0) == 180.0


class TestAngleNoisePropagation:
    def test_one_degree_noise_scale(self):
        # 1 degree of bearing noise at ~100 m range: cross-range scale ~1.7 m
        rng = np.random.default_rng(5)
        anchors = np.array([[-100, 0, 1.5], [100, 0, 1.5], [0, 100, 1.5],
                            [0, -100, 1.5]], dtype=float)
        errs = []
        for _ in range(300):
            ue = np.array([rng.uniform(-20, 20), rng.uniform(-20, 20), 1.5])
            rows = [r._replace(value=r.value + rng.normal(0, 1.0))
                    for r in exact_rows((AZIMUTH,), anchors, ue)]
            fix = solve_rows(rows, anchors, OPT2D)
            errs.append(np.linalg.norm(fix.position[:2] - ue[:2]))
        rms = float(np.sqrt(np.mean(np.square(errs))))
        scale = math.radians(1.0) * 100.0  # ~1.75 m
        assert 0.3 * scale < rms < 1.5 * scale


class TestBeamBearing:
    def test_boresight_symmetry(self):
        [(az, low)] = beam_bearings([[(-10, -90.0), (0, -80.0), (10, -90.0)]])
        assert az == pytest.approx(0.0, abs=1e-9)
        assert not low

    def test_flat_rsrp_flagged(self):
        [(_, low)] = beam_bearings([[(-10, -80.0), (0, -80.0), (10, -80.0)]])
        assert low

    def test_wraparound(self):
        [(az, _)] = beam_bearings([[(170, -90.0), (180, -80.0), (-170, -90.0)]])
        assert wrap_deg(az - 180.0) == pytest.approx(0.0, abs=1e-9)

    def test_single_beam_trp_dropped(self):
        anchors = np.array([[0, 0, 3], [100, 0, 3], [50, 80, 3]], dtype=float)
        ue = np.array([40.0, 30.0, 1.5])
        records, beams = beam_reports(anchors, ue)
        # TRP 2 reports one beam: coarse information only
        records = [r for r in records if r.trp_id != 2 or r.resource_id == 0]
        fix = aod_fix(anchors, records, beams, OPT2D)
        assert np.linalg.norm(fix.position[:2] - ue[:2]) < 1e-6

    def test_not_enough_usable_trps(self):
        anchors = np.array([[0, 0, 3], [100, 0, 3]], dtype=float)
        records = [MeasurementRecord(kind="PRS_RSRP", trp_id=i, resource_id=0,
                                     payload={"value_dbm": -80.0}) for i in range(2)]
        # a one-beam TRP gives no bearing row, so there is no row to solve
        with pytest.raises(SolverError, match="no measurements"):
            aod_fix(anchors, records, {0: [0.0], 1: [10.0]}, OPT2D)


def residuals(problem, x):
    """A problem's residuals at the 3-vector x, as an array."""
    return np.array(problem._residuals(np.asarray(x, dtype=float).tolist()))


def spy(monkeypatch, name):
    """Count the calls to a solvers module function, calling through."""
    calls = []
    real = getattr(solvers, name)
    monkeypatch.setattr(solvers, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


class TestBearingStart:
    AREA = SolverOptions(fix_height=1.5, area=(-200.0, -200.0, 200.0, 200.0))

    @pytest.mark.parametrize("ue", [(42.0, 27.0), (-150.0, 3.0)])
    def test_exact_for_noiseless_bearings(self, ue):
        # the second terminal lies west of every anchor: its bearings
        # straddle +-180 degrees
        anchors = np.array([[10, 15, 3], [110, 15, 3], [10, 35, 3], [110, -35, 3]],
                           dtype=float)
        ue = np.array([*ue, 1.5])
        az = [r.value for r in exact_rows((AZIMUTH,), anchors, ue)]
        if ue[0] < 0:
            assert max(az) > 170.0 and min(az) < -170.0
        problem = problem_of(anchors, {AZIMUTH: az}, 1.5)
        assert np.allclose(solvers._bearing_start(problem), ue[:2], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("family", [(AZIMUTH, ZENITH), BEAMS], ids=["aoa", "aod"])
    def test_one_run_and_no_scan_in_area(self, family, monkeypatch):
        anchors = np.array([[0, 0, 3], [100, 0, 3], [50, 80, 3]], dtype=float)
        ue = np.array([40.0, 30.0, 1.5])
        runs, scans = spy(monkeypatch, "_gauss_newton"), spy(monkeypatch, "_coarse_starts")
        fix = noiseless_fix(family, anchors, ue, self.AREA)
        assert len(runs) == 1 and scans == []
        assert fix.converged
        assert np.linalg.norm(fix.position[:2] - ue[:2]) < 1e-6

    @pytest.mark.parametrize("flip,winner", [(1, "start"), (2, "x0")])
    def test_start_off_area_also_runs_from_x0(self, flip, winner, monkeypatch):
        # the bearing lines meet at (120, 40), off the area; one bearing
        # points away from there (a back lobe), so the objective has
        # several basins and the two runs end in different ones
        anchors = np.array([[0, 0, 3], [100, 0, 3], [50, 80, 3]], dtype=float)
        rows = exact_rows((AZIMUTH,), anchors, np.array([120.0, 40.0, 1.5]))
        rows[flip] = rows[flip]._replace(value=float(wrap_deg(rows[flip].value + 180.0)))
        options = SolverOptions(fix_height=1.5, area=(0.0, 0.0, 100.0, 100.0))
        x0 = init_guess(anchors, fix_height=1.5)
        runs = spy(monkeypatch, "_gauss_newton")
        fix = solve_rows(rows, anchors, options, x0=x0)

        assert len(runs) == 2
        assert np.allclose(runs[0][1][:2], [120.0, 40.0], atol=1e-9)
        assert np.array_equal(runs[1][1], x0)
        problem = runs[0][0]
        fixes = {"start": solvers._gauss_newton(problem, runs[0][1], options),
                 "x0": solvers._gauss_newton(problem, x0, options)}
        assert fix.objective == min(f.objective for f in fixes.values())
        assert np.array_equal(fix.position, fixes[winner].position)

    def test_tdoa_solves_still_scan(self, monkeypatch):
        anchors = square_anchors()
        ue = np.array([10.0, -20.0, 1.5])
        scans = spy(monkeypatch, "_coarse_starts")
        solve_rows(exact_rows((RANGE_DIFFERENCE,), anchors, ue), anchors, OPT2D)
        assert len(scans) == 1

    def test_tdoa_starts_at_the_centroid_with_the_reference(self, monkeypatch):
        """Without x0, the first run of a range-difference solve starts at
        the plain centroid of every anchor its rows use, the reference
        included: anchors 1-4 against reference 0, which lies far from the
        others, so leaving it out would move the start by 410 m."""
        anchors = np.array([[-2000, 0, 10], [0, 0, 10], [100, 0, 10], [100, 100, 10],
                            [0, 100, 10]], dtype=float)
        rows = exact_rows((RANGE_DIFFERENCE,), anchors, np.array([30.0, 40.0, 1.5]))
        runs = spy(monkeypatch, "_gauss_newton")
        solve_rows(rows[::-1], anchors, OPT2D)
        assert np.array_equal(runs[0][1], init_guess(anchors, fix_height=1.5))
        assert runs[0][1][:2] == pytest.approx([-360.0, 40.0])


class TestRangeStart:
    AREA = SolverOptions(fix_height=1.5, area=(-200.0, -200.0, 200.0, 200.0))

    @pytest.mark.parametrize("fix_height", [1.5, None])
    def test_exact_for_noiseless_ranges(self, fix_height):
        anchors = np.array([[10, 15, 3], [110, 15, 25], [10, 95, 8], [110, -35, 40],
                            [-60, 20, 12]], dtype=float)
        ue = np.array([42.0, 27.0, 1.5])
        d = np.linalg.norm(anchors - ue, axis=1)
        start = solvers._range_start(problem_of(anchors, {RANGE: d}, fix_height))
        assert np.allclose(start, ue, rtol=0, atol=1e-9)

    def test_coplanar_anchors_in_3d(self):
        # one anchor height leaves the z column a multiple of the constant
        # column; the minimum-norm start is finite but its height is
        # arbitrary, and the fix is still the scan's
        anchors = np.array([[0, 0, 10], [100, 0, 10], [100, 100, 10], [0, 100, 10],
                            [50, -20, 10]], dtype=float)
        ue = np.array([30.0, 40.0, 1.5])
        rng = np.random.default_rng(0)
        d = np.linalg.norm(anchors - ue, axis=1) + rng.normal(0, 3.0, len(anchors))
        options = SolverOptions(fix_height=None, area=(-50.0, -50.0, 150.0, 150.0))
        problem = problem_of(anchors, {RANGE: d}, None)
        assert np.all(np.isfinite(solvers._range_start(problem)))
        x0 = init_guess(anchors, fix_height=None)
        fix = solve_rows([Row(RANGE, i, v) for i, v in enumerate(d)], anchors, options)
        scan = solvers._solve_multistart(problem, x0, options)
        assert fix.converged
        assert np.allclose(fix.position, scan.position, rtol=0, atol=1e-6)

    def test_two_runs_and_no_scan_in_area(self, monkeypatch):
        anchors = square_anchors()
        ue = np.array([10.0, -20.0, 1.5])
        x0 = init_guess(anchors, fix_height=1.5)
        runs, scans = spy(monkeypatch, "_gauss_newton"), spy(monkeypatch, "_coarse_starts")
        fix = solve_rows(exact_rows((RANGE,), anchors, ue), anchors, self.AREA, x0=x0)
        assert len(runs) == 2 and scans == []
        assert np.array_equal(runs[0][1], x0)
        assert np.allclose(runs[1][1], ue, rtol=0, atol=1e-9)
        assert fix.converged
        assert np.linalg.norm(fix.position[:2] - ue[:2]) < 1e-9

    def test_rtt_solve_does_not_scan(self, monkeypatch):
        anchors = square_anchors()
        ue = np.array([10.0, -20.0, 1.5])
        scans = spy(monkeypatch, "_coarse_starts")
        solve_rows(exact_rows((RANGE,), anchors, ue), anchors, OPT2D)
        assert scans == []

    def test_start_off_area_reaches_scan(self, monkeypatch):
        # the terminal, and so the noiseless start, lies east of the area
        anchors = np.array([[0, 0, 3], [100, 0, 3], [50, 80, 3]], dtype=float)
        options = SolverOptions(fix_height=1.5, area=(0.0, 0.0, 100.0, 100.0))
        rows = exact_rows((RANGE,), anchors, np.array([120.0, 40.0, 1.5]))
        x0 = init_guess(anchors, fix_height=1.5)
        runs, scans = spy(monkeypatch, "_gauss_newton"), spy(monkeypatch, "_coarse_starts")
        fix = solve_rows(rows, anchors, options, x0=x0)
        problem = runs[0][0]
        assert np.allclose(solvers._range_start(problem)[:2], [120.0, 40.0], atol=1e-9)
        assert len(scans) == 1
        assert not any(np.allclose(a[1][:2], [120.0, 40.0]) for a in runs)
        scan = solvers._solve_multistart(problem, x0, options)
        assert np.array_equal(fix.position, scan.position)

    def test_no_converged_run_reaches_scan(self, monkeypatch):
        # one iteration cannot converge from either start on noisy ranges
        rng = np.random.default_rng(6)
        anchors = random_anchors(rng)
        ue = np.array([20.0, -10.0, 1.5])
        rows = [r._replace(value=r.value + rng.normal(0, 2.0))
                for r in exact_rows((RANGE,), anchors, ue)]
        options = SolverOptions(fix_height=1.5, max_iterations=1,
                                area=(-200.0, -200.0, 200.0, 200.0))
        x0 = init_guess(anchors, fix_height=1.5)
        runs, scans = spy(monkeypatch, "_gauss_newton"), spy(monkeypatch, "_coarse_starts")
        fix = solve_rows(rows, anchors, options, x0=x0)
        problem = runs[0][0]
        assert np.array_equal(runs[1][1], solvers._range_start(problem))
        assert not any(solvers._gauss_newton(problem, a[1], options).converged
                       for a in runs[:2])
        assert len(scans) == 1
        scan = solvers._solve_multistart(problem, x0, options)
        assert np.array_equal(fix.position, scan.position)


def bits(value):
    """A value with every float as its bytes, so == compares bit for bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


# (preset, overrides, drops, covers): every Gauss-Newton run of the drops is
# checked, and covers(runs) holds of the (problem, options, fix) runs made
ORACLE_CASES = [
    pytest.param("uma", dict(method="dl-aod"), (1, 17),
                 lambda runs: any(f.iterations == o.max_iterations for _, o, f in runs),
                 id="uma-dl-aod-cap"),
    pytest.param("uma", dict(method="dl-aod"), (8,),
                 lambda runs: any(not f.converged and f.iterations < o.max_iterations
                                  for _, o, f in runs),
                 id="uma-dl-aod-halvings-exhausted"),
    pytest.param("uma", dict(method="dl-tdoa"), (3,),
                 lambda runs: len(runs) == 1 + solvers._SCAN_STARTS,
                 id="uma-dl-tdoa-scan-starts"),
    pytest.param("ioo-fr1", dict(method="multi-rtt"), (0,),
                 lambda runs: len(runs) == 2, id="ioo-fr1-multi-rtt-x0-and-closed-form"),
    pytest.param("ioo-fr1", dict(method="ul-aoa"), (0,),
                 lambda runs: all(ZENITH in p.kinds for p, _, _ in runs),
                 id="ioo-fr1-ul-aoa-zenith"),
    pytest.param("ioo-fr1", dict(method="ul-aoa", solver={"fix_height": None}), (0,),
                 lambda runs: all(ZENITH in p.kinds and o.fix_height is None
                                  for p, o, _ in runs) and runs[-1][2].converged,
                 id="ioo-fr1-ul-aoa-3d"),
    pytest.param("ioo-fr1", dict(method="multi-rtt", solver={"fix_height": None}), (0,),
                 lambda runs: all(o.fix_height is None for _, o, _ in runs),
                 id="ioo-fr1-multi-rtt-3d"),
]


class TestGaussNewtonOracle:
    """`_gauss_newton`, `residuals` and `jacobian` against the plain
    whole-array versions of `gauss_newton_oracle`, on every problem that
    some drops at master seed 1 solve: every `PositionFix` field and every
    residual and Jacobian entry, bit for bit."""

    @pytest.mark.parametrize("preset,overrides,drops,covers", ORACLE_CASES)
    def test_matches_oracle(self, preset, overrides, drops, covers, monkeypatch):
        runs = []
        real = solvers._gauss_newton

        def checked(problem, x0, options):
            fix = real(problem, x0, options)
            want, _ = oracle.gauss_newton(problem, x0, options)
            for field in dataclasses.fields(PositionFix):
                assert bits(getattr(fix, field.name)) == bits(getattr(want, field.name)), \
                    field.name
            # gdop evaluates at 3-vectors, off the fixed height too
            for x in (np.asarray(x0, dtype=float), fix.position + [0.0, 0.0, 0.75]):
                assert bits(residuals(problem, x)) == bits(oracle.residuals(problem, x))
                assert bits(problem.jacobian(x)) == bits(oracle.jacobian(problem, x))
            runs.append((problem, options, fix))
            return fix

        monkeypatch.setattr(solvers, "_gauss_newton", checked)
        sim = Simulator(preset_config(preset, n_drops=max(drops) + 1, **overrides))
        assert all(sim.run_drop(i).fix is not None for i in drops)
        assert covers(runs)


def parent_rows(problem, x, k):
    """Residuals and Jacobian columns as the whole-array numpy loop formed
    them before it ran on floats; angles in numpy's arctan2."""
    x = np.asarray(x, dtype=float)
    diff = x - problem.anchors
    if problem.kinds[0] == AZIMUTH:
        # canonical order: the azimuth rows, then the zenith rows
        az, zen = diff[problem.kinds == AZIMUTH], diff[problem.kinds == ZENITH]
        r = wrap_deg(np.degrees(np.arctan2(az[:, 1], az[:, 0]))
                     - problem.measured[problem.kinds == AZIMUTH])
        if len(zen):
            rho = np.sqrt(zen[:, 0] * zen[:, 0] + zen[:, 1] * zen[:, 1])
            r = np.concatenate((r, np.degrees(np.arctan2(rho, zen[:, 2]))
                                - problem.measured[problem.kinds == ZENITH]))
        return r, None
    d = np.sqrt(np.add.reduce(diff * diff, axis=1))
    jac = diff[:, :k] / d[:, None]
    r = d - problem.measured
    if problem.kinds[0] == RANGE_DIFFERENCE:
        diff_ref = x - problem.ref
        d_ref = math.sqrt(diff_ref.dot(diff_ref))
        r = d - d_ref
        r -= problem.measured
        jac = jac - diff_ref[:k] / d_ref
    return r, jac


def random_problem(rng, kind, n, fix_height, anchor_z=None):
    anchors = rng.uniform(-300.0, 300.0, (n, 3)) * [1.0, 1.0, 0.1]
    if anchor_z is not None:
        anchors[:, 2] = anchor_z
    meas = rng.uniform(-200.0, 200.0, n)
    if kind == "range":
        return problem_of(anchors, {RANGE: np.abs(meas)}, fix_height)
    if kind == "tdoa":
        # against anchor row n, which has no row of its own
        anchors = np.vstack([anchors, rng.uniform(-300.0, 300.0, 3)])
        return problem_of(anchors, {RANGE_DIFFERENCE: meas}, fix_height, ref=n)
    zen = {ZENITH: rng.uniform(60.0, 120.0, n)} if kind == "aoa-zenith" else {}
    return problem_of(anchors, {AZIMUTH: rng.uniform(-180.0, 180.0, n), **zen}, fix_height)


class TestFloatRows:
    """Residuals, Jacobians and the RMS on Python floats against the numpy
    expressions they replaced, on random anchors and points, up to 16 rows
    so that np.add.reduce's pairwise order (from 8 values) is exercised."""

    @pytest.mark.parametrize("kind", ["range", "tdoa", "aoa", "aoa-zenith"])
    @pytest.mark.parametrize("fix_height", [1.5, None])
    def test_rows_match_numpy(self, kind, fix_height):
        rng = np.random.default_rng(7)
        k = 2 if fix_height is not None else 3
        for n in range(2, 17):
            for _ in range(20):
                problem = random_problem(rng, kind, n, fix_height)
                x = rng.uniform(-400.0, 400.0, 3)
                want_r, want_j = parent_rows(problem, x, k)
                r = residuals(problem, x)
                if want_j is None:
                    assert np.all(np.abs(wrap_deg(r - want_r)) <= 1e-12)
                    # no arctan2 in the Jacobian: the oracle's is numpy's
                    assert bits(problem.jacobian(x)) == bits(oracle.jacobian(problem, x))
                else:
                    assert bits(r) == bits(want_r)
                    assert bits(problem.jacobian(x)) == bits(want_j)
                rms = math.sqrt(solvers._sum_squares(r.tolist()) / len(r))
                assert bits(rms) == bits(math.sqrt(float(np.add.reduce(r * r)) / len(r)))

    @pytest.mark.parametrize("n", [*range(1, 26), 127, 128, 129, 136, 200, 301])
    def test_sum_squares_is_numpy_reduce(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            r = rng.normal(size=n) * 10.0 ** rng.integers(-4, 5, size=n)
            assert bits(solvers._sum_squares(r.tolist())) == bits(float(np.add.reduce(r * r)))


class TestRowOrder:
    """`_problem` takes rows in canonical order, by kind and then anchor
    row, whatever order they come in, and that is the residual order:
    residual i and Jacobian row i are those of the one-row problem of
    `problem.rows[i]`, bit for bit."""

    @pytest.mark.parametrize("kinds", [(AZIMUTH, ZENITH), (RANGE,), (RANGE_DIFFERENCE,)],
                             ids=["aoa", "rtt", "tdoa"])
    @pytest.mark.parametrize("fix_height", [1.5, None])
    def test_residual_i_is_row_i(self, kinds, fix_height):
        rng = np.random.default_rng(13)
        anchors = random_anchors(rng, n=8, z=25.0)
        ue = np.array([rng.uniform(-50, 50), rng.uniform(-50, 50), 1.5])
        rows = [r._replace(value=r.value + rng.normal(0, 1.0))
                for r in exact_rows(kinds, anchors, ue)]
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        problem = solvers._problem(shuffled, anchors, fix_height)
        assert list(problem.rows) == sorted(rows, key=lambda r: (r.kind, r.anchor))
        assert list(problem.rows) != shuffled
        k = 2 if fix_height is not None else 3
        x = (ue + rng.normal(0, 5.0, 3)).tolist()
        r, j = problem._residuals(x), problem._jacobian(x, k)
        for i, row in enumerate(problem.rows):
            one = solvers._Problem((row,), anchors, fix_height)
            assert bits(r[i]) == bits(one._residuals(x)[0])
            assert bits(j[i]) == bits(one._jacobian(x, k)[0])

    @pytest.mark.parametrize("fix_height", [1.5, None])
    def test_mixed_rows_match_the_oracle(self, fix_height):
        """`_problem` refuses mixed kinds, but `_Problem` takes them row by
        row: a range, a range difference and a bearing per anchor, in
        shuffled order, match the oracle's per-kind arrays bit for bit."""
        rng = np.random.default_rng(14)
        anchors = random_anchors(rng, n=7, z=25.0)
        ue = np.array([10.0, -20.0, 1.5])
        rows = exact_rows((RANGE, RANGE_DIFFERENCE, AZIMUTH, ZENITH), anchors, ue)
        problem = solvers._Problem([rows[i] for i in rng.permutation(len(rows))], anchors,
                                   fix_height)
        x = ue + rng.normal(0, 5.0, 3)
        assert bits(residuals(problem, x)) == bits(oracle.residuals(problem, x))
        assert bits(problem.jacobian(x)) == bits(oracle.jacobian(problem, x))


# (kind, fix_height, point): a Gauss-Newton start at a zero distance
ZERO_DISTANCE_CASES = [
    pytest.param("range", 1.5, lambda p: p.anchors[1], id="range-on-anchor"),
    pytest.param("tdoa", 1.5, lambda p: p.anchors[2], id="tdoa-on-anchor"),
    pytest.param("tdoa", None, lambda p: p.ref, id="tdoa-on-reference-3d"),
    pytest.param("aoa", 1.5, lambda p: p.anchors[0], id="aoa-on-anchor"),
    pytest.param("aoa-zenith", None, lambda p: p.anchors[3] + [0.0, 0.0, -20.0],
                 id="aoa-zenith-below-anchor-3d"),
]


class TestZeroDistance:
    """At a point on an anchor (in the plane, for bearings) the residuals
    stay finite; the Jacobian divides by zero, where the whole-array loop
    held a NaN row on which lstsq fails. Either way the run ends there,
    with the same fix."""

    @pytest.mark.parametrize("kind,fix_height,point", ZERO_DISTANCE_CASES)
    def test_run_ends_as_the_nan_step_did(self, kind, fix_height, point):
        # in the plane the anchors sit at the fixed height
        problem = random_problem(np.random.default_rng(3), kind, 6, fix_height,
                                 anchor_z=fix_height)
        x0 = np.array(point(problem), dtype=float)
        options = SolverOptions(fix_height=fix_height, area=WIDE_AREA)
        assert np.all(np.isfinite(residuals(problem, x0)))
        assert np.all(np.isnan(problem.jacobian(x0)))
        fix = solvers._gauss_newton(problem, x0, options)
        with np.errstate(divide="ignore", invalid="ignore"):
            want, _ = oracle.gauss_newton(problem, x0, options)
        for field in dataclasses.fields(PositionFix):
            assert bits(getattr(fix, field.name)) == bits(getattr(want, field.name)), field.name
        assert fix.iterations == 1 and not fix.converged


def geometry_rows(kinds, n):
    """One zero-valued row per anchor row of n and kind; range differences
    against anchor row 0, which has none of its own."""
    return [Row(kind, i, 0.0, 0 if kind == RANGE_DIFFERENCE else None)
            for kind in kinds for i in range(n) if i > 0 or kind != RANGE_DIFFERENCE]


def wrapper_gdop(rows, anchors, position, fix_height):
    """gdop through the np.linalg wrappers: inverse first, then the
    condition number."""
    j = solvers._problem(rows, np.asarray(anchors, dtype=float), fix_height).jacobian(position)
    jtj = j.T @ j
    try:
        inv = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        return math.inf
    if np.linalg.cond(jtj) > 1e12:
        return math.inf
    return float(np.sqrt(np.trace(inv)))


class TestGdop:
    def test_matches_the_linalg_wrappers(self):
        """The SVD and inverse gufuncs give the wrappers' GDOP bit for bit,
        +inf at the same singular and ill-conditioned geometries, and a
        LinAlgError where the wrappers raise one (a terminal on an anchor:
        a NaN Jacobian)."""
        rng = np.random.default_rng(11)
        line = np.array([[0, 0, 3], [50, 0, 3], [100, 0, 3]], dtype=float)
        cases = [(geometry_rows((RANGE,), 3), line, [50.0, y, 1.5], h)
                 for y in (0.0, 1e-9, 1e-6, 1e-3, 1.0) for h in (1.5, None)]
        for kinds in ((RANGE,), (RANGE_DIFFERENCE,), (AZIMUTH,), (AZIMUTH, ZENITH)):
            for _ in range(8):
                anchors = random_anchors(rng, n=int(rng.integers(3, 7)), z=25.0)
                p = [*rng.uniform(-150, 150, 2), 1.5]
                rows = geometry_rows(kinds, len(anchors))
                cases += [(rows, anchors, p, 1.5), (rows, anchors, p, None)]
        cases.append((geometry_rows((RANGE,), 3), line, [0.0, 0.0, 3.0], None))
        infinite = raised = 0
        for case in cases:
            try:
                want = wrapper_gdop(*case)
            except np.linalg.LinAlgError:
                raised += 1
                with pytest.raises(np.linalg.LinAlgError):
                    gdop(*case)
                continue
            got = gdop(*case)
            assert got == want or math.isnan(got) and math.isnan(want), case
            infinite += got == math.inf
        assert infinite >= 4 and raised == 1

    def test_square_center_is_minimum(self):
        anchors = square_anchors(z=1.5)
        rows = geometry_rows((RANGE,), 4)
        center = gdop(rows, anchors, [0.0, 0.0, 1.5], 1.5)
        for p in [[30, 0], [0, 30], [40, 40], [-45, 10]]:
            assert center <= gdop(rows, anchors, [p[0], p[1], 1.5], 1.5)

    def test_collinear_is_infinite(self):
        anchors = np.array([[0, 0, 3], [50, 0, 3], [100, 0, 3]], dtype=float)
        assert gdop(geometry_rows((RANGE,), 3), anchors, [50.0, 0.0, 1.5], 1.5) == math.inf

    def test_grid_oracle_confirms_center_minimum(self):
        anchors = square_anchors(z=1.5)
        rows = geometry_rows((RANGE,), 4)
        xs = np.linspace(-40, 40, 17)
        values = np.array([
            [gdop(rows, anchors, [x, y, 1.5], 1.5) for x in xs] for y in xs
        ])
        i, j = np.unravel_index(np.argmin(values), values.shape)
        assert abs(xs[j]) < 6 and abs(xs[i]) < 6

    def test_aod_has_no_zenith_rows(self):
        """DL-AoD reports carry no zenith, so a DL-AoD solve has azimuth rows
        only, and its GDOP is that of the azimuth rows alone. Zenith rows
        add information: the angle GDOP with them is lower."""
        anchors = square_anchors(z=25.0)
        p = np.array([10.0, 5.0, 1.5])
        dx, dy = (p - anchors)[:, 0], (p - anchors)[:, 1]
        rho2 = dx**2 + dy**2
        j = np.degrees(np.column_stack([-dy / rho2, dx / rho2]))
        want = math.sqrt(np.trace(np.linalg.inv(j.T @ j)))
        assert gdop(geometry_rows((AZIMUTH,), 4), anchors, p, 1.5) == \
            pytest.approx(want, rel=1e-12)
        assert gdop(geometry_rows((AZIMUTH, ZENITH), 4), anchors, p, 1.5) < want

    def test_tdoa_and_angle_variants(self):
        anchors = square_anchors(z=1.5)
        p = [10.0, 5.0, 1.5]
        assert gdop(geometry_rows((RANGE_DIFFERENCE,), 4), anchors, p, 1.5) > 0
        assert gdop(geometry_rows((AZIMUTH, ZENITH), 4), anchors, p, 1.5) > 0
        with pytest.raises(SolverError, match="no solve from rows"):
            gdop(geometry_rows(("fingerprint",), 4), anchors, [0, 0, 1.5], 1.5)


class TestInitGuess:
    def test_plain_centroid(self):
        anchors = square_anchors()
        guess = init_guess(anchors, fix_height=1.5)
        assert np.allclose(guess[:2], [0.0, 0.0])
        assert guess[2] == 1.5

    def test_single_anchor(self):
        guess = init_guess(np.array([[10.0, 20.0, 3.0]]), fix_height=1.5)
        assert np.allclose(guess[:2], [10.0, 20.0])

    def test_height_fallback(self):
        anchors = square_anchors(z=10.0)
        guess = init_guess(anchors, fix_height=None)
        assert guess[2] == pytest.approx(8.5)


class TestGridOracle:
    """Solver residual never exceeds the best exhaustive grid point."""

    @staticmethod
    def objective_tdoa(anchors, meas, pts, ref_anchor):
        d = np.linalg.norm(pts[:, None, :] - anchors[None, :, :2], axis=2)
        d_ref = np.linalg.norm(pts - ref_anchor[:2], axis=1)
        res = (d - d_ref[:, None]) - meas[None, :]
        return (res**2).sum(axis=1)

    def test_tdoa_oracle_small(self):
        rng = np.random.default_rng(12)
        anchors = random_anchors(rng, n=5, z=1.5)
        ue = np.array([5.0, -8.0, 1.5])
        noisy = [r._replace(value=r.value + rng.normal(0, 1.0))
                 for r in exact_rows((RANGE_DIFFERENCE,), anchors, ue)]
        fix = solve_rows(noisy, anchors, OPT2D)
        xs = np.arange(-30, 30.01, 0.1)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        used = anchors[[r.anchor for r in noisy]]
        vals = self.objective_tdoa(used, np.array([r.value for r in noisy]), pts, anchors[0])
        assert fix.objective <= vals.min() + 1e-9
