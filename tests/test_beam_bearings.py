"""`solvers.beam_bearings` takes the bearings of all of a drop's beam
sweeps in one array pass; each is the per-sweep bearing of
`bearing_oracle` bit for bit, low-confidence flag included, on every
sweep that DL-AoD drops solve from and on the edge cases of a sweep."""

import numpy as np
import pytest

import bearing_oracle
from nrpos import simulate
from nrpos.config import preset_config
from nrpos.simulate import Simulator
from nrpos.solvers import SolverError, beam_bearings
from test_solvers import bits


def assert_matches_oracle(sweeps):
    got = beam_bearings(sweeps)
    assert len(got) == len(sweeps)
    for sweep, (az, low) in zip(sweeps, got):
        want_az, want_low = bearing_oracle.beam_bearing(sweep)
        assert (bits(az), low) == (bits(want_az), want_low), sweep


@pytest.mark.parametrize("preset", ["uma", "umi", "ioo-fr1"])
def test_every_sweep_of_the_drops(preset, monkeypatch):
    """Every sweep of 200 DL-AoD drops at master seed 1, as `_dl_aod_rows`
    hands them over, one call per drop."""
    calls = []

    def checked(sweeps):
        assert_matches_oracle(sweeps)
        calls.append(len(sweeps))
        return beam_bearings(sweeps)

    monkeypatch.setattr(simulate, "beam_bearings", checked)
    sim = Simulator(preset_config(preset, method="dl-aod", n_drops=200))
    for d in range(200):
        sim.run_drop(d)
    assert len(calls) == 200 and sum(calls) > 200


def test_one_and_two_beams():
    """Sweeps shorter than the top beams, alone and beside full ones: one
    beam is low confidence, two are weighted like three."""
    one = [(37.5, -71)]
    two = [(-12.5, -80), (12.5, -83)]
    three = [(-10.0, -90.0), (0.0, -80.0), (10.0, -91.0), (20.0, -95.0)]
    for sweeps in ([one], [two], [one, two, three], [three, two, one]):
        assert_matches_oracle(sweeps)
    [(_, low)] = beam_bearings([one])
    assert low
    [(_, low)] = beam_bearings([two])
    assert not low


def test_signed_zero_azimuths():
    """Beams at azimuth -0.0 beside padding beams: the bearing's sign is
    the oracle's."""
    for sweeps in ([[(-0.0, -80.0)]], [[(-0.0, -80.0), (-0.0, -80.0)]],
                   [[(-0.0, -80.0)], [(0.0, -80.0), (-0.0, -81.0)]]):
        assert_matches_oracle(sweeps)


def test_equal_powers_are_low_confidence():
    sweeps = [[(az, -80) for az in (-30.0, -10.0, 10.0, 30.0)],
              [(az, -80.0) for az in (100.0, 110.0)]]
    assert_matches_oracle(sweeps)
    assert all(low for _, low in beam_bearings(sweeps))


def test_powers_that_underflow_are_not_low_confidence():
    """Beams so weak that every power is 0.0 spread 0 / 0, NaN, which is not
    below the threshold: their bearing is NaN, as the oracle's."""
    sweeps = [[(-10.0, -4000), (0.0, -4000), (10.0, -4001)], [(5.0, -80.0), (15.0, -90.0)]]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert_matches_oracle(sweeps)
        (az, low), _ = beam_bearings(sweeps)
    assert np.isnan(az) and not low


def test_power_ties_keep_report_order():
    """Among equal powers the earlier beam in the sweep is the stronger, so
    which of the tied beams makes the top three is the sweep's order."""
    sweep = [(-20.0, -85), (-10.0, -80), (0.0, -85), (10.0, -85), (20.0, -90)]
    assert_matches_oracle([sweep, sweep[::-1]])
    (first, _), (reversed_, _) = beam_bearings([sweep, sweep[::-1]])
    assert first != reversed_


def test_azimuths_across_180():
    sweeps = [[(170.0, -90.0), (180.0, -80.0), (-170.0, -90.0)],
              [(175.0, -81.0), (-175.0, -80.0), (-165.0, -92.0), (165.0, -93.0)],
              [(179.9, -80.0), (-179.9, -80.5)]]
    assert_matches_oracle(sweeps)
    assert all(abs(az) > 170.0 for az, _ in beam_bearings(sweeps))


def test_random_sweeps():
    """Random sweeps of 1-8 beams, int and float powers, in one call."""
    rng = np.random.default_rng(34)
    for _ in range(50):
        sweeps = []
        for n in rng.integers(1, 9, size=12):
            az = rng.uniform(-180.0, 180.0, n).tolist()
            dbm = rng.integers(-120, -40, n).tolist() if rng.random() < 0.5 else \
                rng.uniform(-120.0, -40.0, n).tolist()
            sweeps.append(list(zip(az, dbm)))
        assert_matches_oracle(sweeps)


def test_empty():
    assert beam_bearings([]) == []
    with pytest.raises(SolverError, match="no beams"):
        beam_bearings([[(0.0, -80.0)], []])
