import math
from dataclasses import replace

import numpy as np
import pytest

import sweep_oracle
from grid_oracle import GridError, received_grid, slot_grid
from nrpos.channel import (
    CHANNEL_DEFAULTS,
    Links,
    _tap_tables,
    draw_links,
    draw_noise,
    link_amplitude,
    los_probability,
    noise_amplitude,
    pattern_loss_db,
    phase_ramps,
)
from nrpos.numerology import SPEED_OF_LIGHT, Numerology
from nrpos.scenario import Trp

FR1 = Numerology(scs_khz=30, n_prb=24)
TS = 1.0 / FR1.sample_rate_hz
IOO = CHANNEL_DEFAULTS["ioo"]
UMA = CHANNEL_DEFAULTS["uma"]


def trp_at(x=0.0, y=0.0, z=3.0, **kw):
    return Trp(trp_id=0, position=(x, y, z), **kw)


def draws(rng, params, trp, ue, n=1):
    """n links from trp to ue drawn one after the other, as the rows of one
    `Links`."""
    return draw_links(rng, params, [trp] * n, ue, 2e9, TS, np.zeros(n))


class TestLosProbability:
    def test_short_distance_is_certain(self):
        assert los_probability(IOO, 0.5) == 1.0
        assert los_probability(UMA, 10.0) == 1.0

    def test_monotone_decreasing(self):
        ds = np.linspace(1, 300, 100)
        ps = [los_probability(IOO, d) for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))

    def test_monte_carlo_matches_curve(self):
        # empirical LOS fraction at fixed distance vs configured value
        rng = np.random.default_rng(0)
        trp = trp_at()
        ue = (30.0, 0.0, 1.5)
        n = 100_000
        hits = np.count_nonzero(draws(rng, IOO, trp, ue, n).los)
        expected = los_probability(IOO, 30.0)
        assert abs(hits / n - expected) < 0.01


class TestRealizeLink:
    def test_los_first_tap_is_geometric_delay(self):
        rng = np.random.default_rng(1)
        params = replace(IOO, force_los=True)
        trp = trp_at()
        ue = (40.0, 0.0, 1.5)
        link = draws(rng, params, trp, ue)
        d = math.dist(trp.position, ue)
        assert link.los[0]
        assert link.first_path_excess_s[0] == 0.0
        assert link.first_arrival_s[0] == pytest.approx(d / SPEED_OF_LIGHT, abs=1e-15)

    def test_nlos_adds_excess(self):
        rng = np.random.default_rng(2)
        trp = trp_at()
        ue = (100.0, 0.0, 1.5)
        links = draws(rng, IOO, trp, ue, 2000)
        excesses = links.first_path_excess_s[~links.los]
        assert len(excesses)
        assert np.mean(excesses) == pytest.approx(IOO.nlos_excess_mean_s, rel=0.15)
        # the first arrival is the propagation delay plus the excess
        d = math.dist(trp.position, ue)
        assert np.allclose(links.first_arrival_s - links.first_path_excess_s,
                           d / SPEED_OF_LIGHT, rtol=0.0, atol=1e-15)

    def test_taps_sorted_and_offset(self):
        rng = np.random.default_rng(3)
        link = draws(rng, IOO, trp_at(), (20.0, 5.0, 1.5))
        assert link.gains.shape == (1, IOO.n_taps)
        offsets = _tap_tables(IOO, TS)[0]
        assert np.allclose(offsets, np.arange(IOO.n_taps) * TS, rtol=0.0, atol=0.0)
        ideal = draws(rng, replace(IOO, ideal=True), trp_at(), (20.0, 5.0, 1.5))
        assert ideal.gains.tolist() == [[1.0 + 0j]]

    def test_zero_distance_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="zero TRP-UE distance"):
            draws(rng, IOO, trp_at(), (0.0, 0.0, 3.0))

    def test_budget_fills_path_loss(self):
        rng = np.random.default_rng(5)
        links = draws(rng, IOO, trp_at(), (20.0, 0.0, 1.5), 50)
        assert np.all(links.path_loss_db > 0)
        # NLOS path loss never undercuts the LOS law
        d3 = math.hypot(20.0, 1.5)
        assert not links.los.all()
        assert np.all(links.path_loss_db >= IOO.los.at(d3, 2e9) - 1e-9)

    def test_cached_tap_tables_follow_their_key(self):
        """Links drawn in turn under IOO and UMa parameters, a tap_decay_s
        override and a halved sample period are those of the uncached
        draw in `sweep_oracle`, bit for bit: the cached tap tables are
        keyed by the channel parameters and the sample period."""
        trp = trp_at(sector_azimuth_deg=30.0)
        ues = [(x, y, 1.5) for x in (3.0, 40.0, 150.0, -300.0) for y in (-80.0, 25.0)]
        keys = [(IOO, TS), (UMA, TS), (replace(UMA, tap_decay_s=100e-9), TS), (IOO, TS / 2)]
        for params, ts in keys + keys[::-1]:
            cached, uncached = np.random.default_rng(7), np.random.default_rng(7)
            links = [draw_links(cached, params, [trp], ue, 2e9, ts, np.zeros(1)) for ue in ues]
            for link, ue in zip(links, ues):
                want = sweep_oracle.realize_budget_link(uncached, params, trp, ue, 2e9, ts)
                for name, value in want.items():
                    assert np.array_equal(getattr(link, name)[0], value), name
            assert {bool(l.los[0]) for l in links} == {True, False}

    def test_sector_gain_sees_geometric_azimuth(self):
        # NLOS perturbs the reported angles, not the antenna gain
        rng = np.random.default_rng(6)
        trp = trp_at(sector_azimuth_deg=30.0)
        ue = (150.0, 60.0, 1.5)
        geometric = math.degrees(math.atan2(60.0, 150.0))
        links = draws(rng, UMA, trp, ue, 100)
        nlos = ~links.los
        assert nlos.any()
        loss = pattern_loss_db(geometric - 30.0, UMA.sector_hpbw_deg, UMA.sector_front_back_db)
        assert np.allclose(links.antenna_gain_db, UMA.sector_max_gain_db - loss)
        assert np.any(np.abs(links.angles_deg[nlos, 0] - geometric) > 1.0)


class TestSectorGain:
    """The parabolic pattern of the sector antennas, which the beams share."""

    def test_boresight_and_rolloff(self):
        hpbw, floor = UMA.sector_hpbw_deg, UMA.sector_front_back_db
        assert pattern_loss_db(0.0, hpbw, floor) == 0.0
        assert pattern_loss_db(65.0 / 2, hpbw, floor) == pytest.approx(3.0)
        assert pattern_loss_db(180.0, hpbw, floor) == 30.0

    def test_offsets_wrap_and_keep_their_shape(self):
        delta = np.array([[10.0, 370.0], [-350.0, 190.0]])
        loss = pattern_loss_db(delta, 65.0, 30.0)
        assert loss.shape == delta.shape
        assert loss[0, 0] == loss[0, 1] == loss[1, 0] == 12.0 * (10.0 / 65.0) ** 2
        assert loss[1, 1] == 30.0

    def test_omni(self):
        links = draws(np.random.default_rng(0), IOO, trp_at(sector_azimuth_deg=123.0),
                      (20.0, 5.0, 1.5), 10)
        assert links.antenna_gain_db.tolist() == [0.0] * 10


def single_tap_link(delay_s, gain=1.0 + 0j, pl_db=60.0):
    return Links(
        los=np.array([True]),
        path_loss_db=np.array([pl_db]),
        shadow_db=np.zeros(1),
        antenna_gain_db=np.zeros(1),
        first_arrival_s=np.array([delay_s]),
        gains=np.array([[gain]], dtype=complex),
        first_path_excess_s=np.zeros(1),
        angles_deg=np.array([[0.0, 90.0]]),
        clock_offset_s=np.zeros(1),
    )


def full_grid(value=1.0):
    g = slot_grid(FR1, symbols=2)
    g[:] = value
    return g


class TestReceivedGrid:
    def test_single_tap_phase_ramp(self):
        tau = 100 / FR1.sample_rate_hz
        link = single_tap_link(tau)
        rx = received_grid([(full_grid(), link, 23.0)], FR1)
        k = np.arange(FR1.n_subcarriers)
        expected_phase = np.exp(-2j * np.pi * k * FR1.scs_khz * 1e3 * tau)
        ratio = rx[:, 0] / rx[0, 0]
        assert np.allclose(ratio, expected_phase / expected_phase[0])

    def test_disjoint_combs_stay_separate(self):
        g0 = slot_grid(FR1, symbols=1)
        g1 = slot_grid(FR1, symbols=1)
        g0[0::2, 0] = 1.0
        g1[1::2, 0] = 1.0
        l0 = single_tap_link(1e-7)
        l1 = single_tap_link(2e-7)
        rx = received_grid([(g0, l0, 23.0), (g1, l1, 23.0)], FR1)
        solo0 = received_grid([(g0, l0, 23.0)], FR1)
        solo1 = received_grid([(g1, l1, 23.0)], FR1)
        assert np.array_equal(rx[0::2, 0], solo0[0::2, 0])
        assert np.array_equal(rx[1::2, 0], solo1[1::2, 0])

    def test_power_doubling_is_linear(self):
        link = single_tap_link(1e-7)
        rx1 = received_grid([(full_grid(), link, 20.0)], FR1)
        rx2 = received_grid([(full_grid(), link, 23.0103)], FR1)
        p1 = np.mean(np.abs(rx1) ** 2)
        p2 = np.mean(np.abs(rx2) ** 2)
        assert p2 / p1 == pytest.approx(2.0, rel=1e-3)

    def test_superposition(self):
        rng_seed = 11
        links = [single_tap_link(1e-7), single_tap_link(3e-7, gain=0.5 + 0.2j)]
        grids = [full_grid(), full_grid(0.5)]
        noise_draw = draw_noise(
            np.random.default_rng(rng_seed), grids[0].shape,
            noise_amplitude(9.0, FR1.scs_khz * 1e3) / np.sqrt(2.0),
        )
        combined = received_grid(
            list(zip(grids, links, [23.0, 23.0])), FR1, noise_grid=noise_draw
        )
        parts = [
            received_grid([(g, l, 23.0)], FR1) for g, l in zip(grids, links)
        ]
        manual = parts[0] + parts[1] + noise_draw
        assert np.allclose(combined, manual)

    def test_dimension_mismatch(self):
        g_small = np.zeros((24, 2), dtype=complex)
        with pytest.raises(GridError):
            received_grid(
                [(full_grid(), single_tap_link(1e-7), 23.0),
                 (g_small, single_tap_link(1e-7), 23.0)],
                FR1,
            )

    def test_noise_energy_matches_thermal(self):
        amp = noise_amplitude(9.0, FR1.scs_khz * 1e3)
        draws = draw_noise(np.random.default_rng(0), (1000, 1000), amp / np.sqrt(2.0))
        measured_dbm = 10 * np.log10(np.mean(np.abs(draws) ** 2))
        thermal_dbm = -174.0 + 10.0 * math.log10(FR1.scs_khz * 1e3) + 9.0
        assert abs(measured_dbm - thermal_dbm) < 0.1


class TestPhaseRamps:
    @pytest.mark.parametrize("n,scs_hz", [(3264, 30e3), (3264, 120e3), (288, 30e3),
                                          (40, 30e3)])
    def test_matches_direct_exponential(self, n, scs_hz):
        # 288 and 40 are not multiples of the 64-subcarrier block, and 40
        # is shorter than one block
        delays = np.concatenate([np.linspace(0.0, 5e-6, 41),
                                 np.random.default_rng(3).uniform(0.0, 5e-6, 20)])
        k = np.arange(n)
        direct = np.exp(-2j * np.pi * delays[:, None] * k * scs_hz)
        outer, inner = phase_ramps(delays, n, scs_hz)
        assert outer.shape == (len(delays), -(-n // 64)) and inner.shape == (len(delays), 64)
        ramps = (outer[:, :, None] * inner[:, None, :]).reshape(len(delays), -1)[:, :n]
        assert ramps.shape == (len(delays), n)
        assert np.allclose(ramps, direct, rtol=0.0, atol=1e-10)


class TestDrawNoise:
    @pytest.mark.parametrize("std", [1.0, 0.37])
    @pytest.mark.parametrize("shape", [(3264, 12), (3264,)])
    def test_stream_contract(self, shape, std):
        """One seed gives (normal(shape) + 1j*normal(shape)) * std bit for bit,
        sign bits included: all real parts first, then all imaginary parts."""
        out = draw_noise(np.random.default_rng(5), shape, std)
        rng = np.random.default_rng(5)
        first = rng.normal(size=shape)
        expected = (first + 1j * rng.normal(size=shape)) * std
        assert out.shape == expected.shape
        assert np.array_equal(out.view(float).view(np.uint64),
                              expected.view(float).view(np.uint64))
        assert np.array_equal(out.real, first * std)


def re_snr_db(pl_db, n_occupied_per_symbol=1):
    """Per-RE SNR in dB of a 23 dBm transmitter through pl_db to a 9 dB
    noise-figure receiver on 30 kHz subcarriers."""
    [amp] = link_amplitude(single_tap_link(1e-7, pl_db=pl_db), 23.0, n_occupied_per_symbol)
    return 20 * math.log10(amp / noise_amplitude(9.0, 30e3))


class TestBudget:
    def test_epre_split(self):
        link = single_tap_link(1e-7, pl_db=60.0)
        [amp] = link_amplitude(link, tx_power_dbm=23.0, n_occupied_per_symbol=272)
        expected_dbm = 23.0 - 10 * math.log10(272) - 60.0
        assert 20 * math.log10(amp) == pytest.approx(expected_dbm)

    def test_snr_shifts_with_path_loss(self):
        base = re_snr_db(60.0)
        worse = re_snr_db(70.0)
        assert base - worse == pytest.approx(10.0)

    def test_ioo_defaults_positive_snr_at_20m(self):
        pl = IOO.los.at(20.0, 2e9)
        snr = re_snr_db(pl, n_occupied_per_symbol=272)
        assert snr > 0
        # regression anchor for the default budget
        assert snr == pytest.approx(57.95, abs=0.05)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            noise_amplitude(9.0, 0.0)

    def test_noise_model_thermal(self):
        thermal_dbm = 20 * math.log10(noise_amplitude(9.0, 97.92e6))
        assert thermal_dbm == pytest.approx(-174 + 10 * math.log10(97.92e6) + 9)
