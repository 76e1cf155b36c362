import numpy as np
import pytest

from first_path_oracle import oracle_pick, oracle_polish
from grid_oracle import despread, estimate_toa, flat_dl_reference, rsrp, slot_grid
from nrpos import measurements
from nrpos.channel import draw_noise, link_amplitude
from nrpos.config import preset_config
from nrpos.measurements import (
    FIRST_PATH_REL_DB,
    NOISE_SIGMA_MULT,
    DelayWindow,
    MeasurementFailed,
    MeasurementRecord,
    estimate_aoa,
    quantize_timing,
    read_records,
    record_seconds,
    reported_power_dbm,
    rstd,
    rtt,
    steering_vector,
    timing_record,
    write_records,
    BeamformerGrid,
    _polish_peak,
    _row_median,
    _smooth5_at_least,
    delay_spectrum_size,
    first_path_from_magnitude,
    first_paths,
    taper_vector,
)
from nrpos.numerology import SPEED_OF_LIGHT, TC_SECONDS, Numerology
from nrpos.prs import DlPrsResource
from nrpos.scenario import AntennaArray
from nrpos.simulate import Simulator, comb_lines, despread_groups, set_signals

NUM = Numerology(scs_khz=30, n_prb=24)
FREQS = np.arange(NUM.n_subcarriers) * NUM.scs_khz * 1e3
SAMPLE_S = 1.0 / NUM.sample_rate_hz
RES = DlPrsResource(seq_id=7, comb_size=12, re_offset=0,
                    n_symbols=12, n_prb=24)
REF = flat_dl_reference(RES)
WINDOW = (-2e-6, 10e-6)


def delayed_grid(delay_s, snr_db=None, rng=None, amp=1.0):
    """Received grid carrying REF delayed by delay_s, optional per-RE noise."""
    grid = slot_grid(NUM)
    k_idx, sym, values = REF
    ramp = np.exp(-2j * np.pi * FREQS[k_idx] * delay_s)
    grid[k_idx, sym] = amp * values * ramp
    if snr_db is not None:
        sigma = amp * 10 ** (-snr_db / 20.0)
        noise = (rng.normal(size=grid.shape)
                 + 1j * rng.normal(size=grid.shape)) * sigma / np.sqrt(2)
        grid[:] += noise
    return grid


class TestQuantizeTiming:
    def test_zero(self):
        assert quantize_timing(0.0, 2) == 0

    def test_ten_ns_at_k2(self):
        value_tc = quantize_timing(10e-9, 2)
        assert value_tc == 20
        assert value_tc * TC_SECONDS == pytest.approx(10.17e-9, rel=1e-3)

    def test_out_of_range_clamps(self):
        value_tc = quantize_timing(600e-6, 2)
        assert value_tc == 985024
        assert value_tc * TC_SECONDS == pytest.approx(501e-6, rel=2e-3)
        assert quantize_timing(-600e-6, 2) == -985024

    def test_illegal_k(self):
        with pytest.raises(ValueError):
            quantize_timing(0.0, 1, "fr1")
        with pytest.raises(ValueError):
            quantize_timing(0.0, 6, "fr2")
        quantize_timing(0.0, 0, "fr2")

    @pytest.mark.parametrize("fr,k", [("fr1", k) for k in range(2, 6)]
                             + [("fr2", k) for k in range(0, 6)])
    def test_round_trip_bound(self, fr, k):
        rng = np.random.default_rng(k + (0 if fr == "fr1" else 100))
        bound = (1 << k) * TC_SECONDS / 2
        for t in rng.uniform(-400e-6, 400e-6, 200):
            assert abs(quantize_timing(t, k, fr) * TC_SECONDS - t) <= bound * (1 + 1e-12)

    def test_report_always_aligned_and_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            k = int(rng.integers(0, 6))
            t = float(rng.uniform(-700e-6, 700e-6))
            value_tc = quantize_timing(t, k, "fr2")
            assert type(value_tc) is int
            assert abs(value_tc) <= 985024
            assert value_tc % (1 << k) == 0


class TestQuantizePower:
    def test_rounding(self):
        assert reported_power_dbm(-100.4) == -100

    def test_lower_clamp(self):
        assert reported_power_dbm(-200.0) == -156

    def test_upper_clamp(self):
        assert reported_power_dbm(-30.0) == -31

    def test_matches_numpy_half_to_even(self):
        def reference(p):
            return min(max(int(np.round(p)), -156), -31)

        rng = np.random.default_rng(0)
        values = [-44.5, -43.5, 0.5, -156.5, -155.5, -156.0, -31.5, -30.5, -31.0,
                  *rng.uniform(-200.0, 0.0, 10_000)]
        for p in values:
            for x in (float(p), np.float64(p)):
                value = reported_power_dbm(x)
                assert type(value) is int
                assert value == reference(x)

    def test_array_reports_each_value(self):
        """An array reports as nested lists of ints, each value by the
        rule, also across half-dBm ties and both clamps and for the -300
        dBm of no power."""
        rng = np.random.default_rng(1)
        values = np.concatenate([[-44.5, -43.5, -156.5, -155.5, -31.5, -30.5, -300.0],
                                 rng.uniform(-200.0, 0.0, 993)]).reshape(10, 100)
        got = reported_power_dbm(values)
        assert got == [[min(max(round(p), -156), -31) for p in row] for row in values.tolist()]
        assert all(type(v) is int for row in got for v in row)
        assert reported_power_dbm([-100.4, -100.6]) == [-100, -101]


class TestToa:
    """Grid-path arrival times, detected on the delay window (padding
    DELAY_PAD_FACTOR) that a simulation builds."""

    def test_zero_delay_no_noise(self):
        rx = delayed_grid(0.0)
        tau = estimate_toa(rx, REF, NUM, WINDOW)
        assert abs(tau) < 1e-12

    def test_integer_sample_delay(self):
        delay = 10 * SAMPLE_S
        rx = delayed_grid(delay)
        tau = estimate_toa(rx, REF, NUM, WINDOW)
        assert abs(tau - delay) < 1e-12

    def test_fractional_delay_high_snr(self):
        rng = np.random.default_rng(0)
        delay = 10.5 * SAMPLE_S
        rx = delayed_grid(delay, snr_db=40, rng=rng)
        tau = estimate_toa(rx, REF, NUM, WINDOW)
        assert abs(tau - delay) / SAMPLE_S < 0.05

    def test_negative_delay_within_window(self):
        delay = -20 * SAMPLE_S
        rx = delayed_grid(delay)
        tau = estimate_toa(rx, REF, NUM, WINDOW)
        assert abs(tau - delay) < 1e-11

    def test_bias_below_two_percent_of_sample(self):
        # single-tap links, SNR 20 dB: mean error stays under 0.02 samples
        rng = np.random.default_rng(42)
        errors = []
        for _ in range(1000):
            delay = float(rng.uniform(5, 30)) * SAMPLE_S
            rx = delayed_grid(delay, snr_db=20, rng=rng)
            tau = estimate_toa(rx, REF, NUM, WINDOW)
            errors.append((tau - delay) / SAMPLE_S)
        assert abs(float(np.mean(errors))) < 0.02

    def test_noise_only_fails(self):
        rng = np.random.default_rng(1)
        grid = slot_grid(NUM)
        grid[:] = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        with pytest.raises(MeasurementFailed):
            estimate_toa(grid, REF, NUM, WINDOW)

    def test_earliest_path_beats_stronger_late_path(self):
        # two taps: weak early, strong late, clearly separated
        grid = slot_grid(NUM)
        early, late = 10 * SAMPLE_S, 80 * SAMPLE_S
        k_idx, sym, values = REF
        h = (0.4 * np.exp(-2j * np.pi * FREQS[k_idx] * early)
             + 1.0 * np.exp(-2j * np.pi * FREQS[k_idx] * late))
        grid[k_idx, sym] = values * h
        tau = estimate_toa(grid, REF, NUM, WINDOW)
        assert abs(tau - early) / SAMPLE_S < 0.5


def preset_window(preset):
    """The delay window a simulation of `preset` detects over."""
    sim = Simulator(preset_config(preset, n_drops=1))
    n_sc = sim.numerology.n_subcarriers
    return (DelayWindow(n_sc, sim.scs_hz, sim.search_window), delay_spectrum_size(n_sc),
            sim.search_window)


def path_vector(n_sc, scs_hz, delays_s, gains):
    freqs = np.arange(n_sc) * scs_hz
    return sum(g * np.exp(-2j * np.pi * freqs * d) for d, g in zip(delays_s, gains))


def detection_stack(window):
    """Despread rows, untapered: random multipath at several SNRs, a weak early
    path ahead of a strong one, pure noise and all zeros."""
    rng = np.random.default_rng(7)
    n_sc, scs = 3264, window.scs_hz
    noise = lambda: rng.normal(size=n_sc) + 1j * rng.normal(size=n_sc)
    rows = []
    for snr_db in (30, 10, 0, -10, -20):
        delays = rng.uniform(0.0, 1.5e-6, 3)
        gains = rng.normal(size=3) + 1j * rng.normal(size=3)
        rows.append(path_vector(n_sc, scs, delays, gains) + 10 ** (-snr_db / 20) * noise())
    rows.append(path_vector(n_sc, scs, (0.2e-6, 0.9e-6), (0.3, 1.0)) + 0.01 * noise())
    rows.append(noise())
    rows.append(np.zeros(n_sc, dtype=complex))
    return np.array(rows)


def oracle_taus(mags, win, m, search):
    """The per-row picker's delay of each row of window magnitudes, NaN
    where it fails."""
    bins = np.arange(win.lo_bin, win.lo_bin + win.n_bins) % m
    want = []
    for row in mags:
        full = np.zeros(m)
        full[bins] = row
        try:
            want.append(oracle_pick(full, m, win.scs_hz, search)[0])
        except MeasurementFailed:
            want.append(np.nan)
    return np.array(want)


@pytest.fixture(scope="module", params=["ioo-fr1", "uma"])
def window(request):
    return preset_window(request.param)


def despread_stack(preset):
    """Despread rows, untapered, of every TRP in drop 0 of `preset`, each RE set
    under its own fixed noise draw, with the last TRP silent so that its
    row fails; and the simulation's delay window."""
    sim = Simulator(preset_config(preset, n_drops=1))
    links = sim._links(0)
    side = sim._dl
    amps = link_amplitude(links, side.tx_power_dbm, side.occupied_per_symbol)
    amps[-1] = 0.0
    lines = comb_lines(sim._channel_matrix(links, links.first_arrival_s), side.comb)
    rng = np.random.default_rng(5)
    groups, rx = [], []
    for s in side.sets:
        noise = draw_noise(rng, side.refs[0].shape, side.noise_rms / np.sqrt(2.0))
        groups += s
        rx += [c + noise for c in set_signals(s, amps, lines, side.refs)]
    vecs = despread_groups(groups, rx, side.refs, sim.numerology.n_subcarriers, side.comb,
                           range(len(sim.trps)))
    return vecs, sim._detection


class TestFirstPathKernel:
    @pytest.mark.parametrize("preset", ["ioo-fr1", "uma"])
    def test_rows_are_independent(self, preset):
        """Detecting a subset of rows gives those rows of the full stack's
        result bit for bit, so detection can skip rows selection drops."""
        stack, win = despread_stack(preset)
        full = first_paths(stack, win)
        failed = len(stack) - 1
        assert np.isnan(full[failed]) and not np.isnan(full).all()
        for rows in ([3], [5, 0, 2], [failed, 1, 6]):
            assert np.array_equal(first_paths(stack[rows], win), full[rows], equal_nan=True)

    def test_fft_length_is_smallest_5_smooth(self):
        # N + W - 1 on the indoor-office and urban-macro windows
        assert _smooth5_at_least(3264 + 1231 - 1) == 4500
        assert _smooth5_at_least(3264 + 5515 - 1) == 9000
        assert _smooth5_at_least(1) == 1 and _smooth5_at_least(4097) == 4320

    def test_window_magnitudes_match_full_ifft(self, window):
        win, m, _ = window
        assert win.lo_bin < 0  # the window wraps to the end of the spectrum
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 3264)) + 1j * rng.normal(size=(3, 3264))
        bins = np.arange(win.lo_bin, win.lo_bin + win.n_bins) % m
        want = np.abs(np.fft.ifft([taper_vector(v) for v in x], m, axis=1))[:, bins]
        assert np.allclose(win.magnitudes(x), want, rtol=1e-9, atol=0)

    def test_reused_workspace_matches_a_fresh_window(self, window):
        """A call after a larger one gives what a fresh window gives: a
        call must not depend on the calls before it."""
        win, _, search = window
        rng = np.random.default_rng(4)
        big, small = (rng.normal(size=(r, 3264)) + 1j * rng.normal(size=(r, 3264))
                      for r in (5, 2))
        win.magnitudes(big)
        fresh = DelayWindow(3264, win.scs_hz, search).magnitudes(small)
        assert np.array_equal(win.magnitudes(small), fresh)

    def test_magnitudes_are_fresh_arrays(self, window):
        """Two calls return arrays that share no memory, and the second
        leaves the first's magnitudes as they were."""
        win, _, _ = window
        rng = np.random.default_rng(5)
        a, b = (rng.normal(size=(3, 3264)) + 1j * rng.normal(size=(3, 3264)) for _ in range(2))
        first = win.magnitudes(a)
        kept = first.copy()
        second = win.magnitudes(b)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    def test_pick_matches_per_row_picker_bit_for_bit(self, window):
        win, m, search = window
        mags = win.magnitudes(detection_stack(win))
        taus = first_path_from_magnitude(mags, win.lo_bin, win.bin_s)
        want = oracle_taus(mags, win, m, search)
        assert np.isnan(want[-2:]).all()  # noise only, all zeros
        assert not np.isnan(want[:-2]).any()
        assert abs(want[5] - 0.2e-6) < win.bin_s  # weak early path is picked
        assert np.array_equal(taus, want, equal_nan=True)

    def test_floor_median_only_where_it_can_set_the_threshold(self, window, monkeypatch):
        """A row with more than half its bins at or below 0.99 rel 0.8326 /
        NOISE_SIGMA_MULT, rel its relative cut, has its floor below rel, so
        the pick skips the floor's median: clean paths and an all-zero row
        never reach `_row_median`. Rows whose floor may set the threshold,
        noise only and a path under a strong co-offset interferer, take
        it. Every row's pick is the per-row picker's bit for bit."""
        win, m, search = window
        n_sc, scs = 3264, win.scs_hz
        rng = np.random.default_rng(9)
        noise = lambda: rng.normal(size=n_sc) + 1j * rng.normal(size=n_sc)
        # another source's path, despread against the wrong sequence
        interferer = path_vector(n_sc, scs, (0.2e-6,), (3.0,)) * np.exp(
            2j * np.pi * rng.uniform(size=n_sc))
        clean = [path_vector(n_sc, scs, (0.3e-6,), (1.0,)),
                 path_vector(n_sc, scs, (0.2e-6, 0.9e-6), (0.3, 1.0)) + 0.01 * noise(),
                 np.zeros(n_sc, dtype=complex)]
        floored = [noise(), path_vector(n_sc, scs, (0.4e-6,), (1.0,)) + interferer]
        medians = []

        def spy(values):
            medians.append(values.copy())
            return _row_median(values)

        monkeypatch.setattr(measurements, "_row_median", spy)
        mags = win.magnitudes(np.array(clean + floored)).copy()
        taus = first_path_from_magnitude(mags, win.lo_bin, win.bin_s)
        assert len(medians) == 1 and np.array_equal(medians[0], mags[len(clean):])
        medians.clear()
        assert np.array_equal(first_path_from_magnitude(mags[:len(clean)], win.lo_bin, win.bin_s),
                              taus[:len(clean)], equal_nan=True)
        assert medians == []

        want = oracle_taus(mags, win, m, search)
        assert np.array_equal(taus, want, equal_nan=True)
        # the floor sets the interfered row's threshold, and it is detected
        rel = mags[-1].max() * 10 ** (-FIRST_PATH_REL_DB / 20.0)
        assert NOISE_SIGMA_MULT * (np.median(mags[-1]) / 0.8326) > rel
        assert abs(taus[-1] - 0.4e-6) < win.bin_s
        assert np.isnan(taus[[2, 3]]).all() and not np.isnan(taus[[0, 1]]).any()

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 1230, 1231, 5515])
    def test_noise_floor_median_is_np_median(self, width):
        """The floor's median from one partition equals np.median's bit for
        bit, on odd and even widths, tied values and an all-zero row."""
        rng = np.random.default_rng(width)
        rows = np.stack([
            np.abs(rng.normal(size=width) + 1j * rng.normal(size=width)),
            rng.integers(0, 3, width).astype(float),  # ties
            np.zeros(width),
            np.full(width, 0.25),
        ])
        assert _row_median(rows).tobytes() == np.median(rows, axis=1).tobytes()

    def test_polish_matches_direct_newton(self, window):
        win, _, _ = window
        stack = detection_stack(win)[:-2]
        tau0 = first_path_from_magnitude(win.magnitudes(stack), win.lo_bin, win.bin_s)
        got = _polish_peak(stack, win, tau0, span=win.bin_s)
        want = [oracle_polish(taper_vector(v), win.scs_hz, t, win.bin_s)
                for v, t in zip(stack, tau0)]
        assert np.max(np.abs(got - want)) < 1e-20
        assert np.any(got != tau0)

    def test_polish_keeps_tau0_off_a_maximum_or_out_of_span(self):
        n_sc, scs, delay = 3264, 30e3, 0.4e-6
        vec = path_vector(n_sc, scs, (delay,), (1.0,))
        win = DelayWindow(n_sc, scs, (0.0, 1e-6))
        convex = delay + 1.0 / (n_sc * scs)  # tapered |C|^2 is convex here: h >= 0
        slope = delay + 0.3 / (n_sc * scs)  # first step leaves a 1 ps span
        stack = np.array([vec, vec])
        tau0 = np.array([convex, slope])
        spans = {"convex": 1e-9, "slope": 1e-12}
        for i, (name, span) in enumerate(spans.items()):
            got = _polish_peak(stack[i:i + 1], win, tau0[i:i + 1], span=span)[0]
            assert got == tau0[i] == oracle_polish(taper_vector(vec), scs, tau0[i], span), name


class TestDifferences:
    def test_rstd_equal_is_zero(self):
        assert rstd(5e-6, 5e-6) == 0.0

    def test_rstd_clock_offset_cancels(self):
        assert rstd(5e-6 + 1e-6, 3e-6 + 1e-6) == pytest.approx(rstd(5e-6, 3e-6))

    def test_rstd_equidistant_geometry(self):
        # equidistant receiver, both links noiseless: difference ~ 0
        d = 200.0
        tau = d / SPEED_OF_LIGHT
        rx_a = delayed_grid(tau)
        rx_b = delayed_grid(tau)
        toa_a = estimate_toa(rx_a, REF, NUM, WINDOW)
        toa_b = estimate_toa(rx_b, REF, NUM, WINDOW)
        assert abs(rstd(toa_a, toa_b)) < 1e-11

    def test_rtt_arithmetic(self):
        d = 150.0
        one_way = d / SPEED_OF_LIGHT
        assert rtt(one_way, one_way) == pytest.approx(1.0007e-6, rel=1e-3)

    def test_rtt_clock_offset_cancels(self):
        d = 150.0
        one_way = d / SPEED_OF_LIGHT
        offset = 1e-6
        assert rtt(one_way + offset, one_way - offset) == pytest.approx(2 * one_way, abs=1e-18)

    def test_negative_rtt_clamped(self):
        assert rtt(-1e-9, 0.2e-9) == 0.0


class TestRsrp:
    def test_flat_grid_power(self):
        grid = slot_grid(NUM)
        amp_dbm = -80.0
        amp = 10 ** (amp_dbm / 20.0)
        k_idx, sym, values = REF
        grid[k_idx, sym] = amp * values
        assert rsrp(grid, REF) == pytest.approx(amp_dbm, abs=0.01)

    def test_mean_invariant_to_re_count(self):
        half = tuple(a[:len(a) // 2] for a in REF)  # the first 6 of 12 symbols
        grid = slot_grid(NUM)
        k_idx, sym, values = REF
        grid[k_idx, sym] = 0.5 * values
        assert rsrp(grid, REF) == pytest.approx(rsrp(grid, half), abs=1e-9)

    def test_empty_set_rejected(self):
        grid = slot_grid(NUM)
        with pytest.raises(MeasurementFailed):
            rsrp(grid, (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)))


class TestAoa:
    def make_snapshot(self, array, az, zen, snr_db=None, rng=None):
        sv = steering_vector(array, az, zen)
        x = sv.astype(complex)
        if snr_db is not None:
            sigma = 10 ** (-snr_db / 20.0)
            x = x + (rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)) * sigma / np.sqrt(2)
        return x

    def test_plane_wave_recovery(self):
        array = AntennaArray(rows=8, cols=8)
        x = self.make_snapshot(array, 30.0, 105.0)
        az, zen = estimate_aoa(x, array)
        assert abs(az - 30.0) < 0.5
        assert abs(zen - 105.0) < 0.5

    def test_spectrum_matches_the_per_call_conjugate(self):
        """The conjugate steering view built once gives the spectrum of the
        conjugate formed on every call, bit for bit."""
        array = AntennaArray(rows=4, cols=4)
        grid = BeamformerGrid(array)
        azs, zens = np.meshgrid(grid.az_grid, grid.zen_grid, indexing="ij")
        steering = steering_vector(array, azs.ravel(), zens.ravel())
        rng = np.random.default_rng(6)
        for n in (1, 2, 5):
            for _ in range(10):
                x = rng.normal(size=(16, n)) + 1j * rng.normal(size=(16, n))
                old = (np.abs(steering.conj().T @ x) ** 2).sum(axis=1).reshape(azs.shape)
                assert grid.spectrum(x).tobytes() == old.tobytes()

    def test_boresight(self):
        array = AntennaArray(rows=4, cols=4)
        x = self.make_snapshot(array, 0.0, 90.0)
        az, zen = estimate_aoa(x, array)
        assert abs(az) < 1.0 or abs(abs(az) - 180.0) < 1.0  # u=v=0 at horizon
        assert abs(zen - 90.0) < 1.5

    def test_bigger_array_is_more_accurate(self):
        rng = np.random.default_rng(5)
        small = AntennaArray(rows=2, cols=2)
        large = AntennaArray(rows=8, cols=8)
        grids = {a: BeamformerGrid(a) for a in (small, large)}
        rmse = {}
        for array in (small, large):
            errs = []
            for _ in range(300):
                az_true = float(rng.uniform(-60, 60))
                zen_true = float(rng.uniform(95, 120))
                x = self.make_snapshot(array, az_true, zen_true, snr_db=10, rng=rng)
                az, zen = estimate_aoa(x, array, grids[array])
                errs.append((az - az_true) ** 2 + (zen - zen_true) ** 2)
            rmse[array] = float(np.sqrt(np.mean(errs)))
        assert rmse[large] < rmse[small]

    def test_all_zero_snapshots_rejected(self):
        array = AntennaArray(rows=2, cols=2)
        with pytest.raises(MeasurementFailed):
            estimate_aoa(np.zeros(4, dtype=complex), array)

    def test_single_element_rejected(self):
        with pytest.raises(ValueError):
            estimate_aoa(np.ones(1, dtype=complex), AntennaArray(rows=1, cols=1))


class TestRecords:
    def test_round_trip(self, tmp_path):
        records = [
            timing_record("RSTD", trp_id=3, t_seconds=1e-7, k=2, fr="fr1",
                          resource_id=0, extra={"ref_trp_id": 1}),
            MeasurementRecord(kind="AOA", trp_id=4,
                              payload={"azimuth_deg": 12.5, "zenith_deg": 95.0}),
        ]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        back = read_records(path)
        assert back == records
        assert back[0].payload["ref_trp_id"] == 1

    def test_reads_record_files_with_raw_values(self, tmp_path):
        """Older record files also carry each record's unquantized value
        under `raw`; a record reads only its four keys."""
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"kind": "UL_RTOA", "trp_id": 2, "resource_id": null, '
            '"payload": {"value_tc": 65, "k": 2, "fr": "fr1"}, "raw": {"seconds": 1e-8}}\n'
            '{"kind": "AOA", "trp_id": 4, "payload": {"azimuth_deg": 12.5}}\n')
        assert read_records(path) == [
            MeasurementRecord(kind="UL_RTOA", trp_id=2,
                              payload={"value_tc": 65, "k": 2, "fr": "fr1"}),
            MeasurementRecord(kind="AOA", trp_id=4, payload={"azimuth_deg": 12.5}),
        ]

    def test_beam_reports_need_resource(self):
        with pytest.raises(ValueError):
            MeasurementRecord(kind="RSTD", trp_id=0, payload={})

    def test_record_seconds_dequantizes(self):
        rec = timing_record("UL_RTOA", trp_id=0, t_seconds=10e-9, k=2, fr="fr1")
        assert record_seconds(rec) == pytest.approx(10.17e-9, rel=1e-3)

    def test_unquantized_record_keeps_exact_value(self):
        rec = timing_record("UL_RTOA", trp_id=0, t_seconds=10e-9, k=2, fr="fr1",
                            quantize=False)
        assert record_seconds(rec) == pytest.approx(10e-9, rel=1e-12)
        assert rec.payload == {"value_tc": 10e-9 / TC_SECONDS, "k": 2, "fr": "fr1"}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MeasurementRecord(kind="WEIRD", trp_id=0, payload={})


class TestDespread:
    def test_combines_coherently(self):
        grid = delayed_grid(0.0, amp=2.0)
        vec = despread(grid, REF)
        occupied = np.abs(vec) > 0
        assert np.allclose(vec[occupied], 2.0)
