import numpy as np
import pytest

from grid_oracle import GridError, cp_samples, ofdm_demodulate, ofdm_modulate, slot_grid
from nrpos.numerology import TC_SECONDS, Numerology

FR1 = Numerology(scs_khz=30, n_prb=272)
FR2 = Numerology(scs_khz=120, n_prb=272)


def test_tc_matches_rounded_value():
    assert abs(TC_SECONDS - 0.51e-9) / 0.51e-9 < 0.003


def test_numerology_invariants():
    assert FR1.fft_size == 4096
    assert FR1.fft_size >= 12 * FR1.n_prb
    assert Numerology(scs_khz=30, n_prb=400).fft_size == 8192
    assert FR1.sample_rate_hz == pytest.approx(4096 * 30e3)
    assert FR2.sample_rate_hz == pytest.approx(4096 * 120e3)


def test_numerology_rejects_bad_values():
    with pytest.raises(ValueError):
        Numerology(scs_khz=45, n_prb=100)
    with pytest.raises(ValueError):
        Numerology(scs_khz=30, n_prb=0)


def test_zero_grid_round_trips_to_zero():
    num = Numerology(scs_khz=30, n_prb=24)
    grid = slot_grid(num)
    wf = ofdm_modulate(grid, num)
    assert np.all(wf == 0)
    back = ofdm_demodulate(wf, num)
    assert np.all(back == 0)


def test_single_tone_constant_modulus():
    num = Numerology(scs_khz=30, n_prb=24)
    grid = slot_grid(num, symbols=1)
    grid[0, 0] = 1.0
    wf = ofdm_modulate(grid, num)
    mags = np.abs(wf)
    assert np.allclose(mags, mags[0])


@pytest.mark.parametrize("seed", range(100))
def test_round_trip_random_grids(seed):
    rng = np.random.default_rng(seed)
    num = Numerology(scs_khz=30, n_prb=24)
    grid = slot_grid(num, symbols=4)
    grid[:] = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    back = ofdm_demodulate(ofdm_modulate(grid, num), num, subcarriers=grid.shape[0])
    err = np.linalg.norm(back - grid) / np.linalg.norm(grid)
    assert err < 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_parseval(seed):
    rng = np.random.default_rng(seed)
    num = Numerology(scs_khz=30, n_prb=24)
    grid = slot_grid(num, symbols=2)
    grid[:] = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    wf = ofdm_modulate(grid, num)
    # energy comparison on the CP-stripped samples
    sym_len = num.fft_size + cp_samples(num)
    body = wf.reshape(-1, sym_len)[:, cp_samples(num):]
    assert np.sum(np.abs(body) ** 2) == pytest.approx(np.sum(np.abs(grid) ** 2), rel=1e-9)


def test_delay_produces_phase_ramp():
    num = Numerology(scs_khz=30, n_prb=24)
    grid = slot_grid(num, symbols=1)
    rng = np.random.default_rng(0)
    grid[:, 0] = np.exp(2j * np.pi * rng.uniform(size=grid.shape[0]))
    wf = ofdm_modulate(grid, num)
    d = 7
    delayed = np.roll(wf, d)  # cyclic stand-in for a true delay within the CP
    back = ofdm_demodulate(delayed, num, subcarriers=grid.shape[0])
    k = np.arange(grid.shape[0])
    expected = grid[:, 0] * np.exp(-2j * np.pi * k * d / num.fft_size)
    assert np.allclose(back[:, 0], expected, atol=1e-9)


def test_demodulate_length_mismatch():
    num = Numerology(scs_khz=30, n_prb=24)
    with pytest.raises(GridError):
        ofdm_demodulate(np.zeros(1000), num)


def test_modulate_rejects_wide_grid():
    num = Numerology(scs_khz=30, n_prb=24)
    grid = np.zeros((8192, 1), dtype=complex)
    with pytest.raises(GridError):
        ofdm_modulate(grid, num)
