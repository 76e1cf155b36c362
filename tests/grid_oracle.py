"""Resource-grid reference path for the receive path's signal sums
(`simulate.set_signals`), its per-set noise draw and the first-path
detector.

Each transmitter's positioning signal is mapped onto a full (subcarrier,
symbol) grid, filtered by its link's frequency response and summed with
the others and the noise on one received grid; a TRP's channel estimate,
power and arrival time are then read back off its own REs. The kernel
must reproduce what lands on those REs. OFDM modulation with a cyclic
prefix is the time-domain reference for the delay model both paths use:
a delay of d samples is the per-subcarrier phase ramp
exp(-2j*pi*k*d/fft_size).

Grids are complex ndarrays indexed [subcarrier, symbol]. The oracle
places a resource's REs itself, as flat (subcarrier, symbol) index arrays
expanded from its comb residues, so it shares no RE addressing with the
simulation's comb-line kernels.
"""

import math
from dataclasses import fields

import numpy as np

from nrpos.channel import Links, link_amplitude
from nrpos.measurements import (
    DelayWindow,
    MeasurementFailed,
    first_paths,
)
from nrpos.prs import comb_pattern, dl_prs_reference, srs_reference

SYMBOLS_PER_SLOT = 14

# Normal cyclic prefix: 144 samples of a 2048-point FFT, scaled to other
# FFT sizes. The first symbol of a slot gets the same prefix as the rest.
CP_REF_SAMPLES = 144
CP_REF_FFT = 2048


class GridError(ValueError):
    """Resource-grid misuse: bad dimensions or colliding resources."""


def slot_grid(numerology, symbols: int = SYMBOLS_PER_SLOT) -> np.ndarray:
    """Empty grid over every subcarrier of the numerology."""
    return np.zeros((numerology.n_subcarriers, symbols), dtype=complex)


def re_indices(resource) -> tuple[np.ndarray, np.ndarray]:
    """Subcarrier and symbol of every RE of a downlink or sounding
    resource, symbol after symbol and in increasing subcarrier within a
    symbol: symbol s occupies every comb-th subcarrier from its residue."""
    k = [np.arange(residue, 12 * resource.n_prb, resource.comb_size)
         for residue in comb_pattern(resource)]
    return (np.concatenate(k),
            np.repeat(resource.first_symbol + np.arange(len(k)), [len(k_s) for k_s in k]))


def flat_dl_reference(resource, slot: int = 0):
    """Flat (subcarriers, symbols, values) of a downlink resource."""
    return (*re_indices(resource), dl_prs_reference([resource], slot)[0])


def flat_srs_reference(resource):
    """Flat (subcarriers, symbols, values) of a sounding resource."""
    return (*re_indices(resource), srs_reference(resource))


def _map(grid, resource, reference):
    top = 12 * resource.n_prb
    if top > grid.shape[0] or resource.first_symbol + resource.n_symbols > grid.shape[1]:
        raise GridError("resource does not fit the grid")
    k_idx, sym, values = reference
    taken = grid[k_idx, sym] != 0
    if np.any(taken):
        raise GridError(f"resource collides with occupied REs in symbol {sym[taken][0]}")
    grid[k_idx, sym] = values
    return grid


def map_dl_prs(grid: np.ndarray, resource, slot: int = 0) -> np.ndarray:
    """Write a downlink resource's sequence onto its comb of the grid.

    Touching an occupied RE is an error: co-channel signals interfere at
    the receiver, never inside one transmit grid.
    """
    return _map(grid, resource, flat_dl_reference(resource, slot))


def map_srs(grid: np.ndarray, resource) -> np.ndarray:
    """Write a sounding resource's shifted sequence onto its comb."""
    return _map(grid, resource, flat_srs_reference(resource))


def link_row(links: Links, i: int) -> Links:
    """Row i of a drop's links as a `Links` of one row."""
    return Links(**{f.name: getattr(links, f.name)[i:i + 1] for f in fields(Links)})


def frequency_response(first_s: float, gains: np.ndarray, tap_spacing_s: float,
                       freqs_hz: np.ndarray) -> np.ndarray:
    """Response over the given subcarrier frequencies of a link whose taps
    have the given gains, tap_spacing_s apart from the first arrival at
    first_s; exact for taps within the cyclic prefix, which holds for
    every scenario."""
    delays = first_s + np.arange(len(gains)) * tap_spacing_s
    return (gains[None, :] * np.exp(-2j * np.pi * freqs_hz[:, None] * delays[None, :])).sum(axis=1)


def received_grid(tx_grids, numerology, noise_grid=None) -> np.ndarray:
    """Sum of the link-filtered transmit grids, plus noise_grid if given.

    tx_grids is a list of (grid, link, tx_power_dbm), link a `Links` of
    one row whose taps are one sample of the numerology apart. Each
    transmit power is split over the grid's most occupied symbol.
    """
    shape = tx_grids[0][0].shape
    if any(grid.shape != shape for grid, _, _ in tx_grids):
        raise GridError("transmit grids must share dimensions")
    freqs = np.arange(shape[0]) * numerology.scs_khz * 1e3
    acc = np.zeros(shape, dtype=complex)
    for grid, link, tx_power in tx_grids:
        [amp] = link_amplitude(link, tx_power, int(np.count_nonzero(grid, axis=0).max()))
        response = frequency_response(link.first_arrival_s[0], link.gains[0],
                                      1.0 / numerology.sample_rate_hz, freqs)
        acc += grid * (amp * response)[:, None]
    if noise_grid is not None:
        acc += noise_grid
    return acc


def despread(rx: np.ndarray, reference) -> np.ndarray:
    """Per-subcarrier channel estimate from the reference's REs, which are
    flat (subcarriers, symbols, values); REs sounded in several symbols
    add coherently."""
    k_idx, sym, values = reference
    acc = np.zeros(rx.shape[0], dtype=complex)
    np.add.at(acc, k_idx, rx[k_idx, sym] * np.conj(values))
    return acc


def rsrp(rx: np.ndarray, reference) -> float:
    """Mean per-RE received power over the reference REs, in dBm."""
    k_idx, sym, _values = reference
    if len(k_idx) == 0:
        raise MeasurementFailed("empty RE set")
    return 10.0 * math.log10(float(np.sum(np.abs(rx[k_idx, sym]) ** 2)) / len(k_idx))


def estimate_toa(rx: np.ndarray, reference, numerology, search_window_s) -> float:
    """First-path delay, seconds, of the reference on the grid: the
    despread estimate through `first_paths` on the delay window a
    simulation builds. Raises MeasurementFailed when nothing rises above
    the noise floor."""
    vec = despread(rx, reference)
    window = DelayWindow(len(vec), numerology.scs_khz * 1e3, search_window_s)
    tau = first_paths(vec[None, :], window)[0]
    if np.isnan(tau):
        raise MeasurementFailed("no peak above the noise floor")
    return float(tau)


def set_noise(rng, signals, std: float, read):
    """Plain per-set reference for the receive path's noise draw.

    signals holds each received RE set's (group, RE) signal matrix, REs in
    flat order, and read the positions of the sets whose noise is
    completed. Each set is factored by the reduced QR of its (RE, group)
    matrix C = QR, each column of Q turned so that R's diagonal is real and
    positive. From rng, set after set: z = Q^H n as q real and then q
    imaginary standard normals, times std, then rest = |n - Qz|^2 as std**2
    times a chi-square with 2(N - q) degrees of freedom. Group g's mean RE
    power is |n + C e_g|^2 / N = (|z + R e_g|^2 + rest) / N. Then, read set
    after read set, w = 2N standard normals, real and imaginary parts in
    turn, and the noise n = Qz + sqrt(rest) w' / |w'|, w' = w - Q Q^H w.
    Returns every set's group powers and the read sets' noise.
    """
    stats = []
    for c in signals:
        q, n_re = c.shape
        basis, r = np.linalg.qr(c.T)
        phase = np.diag(r) / np.abs(np.diag(r))
        basis, r = basis * phase, r / phase[:, None]
        x = rng.standard_normal(2 * q)
        z = std * (x[:q] + 1j * x[q:])
        rest = std**2 * rng.chisquare(2 * (n_re - q))
        stats.append((basis, z, rest, [(np.sum(np.abs(z + r[:, g]) ** 2) + rest) / n_re
                                       for g in range(q)]))
    noise = []
    for e in read:
        basis, z, rest, _ = stats[e]
        x = rng.standard_normal(2 * len(basis))
        w = x[0::2] + 1j * x[1::2]
        w = w - basis @ (basis.conj().T @ w)
        noise.append(basis @ z + np.sqrt(rest) * w / np.linalg.norm(w))
    return [powers for *_, powers in stats], noise


def cp_samples(numerology) -> int:
    return numerology.fft_size * CP_REF_SAMPLES // CP_REF_FFT


def ofdm_modulate(grid: np.ndarray, numerology) -> np.ndarray:
    """Per-symbol IFFT with cyclic prefix, symbols * (fft_size + cp)
    samples, scaled by sqrt(fft_size) so the prefix-stripped waveform
    carries the grid energy."""
    if grid.shape[0] > numerology.fft_size:
        raise GridError("grid wider than FFT")
    n, cp = numerology.fft_size, cp_samples(numerology)
    spec = np.zeros((grid.shape[1], n), dtype=complex)
    spec[:, :grid.shape[0]] = grid.T
    sym = np.fft.ifft(spec, axis=1) * np.sqrt(n)
    return np.concatenate([sym[:, n - cp:], sym], axis=1).reshape(-1)


def ofdm_demodulate(waveform: np.ndarray, numerology, subcarriers=None) -> np.ndarray:
    """Inverse of ofdm_modulate for integer-sample-aligned input."""
    n, cp = numerology.fft_size, cp_samples(numerology)
    if len(waveform) % (n + cp) != 0:
        raise GridError(f"waveform length {len(waveform)} not a multiple of {n + cp}")
    if subcarriers is None:
        subcarriers = numerology.n_subcarriers
    samples = np.asarray(waveform).reshape(-1, n + cp)[:, cp:]
    return (np.fft.fft(samples, axis=1) / np.sqrt(n))[:, :subcarriers].T
