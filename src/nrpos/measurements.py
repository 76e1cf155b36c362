"""Standardized positioning measurements: first-path detection on despread
channel estimates, round-trip times and arrival angles, the integer
reporting quantization of timing and power values, and the measurement
records that carry them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import RAMP_BLOCK, phase_ramps
from .numerology import TC_SECONDS
from .scenario import AntennaArray

TIMING_RANGE_TC = 985024
POWER_RANGE_DBM = (-156, -31)
K_RANGE = {"fr1": (2, 5), "fr2": (0, 5)}

# first-path picker: earliest local peak within this many dB of the
# strongest one and above this multiple of the noise floor
FIRST_PATH_REL_DB = 13.0
NOISE_SIGMA_MULT = 6.0

# delay-domain oversampling: the delay spectrum has this many bins per
# sample of the next power-of-two FFT above the subcarrier count
DELAY_PAD_FACTOR = 4


class MeasurementFailed(RuntimeError):
    """Raised when a measurement could not be formed (as opposed to being bad)."""


def quantize_timing(t_seconds: float, k: int, fr: str = "fr1") -> int:
    """The timing reporting rule: the nearest multiple of 2^k basic time
    units Tc, clamped to the reporting range; returns the value in Tc."""
    lo, hi = K_RANGE[fr]
    if not lo <= k <= hi:
        raise ValueError(f"k={k} illegal for {fr} (range {lo}..{hi})")
    value = int(round(t_seconds / ((1 << k) * TC_SECONDS))) * (1 << k)
    return min(max(value, -TIMING_RANGE_TC), TIMING_RANGE_TC)


def reported_power_dbm(p_dbm):
    """The power reporting rule: the nearest whole dBm, half to even as
    np.round, clamped to the reporting range. Of a scalar an int, of an
    array (or list) the same shape as nested lists of ints."""
    return np.clip(np.round(p_dbm), *POWER_RANGE_DBM).astype(int).tolist()


def _smooth5_at_least(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (an FFT length without large prime factors)."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


class DelayWindow:
    """Delay-domain magnitudes |ifft(x, m)| at the search-window bins only.

    Bluestein chirp-z: with k*j = (k^2 + j^2 - (j-k)^2)/2 the window bins
    lo..hi of an m-point inverse DFT of an n-point vector become one linear
    convolution with a chirp, done by FFT at the 5-smooth length
    L >= n + W - 1 for W window bins. The output chirp has unit modulus and
    drops out of the magnitude. Chirp phases are reduced exactly in
    integers, pi*((2*k*lo + k^2) mod 2m)/m, so they stay accurate at large
    k. Bins wrap modulo m, so a negative lo reaches the end of the spectrum.

    The window tapers what it transforms: the input chirp carries the
    Hamming taper (`taper_vector`), so a despread vector goes in as it is,
    and the polish's moment weights (`polish_tables`) carry it too. The
    polish's exponentials are the channel's `phase_ramps`, not the window's.

    m is `delay_spectrum_size(n_sc)`. A window keeps only its constant
    tables: each call transforms in a fresh (rows, L) workspace and
    returns fresh magnitudes, which no later call touches.
    """

    def __init__(self, n_sc: int, scs_hz: float, search_window_s: tuple[float, float]):
        m = delay_spectrum_size(n_sc)
        self.scs_hz = scs_hz
        self.bin_s = 1.0 / (m * scs_hz)
        self.lo_bin = int(np.floor(search_window_s[0] / self.bin_s))
        hi_bin = int(np.ceil(search_window_s[1] / self.bin_s))
        if hi_bin <= self.lo_bin:
            raise ValueError("empty search window")
        self.n_bins = hi_bin - self.lo_bin + 1
        self._fft_len = _smooth5_at_least(n_sc + self.n_bins - 1)
        k = np.arange(n_sc, dtype=np.int64)
        self._taper = taper_vector(np.ones(n_sc))
        self._chirp = self._taper * np.exp(
            1j * np.pi * ((2 * k * self.lo_bin + k * k) % (2 * m)) / m)
        n = np.arange(-(n_sc - 1), self.n_bins, dtype=np.int64)
        kernel = np.zeros(self._fft_len, dtype=complex)
        kernel[n % self._fft_len] = np.exp(-1j * np.pi * ((n * n) % (2 * m)) / m) / m
        self._kernel_f = np.fft.fft(kernel)
        # built at the first polish, so that construction stays cheap
        self._polish: np.ndarray | None = None

    def polish_tables(self) -> np.ndarray:
        """The polish's moment weights (t_k, t_k w_k, t_k w_k^2), a (3,
        n_sc padded to whole blocks of channel.RAMP_BLOCK) array, t the
        taper and w_k = 2j pi k scs_hz, zero in the padding. Built once,
        read-only."""
        if self._polish is None:
            n = len(self._taper)
            omega = 2j * np.pi * np.arange(n) * self.scs_hz
            weights = np.zeros((3, -(-n // RAMP_BLOCK) * RAMP_BLOCK), dtype=complex)
            weights[0, :n] = self._taper
            weights[1, :n] = self._taper * omega
            weights[2, :n] = self._taper * omega**2
            weights.flags.writeable = False
            self._polish = weights
        return self._polish

    def magnitudes(self, stack: np.ndarray) -> np.ndarray:
        """(rows, n_sc) untapered vectors -> (rows, n_bins) window
        magnitudes of the tapered vectors, a fresh array."""
        rows, n_sc = stack.shape
        w = np.empty((rows, self._fft_len), dtype=complex)
        np.multiply(stack, self._chirp, out=w[:, :n_sc])
        w[:, n_sc:] = 0.0
        np.fft.fft(w, axis=-1, out=w)
        w *= self._kernel_f
        np.fft.ifft(w, axis=-1, out=w)
        return np.abs(w[:, :self.n_bins])


def _row_median(values: np.ndarray) -> np.ndarray:
    """np.median along axis 1 of finite values, from one partition."""
    mid = values.shape[1] // 2
    kth = [mid] if values.shape[1] % 2 else [mid - 1, mid]
    return np.partition(values, kth, axis=1)[:, kth].mean(axis=1)


def first_path_from_magnitude(wmag: np.ndarray, lo_bin: int, bin_s: float) -> np.ndarray:
    """Coarse first-path delay, seconds, of each row of window magnitudes.

    Row j holds the magnitudes of bins lo_bin.. of its delay profile. The
    pick is the earliest interior local maximum within FIRST_PATH_REL_DB
    of the row's peak and above the noise floor (the strongest bin if none
    qualifies), refined by a 3-point parabola. A row whose peak does not
    rise above the noise floor gives NaN.
    """
    peak_val = wmag.max(axis=1)
    # Rayleigh-magnitude noise floor from the window median; the signal
    # occupies a tiny fraction of the bins so the median is noise-dominated.
    # A row with more than half its bins at or below 0.99 rel 0.8326 /
    # NOISE_SIGMA_MULT, rel the cut FIRST_PATH_REL_DB below its peak, has
    # its floor below rel: its threshold is rel and it fails only at a zero
    # peak, so only the other rows take the median
    threshold = peak_val * 10 ** (-FIRST_PATH_REL_DB / 20.0)
    failed = peak_val == 0.0
    cut = threshold * (0.99 * 0.8326 / NOISE_SIGMA_MULT)
    # (an int32 sum counts faster than np.count_nonzero's intp)
    floored = (wmag <= cut[:, None]).sum(axis=1, dtype=np.int32) <= wmag.shape[1] // 2
    if floored.any():
        noise_floor = NOISE_SIGMA_MULT * (_row_median(wmag[floored]) / 0.8326)
        threshold[floored] = np.maximum(threshold[floored], noise_floor)
        failed[floored] |= peak_val[floored] < noise_floor

    # interior local maxima at or above the threshold; column j is bin j+1
    mid = wmag[:, 1:-1]
    candidate = (mid >= wmag[:, :-2]) & (mid >= wmag[:, 2:]) & (mid >= threshold[:, None])
    first = np.where(candidate.any(axis=1), candidate.argmax(axis=1) + 1, wmag.argmax(axis=1))

    # 3-point parabolic vertex around the pick (circular), in bins
    rows, n = np.arange(len(wmag)), wmag.shape[1]
    a, b, c = wmag[rows, (first - 1) % n], wmag[rows, first], wmag[rows, (first + 1) % n]
    denom = a - 2 * b + c
    flat = denom == 0
    frac_bin = np.where(flat, first, first + 0.5 * (a - c) / np.where(flat, 1.0, denom))
    return np.where(failed, np.nan, (lo_bin + frac_bin) * bin_s)


def _polish_peak(vecs: np.ndarray, window: DelayWindow, tau0: np.ndarray,
                 span: float) -> np.ndarray:
    """Newton maximization of |sum_k t_k D_k e^{2j pi k f tau}|^2 near tau0,
    per row of untapered despread vectors D, t the window's taper.

    Each row stays within +-span of its parabolic estimate and keeps tau0
    if its local curvature does not look like a maximum. The exponentials
    of one step are the channel's blocked ramps, `phase_ramps(-tau)`:
    RAMP_BLOCK + n/RAMP_BLOCK complex exponentials per row instead of n.
    A step evaluates every row, so that a row's result does not depend on
    the others; a row's gradient, curvature and stop rules are a handful
    of Python floats.
    """
    rows, n = vecs.shape
    weights = window.polish_tables()
    n_blocks = weights.shape[1] // RAMP_BLOCK
    # t_k D_k, t_k D_k w_k and t_k D_k w_k^2 in RAMP_BLOCK-wide blocks, zero past n
    moments = np.empty((rows, 3, weights.shape[1]), dtype=complex)
    moments[:, :, n:] = 0.0
    np.multiply(vecs[:, None, :], weights[:, :n], out=moments[:, :, :n])
    moments = moments.reshape(rows, 3 * n_blocks, RAMP_BLOCK)

    start = np.asarray(tau0, dtype=float).tolist()
    taus, out = list(start), list(start)
    live = range(rows)
    for _ in range(4):
        # c_i = sum_b outer_b sum_a moments_i[RAMP_BLOCK b + a] inner_a
        outer, inner = phase_ramps(np.negative(taus), n, window.scs_hz)
        part = moments @ inner[:, :, None]
        c0, c1, c2 = (part.reshape(rows, 3, n_blocks) @ outer[:, :, None])[:, :, 0].T.tolist()
        moving = []
        for r in live:
            conj0, mag1 = c0[r].conjugate(), abs(c1[r])
            h = 2.0 * (c2[r] * conj0).real + 2.0 * (mag1 * mag1)
            if h >= 0:  # not a maximum: keeps tau0, already in out
                continue
            # a NaN curvature is left to the step check, as a bad step
            g = 2.0 * (c1[r] * conj0).real
            step, t = -g / h, taus[r]
            if not math.isfinite(step) or abs(t + step - start[r]) > span:
                out[r] = start[r] if abs(t - start[r]) > span else t
            elif abs(step) < 1e-16:
                out[r] = t + step
            else:
                taus[r] = t + step
                moving.append(r)
        live = moving
        if not live:
            break
    for r in live:
        out[r] = taus[r]
    return np.array(out)


def first_paths(stack: np.ndarray, window: DelayWindow) -> np.ndarray:
    """First-significant-path delay, seconds, of every row of a despread
    stack; NaN where nothing rises above the noise floor. The rows go in
    untapered: the window applies the taper.

    Each row's coarse pick is refined by a short local maximization of its
    continuous correlation (`_polish_peak`).
    """
    taus = first_path_from_magnitude(window.magnitudes(stack), window.lo_bin, window.bin_s)
    found = ~np.isnan(taus)
    if found.all():
        return _polish_peak(stack, window, taus, span=window.bin_s)
    if found.any():
        taus[found] = _polish_peak(stack[found], window, taus[found], span=window.bin_s)
    return taus


def taper_vector(vec: np.ndarray) -> np.ndarray:
    """Hamming taper of a despread spectrum, so that correlation sidelobes
    (-13.3 dB untapered, right at the first-path cut) cannot be mistaken
    for early paths; tapering a symmetric spectrum does not move the peak
    of an isolated path."""
    n = len(vec)
    k = np.arange(n)
    return vec * (0.54 - 0.46 * np.cos(2 * np.pi * k / (n - 1)))


def delay_spectrum_size(n_sc: int) -> int:
    """Bins of the delay spectrum that detection reads from n_sc subcarriers."""
    m = 1
    while m < n_sc:
        m *= 2
    return m * DELAY_PAD_FACTOR


def rstd(toa_target_s: float, toa_reference_s: float) -> float:
    """Time difference of arrival; the common receiver clock term cancels."""
    return toa_target_s - toa_reference_s


def rtt(ue_rxtx_s: float, gnb_rxtx_s: float) -> float:
    """Round-trip time from the two one-sided intervals.

    Inter-node clock offsets cancel in the sum. Noise can push the sum
    negative; it is clamped to zero.
    """
    return max(ue_rxtx_s + gnb_rxtx_s, 0.0)


# --- angle of arrival -------------------------------------------------------


def array_element_positions(array: AntennaArray) -> np.ndarray:
    """Element xy offsets in wavelengths, centered on the array phase center."""
    r = np.arange(array.rows) - (array.rows - 1) / 2
    c = np.arange(array.cols) - (array.cols - 1) / 2
    xx, yy = np.meshgrid(c, r)
    return np.column_stack([xx.ravel(), yy.ravel()]) * array.spacing_wavelengths


def steering_vector(array: AntennaArray, azimuth_deg, zenith_deg) -> np.ndarray:
    """Plane-wave phase per element for arrival from (azimuth, zenith)."""
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=float))
    zen = np.deg2rad(np.asarray(zenith_deg, dtype=float))
    u = np.sin(zen) * np.cos(az)
    v = np.sin(zen) * np.sin(az)
    pos = array_element_positions(array)
    phase = 2 * np.pi * (np.outer(pos[:, 0], np.atleast_1d(u)) + np.outer(pos[:, 1], np.atleast_1d(v)))
    sv = np.exp(1j * phase)
    return sv[:, 0] if np.isscalar(azimuth_deg) and np.isscalar(zenith_deg) else sv


# beamformer scan, degrees: every azimuth and the lower half-space zeniths
# in BEAMFORMER_ZENITH_DEG, both in steps of BEAMFORMER_STEP_DEG
BEAMFORMER_STEP_DEG = 1.0
BEAMFORMER_ZENITH_DEG = (90.0, 150.0)


class BeamformerGrid:
    """Precomputed steering grid for conventional beamforming on one array.

    A horizontal array cannot distinguish a zenith angle from its mirror
    about the horizon, so the scan covers only the lower half-space where
    terminals live.
    """

    def __init__(self, array: AntennaArray):
        self.az_grid = np.arange(-180.0, 180.0, BEAMFORMER_STEP_DEG)
        self.zen_grid = np.arange(BEAMFORMER_ZENITH_DEG[0], BEAMFORMER_ZENITH_DEG[1] + 1e-9,
                                  BEAMFORMER_STEP_DEG)
        azs, zens = np.meshgrid(self.az_grid, self.zen_grid, indexing="ij")
        self._steering_h = steering_vector(array, azs.ravel(), zens.ravel()).conj().T
        self._shape = azs.shape

    def spectrum(self, snapshots: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(snapshots.T).T  # (elements, snapshots)
        proj = self._steering_h @ x
        return (np.abs(proj) ** 2).sum(axis=1).reshape(self._shape)


def _quad_refine(values: np.ndarray, i: int, grid: np.ndarray, circular: bool) -> float:
    n = len(grid)
    if not circular and (i == 0 or i == n - 1):
        return float(grid[i])
    a, b, c = values[(i - 1) % n], values[i], values[(i + 1) % n]
    denom = a - 2 * b + c
    step = grid[1] - grid[0]
    if denom == 0:
        return float(grid[i])
    return float(grid[i] + 0.5 * (a - c) / denom * step)


def estimate_aoa(snapshots: np.ndarray, array: AntennaArray,
                 grid: BeamformerGrid | None = None) -> tuple[float, float]:
    """Conventional-beamforming arrival angles (azimuth, zenith) in degrees.

    Scans a 1-degree steering grid, takes the peak and refines both axes
    with a local quadratic fit.
    """
    snapshots = np.asarray(snapshots)
    if snapshots.ndim == 1:
        snapshots = snapshots[:, None]
    if snapshots.shape[0] != array.n_elements:
        raise ValueError("snapshot rows must equal the element count")
    if array.n_elements < 2:
        raise ValueError("need at least 2 elements")
    if not np.any(np.abs(snapshots) > 0):
        raise MeasurementFailed("rank-deficient (all-zero) snapshots")
    if grid is None:
        grid = BeamformerGrid(array)
    spec = grid.spectrum(snapshots)
    i, j = np.unravel_index(int(np.argmax(spec)), spec.shape)
    az = _quad_refine(spec[:, j], int(i), grid.az_grid, circular=True)
    zen = _quad_refine(spec[i, :], int(j), grid.zen_grid, circular=False)
    az = (az + 180.0) % 360.0 - 180.0
    return float(az), float(zen)


# --- measurement records ----------------------------------------------------

RECORD_KINDS = ("RSTD", "UE_RXTX", "GNB_RXTX", "UL_RTOA", "PRS_RSRP", "SRS_RSRP", "AOA")

_BEAM_KINDS = ("RSTD", "PRS_RSRP")


@dataclass(frozen=True)
class MeasurementRecord:
    """One reported measurement: its kind, the TRP and resource it was
    measured on, and its reported (quantized) values."""

    kind: str
    trp_id: int
    payload: dict
    resource_id: int | None = None

    def __post_init__(self):
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.kind in _BEAM_KINDS and self.resource_id is None:
            raise ValueError(f"{self.kind} reports need a resource (beam) id")

    def to_dict(self) -> dict:
        """The record as a record file's line and a session report's entry
        carry it."""
        return {"kind": self.kind, "trp_id": self.trp_id,
                "resource_id": self.resource_id, "payload": self.payload}

    @classmethod
    def from_dict(cls, doc: dict) -> "MeasurementRecord":
        """Reads the four keys `to_dict` writes and ignores any other, such
        as the `raw` key of older record files."""
        return cls(kind=doc["kind"], trp_id=doc["trp_id"], payload=doc["payload"],
                   resource_id=doc.get("resource_id"))


def write_records(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict()) + "\n")


def read_records(path) -> list[MeasurementRecord]:
    with open(path) as fh:
        return [MeasurementRecord.from_dict(json.loads(line)) for line in fh if line.strip()]


def timing_record(kind: str, trp_id: int, t_seconds: float, k: int, fr: str,
                  resource_id: int | None = None, extra: dict | None = None,
                  quantize: bool = True) -> MeasurementRecord:
    """Timing report of `t_seconds`; unquantized, value_tc is the exact
    value in Tc units and k only labels the report."""
    value_tc = quantize_timing(t_seconds, k, fr) if quantize else t_seconds / TC_SECONDS
    payload = {"value_tc": value_tc, "k": k, "fr": fr}
    if extra:
        payload.update(extra)
    return MeasurementRecord(kind=kind, trp_id=trp_id, resource_id=resource_id, payload=payload)


def record_seconds(record: MeasurementRecord) -> float:
    """Timing value of a timing record, seconds."""
    return record.payload["value_tc"] * TC_SECONDS
