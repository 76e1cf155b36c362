"""Per-row first-path picker and Newton polish, kept as they were before
detection moved to window-only, stack-wide evaluation: the picker reads a
full delay profile, the polish evaluates one direct complex exponential
per subcarrier on every step. Used to pin the stack-wide kernel.
"""

import numpy as np

from nrpos.measurements import FIRST_PATH_REL_DB, NOISE_SIGMA_MULT, MeasurementFailed


def _refine_peak(mag: np.ndarray, idx: int) -> float:
    n = len(mag)
    a, b, c = mag[(idx - 1) % n], mag[idx], mag[(idx + 1) % n]
    denom = a - 2 * b + c
    if denom == 0:
        return float(idx)
    return idx + 0.5 * (a - c) / denom


def oracle_pick(mag, m, scs_hz, search_window_s,
                first_path_rel_db=FIRST_PATH_REL_DB, noise_sigma_mult=NOISE_SIGMA_MULT):
    """(tau_seconds, bin_seconds) from a full m-bin delay magnitude."""
    bin_s = 1.0 / (m * scs_hz)
    lo_bin = int(np.floor(search_window_s[0] / bin_s))
    hi_bin = int(np.ceil(search_window_s[1] / bin_s))
    idx = np.arange(lo_bin, hi_bin + 1)
    wmag = mag[idx % m]

    peak_val = float(wmag.max())
    noise_rms = float(np.median(wmag)) / 0.8326
    threshold = max(
        peak_val * 10 ** (-first_path_rel_db / 20.0),
        noise_sigma_mult * noise_rms,
    )
    if peak_val < noise_sigma_mult * noise_rms or peak_val == 0.0:
        raise MeasurementFailed("no peak above the noise floor")

    left = np.roll(wmag, 1)
    right = np.roll(wmag, -1)
    local_max = (wmag >= left) & (wmag >= right)
    local_max[0] = local_max[-1] = False
    candidates = np.nonzero(local_max & (wmag >= threshold))[0]
    first = int(candidates[0]) if len(candidates) else int(np.argmax(wmag))

    frac_bin = _refine_peak(wmag, first)
    return (lo_bin + frac_bin) * bin_s, bin_s


def oracle_polish(despread_vec, scs_hz, tau0, span):
    k = np.arange(len(despread_vec))
    omega = 2j * np.pi * k * scs_hz
    tau = tau0
    for _ in range(4):
        e = np.exp(omega * tau)
        c0 = np.dot(despread_vec, e)
        c1 = np.dot(despread_vec, omega * e)
        c2 = np.dot(despread_vec, omega**2 * e)
        g = 2.0 * np.real(c1 * np.conj(c0))
        h = 2.0 * np.real(c2 * np.conj(c0)) + 2.0 * np.abs(c1) ** 2
        if h >= 0:
            return tau0
        step = -g / h
        if not np.isfinite(step) or abs(tau + step - tau0) > span:
            return tau0 if abs(tau - tau0) > span else tau
        tau += step
        if abs(step) < 1e-16:
            break
    return float(tau)
