"""The departure bearing of one beam sweep, as `solvers.beam_bearing`
computed it before every sweep's bearing became one array pass
(`solvers.beam_bearings`): a Python sort for the top beams, then one
numpy pass per sweep. Used to pin `beam_bearings` bit for bit."""

import math

import numpy as np

from nrpos.solvers import BEARING_TOP_BEAMS, SolverError


def beam_bearing(beams) -> tuple[float, bool]:
    """(azimuth, low_confidence) of a list of (azimuth_deg, rsrp_dbm)."""
    if not beams:
        raise SolverError("no beams")
    ordered = sorted(beams, key=lambda b: b[1], reverse=True)[:BEARING_TOP_BEAMS]
    powers = np.array([10.0 ** (b[1] / 10.0) for b in ordered])
    az = np.deg2rad([b[0] for b in ordered])
    w = powers / powers.sum()
    vec = np.array([np.sum(w * np.cos(az)), np.sum(w * np.sin(az))])
    az_mean = math.degrees(math.atan2(vec[1], vec[0]))
    spread = (powers.max() - powers.min()) / powers.max() if len(powers) > 1 else 1.0
    low_confidence = len(beams) < 2 or spread < 1e-3
    return az_mean, low_confidence
