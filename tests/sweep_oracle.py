"""The DL-AoD beam sweep and the link draw as they were before they became
array passes: `realize_budget_link` rebuilding its tap tables, TRP-UE
geometry and sector gain for every link, the clock offsets drawn on their
own, one scalar link budget and beam gain per (TRP, beam), one Cholesky
factor per RE set of its Gram matrix of np.vdot pairs, one `draw_noise`
and chi-square per (beam, set) and one `reported_power_dbm` per report.
Used to pin `channel.draw_links`, `Simulator._links` and
`Simulator._aod_stage` bit for bit. `qr_factors` keeps the per-set
`np.linalg.qr` the sweep factored with before, against which the Cholesky
factors are checked up to rounding and the sign of each row.

Only the simulator's configuration, TRPs, UEs, channel parameters,
downlink resources, RE sets, references, beam azimuths, noise RMS and
channel matrix are read. An RE set's REs are placed as flat subcarrier
indices by `grid_oracle.re_indices`.
"""

import math

import numpy as np

from grid_oracle import re_indices
from nrpos.channel import Links, draw_noise, los_probability
from nrpos.measurements import reported_power_dbm
from nrpos.numerology import SPEED_OF_LIGHT
from nrpos.rng import substream
from nrpos.simulate import power_dbm


def _angles_from_to(src, dst):
    v = np.asarray(dst, dtype=float) - np.asarray(src, dtype=float)
    az = math.degrees(math.atan2(v[1], v[0]))
    d3 = float(np.linalg.norm(v))
    zen = math.degrees(math.acos(np.clip(v[2] / d3, -1.0, 1.0)))
    return az, zen


def sector_gain_db(params, delta_azimuth_deg):
    """Parabolic azimuth pattern with a front-to-back floor."""
    if params.omni:
        return 0.0
    d = (delta_azimuth_deg + 180.0) % 360.0 - 180.0
    atten = min(12.0 * (d / params.sector_hpbw_deg) ** 2, params.sector_front_back_db)
    return params.sector_max_gain_db - atten


def realize_budget_link(rng, params, trp, ue_pos, carrier_hz, sample_period_s):
    """One link's fields, by `Links` field name, but the clock offset."""
    trp_pos = np.asarray(trp.position, dtype=float)
    ue = np.asarray(ue_pos, dtype=float)
    d3 = float(np.linalg.norm(ue - trp_pos))
    if d3 <= 0:
        raise ValueError("zero TRP-UE distance")
    d2 = float(np.linalg.norm((ue - trp_pos)[:2]))

    los = bool(rng.uniform() < los_probability(params, d2))

    az, zen = _angles_from_to(trp_pos, ue)
    gain = sector_gain_db(params, az - trp.sector_azimuth_deg)
    if not los and not params.ideal:
        az += float(rng.normal(0.0, 15.0))
        zen += float(rng.normal(0.0, 3.0))
    tau0 = d3 / SPEED_OF_LIGHT
    excess = 0.0
    if not los and not params.ideal:
        excess = float(rng.exponential(params.nlos_excess_mean_s))

    n_taps = 1 if params.ideal else params.n_taps
    powers = np.exp(-np.arange(n_taps) * sample_period_s / params.tap_decay_s)
    powers /= powers.sum()
    if params.ideal:
        gains = np.array([1.0 + 0j])
    elif los:
        k_lin = 10 ** (params.los_k_db / 10.0)
        scatter = powers / (k_lin + 1.0)
        gains = (rng.normal(size=n_taps) + 1j * rng.normal(size=n_taps)) * np.sqrt(scatter / 2.0)
        gains[0] += np.sqrt(k_lin / (k_lin + 1.0)) * np.exp(2j * np.pi * rng.uniform())
    else:
        gains = (rng.normal(size=n_taps) + 1j * rng.normal(size=n_taps)) * np.sqrt(powers / 2.0)

    delays = tau0 + excess + np.arange(n_taps) * sample_period_s
    shadow = 0.0
    law = params.los if los else params.nlos
    if not params.ideal:
        shadow = float(rng.normal(0.0, law.shadow_sigma_db))
    path_loss = law.at(d3, carrier_hz)
    if not los:
        path_loss = max(path_loss, params.los.at(d3, carrier_hz))
    return dict(
        los=los,
        path_loss_db=path_loss,
        shadow_db=shadow,
        antenna_gain_db=gain,
        first_arrival_s=float(delays[0]),
        gains=gains,
        first_path_excess_s=0.0 if los else excess,
        angles_deg=(az, zen),
    )


def clock_offsets(sim, drop_idx):
    """Each TRP's clock offset, then the terminal's, from the drop's "sync"
    substream; zeros without a sync error."""
    sigma = sim.config.sync_sigma_ns * 1e-9
    if sigma == 0.0:
        return np.zeros(len(sim.trps)), 0.0
    rng = substream(sim.config.master_seed, "sync", drop_idx)
    trp_clock = rng.normal(0.0, sigma, size=len(sim.trps))
    return trp_clock, float(rng.normal(0.0, sigma))


def links(sim, drop_idx):
    """The drop's links, a row per TRP, from one draw per link."""
    rng = substream(sim.config.master_seed, "link", drop_idx)
    rows = [realize_budget_link(rng, sim.channel, t, sim.ues[drop_idx],
                                sim.config.carrier_hz, sim.sample_period_s)
            for t in sim.trps]
    trp_clock, ue_clock = clock_offsets(sim, drop_idx)
    return Links(**{name: np.array([row[name] for row in rows]) for name in rows[0]},
                 clock_offset_s=ue_clock - trp_clock)


def beam_gain_db(sim, beam_az, toward_az):
    d = (toward_az - beam_az + 180.0) % 360.0 - 180.0
    return -min(12.0 * (d / sim.config.beam_hpbw_deg) ** 2, 30.0)


def set_rows(sim, h):
    """Each RE set's (member, RE) rows of h[i, k] * ref_i, its REs at flat
    subcarrier indices."""
    return [h[np.ix_(g.members, re_indices(sim.dl_resources[g.members[0]])[0])]
            * np.array([sim._dl.refs[i].ravel() for i in g.members])
            for g in sim._dl_sets]


def sweep_factors(sim, h):
    """R of each RE set: the conjugate transpose of the Cholesky factor of
    its rows' Gram matrix, each entry one np.vdot, one set at a time."""
    return [np.linalg.cholesky(np.array([[np.vdot(a, b) for b in rows] for a in rows])).conj().T
            for rows in set_rows(sim, h)]


def qr_factors(sim, h):
    """R of the reduced QR of each RE set's (RE, member) matrix, one
    `np.linalg.qr` per set, as the sweep took it before: R up to the sign
    of each row."""
    return [np.linalg.qr(rows.T, mode="r") for rows in set_rows(sim, h)]


def sweep_powers(sets, factors, amps, shared, rng, std, n_re):
    n_beams = amps.shape[1]
    z = [np.zeros((len(g.members), n_beams), dtype=complex) for g in sets]
    rest = np.zeros((len(sets), n_beams))
    if std > 0:
        for b in range(n_beams):
            for e, g in enumerate(sets):
                r = len(g.members)
                z[e][:, b] = draw_noise(rng, r, std)
                rest[e, b] = std**2 * rng.chisquare(2 * (n_re - r))
    power = np.empty(amps.shape)
    for g, fac, ze, rest_e in zip(sets, factors, z, rest):
        members = list(g.members)
        r = len(members)
        together = np.ones((r, r)) if shared else np.eye(r)
        y = ze[:, None, :] + np.tensordot(fac, together[:, :, None] * amps[members][:, None, :],
                                          axes=1)
        power[members] = ((y.real**2 + y.imag**2).sum(axis=0) + rest_e) / n_re
    return power


def beam_azimuths(sim):
    n = sim.config.n_beams
    return [t.sector_azimuth_deg + (np.arange(n) * (360.0 / n) if sim.channel.omni
                                    else np.linspace(-52.5, 52.5, n))
            for t in sim.trps]


def link_amplitude(tx_power_dbm, n_occupied_per_symbol, antenna_gain_db, path_loss_db,
                   shadow_db):
    """Per-RE received amplitude in sqrt(mW) of one link."""
    epre_dbm = (
        tx_power_dbm
        - 10.0 * math.log10(max(n_occupied_per_symbol, 1))
        + antenna_gain_db
        - path_loss_db
        - shadow_db
    )
    return 10.0 ** (epre_dbm / 20.0)


def beam_amplitudes(sim, links):
    budgets = zip(links.antenna_gain_db.tolist(), links.path_loss_db.tolist(),
                  links.shadow_db.tolist())
    return np.array([
        [link_amplitude(t.tx_power_dbm + beam_gain_db(sim, az, toward),
                        sim._dl.occupied_per_symbol, *budget)
         for az in beam_az]
        for t, beam_az, toward, budget in zip(sim.trps, beam_azimuths(sim),
                                              links.angles_deg[:, 0].tolist(), budgets)
    ])


def aod_stage(sim, links, drop_idx):
    """The per-(TRP, beam) reports `Simulator._aod_stage` gave, from the
    simulator's own channel matrix and RE sets: each TRP's reported powers
    in dBm, in beam order."""
    cfg = sim.config
    rng = substream(cfg.master_seed, "rsrp", drop_idx)
    h = sim._channel_matrix(links, links.first_arrival_s)
    amps = beam_amplitudes(sim, links)
    std = sim._dl.noise_rms / np.sqrt(2.0)
    n_re = len(re_indices(sim.dl_resources[sim.trps[0].trp_id])[0])
    power = sweep_powers(sim._dl_sets, sweep_factors(sim, h), amps, cfg.interference, rng, std,
                         n_re)
    reports = {}
    for t, beams in zip(sim.trps, power):
        rows = reports[t.trp_id] = []
        for p in beams:
            rsrp_dbm = power_dbm(float(p))
            if cfg.quantize:
                rsrp_dbm = float(reported_power_dbm(rsrp_dbm))
            rows.append(rsrp_dbm)
    return reports
