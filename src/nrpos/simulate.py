"""Per-drop simulation pipeline: generate the configured downlink/uplink
signals for a deployment, push them through the drop's links onto
received resource elements (REs), form quantized measurement reports, and
solve.

Every stage takes the drop's `channel.Links`, which carry the clock
offsets: the downlink adds a link's `clock_offset_s` to its first arrival,
the uplink subtracts it, and the beam sweep leaves the arrival alone.

`METHOD_TABLE` is the one place that knows the positioning methods; the
drop pipeline, `solve_records` and the session layer read each method's
entry. A DL-AoD report is a PRS-RSRP per beam, its resource; the beams'
directions are the server's TRP data (`Simulator.beams`), which
`solve_records` takes next to the anchors.

Interference is comb-exact: transmitters sharing a comb offset occupy the
same REs and superpose there; distinct offsets never interact. The
downlink PRS and the uplink SRS take one receive path,
`Simulator._receive`, which reads all the sides differ in from a per-side
record (`Side`):

- RE sets and groups. A set is the sources that share REs and so one
  receiver noise: one comb offset's TRPs on the downlink, one TRP on the
  uplink. A group shares one received signal, hence one RSRP: a whole
  downlink set with interference on, one TRP otherwise. A set's REs are
  a (symbol, line) array: row s holds comb line residue[s] of symbol s
  (`prs.comb_pattern`).
- Draw only what is read. A set of q groups with signals C = QR has noise
  n with z = Q^H n, q complex normals, and rest = |n - Qz|^2, a
  chi-square; group g's power on the set's N REs is (|z + R e_g|^2 +
  rest) / N, exactly the RE-level power in distribution. Only the sets
  holding a TRP that is despread and detected, the read sets, get their
  noise on every RE, completed exactly given the statistic.
- Noise order. Each side draws its noise from one substream, keyed by
  (master_seed, drop) and the side's `noise_key`: (0, 0) on the downlink,
  (1,) on the uplink. It draws the statistic of every received set
  first, set by set (`draw_statistics`), then completes the read sets,
  set by set (`complete_set`). Nothing else draws from it; a noiseless
  (ideal) receiver draws all the same at zero std. Results are pinned to
  this order bit for bit. Selection ranks by RSRP, known before detection,
  and afterwards only drops sources without an arrival, and
  `first_paths` treats every row on its own, so the kept arrivals are
  those a detection of every source would give.

The channel matrix holds every link's response on every subcarrier. Its
taps sit at fixed one-sample offsets from the first arrival, and
`channel.phase_ramps` gives each delay's ramp as two blocks, one 64
subcarriers wide and one of every 64th subcarrier, so per drop no RE
costs a complex exponential. `_channel_matrix` multiplies the taps'
blocks, built once per run, and the first arrivals' blocks straight into
the matrix: one batched product of a (link, block, tap) and a (link, tap,
64) array per build. Detection's polish takes its exponentials from the
same `phase_ramps`. Against a direct exponential the blocked ramps differ
in the last bits, so quantized reports are bit-stable under that
blocking, and unquantized ones may differ in their last bits.

No per-drop array lives as long as the `Simulator`. Each build of the
channel matrix is a fresh array, and the simulator keeps the last one by
reference: multi-RTT's uplink stage reads it when its delays are the
downlink's, and a matrix a caller holds is never written by a later
build. Every scratch array, the completions' normals and the delay
window's transform workspace included, is made where it is used: held
for the run instead, they measured no faster in interleaved drop pairs
and raised peak memory by 0.7–1.4 MB.
`_receive` hands its despread stack to detection untapered and unchanged:
the window's chirp and the polish's moment weights carry the taper, so no
pass over the stack applies it.

The RE-set kernels call LAPACK's gufuncs without the np.linalg wrappers
and their per-call checks: `set_factors` zpotrf's `cholesky_lo`, and
`complete_set` zgesv's `solve1` for its two q x q triangular solves, bit
for bit the wrappers' results. Where a wrapper raised LinAlgError (a Gram
matrix that is not positive definite, a zero pivot), a gufunc gives NaN
and a RuntimeWarning; positive link amplitudes make neither.

The downlink beam sweep needs only each group's mean power per beam, so
it never forms REs. `sweep_powers` draws every group's power on every
beam from its comb offset's sufficient statistic, the one the receive
path draws: the factor R of the offset's (TRP, RE) signals C = QR, by
`set_factors` as every RE set's, r complex normals for the noise in C's
span and one chi-square for the rest. This is the exact joint
distribution of the RE-level powers, including the shared noise of
same-offset TRPs with interference off. Draws go beam by beam, offsets in
increasing order, on the "rsrp" substream.

The sweep's arithmetic is batched. The (TRP, beam) amplitudes are one
array expression, with each power taken per element on Python floats,
because numpy's array power differs from libm's pow in the last bit. The
RE sets with one member count are gathered from the channel matrix's
comb lines in one pass, their Gram matrices are factored in one Cholesky
call and their powers are one pass, and the reports are quantized in one
call. The draws are one `_draw_statistic` call over every (beam, set), in
the order above; inside it they stay a loop, because each chi-square
consumes a variable number of values from the stream: drawing all the
normals at once would move every later draw. Reports are bit for bit
those of the per-beam loops.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import accumulate
from time import perf_counter

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, solve1

from .channel import (
    CHANNEL_DEFAULTS,
    ChannelParams,
    Links,
    _tap_tables,
    draw_links,
    draw_noise,
    link_amplitude,
    noise_amplitude,
    pattern_loss_db,
    phase_ramps,
)
from .config import ExperimentConfig
from .measurements import (
    BeamformerGrid,
    DelayWindow,
    MeasurementFailed,
    MeasurementRecord,
    estimate_aoa,
    first_paths,
    record_seconds,
    reported_power_dbm,
    rstd,
    rtt,
    steering_vector,
    timing_record,
)
from .numerology import SPEED_OF_LIGHT, Numerology
from .prs import DlPrsResource, SrsPosResource, comb_pattern, dl_prs_reference, srs_reference
from .rng import substream
from .scenario import AntennaArray, build_deployment, convex_hull, drop_ues, point_in_hull
from .solvers import (
    AZIMUTH,
    RANGE,
    RANGE_DIFFERENCE,
    ZENITH,
    Row,
    SolverError,
    SolverOptions,
    beam_bearings,
    gdop,
    solve_rows,
)

@dataclass
class DropOutcome:
    drop_idx: int
    truth: np.ndarray
    fix: object | None
    records: list[MeasurementRecord]
    in_hull: bool | None = None
    gdop: float | None = None
    failure: str | None = None

    @property
    def converged(self) -> bool:
        return self.fix is not None and self.fix.converged

    @property
    def horizontal_error_m(self) -> float:
        if self.fix is None:
            return math.nan
        return float(np.linalg.norm(self.fix.position[:2] - self.truth[:2]))

    @property
    def vertical_error_m(self) -> float:
        if self.fix is None:
            return math.nan
        return float(abs(self.fix.position[2] - self.truth[2]))


@dataclass(frozen=True)
class ReGroup:
    """Sources whose signals land on the same resource elements (REs) and
    sum to one received signal."""

    members: tuple[int, ...]  # source indices, in summation order
    residues: np.ndarray  # comb line of each symbol, `prs.comb_pattern`


def comb_lines(h: np.ndarray, comb: int) -> np.ndarray:
    """The (row, subcarrier) matrix h as (row, residue, line): a view with
    lines[i, r] = h[i, r::comb], also of a matrix with no rows."""
    return h.reshape(len(h), h.shape[1] // comb, comb).transpose(0, 2, 1)


@dataclass(frozen=True)
class Side:
    """All that the receive path (`Simulator._receive`) reads of one link
    direction, the downlink PRS or the uplink SRS, and the two differ in."""

    stage: str  # its key in `Simulator.stage_s`
    tx_power_dbm: object  # per TRP row, or the terminal's one power
    occupied_per_symbol: int
    clock_sign: float  # times a link's clock offset, added to its first arrival
    comb: int
    sets: list  # RE sets, in noise order: each a tuple of the ReGroups on its REs
    refs: list  # per source, its (symbol, line) reference values
    noise_rms: float  # complex noise RMS per RE; 0 for a noiseless receiver
    noise_key: tuple  # its "noise" substream path after (master_seed, drop)


def set_signals(groups, amps, lines, refs) -> np.ndarray:
    """Each group's (symbol, line) signal on its RE set: its members'
    lines[i, residues] * refs[i] * amps[i], added in member order, the
    first member's written into the group's row in place."""
    c = np.empty((len(groups),) + refs[groups[0].members[0]].shape, dtype=complex)
    for row, g in zip(c, groups):
        first, *others = g.members
        np.multiply(lines[first, g.residues], refs[first], out=row)
        row *= amps[first]
        for i in others:
            x = lines[i, g.residues]  # a copy: fancy indexing
            x *= refs[i]
            x *= amps[i]
            row += x
    return c


def set_factors(signals) -> list[np.ndarray]:
    """R of each RE set's signals C = QR, a row per group on the set's REs,
    (symbol, line) or flat: the conjugate transpose of the Cholesky factor
    of the groups' Gram matrix of np.vdot pairs, in one call per group
    count of LAPACK's zpotrf gufunc, which np.linalg.cholesky wraps, so R's
    diagonal is real and positive. A set's signals must be linearly
    independent, as positive link amplitudes make them."""
    factors = [None] * len(signals)
    for q, pos in _by_length(signals).items():
        grams = np.array([np.vdot(a, b) for e in pos for a in signals[e] for b in signals[e]])
        lower = cholesky_lo(grams.reshape(len(pos), q, q), signature="D->D")
        for e, r in zip(pos, lower.conj().transpose(0, 2, 1)):
            factors[e] = r
    return factors


def draw_statistics(rng, factors, std: float, n_re: int):
    """Each RE set's noise statistic (z, rest), drawn set by set
    (`_draw_statistic`) and scaled by std, the noise per real component,
    and its groups' mean RE powers (|z + R e_g|^2 + rest) / n_re, in one
    pass over the sets of each rank, which gathers its sets' normals;
    factors are the sets' R."""
    ranks = [len(r) for r in factors]
    normals, rest = np.empty(2 * sum(ranks)), np.empty(len(ranks))
    _draw_statistic(rng, ranks, n_re, normals, rest)
    normals *= std
    rest *= std**2
    z, power = [None] * len(ranks), [None] * len(ranks)
    start = [0, *accumulate(2 * q for q in ranks)]
    for q, pos in _by_length(factors).items():
        parts = normals[[start[e] + j for e in pos for j in range(2 * q)]].reshape(len(pos), 2, q)
        zs = parts[:, 0] + 1j * parts[:, 1]
        y = zs[:, :, None] + np.array([factors[e] for e in pos])
        powers = ((y.real**2 + y.imag**2).sum(axis=1) + rest[pos, None]) / n_re
        for e, z_e, p in zip(pos, zs, powers.tolist()):
            z[e], power[e] = z_e, p
    return z, rest.tolist(), power


def complete_set(c: np.ndarray, r: np.ndarray, z: np.ndarray, rest: float, rng) -> np.ndarray:
    """Received REs of each group of an RE set, (group, symbol, line): its
    signal plus the set's noise n = Qz + sqrt(rest) P w / |P w|, exactly
    distributed given the statistic (z, rest). Q = C R^-1, P projects out
    span(Q), and w is 2N standard normals from one draw, real and
    imaginary parts in turn. As Q(z - s Q^H w) + s w, s = sqrt(rest) /
    |P w|, it needs no Q. Both triangular solves call LAPACK's zgesv
    gufunc, which np.linalg.solve wraps; R's positive diagonal keeps them
    regular."""
    flat = c.reshape(len(c), -1)
    w = rng.standard_normal(2 * flat.shape[1]).view(complex)
    y = solve1(r.conj().T, flat.conj() @ w, signature="DD->D")  # Q^H w
    s = math.sqrt(rest / (np.vdot(w, w).real - np.vdot(y, y).real))
    noise = np.dot(solve1(r, z - s * y, signature="DD->D"), flat)
    w *= s
    noise += w
    return c + noise.reshape(c.shape[1:])


def power_dbm(power: float) -> float:
    """Mean RE power in mW as dBm; -300 dBm for no power at all."""
    return 10.0 * math.log10(power) if power > 0 else -300.0


def sweep_powers(sets, factors, amps, shared: bool, rng, std: float, n_re: int) -> np.ndarray:
    """Mean RE power of every source's group on every beam, drawn from each
    RE set's sufficient statistic instead of its received REs.

    sets are the RE sets (all sources on one comb offset), in draw order,
    each of n_re REs, and factors[e] is R of C = QR, C set e's (RE,
    member) matrix of h[i, k] * refs[i] (`set_factors`). amps is (source,
    beam).
    With shared, a set's members form one group and see one power; otherwise each member
    is alone on the set's REs but sees the same noise as the others.

    Given C, the received REs y = n + C a of a group with amplitudes a have
    |y|^2 = |z + R a|^2 + rest, where z = Q^H n holds r complex normals and
    rest, the noise energy outside span(Q), is std**2 times a chi-square
    with 2(N - r) degrees of freedom, independent of z. Per beam and per
    set, in that order, z's r real then r imaginary parts are drawn as
    2r standard normals, then rest (one `_draw_statistic` call). A
    noiseless receiver's std = 0 scales its draws to zeros. Only the draws
    go set by set; the powers are one batched pass over the sets of each
    member count.
    """
    n_beams = amps.shape[1]
    # normals[b]: z's parts on beam b, set after set, r real then r imaginary
    start = np.cumsum([0] + [2 * len(g.members) for g in sets]).tolist()
    normals = np.empty((n_beams, start[-1]))
    rest = np.empty((n_beams, len(sets)))
    _draw_statistic(rng, [len(g.members) for g in sets] * n_beams, n_re, normals.ravel(),
                    rest.ravel())
    rest *= std**2
    power = np.empty(amps.shape)
    for r, pos in _by_length([g.members for g in sets]).items():
        members = np.array([sets[e].members for e in pos])
        parts = normals[:, [start[e] + j for e in pos for j in range(2 * r)]]
        parts = parts.reshape(n_beams, len(pos), 2, r).transpose(2, 1, 3, 0)
        z = np.empty(members.shape + (n_beams,), dtype=complex)
        z.real, z.imag = parts
        z *= std
        together = np.ones((r, r)) if shared else np.eye(r)
        spread = (together[:, :, None] * amps[members][:, :, None, :]).astype(complex)
        # y[s, :, m, b]: span coordinates of member m's group on beam b;
        # matmul runs one BLAS zgemm per set, the product np.dot forms
        y = z[:, :, None, :] + np.matmul(
            np.stack([factors[e] for e in pos]), spread.reshape(len(pos), r, r * n_beams)
        ).reshape(spread.shape)
        power[members] = ((y.real**2 + y.imag**2).sum(axis=1) + rest[:, pos].T[:, None, :]) \
            / n_re
    return power


def _draw_statistic(rng, ranks, n_re: int, normals: np.ndarray, rest: np.ndarray):
    """Draw into normals and rest the standard normals and chi-squares of
    the noise statistics of RE sets of n_re REs and the given ranks q, set
    after set: z's q real and then q imaginary parts, then a chi-square
    with 2(n_re - q) degrees of freedom."""
    start = 0
    for e, q in enumerate(ranks):
        rng.standard_normal(out=normals[start:start + 2 * q])
        rest[e] = rng.chisquare(2 * (n_re - q))
        start += 2 * q


def _by_length(items) -> dict[int, list[int]]:
    """Positions of the items of each length, in order: of the RE sets with
    each member count, from their member tuples, or of each rank, from
    their signals or factors."""
    blocks: dict[int, list[int]] = {}
    for e, item in enumerate(items):
        blocks.setdefault(len(item), []).append(e)
    return blocks


def despread_groups(groups, rx, refs, n_sc: int, comb: int, rows) -> np.ndarray:
    """Channel estimates over all n_sc subcarriers of the sources in rows,
    in that order: each symbol's received REs times its conjugate
    reference, added into its comb line in symbol order. Members that rows
    does not name are skipped. A line no symbol occupies stays zero, as in
    an uplink comb with fewer symbols than its size."""
    slot = {i: j for j, i in enumerate(rows)}
    vecs = np.zeros((len(slot), n_sc), dtype=complex)
    lines = comb_lines(vecs, comb)
    for g, r in zip(groups, rx):
        for i in g.members:
            if i in slot:
                for residue, products in zip(g.residues, r * np.conj(refs[i])):
                    lines[slot[i], residue] += products
    return vecs


def _channel_for(config: ExperimentConfig) -> ChannelParams:
    params = CHANNEL_DEFAULTS[config.scenario]
    overrides = {
        k: v for k, v in config.channel.model_dump().items() if v is not None
    }
    if config.ideal:
        overrides["ideal"] = True
    return replace(params, **overrides)


# pipeline stages timed by `Simulator.stage_s`
STAGES = ("links", "dl", "ul", "aoa", "aod", "detection", "solve", "gdop")


class Simulator:
    """Everything reusable across the drops of one experiment run.

    `stage_s` holds the wall time, by `perf_counter`, spent in each of
    STAGES over the drops run so far: the link and clock draws, the
    downlink, uplink, arrival-angle and departure-beam stages, first-path
    detection (not counted in the downlink or uplink stage that runs it),
    the solve and the GDOP.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._method = METHOD_TABLE[config.method]
        self.stage_s = dict.fromkeys(STAGES, 0.0)
        self.numerology = Numerology(scs_khz=config.scs_khz, n_prb=config.n_prb)
        self.channel = _channel_for(config)
        # every TRP's array: the arrival-angle stage beamforms on it
        self.array = AntennaArray(rows=config.array_rows, cols=config.array_cols)
        deployment = build_deployment(config.scenario, seed=config.master_seed)
        self.trps = deployment.trps
        # a TRP's id is its row (`build_deployment`): stages and builders
        # index per-TRP lists by trp_id
        self.anchors = {t.trp_id: t.position for t in self.trps}
        self.anchor_xyz = deployment.trp_positions()
        self.hull = convex_hull(self.anchor_xyz) if config.hull_split else None
        self.ues = drop_ues(config.n_drops, deployment, config.master_seed,
                            full_area=config.full_area)

        # downlink signal per TRP: one resource each, TRP i on comb offset
        # i mod comb size (with 21 TRPs on comb-12, nine offsets carry two)
        self.dl_resources = {
            t.trp_id: DlPrsResource(
                seq_id=t.trp_id,
                comb_size=config.dl_comb_size,
                re_offset=t.trp_id % config.dl_comb_size,
                n_symbols=config.dl_n_symbols,
                n_prb=config.n_prb,
            )
            for t in self.trps
        }
        # same comb offset -> same REs; with interference the TRPs on one
        # offset also share one received signal
        on_offset: dict[int, list[int]] = {}
        for i, res in self.dl_resources.items():
            on_offset.setdefault(res.re_offset, []).append(i)
        sets = [tuple(m) for _, m in sorted(on_offset.items())]
        # one dl_prs_reference pass gives each TRP's reference values as a
        # row of one array, stacked by member count, RE set and member: the
        # beam sweep reads the rows of one count as a (set, member, RE) view
        order = [i for pos in _by_length(sets).values() for e in pos for i in sets[e]]
        self._dl_stacked = dl_prs_reference([self.dl_resources[i] for i in order], slot=0)
        rows = dict(zip(order, self._dl_stacked.reshape(len(order), config.dl_n_symbols, -1)))
        dl_vals = [rows[i] for i in range(len(self.trps))]
        self._dl_sets = [ReGroup(m, np.array(comb_pattern(self.dl_resources[m[0]]))) for m in sets]

        # uplink sounding signal (single terminal per drop)
        self.srs = SrsPosResource(
            comb_size=config.ul_comb_size,
            comb_offset=0,
            n_symbols=config.ul_n_symbols,
            n_prb=config.n_prb,
        )
        ul_vals = srs_reference(self.srs).reshape(config.ul_n_symbols, -1)
        residues = np.array(comb_pattern(self.srs))

        # each receiver's complex noise RMS per RE; an ideal run's receivers
        # are noiseless, and their zero-std draws add nothing
        dl_rms, ul_rms = (
            0.0 if config.ideal else noise_amplitude(figure_db, self.scs_hz)
            for figure_db in (config.dl_noise_figure_db, config.ul_noise_figure_db))
        self._dl = Side(
            stage="dl", tx_power_dbm=np.array([t.tx_power_dbm for t in self.trps]),
            occupied_per_symbol=dl_vals[0].shape[1], clock_sign=1.0, comb=config.dl_comb_size,
            sets=[(g,) if config.interference else
                  tuple(ReGroup((i,), g.residues) for i in g.members) for g in self._dl_sets],
            refs=dl_vals, noise_rms=dl_rms, noise_key=(0, 0))
        self._ul = Side(
            stage="ul", tx_power_dbm=config.ue_tx_power_dbm,
            occupied_per_symbol=ul_vals.shape[1], clock_sign=-1.0, comb=config.ul_comb_size,
            sets=[(ReGroup((i,), residues),) for i in range(len(self.trps))],
            refs=[ul_vals] * len(self.trps), noise_rms=ul_rms, noise_key=(1,))

        self.sample_period_s = 1.0 / self.numerology.sample_rate_hz
        x0, y0, x1, y1 = deployment.area
        diag = math.hypot(x1 - x0, y1 - y0) + deployment.isd
        guard = 1e-6 + 6.0 * config.sync_sigma_ns * 1e-9
        self.search_window = (-guard, diag / SPEED_OF_LIGHT + guard)

        # taps sit at fixed one-sample offsets from the first arrival: their
        # ramps' blocks are built once here (see `_channel_matrix`)
        n_sc = self.numerology.n_subcarriers
        self._tap_blocks = phase_ramps(_tap_tables(self.channel, self.sample_period_s)[0], n_sc,
                                       self.scs_hz)
        # (links, first-arrival delays as bytes, matrix) of the last build
        self._h_built_for: tuple = (None, b"", None)
        # first-path detection: the delay window, which tapers the despread
        # vectors it is given. A method that detects no first path (DL-AoD)
        # holds none. The others build it here: built at the first
        # detection, the window's construction temporaries would sit on top
        # of that drop's arrays and raise the run's peak memory.
        self._detection = (
            DelayWindow(n_sc, self.scs_hz, self.search_window)
            if self._method.first_path else None)

        self.options = SolverOptions(**config.solver.model_dump(), area=deployment.area)
        self._beamformer: BeamformerGrid | None = None
        self._sweep_index: list | None = None
        # (TRP, beam) azimuths of the downlink beam sweep, degrees, and the
        # server's beam table {trp_id: its beams' azimuths} of the same rows
        n = config.n_beams
        steps = np.arange(n) * (360.0 / n) if self.channel.omni else np.linspace(-52.5, 52.5, n)
        self._beam_azimuths = np.array([t.sector_azimuth_deg + steps for t in self.trps])
        self.beams = dict(zip(self.anchors, self._beam_azimuths))

    # -- helpers ----------------------------------------------------------

    @property
    def scs_hz(self) -> float:
        return self.config.scs_khz * 1e3

    def beamformer(self) -> BeamformerGrid:
        if self._beamformer is None:
            self._beamformer = BeamformerGrid(self.array)
        return self._beamformer

    def _lap(self, stage: str, since: float) -> float:
        """Add the time since `since` to the stage's total; return now."""
        now = perf_counter()
        self.stage_s[stage] += now - since
        return now

    def _links(self, drop_idx: int) -> Links:
        """The drop's links, drawn on its "link" substream, with the clock
        offsets of its "sync" substream: each TRP's clock and then the
        terminal's, none without a sync error."""
        cfg = self.config
        clock_offset = np.zeros(len(self.trps))
        if cfg.sync_sigma_ns != 0.0:
            sigma = cfg.sync_sigma_ns * 1e-9
            rng = substream(cfg.master_seed, "sync", drop_idx)
            trp_clock = rng.normal(0.0, sigma, size=len(self.trps))
            clock_offset = float(rng.normal(0.0, sigma)) - trp_clock
        return draw_links(substream(cfg.master_seed, "link", drop_idx), self.channel, self.trps,
                          self.ues[drop_idx], cfg.carrier_hz, self.sample_period_s, clock_offset)

    def _channel_matrix(self, links: Links, first_s) -> np.ndarray:
        """Frequency response of every link over all subcarriers, its first
        arrivals at first_s in the receiver's clock: a fresh (link,
        subcarrier) array per build.

        Writing subcarrier k as 64b + a, link i's response is
        h[i, 64b + a] = sum_t (g_it TO[t, b] O[i, b]) (TI[t, a] I[i, a]),
        with g_it its tap gains, TO and TI the tap delays' ramp blocks and O
        and I the first arrival's (`phase_ramps`). So h is one batched
        product of a (link, block, tap) and a (link, tap, 64) array; when
        the subcarrier count is not a multiple of 64, its slice is made
        contiguous, so that `comb_lines` gives views. Against a direct
        exponential the blocked ramps differ in the last bits: quantized
        reports are bit-stable under that, unquantized ones may differ in
        their last bits.

        A call on the same links with the same first arrivals, to the bit,
        as the last build returns that build's matrix: without clock
        offsets (sync_sigma_ns = 0) multi-RTT's uplink stage reads the
        matrix its downlink stage built.
        """
        built_for = first_s.tobytes()
        if self._h_built_for[0] is links and self._h_built_for[1] == built_for:
            return self._h_built_for[2]
        n_sc = self.numerology.n_subcarriers
        outer, inner = phase_ramps(first_s, n_sc, self.scs_hz)
        tap_outer, tap_inner = self._tap_blocks
        left = links.gains[:, None, :] * tap_outer.T
        left *= outer[:, :, None]
        h = np.matmul(left, tap_inner * inner[:, None, :]).reshape(len(left), -1)
        if h.shape[1] != n_sc:
            h = np.ascontiguousarray(h[:, :n_sc])
        self._h_built_for = (links, built_for, h)
        return h

    def _sweep_tables(self) -> list[tuple[list[int], tuple, np.ndarray]]:
        """Per member count: the positions of its RE sets, the (member,
        comb residue) index of each (set, member, symbol) into the channel
        matrix's comb lines, and the members' reference values as a (set,
        member, RE) view. Built on first use, so runs without a beam sweep
        hold none of it."""
        if self._sweep_index is None:
            self._sweep_index = []
            start = 0
            for r, pos in _by_length([g.members for g in self._dl_sets]).items():
                residues = np.array([self._dl_sets[e].residues for e in pos])
                members = np.array([self._dl_sets[e].members for e in pos])
                vals = self._dl_stacked[start:start + members.size].reshape(
                    members.shape + (-1,))
                self._sweep_index.append((pos, (members[:, :, None], residues[:, None, :]),
                                          vals))
                start += members.size
        return self._sweep_index

    def _sweep_factors(self, h) -> list[np.ndarray]:
        """R of each RE set's (member, RE) rows of h[i, k] * ref_i, by
        `set_factors`, for `sweep_powers`. The rows of one member count
        are gathered in one pass."""
        lines = comb_lines(h, self.config.dl_comb_size)
        signals = [None] * len(self._dl_sets)
        for pos, index, vals in self._sweep_tables():
            c = lines[index].reshape(vals.shape)
            c *= vals
            for e, rows in zip(pos, c):
                signals[e] = rows
        return set_factors(signals)

    # -- receive path ------------------------------------------------------

    def _receive(self, links: Links, side: Side, drop_idx, detect=None):
        """Received power of every source's signal on one side, the
        downlink or the uplink, and first-path arrivals of those detected.

        Every RE set of the side is received, or with detect (a collection
        of trp_ids, possibly empty) only the sets holding one of them.
        RSRP ranks the sources, and without detect only
        `_select_trps(rsrp)` are despread and detected, in rank order;
        with detect those TRPs are, in that order. Only the sets holding a
        detected TRP get their noise on every RE, in the module's noise
        order. Returns (rsrp, toa): rsrp holds the dBm per TRP row, -300
        for a TRP not received, and toa {trp_id: seconds} the detected
        TRPs with an arrival, in detection order. Arrival times are in the
        receiver's clock: propagation + receiver offset - transmitter
        offset."""
        mark = perf_counter()
        amps = link_amplitude(links, side.tx_power_dbm, side.occupied_per_symbol)
        h = self._channel_matrix(
            links, links.first_arrival_s + side.clock_sign * links.clock_offset_s)
        lines = comb_lines(h, side.comb)
        received = [s for s in side.sets
                    if detect is None or any(i in detect for g in s for i in g.members)]
        signals = [set_signals(s, amps, lines, side.refs) for s in received]
        factors = set_factors(signals)
        std, n_re = side.noise_rms / math.sqrt(2.0), side.refs[0].size
        rng = substream(self.config.master_seed, "noise", drop_idx, *side.noise_key)
        z, rest, powers = draw_statistics(rng, factors, std, n_re)
        rsrp = [power_dbm(0.0)] * len(side.refs)
        for s, power in zip(received, powers):
            for g, p in zip(s, power):
                for i in g.members:
                    rsrp[i] = power_dbm(p)
        detected = self._select_trps(rsrp) if detect is None else list(detect)
        read = [e for e, s in enumerate(received)
                if any(i in detected for g in s for i in g.members)]
        rx = [row for e in read for row in complete_set(signals[e], factors[e], z[e], rest[e], rng)]
        vecs = despread_groups([g for e in read for g in received[e]], rx, side.refs,
                               self.numerology.n_subcarriers, side.comb, detected)
        mark = self._lap(side.stage, mark)
        taus = first_paths(vecs, self._detection).tolist()
        self._lap("detection", mark)
        return rsrp, {t: tau for t, tau in zip(detected, taus) if not math.isnan(tau)}

    # -- arrival angles ----------------------------------------------------

    def _aoa_stage(self, links: Links, ul_toa, drop_idx):
        """Beamformed arrival angles from the sounding signal at the TRPs
        of ul_toa, each TRP's noise drawn on its own substream, so a TRP's
        angle does not depend on which other TRPs are asked. Returns
        {trp_id: (azimuth, zenith) degrees} of the TRPs whose estimate
        succeeded, in ul_toa's order."""
        started = perf_counter()
        cfg = self.config
        grid = self.beamformer()
        n_re = self._ul.refs[0].size
        amps = link_amplitude(links, self._ul.tx_power_dbm, self._ul.occupied_per_symbol)
        noise_std = math.sqrt(n_re * self._ul.noise_rms ** 2 / 2.0)
        angles: dict[int, tuple[float, float]] = {}
        for t in ul_toa:
            az, zen = links.angles_deg[t].tolist()
            # matched-filter output: coherent sum across the sounded band
            x = steering_vector(self.array, az, zen) * (amps[t] * n_re)
            x = x + draw_noise(substream(cfg.master_seed, "aoa", drop_idx, t), len(x), noise_std)
            try:
                angles[t] = estimate_aoa(x, self.array, grid)
            except MeasurementFailed:
                pass
        self._lap("aoa", started)
        return angles

    # -- departure beams ---------------------------------------------------

    def _beam_amplitudes(self, links: Links) -> np.ndarray:
        """Per-RE amplitude of every (TRP, beam) of the downlink sweep: the
        TRP's power less the beam's parabolic pattern toward the link's
        departure azimuth, through `link_amplitude`."""
        loss = pattern_loss_db(links.angles_deg[:, :1] - self._beam_azimuths,
                               self.config.beam_hpbw_deg, 30.0)
        return link_amplitude(links, self._dl.tx_power_dbm[:, None] - loss,
                              self._dl.occupied_per_symbol)

    def _aod_stage(self, links: Links, drop_idx):
        """Received power of every TRP's beams at the terminal: one list
        per TRP row, dBm in beam order, beams time-multiplexed.

        Sweeps are slot-aligned across TRPs: beam b of every TRP transmits
        in the same occasion, so same-offset TRPs interfere beam by beam.
        Powers are drawn by `sweep_powers` from each RE set's factor R.
        """
        started = perf_counter()
        cfg = self.config
        rng = substream(cfg.master_seed, "rsrp", drop_idx)
        h = self._channel_matrix(links, links.first_arrival_s)
        power = sweep_powers(self._dl_sets, self._sweep_factors(h), self._beam_amplitudes(links),
                             cfg.interference, rng, self._dl.noise_rms / math.sqrt(2.0),
                             self._dl_stacked.shape[1])
        dbm = [[power_dbm(p) for p in beams] for beams in power.tolist()]
        reports = reported_power_dbm(dbm) if cfg.quantize else dbm
        self._lap("aod", started)
        return reports

    # -- record assembly and solving ---------------------------------------

    def _select_trps(self, rsrp: list[float]) -> list[int]:
        """trp_ids of the strongest cells first, by rsrp per TRP row, gated
        by the relative-power window; equal powers keep row order.

        Weak cells are rarely worth measuring (and are disproportionately
        obstructed ones), but at least min_trps strongest are always kept
        so the solve stays determined.
        """
        cfg = self.config
        ranked = sorted(range(len(rsrp)), key=rsrp.__getitem__, reverse=True)
        best = rsrp[ranked[0]]
        kept = [t for t in ranked if best - rsrp[t] <= cfg.rsrp_window_db]
        if len(kept) < cfg.min_trps:
            kept = ranked[: cfg.min_trps]
        return kept[: cfg.n_best_trps]

    def run_drop(self, drop_idx: int) -> DropOutcome:
        cfg = self.config
        ue = self.ues[drop_idx]
        started = perf_counter()
        links = self._links(drop_idx)
        self._lap("links", started)

        # records stay on the outcome when the drop fails
        records = self._method.measure(self, links, drop_idx)
        fix = None
        failure = None
        started = perf_counter()
        try:
            fix = solve_records(records, self.anchors, cfg.method, self.options, self.beams)
        except SolverError as exc:
            failure = str(exc)
        self._lap("solve", started)

        outcome = DropOutcome(
            drop_idx=drop_idx,
            truth=ue,
            fix=fix,
            records=records,
            failure=failure,
        )
        if cfg.hull_split:
            outcome.in_hull = point_in_hull(ue, self.hull)
        if fix is not None:
            started = perf_counter()
            outcome.gdop = gdop(fix.rows, self.anchor_xyz, ue, self.options.fix_height)
            self._lap("gdop", started)
        return outcome

    def _rsrp_records(self, kind, trp_ids, rsrp):
        """Power reports of the given TRPs; a PRS report's resource is its
        TRP's one resource."""
        values = [rsrp[t] for t in trp_ids]
        if self.config.quantize:
            values = reported_power_dbm(values)
        return [
            MeasurementRecord(kind=kind, trp_id=t, resource_id=t if kind == "PRS_RSRP" else None,
                              payload={"value_dbm": value})
            for t, value in zip(trp_ids, values)
        ]

    def _dl_tdoa_records(self, links, drop_idx):
        rsrp, toa = self._receive(links, self._dl, drop_idx)
        selected = list(toa)
        records = self._rsrp_records("PRS_RSRP", selected, rsrp)
        cfg = self.config
        for t in selected[1:]:  # against the strongest received power
            records.append(timing_record(
                "RSTD", t, rstd(toa[t], toa[selected[0]]), cfg.effective_timing_k, cfg.fr,
                resource_id=t, extra={"ref_trp_id": selected[0]}, quantize=cfg.quantize))
        return records

    def _ul_tdoa_records(self, links, drop_idx):
        rsrp, toa = self._receive(links, self._ul, drop_idx)
        records = self._rsrp_records("SRS_RSRP", toa, rsrp)
        cfg = self.config
        for t in toa:
            records.append(timing_record(
                "UL_RTOA", t, toa[t], cfg.effective_timing_k, cfg.fr, quantize=cfg.quantize))
        return records

    def _multi_rtt_records(self, links, drop_idx):
        _, dl_toa = self._receive(links, self._dl, drop_idx)
        _, ul_toa = self._receive(links, self._ul, drop_idx, detect=dl_toa)
        cfg = self.config
        records = []
        for t in ul_toa:
            records.append(timing_record(
                "UE_RXTX", t, dl_toa[t], cfg.effective_timing_k, cfg.fr, quantize=cfg.quantize))
            records.append(timing_record(
                "GNB_RXTX", t, ul_toa[t], cfg.effective_timing_k, cfg.fr, quantize=cfg.quantize))
        return records

    def _ul_aoa_records(self, links, drop_idx):
        _, ul_toa = self._receive(links, self._ul, drop_idx)
        return [
            MeasurementRecord(kind="AOA", trp_id=t, payload={"azimuth_deg": az, "zenith_deg": zen})
            for t, (az, zen) in self._aoa_stage(links, ul_toa, drop_idx).items()
        ]

    def _dl_aod_records(self, links, drop_idx):
        """A PRS-RSRP report per beam of each selected TRP; the report's
        resource is the beam's index in `beams`."""
        reports = self._aod_stage(links, drop_idx)
        selected = self._select_trps([max(dbm) for dbm in reports])
        return [
            MeasurementRecord(kind="PRS_RSRP", trp_id=t, resource_id=b,
                              payload={"value_dbm": rsrp_dbm})
            for t in selected
            for b, rsrp_dbm in enumerate(reports[t])
        ]


def _dl_tdoa_rows(records, index, beams):
    return [
        Row(RANGE_DIFFERENCE, index[r.trp_id], record_seconds(r) * SPEED_OF_LIGHT,
            index[r.payload["ref_trp_id"]])
        for r in records if r.kind == "RSTD"
    ]


def _ul_tdoa_rows(records, index, beams):
    """Arrival-time differences against the earliest uplink arrival; among
    equal arrivals (co-sited sectors can quantize to one RTOA) the lowest
    anchor row, so that the records' order does not pick the reference.
    No arrival gives no rows."""
    rtoa = {index[r.trp_id]: record_seconds(r) for r in records if r.kind == "UL_RTOA"}
    if not rtoa:
        return []
    ref = min(rtoa, key=lambda i: (rtoa[i], i))
    return [Row(RANGE_DIFFERENCE, i, (v - rtoa[ref]) * SPEED_OF_LIGHT, ref)
            for i, v in rtoa.items() if i != ref]


def _multi_rtt_rows(records, index, beams):
    ue_rxtx = {r.trp_id: record_seconds(r) for r in records if r.kind == "UE_RXTX"}
    gnb_rxtx = {r.trp_id: record_seconds(r) for r in records if r.kind == "GNB_RXTX"}
    return [Row(RANGE, index[t], rtt(ue_rxtx[t], gnb_rxtx[t]) * SPEED_OF_LIGHT / 2.0)
            for t in ue_rxtx if t in gnb_rxtx]


def _ul_aoa_rows(records, index, beams):
    """Bearings, and their zenith rows when every record has one."""
    angles = [(index[r.trp_id], r.payload["azimuth_deg"], r.payload["zenith_deg"])
              for r in records if r.kind == "AOA"]
    rows = [Row(AZIMUTH, i, az) for i, az, _ in angles]
    if all(zen is not None for _, _, zen in angles):
        rows += [Row(ZENITH, i, zen) for i, _, zen in angles]
    return rows


def _dl_aod_rows(records, index, beams):
    """Each PRS-RSRP report's resource is a beam of its TRP, an int that
    indexes the TRP's azimuths in the beam table. A TRP's row is the
    bearing (`beam_bearings`) of its beams in beam order, as its top-beam
    sort keeps report order among equal powers; a TRP whose bearing has low
    confidence (one beam, or a flat response) has none."""
    if beams is None:
        raise SolverError("a DL-AoD solve needs the TRPs' beam table")
    sweeps: dict[int, list] = {}
    for r in records:
        if r.kind == "PRS_RSRP":
            b, table = r.resource_id, beams.get(r.trp_id, ())
            if type(b) is not int or b not in range(len(table)):
                raise SolverError(f"TRP {r.trp_id} has no beam {b}")
            sweeps.setdefault(index[r.trp_id], []).append((b, float(table[b]),
                                                           r.payload["value_dbm"]))
    bearings = beam_bearings([[(az, dbm) for _, az, dbm in sorted(sweep)]
                              for sweep in sweeps.values()])
    return [Row(AZIMUTH, i, az) for i, (az, low_confidence) in zip(sweeps, bearings)
            if not low_confidence]


@dataclass(frozen=True)
class MethodSpec:
    """One positioning method.

    - `measure(sim, links, drop_idx)` forms a drop's records from its
      `channel.Links`.
    - `rows(records, index, beams)` turns records into `solvers.Row`s on
      the anchor rows that index gives, in any order, and does no more:
      `solvers.solve_rows` decides the rows' order, whether they determine
      a fix, the starts and, through the fix's rows, the drop's GDOP.
    - `first_path` says whether the method detects first paths.
    - A session's UE and gNB reports carry the kinds `ue_report` and
      `gnb_report`, which together hold every record the rows read. An
      uplink method's UE reports nothing.
    """

    measure: Callable
    rows: Callable
    first_path: bool
    ue_report: tuple[str, ...] = ()
    gnb_report: tuple[str, ...] = ()


METHOD_TABLE = {
    "dl-tdoa": MethodSpec(Simulator._dl_tdoa_records, _dl_tdoa_rows, True, ("RSTD", "PRS_RSRP")),
    "ul-tdoa": MethodSpec(Simulator._ul_tdoa_records, _ul_tdoa_rows, True, (),
                          ("UL_RTOA", "SRS_RSRP")),
    "multi-rtt": MethodSpec(Simulator._multi_rtt_records, _multi_rtt_rows, True, ("UE_RXTX",),
                            ("GNB_RXTX",)),
    "ul-aoa": MethodSpec(Simulator._ul_aoa_records, _ul_aoa_rows, True, (), ("AOA",)),
    "dl-aod": MethodSpec(Simulator._dl_aod_records, _dl_aod_rows, False, ("PRS_RSRP",)),
}


class _AnchorIndex(dict):
    """Anchor row of each trp_id; a record naming a TRP with no anchor
    fails the solve."""

    def __missing__(self, trp_id):
        raise SolverError(f"no anchor for TRP {trp_id}")


def solve_records(records, anchors, method: str, options: SolverOptions, beams=None):
    """Position solve from measurement records: the rows of the method's
    entry of `METHOD_TABLE`, through `solvers.solve_rows`.

    anchors maps each trp_id to its position; the solver's anchor rows
    follow the mapping's order. beams is the TRPs' beam table
    (`Simulator.beams`), which a DL-AoD solve needs; a record lacking a
    payload value, or holding one of the wrong type or out of float range
    (a DL-AoD power whose milliwatts overflow), fails the solve. The
    batch pipeline, the location-session server and offline re-solves of
    written records all solve here.
    """
    if method not in METHOD_TABLE:
        raise SolverError(f"unknown method {method!r}")
    index = _AnchorIndex((t, i) for i, t in enumerate(anchors))
    xyz = np.array([anchors[t] for t in index], dtype=float)
    try:
        rows = METHOD_TABLE[method].rows(records, index, beams)
    except KeyError as exc:
        raise SolverError(f"a record's payload lacks {exc}") from exc
    except TypeError as exc:
        raise SolverError(f"a record's payload is malformed: {exc}") from exc
    except OverflowError as exc:
        raise SolverError(f"a record's payload is out of range: {exc}") from exc
    return solve_rows(rows, xyz, options)
