"""Top-level simulation path: pinned results, each drop's links against the
per-link oracle and its clock offsets against the sync draws, the
channel matrix against the oracle's frequency response, for subcarrier
counts on and off its 64-subcarrier blocks, and fresh at every build, the
signal sums against the grid path, the comb-line receive, despread and
sweep against flat RE indices and the per-set reference noise draw for
every comb shape, the beam sweep's and the receive path's power draws
against the RE-level draw, completed noise against a full draw, each read group's
power against its RSRP, the sweep's batched pass against the per-beam
loops and its Cholesky factors against the QR factors it took before, the
downlink reference values against a per-symbol build,
detection of the selected TRPs only and no detection state built for
DL-AoD, accuracy on an ideal channel, the multi-RTT fixes of two pinned
UMi drops and a pinned multi-RTT drop without a downlink arrival, two
pinned walk-offs that strict-decrease Gauss-Newton ends (UMa DL-AoD and
DL-TDOA), fixes that do not depend on the records' order or read the
power reports, arrival angles that do not depend on the other TRPs, the
drop's GDOP and the experiment artifacts, strict JSON without a fix."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import sweep_oracle
from grid_oracle import (despread, flat_dl_reference, flat_srs_reference, frequency_response,
                         link_row, map_dl_prs, re_indices, received_grid, rsrp, set_noise,
                         slot_grid)
from nrpos import experiments, prs, simulate, solvers
from nrpos.channel import Links, draw_noise, link_amplitude
from nrpos.config import METHODS, preset_config
from nrpos.experiments import ResultSummary, run_experiment
from nrpos.measurements import first_paths, read_records, write_records
from nrpos.prs import DL_VALID_SYMBOLS, UL_VALID_SYMBOLS, comb_pattern
from nrpos.rng import substream
from nrpos.simulate import (Simulator, comb_lines, complete_set, despread_groups,
                            draw_statistics, power_dbm, set_factors, set_signals, solve_records,
                            sweep_powers)
from nrpos.sequences import gold_sequence, prs_c_init, qpsk_map
from nrpos.solvers import AZIMUTH, RANGE_DIFFERENCE, Row, gdop, in_area, init_guess

N_DROPS = 8

# sha256 of results.csv for N_DROPS drops at the default master seed.
# Any change to the signal path that is meant to be a pure refactor keeps
# these; a change that alters results must say why and update them.
# "gdop column": every digest moved when a drop's GDOP became that of the
# rows its fix was solved from, at the truth, and empty without a fix.
# "plain start": the TDOA solves start from the plain centroid of their
# anchors, reference included, not the RSRP-weighted one; no drop changed
# status. "Per-set noise redraw": receiver noise is drawn per RE set, a
# statistic for every set and the full noise of the sets read only
# (`Simulator._receive`); the downlink-only digests kept their values.
PINNED = [
    # gdop column; no fix moved
    ("ioo-fr1", dict(method="multi-rtt"),
     "8182227a0e67f98083856e7ddb6d9b169308f6255d19146c31c00ba26ff4711f"),
    # gdop column; anchor-row order moved 7 of 8 fixes by at most 2.8e-12 m;
    # sweep factors from the Gram matrix's Cholesky factor moved drop 0 by 1.15 m
    ("uma", dict(method="dl-aod"),
     "e07c4bf782d60682215b33f928d6b1d7253527f08c1d4411a2a88dc0076c95a2"),
    # gdop column, 5 of 8 empty; plain start moved 2 of 3 fixes by at most 4.6e-5 m
    ("uma", dict(method="dl-tdoa"),
     "8e47c7775beb2457b0f14d84a18694040b1061580d182c7dcd60fbafe8aed6e2"),
    # plain start moved 2 of 8 fixes by at most 3.3e-6 m
    ("ioo-fr1", dict(method="ul-tdoa"),
     "98c4e9d124d8c43090c312156e6788577f2f14ad4c6614963fce57efde054502"),
    # each TRP's angle noise on its own substream moved all 8 fixes by at most 4.0e-4 m
    ("ioo-fr1", dict(method="ul-aoa"),
     "69a1cc84420cd8def16f991e4ffbf5857db293efd928274217ee300789ac99ff"),
    # plain start moved 2 fixes by at most 2.5e-5 m and unconverged drop 5 by 3.9 m;
    # drop 4's two basins tie in objective to the last bits (ROADMAP item 2)
    ("uma", dict(method="dl-tdoa", interference=False),
     "228d4e02e3b8d97e4522fbf06574f03e927447ecb0fa0c2fb35d2afab090bfb9"),
    # plain start moved 3 of 8 fixes by at most 2.5e-7 m
    ("ioo-fr1", dict(method="dl-tdoa", sync_sigma_ns=5.0),
     "c56b8a8e52be3af8fa4e4d73d937e0d3eba13c443f80960b47b68897bae29783"),
    # plain start moved 2 of 8 fixes by at most 1.9e-8 m
    ("ioo-fr1", dict(method="dl-tdoa", ideal=True),
     "224d9f02ffa7e43bc480c5f153fdc95708e1456540f8f2c5fcb3356ebe22d573"),
    # uplink selection on 21 TRPs, where detection skips the most rows;
    # per-set noise redraw moved 5 of 8 fixes: drop 3 by 190 m, drop 0 by
    # 13 m, the others by at most 0.27 m
    ("uma", dict(method="ul-tdoa"),
     "b342379674ab1c187c92386b9a3687eef3ab0606283bdafedc1695df2fba4986"),
    # gdop column, 4 of 8 empty; per-set noise redraw moved 2 of 8 fixes
    # by at most 0.22 m
    ("uma", dict(method="multi-rtt"),
     "c92cffdbb345439c3024d5b32af375e7b8d78620c2663e535bb4c1b856087821"),
    # uplink arrivals in the TRPs' clocks: pinned when the clock offsets
    # moved onto the links; a flip of the uplink offset's sign moves both.
    # Per-set noise redraw: UL-TDOA moved 7 of 8 fixes (drop 3 by 180 m,
    # the others by at most 1.6 m), and drop 6's no longer converges;
    # multi-RTT moved 2 of 8 fixes by at most 0.11 m
    ("uma", dict(method="ul-tdoa", sync_sigma_ns=5.0),
     "483f6a16c6ad8916a875be7a3e3650c8c4628bb3ec017ddc42a8ded9f37c8ccb"),
    ("uma", dict(method="multi-rtt", sync_sigma_ns=5.0),
     "6d0115f0b5bef0ed6e0a282c0ca1c99b0d8aa12ac36f47200f0b03db73ed27a0"),
]


@pytest.mark.parametrize(
    "preset,overrides,digest", PINNED,
    ids=[f"{p}-{'-'.join(f'{k}={v}' for k, v in o.items())}" for p, o, _ in PINNED],
)
def test_results_pinned(preset, overrides, digest):
    result = run_experiment(preset_config(preset, n_drops=N_DROPS, **overrides))
    assert hashlib.sha256(result.results_csv.encode()).hexdigest() == digest


@pytest.mark.parametrize("drop,position,objective", [
    (11, (-33.2102, 238.3721), 7444.12),
    (23, (46.4640, 108.0786), 2129.76),
])
def test_umi_multi_rtt_keeps_the_lower_basin(drop, position, objective):
    """UMi multi-RTT at master seed 1: from the closed-form start alone these
    two drops settle in a higher-objective basin (drop 11: objective 7,571
    and 140.5 m of error against 49.7 m); the run from the anchor centroid
    finds the fix the coarse scan found. UE positions do not depend on
    n_drops."""
    sim = Simulator(preset_config("umi", method="multi-rtt", n_drops=drop + 1))
    fix = sim.run_drop(drop).fix
    assert fix.converged
    assert np.allclose(fix.position[:2], position, rtol=0, atol=1e-3)
    assert fix.objective == pytest.approx(objective, abs=0.01)


def test_uma_dl_aod_walk_off_is_not_converged():
    """UMa DL-AoD drop 8 at master seed 1, its bearing rows in record order
    (rank order), the solve's row order before rows were sorted by anchor:
    the bearing fit runs off to (15576, 2406), 15 km outside the area,
    where the residual RMS is flat. Accepting equal-RMS steps, the solver
    took one there under the tolerance and reported the fix converged;
    under strict decrease its halvings find no lower RMS and the run ends
    unconverged. On the flat RMS the point where the halvings give out
    moves with the last bits of the residuals: with angles from math.atan2
    it moved about 1 cm. In the canonical row order the drop's run ends
    converged there by a strictly lower RMS, an out-of-area fix (ROADMAP
    item 2), so the test runs the walk-off's own problem: `_Problem` keeps
    its rows in the order it is given them. The rows are the drop's as its
    beam sweep gave them before the sweep's factors came from the Gram
    matrix's Cholesky factor: the new draws end this record-order run
    converged at (15561.0, 2406.9), the same defect under another name."""
    sim = Simulator(preset_config("uma", method="dl-aod", n_drops=1))
    rows = [Row(AZIMUTH, anchor, value) for anchor, value in [
        (6, 51.58011846268289), (18, 51.58011846268289), (0, -44.59446882401648),
        (7, 70.70248504978278), (12, -44.59446882401648), (19, 70.70248504978278),
        (3, 23.218431670919536), (5, -108.95451218341667)]]
    problem = solvers._Problem(rows, sim.anchor_xyz, sim.options.fix_height)
    x0 = init_guess(problem.anchors, fix_height=sim.options.fix_height)
    fix = solvers._solve_bearings(problem, x0, sim.options)
    assert not fix.converged and fix.iterations < sim.options.max_iterations
    assert np.allclose(fix.position[:2], (15576.0246, 2406.1689), rtol=0, atol=1e-3)
    assert not in_area(fix.position, sim.options.area)


def test_uma_dl_tdoa_walk_off_start_loses():
    """UMa DL-TDOA drop 5 at master seed 3: one of its four starts walks off
    along a hyperbola asymptote. Accepting equal-RMS steps, it went on to
    (-1.3e16, -8.9e16) with the lowest objective, and the drop's fix was
    that unconverged point. Under strict decrease it stops near (-5e10,
    -3e11) with a higher objective than the other starts, which converge
    in the area."""
    sim = Simulator(preset_config("uma", method="dl-tdoa", n_drops=6, master_seed=3))
    outcome = sim.run_drop(5)
    assert outcome.converged and in_area(outcome.fix.position, sim.options.area)
    assert np.allclose(outcome.fix.position[:2], (-313.4226, -423.2649), rtol=0, atol=1e-3)
    assert outcome.horizontal_error_m == pytest.approx(82.69, abs=0.01)


def test_uma_dl_aod_free_height_fails_the_solve():
    """UMa DL-AoD drop 0 at master seed 1 with solver.fix_height None.
    DL-AoD rows are azimuths, which carry no height: the Jacobian's z column
    is zero, and the fit kept its start's height, the anchors' mean less
    1.5 m. It reported a converged fix at z = 37.38 m, 35.9 m above the
    terminal, with an infinite GDOP. A height that no row constrains now
    fails the solve; at the default fixed height the drop solves."""
    outcome = Simulator(preset_config("uma", method="dl-aod", n_drops=1,
                                      solver={"fix_height": None})).run_drop(0)
    assert outcome.fix is None and outcome.truth[2] == 1.5
    assert outcome.failure == "azimuths alone do not measure the height; fix it or add zeniths"
    assert Simulator(preset_config("uma", method="dl-aod", n_drops=1)).run_drop(0).converged


def test_multi_rtt_drop_without_downlink_arrival_fails_alone():
    """A multi-RTT drop whose downlink detects no arrival asks the uplink
    for no TRP. Its uplink despread raised `ValueError: cannot reshape
    array of size 0` in `comb_lines` and aborted the whole run; UMa at a
    70 dB downlink noise figure, master seed 1, drop 3 was the first of 70
    such drops in 200. The drop now fails on its own, with no
    measurements, and the uplink draws no noise for it."""
    sim = Simulator(preset_config("uma", method="multi-rtt", dl_noise_figure_db=70.0,
                                  n_drops=200))
    links = sim._links(3)
    assert sim._receive(links, sim._dl, 3)[1] == {}
    rsrp, toa = sim._receive(links, sim._ul, 3, detect={})
    assert rsrp == [-300.0] * len(sim.trps) and toa == {}
    outcome = sim.run_drop(3)
    assert outcome.fix is None and outcome.records == []
    assert outcome.failure == "no measurements"


@pytest.mark.parametrize("interference", [True, False])
def test_kernel_matches_grid_path(interference):
    """The receive path's signal sums (`set_signals`) and despread against
    the grid path of `grid_oracle` on the same link draws and noise grid.
    With interference every TRP transmits onto one shared grid, so the
    comb-offset groups must reproduce exactly what lands on each TRP's
    REs; without it each TRP transmits alone."""
    sim = Simulator(preset_config("uma", n_prb=24, n_drops=1, interference=interference))
    cfg, num = sim.config, sim.numerology
    links = sim._links(0)
    side = sim._dl
    amps = link_amplitude(links, trp_powers(sim), side.occupied_per_symbol)
    h = sim._channel_matrix(links, links.first_arrival_s)
    assert any(len(g.members) > 1 for s in side.sets for g in s) == interference

    noise_grid = draw_noise(np.random.default_rng(7), (num.n_subcarriers, cfg.dl_n_symbols),
                            side.noise_rms / np.sqrt(2.0))
    groups, rx, kernel_rsrp = receive_on_grid(side, noise_grid, amps, h)
    vecs = despread_groups(groups, rx, side.refs, num.n_subcarriers, cfg.dl_comb_size,
                           range(len(sim.trps)))

    def tx_grid(t):
        grid = slot_grid(num, symbols=cfg.dl_n_symbols)
        return (map_dl_prs(grid, sim.dl_resources[t.trp_id]), link_row(links, t.trp_id),
                t.tx_power_dbm)

    everyone = [tx_grid(t) for t in sim.trps]
    shared = received_grid(everyone, num, noise_grid=noise_grid)
    for i, t in enumerate(sim.trps):
        grid = shared if interference else \
            received_grid([everyone[i]], num, noise_grid=noise_grid)
        ref = flat_dl_reference(sim.dl_resources[t.trp_id])
        expected = despread(grid, ref)
        assert np.allclose(vecs[i], expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())
        assert kernel_rsrp[i] == pytest.approx(rsrp(grid, ref), abs=1e-9)


def trp_powers(sim):
    return np.array([t.tx_power_dbm for t in sim.trps])


def receive_on_grid(side, noise_grid, amps, h):
    """Every group of a side received under a full RE-level noise draw:
    its signal sum (`set_signals`) plus the noise that noise_grid, a
    (subcarrier, symbol) grid, holds on its set's REs. Returns the groups,
    their received REs and, per source, the mean power on its group's REs
    in dBm."""
    n_sym = side.refs[0].shape[0]
    # view[r, s, j]: the noise on subcarrier j * comb + r of symbol s
    view = noise_grid.reshape(-1, side.comb, n_sym).transpose(1, 2, 0)
    groups, rx, power = [], [], [power_dbm(0.0)] * len(side.refs)
    for s in side.sets:
        noise = view[s[0].residues, np.arange(n_sym)]
        for g, c in zip(s, set_signals(s, amps, comb_lines(h, side.comb), side.refs)):
            groups.append(g)
            rx.append(c + noise)
            for i in g.members:
                power[i] = power_dbm(float(np.mean(np.abs(rx[-1]) ** 2)))
    return groups, rx, power


def assert_links_equal(got: Links, want: Links):
    for name in vars(want):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == getattr(want, name).dtype, name


def flat_signal(amps, h, k, refs, members):
    """One group's signal on flat subcarrier indices k: each member's
    h * ref * amp, added in member order."""
    c = np.zeros(len(k), dtype=complex)
    for i in members:
        c += h[i, k] * refs[i] * amps[i]
    return c


def flat_despread(rx, k, ref, n_sc):
    """One source's channel estimate: products added at their subcarriers
    in RE order."""
    vec = np.zeros(n_sc, dtype=complex)
    np.add.at(vec, k, rx * np.conj(ref))
    return vec


DL_SHAPES = [(comb, n) for comb, counts in DL_VALID_SYMBOLS.items() for n in counts]


def check_receive_against_flat_indices(sim, side, resources, flat_refs, monkeypatch):
    """One side's `Simulator._receive` on drop 0 against the same arithmetic
    on the flat (subcarrier, symbol) indices that `grid_oracle.re_indices`
    expands from each TRP's resource, receiving with cell selection (no
    detect), for detect (5, 2, 7) and for every TRP. Bit for bit: every
    received group's signal sum, each detected TRP's despread vector, zero
    on exactly the subcarriers its resource leaves unsounded, and the
    arrivals. Against `grid_oracle.set_noise`, the plain per-set reference
    draw on the same substream: every RSRP to 1e-9 dB, -300 dBm for a TRP
    not received, the received REs of each set read, that is holding a
    detected TRP, and the stream the path leaves. Repeated symbols
    re-sound subcarriers, whose products add in symbol order."""
    n_sc, n_trps = sim.numerology.n_subcarriers, len(sim.trps)
    links = sim._links(0)
    amps = link_amplitude(links, side.tx_power_dbm, side.occupied_per_symbol)
    signals, completed, despreads = [], [], []

    def spy_factors(sets):
        signals.extend(c.copy() for c in sets)
        return set_factors(sets)

    def spy_complete(c, r, z, rest, rng):
        rx = complete_set(c, r, z, rest, rng)
        completed.append((rx.copy(), rng))
        return rx

    def spy_despread(groups, rx, *args):
        vecs = despread_groups(groups, rx, *args)
        despreads.append(([r.tobytes() for r in rx], vecs.copy()))
        return vecs

    for detect in (None, (5, 2, 7), range(n_trps)):
        signals.clear()
        completed.clear()
        despreads.clear()
        monkeypatch.setattr(simulate, "set_factors", spy_factors)
        monkeypatch.setattr(simulate, "complete_set", spy_complete)
        monkeypatch.setattr(simulate, "despread_groups", spy_despread)
        rsrp, toa = sim._receive(links, side, 0, detect=detect)
        monkeypatch.undo()

        h = sim._channel_matrix(links, links.first_arrival_s)
        received = [s for s in side.sets
                    if detect is None or {i for g in s for i in g.members} & set(detect)]
        flat, ks = [], {}
        for s in received:
            k, sym = re_indices(resources[s[0].members[0]])
            for g in s:
                for i in g.members:
                    assert all(np.array_equal(a, b) for a, b in zip(re_indices(resources[i]),
                                                                    (k, sym)))
                    ks[i] = k
            flat.append(np.array([flat_signal(amps, h, k, flat_refs, g.members) for g in s]))
        assert [c.reshape(len(c), -1).tobytes() for c in signals] == [c.tobytes() for c in flat]

        detected = sim._select_trps(rsrp) if detect is None else list(detect)
        read = [e for e, s in enumerate(received)
                if any(i in detected for g in s for i in g.members)]
        rng = substream(sim.config.master_seed, "noise", 0, *side.noise_key)
        powers, noise = set_noise(rng, flat, side.noise_rms / np.sqrt(2.0), read)
        want_rsrp = [-300.0] * n_trps
        for s, p in zip(received, powers):
            for g, power in zip(s, p):
                for i in g.members:
                    want_rsrp[i] = power_dbm(power)
        assert rsrp == pytest.approx(want_rsrp, rel=0, abs=1e-9)
        assert len(completed) == len(read)
        for (rows, path_rng), e, n in zip(completed, read, noise):
            assert np.allclose(rows.reshape(len(rows), -1), flat[e] + n, rtol=0,
                               atol=1e-9 * np.abs(n).max())
        assert path_rng.standard_normal() == rng.standard_normal()

        [(rx, vecs)] = despreads
        assert rx == [row.tobytes() for rows, _ in completed for row in rows]
        by_source = {i: row for (rows, _), e in zip(completed, read)
                     for g, row in zip(received[e], rows) for i in g.members}
        flat_vecs = np.array([flat_despread(by_source[i].ravel(), ks[i], flat_refs[i], n_sc)
                              for i in detected])
        assert vecs.tobytes() == flat_vecs.tobytes()
        for i, vec in zip(detected, vecs):
            sounded = np.zeros(n_sc, dtype=bool)
            sounded[ks[i]] = True
            assert not vec[~sounded].any() and np.all(vec[sounded] != 0)
        taus = first_paths(flat_vecs, sim._detection).tolist()
        assert toa == {t: tau for t, tau in zip(detected, taus) if not math.isnan(tau)}


@pytest.mark.parametrize("interference", [True, False])
@pytest.mark.parametrize("comb,n_symbols", DL_SHAPES)
def test_dl_comb_lines_match_flat_indices(comb, n_symbols, interference, monkeypatch):
    """The receive path on the downlink side against flat indices
    (`check_receive_against_flat_indices`), for every valid (comb,
    symbols) pair, with and without interference: one comb offset's TRPs
    share their REs and noise. The beam sweep's factors and reports match
    `sweep_oracle`'s, which reads the same flat indices."""
    sim = Simulator(preset_config("uma", n_prb=24, n_drops=1, quantize=False,
                                  interference=interference, dl_comb_size=comb,
                                  dl_n_symbols=n_symbols))
    resources = [sim.dl_resources[t.trp_id] for t in sim.trps]
    check_receive_against_flat_indices(
        sim, sim._dl, resources, [flat_dl_reference(res)[2] for res in resources], monkeypatch)

    links = sim._links(0)
    h = sim._channel_matrix(links, links.first_arrival_s)
    for got, want in zip(sim._sweep_factors(h), sweep_oracle.sweep_factors(sim, h)):
        assert got.tobytes() == want.tobytes()
    assert sim._aod_stage(links, 0) == list(sweep_oracle.aod_stage(sim, links, 0).values())


@pytest.mark.parametrize("interference", [True, False])
@pytest.mark.parametrize("comb", [12, 2])
def test_sweep_factors_are_the_qr_factors(comb, interference):
    """Every RE set's sweep factor, from its Gram matrix's Cholesky factor,
    against the R that `np.linalg.qr` gave the sweep (`sweep_oracle`), on
    UMa drop 0, with and without interference; comb 2 puts 10 and 11 TRPs
    on one set. Both are R of C = QR: R^H R is the same Gram matrix, and
    they differ only by the sign of each row and rounding, so |R| agrees
    entry by entry. The Cholesky factor's diagonal is real and positive."""
    sim = Simulator(preset_config("uma", method="dl-aod", n_drops=1, dl_comb_size=comb,
                                  interference=interference))
    links = sim._links(0)
    h = sim._channel_matrix(links, links.first_arrival_s)
    factors = sim._sweep_factors(h)
    assert [len(r) for r in factors] == [len(g.members) for g in sim._dl_sets]
    for r, qr in zip(factors, sweep_oracle.qr_factors(sim, h)):
        gram = qr.conj().T @ qr
        assert np.abs(r.conj().T @ r - gram).max() <= 1e-12 * np.abs(gram).max()
        assert np.allclose(np.abs(r), np.abs(qr), rtol=1e-12, atol=0.0)
        assert np.all(np.diag(r).imag == 0.0) and np.all(np.diag(r).real > 0.0)


@pytest.mark.parametrize("n_symbols", UL_VALID_SYMBOLS)
@pytest.mark.parametrize("comb", [2, 4, 8])
def test_ul_comb_lines_match_flat_indices(comb, n_symbols, monkeypatch):
    """The receive path on the uplink side against flat indices
    (`check_receive_against_flat_indices`), for every sounding comb and
    symbol count: each TRP is its own RE set, under its own noise. A comb
    with fewer symbols than its size leaves comb lines unsounded."""
    sim = Simulator(preset_config("ioo-fr1", method="ul-tdoa", n_prb=24, n_drops=1,
                                  ul_comb_size=comb, ul_n_symbols=n_symbols))
    n_trps = len(sim.trps)
    k, _ = re_indices(sim.srs)
    assert len(set(k)) == sim.numerology.n_subcarriers or n_symbols < comb
    check_receive_against_flat_indices(
        sim, sim._ul, [sim.srs] * n_trps, [flat_srs_reference(sim.srs)[2]] * n_trps,
        monkeypatch)


@pytest.mark.parametrize("comb,n_symbols", [(2, 2), (4, 4), (6, 6), (12, 12)])
@pytest.mark.parametrize("interference", [True, False])
@pytest.mark.parametrize("preset", ["uma", "umi", "ioo-fr1"])
def test_dl_reference_matches_per_symbol_build(preset, interference, comb, n_symbols):
    """The stacked downlink reference values and every group's REs equal a
    build symbol by symbol, from one scalar Gold call per symbol, on the
    REs that `grid_oracle.re_indices` places: a group's residues are each
    member's comb pattern, and its (symbol, line) values are the member's
    flat values symbol after symbol."""
    sim = Simulator(preset_config(preset, n_drops=1, interference=interference,
                                  dl_comb_size=comb, dl_n_symbols=n_symbols))
    expected = {}
    for t in sim.trps:
        res = sim.dl_resources[t.trp_id]
        k, sym = re_indices(res)
        per_symbol = [k[sym == s] for s in range(res.n_symbols)]
        assert [list(k_s % comb) for k_s in per_symbol] == \
            [[r] * len(k_s) for r, k_s in zip(comb_pattern(res), per_symbol)]
        expected[t.trp_id] = np.concatenate(
            [qpsk_map(gold_sequence(prs_c_init(res.seq_id, 0, s), 2 * len(k_s)))
             for s, k_s in enumerate(per_symbol)])
    # each TRP's values are one row of the stacked array, and every row is a TRP's
    assert sorted(row.tobytes() for row in sim._dl_stacked) == \
        sorted(v.tobytes() for v in expected.values())
    members = []
    for g in (g for s in sim._dl.sets for g in s):
        assert interference or len(g.members) == 1
        for i in g.members:
            assert sim._dl.refs[i].shape == (n_symbols, sim._dl.occupied_per_symbol)
            assert sim._dl.refs[i].tobytes() == expected[i].tobytes()
            assert np.shares_memory(sim._dl.refs[i], sim._dl_stacked)
            assert list(g.residues) == comb_pattern(sim.dl_resources[i])
            members.append(i)
    assert sorted(members) == [t.trp_id for t in sim.trps]


# sha256 of the default configuration's `_dl_stacked` bytes, from the
# per-symbol build that the batched Gold pass replaced
DL_STACKED_SHA256 = {
    "uma": "6681b901741951c8b4881eb854f29e095131ad96d0a7dd367c9db1a5d65303a5",
    "ioo-fr1": "c41a59ea6d8e24fe9d1115fb9c7b63bd861469a3155b7e7d3f45ae4efa442467",
}


@pytest.mark.parametrize("preset", sorted(DL_STACKED_SHA256))
def test_dl_stacked_pinned(preset):
    sim = Simulator(preset_config(preset, n_drops=1))
    assert hashlib.sha256(sim._dl_stacked.tobytes()).hexdigest() == DL_STACKED_SHA256[preset]


def test_construction_makes_one_gold_call(monkeypatch):
    calls = []

    def spy(c_init, length):
        calls.append(np.shape(c_init))
        return gold_sequence(c_init, length)

    monkeypatch.setattr(prs, "gold_sequence", spy)
    sim = Simulator(preset_config("uma", n_drops=1))
    assert calls == [(len(sim.trps), sim.config.dl_n_symbols)]


def test_construction_makes_one_seed_call(monkeypatch):
    """Every (TRP, symbol) scrambling seed of a construction comes from one
    `prs_c_init` call on arrays."""
    calls = []

    def spy(seq_id, slot, symbol):
        calls.append(np.broadcast_shapes(np.shape(seq_id), np.shape(slot), np.shape(symbol)))
        return prs_c_init(seq_id, slot, symbol)

    monkeypatch.setattr(prs, "prs_c_init", spy)
    sim = Simulator(preset_config("uma", n_drops=1))
    assert calls == [(len(sim.trps), sim.config.dl_n_symbols)]


LINK_CASES = [
    (preset, overrides)
    for preset in ("uma", "umi", "ioo-fr1")
    for overrides in ({}, dict(channel=dict(force_los=True)), dict(ideal=True),
                      dict(channel=dict(tap_decay_s=50e-9)))
]


@pytest.mark.parametrize(
    "preset,overrides", LINK_CASES,
    ids=[f"{p}-{'-'.join(f'{k}={v}' for k, v in o.items())}" for p, o in LINK_CASES],
)
def test_links_match_the_per_link_oracle(preset, overrides):
    """Each drop's `Links` against the uncached per-link draw of
    `sweep_oracle`, field by field and bit for bit: LOS flags, budgets,
    first arrivals, tap gains, excess delays, angles and clock offsets."""
    n = 4
    sim = Simulator(preset_config(preset, n_drops=n, **overrides))
    for d in range(n):
        links = sim._links(d)
        assert_links_equal(links, sweep_oracle.links(sim, d))
        assert links.gains.shape == (len(sim.trps), 1 if sim.channel.ideal else
                                     sim.channel.n_taps)
    if sim.channel.force_los or sim.channel.ideal:
        assert links.los.all() and not links.first_path_excess_s.any()


def test_clock_offsets_are_the_terminal_draw_less_the_trp_draws():
    """A link's clock offset is the terminal's draw less its TRP's, both
    from the drop's "sync" substream, the TRPs' first; the clock draws move
    nothing else on the links, and without a sync error the offsets are
    zero."""
    n_drops = 3
    config = preset_config("uma", n_drops=n_drops, sync_sigma_ns=5.0)
    sim = Simulator(config)
    synced = Simulator(config.model_copy(update={"sync_sigma_ns": 0.0}))
    for d in range(n_drops):
        rng = substream(config.master_seed, "sync", d)
        trp_clock = rng.normal(0.0, 5e-9, size=len(sim.trps))
        ue_clock = rng.normal(0.0, 5e-9)
        links, plain = sim._links(d), synced._links(d)
        assert np.array_equal(links.clock_offset_s, ue_clock - trp_clock)
        assert np.all(links.clock_offset_s != 0.0)
        assert plain.clock_offset_s.tolist() == [0.0] * len(sim.trps)
        assert_links_equal(replace(links, clock_offset_s=plain.clock_offset_s), plain)


def assert_matrix_matches_oracle(sim):
    """The channel matrix of the simulator's drop 0, built with its clock
    offsets, against the oracle's direct per-tap sum, on the same links
    with every tap moved by the downlink clock term."""
    links = sim._links(0)
    extra = links.clock_offset_s
    assert np.all(extra != 0.0)
    h = sim._channel_matrix(links, links.first_arrival_s + extra)
    freqs = np.arange(sim.numerology.n_subcarriers) * sim.scs_hz
    expected = np.array([
        frequency_response(first + e, gains, sim.sample_period_s, freqs)
        for first, e, gains in zip(links.first_arrival_s, extra, links.gains)
    ])
    assert h.shape == expected.shape and h.flags.c_contiguous
    assert np.allclose(h, expected, rtol=0.0, atol=1e-10 * np.abs(expected).max())


def test_channel_matrix_matches_oracle_response():
    """The blocked-product channel matrix of a full 272-PRB UMa drop with
    clock offsets against the oracle's direct per-tap sum."""
    sim = Simulator(preset_config("uma", n_drops=1, sync_sigma_ns=5.0))
    assert sim.numerology.n_subcarriers == 3264
    assert_matrix_matches_oracle(sim)


@pytest.mark.parametrize("preset,n_prb", [("uma", 24), ("uma", 276), ("ioo-fr1", 272)])
def test_channel_matrix_layout_matches_oracle(preset, n_prb):
    """The matrix's (link, block, 64) layout against the oracle: 288 and
    3,312 subcarriers, neither a multiple of the 64-subcarrier block, and
    the IOO preset's omni links, each with clock offsets."""
    sim = Simulator(preset_config(preset, n_drops=1, n_prb=n_prb, sync_sigma_ns=5.0))
    assert sim.numerology.n_subcarriers == 12 * n_prb
    assert_matrix_matches_oracle(sim)


def test_channel_matrix_builds_are_fresh():
    """Each build is a fresh array: two builds share no memory, and a build
    leaves unchanged a matrix that an earlier caller still holds. A call
    on the same links and first arrivals returns the last build."""
    sim = Simulator(preset_config("uma", n_drops=2))
    links = sim._links(0)
    first = sim._channel_matrix(links, links.first_arrival_s)
    held = first.copy()
    assert sim._channel_matrix(links, links.first_arrival_s.copy()) is first
    later = [sim._channel_matrix(links, links.first_arrival_s + 1e-9),
             sim._channel_matrix(sim._links(1), sim._links(1).first_arrival_s)]
    for h in later:
        assert not np.shares_memory(h, first)
    assert not np.shares_memory(*later)
    assert np.array_equal(first, held)


@pytest.mark.parametrize("preset,method", [("uma", "dl-tdoa"), ("ioo-fr1", "multi-rtt")])
def test_drop_does_not_see_earlier_drops(preset, method):
    """Drop 7 after drops 0-6 on one simulator equals drop 7 on a fresh
    one: the cached channel matrix and the detection state carry nothing
    from one drop, or one stage, to the next. Multi-RTT's uplink stage
    reads the channel matrix its downlink stage built."""
    config = preset_config(preset, method=method, n_drops=10)
    sim = Simulator(config)
    after = [sim.run_drop(d) for d in range(10)][7]
    alone = Simulator(config).run_drop(7)
    assert after.records and after.records == alone.records
    assert (after.failure, after.gdop) == (alone.failure, alone.gdop)
    if alone.fix is None:
        assert after.fix is None
    else:
        assert np.array_equal(after.fix.position, alone.fix.position)
        assert after.fix.residual_rms == alone.fix.residual_rms


@pytest.mark.parametrize("sync_sigma_ns,builds", [(0.0, 1), (5.0, 2)])
def test_multi_rtt_channel_matrix_builds(sync_sigma_ns, builds, monkeypatch):
    """A multi-RTT drop without clock offsets has equal downlink and uplink
    delays, and its uplink stage reads the channel matrix the downlink
    stage built; with offsets the delays differ and the uplink stage
    builds its own. Either way the drop is that of a simulator that builds
    the matrix on every call."""
    config = preset_config("ioo-fr1", method="multi-rtt", n_drops=2,
                           sync_sigma_ns=sync_sigma_ns)
    sim, rebuilding = Simulator(config), Simulator(config)
    build = rebuilding._channel_matrix

    def always_build(links, first_s):
        rebuilding._h_built_for = (None, b"", None)
        return build(links, first_s)

    rebuilding._channel_matrix = always_build
    ramps = []
    real = simulate.phase_ramps
    monkeypatch.setattr(simulate, "phase_ramps", lambda *a: ramps.append(a) or real(*a))
    outcomes = [sim.run_drop(d) for d in range(2)]
    assert len(ramps) == 2 * builds
    for d, outcome in enumerate(outcomes):
        want = rebuilding.run_drop(d)
        assert outcome.records and outcome.records == want.records
        assert np.array_equal(outcome.fix.position, want.fix.position)


def re_level_powers(side, amps, h, n: int, seed: int) -> np.ndarray:
    """Linear RSRP of every source, (source, draw), under n fresh RE-level
    noise grids (`receive_on_grid`)."""
    rng = np.random.default_rng(seed)
    shape = (h.shape[1], side.refs[0].shape[0])
    return 10.0 ** (np.array([
        receive_on_grid(side, draw_noise(rng, shape, side.noise_rms / np.sqrt(2.0)), amps, h)[2]
        for _ in range(n)]).T / 10.0)


def assert_same_distribution(re_level, drawn, shared, correlated):
    """Per source, the mean and standard deviation of linear power agree
    within 4 standard errors, and the two sources in shared, on one comb
    offset, correlate alike; correlated asks that they share their noise
    in the noise-dominated regime."""
    n = re_level.shape[1]
    m1, m2 = re_level.mean(axis=1), drawn.mean(axis=1)
    v1, v2 = re_level.var(axis=1), drawn.var(axis=1)
    assert np.all(np.abs(m1 - m2) < 4.0 * np.sqrt((v1 + v2) / n))
    assert np.all(np.abs(np.sqrt(v1) - np.sqrt(v2)) < 4.0 * np.sqrt((v1 + v2) / (2 * n)))
    corr = [np.corrcoef(d[list(shared)])[0, 1] for d in (re_level, drawn)]
    assert corr[0] == pytest.approx(corr[1], abs=0.05)
    if correlated:
        assert corr[1] > 0.5


def noiseless_rsrp(side, amps, h):
    """Every source's RSRP without noise, from its group's REs."""
    return receive_on_grid(side, np.zeros((h.shape[1], side.refs[0].shape[0]), dtype=complex),
                           amps, h)[2]


@pytest.mark.parametrize("interference,scale", [(True, 1.0), (False, 0.02)])
def test_sweep_draw_matches_re_level_draw(interference, scale):
    """The beam sweep's draw from each RE set's factor R against RSRP taken
    from fresh noise grids on the REs (`assert_same_distribution`). Scaled
    into the noise-dominated regime without interference, two TRPs on one
    comb offset see the same noise, so their powers stay correlated; a
    draw per TRP would make them independent. Without noise the draw is
    exact."""
    sim = Simulator(preset_config("uma", n_prb=24, n_drops=1, interference=interference))
    links = sim._links(0)
    side = sim._dl
    amps = scale * link_amplitude(links, trp_powers(sim), side.occupied_per_symbol)
    h = sim._channel_matrix(links, links.first_arrival_s)
    factors = sim._sweep_factors(h)
    n = 4000

    n_re = side.refs[0].size
    sweep_draws = sweep_powers(sim._dl_sets, factors, np.repeat(amps[:, None], n, axis=1),
                               interference, np.random.default_rng(12),
                               side.noise_rms / np.sqrt(2.0), n_re)
    shared = next(g for g in sim._dl_sets if len(g.members) == 2).members
    assert_same_distribution(re_level_powers(side, amps, h, n, 11), sweep_draws, shared,
                             not interference)

    noiseless = sweep_powers(sim._dl_sets, factors, amps[:, None], interference,
                             np.random.default_rng(13), 0.0, n_re)
    assert [power_dbm(p) for p in noiseless[:, 0]] == \
        pytest.approx(noiseless_rsrp(side, amps, h), abs=1e-9)


@pytest.mark.parametrize("interference,scale", [(True, 1.0), (False, 0.02)])
def test_receive_statistic_matches_re_level_draw(interference, scale):
    """The receive path's RSRP, drawn from each RE set's statistic
    (`draw_statistics`), against RSRP taken from fresh noise grids on the
    REs (`assert_same_distribution`): with interference each set is one
    group, q = 1; without it the sets of two TRPs on one comb offset hold
    two groups under one noise, q = 2, whose powers stay correlated in the
    noise-dominated regime. Without noise the draw is exact."""
    sim = Simulator(preset_config("uma", n_prb=24, n_drops=1, interference=interference))
    links = sim._links(0)
    side = sim._dl
    amps = scale * link_amplitude(links, trp_powers(sim), side.occupied_per_symbol)
    h = sim._channel_matrix(links, links.first_arrival_s)
    lines = comb_lines(h, side.comb)
    factors = set_factors([set_signals(s, amps, lines, side.refs) for s in side.sets])
    assert {len(r) for r in factors} == ({1} if interference else {1, 2})
    n, n_re, std = 4000, side.refs[0].size, side.noise_rms / np.sqrt(2.0)

    def draw(rng, std):
        power = np.empty(len(sim.trps))
        for s, p in zip(side.sets, draw_statistics(rng, factors, std, n_re)[2]):
            for g, x in zip(s, p):
                power[list(g.members)] = x
        return power

    rng = np.random.default_rng(12)
    drawn = np.array([draw(rng, std) for _ in range(n)]).T
    shared = next(g for g in sim._dl_sets if len(g.members) == 2).members
    assert_same_distribution(re_level_powers(side, amps, h, n, 11), drawn, shared,
                             not interference)
    assert [power_dbm(p) for p in draw(np.random.default_rng(13), 0.0)] == \
        pytest.approx(noiseless_rsrp(side, amps, h), abs=1e-9)


@pytest.mark.parametrize("interference", [True, False])
def test_completed_noise_matches_a_full_draw(interference):
    """A read set's noise, completed from its statistic (`complete_set`),
    is distributed as a full draw on its REs, within 5 standard errors of
    4,000 draws: zero mean, per-RE variance 2 std**2 (the noise RMS
    squared), no pseudo-covariance E[n n^T], and, within 6, no covariance
    between REs. The set holds TRPs 0 and 12, one group with
    interference, q = 1, and two without, q = 2."""
    sim = Simulator(preset_config("uma", n_prb=24, n_drops=1, interference=interference))
    links = sim._links(0)
    side = sim._dl
    amps = link_amplitude(links, side.tx_power_dbm, side.occupied_per_symbol)
    h = sim._channel_matrix(links, links.first_arrival_s)
    [re_set] = [s for s in side.sets if s[0].members[0] == 0]
    assert [g.members for g in re_set] == ([(0, 12)] if interference else [(0,), (12,)])
    c = set_signals(re_set, amps, comb_lines(h, side.comb), side.refs)
    [r] = set_factors([c])
    n, n_re, std = 4000, c[0].size, side.noise_rms / np.sqrt(2.0)
    rng = np.random.default_rng(21)
    noise = np.empty((n, n_re), dtype=complex)
    for d in range(n):
        [z], [rest], _ = draw_statistics(rng, [r], std, n_re)
        noise[d] = (complete_set(c, r, z, rest, rng) - c)[-1].ravel()

    var = 2.0 * std**2
    assert var == pytest.approx(side.noise_rms**2)
    mean = noise.mean(axis=0)
    assert np.all(np.abs(mean.real) < 5.0 * std / np.sqrt(n))
    assert np.all(np.abs(mean.imag) < 5.0 * std / np.sqrt(n))
    power = (np.abs(noise) ** 2).mean(axis=0)
    assert np.all(np.abs(power - var) < 5.0 * var / np.sqrt(n))
    assert np.all(np.abs((noise**2).mean(axis=0)) < 5.0 * var / np.sqrt(n))
    cov = noise.conj().T @ noise / n
    assert np.abs(cov - np.diag(np.diag(cov))).max() < 6.0 * var / np.sqrt(2 * n)


@pytest.mark.parametrize("overrides,side_name", [
    ({}, "_dl"), (dict(interference=False), "_dl"), (dict(method="ul-tdoa"), "_ul")])
def test_read_groups_carry_their_rsrp(overrides, side_name, monkeypatch):
    """UMa drop 3 at master seed 1, unquantized: for every group of every
    set the path reads, 10 log10 of the mean power of its received REs
    equals the RSRP its members report to 1e-9 dB. The power comes from the
    set's statistic before its noise is completed; the completion must
    reproduce it. Downlink with and without interference (q = 1 and up to
    2) and the uplink."""
    sim = Simulator(preset_config("uma", n_drops=4, quantize=False, **overrides))
    side = getattr(sim, side_name)
    completed = []
    monkeypatch.setattr(simulate, "complete_set",
                        lambda *args: completed.append(complete_set(*args)) or completed[-1])
    rsrp, _ = sim._receive(sim._links(3), side, 3)
    detected = sim._select_trps(rsrp)
    read = [s for s in side.sets if any(i in detected for g in s for i in g.members)]
    assert len(completed) == len(read) > 1
    for s, rx in zip(read, completed):
        for g, row in zip(s, rx):
            for i in g.members:
                assert power_dbm(float(np.mean(np.abs(row) ** 2))) == \
                    pytest.approx(rsrp[i], rel=0, abs=1e-9)


SWEEP_CASES = [
    (preset, overrides)
    for preset in ("uma", "umi", "ioo-fr1")
    for overrides in ({}, dict(quantize=False), dict(quantize=False, interference=False))
] + [("uma", dict(quantize=False, dl_comb_size=2))]


@pytest.mark.parametrize(
    "preset,overrides", SWEEP_CASES,
    ids=[f"{p}-{'-'.join(f'{k}={v}' for k, v in o.items())}" for p, o in SWEEP_CASES],
)
def test_aod_sweep_matches_the_per_beam_oracle(preset, overrides):
    """The cached link draw and the batched beam sweep against the
    per-link and per-(TRP, beam) loops of `sweep_oracle`, bit for bit:
    every link and every beam report of the first drops. Unquantized
    reports carry each power's last bit; comb 2 puts 10 and 11 TRPs on
    one RE set. The beam table holds the oracle's beam azimuths."""
    n = 6
    sim = Simulator(preset_config(preset, method="dl-aod", n_drops=n, **overrides))
    assert list(sim.beams) == list(sim.anchors)
    for beams, az in zip(sim.beams.values(), sweep_oracle.beam_azimuths(sim)):
        assert np.array_equal(beams, az)
    for d in range(n):
        links = sim._links(d)
        assert_links_equal(links, sweep_oracle.links(sim, d))
        assert sim._aod_stage(links, d) == list(sweep_oracle.aod_stage(sim, links, d).values())


def test_beam_amplitudes_match_the_per_beam_oracle():
    """The (TRP, beam) amplitude array against one `link_amplitude` call
    per beam, bit for bit, with the links turned to random departure
    azimuths: glibc's pow(q, 2) differs from q * q in the last bit for
    about 1 in 1,200 random q, and about a third of those differences
    survive the budget's sums."""
    sim = Simulator(preset_config("uma", method="dl-aod", n_drops=1))
    links = sim._links(0)
    rng = np.random.default_rng(3)
    for _ in range(300):
        turned = replace(links, angles_deg=np.column_stack(
            [rng.uniform(-180.0, 180.0, len(sim.trps)), links.angles_deg[:, 1]]))
        assert np.array_equal(sim._beam_amplitudes(turned),
                              sweep_oracle.beam_amplitudes(sim, turned))


@pytest.mark.parametrize("method", ["dl-tdoa", "multi-rtt", "ul-tdoa", "ul-aoa"])
def test_detection_runs_on_selected_trps_only(method, monkeypatch):
    """First-path detection sees only the TRPs cell selection keeps: the
    selection by downlink RSRP for DL-TDOA and multi-RTT, whose uplink
    then detects only the selected TRPs with a downlink arrival; the
    selection by sounding RSRP for UL-TDOA and UL-AoA."""
    sim = Simulator(preset_config("uma", method=method, n_prb=24, n_drops=3))
    rows = []
    detect = simulate.first_paths
    monkeypatch.setattr(simulate, "first_paths",
                        lambda vecs, window: rows.append(len(vecs)) or detect(vecs, window))
    for d in range(3):
        links = sim._links(d)
        side = sim._ul if method in ("ul-tdoa", "ul-aoa") else sim._dl
        rsrp, toa = sim._receive(links, side, d)
        n = len(sim._select_trps(rsrp))
        assert n < len(sim.trps)
        rows.clear()
        sim.run_drop(d)
        assert rows == {"dl-tdoa": [n], "multi-rtt": [n, len(toa)], "ul-tdoa": [n],
                        "ul-aoa": [n]}[method]


@pytest.mark.parametrize("method", simulate.METHOD_TABLE)
def test_cell_selection_runs_once_per_drop(method, monkeypatch):
    """Each method ranks its TRPs once per drop: the stage that selects
    returns only the TRPs it measured, and the record builder reads its
    selection from them."""
    sim = Simulator(preset_config("uma", method=method, n_prb=24, n_drops=3))
    calls = []
    select = Simulator._select_trps
    monkeypatch.setattr(Simulator, "_select_trps",
                        lambda self, rsrp: calls.append(len(rsrp)) or select(self, rsrp))
    for d in range(3):
        sim.run_drop(d)
    assert calls == [len(sim.trps)] * 3


def test_dl_aod_builds_no_detection_state():
    """DL-AoD detects no first path and receives no downlink REs, so its
    simulator holds no delay window; its results.csv is that of a
    simulator that has both and has received downlink REs. Receiving them
    builds no state: every attribute is the same object before and after.
    A DL-TDOA simulator has the window from the start and never
    builds the beam sweep's tables, which DL-AoD builds at its first drop."""
    config = preset_config("uma", method="dl-aod", n_drops=N_DROPS)
    lean = Simulator(config)
    full = Simulator(config)
    full._detection = Simulator(config.model_copy(update={"method": "dl-tdoa"}))._detection
    links = full._links(0)
    full._channel_matrix(links, links.first_arrival_s)
    before = dict(vars(full))
    full._receive(links, full._dl, 0)
    assert vars(full).keys() == before.keys()
    assert all(getattr(full, name) is value for name, value in before.items())
    assert full._detection is not None
    csv = [experiments._results_csv([sim.run_drop(i) for i in range(N_DROPS)])
           for sim in (lean, full)]
    assert lean._detection is None and lean._sweep_index is not None
    assert csv[0] == csv[1]

    tdoa = Simulator(preset_config("uma", method="dl-tdoa", n_drops=1))
    assert tdoa._detection is not None
    tdoa.run_drop(0)
    assert tdoa._sweep_index is None


@pytest.mark.parametrize("method,bound_m", [
    ("dl-tdoa", 1.0), ("ul-tdoa", 1.0), ("multi-rtt", 1.0), ("ul-aoa", 1.0), ("dl-aod", 5.0),
])
def test_ideal_channel_accuracy(method, bound_m):
    """On an ideal channel (LOS, one tap, no shadowing, no receiver noise)
    every indoor drop converges, the time- and arrival-angle methods to
    well under a metre and the departure-angle method, which only sees
    beam powers on a coarse grid, to a few metres."""
    result = run_experiment(preset_config("ioo-fr1", method=method, ideal=True, n_prb=24,
                                          n_drops=10))
    assert result.summary.n_converged == 10
    assert result.summary.percentiles[50] < bound_m


def test_artifact_schema(tmp_path):
    """results.csv has the header the experiments module declares and one
    row per drop, cdf.csv is non-decreasing in both columns, and
    summary.json reads back to the run's summary, stage times included."""
    n = 6
    result = run_experiment(preset_config("ioo-fr1", n_prb=24, n_drops=n), out_dir=tmp_path)
    doc = experiments.__doc__
    declared = doc[doc.index("results.csv") + len("results.csv"):doc.index("cdf.csv")]
    rows = (tmp_path / "results.csv").read_text().splitlines()
    assert rows[0] == "".join(declared.split())
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(n))
    assert all(len(r.split(",")) == len(rows[0].split(",")) for r in rows[1:])

    cdf = np.array([[float(c) for c in line.split(",")]
                    for line in (tmp_path / "cdf.csv").read_text().splitlines()[1:]])
    assert len(cdf) == result.summary.n_converged > 1
    assert np.all(np.diff(cdf, axis=0) >= 0)

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert ResultSummary.from_dict(summary) == result.summary
    # a DL-TDOA run spends time in the stages it runs and none in the others
    ran = {"links", "dl", "detection", "solve", "gdop"}
    assert list(summary["stage_s"]) == list(simulate.STAGES)
    assert all((v > 0.0) == (stage in ran) for stage, v in summary["stage_s"].items())


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_summary_without_a_converged_drop_is_strict_json(tmp_path):
    """UMa DL-TDOA at a 90 dB downlink noise figure, master seed 1: neither
    of drops 0-1 converges, so the run has no error percentiles.
    summary.json wrote each as NaN, which JSON has no literal for and a
    strict parser rejects; each is null, and reads back as NaN."""
    result = run_experiment(preset_config("uma", method="dl-tdoa", n_drops=2,
                                          dl_noise_figure_db=90.0), out_dir=tmp_path)
    assert result.summary.n_converged == 0
    doc = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject_constant)
    assert doc["percentiles"] == {str(p): None for p in experiments.PERCENTILES}
    back = ResultSummary.from_dict(doc)
    assert list(back.percentiles) == list(experiments.PERCENTILES)
    assert all(math.isnan(v) for v in back.percentiles.values())


@pytest.mark.parametrize("method", ["dl-tdoa", "ul-tdoa", "multi-rtt", "ul-aoa", "dl-aod"])
def test_written_records_resolve_to_the_drop_fix(method, tmp_path):
    sim = Simulator(preset_config("ioo-fr1", method=method, n_prb=24, n_drops=4))
    outcome = next(o for o in map(sim.run_drop, range(4)) if o.converged)
    path = tmp_path / "records.jsonl"
    write_records(outcome.records, path)
    fix = solve_records(read_records(path), sim.anchors, method, sim.options, sim.beams)
    assert np.array_equal(fix.position, outcome.fix.position)
    assert fix.residual_rms == outcome.fix.residual_rms


@pytest.mark.parametrize("method", ["dl-tdoa", "ul-tdoa", "multi-rtt", "ul-aoa", "dl-aod"])
def test_fix_does_not_depend_on_record_order(method):
    """UMa drops 0-15 at master seed 1, each drop's records re-solved in
    three shuffled orders, as per-TRP gNBs might report them or a record
    file might list them. Every solve takes its rows in canonical order,
    by kind and then anchor row (`solvers._problem`), and DL-AoD takes each
    TRP's beams in beam order.
    While the solves built their rows in record order, re-solves moved for
    every method but multi-RTT, whose ranges were in trp_id order: over
    UMa drops 0-39, one DL-TDOA fix by 1.1e17 m, one DL-AoD fix by
    2.3e30 m and one UL-AoA fix by 8e18 m. DL-AoD's shuffles also reorder
    a TRP's beams, which moved a fix whose top beams tie in whole-dBm
    power. Every method solves more than 6 of the drops; UMa DL-TDOA
    solves 6 of drops 0-11 and 7 of drops 0-15, hence 16 drops."""
    n = 16
    sim = Simulator(preset_config("uma", method=method, n_drops=n))
    rng = np.random.default_rng(0)
    solved = 0
    for outcome in map(sim.run_drop, range(n)):
        if outcome.fix is None:
            continue
        solved += 1
        for _ in range(3):
            shuffled = [outcome.records[i] for i in rng.permutation(len(outcome.records))]
            fix = solve_records(shuffled, sim.anchors, method, sim.options, sim.beams)
            assert np.array_equal(fix.position, outcome.fix.position)
            assert fix.residual_rms == outcome.fix.residual_rms
    assert solved > 6


@pytest.mark.parametrize("method", ["dl-tdoa", "ul-tdoa"])
def test_tdoa_fix_does_not_read_power_reports(method):
    """UMa drops 0-15 at master seed 1: each solved drop's records,
    re-solved without their PRS-RSRP and SRS-RSRP reports, give the drop's
    fix bit for bit. A solve's start comes from its rows alone. While the
    TDOA solves started from the RSRP-weighted centroid of their anchors,
    the power reports moved the start and, with it, some fixes."""
    n = 16
    sim = Simulator(preset_config("uma", method=method, n_drops=n))
    solved = 0
    for outcome in map(sim.run_drop, range(n)):
        if outcome.fix is None:
            continue
        solved += 1
        timing = [r for r in outcome.records if r.kind not in ("PRS_RSRP", "SRS_RSRP")]
        assert len(timing) < len(outcome.records)
        fix = solve_records(timing, sim.anchors, method, sim.options)
        assert np.array_equal(fix.position, outcome.fix.position)
        assert fix.residual_rms == outcome.fix.residual_rms
    assert solved > 6


def test_aoa_angle_does_not_depend_on_the_other_trps():
    """UMa UL-AoA drops 0-3 at master seed 1: each TRP's arrival angle is
    the same whether `_aoa_stage` is asked for that TRP alone or with every
    TRP that has an uplink arrival. Each TRP draws its angle noise on its
    own substream; while the TRPs shared one stream in arrival order, a
    TRP's noise depended on the TRPs asked before it."""
    sim = Simulator(preset_config("uma", method="ul-aoa", n_prb=24, n_drops=4))
    for d in range(4):
        links = sim._links(d)
        _, toa = sim._receive(links, sim._ul, d, detect=range(len(sim.trps)))
        together = sim._aoa_stage(links, toa, d)
        assert len(together) > 1
        for t in toa:
            alone = sim._aoa_stage(links, {t: toa[t]}, d)
            assert alone == ({t: together[t]} if t in together else {})


def test_drop_gdop_is_the_geometry_of_its_fix_rows(tmp_path):
    """UMa DL-TDOA drops 0-7 at master seed 1. A drop's GDOP is that of the
    rows its fix was solved from, at the truth: one range-difference row
    per RSTD report, in anchor-row order, each against the RSTD reference
    TRP, which has no row of its own. A drop without a fix has no GDOP,
    and its results.csv cell is empty, as in_hull's is."""
    config = preset_config("uma", method="dl-tdoa", n_drops=8)
    sim = Simulator(config)
    result = run_experiment(config, out_dir=tmp_path)
    cells = [line.split(",")[-1]
             for line in (tmp_path / "results.csv").read_text().splitlines()[1:]]
    assert {o.fix is None for o in result.outcomes} == {True, False}
    for outcome, cell in zip(result.outcomes, cells):
        if outcome.fix is None:
            assert outcome.gdop is None and cell == ""
            continue
        rstd = [r for r in outcome.records if r.kind == "RSTD"]
        assert [(r.kind, r.anchor, r.ref) for r in outcome.fix.rows] == sorted(
            (RANGE_DIFFERENCE, r.trp_id, r.payload["ref_trp_id"]) for r in rstd)
        assert outcome.gdop == gdop(outcome.fix.rows, sim.anchor_xyz, outcome.truth,
                                    sim.options.fix_height)
        assert cell == repr(outcome.gdop)


def test_dl_aod_reports_name_a_beam_and_carry_its_power_alone():
    """A DL-AoD report is a PRS-RSRP whose resource is a beam of its TRP;
    the beam's direction is in the simulator's beam table, not the
    report."""
    sim = Simulator(preset_config("ioo-fr1", method="dl-aod", n_prb=24, n_drops=4))
    records = [r for d in range(4) for r in sim.run_drop(d).records]
    assert records and {r.kind for r in records} == {"PRS_RSRP"}
    for r in records:
        assert set(r.payload) == {"value_dbm"}
        assert r.resource_id in range(sim.config.n_beams)
        assert len(sim.beams[r.trp_id]) == sim.config.n_beams


@pytest.mark.parametrize("method", METHODS)
def test_quantized_power_reports_are_ints(method):
    """Every quantized PRS-RSRP and SRS-RSRP report holds an int, the type
    `reported_power_dbm` returns, so record files and traces write -80 for
    every method. DL-AoD's beam sweep wrote -80.0."""
    sim = Simulator(preset_config("ioo-fr1", method=method, n_prb=24, n_drops=2))
    power = [r.payload["value_dbm"] for d in range(2) for r in sim.run_drop(d).records
             if r.kind in ("PRS_RSRP", "SRS_RSRP")]
    assert all(type(v) is int for v in power)
    assert bool(power) == (method in ("dl-tdoa", "ul-tdoa", "dl-aod"))


def test_cdf_cells_are_plain_numbers(tmp_path):
    result = run_experiment(preset_config("ioo-fr1", n_prb=24, n_drops=4), out_dir=tmp_path)
    lines = (tmp_path / "cdf.csv").read_text().splitlines()
    assert lines[0] == "horizontal_error_m,probability"
    assert len(lines) == 1 + result.summary.n_converged > 1
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)
