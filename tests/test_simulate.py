"""Top-level simulation path: pinned results, the received-RE kernel
against the grid path, and the experiment artifacts."""

import hashlib

import numpy as np
import pytest

from nrpos.channel import link_amplitude, received_grid
from nrpos.config import preset_config
from nrpos.experiments import run_experiment
from nrpos.measurements import despread, read_records, rsrp, write_records
from nrpos.numerology import ResourceGrid
from nrpos.prs import dl_prs_reference, map_dl_prs
from nrpos.simulate import Simulator, despread_groups, solve_records

N_DROPS = 8

# sha256 of results.csv for N_DROPS drops at the default master seed.
# Any change to the signal path that is meant to be a pure refactor keeps
# these; a change that alters results must say why and update them.
PINNED = [
    ("ioo-fr1", dict(method="multi-rtt"),
     "465ddc8d8a444a6d253cc141c993f6561de52bf8713e161afab7b0105d785534"),
    ("uma", dict(method="dl-aod"),
     "b4b8a461f518078b79966913c99cb0f19fce000e779ecdfdeb6e1c868c37867e"),
    ("uma", dict(method="dl-tdoa"),
     "12ba4e9ecfd664a50a33496ac76e8cac4d5e257b4ad9f55b6835ec3ffa9d3192"),
    ("ioo-fr1", dict(method="ul-tdoa"),
     "c9c7f42135f6d9fa15d0d2a0c8c8a3aba980c67ae97419deda6a24df1972c9aa"),
    ("ioo-fr1", dict(method="ul-aoa"),
     "b65d6cfe4fa27728864aeea8fa35db0c16b59e87706b39440f629b8a2a9a6965"),
    ("uma", dict(method="dl-tdoa", interference=False),
     "440265e7629bdb399efd97ea36188a84c11b2f7f81fb2fe0cdf24715d4542e33"),
    ("ioo-fr1", dict(method="dl-tdoa", n_samples=3, sync_sigma_ns=5.0),
     "2f6da768caefbec01d0fd94f84c019b017d143fd67e32746e8399f5ccfe22b4c"),
    ("ioo-fr1", dict(method="dl-tdoa", ideal=True),
     "7befd00f88cbb749e06952d35cb26851f5b80d587be4636e14c4ccebb6ca5449"),
]


@pytest.mark.parametrize(
    "preset,overrides,digest", PINNED,
    ids=[f"{p}-{'-'.join(f'{k}={v}' for k, v in o.items())}" for p, o, _ in PINNED],
)
def test_results_pinned(preset, overrides, digest):
    result = run_experiment(preset_config(preset, n_drops=N_DROPS, **overrides))
    assert hashlib.sha256(result.results_csv.encode()).hexdigest() == digest


@pytest.mark.parametrize("interference", [True, False])
def test_kernel_matches_grid_path(interference):
    """The received-RE kernel against the grid path on the same link draws
    and noise grid. With interference every TRP transmits onto one shared
    grid, so the kernel's comb-offset groups must reproduce exactly what
    lands on each TRP's REs; without it each TRP transmits alone."""
    sim = Simulator(preset_config("uma", n_prb=24, n_drops=1, interference=interference))
    cfg, num = sim.config, sim.numerology
    links = sim._links(0, sim.ues[0])
    amps = [link_amplitude(l, t.tx_power_dbm, sim.dl_occupied_per_symbol)
            for l, t in zip(links, sim.trps)]
    h = sim._channel_matrix(links)
    assert any(len(g.members) > 1 for g in sim._dl_groups) == interference

    rx, kernel_rsrp = sim._dl_receive(np.random.default_rng(7), amps, h)
    vecs = despread_groups(sim._dl_groups, rx, sim._dl_vals, num.n_subcarriers)
    noise_grid = sim._noise(np.random.default_rng(7), (num.n_subcarriers, cfg.dl_n_symbols),
                            sim.dl_noise)

    def tx_grid(t, link):
        grid = ResourceGrid.for_numerology(num, symbols=cfg.dl_n_symbols)
        return map_dl_prs(grid, sim.dl_resources[t.trp_id]), link, t.tx_power_dbm

    everyone = [tx_grid(t, l) for t, l in zip(sim.trps, links)]
    shared = received_grid(everyone, None, num, noise_grid=noise_grid)
    for i, t in enumerate(sim.trps):
        grid = shared if interference else \
            received_grid([everyone[i]], None, num, noise_grid=noise_grid)
        ref = dl_prs_reference(sim.dl_resources[t.trp_id])
        expected = despread(grid, ref)
        assert np.allclose(vecs[i], expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())
        assert kernel_rsrp[i] == pytest.approx(rsrp(grid, ref), abs=1e-9)


@pytest.mark.parametrize("method", ["dl-tdoa", "ul-tdoa", "multi-rtt", "ul-aoa", "dl-aod"])
def test_written_records_resolve_to_the_drop_fix(method, tmp_path):
    sim = Simulator(preset_config("ioo-fr1", method=method, n_prb=24, n_drops=4))
    outcome = next(o for o in map(sim.run_drop, range(4)) if o.converged)
    path = tmp_path / "records.jsonl"
    write_records(outcome.records, path)
    fix = solve_records(read_records(path), sim.anchors, method, sim.options)
    assert np.array_equal(fix.position, outcome.fix.position)
    assert fix.residual_rms == outcome.fix.residual_rms


def test_cdf_cells_are_plain_numbers(tmp_path):
    result = run_experiment(preset_config("ioo-fr1", n_prb=24, n_drops=4), out_dir=tmp_path)
    lines = (tmp_path / "cdf.csv").read_text().splitlines()
    assert lines[0] == "horizontal_error_m,probability"
    assert len(lines) == 1 + result.summary.n_converged > 1
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)
