"""The receive path's RE-set kernels, `set_signals`, `set_factors`,
`draw_statistics` and `complete_set`, against their plain bodies in
`receive_oracle`, bit for bit, on the inputs real drops give them: on the
downlink and the uplink of IOO FR1 multi-RTT, where every set holds one
group (q = 1), and on the UMa downlink without interference, where the
two TRPs of a shared comb offset make sets of q = 2. Each kernel that
draws must leave its stream where the oracle leaves it. A completion's
REs share no memory with its inputs or with any other completion's."""

import copy

import numpy as np
import pytest

import receive_oracle
from nrpos import simulate
from nrpos.config import preset_config
from nrpos.simulate import Simulator


def bits(values) -> list[bytes]:
    return [np.asarray(v).tobytes() for v in values]


def pin_kernels(monkeypatch, calls: dict) -> None:
    """Replace the four kernels in `simulate` with spies that run the
    package's kernel and the oracle on the same inputs, a drawing kernel's
    oracle on a copy of the stream, and assert that both give the same
    bits and leave the same stream; calls[name] collects a record of each
    call."""
    real = {name: getattr(simulate, name)
            for name in ("set_signals", "set_factors", "draw_statistics", "complete_set")}

    def set_signals(groups, amps, lines, refs):
        got = real["set_signals"](groups, amps, lines, refs)
        assert got.tobytes() == receive_oracle.set_signals(groups, amps, lines, refs).tobytes()
        calls["set_signals"].append(len(groups))
        return got

    def set_factors(signals):
        got = real["set_factors"](signals)
        assert bits(got) == bits(receive_oracle.set_factors(signals))
        calls["set_factors"].append([len(r) for r in got])
        return got

    def draw_statistics(rng, factors, std, n_re):
        twin = copy.deepcopy(rng)
        got = real["draw_statistics"](rng, factors, std, n_re)
        want = receive_oracle.draw_statistics(twin, factors, std, n_re)
        for part, (g, w) in zip(("z", "rest", "power"), zip(got, want)):
            assert bits(g) == bits(w), part
        assert rng.bit_generator.state == twin.bit_generator.state
        calls["draw_statistics"].append([len(r) for r in factors])
        return got

    def complete_set(c, r, z, rest, rng):
        twin = copy.deepcopy(rng)
        got = real["complete_set"](c, r, z, rest, rng)
        assert got.tobytes() == receive_oracle.complete_set(c, r, z, rest, twin).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        calls["complete_set"].append(len(r))
        return got

    for name, spy in (("set_signals", set_signals), ("set_factors", set_factors),
                      ("draw_statistics", draw_statistics), ("complete_set", complete_set)):
        monkeypatch.setattr(simulate, name, spy)


@pytest.mark.parametrize("preset,overrides,stages,ranks", [
    ("ioo-fr1", dict(method="multi-rtt"), ("dl", "ul"), {1}),
    ("uma", dict(method="dl-tdoa", interference=False), ("dl",), {1, 2}),
])
def test_kernels_match_their_plain_bodies(preset, overrides, stages, ranks, monkeypatch):
    """Drops 0-2 at master seed 1, with their selection and detection: every
    call of every kernel matches the oracle, and the completions cover the
    set ranks that the case names."""
    sim = Simulator(preset_config(preset, n_drops=3, **overrides))
    calls = {name: [] for name in ("set_signals", "set_factors", "draw_statistics",
                                   "complete_set")}
    pin_kernels(monkeypatch, calls)
    for d in range(3):
        sim.run_drop(d)
    assert all(sim.stage_s[stage] > 0.0 for stage in stages)
    assert len(calls["set_signals"]) >= len(calls["set_factors"]) == 3 * len(stages)
    assert len(calls["draw_statistics"]) >= 3 * len(stages)
    assert set(calls["complete_set"]) == ranks


def test_completions_share_no_memory(monkeypatch):
    """IOO FR1 multi-RTT drops 0 and 1, with the uplink comb 2 over 12
    symbols, so an uplink set has 19,584 REs against the downlink's 3,264,
    and both sizes are completed. No completion's REs share memory with
    its set's signals or with another completion's."""
    sim = Simulator(preset_config("ioo-fr1", method="multi-rtt", n_drops=2, ul_comb_size=2,
                                  ul_n_symbols=12))
    assert (sim._dl.refs[0].size, sim._ul.refs[0].size) == (3264, 19584)
    real = simulate.complete_set
    completed = []

    def spy(c, r, z, rest, rng):
        rx = real(c, r, z, rest, rng)
        completed.append((rx, c))
        return rx

    monkeypatch.setattr(simulate, "complete_set", spy)
    sim.run_drop(0)
    sim.run_drop(1)
    assert sorted({c[0].size for _, c in completed}) == [3264, 19584]
    for k, (rx, c) in enumerate(completed):
        assert not np.shares_memory(rx, c)
        assert not any(np.shares_memory(rx, other) for other, _ in completed[:k])
