"""Location sessions against record-driven radio nodes: routing rules,
message flows, aborts, trace replay, and session fixes against the batch
fixes of the same simulated drops."""

import json
from collections import Counter
from dataclasses import asdict, replace
from functools import lru_cache

import numpy as np
import pytest

from nrpos import simulate
from nrpos.config import preset_config
from nrpos.session import (
    ABORT_KIND,
    Gnb,
    Lmf,
    ProtocolError,
    Transport,
    Ue,
    check_routing,
    load_trace,
    replay_solve,
    request_assistance_on_demand,
    run_sessions,
)
from nrpos.measurements import MeasurementRecord
from nrpos.simulate import Simulator, solve_records
from nrpos.solvers import SolverError, SolverOptions


@lru_cache(maxsize=None)
def ideal_drops(method: str, n_drops: int):
    """An ideal-channel IOO FR1 simulator and its first n_drops outcomes."""
    sim = Simulator(preset_config("ioo-fr1", method=method, ideal=True, n_drops=n_drops))
    return sim, tuple(sim.run_drop(i) for i in range(n_drops))


def strongest_trps(records) -> list[int]:
    """TRPs in record order, which is the drop's selection order: strongest
    received power first."""
    return list(dict.fromkeys(r.trp_id for r in records))


def make_world(method="multi-rtt", n_gnbs=3, n_ues=1, responsive=None, keep=None):
    """Nodes for the first n_ues drops of an ideal run: UE i holds drop i's
    records, and n_gnbs gNBs share the TRPs. With keep, each UE's records
    are filtered to that drop's keep strongest TRPs. Returns (transport,
    lmf, gnbs, ues, {ue_id: drop outcome})."""
    sim, drops = ideal_drops(method, n_ues)
    outcomes = {f"ue:{o.drop_idx}": o for o in drops}
    records = {}
    for uid, o in outcomes.items():
        picked = strongest_trps(o.records)[:keep]
        records[uid] = [r for r in o.records if r.trp_id in picked]
    trp_ids = list(sim.anchors)
    transport = Transport()
    lmf = Lmf("lmf:0", sim.anchors, solver_options=sim.options)
    gnbs = [Gnb(f"gnb:{g}", trp_ids=trp_ids[g::n_gnbs], srs=sim.srs, records=records)
            for g in range(n_gnbs)]
    ues = [
        Ue(uid, records=recs,
           responsive=(responsive.get(uid, True) if responsive else True))
        for uid, recs in records.items()
    ]
    return transport, lmf, gnbs, ues, outcomes


class TestRouting:
    def test_lpp_only_ue_lmf(self):
        check_routing("LppRequestAssistanceData", "ue:0", "lmf:0")
        check_routing("LppProvideAssistanceData", "lmf:0", "ue:0")
        with pytest.raises(ProtocolError):
            check_routing("LppProvideAssistanceData", "gnb:0", "ue:0")

    def test_nrppa_only_gnb_lmf(self):
        check_routing("NrppaMeasurementRequest", "lmf:0", "gnb:0")
        with pytest.raises(ProtocolError):
            check_routing("NrppaMeasurementRequest", "lmf:0", "ue:0")

    def test_rrc_only_gnb_to_ue(self):
        check_routing("RrcSrsConfig", "gnb:0", "ue:0")
        with pytest.raises(ProtocolError):
            check_routing("RrcSrsConfig", "ue:0", "gnb:0")

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError):
            check_routing("FooBar", "ue:0", "lmf:0")


def assert_routing_invariant(trace):
    for entry in trace:
        if entry["kind"] == ABORT_KIND:
            continue
        check_routing(entry["kind"], entry["from"], entry["to"])


class TestMultiRtt:
    def test_expected_message_multiset(self):
        transport, lmf, gnbs, ues, _ = make_world(n_gnbs=3, n_ues=1)
        results, trace = run_sessions(lmf, "multi-rtt", ues, transport, gnbs)
        counts = Counter(entry["kind"] for entry in trace)
        assert counts["NrppaPositioningInformationRequest"] == 3
        assert counts["NrppaPositioningInformationResponse"] == 3
        assert counts["RrcSrsConfig"] == 3
        assert counts["LppProvideAssistanceData"] == 1
        assert counts["LppRequestLocationInformation"] == 1
        assert counts["LppProvideLocationInformation"] == 1
        assert counts["NrppaMeasurementRequest"] == 3
        assert counts["NrppaMeasurementResponse"] == 3
        assert_routing_invariant(trace)

    def test_fix_accuracy(self):
        transport, lmf, gnbs, ues, outcomes = make_world(n_gnbs=4, n_ues=2)
        results, _ = run_sessions(lmf, "multi-rtt", ues, transport, gnbs)
        for uid, drop in outcomes.items():
            fix = results[uid].fix
            assert results[uid].status == "fixed"
            # quantization-limited accuracy
            assert np.linalg.norm(fix.position[:2] - drop.truth[:2]) < 2.0

    def test_ue_report_precedes_gnb_report(self):
        transport, lmf, gnbs, ues, _ = make_world()
        _, trace = run_sessions(lmf, "multi-rtt", ues, transport, gnbs)
        order = [e["kind"] for e in trace]
        assert order.index("LppProvideLocationInformation") < order.index(
            "NrppaMeasurementRequest"
        )

    def test_unresponsive_ue_aborts_without_affecting_others(self):
        transport, lmf, gnbs, ues, _ = make_world(
            n_ues=2, responsive={"ue:0": False}
        )
        results, trace = run_sessions(lmf, "multi-rtt", ues, transport, gnbs)
        assert results["ue:0"].status == "aborted"
        assert results["ue:1"].status == "fixed"
        aborts = [e for e in trace if e["kind"] == ABORT_KIND]
        assert len(aborts) == 1 and aborts[0]["payload"]["ue_id"] == "ue:0"

    def test_trace_replay_matches_live(self, tmp_path):
        transport, lmf, gnbs, ues, _ = make_world(n_gnbs=4, n_ues=2)
        results, trace = run_sessions(lmf, "multi-rtt", ues, transport, gnbs)
        path = tmp_path / "trace.jsonl"
        transport.dump_trace(path)
        fixes = replay_solve(load_trace(path), lmf.anchors, lmf.options)
        for uid, live in results.items():
            assert np.array_equal(fixes[uid].position, live.fix.position)
            assert fixes[uid].residual_rms == live.fix.residual_rms

    def test_gnb_sends_the_sounding_resource_of_its_records(self):
        """The SRS configuration a gNB gives the UE and the server is the
        resource the drop's uplink was measured on."""
        sim = Simulator(preset_config("ioo-fr1", method="multi-rtt", ideal=True, n_drops=1,
                                      ul_comb_size=4, ul_n_symbols=4))
        drop = sim.run_drop(0)
        transport = Transport()
        lmf = Lmf("lmf:0", sim.anchors, solver_options=sim.options)
        gnbs = [Gnb("gnb:0", trp_ids=list(sim.anchors), srs=sim.srs,
                    records={"ue:0": drop.records})]
        results, trace = run_sessions(lmf, "multi-rtt", [Ue("ue:0", records=drop.records)],
                                      transport, gnbs)
        sent = [e["payload"]["srs"] for e in trace
                if e["kind"] in ("RrcSrsConfig", "NrppaPositioningInformationResponse")]
        assert len(sent) == 2
        for srs in sent:
            assert srs == asdict(sim.srs)
            assert (srs["comb_size"], srs["n_symbols"], srs["comb_offset"]) == (4, 4, 0)
        assert np.array_equal(results["ue:0"].fix.position, drop.fix.position)

    def test_deterministic_trace_bytes(self, tmp_path):
        blobs = []
        for _ in range(2):
            transport, lmf, gnbs, ues, _ = make_world(n_gnbs=3, n_ues=2)
            run_sessions(lmf, "multi-rtt", ues, transport, gnbs)
            path = tmp_path / "t.jsonl"
            transport.dump_trace(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestDlTdoa:
    def test_flow_and_fix(self):
        transport, lmf, gnbs, ues, outcomes = make_world("dl-tdoa")
        results, trace = run_sessions(lmf, "dl-tdoa", ues, transport, trp_ids=list(lmf.anchors))
        counts = Counter(e["kind"] for e in trace)
        assert counts["LppProvideAssistanceData"] == 1
        assert counts["LppRequestLocationInformation"] == 1
        assert counts["LppProvideLocationInformation"] == 1
        assert_routing_invariant(trace)
        uid, drop = next(iter(outcomes.items()))
        assert np.linalg.norm(results[uid].fix.position[:2] - drop.truth[:2]) < 3.0

    def test_rstd_reports_carry_resource_reference(self):
        # the reference is the one the UE's records name: its strongest TRP.
        # The report is the record kinds' entries alone.
        transport, lmf, gnbs, ues, outcomes = make_world("dl-tdoa")
        _, trace = run_sessions(lmf, "dl-tdoa", ues, transport, trp_ids=list(lmf.anchors))
        report = next(e for e in trace if e["kind"] == "LppProvideLocationInformation")
        payload = report["payload"]
        records = outcomes["ue:0"].records
        ref = strongest_trps(records)[0]
        assert set(payload) == {"method", "records"}
        assert payload["records"] == [r.to_dict() for r in records]
        rstd = [e for e in payload["records"] if e["kind"] == "RSTD"]
        assert rstd
        for entry in rstd:
            assert entry["payload"]["ref_trp_id"] == ref
            assert entry["trp_id"] != ref
        assert [e["trp_id"] for e in payload["records"] if e["kind"] == "PRS_RSRP"] == \
            strongest_trps(records)

    def test_replay(self, tmp_path):
        transport, lmf, gnbs, ues, _ = make_world("dl-tdoa", n_ues=2)
        results, _ = run_sessions(lmf, "dl-tdoa", ues, transport, trp_ids=list(lmf.anchors))
        path = tmp_path / "trace.jsonl"
        transport.dump_trace(path)
        fixes = replay_solve(load_trace(path), lmf.anchors, lmf.options)
        for uid, live in results.items():
            assert np.array_equal(fixes[uid].position, live.fix.position)

    def test_anchor_subset_solves_like_batch_records(self):
        # each UE holds the records of its 5 strongest TRPs and is asked for
        # the 4 strongest: the solve over those 4 of the 12 anchors is the
        # same in the live session, in replay and from the drop's own
        # records of those TRPs
        transport, lmf, gnbs, ues, _ = make_world("dl-tdoa", n_ues=2, keep=5)
        for node in [lmf, *ues]:
            transport.register(node)
        asked = {ue.node_id: strongest_trps(ue.records)[:4] for ue in ues}
        for uid, trp_ids in asked.items():
            lmf.start(uid, "dl-tdoa", trp_ids=trp_ids)
        transport.run()
        fixes = replay_solve(transport.trace, lmf.anchors, lmf.options)
        for ue in ues:
            records = [r for r in ue.records if r.trp_id in asked[ue.node_id]]
            assert {r.kind for r in records} == {"PRS_RSRP", "RSTD"}
            batch = solve_records(records, lmf.anchors, "dl-tdoa", lmf.options)
            live = lmf.results[ue.node_id].fix
            assert np.array_equal(fixes[ue.node_id].position, live.position)
            assert np.array_equal(batch.position, live.position)

    def test_unsolvable_report_aborts_the_session_only(self):
        # three TRPs give two time differences, too few to solve: each
        # UE's session aborts with the solver's reason and the run completes
        transport, lmf, gnbs, ues, _ = make_world("dl-tdoa", n_ues=2, keep=3)
        results, trace = run_sessions(lmf, "dl-tdoa", ues, transport, trp_ids=list(lmf.anchors))
        assert {uid: r.status for uid, r in results.items()} == {
            "ue:0": "aborted", "ue:1": "aborted"}
        aborts = [e["payload"] for e in trace if e["kind"] == ABORT_KIND]
        assert [a["ue_id"] for a in aborts] == ["ue:0", "ue:1"]
        assert all("got 2" in a["reason"] for a in aborts)
        assert replay_solve(trace, lmf.anchors, lmf.options) == {}

    def test_failed_drop_keeps_its_records(self):
        """UMa DL-TDOA drop 18 at master seed 1 forms its records and then
        fails to solve (collinear anchors). The outcome keeps the records,
        so a session over them aborts with the solver's own reason rather
        than for want of measurements."""
        sim = Simulator(preset_config("uma", method="dl-tdoa", n_drops=19))
        drop = sim.run_drop(18)
        assert "collinear" in drop.failure
        assert {r.kind for r in drop.records} == {"PRS_RSRP", "RSTD"}
        transport = Transport()
        lmf = Lmf("lmf:0", sim.anchors, solver_options=sim.options)
        results, trace = run_sessions(lmf, "dl-tdoa", [Ue("ue:18", records=drop.records)],
                                      transport, trp_ids=list(sim.anchors))
        assert results["ue:18"].status == "aborted"
        aborts = [e["payload"]["reason"] for e in trace if e["kind"] == ABORT_KIND]
        assert aborts == [drop.failure]

    def test_lmf_takes_the_runs_solver_options(self):
        """A session fix is the drop's fix only under the run's solver
        options: scanning the square of +-1000 m in place of the run's
        +-800 m, UMa DL-TDOA drop 11 at master seed 1 converges 232 m from
        its batch fix. So neither the server nor the options have defaults
        for the run's geometry, and with the run's options the server fixes
        the drop where the batch run did."""
        sim = Simulator(preset_config("uma", method="dl-tdoa", n_drops=12))
        with pytest.raises(TypeError):
            Lmf("lmf:0", sim.anchors)
        with pytest.raises(TypeError):
            SolverOptions()
        drop = sim.run_drop(11)
        other = SolverOptions(fix_height=sim.options.fix_height,
                              area=(-1000.0, -1000.0, 1000.0, 1000.0))
        elsewhere = solve_records(drop.records, sim.anchors, "dl-tdoa", other)
        assert np.linalg.norm(elsewhere.position[:2] - drop.fix.position[:2]) > 200.0
        lmf = Lmf("lmf:0", sim.anchors, solver_options=sim.options)
        results, _ = run_sessions(lmf, "dl-tdoa", [Ue("ue:11", records=drop.records)],
                                  Transport(), trp_ids=list(sim.anchors))
        assert np.array_equal(results["ue:11"].fix.position, drop.fix.position)

    def test_trp_without_anchor_aborts_the_session_only(self):
        """A server whose anchors lack drop 0's strongest TRP (7), the
        reference of its time differences: that session aborts with the
        solver's reason, and drop 2's, which never heard TRP 7, fixes."""
        transport, lmf, gnbs, ues, outcomes = make_world("dl-tdoa", n_ues=3)
        missing = strongest_trps(outcomes["ue:0"].records)[0]
        assert missing not in strongest_trps(outcomes["ue:2"].records)
        anchors = {t: p for t, p in lmf.anchors.items() if t != missing}
        lmf = Lmf("lmf:0", anchors, solver_options=lmf.options)
        results, trace = run_sessions(lmf, "dl-tdoa", [ues[0], ues[2]], transport)
        assert {uid: r.status for uid, r in results.items()} == {
            "ue:0": "aborted", "ue:2": "fixed"}
        aborts = [e["payload"] for e in trace if e["kind"] == ABORT_KIND]
        assert aborts == [{"ue_id": "ue:0", "reason": f"no anchor for TRP {missing}"}]
        assert list(replay_solve(trace, anchors, lmf.options)) == ["ue:2"]

    def test_unsolvable_report_leaves_other_sessions_fixed(self):
        transport, lmf, gnbs, ues, _ = make_world(n_gnbs=3, n_ues=1)
        *_, tdoa_ues, _ = make_world("dl-tdoa", n_ues=2, keep=3)
        for node in [lmf, *gnbs, ues[0], tdoa_ues[1]]:
            transport.register(node)
        lmf.start("ue:0", "multi-rtt", gnb_ids=[g.node_id for g in gnbs])
        lmf.start("ue:1", "dl-tdoa", trp_ids=list(lmf.anchors))
        transport.run()
        assert lmf.results["ue:0"].status == "fixed"
        assert lmf.results["ue:1"].status == "aborted"
        fixes = replay_solve(transport.trace, lmf.anchors, lmf.options)
        assert list(fixes) == ["ue:0"]
        assert np.array_equal(fixes["ue:0"].position, lmf.results["ue:0"].fix.position)


def test_timed_out_session_sends_nothing_more():
    """With 0.6 s per hop and a 1.0 s timeout, a multi-RTT session aborts
    at 1.0 s, before its radio nodes' TRPs reach the server at 1.2 s. The
    server then asks the UE for nothing, so the abort is the trace's last
    entry and no location message is sent."""
    _, lmf, gnbs, ues, _ = make_world(n_gnbs=3, n_ues=1)
    lmf = Lmf("lmf:0", lmf.anchors, solver_options=lmf.options, timeout_s=1.0)
    results, trace = run_sessions(lmf, "multi-rtt", ues, Transport(latency_s=0.6), gnbs)
    assert results["ue:0"].status == "aborted"
    assert trace[-1]["kind"] == ABORT_KIND and trace[-1]["timestamp"] == 1.0
    assert [e for e in trace if e["timestamp"] > 1.0] == []
    assert not any(e["kind"].startswith("Lpp") for e in trace)


def test_reply_for_a_ue_without_session_is_ignored():
    """A three-gNB multi-RTT run in which the server also gets a gNB's
    measurement response for ue:9, which has no session. The reply is
    dropped and ue:0 gets its batch fix; before, looking ue:9's session
    up raised `KeyError` out of `Transport.run` and no session got a
    result."""
    transport, lmf, gnbs, ues, outcomes = make_world(n_gnbs=3)
    for node in [lmf, *gnbs, *ues]:
        transport.register(node)
    lmf.start("ue:0", "multi-rtt", [g.node_id for g in gnbs])
    transport.send("NrppaMeasurementResponse", "gnb:0", "lmf:0", {"ue_id": "ue:9", "records": []})
    transport.run()
    assert list(lmf.results) == ["ue:0"] and lmf.results["ue:0"].status == "fixed"
    assert np.array_equal(lmf.results["ue:0"].fix.position, outcomes["ue:0"].fix.position)


def test_restarted_session_outlives_the_first_sessions_timer():
    """With 0.3 s per hop and a 1.0 s timeout, a DL-TDOA session fixes at
    0.6 s and the UE's session is started again at 0.7 s. The first
    session's timer fires at 1.0 s on a session that has ended and aborts
    nothing; the UE reports again at 1.0 s, and at 1.3 s the second
    session gets the same fix. Before, that timer aborted the second
    session for "timeout". A restart at 0.5 s, while the first session is open, is
    refused (`test_second_start_on_an_open_session_is_refused`)."""
    _, lmf, _, ues, _ = make_world("dl-tdoa")
    lmf = Lmf("lmf:0", lmf.anchors, solver_options=lmf.options, timeout_s=1.0)
    transport = Transport(latency_s=0.3)
    for node in [lmf, *ues]:
        transport.register(node)
    lmf.start("ue:0", "dl-tdoa")
    fixes = []
    transport.schedule(0.7, lambda: fixes.append(lmf.results["ue:0"].fix)
                       or lmf.start("ue:0", "dl-tdoa"))
    transport.run()
    assert lmf.results["ue:0"].status == "fixed"
    assert np.array_equal(lmf.results["ue:0"].fix.position, fixes[0].position)
    reports = [e["timestamp"] for e in transport.trace
               if e["kind"] == "LppProvideLocationInformation"]
    assert reports == pytest.approx([0.3, 1.0])
    assert not any(e["kind"] == ABORT_KIND for e in transport.trace)


def test_second_start_on_an_open_session_is_refused():
    """Starting a session for a UE whose session is still open, at 0.5 s
    of a multi-RTT session with 0.3 s per hop and a 2.0 s timeout, raises
    and sends nothing; the open session goes on to its fix at 1.8 s."""
    transport, lmf, gnbs, ues, outcomes = make_world(n_gnbs=3)
    lmf = Lmf("lmf:0", lmf.anchors, solver_options=lmf.options, timeout_s=2.0)
    transport.latency_s = 0.3
    for node in [lmf, *gnbs, *ues]:
        transport.register(node)
    gnb_ids = [g.node_id for g in gnbs]
    lmf.start("ue:0", "multi-rtt", gnb_ids)
    refused = []

    def restart():
        sent = len(transport.trace)
        with pytest.raises(ProtocolError, match="ue:0 already has an open session"):
            lmf.start("ue:0", "multi-rtt", gnb_ids)
        refused.append(len(transport.trace) == sent)

    transport.schedule(0.5, restart)
    transport.run()
    assert refused == [True] and transport.now == pytest.approx(2.0)
    assert lmf.results["ue:0"].status == "fixed"
    assert np.array_equal(lmf.results["ue:0"].fix.position, outcomes["ue:0"].fix.position)


@pytest.mark.parametrize("method,kind,key", [
    ("dl-tdoa", "RSTD", "ref_trp_id"),
    ("dl-tdoa", "RSTD", "value_tc"),
    ("multi-rtt", "UE_RXTX", "value_tc"),
])
def test_malformed_report_aborts_its_own_session_only(method, kind, key):
    """A UE whose reports lack a payload key the solve needs aborts with
    that reason; the other UE's session still fixes."""
    transport, lmf, gnbs, ues, _ = make_world(method, n_gnbs=3, n_ues=2)
    ues[0].records = [
        MeasurementRecord(r.kind, r.trp_id, {k: v for k, v in r.payload.items() if k != key},
                          r.resource_id) if r.kind == kind else r
        for r in ues[0].records]
    results, trace = run_sessions(lmf, method, ues, transport, gnbs)
    assert {uid: r.status for uid, r in results.items()} == {"ue:0": "aborted", "ue:1": "fixed"}
    aborts = [e["payload"] for e in trace if e["kind"] == ABORT_KIND]
    assert aborts == [{"ue_id": "ue:0", "reason": f"a record's payload lacks {key!r}"}]


class RawEntry:
    """A UE's record that reports as the given entry, malformed or not."""

    kind, trp_id = "RSTD", 1

    def __init__(self, doc):
        self.doc = doc

    def to_dict(self):
        return self.doc


@pytest.mark.parametrize("entry,reason", [
    ({"kind": "BOGUS", "trp_id": 1, "payload": {}},
     "malformed report entry: ValueError(\"unknown measurement kind 'BOGUS'\")"),
    ({"trp_id": 1, "payload": {}}, "malformed report entry: KeyError('kind')"),
    ({"kind": "RSTD", "trp_id": 1, "resource_id": 1,
      "payload": {"value_tc": "12", "k": 0, "fr": "FR1", "ref_trp_id": 0}},
     "a record's payload is malformed: can't multiply sequence by non-int of type 'float'"),
], ids=["unknown-kind", "no-kind", "string-value"])
def test_malformed_report_entry_aborts_its_own_session_only(entry, reason):
    """One UE's report entry of an unknown kind, without a kind, or with a
    string timing value aborts that UE's session with the reason; before,
    it raised out of `Transport.run` and no session got a result. A record
    the entry makes fails `solve_records` with `SolverError`."""
    transport, lmf, gnbs, ues, _ = make_world("dl-tdoa", n_ues=2)
    ues[0].records.append(RawEntry(entry))
    results, trace = run_sessions(lmf, "dl-tdoa", ues, transport)
    assert {uid: r.status for uid, r in results.items()} == {"ue:0": "aborted", "ue:1": "fixed"}
    aborts = [e["payload"] for e in trace if e["kind"] == ABORT_KIND]
    assert aborts == [{"ue_id": "ue:0", "reason": reason}]
    assert list(replay_solve(trace, lmf.anchors, lmf.options)) == ["ue:1"]
    if entry.get("kind") == "RSTD":
        with pytest.raises(SolverError, match="malformed"):
            solve_records([MeasurementRecord.from_dict(entry)], lmf.anchors, "dl-tdoa",
                          lmf.options)


@pytest.mark.parametrize("beam", [2.0, True])
def test_dl_aod_beam_that_is_not_an_int_aborts_its_own_session_only(beam):
    """A DL-AoD report whose beam is a float (JSON 2.0) or a bool aborts
    that UE's session; before, it raised IndexError or ValueError out of
    `Transport.run` and no session got a result."""
    sim, drops = ideal_drops("dl-aod", 2)
    records = {f"ue:{o.drop_idx}": list(o.records) for o in drops}
    stray = records["ue:0"][0] = replace(records["ue:0"][0], resource_id=beam)
    transport = Transport()
    lmf = Lmf("lmf:0", sim.anchors, solver_options=sim.options, beams=sim.beams)
    ues = [Ue(uid, records=recs) for uid, recs in records.items()]
    results, trace = run_sessions(lmf, "dl-aod", ues, transport)
    assert {uid: r.status for uid, r in results.items()} == {"ue:0": "aborted", "ue:1": "fixed"}
    aborts = [e["payload"] for e in trace if e["kind"] == ABORT_KIND]
    assert aborts == [{"ue_id": "ue:0", "reason": f"TRP {stray.trp_id} has no beam {beam}"}]
    assert np.array_equal(results["ue:1"].fix.position, drops[1].fix.position)


def test_dl_aod_power_that_overflows_fails_the_solve():
    """IOO FR1 DL-AoD drop 0 with one report at 4000 dBm, whose milliwatts
    10 ** 400 overflow a float: the solve fails with `SolverError`; before,
    OverflowError left `solve_records`."""
    sim, (drop,) = ideal_drops("dl-aod", 1)
    records = [replace(drop.records[0], payload={"value_dbm": 4000}), *drop.records[1:]]
    with pytest.raises(SolverError, match="out of range"):
        solve_records(records, sim.anchors, "dl-aod", sim.options, sim.beams)


def test_dl_aod_power_that_overflows_aborts_its_own_session_only():
    """One UE's DL-AoD report at 4000 dBm aborts that UE's session with the
    solver's reason, and the other UE's session still fixes, at its batch
    fix; before, OverflowError left `Transport.run` and ended every
    session."""
    sim, drops = ideal_drops("dl-aod", 2)
    records = {f"ue:{o.drop_idx}": list(o.records) for o in drops}
    records["ue:0"][0] = replace(records["ue:0"][0], payload={"value_dbm": 4000})
    transport = Transport()
    lmf = Lmf("lmf:0", sim.anchors, solver_options=sim.options, beams=sim.beams)
    ues = [Ue(uid, records=recs) for uid, recs in records.items()]
    results, trace = run_sessions(lmf, "dl-aod", ues, transport)
    assert {uid: r.status for uid, r in results.items()} == {"ue:0": "aborted", "ue:1": "fixed"}
    [abort] = [e["payload"] for e in trace if e["kind"] == ABORT_KIND]
    assert abort["ue_id"] == "ue:0" and "out of range" in abort["reason"]
    assert np.array_equal(results["ue:1"].fix.position, drops[1].fix.position)


@pytest.mark.parametrize("method,record", [
    ("ul-aoa", MeasurementRecord("AOA", 0, {"azimuth_deg": 10.0})),
    ("dl-aod", MeasurementRecord("PRS_RSRP", 0, {}, resource_id=0)),
    ("ul-tdoa", MeasurementRecord("UL_RTOA", 0, {})),
])
def test_malformed_record_fails_the_solve(method, record):
    sim, _ = ideal_drops("multi-rtt", 1)
    with pytest.raises(SolverError, match="payload lacks"):
        solve_records([record], sim.anchors, method, sim.options, sim.beams)


def assert_refused(method):
    """Starting a session of method raises before any message is sent."""
    transport, lmf, gnbs, ues, _ = make_world()
    for node in [lmf, *gnbs, *ues]:
        transport.register(node)
    with pytest.raises(ProtocolError, match="unsupported method"):
        lmf.start("ue:0", method, gnb_ids=[g.node_id for g in gnbs])
    assert transport.trace == [] and lmf.sessions == {}


@pytest.mark.parametrize("method", ["fingerprint"])
def test_method_without_table_entry_has_no_session(method):
    """A method with no `METHOD_TABLE` entry is refused."""
    assert_refused(method)


def test_method_without_report_kinds_has_no_session(monkeypatch):
    """A table entry that names no report kinds gives a session nothing to
    ask for, so it is refused like a method with no entry."""
    spec = replace(simulate.METHOD_TABLE["ul-tdoa"], gnb_report=())
    monkeypatch.setitem(simulate.METHOD_TABLE, "silent", spec)
    assert_refused("silent")


@pytest.mark.parametrize("method", ["ul-tdoa", "ul-aoa"])
def test_uplink_session_talks_to_the_radio_nodes_alone(method):
    """The UE measures nothing in an uplink method: each gNB is asked for
    its TRPs, configures the UE's SRS and reports its measurements, one
    message of each kind, and no LPP message is sent. The fix is the
    drop's."""
    transport, lmf, gnbs, ues, outcomes = make_world(method, n_gnbs=3)
    results, trace = run_sessions(lmf, method, ues, transport, gnbs)
    assert_routing_invariant(trace)
    per_gnb = Counter((e["kind"], e["from"] if e["from"].startswith("gnb:") else e["to"])
                      for e in trace)
    kinds = ["NrppaPositioningInformationRequest", "NrppaPositioningInformationResponse",
             "RrcSrsConfig", "NrppaMeasurementRequest", "NrppaMeasurementResponse"]
    assert per_gnb == Counter((k, g.node_id) for k in kinds for g in gnbs)
    assert np.array_equal(results["ue:0"].fix.position, outcomes["ue:0"].fix.position)


@pytest.mark.parametrize("preset,method", [("ioo-fr1", "multi-rtt"), ("uma", "dl-tdoa"),
                                           ("uma", "dl-aod"), ("uma", "ul-tdoa"),
                                           ("ioo-fr1", "ul-aoa"), ("uma", "ul-aoa")])
def test_sessions_reproduce_batch_fixes(preset, method, tmp_path):
    """One session per drop, for drops 0-39 at master seed 1, with the
    nodes holding each drop's records: every session fix is the drop's fix
    bit for bit, a session aborts exactly when the drop's solve failed, and
    replaying the written trace gives the same fixes. Every method gets
    the same per-TRP gNBs, and its table entry decides whether they report.
    The DL-AoD server and replay solve with the simulator's beam table."""
    n = 40
    sim = Simulator(preset_config(preset, method=method, n_drops=n))
    outcomes = {f"ue:{i}": sim.run_drop(i) for i in range(n)}
    records = {uid: o.records for uid, o in outcomes.items()}
    transport = Transport()
    lmf = Lmf("lmf:0", sim.anchors, solver_options=sim.options, beams=sim.beams)
    ues = [Ue(uid, records=recs) for uid, recs in records.items()]
    gnbs = [Gnb(f"gnb:{t}", trp_ids=[t], srs=sim.srs, records=records) for t in sim.anchors]
    results, _ = run_sessions(lmf, method, ues, transport, gnbs)
    path = tmp_path / "trace.jsonl"
    transport.dump_trace(path)
    fixes = replay_solve(load_trace(path), lmf.anchors, lmf.options, sim.beams)

    failed = {uid for uid, o in outcomes.items() if o.failure is not None}
    assert {uid for uid, r in results.items() if r.status == "aborted"} == failed
    assert set(fixes) == set(outcomes) - failed
    for uid, replayed in fixes.items():
        batch, live = outcomes[uid].fix, results[uid].fix
        for fix in (live, replayed):
            assert np.array_equal(fix.position, batch.position)
            assert fix.residual_rms == batch.residual_rms
            assert fix.converged == batch.converged


class TestAssistance:
    def test_on_demand_round_trip(self):
        transport, lmf, gnbs, ues, _ = make_world()
        payload = request_assistance_on_demand(ues[0], lmf, transport)
        assert payload == {"trp_ids": list(lmf.anchors)}

    def test_two_ues_get_identical_payloads(self):
        transport, lmf, _, _, _ = make_world()
        a, b = Ue("ue:a"), Ue("ue:b")
        pa = request_assistance_on_demand(a, lmf, transport)
        pb = request_assistance_on_demand(b, lmf, transport)
        assert pa == pb

    def test_malformed_request_is_protocol_error(self):
        transport, lmf, _, _, _ = make_world()
        ue = Ue("ue:x")
        transport.register(ue)
        transport.register(lmf)
        state_before = lmf.sessions.copy()
        transport.send("LppRequestAssistanceData", ue.node_id, lmf.node_id, {})
        with pytest.raises(ProtocolError):
            transport.run()
        assert lmf.sessions == state_before


class TestMessageSerialization:
    def test_stable_field_order(self, tmp_path):
        """Every line of a dumped trace, messages and aborts alike, has the
        keys seq, kind, from, to, timestamp, payload in that order, and the
        file reads back as the trace."""
        transport, lmf, gnbs, ues, _ = make_world(n_ues=2, responsive={"ue:0": False})
        run_sessions(lmf, "multi-rtt", ues, transport, gnbs)
        path = tmp_path / "trace.jsonl"
        transport.dump_trace(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(transport.trace)
        assert ABORT_KIND in {e["kind"] for e in transport.trace}
        for line in lines:
            assert list(json.loads(line)) == ["seq", "kind", "from", "to", "timestamp", "payload"]
        assert load_trace(path) == transport.trace

    def test_node_id_prefix_enforced(self):
        with pytest.raises(ProtocolError):
            Ue("gnb:7")


def restarted_dl_tdoa(silent_first: bool):
    """A DL-TDOA session of ue:0 with 0.3 s per hop and a 1.0 s timeout,
    started again once the first has ended: with silent_first the UE
    answers nothing until 1.5 s, so the first session aborts at 1.0 s and
    the second starts at 1.5 s; otherwise the first fixes at 0.6 s and the
    second starts at 0.7 s. Each ends fixed at the drop's fix. Returns
    (the live result, the trace, lmf, the drop outcome)."""
    _, lmf, _, ues, outcomes = make_world("dl-tdoa")
    lmf = Lmf("lmf:0", lmf.anchors, solver_options=lmf.options, timeout_s=1.0)
    transport = Transport(latency_s=0.3)
    for node in [lmf, *ues]:
        transport.register(node)
    [ue] = ues
    ue.responsive = not silent_first
    lmf.start("ue:0", "dl-tdoa")

    def restart():
        ue.responsive = True
        lmf.start("ue:0", "dl-tdoa")

    transport.schedule(1.5 if silent_first else 0.7, restart)
    transport.run()
    return lmf.results["ue:0"], transport.trace, lmf, outcomes["ue:0"]


@pytest.mark.parametrize("silent_first", [True, False])
def test_replay_keys_replies_by_session(silent_first):
    """Replay solves each UE's last session from that session's replies
    alone, as the live server does. It keyed replies and aborts by UE:
    after a silent first session aborted at 1.0 s, the restarted
    session's fix replayed as no fix, the abort entry dropping the UE;
    after two fixed sessions, replay solved both sessions' reports at
    once, 14 rows against the live fix's 7."""
    live, trace, lmf, outcome = restarted_dl_tdoa(silent_first)
    assert live.status == "fixed"
    assert np.array_equal(live.fix.position, outcome.fix.position)
    reports = [e["timestamp"] for e in trace if e["kind"] == "LppProvideLocationInformation"]
    assert reports == pytest.approx([1.8] if silent_first else [0.3, 1.0])
    assert [e["timestamp"] for e in trace if e["kind"] == ABORT_KIND] == \
        ([1.0] if silent_first else [])
    fixes = replay_solve(trace, lmf.anchors, lmf.options)
    assert list(fixes) == ["ue:0"]
    assert np.array_equal(fixes["ue:0"].position, live.fix.position)
    assert len(fixes["ue:0"].rows) == len(live.fix.rows) == 7
