from collections import Counter

import numpy as np
import pytest

from nrpos.measurements import MeasurementRecord
from nrpos.scenario import build_deployment
from nrpos.session import (
    ABORT_KIND,
    GeometricHook,
    Gnb,
    Lmf,
    Message,
    ProtocolError,
    Transport,
    Ue,
    check_routing,
    load_trace,
    replay_solve,
    request_assistance_on_demand,
    run_dl_tdoa,
    run_multi_rtt,
)
from nrpos.simulate import solve_records
from nrpos.solvers import SolverOptions

OPTIONS = SolverOptions(fix_height=1.5)


def make_world(n_gnbs=3, n_ues=1, responsive=None, quantize=True):
    deployment = build_deployment("ioo")
    # spread the picks over both anchor rows so geometry is non-degenerate
    picks = [0, 7, 4, 9, 2, 11][:n_gnbs]
    anchors = {
        t.trp_id: np.asarray(t.position) for t in deployment.trps if t.trp_id in picks
    }
    rng = np.random.default_rng(0)
    ue_positions = {
        f"ue:{i}": np.array([rng.uniform(20, 100), rng.uniform(10, 40), 1.5])
        for i in range(n_ues)
    }
    hook = GeometricHook(anchors, ue_positions, quantize=quantize)
    transport = Transport()
    lmf = Lmf("lmf:0", anchors, prs_tree={"version": 1, "layers": []},
              solver_options=OPTIONS)
    gnbs = [Gnb(f"gnb:{t}", trp_ids=[t], hook=hook) for t in anchors]
    ues = [
        Ue(uid, hook=hook,
           responsive=(responsive.get(uid, True) if responsive else True))
        for uid in ue_positions
    ]
    return transport, lmf, gnbs, ues, ue_positions


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
        transport, lmf, gnbs, ues, ue_pos = make_world(n_gnbs=3, n_ues=1)
        results, trace = run_multi_rtt(lmf, gnbs, ues, transport)
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
        transport, lmf, gnbs, ues, ue_pos = make_world(n_gnbs=4, n_ues=2)
        results, _ = run_multi_rtt(lmf, gnbs, ues, transport)
        for uid, truth in ue_pos.items():
            fix = results[uid].fix
            assert results[uid].status == "fixed"
            # quantization-limited accuracy
            assert np.linalg.norm(fix.position[:2] - truth[:2]) < 2.0

    def test_ue_report_precedes_gnb_report(self):
        transport, lmf, gnbs, ues, _ = make_world()
        _, trace = run_multi_rtt(lmf, gnbs, ues, transport)
        order = [e["kind"] for e in trace]
        assert order.index("LppProvideLocationInformation") < order.index(
            "NrppaMeasurementRequest"
        )

    def test_unresponsive_ue_aborts_without_affecting_others(self):
        transport, lmf, gnbs, ues, ue_pos = make_world(
            n_ues=2, responsive={"ue:0": False}
        )
        results, trace = run_multi_rtt(lmf, gnbs, ues, transport)
        assert results["ue:0"].status == "aborted"
        assert results["ue:1"].status == "fixed"
        aborts = [e for e in trace if e["kind"] == ABORT_KIND]
        assert len(aborts) == 1 and aborts[0]["payload"]["ue_id"] == "ue:0"

    def test_trace_replay_matches_live(self, tmp_path):
        transport, lmf, gnbs, ues, _ = make_world(n_gnbs=4, n_ues=2)
        results, trace = run_multi_rtt(lmf, gnbs, ues, transport)
        path = tmp_path / "trace.jsonl"
        transport.dump_trace(path)
        fixes = replay_solve(load_trace(path), lmf.anchors, OPTIONS)
        for uid, live in results.items():
            assert np.array_equal(fixes[uid].position, live.fix.position)
            assert fixes[uid].residual_rms == live.fix.residual_rms

    def test_deterministic_trace_bytes(self, tmp_path):
        blobs = []
        for _ in range(2):
            transport, lmf, gnbs, ues, _ = make_world(n_gnbs=3, n_ues=2)
            run_multi_rtt(lmf, gnbs, ues, transport)
            path = tmp_path / "t.jsonl"
            transport.dump_trace(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestDlTdoa:
    def test_flow_and_fix(self):
        transport, lmf, gnbs, ues, ue_pos = make_world(n_gnbs=5)
        trp_ids = sorted(lmf.anchors)
        results, trace = run_dl_tdoa(lmf, ues, transport, trp_ids, ref_trp_id=trp_ids[0])
        counts = Counter(e["kind"] for e in trace)
        assert counts["LppProvideAssistanceData"] == 1
        assert counts["LppRequestLocationInformation"] == 1
        assert counts["LppProvideLocationInformation"] == 1
        assert_routing_invariant(trace)
        uid, truth = next(iter(ue_pos.items()))
        assert np.linalg.norm(results[uid].fix.position[:2] - truth[:2]) < 3.0

    def test_rstd_reports_carry_resource_reference(self):
        transport, lmf, gnbs, ues, _ = make_world(n_gnbs=4)
        trp_ids = sorted(lmf.anchors)
        _, trace = run_dl_tdoa(lmf, ues, transport, trp_ids, ref_trp_id=trp_ids[0])
        report = next(e for e in trace if e["kind"] == "LppProvideLocationInformation")
        for entry in report["payload"]["rstd"]:
            assert entry["ref_trp_id"] == trp_ids[0]
            assert entry["trp_id"] != trp_ids[0]

    def test_replay(self, tmp_path):
        transport, lmf, gnbs, ues, _ = make_world(n_gnbs=5, n_ues=2)
        trp_ids = sorted(lmf.anchors)
        results, _ = run_dl_tdoa(lmf, ues, transport, trp_ids, ref_trp_id=trp_ids[0])
        path = tmp_path / "trace.jsonl"
        transport.dump_trace(path)
        fixes = replay_solve(load_trace(path), lmf.anchors, OPTIONS)
        for uid, live in results.items():
            assert np.array_equal(fixes[uid].position, live.fix.position)

    def test_anchor_subset_solves_like_batch_records(self):
        # over 4 of the 5 anchors the solve starts at the centroid of the
        # anchors used, in the live session, in replay and in batch runs
        transport, lmf, gnbs, ues, _ = make_world(n_gnbs=5, n_ues=2)
        trp_ids = sorted(lmf.anchors)[:4]
        results, trace = run_dl_tdoa(lmf, ues, transport, trp_ids, ref_trp_id=trp_ids[0])
        fixes = replay_solve(trace, lmf.anchors, OPTIONS)
        reports = {e["from"]: e["payload"] for e in trace
                   if e["kind"] == "LppProvideLocationInformation"}
        for uid, live in results.items():
            records = [
                MeasurementRecord(kind="RSTD", trp_id=e["trp_id"], resource_id=e["trp_id"],
                                  payload=e)
                for e in reports[uid]["rstd"]
            ]
            batch = solve_records(records, lmf.anchors, "dl-tdoa", OPTIONS)
            assert np.array_equal(fixes[uid].position, live.fix.position)
            assert np.array_equal(batch.position, live.fix.position)


    def test_unsolvable_report_aborts_the_session_only(self):
        # three anchors give two time differences, too few to solve: each
        # UE's session aborts with the solver's reason and the run completes
        transport, lmf, gnbs, ues, _ = make_world(n_gnbs=3, n_ues=2)
        trp_ids = sorted(lmf.anchors)
        results, trace = run_dl_tdoa(lmf, ues, transport, trp_ids, ref_trp_id=trp_ids[0])
        assert {uid: r.status for uid, r in results.items()} == {
            "ue:0": "aborted", "ue:1": "aborted"}
        aborts = [e["payload"] for e in trace if e["kind"] == ABORT_KIND]
        assert [a["ue_id"] for a in aborts] == ["ue:0", "ue:1"]
        assert all("got 2" in a["reason"] for a in aborts)
        assert replay_solve(trace, lmf.anchors, OPTIONS) == {}

    def test_unsolvable_report_leaves_other_sessions_fixed(self):
        transport, lmf, gnbs, ues, _ = make_world(n_gnbs=3, n_ues=2)
        for node in [lmf, *gnbs, *ues]:
            transport.register(node)
        trp_ids = sorted(lmf.anchors)
        lmf.start_multi_rtt("ue:0", [g.node_id for g in gnbs])
        lmf.start_dl_tdoa("ue:1", trp_ids, trp_ids[0])
        transport.run()
        assert lmf.results["ue:0"].status == "fixed"
        assert lmf.results["ue:1"].status == "aborted"
        fixes = replay_solve(transport.trace, lmf.anchors, OPTIONS)
        assert list(fixes) == ["ue:0"]
        assert np.array_equal(fixes["ue:0"].position, lmf.results["ue:0"].fix.position)


class TestAssistance:
    def test_on_demand_round_trip(self):
        transport, lmf, gnbs, ues, _ = make_world()
        payload = request_assistance_on_demand(ues[0], lmf, transport)
        assert payload == {"prs_tree": lmf.prs_tree}

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
    def test_json_round_trip(self):
        msg = Message(seq=1, kind="LppRequestAssistanceData", sender="ue:0",
                      receiver="lmf:0", timestamp=0.01, payload={"ue_id": "ue:0"})
        assert Message.from_json(msg.to_json()) == msg

    def test_stable_field_order(self):
        msg = Message(seq=1, kind="RrcSrsConfig", sender="gnb:0",
                      receiver="ue:0", timestamp=0.0, payload={})
        assert msg.to_json().startswith('{"seq": 1, "kind": "RrcSrsConfig", "from"')

    def test_node_id_prefix_enforced(self):
        with pytest.raises(ProtocolError):
            Ue("gnb:7")
