"""Location-session procedure flows replayed as message-passing state
machines: a location server (`Lmf`) drives one session per terminal
against radio nodes over an in-memory transport, producing an auditable
message trace.

Message bodies are JSON-friendly dicts; the trace file is JSON lines with
a stable field order (seq, kind, from, to, timestamp, payload), which is
the contract for replay tooling.

There is one session flow, and the method's entry of
`simulate.METHOD_TABLE` decides its legs. A method with gNB report kinds
first asks the radio nodes for their TRPs and sounding configuration;
then the UE reports its kinds; and the radio nodes report theirs last. A
method whose entry names no UE report kinds has no session. The nodes
answer from a simulated drop's `MeasurementRecord`s: a `Ue` holds its own
records, a `Gnb` holds each UE's records, and a TRP with no record is
left out of the report. Every report carries `{"records": [...]}`, each
entry a record as `MeasurementRecord.to_dict` writes it to a record file,
so the live server and trace replay read the same records back and solve
them with `simulate.solve_records`, the solver of batch runs: a session
fix is the drop's fix.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass

import numpy as np

from .measurements import MeasurementRecord
from .prs import SrsPosResource
from .simulate import METHOD_TABLE, solve_records
from .solvers import SolverError, SolverOptions

LPP_KINDS = {
    "LppRequestAssistanceData",
    "LppProvideAssistanceData",
    "LppRequestLocationInformation",
    "LppProvideLocationInformation",
}
NRPPA_KINDS = {
    "NrppaPositioningInformationRequest",
    "NrppaPositioningInformationResponse",
    "NrppaMeasurementRequest",
    "NrppaMeasurementResponse",
}
RRC_KINDS = {"RrcSrsConfig"}

ABORT_KIND = "SessionAborted"

DEFAULT_TIMEOUT_S = 1.0
DEFAULT_LATENCY_S = 0.005


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class Message:
    seq: int
    kind: str
    sender: str
    receiver: str
    timestamp: float
    payload: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "kind": self.kind,
                "from": self.sender,
                "to": self.receiver,
                "timestamp": self.timestamp,
                "payload": self.payload,
            },
            sort_keys=False,
        )

    @classmethod
    def from_json(cls, line: str) -> "Message":
        d = json.loads(line)
        return cls(seq=d["seq"], kind=d["kind"], sender=d["from"],
                   receiver=d["to"], timestamp=d["timestamp"], payload=d["payload"])


def _role(node_id: str) -> str:
    return node_id.split(":")[0]


def check_routing(kind: str, sender: str, receiver: str):
    """Protocol-layer endpoint rules for every message."""
    roles = {_role(sender), _role(receiver)}
    if kind in LPP_KINDS:
        if roles != {"ue", "lmf"}:
            raise ProtocolError(f"{kind} must flow UE<->LMF, got {sender}->{receiver}")
    elif kind in NRPPA_KINDS:
        if roles != {"gnb", "lmf"}:
            raise ProtocolError(f"{kind} must flow gNB<->LMF, got {sender}->{receiver}")
    elif kind in RRC_KINDS:
        if not (_role(sender) == "gnb" and _role(receiver) == "ue"):
            raise ProtocolError(f"{kind} must flow gNB->UE, got {sender}->{receiver}")
    else:
        raise ProtocolError(f"unknown message kind {kind}")


class Transport:
    """In-memory message bus with fixed per-hop latency and timer events."""

    def __init__(self, latency_s: float = DEFAULT_LATENCY_S):
        self.latency_s = latency_s
        self.now = 0.0
        self._nodes: dict[str, "Node"] = {}
        self._queue: list = []
        self._seq = 0
        self.trace: list[dict] = []

    def register(self, node: "Node"):
        if node.node_id in self._nodes:
            raise ProtocolError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        node.transport = self

    def send(self, kind: str, sender: str, receiver: str, payload: dict):
        check_routing(kind, sender, receiver)
        if receiver not in self._nodes:
            raise ProtocolError(f"unknown receiver {receiver}")
        self._seq += 1
        msg = Message(seq=self._seq, kind=kind, sender=sender, receiver=receiver,
                      timestamp=self.now, payload=payload)
        self.trace.append(json.loads(msg.to_json()))
        heapq.heappush(self._queue, (self.now + self.latency_s, self._seq, "msg", msg))
        return msg

    def schedule(self, delay_s: float, callback):
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay_s, self._seq, "timer", callback))

    def record_abort(self, ue_id: str, reason: str):
        self.trace.append({
            "seq": None,
            "kind": ABORT_KIND,
            "from": None,
            "to": None,
            "timestamp": self.now,
            "payload": {"ue_id": ue_id, "reason": reason},
        })

    def run(self):
        while self._queue:
            t, _seq, what, item = heapq.heappop(self._queue)
            self.now = t
            if what == "timer":
                item()
            else:
                self._nodes[item.receiver].handle(item)

    def dump_trace(self, path):
        with open(path, "w") as fh:
            for entry in self.trace:
                fh.write(json.dumps(entry, sort_keys=False) + "\n")


class Node:
    """Single-threaded state machine; reacts only to transport messages."""

    role = ""

    def __init__(self, node_id: str):
        if not node_id.startswith(self.role + ":"):
            raise ProtocolError(f"{type(self).__name__} id must start with {self.role!r}")
        self.node_id = node_id
        self.transport: Transport | None = None

    def send(self, kind, receiver, payload):
        self.transport.send(kind, self.node_id, receiver, payload)

    def handle(self, msg: Message):
        raise NotImplementedError


def _report(records, kinds, trp_ids) -> list[dict]:
    """The records of the given kinds on the given TRPs, in record order,
    as a report carries them."""
    wanted = set(trp_ids)
    return [r.to_dict() for r in records if r.kind in kinds and r.trp_id in wanted]


def _records(reports) -> list[MeasurementRecord]:
    """The records that reports carry, in report order."""
    return [MeasurementRecord.from_dict(doc) for report in reports for doc in report["records"]]


class Ue(Node):
    """A terminal that reports its own measurement records."""

    role = "ue"

    def __init__(self, node_id: str, records=(), responsive: bool = True):
        super().__init__(node_id)
        self.records = list(records)
        self.responsive = responsive
        self.assistance: dict | None = None

    def handle(self, msg: Message):
        if not self.responsive:
            return
        if msg.kind == "RrcSrsConfig":
            pass  # the sounding configuration is already in the records
        elif msg.kind == "LppProvideAssistanceData":
            self.assistance = msg.payload
        elif msg.kind == "LppRequestLocationInformation":
            method = msg.payload["method"]
            kinds = METHOD_TABLE[method].ue_report
            self.send("LppProvideLocationInformation", msg.sender,
                      {"method": method,
                       "records": _report(self.records, kinds, msg.payload["trp_ids"])})
        else:
            raise ProtocolError(f"UE cannot handle {msg.kind}")


class Gnb(Node):
    """A radio node serving trp_ids; records maps each UE id to that UE's
    records, of which it reports the requested method's gNB report kinds
    on its TRPs. srs is the sounding resource those records were measured
    on, which the node configures the UE with and reports to the server."""

    role = "gnb"

    def __init__(self, node_id: str, trp_ids, srs: SrsPosResource,
                 records: dict[str, list] | None = None):
        super().__init__(node_id)
        self.trp_ids = list(trp_ids)
        self.srs = srs
        self.records = records or {}

    def handle(self, msg: Message):
        if msg.kind == "NrppaPositioningInformationRequest":
            ue_id = msg.payload["ue_id"]
            srs = asdict(self.srs)
            self.send("RrcSrsConfig", ue_id, {"ue_id": ue_id, "srs": srs})
            self.send("NrppaPositioningInformationResponse", msg.sender,
                      {"ue_id": ue_id, "srs": srs, "trp_ids": self.trp_ids})
        elif msg.kind == "NrppaMeasurementRequest":
            ue_id = msg.payload["ue_id"]
            kinds = METHOD_TABLE[msg.payload["method"]].gnb_report
            self.send("NrppaMeasurementResponse", msg.sender,
                      {"ue_id": ue_id,
                       "records": _report(self.records.get(ue_id, ()), kinds, self.trp_ids)})
        else:
            raise ProtocolError(f"gNB cannot handle {msg.kind}")


@dataclass
class SessionResult:
    ue_id: str
    status: str  # "fixed" or "aborted"
    fix: object | None = None


class Lmf(Node):
    """The location server: holds the TRPs' anchors, the solver options of
    the run it serves (`Simulator.options`, area included) and, for DL-AoD,
    their beam table (`Simulator.beams`), and solves each session's
    reports as the batch run solves the same records."""

    role = "lmf"

    def __init__(self, node_id: str, anchors: dict[int, np.ndarray],
                 solver_options: SolverOptions,
                 timeout_s: float = DEFAULT_TIMEOUT_S, beams=None):
        super().__init__(node_id)
        self.anchors = {t: np.asarray(p, dtype=float) for t, p in anchors.items()}
        self.options = solver_options
        self.timeout_s = timeout_s
        self.beams = beams
        self.sessions: dict[str, dict] = {}
        self.results: dict[str, SessionResult] = {}

    def start(self, ue_id: str, method: str, gnb_ids=(), trp_ids=()):
        """Open a session of method for the UE. With the method's gNB
        report kinds, the radio nodes gnb_ids first give their TRPs, then
        the UE reports and those nodes report last; without, the UE's
        report ends the session. The UE is asked for trp_ids and the radio
        nodes' TRPs, or for every anchor when that list is empty. A method
        with no UE report kinds has no session."""
        spec = METHOD_TABLE.get(method)
        if spec is None or not spec.ue_report:
            raise ProtocolError(f"unsupported method {method}")
        gnb_ids = list(gnb_ids) if spec.gnb_report else []
        self.sessions[ue_id] = {
            "method": method,
            "gnbs": gnb_ids,
            "pending": set(gnb_ids),
            "trp_ids": list(trp_ids),
            "reports": [],
            "done": False,
        }
        for g in gnb_ids:
            self.send("NrppaPositioningInformationRequest", g, {"ue_id": ue_id})
        if not gnb_ids:
            self._request_location(ue_id)
        self.transport.schedule(self.timeout_s, lambda: self._timeout(ue_id))

    def _request_location(self, ue_id: str):
        s = self.sessions[ue_id]
        self.send("LppProvideAssistanceData", ue_id, self._assistance())
        self.send("LppRequestLocationInformation", ue_id,
                  {"method": s["method"], "trp_ids": s["trp_ids"] or list(self.anchors)})

    def _assistance(self) -> dict:
        return {"trp_ids": list(self.anchors)}

    def _timeout(self, ue_id: str):
        s = self.sessions.get(ue_id)
        if s and not s["done"]:
            s["done"] = True
            self.transport.record_abort(ue_id, "timeout")
            self.results[ue_id] = SessionResult(ue_id=ue_id, status="aborted")

    # -- message handling

    def handle(self, msg: Message):
        if msg.kind == "NrppaPositioningInformationResponse":
            ue_id = msg.payload["ue_id"]
            s = self.sessions[ue_id]
            if s["done"]:
                return
            s["pending"].discard(msg.sender)
            s["trp_ids"].extend(msg.payload["trp_ids"])
            if not s["pending"]:
                self._request_location(ue_id)
        elif msg.kind in ("LppProvideLocationInformation", "NrppaMeasurementResponse"):
            ue_id = msg.payload.get("ue_id", msg.sender)  # a UE's report is its own
            s = self.sessions[ue_id]
            if s["done"]:
                return
            s["reports"].append(msg.payload)
            if msg.kind == "LppProvideLocationInformation":
                # the UE reports first, then the radio nodes
                s["pending"] = set(s["gnbs"])
                for g in s["gnbs"]:
                    self.send("NrppaMeasurementRequest", g, {"ue_id": ue_id, "method": s["method"]})
            s["pending"].discard(msg.sender)
            if not s["pending"]:
                self._solve(ue_id)
        elif msg.kind == "LppRequestAssistanceData":
            if "ue_id" not in msg.payload:
                raise ProtocolError("malformed assistance request")
            self.send("LppProvideAssistanceData", msg.sender, self._assistance())
        else:
            raise ProtocolError(f"LMF cannot handle {msg.kind}")

    def _solve(self, ue_id: str):
        s = self.sessions[ue_id]
        s["done"] = True
        try:
            fix = solve_records(_records(s["reports"]), self.anchors, s["method"],
                                self.options, self.beams)
        except SolverError as exc:
            # one UE's unsolvable report must not end the other sessions
            self.transport.record_abort(ue_id, str(exc))
            self.results[ue_id] = SessionResult(ue_id=ue_id, status="aborted")
            return
        self.results[ue_id] = SessionResult(ue_id=ue_id, status="fixed", fix=fix)


def run_sessions(lmf: Lmf, method: str, ues, transport: Transport, gnbs=(), trp_ids=()):
    """Drive one session of method per UE, as `Lmf.start` opens it;
    returns (results, trace)."""
    for node in [lmf, *gnbs, *ues]:
        if node.transport is not transport:
            transport.register(node)
    for ue in ues:
        lmf.start(ue.node_id, method, [g.node_id for g in gnbs], trp_ids)
    transport.run()
    return dict(lmf.results), list(transport.trace)


def request_assistance_on_demand(ue: Ue, lmf: Lmf, transport: Transport) -> dict:
    """UE-initiated assistance request; returns the delivered payload."""
    for node in (ue, lmf):
        if node.transport is not transport:
            transport.register(node)
    transport.send("LppRequestAssistanceData", ue.node_id, lmf.node_id,
                   {"ue_id": ue.node_id})
    transport.run()
    return ue.assistance


def load_trace(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def replay_solve(trace: list[dict], anchors: dict[int, np.ndarray],
                 options: SolverOptions, beams=None) -> dict[str, object]:
    """Re-run the solver on the measurement reports of a trace.

    Produces exactly the live fixes: each UE's reports arrive in trace
    order and give the same records to the same solver, and a session the
    trace shows aborted, for a timeout or a failed solve, gets no fix.
    """
    sessions: dict[str, tuple[str, list]] = {}
    aborted = set()
    for entry in trace:
        kind, payload = entry["kind"], entry["payload"]
        if kind == "LppProvideLocationInformation":
            sessions[entry["from"]] = (payload["method"], [payload])
        elif kind == "NrppaMeasurementResponse":
            sessions[payload["ue_id"]][1].append(payload)
        elif kind == ABORT_KIND:
            aborted.add(payload["ue_id"])
    return {ue_id: solve_records(_records(reports), anchors, method, options, beams)
            for ue_id, (method, reports) in sessions.items() if ue_id not in aborted}
