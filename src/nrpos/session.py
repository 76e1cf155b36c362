"""Location sessions replayed as message-passing state machines: a
location server (`Lmf`) drives one session per terminal against radio
nodes over an in-memory transport, producing an auditable message trace.

A message is its own trace entry, a JSON-normalised dict with the fields
seq, kind, from, to, timestamp and payload in that order: `Transport.send`
appends it to the trace and delivers that same dict, so the live server
and trace replay read the same values, and no node changes a payload. The
trace file is JSON lines of these entries, the contract for replay tooling.

A session's legs come from the method's entry of `simulate.METHOD_TABLE`
(`Lmf.start`); an uplink method's server talks to the radio nodes alone.
The nodes answer from a simulated drop's `MeasurementRecord`s: a `Ue`
holds its own, a `Gnb` each UE's, and a TRP with no record is left out.
A report carries `{"records": [...]}`, each entry as
`MeasurementRecord.to_dict` writes it to a record file, and the server
and replay solve them with `simulate.solve_records`, the batch solver: a
session fix is the drop's fix, and a malformed entry aborts only its own
session.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass
from functools import partial

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
# the server's requests in a session's legs, and the replies that end the
# legs; each names its UE or goes to it or comes from it
REQUEST_KINDS = {"NrppaPositioningInformationRequest", "LppRequestLocationInformation",
                 "NrppaMeasurementRequest"}
REPLY_KINDS = {"NrppaPositioningInformationResponse", "LppProvideLocationInformation",
               "NrppaMeasurementResponse"}

ABORT_KIND = "SessionAborted"

DEFAULT_TIMEOUT_S = 1.0
DEFAULT_LATENCY_S = 0.005


class ProtocolError(RuntimeError):
    pass


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
        """Trace the message and deliver its trace entry after one hop."""
        check_routing(kind, sender, receiver)
        if receiver not in self._nodes:
            raise ProtocolError(f"unknown receiver {receiver}")
        self._seq += 1
        entry = self._log(self._seq, kind, sender, receiver, payload)
        heapq.heappush(self._queue, (self.now + self.latency_s, self._seq,
                                     partial(self._nodes[receiver].handle, entry)))

    def schedule(self, delay_s: float, callback):
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay_s, self._seq, callback))

    def record_abort(self, ue_id: str, reason: str):
        self._log(None, ABORT_KIND, None, None, {"ue_id": ue_id, "reason": reason})

    def _log(self, seq, kind, sender, receiver, payload) -> dict:
        """Append the JSON-normalised trace entry and return it."""
        entry = json.loads(json.dumps({"seq": seq, "kind": kind, "from": sender, "to": receiver,
                                       "timestamp": self.now, "payload": payload}))
        self.trace.append(entry)
        return entry

    def run(self):
        while self._queue:
            self.now, _seq, callback = heapq.heappop(self._queue)
            callback()

    def dump_trace(self, path):
        with open(path, "w") as fh:
            for entry in self.trace:
                fh.write(json.dumps(entry) + "\n")


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

    def handle(self, msg: dict):
        """React to a delivered trace entry."""
        raise NotImplementedError


def _report(records, kinds, trp_ids) -> list[dict]:
    """The records of the given kinds on the given TRPs, in record order,
    as a report carries them."""
    wanted = set(trp_ids)
    return [r.to_dict() for r in records if r.kind in kinds and r.trp_id in wanted]


def _records(replies) -> list[MeasurementRecord]:
    """The records that replies carry, in reply order; a malformed report
    entry fails the solve."""
    try:
        return [MeasurementRecord.from_dict(doc) for r in replies for doc in r.get("records", ())]
    except (KeyError, TypeError, ValueError) as exc:
        raise SolverError(f"malformed report entry: {exc!r}") from exc


class Ue(Node):
    """A terminal that reports its own measurement records."""

    role = "ue"

    def __init__(self, node_id: str, records=(), responsive: bool = True):
        super().__init__(node_id)
        self.records = list(records)
        self.responsive = responsive
        self.assistance: dict | None = None

    def handle(self, msg: dict):
        if not self.responsive:
            return
        kind, payload = msg["kind"], msg["payload"]
        if kind == "RrcSrsConfig":
            pass  # the sounding configuration is already in the records
        elif kind == "LppProvideAssistanceData":
            self.assistance = payload
        elif kind == "LppRequestLocationInformation":
            kinds = METHOD_TABLE[payload["method"]].ue_report
            self.send("LppProvideLocationInformation", msg["from"],
                      {"method": payload["method"],
                       "records": _report(self.records, kinds, payload["trp_ids"])})
        else:
            raise ProtocolError(f"UE cannot handle {kind}")


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

    def handle(self, msg: dict):
        kind, payload = msg["kind"], msg["payload"]
        if kind == "NrppaPositioningInformationRequest":
            ue_id = payload["ue_id"]
            srs = asdict(self.srs)
            self.send("RrcSrsConfig", ue_id, {"ue_id": ue_id, "srs": srs})
            self.send("NrppaPositioningInformationResponse", msg["from"],
                      {"ue_id": ue_id, "srs": srs, "trp_ids": self.trp_ids})
        elif kind == "NrppaMeasurementRequest":
            ue_id = payload["ue_id"]
            kinds = METHOD_TABLE[payload["method"]].gnb_report
            self.send("NrppaMeasurementResponse", msg["from"],
                      {"ue_id": ue_id,
                       "records": _report(self.records.get(ue_id, ()), kinds, self.trp_ids)})
        else:
            raise ProtocolError(f"gNB cannot handle {kind}")


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
        """Open a session of method for the UE. Its legs come from the
        method's `METHOD_TABLE` entry: with gNB report kinds the radio
        nodes gnb_ids first give their TRPs ("info"); with UE report kinds
        the UE then reports ("ue"); with gNB report kinds those nodes
        report last ("report"). The last leg's replies are solved. The UE
        is asked for trp_ids and the radio nodes' TRPs, or for every anchor
        when that list is empty. A method with no table entry or no report
        kinds has no session, and neither has a UE whose session is still
        open."""
        spec = METHOD_TABLE.get(method)
        if spec is None or not (spec.ue_report or spec.gnb_report):
            raise ProtocolError(f"unsupported method {method}")
        if ue_id in self.sessions and not self.sessions[ue_id]["done"]:
            raise ProtocolError(f"{ue_id} already has an open session")
        legs = [leg for leg, kinds in (("info", spec.gnb_report), ("ue", spec.ue_report),
                                       ("report", spec.gnb_report)) if kinds]
        s = self.sessions[ue_id] = {"method": method, "legs": legs, "gnbs": list(gnb_ids),
                                    "pending": set(), "trp_ids": list(trp_ids), "replies": [],
                                    "done": False}
        self._next_leg(ue_id)
        # a session is replaced only once done, so its timer spares the next one
        self.transport.schedule(self.timeout_s, lambda: s["done"] or self._abort(ue_id, "timeout"))

    def _next_leg(self, ue_id: str):
        """Send the next leg's requests, skipping a leg with no one to ask;
        after the last leg, solve."""
        s = self.sessions[ue_id]
        while not s["pending"]:
            if not s["legs"]:
                self._solve(ue_id)
                return
            leg = s["legs"].pop(0)
            if leg == "ue":
                s["pending"] = {ue_id}
                self.send("LppProvideAssistanceData", ue_id, self._assistance())
                self.send("LppRequestLocationInformation", ue_id,
                          {"method": s["method"], "trp_ids": s["trp_ids"] or list(self.anchors)})
            else:
                s["pending"] = set(s["gnbs"])
                for g in s["gnbs"]:
                    if leg == "info":
                        self.send("NrppaPositioningInformationRequest", g, {"ue_id": ue_id})
                    else:
                        self.send("NrppaMeasurementRequest", g,
                                  {"ue_id": ue_id, "method": s["method"]})

    def _assistance(self) -> dict:
        return {"trp_ids": list(self.anchors)}

    def _abort(self, ue_id: str, reason: str):
        self.sessions[ue_id]["done"] = True
        self.transport.record_abort(ue_id, reason)
        self.results[ue_id] = SessionResult(ue_id=ue_id, status="aborted")

    # -- message handling

    def handle(self, msg: dict):
        kind, payload = msg["kind"], msg["payload"]
        if kind in REPLY_KINDS:
            ue_id = payload.get("ue_id", msg["from"])  # a UE's reply is its own
            s = self.sessions.get(ue_id)
            if s is None or s["done"] or msg["from"] not in s["pending"]:
                return  # no session of its UE is waiting for it
            s["replies"].append(payload)
            s["trp_ids"].extend(payload.get("trp_ids", ()))
            s["pending"].discard(msg["from"])
            if not s["pending"]:
                self._next_leg(ue_id)
        elif kind == "LppRequestAssistanceData":
            if "ue_id" not in payload:
                raise ProtocolError("malformed assistance request")
            self.send("LppProvideAssistanceData", msg["from"], self._assistance())
        else:
            raise ProtocolError(f"LMF cannot handle {kind}")

    def _solve(self, ue_id: str):
        s = self.sessions[ue_id]
        try:
            fix = solve_records(_records(s["replies"]), self.anchors, s["method"],
                                self.options, self.beams)
        except SolverError as exc:
            # one UE's unsolvable report must not end the other sessions
            self._abort(ue_id, str(exc))
            return
        s["done"] = True
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

    Produces exactly the live fixes, keyed by session as `Lmf` keys them.
    A server request for a UE with no open session opens one. A reply
    counts for its UE's open session only if it answers one of that
    session's requests. A session ends when its last leg's replies are
    in, the leg whose request names the method and, when the method has
    gNB report kinds, asks the radio nodes; or with an abort entry for
    its UE, for a timeout or a failed solve. Each UE gets the fix of its
    last ended session: its method is the one its server asked for, and
    its replies, in trace order, give the same records to the same
    solver. A UE whose last session the trace shows aborted gets no fix.
    """
    open_sessions: dict[str, dict] = {}
    ended: dict[str, dict | None] = {}
    for entry in trace:
        kind, payload = entry["kind"], entry["payload"]
        if kind in REQUEST_KINDS:
            s = open_sessions.setdefault(payload.get("ue_id", entry["to"]),
                                         {"pending": set(), "replies": [], "last_leg": False})
            s["pending"].add(entry["to"])
            if "method" in payload:
                s["method"] = payload["method"]
                s["last_leg"] = (kind == "NrppaMeasurementRequest"
                                 or not METHOD_TABLE[payload["method"]].gnb_report)
        elif kind in REPLY_KINDS:
            ue_id = payload.get("ue_id", entry["from"])
            s = open_sessions.get(ue_id)
            if s is None or entry["from"] not in s["pending"]:
                continue
            s["replies"].append(payload)
            s["pending"].discard(entry["from"])
            if not s["pending"] and s["last_leg"]:
                ended[ue_id] = open_sessions.pop(ue_id)
        elif kind == ABORT_KIND:
            open_sessions.pop(payload["ue_id"], None)
            ended[payload["ue_id"]] = None
    return {ue_id: solve_records(_records(s["replies"]), anchors, s["method"], options, beams)
            for ue_id, s in ended.items() if s is not None}
