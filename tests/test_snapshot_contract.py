"""The snapshot/restore contract, enforced over EVERY stateful operator.

Replication (DESIGN section 16) and recovery (section 11) both lean on
one promise: for any operator, ``restore_state(decode(encode(
snapshot_state())))`` into a fresh instance yields a node that is
*behaviorally identical* to the original -- same rows out for the same
further input, same next snapshot, byte for byte.  A golden-bytes test
(test_recovery) pins the wire layout of a fixed set; this file pins the
*property*, and -- via subclass discovery -- fails by name when a new
operator class ships without a round-trip case, so the contract cannot
silently rot as the operator zoo grows.

The same walk pins the state log (``repro.recovery.statelog``, DESIGN
section 11.1) on every operator: the fold of a full frame and its
deltas is byte for byte a fresh full cut, an idle boundary ships no
node, and a restore from the fold continues like the uninterrupted run.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import pkgutil

import pytest

from repro.recovery.statelog import StateLog, decode_frame
from repro.recovery.wire import decode_snapshot, encode_snapshot
from tests.conftest import tcp_packet


#: sha256 of the snapshot ``test_join_index_is_not_on_the_wire`` takes,
#: as encoded at f96f3e2: the last commit whose join scanned its window
NESTED_LOOP_JOIN_SNAPSHOT = (
    "987ed898d21282bd69e7266caf37c55244e2b77157bb72833843be2641a905aa")


def _all_node_classes():
    """Every QueryNode subclass the package defines, fully imported."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    from repro.core.query_node import QueryNode

    found = []
    stack = [QueryNode]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            # Other test modules define throwaway QueryNode subclasses;
            # the contract covers only classes the library itself ships.
            if sub.__module__.startswith("repro."):
                found.append(sub)
            stack.append(sub)
    return found


def _exempt_classes():
    """Bases with no state of their own; their subclasses are covered."""
    from repro.core.query_node import UserNode
    from repro.sinks import _RecoverableSink
    return {UserNode, _RecoverableSink}


def _compile(text, streams=None):
    from repro.gsql.codegen import ExprCompiler
    from repro.gsql.functions import builtin_functions
    from repro.gsql.parser import parse_query
    from repro.gsql.planner import plan_query
    from repro.gsql.schema import builtin_registry
    from repro.gsql.semantic import analyze

    functions = builtin_functions()
    analyzed = analyze(parse_query(text), builtin_registry(), functions,
                       stream_resolver=(streams or {}).get)
    plan = plan_query(analyzed, functions)
    compiler = ExprCompiler(analyzed, functions)
    return analyzed, plan, compiler


def _derived_streams():
    _, plan_a, _ = _compile("DEFINE query_name sa; "
                            "Select time, destPort From tcp")
    _, plan_b, _ = _compile("DEFINE query_name sb; "
                            "Select time, destPort From tcp")
    return {"sa": plan_a.output_schema, "sb": plan_b.output_schema}


def _packets(start, count):
    return [tcp_packet(ts=i * 0.25, sport=1000 + i % 7, dport=80,
                       payload=b"x" * (1 + i % 5))
            for i in range(start, start + count)]


# ---------------------------------------------------------------------------
# One case per operator class: make / prefix / suffix
# ---------------------------------------------------------------------------
#
# ``make()`` builds a fresh, deterministic instance; ``prefix`` drives
# it into interesting mid-stream state (open windows, buffered
# segments, raised alerts); ``suffix`` continues the stream past the
# snapshot point, where any state the snapshot failed to carry shows up
# as diverging output or a diverging next snapshot.

def _make_lfta():
    from repro.operators.lfta import LftaNode
    analyzed, plan, compiler = _compile(
        "DEFINE { query_name q; sample 0.5; } "
        "Select tb, srcPort, count(*) From tcp "
        "Group by time/5 as tb, srcPort")
    return LftaNode(plan.lftas[0], analyzed, compiler, table_size=4, seed=7)


def _make_selection():
    from repro.operators.selection import SelectionNode
    analyzed, plan, compiler = _compile(
        "DEFINE query_name sel; Select time, destPort From sa "
        "Where destPort = 80", streams=_derived_streams())
    return SelectionNode(plan.hfta, analyzed, compiler)


def _make_sampled_selection():
    from repro.operators.selection import SelectionNode
    analyzed, plan, compiler = _compile(
        "DEFINE { query_name sel; sample 0.5; } "
        "Select time, destPort From sa", streams=_derived_streams())
    return SelectionNode(plan.hfta, analyzed, compiler, seed=7)


def _make_aggregation():
    from repro.operators.aggregation import AggregationNode
    analyzed, plan, compiler = _compile(
        "DEFINE query_name a; Select tb, srcPort, count(*), sum(len) "
        "From tcp Group by time/5 as tb, srcPort")
    return AggregationNode(plan.hfta, analyzed, compiler, seed=7)


def _make_join():
    from repro.operators.join import JoinNode
    analyzed, plan, compiler = _compile(
        "DEFINE query_name j; Select A.time, A.destPort, B.destPort "
        "From sa A, sb B Where A.time = B.time and A.destPort = B.destPort",
        streams=_derived_streams())
    return JoinNode(plan.hfta, analyzed, compiler)


def _make_merge():
    from repro.operators.merge import MergeNode
    analyzed, plan, _ = _compile(
        "DEFINE query_name m; Merge sa.time : sb.time From sa, sb",
        streams=_derived_streams())
    return MergeNode(plan.hfta, analyzed, buffer_capacity=16)


def _make_sessionize():
    from repro.operators.sessionize import SessionizeNode
    return SessionizeNode("sess", idle_timeout=5.0)


def _make_tcp_reassembly():
    from repro.operators.tcp_reassembly import TcpReassemblyNode
    return TcpReassemblyNode("tcpre")


def _make_defrag():
    from repro.gsql.schema import builtin_registry
    from repro.operators.defrag import DefragNode
    return DefragNode("defrag0", builtin_registry().get("udp"))


def _make_trigger():
    from repro.alerts.engine import TriggerNode
    from repro.alerts.spec import parse_alert_spec
    from repro.gsql.ordering import Ordering
    from repro.gsql.schema import Attribute, StreamSchema
    from repro.gsql.types import FLOAT, IP, UINT
    schema = StreamSchema("flows", [
        Attribute("tb", FLOAT, Ordering.increasing()),
        Attribute("host", IP),
        Attribute("hits", UINT),
    ])
    spec = parse_alert_spec(
        "t:on=flows,key=host,when=sum(hits) > 10,epoch=1,clear_for=2")
    return TriggerNode(spec, schema)


def _make_bus():
    from repro.alerts.engine import AlertBusNode
    from repro.core.channels import Channel
    bus = AlertBusNode("alerts")
    bus.attach_input(Channel(name="t0->alerts"))
    bus.attach_input(Channel(name="t1->alerts"))
    return bus


def _make_telemetry_stream():
    from repro.obs.telemetry import TelemetryStreamNode
    return TelemetryStreamNode("_gs_channel")


def _trigger_prefix(node):
    node.on_tick(0.5)
    node.dispatch((0.0, 0x0A000001, 20), 0)
    node.on_tick(1.5)          # closes epoch 0: RAISE, key stays raised


def _trigger_suffix(node):
    node.on_tick(2.5)          # quiet epoch: false streak 1
    node.on_tick(3.5)          # false streak 2: CLEAR
    node.dispatch((4.0, 0x0A000002, 30), 0)
    node.flush()


def _bus_row(time):
    return (time, 0, b"t", b"RAISE", b"warning", b"k", 1.0, b"ctx")


def _tcp_segments():
    from repro.net.tcp import FLAG_ACK, FLAG_SYN
    return [
        tcp_packet(ts=0.0, seq=100, flags=FLAG_SYN),
        tcp_packet(ts=0.1, seq=101, payload=b"hello ", flags=FLAG_ACK),
        # A gap: this one waits in the out-of-order buffer.
        tcp_packet(ts=0.2, seq=117, payload=b"stream", flags=FLAG_ACK),
        # The missing middle: releases the buffered segment on arrival.
        tcp_packet(ts=0.3, seq=107, payload=b"fills the ", flags=FLAG_ACK),
        tcp_packet(ts=0.4, seq=123, payload=b"!", flags=FLAG_ACK),
    ]


def _defrag_fragments():
    from tests.test_operators_defrag import fragmented_udp
    fragments, _ = fragmented_udp(payload_len=2000, mtu=600)
    return fragments


def _cases():
    from repro.alerts.engine import AlertBusNode, TriggerNode
    from repro.obs.telemetry import TelemetryStreamNode
    from repro.operators.aggregation import AggregationNode
    from repro.operators.defrag import DefragNode
    from repro.operators.join import JoinNode
    from repro.operators.lfta import LftaNode
    from repro.operators.merge import MergeNode
    from repro.operators.selection import SelectionNode
    from repro.operators.sessionize import SessionizeNode
    from repro.operators.tcp_reassembly import TcpReassemblyNode

    def feed_packets(start, count):
        return lambda node: [node.accept_packet(p)
                             for p in _packets(start, count)]

    return {
        LftaNode: {
            "make": _make_lfta,
            "prefix": feed_packets(0, 25),
            "suffix": lambda node: (feed_packets(25, 15)(node),
                                    node.flush()),
        },
        SelectionNode: {
            "make": _make_selection,
            "prefix": lambda node: [node.dispatch((float(t), 80 + t % 2), 0)
                                    for t in range(10)],
            "suffix": lambda node: [node.dispatch((float(t), 80), 0)
                                    for t in range(10, 20)],
        },
        # Not a class of its own: the DEFINE-sample gate's RNG is the
        # only state a selection has, and only a sampled one has it.
        "sampled_selection": {
            "make": _make_sampled_selection,
            "prefix": lambda node: [node.dispatch((float(t), 80), 0)
                                    for t in range(40)],
            "suffix": lambda node: [node.dispatch((float(t), 80), 0)
                                    for t in range(40, 80)],
        },
        AggregationNode: {
            "make": _make_aggregation,
            "prefix": lambda node: [
                node.dispatch((i // 10, 1000 + i % 3, 1, 40 + i), 0)
                for i in range(30)],
            "suffix": lambda node: ([
                node.dispatch((3 + i // 10, 1000 + i % 3, 1, 40 + i), 0)
                for i in range(30)], node.flush()),
        },
        JoinNode: {
            "make": _make_join,
            "prefix": lambda node: [
                (node.dispatch((t, 80 + t % 2), 0),
                 node.dispatch((t, 80), 1) if t % 3 == 0 else None)
                for t in range(10)],
            "suffix": lambda node: ([
                (node.dispatch((t, 80), 0), node.dispatch((t, 80), 1))
                for t in range(10, 16)], node.flush()),
        },
        MergeNode: {
            "make": _make_merge,
            "prefix": lambda node: ([node.dispatch((t, 80), 0)
                                     for t in range(8)],
                                    node.dispatch((2, 443), 1)),
            "suffix": lambda node: ([node.dispatch((t, 443), 1)
                                     for t in range(3, 9)], node.flush()),
        },
        SessionizeNode: {
            "make": _make_sessionize,
            "prefix": feed_packets(0, 25),
            "suffix": lambda node: (feed_packets(25, 60)(node),
                                    node.flush()),
        },
        TcpReassemblyNode: {
            "make": _make_tcp_reassembly,
            "prefix": lambda node: [node.accept_packet(p)
                                    for p in _tcp_segments()[:3]],
            "suffix": lambda node: ([node.accept_packet(p)
                                     for p in _tcp_segments()[3:]],
                                    node.flush()),
        },
        DefragNode: {
            "make": _make_defrag,
            "prefix": lambda node: [node.accept_packet(f)
                                    for f in _defrag_fragments()[:-1]],
            "suffix": lambda node: (node.accept_packet(
                _defrag_fragments()[-1]), node.flush()),
        },
        TriggerNode: {
            "make": _make_trigger,
            "prefix": _trigger_prefix,
            "suffix": _trigger_suffix,
        },
        AlertBusNode: {
            "make": _make_bus,
            "prefix": lambda bus: (bus.dispatch(_bus_row(1.0), 0),
                                   bus.on_flush(0)),
            "suffix": lambda bus: (bus.dispatch(_bus_row(2.0), 1),
                                   bus.on_flush(1)),
        },
        TelemetryStreamNode: {
            "make": _make_telemetry_stream,
            "prefix": lambda node: node.publish(
                [(0.5, b"c0", 1, 1, 0, 0, 0.0, 0.0)], 0.5),
            "suffix": lambda node: node.publish(
                [(1.5, b"c0", 2, 2, 0, 0, 0.0, 0.0)], 1.5),
        },
    }


def _sink_round_trip(sink_cls):
    """Sinks have no subscribers; their observable output is the file."""
    _, plan, _ = _compile("DEFINE query_name s; "
                          "Select time, destPort From tcp")

    def make():
        handle = io.StringIO()
        return sink_cls("s_sink", plan.output_schema, handle), handle

    original, handle_a = make()
    for t in range(5):
        original.dispatch((float(t), 80), 0)
    prefix_len = len(handle_a.getvalue())
    blob = encode_snapshot(original.snapshot_state())
    restored, handle_b = make()
    header_len = len(handle_b.getvalue())  # CsvSink emits its header at init
    restored.restore_state(decode_snapshot(blob))
    assert encode_snapshot(restored.snapshot_state()) == blob
    assert restored.rows_written == original.rows_written
    for node in (original, restored):
        for t in range(5, 9):
            node.dispatch((float(t), 80), 0)
        node.flush()
    assert handle_b.getvalue()[header_len:] == handle_a.getvalue()[prefix_len:]
    assert (encode_snapshot(restored.snapshot_state())
            == encode_snapshot(original.snapshot_state()))


def _in_rts(case):
    """A case's fresh node registered with an RTS of its own (what the
    state log cuts from and restores into), plus its output channel."""
    from repro.core.stream_manager import RuntimeSystem
    rts = RuntimeSystem(metrics=False)
    node = case["make"]()
    rts.register_node(node)
    return rts, node, node.subscribe()


def _case_name(case):
    return case if isinstance(case, str) else case.__name__


def _case_ids():
    return sorted(_cases(), key=_case_name)


class TestSnapshotContract:
    def test_every_operator_class_has_a_case(self):
        cases = _cases()
        from repro.sinks import CsvSink, JsonlSink
        covered = set(cases) | {CsvSink, JsonlSink}
        exempt = _exempt_classes()
        missing = sorted(
            cls.__module__ + "." + cls.__qualname__
            for cls in _all_node_classes()
            if cls not in covered and cls not in exempt)
        assert not missing, (
            f"operator class(es) without a snapshot/restore round-trip "
            f"case: {missing}; add a case to tests/test_snapshot_contract"
            f".py (or an explicit exemption with a reason)")

    @pytest.mark.parametrize("node_cls", _case_ids(), ids=_case_name)
    def test_round_trip_preserves_behavior(self, node_cls):
        case = _cases()[node_cls]
        name = _case_name(node_cls)
        original = case["make"]()
        out_a = original.subscribe()
        case["prefix"](original)
        out_a.drain()
        blob = encode_snapshot(original.snapshot_state())

        restored = case["make"]()
        out_b = restored.subscribe()
        restored.restore_state(decode_snapshot(blob))
        # The restored state must re-encode to the same bytes at once...
        assert encode_snapshot(restored.snapshot_state()) == blob, \
            f"{name}: snapshot does not re-encode stably"

        # ...and behave identically from here on.
        case["suffix"](original)
        case["suffix"](restored)
        rows_a = [repr(item) for item in out_a.drain()]
        rows_b = [repr(item) for item in out_b.drain()]
        assert rows_b == rows_a, \
            f"{name}: restored node diverged after restore"
        assert (encode_snapshot(restored.snapshot_state())
                == encode_snapshot(original.snapshot_state())), \
            f"{name}: snapshots diverged after more input"

    @pytest.mark.parametrize("node_cls", _case_ids(), ids=_case_name)
    def test_fold_of_deltas_equals_a_full_cut(self, node_cls):
        case = _cases()[node_cls]
        name = _case_name(node_cls)
        rts, node, out = _in_rts(case)
        log = StateLog()

        def cut_and_fold(boundary):
            at = (float(boundary), boundary, {"boundary": boundary})
            frame = log.cut(rts, *at)
            log.fold(frame)
            # state is the integral of its deltas: the fold re-emits
            # the frame a fresh log cuts here, blobs, counters, cursor
            # and all
            assert log.full_frame() == StateLog().cut(rts, *at), \
                f"{name}: fold diverged from a full cut at {boundary}"
            return decode_frame(frame)

        assert cut_and_fold(0)["kind"] == "full"
        case["prefix"](node)
        out.drain()
        delta = cut_and_fold(1)
        assert delta["kind"] == "delta" and set(delta["nodes"]) == {node.name}
        assert cut_and_fold(2)["nodes"] == {}, \
            f"{name}: an idle boundary shipped state"

        # A mid-run restore from the fold, then the rest of the input.
        twin_rts, twin, twin_out = _in_rts(case)
        log.restore(twin_rts)
        case["suffix"](node)
        case["suffix"](twin)
        assert ([repr(item) for item in twin_out.drain()]
                == [repr(item) for item in out.drain()]), \
            f"{name}: node restored from the fold diverged"
        cut_and_fold(3)
        assert StateLog().cut(twin_rts, 3.0, 3, {"boundary": 3}) \
            == log.full_frame(), \
            f"{name}: state diverged after a restore from the fold"

    def test_join_index_is_not_on_the_wire(self):
        """The keyed join's buckets are derived state: the snapshot is
        the bytes the nested-loop join (the commit before the index)
        wrote for the same input, and a restore rebuilds buckets that
        answer every probe like the live node's."""
        from repro.operators.join import JoinNode
        case = _cases()[JoinNode]
        original = case["make"]()
        assert original.plan.join_keys
        case["prefix"](original)
        for i in range(12):   # several rows per key inside the open window
            original.dispatch((9, 80 + i % 3), i % 2)
        blob = encode_snapshot(original.snapshot_state())
        assert hashlib.sha256(blob).hexdigest() == NESTED_LOOP_JOIN_SNAPSHOT
        restored = case["make"]()
        restored.restore_state(decode_snapshot(blob))
        assert original.buffered and restored.buffered == original.buffered
        for side in (0, 1):
            for key in list(original._index[side]) + [(81,), (9999,)]:
                for window in ((0, 9), (3, 3), (7, 100)):
                    assert (restored._window_candidates(side, key, *window)
                            == original._window_candidates(side, key, *window))

    def test_csv_sink_round_trip(self):
        from repro.sinks import CsvSink
        _sink_round_trip(CsvSink)

    def test_jsonl_sink_round_trip(self):
        from repro.sinks import JsonlSink
        _sink_round_trip(JsonlSink)
