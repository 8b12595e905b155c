"""Checkpoint/restore, the recovery supervisor, and verified gap repair."""

import hashlib
import io
import math
import os
import struct

import pytest

from repro import Gigascope
from repro.faults import OperatorFault
from repro.recovery import (
    MAGIC,
    SNAPSHOT_VERSION,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    decode_snapshot,
    encode_snapshot,
)
from repro.workloads.flows import ZipfFlowWorkload
from tests.conftest import tcp_packet


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

class TestWireFormat:
    def test_round_trip_every_primitive(self):
        state = {
            "none": None,
            "bools": (True, False),
            "ints": [0, -1, 2**80, -(2**80)],
            "floats": (0.0, -0.0, 1.5, float("inf"), -math.inf),
            "text": "héllo\x00world",
            "blob": bytes(range(256)),
            ("tuple", "key"): {"nested": [(1, 2.5, b"x"), []]},
        }
        assert decode_snapshot(encode_snapshot(state)) == state

    def test_nan_round_trips_bit_identical(self):
        blob = encode_snapshot(float("nan"))
        assert math.isnan(decode_snapshot(blob))

    def test_tuple_list_distinction_preserved(self):
        # RNG getstate() trees mix tuples and lists; restore must hand
        # random.setstate a tuple, not a list.
        decoded = decode_snapshot(encode_snapshot((3, (1, 2, 3), [4, 5])))
        assert type(decoded) is tuple
        assert type(decoded[1]) is tuple
        assert type(decoded[2]) is list

    def test_rng_state_round_trips(self):
        import random
        rng = random.Random(99)
        rng.random()
        restored = random.Random()
        restored.setstate(decode_snapshot(encode_snapshot(rng.getstate())))
        assert restored.random() == rng.random()

    def test_insertion_order_preserved(self):
        state = {"b": 1, "a": 2}
        assert list(decode_snapshot(encode_snapshot(state))) == ["b", "a"]

    def test_corrupt_payload_rejected(self):
        blob = bytearray(encode_snapshot({"k": 12345}))
        blob[10] ^= 0xFF
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            decode_snapshot(bytes(blob))

    def test_bad_magic_rejected(self):
        blob = b"XXXX" + encode_snapshot(1)[4:]
        with pytest.raises(SnapshotCorruptError, match="magic"):
            decode_snapshot(blob)

    def test_truncated_blob_rejected(self):
        blob = encode_snapshot({"k": "value"})
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(blob[: len(blob) // 2])

    def test_unencodable_type_rejected(self):
        with pytest.raises(SnapshotError, match="set"):
            encode_snapshot({"bad": {1, 2}})

    def test_old_version_rejected_with_clear_error(self):
        # The version field sits outside the checksummed payload, so a
        # stale version N-1 blob is otherwise intact -- it must still
        # be refused, by version, with both versions named.
        blob = bytearray(encode_snapshot({"k": 1}))
        struct.pack_into(">H", blob, len(MAGIC), SNAPSHOT_VERSION - 1)
        with pytest.raises(SnapshotVersionError) as excinfo:
            decode_snapshot(bytes(blob))
        message = str(excinfo.value)
        assert str(SNAPSHOT_VERSION - 1) in message
        assert str(SNAPSHOT_VERSION) in message

    def test_future_version_rejected(self):
        blob = bytearray(encode_snapshot({"k": 1}))
        struct.pack_into(">H", blob, len(MAGIC), SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotVersionError):
            decode_snapshot(bytes(blob))


# ---------------------------------------------------------------------------
# Operator snapshot format stability (golden bytes)
# ---------------------------------------------------------------------------
#
# Each builder constructs one stateful operator, drives a fixed input
# sequence, and returns the node.  The test encodes snapshot_state()
# and compares the digest of the bytes against a recorded golden: any
# change to an operator's state layout or to the wire encoding fails
# here, which is the signal to bump SNAPSHOT_VERSION (old checkpoints
# must be rejected, not misread into new-layout state).

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


def _fixed_packets(count=40):
    return [tcp_packet(ts=i * 0.25, sport=1000 + i % 7, dport=80,
                       payload=b"x" * (1 + i % 5))
            for i in range(count)]


def _build_table():
    from repro.operators.lfta_table import DirectMappedTable
    table = DirectMappedTable(8)
    for i in range(12):
        table.insert(("10.0.0.%d" % i, 80), (i, float(i)))
    return table


def _build_lfta():
    from repro.operators.lfta import LftaNode
    analyzed, plan, compiler = _compile(
        "DEFINE { query_name q; sample 0.5; } "
        "Select tb, srcPort, count(*) From tcp "
        "Group by time/5 as tb, srcPort")
    lfta = LftaNode(plan.lftas[0], analyzed, compiler, table_size=4, seed=7)
    lfta.subscribe()
    for packet in _fixed_packets():
        lfta.accept_packet(packet)
    return lfta


def _build_aggregation():
    from repro.operators.aggregation import AggregationNode
    analyzed, plan, compiler = _compile(
        "DEFINE query_name a; Select tb, srcPort, count(*), sum(len) "
        "From tcp Group by time/5 as tb, srcPort")
    node = AggregationNode(plan.hfta, analyzed, compiler, seed=7)
    node.subscribe()
    for i in range(30):
        node.dispatch((i // 10, 1000 + i % 3, 1, 40 + i), 0)
    return node


def _two_streams():
    _, plan_a, _ = _compile("DEFINE query_name sa; "
                            "Select time, destPort From tcp")
    _, plan_b, _ = _compile("DEFINE query_name sb; "
                            "Select time, destPort From tcp")
    return {"sa": plan_a.output_schema, "sb": plan_b.output_schema}


def _build_join():
    from repro.operators.join import JoinNode
    streams = _two_streams()
    analyzed, plan, compiler = _compile(
        "DEFINE query_name j; Select A.time, A.destPort, B.destPort "
        "From sa A, sb B Where A.time = B.time", streams=streams)
    node = JoinNode(plan.hfta, analyzed, compiler)
    node.subscribe()
    for t in range(10):
        node.dispatch((t, 80 + t % 2), 0)
        if t % 3 == 0:
            node.dispatch((t, 80), 1)
    return node


def _build_merge():
    from repro.operators.merge import MergeNode
    streams = _two_streams()
    analyzed, plan, _ = _compile(
        "DEFINE query_name m; Merge sa.time : sb.time From sa, sb",
        streams=streams)
    node = MergeNode(plan.hfta, analyzed, buffer_capacity=16)
    node.subscribe()
    for t in range(8):
        node.dispatch((t, 80), 0)
    node.dispatch((2, 443), 1)
    return node


def _build_sessionize():
    from repro.operators.sessionize import SessionizeNode
    node = SessionizeNode("sess", idle_timeout=5.0)
    node.subscribe()
    for packet in _fixed_packets():
        node.accept_packet(packet)
    return node


def _build_tcp_reassembly():
    from repro.net.tcp import FLAG_ACK, FLAG_SYN
    from repro.operators.tcp_reassembly import TcpReassemblyNode
    node = TcpReassemblyNode("tcpre")
    node.subscribe()
    node.accept_packet(tcp_packet(ts=0.0, seq=100, flags=FLAG_SYN))
    node.accept_packet(tcp_packet(ts=0.1, seq=101, payload=b"hello ",
                                  flags=FLAG_ACK))
    # A gap: this segment waits in the out-of-order buffer.
    node.accept_packet(tcp_packet(ts=0.2, seq=117, payload=b"stream",
                                  flags=FLAG_ACK))
    return node


def _build_defrag():
    from repro.gsql.schema import builtin_registry
    from repro.operators.defrag import DefragNode
    from tests.test_operators_defrag import fragmented_udp
    node = DefragNode("defrag0", builtin_registry().get("udp"))
    node.subscribe()
    fragments, _ = fragmented_udp(payload_len=2000, mtu=600)
    # Hold back the last fragment so reassembly state stays pending.
    for fragment in fragments[:-1]:
        node.accept_packet(fragment)
    return node


def _build_csv_sink():
    from repro.sinks import CsvSink
    _, plan, _ = _compile("DEFINE query_name s; "
                          "Select time, destPort From tcp")
    sink = CsvSink("s_sink", plan.output_schema, io.StringIO())
    for t in range(5):
        sink.dispatch((t, 80), 0)
    return sink


_GOLDEN_BUILDERS = {
    "table": _build_table,
    "lfta": _build_lfta,
    "aggregation": _build_aggregation,
    "join": _build_join,
    "merge": _build_merge,
    "sessionize": _build_sessionize,
    "tcp_reassembly": _build_tcp_reassembly,
    "defrag": _build_defrag,
    "csv_sink": _build_csv_sink,
}

# sha256 of each operator's encoded snapshot under the fixed inputs
# above, for wire format version 2 (sparse LFTA table slots, elided
# untouched shed-RNG state).  A mismatch means the snapshot layout
# changed: bump SNAPSHOT_VERSION and regenerate these.
_GOLDEN_SHA256 = {
    "table": "d97041644e71c28b5720626c2c603200832e84fa4247b95b6c59d76a0673a047",
    "lfta": "0709919f71ffb0d510d1d30da358fd680b48a43747fa6405634375caa2e9b4f2",
    "aggregation":
        "3f6969efd5fdc97b18f0b557d92b2c0d9b0d66ff8af9c58971ddc19ba378f717",
    "join": "3571311041dc0cac529c977422d7f197afda11bafec35c390ec3e424913caa77",
    "merge": "05ebfa7bcc7ff0eedf315b6e8d0503f952c933745b85d73ca01d0bae176a03b5",
    "sessionize":
        "f679288b3375974021b6216244326c28d92756bb9a95dc7ac9d5b26475740074",
    "tcp_reassembly":
        "bf8679f5c711c4b60d458408b01d79c035eeaa6b8c89e9871a742b37e602f1ca",
    "defrag": "4280f27cc58c22753a9184350a5e765b76bd057d3671ac05af0a124f5460b2d1",
    "csv_sink":
        "7cc9ca2db4bfa9a0214f95e722e76e431eadad9e6f27e3a09fb89f682022d833",
}


class TestSnapshotGoldens:
    @pytest.mark.parametrize("name", sorted(_GOLDEN_BUILDERS))
    def test_snapshot_bytes_are_stable(self, name):
        blob = encode_snapshot(_GOLDEN_BUILDERS[name]().snapshot_state())
        assert hashlib.sha256(blob).hexdigest() == _GOLDEN_SHA256[name], (
            f"{name} snapshot bytes changed; if the state layout changed, "
            f"bump repro.recovery.wire.SNAPSHOT_VERSION and regenerate "
            f"the goldens"
        )

    @pytest.mark.parametrize("name", sorted(_GOLDEN_BUILDERS))
    def test_snapshot_restore_round_trip(self, name):
        node = _GOLDEN_BUILDERS[name]()
        blob = encode_snapshot(node.snapshot_state())
        node.restore_state(decode_snapshot(blob))
        assert encode_snapshot(node.snapshot_state()) == blob

    def test_table_size_mismatch_rejected(self):
        from repro.operators.lfta_table import DirectMappedTable
        blob = encode_snapshot(_build_table().snapshot_state())
        other = DirectMappedTable(16)
        with pytest.raises(ValueError, match="size"):
            other.restore_state(decode_snapshot(blob))


# ---------------------------------------------------------------------------
# Supervisor: inline recovery, backoff, retry budget
# ---------------------------------------------------------------------------

AGG_QUERY = """
    DEFINE query_name flows;
    Select tb, srcIP, count(*), sum(len)
    From tcp
    Group by time/1 as tb, srcIP
"""


def _run(crash=None, times=1, max_restarts=3, checkpoint_interval=0.4,
         count=1500, seed=11):
    """One engine run; ``crash`` arms a transient OperatorFault."""
    gs = Gigascope(seed=seed, lfta_table_size=32, channel_capacity=256,
                   heartbeat_interval=0.25)
    gs.add_query(AGG_QUERY)
    sub = gs.subscribe("flows")
    supervisor = gs.enable_recovery(checkpoint_interval=checkpoint_interval,
                                    max_restarts=max_restarts)
    gs.start()
    if crash is not None:
        node, at_tuple = crash
        gs.inject_faults([OperatorFault(node, at_tuple=at_tuple,
                                        times=times)])
    workload = ZipfFlowWorkload(num_flows=150, alpha=1.0, seed=seed)
    gs.feed(workload.packets(count, pps=1000.0), pump_every=64)
    gs.flush()
    return gs, sub, supervisor


class TestInlineRecovery:
    def test_crash_run_matches_clean_run(self):
        clean_gs, clean_sub, _ = _run()
        crash_gs, crash_sub, supervisor = _run(crash=("flows", 80))
        assert supervisor.restarts_total == 1
        assert supervisor.replayed_items > 0
        # Byte-identical repair: same rows, same statistics, no
        # quarantine, nothing lost and nothing duplicated.
        assert crash_sub.poll() == clean_sub.poll()
        assert crash_gs.stats() == clean_gs.stats()
        assert crash_gs.rts.quarantined == {}
        assert crash_gs.rts.nodes_quarantined == 0

    def test_lfta_crash_recovers_from_packet_journal(self):
        clean_gs, clean_sub, _ = _run()
        lfta_gs = Gigascope(seed=11, lfta_table_size=32,
                            channel_capacity=256, heartbeat_interval=0.25)
        lfta_gs.add_query(AGG_QUERY)
        sub = lfta_gs.subscribe("flows")
        supervisor = lfta_gs.enable_recovery(checkpoint_interval=0.4)
        lfta_gs.start()
        lfta_name = next(n for n, _ in lfta_gs.rts.iter_nodes()
                         if n.startswith("_fta_"))
        lfta_gs.inject_faults([OperatorFault(lfta_name, at_tuple=500,
                                             times=1)])
        workload = ZipfFlowWorkload(num_flows=150, alpha=1.0, seed=11)
        lfta_gs.feed(workload.packets(1500, pps=1000.0), pump_every=64)
        lfta_gs.flush()
        assert supervisor.restarts_total == 1
        assert sub.poll() == clean_sub.poll()
        assert lfta_gs.stats() == clean_gs.stats()

    def test_recovery_report_and_metrics(self):
        gs, _sub, supervisor = _run(crash=("flows", 80))
        report = gs.recovery_report()
        assert report["restarts"] == {"flows": 1}
        assert report["checkpoints_taken"] >= 2
        assert report["checkpoint_bytes"] > 0
        assert report["suspended"] == []
        exposition = gs.metrics.to_prometheus()
        assert "gs_recovery_restarts_total 1" in exposition
        assert "gs_recovery_checkpoints_total" in exposition

    def test_no_supervisor_means_quarantine_unchanged(self):
        gs = Gigascope(seed=11)
        gs.add_query(AGG_QUERY)
        sub = gs.subscribe("flows")
        gs.start()
        gs.inject_faults([OperatorFault("flows", at_tuple=10)])
        workload = ZipfFlowWorkload(num_flows=150, alpha=1.0, seed=11)
        gs.feed(workload.packets(800, pps=1000.0))
        gs.flush()
        assert "flows" in gs.rts.quarantined
        assert gs.recovery_report() is None
        sub.poll()
        assert sub.ended


class TestBackoffAndBudget:
    def test_repeated_crash_suspends_then_recovers(self):
        # times=2: the replay of attempt 1 re-crashes (the injector
        # fires again), forcing a suspension and a backoff retry that
        # then succeeds.
        gs, sub, supervisor = _run(crash=("flows", 80), times=2)
        assert supervisor.restarts_total == 2
        assert supervisor.suspended == []
        assert gs.rts.quarantined == {}
        assert sub.poll()  # the query finished the stream

    def test_exhausted_budget_degrades_to_quarantine(self):
        # A permanent fault: every restart's replay crashes again until
        # the budget is spent, then containment is exactly PR 3's.
        gs, sub, supervisor = _run(crash=("flows", 80), times=None,
                                   max_restarts=2)
        assert supervisor.restarts_total == 2
        assert supervisor.retries_exhausted >= 1
        assert list(gs.rts.quarantined) == ["flows"]
        assert gs.rts.nodes_quarantined == 1
        report = gs.overload_report()
        assert list(report["quarantined"]) == ["flows"]
        assert "injected fault" in report["quarantined"]["flows"]
        sub.poll()
        assert sub.ended  # FLUSH propagated, no hang

    def test_quarantined_node_leaves_the_checkpoints(self):
        # An LFTA has no input channel to hold leftovers, so checkpoints
        # go on after its quarantine: the cut leaves the node out and
        # the fold drops its stale blob.
        gs, _sub, supervisor = _run(crash=("_fta_flows_0", 300), times=None,
                                    max_restarts=1)
        assert list(gs.rts.quarantined) == ["_fta_flows_0"]
        assert sorted(supervisor.checkpoints) == ["flows"]
        report = supervisor.report()
        assert report["checkpoint_nodes"] == 1
        assert report["checkpoint_bytes"] == len(
            supervisor.checkpoints["flows"])

    def test_zero_budget_is_immediate_quarantine(self):
        gs, _sub, supervisor = _run(crash=("flows", 80), max_restarts=0)
        assert supervisor.restarts_total == 0
        assert supervisor.retries_exhausted == 1
        assert list(gs.rts.quarantined) == ["flows"]

    def test_bad_supervisor_parameters_rejected(self):
        gs = Gigascope()
        for kwargs in ({"checkpoint_interval": 0},
                       {"max_restarts": -1},
                       {"backoff_base": 0.0},
                       {"backoff_factor": 0.5}):
            with pytest.raises(ValueError):
                gs.enable_recovery(**kwargs)


class TestSinkExactlyOnce:
    def test_sink_rows_written_once_across_recovery(self):
        from repro.sinks import CsvSink, attach_sink

        def run(crash):
            gs = Gigascope(seed=11, lfta_table_size=32,
                           channel_capacity=256, heartbeat_interval=0.25)
            gs.add_query(AGG_QUERY)
            buffer = io.StringIO()
            sink = attach_sink(gs, "flows", CsvSink, buffer)
            gs.enable_recovery(checkpoint_interval=0.4)
            gs.start()
            if crash:
                gs.inject_faults([OperatorFault(sink.name, at_tuple=20,
                                                times=1)])
            workload = ZipfFlowWorkload(num_flows=150, alpha=1.0, seed=11)
            gs.feed(workload.packets(1500, pps=1000.0), pump_every=64)
            gs.flush()
            return buffer.getvalue(), sink

        clean_text, _ = run(crash=False)
        crash_text, sink = run(crash=True)
        assert sink.rows_written > 20
        assert crash_text == clean_text  # no missing and no doubled lines


# ---------------------------------------------------------------------------
# In-process crash/clean differential over the registered scenarios
# ---------------------------------------------------------------------------

class TestVerifyRecoveryScenarios:
    @pytest.mark.parametrize("name", ["recovery_agg", "recovery_join",
                                      "recovery_tcp"])
    def test_crash_arm_is_byte_identical(self, name):
        from repro.determinism import Arm, axes_of, compare, run_scenario
        clean_arm = Arm()
        crash_arm = Arm(crash=axes_of(name).crash[0])
        clean = run_scenario(name, 7, clean_arm)
        crashed = run_scenario(name, 7, crash_arm)
        # The crash must actually have happened for the diff to prove
        # anything about recovery.
        assert crashed["drops"]["faults"][0]["triggered"] == 1
        assert compare(clean_arm, clean, crash_arm, crashed) == []


# ---------------------------------------------------------------------------
# Batch dispatch containment (sibling block integrity)
# ---------------------------------------------------------------------------

class TestBatchQuarantineIntegrity:
    def _engine_with_recorders(self, crash_at):
        from repro.core.query_node import QueryNode
        from repro.gsql.schema import builtin_registry

        schema = builtin_registry().get("tcp")

        class Recorder(QueryNode):
            def __init__(self, name):
                super().__init__(name, schema)
                self.seen = []

            def accept_packet(self, packet):
                self.seen.append(packet.timestamp)

            def snapshot_state(self):
                state = super().snapshot_state()
                state["seen"] = list(self.seen)
                return state

            def restore_state(self, state):
                super().restore_state(state)
                self.seen = list(state["seen"])

        class CrashingBatch(Recorder):
            def accept_batch(self, packets, views):
                for packet in packets:
                    if len(self.seen) == crash_at:
                        raise RuntimeError("mid-batch crash")
                    self.seen.append(packet.timestamp)

        gs = Gigascope(batch_size=16, heartbeat_interval=None)
        good = Recorder("good")
        bad = CrashingBatch("bad")
        gs.add_node(bad, interface="eth0")
        gs.add_node(good, interface="eth0")
        return gs, good, bad

    def test_mid_batch_crash_leaves_sibling_block_intact(self):
        gs, good, bad = self._engine_with_recorders(crash_at=5)
        gs.start()
        stream = [tcp_packet(ts=float(i)) for i in range(32)]
        gs.feed(stream, pump_every=64)
        gs.flush()
        # The crashing consumer was quarantined mid-block...
        assert "bad" in gs.rts.quarantined
        assert bad.seen == [float(i) for i in range(5)]
        # ...and its sibling still saw every packet of every block.
        assert good.seen == [float(i) for i in range(32)]
        assert gs.rts.batches_fed >= 2

    def test_mid_batch_crash_recovers_with_supervisor(self):
        gs, good, bad = self._engine_with_recorders(crash_at=5)
        gs.enable_recovery(checkpoint_interval=1000.0)
        gs.start()
        stream = [tcp_packet(ts=float(i)) for i in range(32)]
        gs.feed(stream, pump_every=64)
        gs.flush()
        assert gs.rts.quarantined == {}
        # Replay from the packet journal re-delivered the whole stream:
        # the crash consumed none of it durably, recovery all of it.
        assert bad.seen == [float(i) for i in range(32)]
        assert good.seen == [float(i) for i in range(32)]
