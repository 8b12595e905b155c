"""Checkpoint/restore, the recovery supervisor, and verified gap repair."""

import hashlib
import io
import marshal
import math
import os
import struct
import subprocess
import sys
import zlib

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
from repro.determinism import comparable, snapshot_engine
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

    def test_self_containing_value_rejected(self):
        cycle = [1]
        cycle.append({"again": cycle})
        with pytest.raises(SnapshotError, match="contains itself"):
            encode_snapshot(cycle)

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


class TestPreviousVersionRefused:
    """A slot index only means something under the placement that chose
    it: an LFTA table snapshot taken by the previous build (version
    ``SNAPSHOT_VERSION - 1``, slots by ``stable_hash``) must be refused
    by version, never restored into misplaced slots."""

    @staticmethod
    def previous(encode, *args):
        """``encode(*args)`` as the previous build wrote it."""
        from repro.recovery import wire
        current = wire.SNAPSHOT_VERSION
        wire.SNAPSHOT_VERSION = current - 1
        try:
            return encode(*args)
        finally:
            wire.SNAPSHOT_VERSION = current

    def test_checkpoint_blob(self):
        node = _build_lfta()
        blob = self.previous(encode_snapshot, node.snapshot_state())
        with pytest.raises(SnapshotVersionError, match=(
                f"version {SNAPSHOT_VERSION - 1} is not supported")):
            decode_snapshot(blob)

    def test_state_log_frame(self):
        from repro.recovery.statelog import FrameVersionError, StateLog
        gs = Gigascope(seed=3, lfta_table_size=16)
        gs.add_query("DEFINE query_name q; Select tb, srcPort, count(*) "
                     "From tcp Group by time/5 as tb, srcPort")
        gs.start()
        gs.feed(_fixed_packets())
        assert gs.rts.node("_fta_q_0").table.lookups > 0
        frame = self.previous(StateLog().cut, gs.rts, 10.0, 40)
        assert frame is not None
        standby = Gigascope(seed=3, lfta_table_size=16)
        standby.add_query("DEFINE query_name q; Select tb, srcPort, "
                          "count(*) From tcp Group by time/5 as tb, srcPort")
        standby.start()
        log = StateLog()
        with pytest.raises(FrameVersionError, match=str(SNAPSHOT_VERSION)):
            log.fold(frame, into=standby.rts)
        assert log.seq == -1
        assert standby.rts.node("_fta_q_0").table.lookups == 0


class TestCodecDeterminism:
    """The payload is marshal format 2 because its bytes are a function
    of the value alone: format 3 added interned-string codes and a
    reference table, which would make them follow object identity."""

    def test_equal_values_built_differently_encode_equal(self):
        interned = sys.intern("flows_highcard")
        fresh = "".join(["flows_", "highcard"])
        assert fresh == interned and fresh is not interned
        row = (7, "10.0.0.1", 2.5)
        shared = [row, -0.0, b"x"]
        aliased = {interned: [shared, shared], "rows": (row, row),
                   (interned, 1): shared}
        copied = {fresh: [[tuple([7, "10.0.0.1", 2.5]), -0.0, b"x"],
                          list(shared)],
                  "rows": (tuple(list(row)), tuple(list(row))),
                  (fresh, 1): list(shared)}
        assert aliased == copied
        assert encode_snapshot(aliased) == encode_snapshot(copied)

    def test_distinct_values_stay_distinct(self):
        nan, other_nan = (struct.unpack(">d", bytes.fromhex(bits))[0]
                          for bits in ("7ff8000000000000",
                                       "7ff8000000000001"))
        for one, two in ((True, 1), (False, 0), (0.0, -0.0),
                         (nan, other_nan), ((1,), [1]), (b"x", "x")):
            assert encode_snapshot(one) != encode_snapshot(two), (one, two)
        for value in (-0.0, nan, other_nan):
            decoded = decode_snapshot(encode_snapshot(value))
            assert struct.pack(">d", decoded) == struct.pack(">d", value)
        assert decode_snapshot(encode_snapshot([True, 1])) == [True, 1]
        assert [type(v) for v in decode_snapshot(
            encode_snapshot([True, 1]))] == [bool, int]

    def test_bytes_do_not_follow_the_hash_seed(self):
        """Two fresh interpreters, ``PYTHONHASHSEED`` 1 and 2: the same
        checkpoint frame of the same run, byte for byte."""
        script = (
            "import hashlib\n"
            "from repro import Gigascope\n"
            "from repro.recovery.statelog import StateLog\n"
            "from tests.test_recovery import _fixed_packets\n"
            "gs = Gigascope(seed=3, lfta_table_size=16)\n"
            "gs.add_query('DEFINE query_name q; Select tb, srcIP, "
            "count(*), avg(len) From tcp Group by time/5 as tb, srcIP')\n"
            "gs.start()\n"
            "gs.feed(_fixed_packets())\n"
            "frame = StateLog().cut(gs.rts, 10.0, 40)\n"
            "print(len(frame), hashlib.sha256(frame).hexdigest())\n")
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [os.path.join(repo, "src"), repo]))
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=repo,
                capture_output=True, text=True, check=True).stdout)
        assert outputs[0] == outputs[1] and outputs[0].strip()


def _framed(payload):
    """``payload`` in a GSCK frame of this version with a correct crc32."""
    return (MAGIC + struct.pack(">H", SNAPSHOT_VERSION) + payload
            + struct.pack(">I", zlib.crc32(payload)))


#: values marshal writes that the snapshot format refuses
_FOREIGN = {
    "set": {"a", "b"},
    "frozenset": frozenset({1, 2}),
    "complex": 1j,
    "nested set": {"state": [1, (2, {3})]},
}


class TestForeignPayloadsRefused:
    """A frame whose checksum holds but whose payload marshal decodes
    to a type outside the nine snapshot types, or that carries bytes
    after its value, is corrupt -- and through the state log names its
    node and moves nothing."""

    CASES = sorted(_FOREIGN) + ["self-containing", "trailing bytes"]

    @staticmethod
    def payload(case, envelope):
        """``envelope`` with trailing bytes, or with a foreign state."""
        if case == "trailing bytes":
            return marshal.dumps(envelope, 2) + b"\x00"
        if case == "self-containing":
            # format 3's reference code lets marshal.loads build a cycle
            cycle = []
            cycle.append(cycle)
            return marshal.dumps(dict(envelope, state=cycle), 3)
        return marshal.dumps(dict(envelope, state=_FOREIGN[case]), 2)

    def test_framing_is_the_encoders(self):
        assert _framed(marshal.dumps({"k": 1}, 2)) == encode_snapshot(
            {"k": 1})

    @pytest.mark.parametrize("case", CASES)
    def test_decode_refuses(self, case):
        with pytest.raises(SnapshotCorruptError):
            decode_snapshot(_framed(self.payload(case, {"k": 1})))

    @pytest.mark.parametrize("case", CASES)
    def test_the_state_log_names_the_node_and_moves_nothing(self, case):
        from repro.recovery.statelog import (FrameCorruptError, StateLog,
                                             decode_frame, encode_frame)

        def engine():
            gs = Gigascope(seed=3, lfta_table_size=16)
            gs.add_query("DEFINE query_name q; Select tb, srcPort, count(*) "
                         "From tcp Group by time/5 as tb, srcPort")
            gs.start()
            return gs

        primary = engine()
        primary.feed(_fixed_packets())
        good = StateLog().cut(primary.rts, 10.0, 40)
        frame = decode_frame(good)
        name = "_fta_q_0"
        nodes = dict(frame["nodes"], **{name: _framed(self.payload(
            case, decode_snapshot(frame["nodes"][name])))})
        bad = encode_frame("full", 0, frame["time"], frame["cursor"],
                           frame["counters"], nodes)
        standby = engine()
        before = StateLog().cut(standby.rts, 0.0, 0)
        log = StateLog()
        with pytest.raises(FrameCorruptError, match=repr(name)):
            log.fold(bad, into=standby.rts)
        assert (log.seq, log.nodes) == (-1, {})
        assert StateLog().cut(standby.rts, 0.0, 0) == before
        log.fold(good, into=standby.rts)
        assert StateLog().cut(standby.rts, 10.0, 40) == good


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
# above, for wire format version 4 (a marshal format 2 payload; the
# LFTA table's occupied slots and the aggregation's open groups as
# columns).  A mismatch means the snapshot layout changed: bump
# SNAPSHOT_VERSION and regenerate these -- each is
# ``hashlib.sha256(encode_snapshot(_GOLDEN_BUILDERS[name]()
# .snapshot_state())).hexdigest()``.
_GOLDEN_SHA256 = {
    "table": "6433f182471e1541f745cec12b6353b864c102e43f0d3fabad5761b9cd217352",
    "lfta": "045b514ff323fc7391b510c16d760c17343efd7a4447e43db228ff0bfda6489a",
    "aggregation":
        "25096e5f97a66d3273ef000ac44e7af4141345300b08b040e04c010893ce32f9",
    "join": "79724bfdecae314d3f1c2f240413db1f639b4dc4cf34cc0861e4513d0e7221d5",
    "merge": "d10422a39cd997ec980c505758fddf5b24a497b45a27b2cc844b5812612e3655",
    "sessionize":
        "7774f7ef1e70b9f2966d9747b6505c9a1cf12745b9f58e41368be82629a2515e",
    "tcp_reassembly":
        "4da113fdadc431b17ceabfb0584a43875b79066f36981ff0fead840cc4cc2741",
    "defrag": "57727a8ff9eafcc2a3d85c5744113977bb587cd4786625af561ff2d91c3e3077",
    "csv_sink":
        "e0d4ac7e8dced03e4e3df54a15c6465e67e625d62502b6abc71f50d57d1904eb",
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

    @pytest.mark.parametrize("crash, kept", [
        (("_fta_flows_0", 300), "flows"), (("flows", 80), "_fta_flows_0")],
        ids=["lfta", "hfta"])
    def test_quarantined_node_leaves_the_checkpoints(self, crash, kept):
        # Checkpoints go on after a quarantine: the cut leaves the node
        # out, the fold drops its stale blob, and what the node left in
        # its input channel (an HFTA's) defers no later cut.
        gs, _sub, supervisor = _run(crash=crash, times=None, max_restarts=1)
        assert list(gs.rts.quarantined) == [crash[0]]
        assert sorted(supervisor.checkpoints) == [kept]
        report = supervisor.recovery_report()
        assert report["checkpoint_nodes"] == 1
        assert report["checkpoint_bytes"] == len(
            supervisor.checkpoints[kept])

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

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), 2.5,
                                        True, -1, "3", None])
    def test_a_budget_that_cannot_run_out_is_refused(self, budget):
        """``used >= max_restarts`` is never true under NaN: a permanent
        fault was retried until ``backoff_factor ** used`` raised
        ``OverflowError`` out of ``flush``."""
        gs = Gigascope()
        with pytest.raises(ValueError, match=r"^max_restarts must be an "
                                             r"integer >= 0, got "):
            gs.enable_recovery(max_restarts=budget)
        assert "recovery" not in gs.rts.planes

    @pytest.mark.parametrize("name", ["checkpoint_interval", "backoff_base",
                                      "backoff_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_supervisor_parameters_are_refused_by_name(
            self, name, value):
        gs = Gigascope()
        with pytest.raises(ValueError, match=f"^{name} must be a "
                                             f"(positive )?finite number"
                                             f"( >= 1)?, got {value}$"):
            gs.enable_recovery(**{name: value})
        assert "recovery" not in gs.rts.planes


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
            crashed = False  # not state: a transient fault fires once

            def accept_batch(self, packets):
                for packet in packets:
                    if len(self.seen) == crash_at and not self.crashed:
                        self.crashed = True
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
        # The rollback re-fed the journaled blocks to every consumer:
        # the crash consumed none of it durably, recovery all of it.
        assert bad.seen == [float(i) for i in range(32)]
        assert good.seen == [float(i) for i in range(32)]


# ---------------------------------------------------------------------------
# Rollback: the whole engine goes back to the checkpoint, once
# ---------------------------------------------------------------------------

def _lfta(gs):
    return next(node for name, node in gs.rts.iter_nodes()
                if name.startswith("_fta_"))


def _flows_packets(count=1500):
    workload = ZipfFlowWorkload(num_flows=150, alpha=1.0, seed=11)
    return list(workload.packets(count, pps=1000.0))


E11_QUERIES = """
    DEFINE query_name heavy;
    Select time, len From tcp Where str_match_regex(data, '.*');

    DEFINE query_name totals;
    Select tb, count(*), sum(len) From tcp Group by time/1 as tb
"""


class TestWholeSnapshotAfterRollback:
    """A crash arm equals its clean arm on everything ``replay verify``
    compares between them: rows, statistics, the drop ledger and every
    metric family but ``gs_recovery*``."""

    def test_lfta_crash(self):
        def run(crash):
            gs = Gigascope(seed=11, lfta_table_size=32,
                           channel_capacity=256, heartbeat_interval=0.25)
            gs.add_query(AGG_QUERY)
            subs = {"flows": gs.subscribe("flows")}
            supervisor = gs.enable_recovery(checkpoint_interval=0.4)
            gs.start()
            if crash:
                gs.inject_faults([OperatorFault(_lfta(gs).name, at_tuple=500,
                                                times=1)])
            gs.feed(_flows_packets(), pump_every=64)
            gs.flush()
            return comparable(snapshot_engine(gs, subs), ("crash",)), \
                supervisor

        clean, _ = run(crash=False)
        crashed, supervisor = run(crash=True)
        assert supervisor.restarts_total == 1
        # The re-fed blocks are the blocks as cut: the LFTA's decoded
        # block count is the clean run's, not one block per packet.
        assert crashed == clean

    def test_hfta_crash_under_every_plane(self):
        streams = ("_gs_channel", "_gs_operator", "_gs_shed", "_gs_alert")

        def run(crash):
            gs = Gigascope(seed=3, channel_capacity=64,
                           heartbeat_interval=0.25)
            gs.enable_telemetry(interval=0.5)
            gs.add_queries(E11_QUERIES)
            gs.enable_alerts([
                "chanstorm:on=_gs_channel,key=channel,"
                "when=sum(dropped_delta) > 40,epoch=1,raise_for=1,"
                "clear_for=2,severity=warning"])
            gs.enable_shedding("adaptive")
            supervisor = gs.enable_recovery(checkpoint_interval=1.0)
            subs = {name: gs.subscribe(name)
                    for name in ("heavy", "totals", "alerts") + streams}
            gs.start()
            faults = ["channel_storm:at=2.5,duration=1.5,capacity=4"]
            if crash:
                faults.append("operator_error:node=totals,at_tuple=4,times=1")
            gs.inject_faults(faults)
            cuts = []
            rollback = supervisor._rollback

            def recorded():
                cuts.append(supervisor.log.time)
                rollback()
            supervisor._rollback = recorded
            gs.feed([tcp_packet(ts=i * 0.001, payload=b"x" * 100)
                     for i in range(6000)], pump_every=64)
            gs.flush()
            return (comparable(snapshot_engine(gs, subs), ("crash",)),
                    supervisor, cuts)

        clean, _, _ = run(crash=False)
        crashed, supervisor, cuts = run(crash=True)
        assert supervisor.restarts_total == 1
        # The checkpoint rolled back to was cut inside the storm, and
        # the replay crosses the storm's end.
        assert len(cuts) == 1 and 2.5 <= cuts[0] < 4.0
        assert crashed["drops"]["channel_dropped"] > 0
        assert crashed["rows"]["alerts"]
        assert crashed == clean


class TestExactlyOnce:
    """The application polls between the checkpoint and the crash: a
    subscription and a CSV sink each get every row once, in the clean
    run's order, wherever the failure lands, and the engine's snapshot
    (channel counters, the pump-cycle histogram and the ``_gs_channel``
    samples the replay takes of the application's channel included) is
    the clean run's.  The crashes follow the first window's rows out:
    delivered at 1.0 s, polled at 1.1 s."""

    ADVANCE = 1.15

    @classmethod
    def run(cls, arm, crash, capacity=None):
        from repro.gsql.functions import FunctionSpec
        from repro.gsql.types import UINT
        from repro.sinks import CsvSink, attach_sink

        failed = set()

        def fail_once(name, when):
            if crash and when and name not in failed:
                failed.add(name)
                raise RuntimeError(f"{name} fails once")

        calls = [0]
        #: the kernel arms' failing UDF calls: "twice" fails at 1.2 s and
        #: again at 2.6 s, two checkpoint intervals later
        kernel_calls = {"kernel": (1180,), "twice": (1180, 2600)}.get(arm, ())

        def boom(value):  # a UDF the LFTA's kernel section calls
            calls[0] += 1
            fail_once(calls[0], calls[0] in kernel_calls)
            return value

        gs = Gigascope(seed=11, lfta_table_size=32, channel_capacity=256,
                       heartbeat_interval=0.25)
        gs.functions.register(FunctionSpec("boom", boom, (UINT,), UINT))
        gs.add_query(AGG_QUERY.replace("From tcp",
                                       "From tcp Where boom(destPort) > 0"))
        buffer = io.StringIO()
        attach_sink(gs, "flows", CsvSink, buffer)
        sub = gs.subscribe("flows", capacity=capacity)
        # samples the application's channel while the replay runs
        gs.enable_telemetry(interval=0.05)
        channels = gs.subscribe("_gs_channel")
        supervisor = gs.enable_recovery(checkpoint_interval=0.4)
        gs.start()
        lfta = _lfta(gs)
        assert lfta in gs.rts._block_plan().members
        if arm == "hfta" and crash:
            gs.inject_faults([OperatorFault("flows", at_tuple=560, times=1)])
        on_heartbeat = lfta.on_heartbeat

        def heartbeat(stream_time):
            # no fed heartbeat falls between 1.1 s and 1.2 s, only the
            # ones the HFTA asks for below
            fail_once(arm, arm == "heartbeat" and stream_time >= 1.25
                      or arm == "advance" and stream_time == cls.ADVANCE
                      or arm == "request" and 1.1 <= stream_time < 1.2)
            on_heartbeat(stream_time)
        lfta.on_heartbeat = heartbeat
        hfta = gs.rts.node("flows")
        dispatch_batch = hfta.dispatch_batch

        def dispatch(rows, input_index):
            # the pump serves the request on demand, mid-drain
            if arm == "request" and 1.1 <= gs.rts.stream_time < 1.2:
                hfta.request_heartbeat()
            dispatch_batch(rows, input_index)
        hfta.dispatch_batch = dispatch
        rows = []
        packets = _flows_packets(3000)
        for lo in range(0, len(packets), 100):
            gs.feed(packets[lo:lo + 100], pump_every=64)
            rows += sub.poll()
            if lo == 1000 and arm == "advance":
                gs.advance_time(cls.ADVANCE)
        gs.flush()
        rows += sub.poll()
        snapshot = comparable(snapshot_engine(
            gs, {"flows": sub, "_gs_channel": channels}), ("crash",))
        return rows, buffer.getvalue(), supervisor, snapshot

    @pytest.mark.parametrize("arm, restarts", [
        ("kernel", 1), ("hfta", 1), ("heartbeat", 1), ("advance", 1),
        ("request", 1), ("twice", 2)])
    def test_every_row_once(self, arm, restarts):
        rows, text, _, snapshot = self.run(arm, crash=False)
        crash_rows, crash_text, supervisor, crash_snapshot = self.run(
            arm, crash=True)
        assert supervisor.restarts_total == restarts
        assert supervisor.rts.quarantined == {}
        # the application had drained rows the rollback regenerated
        assert supervisor.suppressed_rows > 0
        assert crash_rows == rows
        assert crash_text == text
        assert crash_snapshot == snapshot

    def test_bounded_subscription(self):
        # Each window's rows overflow the subscription: what it drops,
        # and what it delivers, are the clean run's.
        rows, _, _, snapshot = self.run("twice", crash=False, capacity=40)
        crash_rows, _, supervisor, crash_snapshot = self.run(
            "twice", crash=True, capacity=40)
        assert supervisor.restarts_total == 2
        channel = snapshot["stats"]["flows"]["channels"]["flows->app"]
        assert channel["dropped"] > 0
        assert crash_rows == rows
        assert crash_snapshot == snapshot


class TestTopologyChange:
    """A query added mid-run, or a subscription opened, cuts a
    checkpoint: a rollback never re-feeds a block fed before the change
    to the engine after it."""

    TOTALS = """
        DEFINE query_name totals;
        Select tb, count(*) From flows Group by tb
    """

    def run(self, crash, subscribe="engine"):
        gs = Gigascope(seed=11, lfta_table_size=32, channel_capacity=256,
                       heartbeat_interval=0.25)
        gs.add_query(AGG_QUERY)
        subs = {"flows": gs.subscribe("flows")}
        supervisor = gs.enable_recovery(checkpoint_interval=5.0)
        gs.start()
        packets = _flows_packets()
        gs.feed(packets[:700], pump_every=64)
        gs.add_query(self.TOTALS)
        # the RTS's own subscribe cuts too (a sink, a user plane)
        engine = gs.rts if subscribe == "rts" else gs
        subs["totals"] = engine.subscribe("totals")
        if crash:
            gs.inject_faults([OperatorFault("flows", at_tuple=200, times=1)])
        gs.feed(packets[700:], pump_every=64)
        gs.flush()
        return comparable(snapshot_engine(gs, subs), ("crash",)), supervisor

    @pytest.mark.parametrize("subscribe", ["engine", "rts"])
    def test_add_query_then_crash(self, subscribe):
        clean, _ = self.run(crash=False, subscribe=subscribe)
        crashed, supervisor = self.run(crash=True, subscribe=subscribe)
        assert supervisor.restarts_total == 1
        assert supervisor.checkpoints_taken >= 3  # baseline, query, sub
        assert crashed["rows"]["totals"]
        assert crashed == clean


    def test_a_change_no_checkpoint_covers_quarantines(self):
        # Packets fed one by one leave rows in flight, so subscribing
        # cuts nothing: a failure before the next pump boundary's
        # checkpoint has nothing to roll back to.
        gs = Gigascope(seed=11, lfta_table_size=32, channel_capacity=256,
                       heartbeat_interval=0.25)
        gs.add_query(AGG_QUERY)
        supervisor = gs.enable_recovery(checkpoint_interval=5.0)
        gs.start()
        packets = _flows_packets()
        for packet in packets[:300]:
            gs.feed_packet(packet)
        assert any(gs.rts.channels())
        taken = supervisor.checkpoints_taken
        gs.subscribe("flows")
        assert supervisor.checkpoints_taken == taken
        gs.inject_faults([OperatorFault("flows", at_tuple=1, times=1)])
        gs.feed(packets[300:], pump_every=64)
        assert supervisor.restarts_total == 0
        assert list(gs.rts.quarantined) == ["flows"]
        assert supervisor.checkpoints_taken > taken  # cut at the pump


class TestTracingAcrossRollback:
    def test_spans_are_the_clean_runs(self):
        def run(crash):
            gs = Gigascope(seed=11, lfta_table_size=32,
                           channel_capacity=256, heartbeat_interval=0.25)
            gs.add_query(AGG_QUERY)
            sub = gs.subscribe("flows")
            tracer = gs.enable_tracing(0.05)
            supervisor = gs.enable_recovery(checkpoint_interval=0.4)
            gs.start()
            if crash:
                gs.inject_faults([OperatorFault("flows", at_tuple=200,
                                                times=1)])
            gs.feed(_flows_packets(), pump_every=64)
            gs.flush()
            return tracer.to_dict(), sub.poll(), supervisor

        clean, clean_rows, _ = run(crash=False)
        crashed, rows, supervisor = run(crash=True)
        assert supervisor.restarts_total == 1
        assert clean["traces"]
        assert rows == clean_rows
        assert crashed == clean
