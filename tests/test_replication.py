"""Continuous replication and warm-standby failover (DESIGN section 16).

Four contracts under test:

* the state log's one codec, fold and apply
  (:mod:`repro.recovery.statelog`) refuse damage **typed and total**:
  a corruption corpus -- truncation at every byte boundary, bit flips
  in the payload vs the header, stale versions (both the GSCK wire
  version and the inner frame-layout version), out-of-order sequence
  numbers -- each raising a :class:`FrameError` subclass that names
  the offending frame, with the standby's operator state byte-for-byte
  untouched afterwards (never applied partially).  The corpus runs
  over the frames each of the three writers cuts: the replication
  shipper, the recovery supervisor, and a shard worker;
* steady-state replication is invisible: a replicated run's output is
  byte-identical to a plain engine's;
* promotion is exact: after a hard crash (mid delta-interval, at a
  frame boundary, or mid-frame-write), the promoted standby's output
  is byte-identical to an uninterrupted run -- exactly-once across the
  promotion, measured RPO/RTO in the report;
* the knobs parse strictly (crash specs, cadence resolution).
"""

import math
import os
import struct

import pytest

from repro.core.engine import Gigascope
from repro.determinism import derive_seed
from repro.recovery.statelog import StateLog
from repro.recovery.wire import MAGIC, decode_snapshot, encode_snapshot
from repro.replication import (
    DEFAULT_CADENCE,
    FrameCorruptError,
    FrameError,
    FrameSequenceError,
    FrameVersionError,
    REPLICATION_VERSION,
    ReplicatedGigascope,
    ReplicationError,
    ReplicationShipper,
    StandbyReplica,
    decode_frame,
    encode_frame,
    parse_crash_spec,
    resolve_replicate_cadence,
)
from repro.workloads.flows import ZipfFlowWorkload

FLOWS_QUERY = """
    DEFINE query_name flows;
    Select tb, srcIP, count(*), sum(len)
    From tcp
    Group by time/5 as tb, srcIP
"""


def zipf_packets(count=1500, seed=3):
    workload = ZipfFlowWorkload(num_flows=200, alpha=1.1,
                                seed=derive_seed(seed, "workload.zipf"))
    return list(workload.packets(count, pps=400.0))


def run_plain(packets):
    gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
    gs.add_query(FLOWS_QUERY)
    sub = gs.subscribe("flows")
    gs.start()
    gs.feed(packets, pump_every=128)
    gs.flush()
    return sub.poll()


def run_replicated(packets, cadence=0.5, crash=None, promote_after=None,
                   faults=None, log_path=None):
    gs = ReplicatedGigascope(cadence=cadence, crash=crash,
                             promote_after=promote_after,
                             log_path=log_path, seed=7,
                             heartbeat_interval=0.5, metrics=False)
    gs.add_query(FLOWS_QUERY)
    sub = gs.subscribe("flows")
    if faults:
        gs.inject_faults(faults)
    gs.start()
    gs.feed(packets, pump_every=128)
    gs.flush()
    return sub.poll(), gs


def fresh_standby():
    engine = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
    engine.add_query(FLOWS_QUERY)
    engine.start()
    return StandbyReplica(engine)


def engine_states(engine):
    """Every node's state, independently encoded: the tamper canary."""
    return {name: encode_snapshot(node.snapshot_state())
            for name, node in engine.rts.iter_nodes()}


def shipper_frames():
    """The frame log of one clean replicated run."""
    _, gs = run_replicated(zipf_packets(), cadence=0.5)
    return gs.log_frames


def supervisor_frames():
    """Every checkpoint frame the recovery supervisor cut and folded."""
    gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
    gs.add_query(FLOWS_QUERY)
    supervisor = gs.enable_recovery(checkpoint_interval=0.5)
    frames, fold = [], supervisor.log.fold

    def recording_fold(blob):
        frames.append(blob)
        return fold(blob)

    supervisor.log.fold = recording_fold
    gs.start()
    gs.feed(zipf_packets(), pump_every=128)
    gs.flush()
    assert len(frames) == supervisor.checkpoints_taken
    return frames


def worker_frames():
    """The state frames one shard worker ships over its pipe."""
    from repro.shard import transport
    from repro.shard.worker import run_worker

    class Pipe:
        def __init__(self):
            self.sent = []

        def send_bytes(self, blob):
            self.sent.append(blob)

        def close(self):
            pass

    pipe = Pipe()
    run_worker(pipe, {
        "queries": [("single", FLOWS_QUERY, None, None)],
        "subscribe": [("flows", False)],
        "engine": {"seed": 7, "heartbeat_interval": 0.5},
        "nshards": 1, "barrier_interval": 0.5, "pump_every": 128,
    }, 0, zipf_packets())
    decoded = [transport.decode_frame(blob) for blob in pipe.sent]
    return [payload for kind, _seq, payload in decoded
            if kind == transport.STATE]


@pytest.fixture(scope="module",
                params=[shipper_frames, supervisor_frames, worker_frames],
                ids=["shipper", "supervisor", "worker"])
def shipped_frames(request):
    """One writer's frame log (full + deltas)."""
    frames = request.param()
    assert len(frames) >= 4, "corpus needs a full epoch and several deltas"
    return frames


def primed_replica(shipped_frames, upto):
    replica = fresh_standby()
    for frame in shipped_frames[:upto]:
        replica.apply(frame)
    return replica


# ---------------------------------------------------------------------------
# Knob parsing
# ---------------------------------------------------------------------------

class TestKnobs:
    def test_crash_spec_grammar(self):
        assert parse_crash_spec("packet:700") == {
            "kind": "packet", "at": 700, "torn": False}
        assert parse_crash_spec("frame:0") == {
            "kind": "frame", "at": 0, "torn": False}
        assert parse_crash_spec("frame:2:torn") == {
            "kind": "frame", "at": 2, "torn": True}

    @pytest.mark.parametrize("bad", [
        "banana", "packet", "packet:x", "packet:-1", "packet:1:torn",
        "frame:1:shredded", "frame:1:torn:extra", "epoch:3",
    ])
    def test_bad_crash_spec_raises(self, bad):
        with pytest.raises(ValueError):
            parse_crash_spec(bad)

    def test_cadence_is_validated_not_looked_up(self):
        assert resolve_replicate_cadence("0.25") == 0.25
        assert resolve_replicate_cadence(0) == 0.0
        assert resolve_replicate_cadence() is None

    @pytest.mark.parametrize("bad", ["banana", "-1", "nan", "inf"])
    def test_bad_cadence_raises_naming_the_knob(self, bad):
        with pytest.raises(ValueError, match="--replicate"):
            resolve_replicate_cadence(bad)

    def test_negative_promote_after_refused(self):
        with pytest.raises(ValueError, match="promote_after"):
            ReplicatedGigascope(promote_after=-1.0, metrics=False)


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------

class TestFrameCodec:
    def test_round_trip(self):
        blob = encode_frame("delta", 3, 1.5, 700, {"packets_fed": 700},
                            {"flows": encode_snapshot({"k": 1})})
        frame = decode_frame(blob)
        assert frame["v"] == REPLICATION_VERSION
        assert frame["kind"] == "delta"
        assert frame["seq"] == 3
        assert frame["cursor"] == 700

    def test_unknown_kind_refused_at_encode(self):
        with pytest.raises(ReplicationError, match="unknown frame kind"):
            encode_frame("diff", 0, 0.0, 0, {}, {})

    def test_missing_fields_refused(self):
        blob = encode_snapshot({"v": REPLICATION_VERSION, "kind": "delta",
                                "seq": 4})
        with pytest.raises(FrameCorruptError, match="missing field"):
            decode_frame(blob)

    def test_non_dict_payload_refused(self):
        with pytest.raises(FrameCorruptError, match="not a frame dict"):
            decode_frame(encode_snapshot([1, 2, 3]))

    def test_negative_seq_refused(self):
        blob = encode_frame("delta", 3, 0.0, 0, {}, {})
        rebuilt = decode_frame(blob)
        rebuilt["seq"] = -3
        with pytest.raises(FrameCorruptError, match="bad seq"):
            decode_frame(encode_snapshot(rebuilt))

    def test_non_blob_node_state_refused(self):
        blob = encode_frame("delta", 3, 0.0, 0, {}, {})
        rebuilt = decode_frame(blob)
        rebuilt["nodes"] = {"flows": {"raw": "dict"}}
        with pytest.raises(FrameCorruptError, match="not an encoded blob"):
            decode_frame(encode_snapshot(rebuilt))


# ---------------------------------------------------------------------------
# The corruption corpus (all-or-nothing apply)
# ---------------------------------------------------------------------------

class TestCorruptionCorpus:
    def _attack(self, shipped_frames, mutate, expect_error):
        """Prime a standby past two frames, hit it with a damaged third
        frame, and prove the refusal is typed, names the frame, and
        left every node's state byte-for-byte untouched."""
        replica = primed_replica(shipped_frames, upto=2)
        before = engine_states(replica.engine)
        report_before = replica.report()
        frame = shipped_frames[2]
        errors = 0
        for damaged in mutate(frame):
            with pytest.raises(expect_error) as excinfo:
                replica.apply(damaged)
            assert "state frame" in str(excinfo.value)
            errors += 1
        assert errors > 0
        assert engine_states(replica.engine) == before, \
            "a refused frame must never be applied partially"
        after = replica.report()
        assert after["applied_seq"] == report_before["applied_seq"]
        assert after["apply_errors"] == report_before["apply_errors"] + errors
        # ...and the standby still accepts the undamaged frame.
        applied = replica.apply(frame)
        assert applied["seq"] == 2

    def test_truncation_at_every_byte_boundary(self, shipped_frames):
        frame = shipped_frames[2]
        self._attack(shipped_frames,
                     lambda f: (f[:cut] for cut in range(len(f))),
                     FrameError)
        assert len(frame) > 16  # the corpus actually swept a real frame

    def test_bit_flip_in_payload(self, shipped_frames):
        # Flip one bit somewhere in the checksummed payload region:
        # the GSCK checksum catches it before any decode is trusted.
        def flips(frame):
            for offset in (6, len(frame) // 2, len(frame) - 5):
                yield (frame[:offset]
                       + bytes([frame[offset] ^ 0x10])
                       + frame[offset + 1:])
        self._attack(shipped_frames, flips, FrameCorruptError)

    def test_bit_flip_in_header_magic(self, shipped_frames):
        def flips(frame):
            yield b"H" + frame[1:]
        self._attack(shipped_frames, flips, FrameCorruptError)

    def test_stale_wire_version(self, shipped_frames):
        # The GSCK header claims a future snapshot-format version.
        def stale(frame):
            yield frame[:4] + struct.pack(">H", 99) + frame[6:]
        self._attack(shipped_frames, stale, FrameVersionError)

    def test_stale_frame_layout_version(self, shipped_frames):
        # Valid GSCK bytes, but the inner frame says layout v+1.
        def stale(frame):
            rebuilt = decode_frame(frame)
            rebuilt["v"] = REPLICATION_VERSION + 1
            yield encode_snapshot(rebuilt)
        self._attack(shipped_frames, stale, FrameVersionError)

    def test_corrupt_node_blob_names_the_node(self, shipped_frames):
        def poison(frame):
            rebuilt = decode_frame(frame)
            name, blob = next(iter(rebuilt["nodes"].items()))
            rebuilt["nodes"] = dict(rebuilt["nodes"], **{name: blob[:-1]})
            yield encode_snapshot(rebuilt)
        replica = primed_replica(shipped_frames, upto=2)
        before = engine_states(replica.engine)
        name = next(iter(decode_frame(shipped_frames[2])["nodes"]))
        with pytest.raises(FrameCorruptError, match=repr(name)):
            replica.apply(next(poison(shipped_frames[2])))
        assert engine_states(replica.engine) == before

    def test_unknown_node_refused(self, shipped_frames):
        def rename(frame):
            rebuilt = decode_frame(frame)
            blob = next(iter(rebuilt["nodes"].values()))
            rebuilt["nodes"] = {"not_a_query": blob}
            yield encode_snapshot(rebuilt)
        self._attack(shipped_frames, rename, FrameCorruptError)

    def test_raising_restore_state_is_rolled_back(self, shipped_frames):
        # Every check passes -- the second node's blob decodes -- but
        # its state lacks "stats", so restore_state raises only after
        # the first node was already overwritten.
        log = StateLog()
        for frame in shipped_frames[:3]:
            log.fold(frame)
        (first, _), (second, blob) = list(log.nodes.items())[:2]
        envelope = decode_snapshot(blob)
        del envelope["state"]["stats"]
        rebuilt = decode_frame(shipped_frames[2])
        rebuilt["nodes"] = dict(log.nodes,
                                **{second: encode_snapshot(envelope)})
        replica = primed_replica(shipped_frames, upto=2)
        before = engine_states(replica.engine)
        counters = replica.engine.rts.counters_state()
        assert before[first] != encode_snapshot(
            decode_snapshot(log.nodes[first])["state"])  # it would move
        with pytest.raises(FrameCorruptError,
                           match=f"state frame 2: node {second!r}"):
            replica.apply(encode_snapshot(rebuilt))
        assert engine_states(replica.engine) == before
        assert replica.engine.rts.counters_state() == counters
        assert replica.applied_seq == 1
        assert replica.apply(shipped_frames[2])["seq"] == 2

    def test_duplicate_seq_refused(self, shipped_frames):
        self._attack(shipped_frames,
                     lambda _: iter([shipped_frames[1]]),
                     FrameSequenceError)

    def test_seq_gap_refused(self, shipped_frames):
        self._attack(shipped_frames,
                     lambda _: iter([shipped_frames[3]]),
                     FrameSequenceError)

    def test_full_epoch_rewind_refused(self, shipped_frames):
        self._attack(shipped_frames,
                     lambda _: iter([shipped_frames[0]]),
                     FrameSequenceError)

    def test_delta_before_full_refused(self, shipped_frames):
        replica = fresh_standby()
        before = engine_states(replica.engine)
        with pytest.raises(FrameSequenceError):
            # Reseq the delta to 0 so only kind-ordering can refuse it.
            rebuilt = decode_frame(shipped_frames[1])
            rebuilt["seq"] = 0
            replica.apply(encode_snapshot(rebuilt))
        assert engine_states(replica.engine) == before

    def test_clean_log_applies_end_to_end(self, shipped_frames):
        replica = fresh_standby()
        for frame in shipped_frames:
            replica.apply(frame)
        report = replica.report()
        assert report["applied_seq"] == len(shipped_frames) - 1
        assert report["apply_errors"] == 0


# ---------------------------------------------------------------------------
# Identity and failover
# ---------------------------------------------------------------------------

class TestReplicationIdentity:
    def test_steady_state_is_invisible(self):
        packets = zipf_packets()
        rows, gs = run_replicated(packets, cadence=0.5)
        assert rows == run_plain(packets)
        report = gs.replication_report()
        assert report["promoted"] is False
        assert report["frames_full"] == 1
        assert report["frames_delta"] >= 2
        assert report["apply_errors"] == 0
        assert report["applied_seq"] >= 2
        assert report["suppressed_rows"] == 0

    @pytest.mark.parametrize("crash", ["packet:700", "packet:0",
                                       "frame:0", "frame:2"])
    def test_promoted_output_is_byte_identical(self, crash):
        packets = zipf_packets()
        rows, gs = run_replicated(packets, cadence=0.5, crash=crash)
        assert rows == run_plain(packets)
        report = gs.replication_report()
        assert report["promoted"] is True
        assert report["promotions"] == 1
        assert report["rpo_packets"] == report["replayed_packets"]
        assert report["promote_wall_s"] >= 0.0

    def test_torn_frame_falls_back_one_frame(self):
        packets = zipf_packets()
        rows, gs = run_replicated(packets, cadence=0.5, crash="frame:2:torn")
        assert rows == run_plain(packets)
        report = gs.replication_report()
        assert report["promoted"] is True
        # The torn write was refused typed...
        assert report["apply_errors"] == 1
        assert any("state frame 2" in line
                   for line in report["apply_error_log"])
        # ...so promotion resumed from frame 1's cursor.
        assert report["applied_seq"] == 1

    @pytest.mark.parametrize("crash", ["packet:700", "frame:2",
                                       "frame:2:torn"])
    def test_two_subscriptions_to_one_query_both_survive(self, crash):
        """A second ``subscribe(name)`` used to overwrite the first in
        the pair's table: the first was never promoted, kept polling
        the dead primary and lost every row after the crash."""
        packets = zipf_packets()
        gs = ReplicatedGigascope(cadence=0.5, crash=crash, seed=7,
                                 heartbeat_interval=0.5, metrics=False)
        gs.add_query(FLOWS_QUERY)
        first, second = gs.subscribe("flows"), gs.subscribe("flows")
        gs.start()
        gs.feed(packets, pump_every=128)
        gs.flush()
        clean = run_plain(packets)
        assert gs.replication_report()["promoted"] is True
        assert first.poll() == clean
        assert second.poll() == clean
        assert first.ended and second.ended

    def test_heartbeat_silence_promotes(self):
        packets = zipf_packets()
        rows, gs = run_replicated(
            packets, cadence=0.5, promote_after=0.2,
            faults=["heartbeat_silence:at=1.5,duration=30"])
        assert rows == run_plain(packets)
        report = gs.replication_report()
        assert report["promoted"] is True
        assert "heartbeat silence" in report["failure_reason"]
        assert report["rpo_virtual_s"] >= 0.0
        assert not math.isinf(report["rpo_virtual_s"])

    def test_replication_log_file_round_trips(self, tmp_path):
        path = tmp_path / "repl.log"
        packets = zipf_packets(count=800)
        _, gs = run_replicated(packets, cadence=0.5, log_path=str(path))
        blob = path.read_bytes()
        frames, offset = [], 0
        while offset < len(blob):
            (length,) = struct.unpack_from(">I", blob, offset)
            offset += 4
            frames.append(blob[offset:offset + length])
            offset += length
        assert frames == gs.log_frames
        replica = fresh_standby()
        for frame in frames:
            replica.apply(frame)
        assert replica.applied_seq == len(frames) - 1
        assert frames[0][:4] == MAGIC

    def test_raising_deliver_never_unwinds_the_pump(self):
        # The first delta's delivery fails (a full disk under
        # --replicate-log): the pump carries on, and the next boundary
        # re-cuts the same seq with the union of the changes.
        replica = fresh_standby()
        delivered, failures = [], []

        def deliver(frame):
            if len(delivered) == 1 and not failures:
                failures.append(frame)
                raise OSError("No space left on device")
            delivered.append(frame)
            replica.apply(frame)

        primary = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
        primary.add_query(FLOWS_QUERY)
        shipper = ReplicationShipper(primary.rts, 0.5, deliver)
        primary.start()
        primary.feed(zipf_packets(), pump_every=128)
        report = shipper.report()
        assert report["deliver_errors"] == 1
        assert "No space left" in report["last_deliver_error"]
        lost, recut = decode_frame(failures[0]), decode_frame(delivered[1])
        assert lost["seq"] == recut["seq"] == 1
        assert set(recut["nodes"]) >= set(lost["nodes"])
        assert recut["cursor"] > lost["cursor"]
        assert [decode_frame(f)["seq"] for f in delivered] == list(
            range(len(delivered)))
        assert replica.apply_errors == 0
        assert replica.applied_seq == len(delivered) - 1 >= 2
        # The standby is the primary as of the last frame.
        assert engine_states(replica.engine) == {
            name: encode_snapshot(decode_snapshot(blob)["state"])
            for name, blob in replica.log.nodes.items()}

    def test_default_cadence_is_exported(self):
        assert DEFAULT_CADENCE == 1.0
        assert resolve_replicate_cadence(DEFAULT_CADENCE) == 1.0
