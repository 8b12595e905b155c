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
  plane, the recovery supervisor, and a shard worker;
* steady-state replication is invisible: a replicated run's output is
  byte-identical to a plain engine's;
* promotion is exact: after a hard crash (mid delta-interval, at a
  frame boundary, or mid-frame-write), the promoted standby's output
  is byte-identical to an uninterrupted run -- exactly-once across the
  promotion, measured RPO/RTO in the report;
* the knobs parse strictly (crash specs, cadence resolution).
"""

import io
import math
import os
import struct
import tempfile

import pytest

from repro.core.engine import Gigascope
from repro.core.stream_manager import RegistryError, _plane_name
from repro.determinism import _FLOWS, _zipf, derive_seed, snapshot_engine
from repro.recovery.statelog import (
    REPLICATION_VERSION,
    FrameCorruptError,
    FrameError,
    FrameSequenceError,
    FrameVersionError,
    StateLog,
    StateLogError,
    decode_frame,
    encode_frame,
    read_frames,
)
from repro.recovery.wire import MAGIC, decode_snapshot, encode_snapshot
from repro.recovery.journal import Journal
from repro.recovery.supervisor import parse_crash_spec
from repro.options import KNOBS
from repro.sinks import JsonlSink, attach_sink
from repro.workloads.flows import ZipfFlowWorkload

FLOWS_QUERY = """
    DEFINE query_name flows;
    Select tb, srcIP, count(*), sum(len)
    From tcp
    Group by time/5 as tb, srcIP
"""


#: a query over ``flows``'s output: an HFTA a running engine can gain
LATE_QUERY = """
    DEFINE query_name busy;
    Select tb, count(*) From flows Group by tb
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


def replicated(cadence=0.5, crash=None, promote_after=None, log_path=None):
    """An engine with the replication plane; returns both."""
    gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
    plane = gs.enable_replication(cadence=cadence, crash=crash,
                                  promote_after=promote_after,
                                  log_path=log_path)
    return gs, plane


def run_replicated(packets, cadence=0.5, crash=None, promote_after=None,
                   faults=None, log_path=None):
    gs, plane = replicated(cadence, crash, promote_after, log_path)
    gs.add_query(FLOWS_QUERY)
    sub = gs.subscribe("flows")
    if faults:
        gs.inject_faults(faults)
    gs.start()
    gs.feed(packets, pump_every=128)
    gs.flush()
    return sub.poll(), plane


def fresh_standby():
    """An empty state log and the started runtime it folds into: what
    the plane's standby starts as."""
    engine = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
    engine.add_query(FLOWS_QUERY)
    engine.start()
    return StateLog(), engine.rts


def engine_states(rts):
    """Every node's state, independently encoded: the tamper canary."""
    return {name: encode_snapshot(node.snapshot_state())
            for name, node in rts.iter_nodes()}


def logged_frames(path):
    """The frames a plane wrote to its ``log_path``, torn ones included."""
    with open(path, "rb") as handle:
        return read_frames(handle)


def plane_frames():
    """The frame log of one clean replicated run."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "repl.log")
        run_replicated(zipf_packets(), cadence=0.5, log_path=path)
        return logged_frames(path)


def supervisor_frames():
    """Every checkpoint frame the recovery supervisor cut and folded."""
    gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
    gs.add_query(FLOWS_QUERY)
    supervisor = gs.enable_recovery(checkpoint_interval=0.5)
    frames, fold = [], supervisor.log.fold

    def recording_fold(blob, into=None):
        frames.append(blob)
        return fold(blob, into=into)

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
                params=[plane_frames, supervisor_frames, worker_frames],
                ids=["plane", "supervisor", "worker"])
def shipped_frames(request):
    """One writer's frame log (full + deltas)."""
    frames = request.param()
    assert len(frames) >= 4, "corpus needs a full epoch and several deltas"
    return frames


def primed_standby(shipped_frames, upto):
    log, rts = fresh_standby()
    for frame in shipped_frames[:upto]:
        log.fold(frame, into=rts)
    return log, rts


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
        cadence = KNOBS["enable_replication", "cadence"]
        assert cadence.parse("0.25") == 0.25
        assert cadence.parse("0") == 0.0
        assert cadence.flag == "--replicate"

    def test_negative_promote_after_refused(self):
        with pytest.raises(ValueError, match="promote_after"):
            Gigascope(metrics=False).enable_replication(promote_after=-1.0)


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
        with pytest.raises(StateLogError, match="unknown frame kind"):
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
        log, rts = primed_standby(shipped_frames, upto=2)
        before = engine_states(rts)
        fold_before = (log.seq, log.cursor, dict(log.nodes))
        frame = shipped_frames[2]
        errors = 0
        for damaged in mutate(frame):
            with pytest.raises(expect_error) as excinfo:
                log.fold(damaged, into=rts)
            assert "state frame" in str(excinfo.value)
            errors += 1
        assert errors > 0
        assert engine_states(rts) == before, \
            "a refused frame must never be applied partially"
        assert (log.seq, log.cursor, log.nodes) == fold_before
        # ...and the standby still accepts the undamaged frame.
        applied = log.fold(frame, into=rts)
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
        log, rts = primed_standby(shipped_frames, upto=2)
        before = engine_states(rts)
        name = next(iter(decode_frame(shipped_frames[2])["nodes"]))
        with pytest.raises(FrameCorruptError, match=repr(name)):
            log.fold(next(poison(shipped_frames[2])), into=rts)
        assert engine_states(rts) == before

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
        standby, rts = primed_standby(shipped_frames, upto=2)
        before = engine_states(rts)
        counters = rts.counters_state()
        assert before[first] != encode_snapshot(
            decode_snapshot(log.nodes[first])["state"])  # it would move
        with pytest.raises(FrameCorruptError,
                           match=f"state frame 2: node {second!r}"):
            standby.fold(encode_snapshot(rebuilt), into=rts)
        assert engine_states(rts) == before
        assert rts.counters_state() == counters
        assert standby.seq == 1
        assert standby.fold(shipped_frames[2], into=rts)["seq"] == 2

    def test_a_node_added_after_the_epoch_is_rolled_back_too(
            self, shipped_frames):
        """The undo is the fold's own blobs; a node the fold lacks -- a
        query the standby gained after the epoch -- is snapshotted
        instead.  A frame that restores it and a node of the fold, then
        raises on the next, leaves every one where it was."""
        primary = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
        primary.add_query(FLOWS_QUERY)
        primary.start()
        primary.add_query(LATE_QUERY)
        primary.feed(zipf_packets(), pump_every=128)
        busy = encode_snapshot({"node": "busy", "type": "AggregationNode",
                                "state": primary.rts.node("busy")
                                .snapshot_state()})
        standby = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
        standby.add_query(FLOWS_QUERY)
        standby.start()
        log = StateLog()
        for frame in shipped_frames[:2]:
            log.fold(frame, into=standby.rts)
        standby.add_query(LATE_QUERY)
        assert "busy" not in log.nodes
        rebuilt = decode_frame(shipped_frames[2])
        *moved, (last, blob) = rebuilt["nodes"].items()
        assert moved   # a node of the fold is restored before the raise
        envelope = decode_snapshot(blob)
        del envelope["state"]["stats"]
        rebuilt["nodes"] = dict([("busy", busy), *moved,
                                 (last, encode_snapshot(envelope))])
        before = engine_states(standby.rts)
        counters = standby.rts.counters_state()
        assert before["busy"] != encode_snapshot(
            decode_snapshot(busy)["state"])  # it would move
        with pytest.raises(FrameCorruptError,
                           match=f"state frame 2: node {last!r}"):
            log.fold(encode_snapshot(rebuilt), into=standby.rts)
        assert engine_states(standby.rts) == before
        assert standby.rts.counters_state() == counters
        assert log.seq == 1

    def test_an_applied_frame_snapshots_no_node_the_fold_holds(
            self, shipped_frames):
        log, rts = primed_standby(shipped_frames, upto=2)
        snapshotted = []
        for name, node in rts.iter_nodes():
            node.snapshot_state = (
                lambda name=name, take=node.snapshot_state:
                snapshotted.append(name) or take())
        assert set(dict(rts.iter_nodes())) <= set(log.nodes)
        for frame in shipped_frames[2:]:
            log.fold(frame, into=rts)
        assert snapshotted == []

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
        log, rts = fresh_standby()
        before = engine_states(rts)
        with pytest.raises(FrameSequenceError):
            # Reseq the delta to 0 so only kind-ordering can refuse it.
            rebuilt = decode_frame(shipped_frames[1])
            rebuilt["seq"] = 0
            log.fold(encode_snapshot(rebuilt), into=rts)
        assert engine_states(rts) == before

    def test_clean_log_applies_end_to_end(self, shipped_frames):
        log, rts = fresh_standby()
        for frame in shipped_frames:
            log.fold(frame, into=rts)  # a refusal raises
        assert log.seq == len(shipped_frames) - 1


# ---------------------------------------------------------------------------
# Identity and failover
# ---------------------------------------------------------------------------

WEB_QUERY = """
    DEFINE query_name web;
    Select time, srcIP, destPort From tcp Where destPort = 80
"""


def full_run(replicate, crash=None, between=False):
    """``_FLOWS`` and ``web`` over 600 and then 3 400 packets, off the
    ``pump_every`` grid, with metrics; ``between`` polls both
    subscriptions and declares 0.2 s of quiet between the two feeds,
    after the epoch and before the next frame.  Returns the snapshot
    but the ``gs_repl*`` families, the rows polled along the way
    included, and the plane."""
    gs = Gigascope(seed=7, heartbeat_interval=0.5, lfta_table_size=64)
    plane = (gs.enable_replication(cadence=0.5, crash=crash)
             if replicate else None)
    gs.add_query(_FLOWS)
    gs.add_query(WEB_QUERY)
    subs = {name: gs.subscribe(name) for name in ("flows", "web")}
    gs.start()
    packets = _zipf(7)
    gs.feed(packets[:600], pump_every=128)
    early = {name: [] for name in subs}
    if between:
        early = {name: sub.poll() for name, sub in subs.items()}
        gs.advance_time(gs.rts.stream_time + 0.2)
    gs.feed(packets[600:], pump_every=128)
    gs.flush()
    snapshot = snapshot_engine(gs, subs)
    for name, rows in early.items():
        snapshot["rows"][name][:0] = map(repr, rows)
    snapshot["metrics"]["metrics"] = [
        family for family in snapshot["metrics"]["metrics"]
        if not family["name"].startswith("gs_repl")]
    return snapshot, plane


class TestReplicationIdentity:
    def test_replicated_equals_plain(self):
        """Replication with no crash used to change the primary's
        schedule: its feed loop cut blocks on a grid of its own, and
        ``gs_batch_blocks_fed_total`` read 37 against a plain run's 36."""
        replicated_run, plane = full_run(True)
        plain, _ = full_run(False)
        assert not plane.promoted and plane.log.seq >= 2
        assert replicated_run == plain
        assert plain["stats"] and plain["metrics"]["metrics"]

    @pytest.mark.parametrize("crash", ["packet:700", "frame:2",
                                       "frame:2:torn"])
    def test_a_promotion_ends_where_the_uninterrupted_run_does(self, crash):
        """The whole snapshot -- rows, drop ledger, stats and every
        metric family but ``gs_repl*`` -- not the rows alone.  The skip
        gate left ``web->app``'s ``max_depth`` at 451, 214 and 333
        against the uninterrupted run's 396."""
        promoted, plane = full_run(True, crash=crash, between=True)
        assert plane.promoted
        assert promoted == full_run(False, between=True)[0]

    def test_steady_state_is_invisible(self):
        packets = zipf_packets()
        rows, plane = run_replicated(packets, cadence=0.5)
        assert rows == run_plain(packets)
        report = plane.replication_report()
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
        rows, plane = run_replicated(packets, cadence=0.5, crash=crash)
        assert rows == run_plain(packets)
        report = plane.replication_report()
        assert report["promoted"] is True
        assert report["promotions"] == 1
        # The primary dies after packet K and is found dead at the next
        # pump boundary: the journal replayed runs up to it.
        assert (0 <= report["rpo_packets"] <= report["replayed_packets"]
                <= report["rpo_packets"] + 128)
        assert report["promote_wall_s"] >= 0.0

    def test_torn_frame_falls_back_one_frame(self, tmp_path):
        packets = zipf_packets()
        path = tmp_path / "repl.log"
        rows, plane = run_replicated(packets, cadence=0.5,
                                     crash="frame:2:torn", log_path=str(path))
        assert rows == run_plain(packets)
        report = plane.replication_report()
        assert report["promoted"] is True
        # The torn write was refused typed...
        assert report["apply_errors"] == 1
        assert any("state frame 2" in line
                   for line in report["apply_error_log"])
        # ...so promotion resumed from frame 1's cursor.
        assert report["applied_seq"] == 1
        # The log file ends in the torn write, which a reader refuses
        # the same way.
        *whole, torn = logged_frames(path)
        log, rts = fresh_standby()
        for frame in whole:
            log.fold(frame, into=rts)
        assert log.seq == 1
        with pytest.raises(FrameCorruptError):
            log.fold(torn, into=rts)

    @pytest.mark.parametrize("crash", ["packet:700", "frame:2",
                                       "frame:2:torn"])
    def test_two_subscriptions_to_one_query_both_survive(self, crash):
        """A second ``subscribe(name)`` used to overwrite the first in
        the pair's table: the first was never promoted, kept polling
        the dead primary and lost every row after the crash."""
        packets = zipf_packets()
        gs, plane = replicated(cadence=0.5, crash=crash)
        gs.add_query(FLOWS_QUERY)
        first, second = gs.subscribe("flows"), gs.subscribe("flows")
        gs.start()
        gs.feed(packets, pump_every=128)
        gs.flush()
        clean = run_plain(packets)
        assert plane.replication_report()["promoted"] is True
        assert first.poll() == clean
        assert second.poll() == clean
        assert first.ended and second.ended
        # the promoted standby goes on naming channels where the
        # primary stopped
        third = gs.subscribe("flows")
        assert len({sub.channel.name
                    for sub in (first, second, third)}) == 3

    def test_heartbeat_silence_promotes(self):
        packets = zipf_packets()
        rows, plane = run_replicated(
            packets, cadence=0.5, promote_after=0.2,
            faults=["heartbeat_silence:at=1.5,duration=30"])
        assert rows == run_plain(packets)
        report = plane.replication_report()
        assert report["promoted"] is True
        assert "heartbeat silence" in report["failure_reason"]
        assert report["rpo_virtual_s"] >= 0.0
        assert not math.isinf(report["rpo_virtual_s"])

    def test_replication_log_file_round_trips(self, tmp_path):
        path = tmp_path / "repl.log"
        packets = zipf_packets(count=800)
        _, plane = run_replicated(packets, cadence=0.5, log_path=str(path))
        blob = path.read_bytes()
        frames, offset = [], 0
        while offset < len(blob):
            (length,) = struct.unpack_from(">I", blob, offset)
            offset += 4
            frames.append(blob[offset:offset + length])
            offset += length
        assert frames == logged_frames(path)
        log, rts = fresh_standby()
        for frame in frames:
            log.fold(frame, into=rts)
        assert log.seq == len(frames) - 1 == plane.applied_seq
        assert log.nodes == plane.log.nodes
        assert frames[0][:4] == MAGIC

    def test_raising_deliver_never_unwinds_the_pump(self, tmp_path,
                                                     monkeypatch):
        # The first delta's write fails (a full disk under
        # --replicate-log): the pump carries on, and the next boundary
        # re-cuts the same seq with the union of the changes.
        import repro.recovery.supervisor as supervisor
        path = tmp_path / "repl.log"
        gs, plane = replicated(cadence=0.5, log_path=str(path))
        lost, appended = [], []
        append = supervisor.append_frame

        def full_disk(handle, frame):
            if len(appended) == 1 and not lost:
                lost.append(frame)
                raise OSError("No space left on device")
            append(handle, frame)
            appended.append(frame)

        monkeypatch.setattr(supervisor, "append_frame", full_disk)
        gs.add_query(FLOWS_QUERY)
        sub = gs.subscribe("flows")
        gs.start()
        packets = zipf_packets()
        gs.feed(packets, pump_every=128)
        gs.flush()
        assert sub.poll() == run_plain(packets)
        report = plane.replication_report()
        assert report["deliver_errors"] == 1
        assert "No space left" in report["last_deliver_error"]
        delivered = logged_frames(path)
        assert delivered == appended
        lost, recut = decode_frame(lost[0]), decode_frame(delivered[1])
        assert lost["seq"] == recut["seq"] == 1
        assert set(recut["nodes"]) >= set(lost["nodes"])
        assert recut["cursor"] > lost["cursor"]
        assert [decode_frame(f)["seq"] for f in delivered] == list(
            range(len(delivered)))
        # The log file holds the frames written, the failed one not.
        written, offset = path.read_bytes(), 0
        for frame in delivered:
            assert written[offset + 4:offset + 4 + len(frame)] == frame
            offset += 4 + len(frame)
        assert offset == len(written)
        assert report["apply_errors"] == 0
        assert report["applied_seq"] == len(delivered) - 1 >= 2
        # The standby is the primary as of the last frame.
        assert engine_states(plane.standby) == {
            name: encode_snapshot(decode_snapshot(blob)["state"])
            for name, blob in plane.log.nodes.items()}

    def test_default_cadence_is_one_second(self):
        plane = Gigascope(metrics=False).enable_replication()
        assert plane.cadence == 1.0


# ---------------------------------------------------------------------------
# Replication is a plane of the one engine
# ---------------------------------------------------------------------------

class TestThePlane:
    BIG = """
        DEFINE query_name big;
        Select time, srcIP From tcp Where srcIP >= $least
    """
    #: about the median source address of the Zipf workload
    LEAST = 177_000_000

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -1.0, True, "0.5", None])
    def test_a_bad_cadence_is_refused_by_name(self, bad):
        """NaN used to cut a frame at every pump boundary, inf the epoch
        and nothing after, True passed as 1.0 and "0.5" raised a bare
        TypeError from ``<``."""
        gs = Gigascope(metrics=False)
        with pytest.raises(ValueError, match=r"^cadence must be a finite "
                                             r"number >= 0, got "):
            gs.enable_replication(cadence=bad)
        assert gs.planes == {}

    @pytest.mark.parametrize("crash", [None, "packet:2600"])
    def test_the_journal_holds_only_what_a_promotion_replays(self, crash):
        """The plane's journal is the supervisor's: the packets fed
        since the last applied frame and nothing older, and after a
        promotion nothing at all -- the standby journals nothing."""
        gs, plane = replicated(cadence=0.5, crash=crash)
        gs.add_query(FLOWS_QUERY)
        gs.start()
        packets = zipf_packets(count=5000)
        for start in range(0, len(packets), 250):
            gs.feed(packets[start:start + 250], pump_every=128)
            journal = plane.journal
            assert journal.packets == (
                0 if plane.promoted
                else plane.primary.packets_fed - plane.log.cursor)
            assert journal.packets < 250 + 128
        assert plane.log.seq >= (9 if crash else 19)
        assert plane.promoted is (crash is not None)
        if crash:
            assert plane.journal.entries == []

    def run_big(self, packets, replicate, crash=None):
        """``big`` with ``$least`` raised after 500 packets, between
        two frames."""
        gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
        plane = (gs.enable_replication(cadence=0.5, crash=crash)
                 if replicate else None)
        gs.add_query(FLOWS_QUERY)
        gs.add_query(self.BIG, params={"least": 0})
        subs = [gs.subscribe("flows"), gs.subscribe("big")]
        gs.start()
        gs.feed(packets[:500], pump_every=128)
        gs.set_param("big", "least", self.LEAST)
        assert gs.get_param("big", "least") == self.LEAST
        gs.feed(packets[500:], pump_every=128)
        gs.flush()
        return [sub.poll() for sub in subs], gs, plane

    @pytest.mark.parametrize("crash", [None, "packet:550", "packet:1100"])
    def test_a_parameter_set_before_a_crash_governs_the_standby(self, crash):
        packets = zipf_packets()
        clean, plain, _ = self.run_big(packets, replicate=False)
        rows, gs, plane = self.run_big(packets, replicate=True, crash=crash)
        assert rows == clean
        assert plane.replication_report()["promoted"] is (crash is not None)
        late = clean[1][500:]
        assert 350 < len(late) < 700  # the raised bound filters
        assert all(row[1] >= self.LEAST for row in late)
        assert gs.generated_code("big") == plain.generated_code("big")
        assert gs.plan_of("big").describe() == plain.plan_of("big").describe()

    def test_remove_query_leaves_both_runtimes(self):
        gs, plane = replicated(crash="packet:450")
        gs.add_query(FLOWS_QUERY)
        gs.add_query(self.BIG, params={"least": 0})
        gs.start()
        packets = zipf_packets(count=600)
        gs.feed(packets[:300], pump_every=128)
        gs.stop()
        gs.remove_query("big")
        for rts in (plane.primary, plane.standby):
            assert "big" not in rts.names() and "flows" in rts.names()
        gs.start()
        gs.feed(packets[300:], pump_every=128)
        report = plane.replication_report()
        assert report["promoted"] and report["apply_errors"] == 0
        assert gs.rts is plane.standby and plane.standby.started
        with pytest.raises(RegistryError, match="no query named 'big'"):
            gs.plan_of("big")

    def test_a_user_written_node_is_refused_by_name(self):
        from repro.operators.defrag import DefragNode
        gs, _ = replicated()
        with pytest.raises(RegistryError, match="user-written node 'defrag'"):
            gs.add_node(DefragNode("defrag", gs.schema_registry.get("udp")),
                        interface="eth0")

    @pytest.mark.parametrize("order", ["sink_first", "replication_first"])
    def test_a_sink_is_a_user_written_node(self, order):
        """A sink used to be registered past ``add_node``'s refusal:
        every frame then named a node the standby lacked, none applied,
        and the journal tail kept every packet."""
        gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
        gs.add_query(FLOWS_QUERY)
        refused = pytest.raises(RegistryError,
                                match="user-written node 'flows_sink'")
        if order == "sink_first":
            attach_sink(gs, "flows", JsonlSink, io.StringIO())
            with refused:
                gs.enable_replication(cadence=0.5)
            assert gs.planes == {}
        else:
            plane = gs.enable_replication(cadence=0.5)
            with refused:
                attach_sink(gs, "flows", JsonlSink, io.StringIO())
            for rts in plane.runtimes:
                assert rts.names() == ["_fta_flows_0", "flows"]

    def test_the_plane_is_the_one_replication_hook(self):
        gs, plane = replicated(crash="packet:300")
        gs.add_query(FLOWS_QUERY)
        gs.start()
        gs.feed(zipf_packets(count=600), pump_every=128)
        assert plane.promoted
        for rts in (plane.primary, plane.standby):
            hooks = [hook for _, hook in rts._attached
                     if _plane_name(hook) == "replication"]
            assert len(hooks) == 1 and hooks[0] is plane

    @pytest.mark.parametrize("crash", [None, "packet:40"])
    def test_feed_packet_pumps_as_on_a_plain_engine(self, crash):
        """A replicated ``feed_packet`` used to pump twice per packet."""
        packets = zipf_packets(count=100)

        def run(replicate):
            gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
            plane = (gs.enable_replication(cadence=0.5, crash=crash)
                     if replicate else None)
            gs.add_query(FLOWS_QUERY)
            sub = gs.subscribe("flows")
            gs.start()
            pumps = []
            for rts in plane.runtimes if plane else [gs.rts]:
                rts.pump = lambda pump=rts.pump: pumps.append(1) or pump()
            for packet in packets:
                gs.feed_packet(packet)
            fed_pumps = len(pumps)
            gs.flush()
            return sub.poll(), fed_pumps, plane

        clean, plain_pumps, _ = run(False)
        rows, pumps, plane = run(True)
        assert plain_pumps == pumps == 0
        assert rows == clean and len(clean) > 10
        report = plane.replication_report()
        assert report["promoted"] is (crash is not None)
        if crash:
            # found dead at the flush's pump, the first boundary: every
            # packet since the epoch is replayed
            assert report["failure_reason"] == "crash injected at packet 40"
            assert (report["rpo_packets"], report["replayed_packets"]) == (
                40, 100)
            assert report["apply_errors"] == 0

    def test_feed_pumps_once_per_boundary(self):
        """A replicated ``feed`` used to pump twice per ``pump_every``
        slice, and cadence 0 cut a frame at each of the two; then once
        per slice, one pump fewer than a plain feed."""
        packets = zipf_packets(count=1280)

        def run(replicate):
            gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
            plane = gs.enable_replication(cadence=0) if replicate else None
            gs.add_query(FLOWS_QUERY)
            sub = gs.subscribe("flows")
            gs.start()
            pumps = []
            for rts in plane.runtimes if plane else [gs.rts]:
                rts.pump = lambda pump=rts.pump: pumps.append(1) or pump()
            gs.feed(packets, pump_every=128)
            fed = len(pumps), plane and plane.log.seq + 1
            gs.flush()
            return sub.poll(), fed

        clean, (plain_pumps, _) = run(False)
        rows, (pumps, frames) = run(True)
        # Ten boundaries, and one more pump as the feed returns; cadence
        # 0 ships a frame at each.
        assert (plain_pumps, pumps, frames) == (11, 11, 11)
        assert rows == clean

    def test_replication_is_listed_and_imported_lazily(self):
        import subprocess
        import sys
        code = ("import sys, repro; g = repro.Gigascope(); "
                "print('repro.recovery' in sys.modules); "
                "g.enable_replication(); print(list(g.planes))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ)).stdout.split("\n")
        assert out[:2] == ["False", "['replication']"]


# ---------------------------------------------------------------------------
# A quarantined node across a promotion
# ---------------------------------------------------------------------------

class TestQuarantine:
    """``flows`` fails once at its ``at_tuple``-th tuple and is
    quarantined: the primary stops updating it.  A promoted standby used
    to resume it from the last frame's state and emit rows the
    uninterrupted run never did."""

    @staticmethod
    def run(at_tuple, replicate=True, crash=None, log_path=None):
        gs = Gigascope(seed=7, heartbeat_interval=0.5, lfta_table_size=64,
                       metrics=False)
        plane = (gs.enable_replication(cadence=0.5, crash=crash,
                                       log_path=log_path)
                 if replicate else None)
        gs.add_query(_FLOWS)
        sub = gs.subscribe("flows")
        gs.inject_faults([f"operator_error:node=flows,at_tuple={at_tuple},"
                          f"times=1"])
        gs.start()
        gs.feed(_zipf(7), pump_every=128)
        gs.flush()
        return sub.poll(), gs, plane

    # at_tuple=1 fails inside the first pump, before the full epoch is
    # cut; at_tuple=50 a pump after it.
    @pytest.mark.parametrize("at_tuple", [1, 50])
    @pytest.mark.parametrize("crash", [None, "packet:700", "packet:2500"])
    def test_a_quarantined_node_stays_quarantined(self, at_tuple, crash):
        clean, plain, _ = self.run(at_tuple, replicate=False)
        assert "flows" in plain.rts.quarantined
        rows, gs, plane = self.run(at_tuple, crash=crash)
        assert rows == clean
        report = plane.replication_report()
        assert report["promoted"] is (crash is not None)
        assert report["apply_errors"] == 0
        assert gs.rts.quarantined == plain.rts.quarantined
        assert gs.rts.nodes_quarantined == 1
        # the FLUSH the quarantine pushed reached the application
        assert [sub.ended for sub in gs.rts.subscriptions] == [True]
        # Frames cut after the quarantine leave the node out, as
        # checkpoints do.
        if at_tuple == 1 or plane.log.seq >= 1:
            assert "flows" not in plane.log.nodes

    def test_a_node_quarantined_before_the_epoch_is_dropped_by_it(
            self, tmp_path):
        path = tmp_path / "repl.log"
        self.run(at_tuple=1, log_path=str(path))
        epoch = decode_frame(logged_frames(path)[0])
        assert epoch["kind"] == "full" and epoch["dropped"] == ["flows"]
        assert "flows" not in epoch["nodes"]


class TestInjectorsOutliveThePrimary:
    """A ring-loss burst armed before the crash and open after it keeps
    dropping on the promoted standby: the promotion re-arms the
    packet-path injectors there."""

    @staticmethod
    def run(crash):
        gs = Gigascope(seed=7, heartbeat_interval=0.5, lfta_table_size=64,
                       metrics=False)
        gs.enable_replication(cadence=0.5, crash=crash)
        gs.add_query(_FLOWS)
        sub = gs.subscribe("flows")
        gs.start()
        gs.inject_faults(["ring_burst:at=1.0,duration=0.5"])
        gs.feed(_zipf(7), pump_every=128)
        gs.flush()
        return sub.poll(), gs

    def test_a_burst_after_the_crash_still_drops(self):
        clean, plain = self.run(None)
        rows, gs = self.run("packet:700")
        assert gs.replication_report()["promoted"]
        assert plain.rts.fault_dropped == gs.rts.fault_dropped == 1000
        assert rows == clean


# ---------------------------------------------------------------------------
# Recovery and replication are the two switches of one plane
# ---------------------------------------------------------------------------

class TestOneDurabilityPlane:
    def run(self, recover=None, replicate=None, crash=None, fault=None):
        """The flows query over ``zipf_packets(3000)``; returns the
        engine, its plane, the rows and the time of every frame folded."""
        gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False)
        plane = None
        if replicate is not None:
            plane = gs.enable_replication(cadence=replicate, crash=crash)
        gs.add_query(FLOWS_QUERY)
        sub = gs.subscribe("flows")
        if recover is not None:
            plane = gs.enable_recovery(checkpoint_interval=recover)
        if fault:
            gs.inject_faults([fault])
        times, fold = [], plane.log.fold

        def timed_fold(blob, into=None):
            frame = fold(blob, into=into)
            times.append(frame["time"])
            return frame

        plane.log.fold = timed_fold
        gs.start()
        gs.feed(zipf_packets(count=3000), pump_every=128)
        gs.flush()
        return gs, plane, sub.poll(), times

    @pytest.mark.parametrize("first", ["recovery", "replication"])
    def test_both_switches_list_one_plane_with_one_log_and_journal(self,
                                                                   first):
        gs = Gigascope(metrics=False)
        switches = {"recovery": gs.enable_recovery,
                    "replication": gs.enable_replication}
        plane = switches[first]()
        assert list(gs.planes) == [first]
        second = "replication" if first == "recovery" else "recovery"
        assert switches[second]() is plane
        assert list(gs.planes) == [first, second]
        assert gs.planes[second] is plane
        for rts in plane.runtimes:
            hooked = [hook for _, hook in rts._attached]
            assert hooked.count(plane) == 1
        assert [hook for _, hook in gs.rts._attached
                if isinstance(hook, Journal)] == [plane.journal]
        with pytest.raises(RegistryError, match=f"{first} already enabled"):
            switches[first]()

    @pytest.mark.parametrize("recover, replicate", [(2.0, 0.7), (0.7, 2.0)])
    def test_one_frame_per_cadence_of_the_tighter_setting(self, recover,
                                                          replicate):
        """Pump boundaries are 0.32 s apart (128 packets at 400 pps):
        a frame at the first one 0.7 s past the last."""
        _, plane, rows, times = self.run(recover=recover,
                                         replicate=replicate)
        _, _, alone, tighter = self.run(recover=0.7)
        assert times == tighter and rows == alone
        assert plane.interval == 0.7
        assert plane.checkpoints_taken == len(times) == plane.log.seq + 1
        finite = times[1:]  # the baseline is cut as the engine starts
        assert len(finite) >= 7 and all(
            0.7 <= later - earlier < 0.7 + 0.33
            for earlier, later in zip(finite, finite[1:]))

    def test_a_promotion_hands_over_the_budget_of_the_fold(self):
        """``flows`` fails, fails again in the rollback's replay and
        waits out its backoff; the primary dies meanwhile.  The standby
        holds the frame before the failure, so its budget is unspent."""
        fault = "operator_error:node=flows,at_tuple=150,times=2"
        gs, _, clean, _ = self.run(recover=0.4, fault=fault)
        assert gs.recovery_report()["restarts"] == {"flows": 2}
        # flows fails in the pump that ends at packet 2048
        gs, plane, rows, _ = self.run(recover=0.4, replicate=0.5,
                                      crash="packet:2000", fault=fault)
        assert rows == clean
        assert plane.promoted and gs.rts is plane.standby
        assert plane.primary.node("flows").quarantined.startswith(
            "recovering: ")
        assert plane.restarts == {} and plane.suspended == []

    def test_the_frame_counters_freeze_at_a_promotion(self, monkeypatch):
        """The promoted runtime goes on cutting frames for its own
        rollbacks; no standby folds them, so what the replication
        switch reports of its frames keeps the promotion's values."""
        from repro.determinism import Arm, LastRun, run_scenario
        from repro.recovery.supervisor import RecoverySupervisor
        promote, at_promotion = RecoverySupervisor._promote, []

        def recorded(plane, reason):
            promote(plane, reason)
            at_promotion.append(plane.replication_report())

        monkeypatch.setattr(RecoverySupervisor, "_promote", recorded)
        final = run_scenario("failover_recovery", arm=Arm.parse(
            "topology=standby:0.5,crash=packet:1500"))["failover"]
        frozen = ("frames_full", "frames_delta", "bytes_total",
                  "nodes_shipped", "last_frame_time", "applied_seq",
                  "applied_time", "cursor", "frames_applied")
        [promoted] = at_promotion
        assert {key: final[key] for key in frozen} == {
            key: promoted[key] for key in frozen}
        assert (final["applied_seq"], final["bytes_total"]) == (2, 13452)
        plane = LastRun.engine.planes["replication"]
        assert plane.checkpoints_taken > final["frames_applied"]
