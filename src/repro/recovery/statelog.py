"""The state log: the one place live operator state becomes bytes and
comes back (DESIGN section 11.1).

A state log is a sequence of **frames** cut from one RTS.  Each frame
is one GSCK blob (:mod:`repro.recovery.wire`: magic, version,
checksummed payload) whose payload is a dict:

``{"v", "kind", "seq", "time", "cursor", "counters", "nodes",
"dropped", "extra"}``

* ``v`` -- the frame layout version (checked on top of the GSCK wire
  version, which covers the value encoding itself).
* ``kind`` -- ``"full"`` for the epoch-opening snapshot of every node,
  ``"delta"`` for the later frames, which carry only the nodes whose
  encoded state changed since the previous frame.
* ``seq`` -- dense frame sequence number starting at 0; the fold
  refuses gaps, duplicates, and reordering.
* ``time`` -- the virtual (stream) time of the quiescent pump boundary
  the frame was cut at.
* ``cursor`` -- how many input packets the cut engine had consumed:
  the point a reader resumes the feed from.
* ``counters`` -- the RTS-level counters
  (:meth:`repro.core.stream_manager.RuntimeSystem.counters_state`).
* ``nodes`` -- ``{node_name: gsck_blob}``: each node's ``{"node",
  "type", "state"}`` envelope independently GSCK-encoded, so every node
  state carries its own checksum and a corrupt node names itself.
* ``dropped`` -- names the nodes this cut left out that the fold
  would otherwise hold: those earlier frames shipped, and for a full
  epoch every one of the engine's (a cut skips a quarantined node).
* ``extra`` -- opaque to the log; the shard worker keeps its barrier
  position there, the durability plane its restart budget.

:class:`StateLog` is the fold of such a sequence and has the only
implementation of each verb: :meth:`~StateLog.cut` (the next frame,
from a live RTS), :meth:`~StateLog.fold` (validate, then a
``dict.update`` -- state is the integral of its deltas, and no node
blob is decoded to fold it) and :meth:`~StateLog.restore` (apply to a
live RTS).  The readers keep only what is theirs: the durability
plane its cadence, budget, backoff and failure detection, the shard
parent its barriers.  The plane restores one way onto either of its
targets, the RTS itself or its standby: a fold and then one
:class:`~repro.recovery.journal.Journal` replayed onto the target.

Failure is typed and total: a frame that cannot be fully decoded and
validated raises one of the :class:`FrameError` subclasses below --
naming the offending frame, and the node when one is at fault -- and
is **never applied partially**.
"""

from __future__ import annotations

import math
import struct
from typing import Any, BinaryIO, Dict, Iterable, List, Optional

from repro.core.channels import all_quiescent
from repro.recovery.wire import (
    SnapshotError,
    SnapshotVersionError,
    decode_snapshot,
    encode_snapshot,
)

#: Version of the frame layout described above.  Bump it whenever the
#: payload structure changes; a reader refuses frames from any other
#: version instead of misreading them.  (v2: node blobs are ``{"node",
#: "type", "state"}`` envelopes; frames carry ``dropped`` and ``extra``)
REPLICATION_VERSION = 2

FRAME_KINDS = ("full", "delta")

_REQUIRED_KEYS = ("v", "kind", "seq", "time", "cursor", "counters",
                  "nodes", "dropped", "extra")


class StateLogError(Exception):
    """Base class for every state-log failure."""


class FrameError(StateLogError):
    """A state-log frame was refused; names the frame."""

    def __init__(self, frame: Any, message: str) -> None:
        self.frame = frame
        super().__init__(f"state frame {frame}: {message}")


class FrameCorruptError(FrameError):
    """The frame's bytes (or one node blob inside it) fail validation."""


class FrameVersionError(FrameError):
    """The frame was cut under a different (stale or future) version."""


class FrameSequenceError(FrameError):
    """The frame arrived out of order: a gap, duplicate, or rewind."""


def encode_frame(kind: str, seq: int, time: float, cursor: int,
                 counters: Optional[Dict[str, Any]],
                 nodes: Dict[str, bytes], dropped: Iterable[str] = (),
                 extra: Any = None) -> bytes:
    """Encode one state-log frame as a checksummed GSCK blob."""
    if kind not in FRAME_KINDS:
        raise StateLogError(f"unknown frame kind {kind!r}")
    return encode_snapshot({
        "v": REPLICATION_VERSION, "kind": kind, "seq": seq, "time": time,
        "cursor": cursor, "counters": counters, "nodes": nodes,
        "dropped": list(dropped), "extra": extra,
    })


def decode_frame(blob: bytes, expect: Any = "?") -> Dict[str, Any]:
    """Decode and structurally validate one frame; typed errors only.

    ``expect`` labels the error when the frame is too damaged to name
    itself (a truncated header has no readable ``seq``); the fold
    passes the sequence number it was expecting.
    """
    try:
        frame = decode_snapshot(blob)
    except SnapshotVersionError as error:
        raise FrameVersionError(expect, str(error)) from error
    except SnapshotError as error:
        raise FrameCorruptError(expect, str(error)) from error
    if not isinstance(frame, dict):
        raise FrameCorruptError(expect, "payload is not a frame dict")
    missing = [key for key in _REQUIRED_KEYS if key not in frame]
    if missing:
        raise FrameCorruptError(frame.get("seq", expect),
                                f"missing field(s) {missing}")
    label = frame["seq"]
    if frame["v"] != REPLICATION_VERSION:
        raise FrameVersionError(
            label, f"layout version {frame['v']} != "
                   f"supported {REPLICATION_VERSION}")
    if frame["kind"] not in FRAME_KINDS:
        raise FrameCorruptError(label, f"unknown kind {frame['kind']!r}")
    if not isinstance(frame["seq"], int) or frame["seq"] < 0:
        raise FrameCorruptError(expect, f"bad seq {frame['seq']!r}")
    if not isinstance(frame["nodes"], dict):
        raise FrameCorruptError(label, "nodes field is not a dict")
    for name, node_blob in frame["nodes"].items():
        if not isinstance(node_blob, bytes):
            raise FrameCorruptError(
                label, f"node {name!r} state is not an encoded blob")
    if not isinstance(frame["dropped"], list):
        raise FrameCorruptError(label, "dropped field is not a list")
    return frame


def append_frame(handle: BinaryIO, frame: bytes) -> None:
    """Append one frame to a log file, length-prefixed (``>I``): the
    ``--replicate-log`` format, and what CI's failure artifacts use."""
    handle.write(struct.pack(">I", len(frame)))
    handle.write(frame)


def read_frames(handle: BinaryIO) -> List[bytes]:
    """Every frame of a log file :func:`append_frame` wrote, in order,
    torn ones included: a frame cut short mid-write comes back as the
    bytes that reached the file, for :meth:`StateLog.fold` to refuse."""
    frames = []
    while len(prefix := handle.read(4)) == 4:
        frames.append(handle.read(struct.unpack(">I", prefix)[0]))
    return frames


def _apply(rts, label: Any, nodes: Dict[str, bytes],
           counters: Optional[Dict[str, Any]], complete: bool,
           dropped: Iterable[str] = (),
           held: Optional[Dict[str, bytes]] = None,
           held_counters: Optional[Dict[str, Any]] = None) -> None:
    """Restore ``nodes`` (and ``counters``) into ``rts``, all-or-nothing;
    ``complete`` refuses an ``rts`` node neither in ``nodes`` nor
    ``dropped``.

    A node ``rts`` quarantined is left as it is: it never runs again.
    Everything is resolved and decoded before the first
    ``restore_state``, so that only a ``restore_state`` that raises
    half-way (a decodable blob missing a key) is left to undo: the
    touched nodes and the counters are rolled back before the typed
    error -- naming frame ``label`` and the node -- is raised.  The
    undo is ``held``, the node blobs of a fold ``rts`` is kept equal
    to, and ``held_counters``, its counters; a node ``held`` lacks (a
    query added after the epoch), and the counters when it holds none,
    are snapshotted before anything is touched.
    """
    known = {name: node for name, node in rts.iter_nodes()
             if name not in rts.quarantined}
    states: Dict[str, Any] = {}
    for name, blob in nodes.items():
        if name in rts.quarantined:
            continue
        if name not in known:
            raise FrameCorruptError(
                label, f"unknown node {name!r} (the query set does not "
                       f"match the one the frame was cut from)")
        try:
            states[name] = decode_snapshot(blob)["state"]
        except (SnapshotError, KeyError, TypeError) as error:
            raise FrameCorruptError(
                label, f"node {name!r}: {error!r}") from error
    if complete:
        missing = sorted(set(known) - set(states) - set(dropped))
        if missing:
            raise FrameCorruptError(
                label, f"full epoch missing node(s) {missing}")
    # Everything decoded and validated; only now touch live state.
    held = held or {}
    undo = {name: held.get(name) or encode_snapshot(
                {"state": known[name].snapshot_state()})
            for name in states}
    undo_counters = (rts.counters_state() if held_counters is None
                     else held_counters)
    at = "counters"
    try:
        for at, state in states.items():
            known[at].restore_state(state)
        at = "counters"
        if counters is not None:
            rts.restore_counters(counters)
    except Exception as error:
        for name, blob in undo.items():
            known[name].restore_state(decode_snapshot(blob)["state"])
        rts.restore_counters(undo_counters)
        raise FrameCorruptError(
            label, f"node {at!r}: restore failed and was rolled back: "
                   f"{type(error).__name__}: {error}") from error


class StateLog:
    """The fold of one state log: every node's latest blob plus the
    last frame's ``seq``/``time``/``cursor``/``counters``/``extra``.

    A writer and its readers each hold one.  The writer's is the fold
    of what it has shipped: :meth:`cut` diffs against it, and folding
    the frame in -- after it reached its reader -- is the commit.
    """

    def __init__(self) -> None:
        #: node name -> encoded state blob; updated in place, never
        #: rebound (the durability plane exposes it as ``checkpoints``)
        self.nodes: Dict[str, bytes] = {}
        self.seq = -1
        self.time = -math.inf
        self.cursor = 0
        self.counters: Optional[Dict[str, Any]] = None
        self.extra: Any = None

    def cut(self, rts, stream_time: float, cursor: int,
            extra: Any = None) -> Optional[bytes]:
        """The frame that extends this log with ``rts``'s state now, or
        None when a channel holds in-flight items.

        Frame 0 is ``full``; later ones carry only the nodes whose
        bytes differ from the fold.  The log does not move until the
        frame is folded in, so a frame that never reached its reader is
        simply cut again at the next boundary: same ``seq``, the union
        of the changes.  A quarantined node is left out: it never runs
        again, and a promoted standby quarantines it again.
        """
        cut = {name: node for name, node in rts.iter_nodes()
               if node.quarantined is None}
        # Quiescence covers the channels into the nodes cut only: an
        # item in flight there is state the frame would miss (what a
        # quarantined node left in its inputs is never popped).
        # Application subscription channels are delivery, not
        # computation -- they drain at the subscriber's leisure.
        internal = (channel for node in cut.values()
                    for _producer, channel in node.input_links)
        if not all_quiescent(internal):
            return None
        # Encoding happens immediately, so the bytes are isolated from
        # later mutation of the live state.
        current = {
            name: encode_snapshot({"node": name,
                                   "type": type(node).__name__,
                                   "state": node.snapshot_state()})
            for name, node in cut.items()
        }
        shipped = self.nodes
        return encode_frame(
            "full" if self.seq < 0 else "delta", self.seq + 1, stream_time,
            cursor, rts.counters_state(),
            {name: blob for name, blob in current.items()
             if shipped.get(name) != blob},
            [name for name in (shipped if self.seq >= 0 else rts._nodes)
             if name not in current], extra)

    def fold(self, blob: bytes, into=None) -> Dict[str, Any]:
        """Validate one frame and fold it in; returns the decoded frame.

        ``into`` is a live RTS kept equal to the fold (the warm
        standby): the frame's nodes are applied to it first, and a
        frame that does not apply is not folded either -- the fold's
        own blobs and counters are what it is rolled back to.  Any refusal
        is a typed :class:`FrameError` and leaves log and RTS where the
        previous frame left them.
        """
        expected = self.seq + 1
        frame = decode_frame(blob, expect=expected)
        seq, kind = frame["seq"], frame["kind"]
        if seq != expected:
            raise FrameSequenceError(
                seq, f"out of order: expected seq {expected}")
        if kind == "full" and self.seq >= 0:
            raise FrameSequenceError(
                seq, "full epoch after frames were applied")
        if kind == "delta" and self.seq < 0:
            raise FrameSequenceError(seq, "delta before any full epoch")
        if into is not None:
            _apply(into, seq, frame["nodes"], frame["counters"],
                   complete=kind == "full", dropped=frame["dropped"],
                   held=self.nodes, held_counters=self.counters)
        self.nodes.update(frame["nodes"])
        for name in frame["dropped"]:
            self.nodes.pop(name, None)
        self.seq = seq
        self.time = frame["time"]
        self.cursor = frame["cursor"]
        self.counters = frame["counters"]
        self.extra = frame["extra"]
        return frame

    def full_frame(self) -> bytes:
        """The fold as one ``full`` frame opening a new log: what a
        fresh log would have cut at the last folded boundary."""
        return encode_frame("full", 0, self.time, self.cursor,
                            self.counters, self.nodes, (), self.extra)

    def restore(self, rts) -> None:
        """Apply the fold to a live RTS, all-or-nothing: every node it
        has not quarantined, and the counters."""
        _apply(rts, self.seq, self.nodes, self.counters, complete=True)
