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
* ``dropped`` -- names earlier frames shipped that this cut left out
  (the recovery supervisor stops cutting a quarantined node).
* ``extra`` -- opaque to the log; the shard worker keeps its barrier
  position there.

:class:`StateLog` is the fold of such a sequence and has the only
implementation of each verb: :meth:`~StateLog.cut` (the next frame,
from a live RTS), :meth:`~StateLog.fold` (validate, then a
``dict.update`` -- state is the integral of its deltas, and no node
blob is decoded to fold it) and :meth:`~StateLog.restore` (apply to a
live RTS).  The readers -- recovery supervisor, shard parent, warm
standby -- keep only their journals, barriers, cadence and promotion.

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


def _apply(rts, label: Any, nodes: Dict[str, bytes],
           counters: Optional[Dict[str, Any]], complete: bool) -> None:
    """Restore ``nodes`` (and ``counters``) into ``rts``, all-or-nothing.

    Everything is resolved and decoded before the first
    ``restore_state``; the touched nodes' current state is encoded
    first too, so that a ``restore_state`` that raises half-way (a
    decodable blob missing a key) is rolled back before the typed
    error -- naming frame ``label`` and the node -- is raised.
    """
    known = dict(rts.iter_nodes())
    states: Dict[str, Any] = {}
    for name, blob in nodes.items():
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
        missing = sorted(set(known) - set(states))
        if missing:
            raise FrameCorruptError(
                label, f"full epoch missing node(s) {missing}")
    # Everything decoded and validated; only now touch live state.
    undo = {name: encode_snapshot(known[name].snapshot_state())
            for name in states}
    undo_counters = rts.counters_state()
    at = "counters"
    try:
        for at, state in states.items():
            known[at].restore_state(state)
        at = "counters"
        if counters is not None:
            rts.restore_counters(counters)
    except Exception as error:
        for name, blob in undo.items():
            known[name].restore_state(decode_snapshot(blob))
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
        #: rebound (the recovery supervisor exposes it as ``checkpoints``)
        self.nodes: Dict[str, bytes] = {}
        self.seq = -1
        self.time = -math.inf
        self.cursor = 0
        self.counters: Optional[Dict[str, Any]] = None
        self.extra: Any = None

    def cut(self, rts, stream_time: float, cursor: int, extra: Any = None,
            live_only: bool = False) -> Optional[bytes]:
        """The frame that extends this log with ``rts``'s state now, or
        None when a channel holds in-flight items.

        Frame 0 is ``full``; later ones carry only the nodes whose
        bytes differ from the fold.  The log does not move until the
        frame is folded in, so a frame that never reached its reader is
        simply cut again at the next boundary: same ``seq``, the union
        of the changes.  ``live_only`` leaves quarantined nodes out
        (the recovery supervisor's rule: a node it gave up on has no
        checkpoint to go back to).
        """
        # Quiescence covers the node-to-node channels only: an item in
        # flight there is state the frame would miss.  Application
        # subscription channels are delivery, not computation -- they
        # drain at the subscriber's leisure.
        internal = (channel for node in rts._nodes.values()
                    for _producer, channel in node.input_links)
        if not all_quiescent(internal):
            return None
        # Encoding happens immediately, so the bytes are isolated from
        # later mutation of the live state.
        current = {
            name: encode_snapshot({"node": name,
                                   "type": type(node).__name__,
                                   "state": node.snapshot_state()})
            for name, node in rts.iter_nodes()
            if not (live_only and node.quarantined is not None)
        }
        shipped = self.nodes
        return encode_frame(
            "full" if self.seq < 0 else "delta", self.seq + 1, stream_time,
            cursor, rts.counters_state(),
            {name: blob for name, blob in current.items()
             if shipped.get(name) != blob},
            [name for name in shipped if name not in current], extra)

    def fold(self, blob: bytes, into=None) -> Dict[str, Any]:
        """Validate one frame and fold it in; returns the decoded frame.

        ``into`` is a live RTS kept equal to the fold (the warm
        standby): the frame's nodes are applied to it first, and a
        frame that does not apply is not folded either.  Any refusal
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
                   complete=kind == "full")
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

    def restore(self, rts, names: Optional[List[str]] = None) -> None:
        """Apply the fold to a live RTS, all-or-nothing: every node and
        the counters, or only the nodes in ``names``."""
        if names is None:
            _apply(rts, self.seq, self.nodes, self.counters, complete=True)
        else:
            _apply(rts, self.seq, {name: self.nodes[name] for name in names},
                   None, complete=False)
