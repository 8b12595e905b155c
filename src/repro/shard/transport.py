"""Framed block transport between shard workers and the parent.

Workers ship three frame kinds over their pipe, each one GSCK-encoded
(:mod:`repro.recovery.wire` -- the snapshot format already carries
every stream primitive, is versioned, and is checksummed, so a torn or
stale frame fails loudly instead of decoding into garbage):

* ``rows`` -- one barrier's worth of subscription output, columnar-
  transposed (:func:`repro.net.columnar.rows_to_columns`) so a frame of
  N same-schema rows encodes each column once instead of N tuples.
* ``state`` -- one state-log frame (:mod:`repro.recovery.statelog`) cut
  at a barrier: the worker engine's full state the first time, then
  only the nodes whose encoded state changed, with the packet cursor
  and the barrier position.  The parent folds them and respawns a
  crashed worker from the fold.
* ``end`` -- the worker's final statistics payload (per-node counters,
  per-channel overflow ledgers, packet totals).

Every frame carries a sequence number, monotone per worker run *and*
across restarts (a restored worker resumes its counter from the state
frame it was restored from), so the parent drops replayed duplicates
with a single ``seq <= last_seen`` check and exactly-once delivery
survives the process boundary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.net.columnar import columns_to_rows, rows_to_columns
from repro.recovery.wire import decode_snapshot, encode_snapshot

#: frame kinds
ROWS = "rows"
STATE = "state"
END = "end"


def encode_frame(kind: str, seq: int, payload: Any) -> bytes:
    """Frame one worker->parent message as GSCK bytes."""
    return encode_snapshot({"kind": kind, "seq": seq, "payload": payload})


def decode_frame(blob: bytes) -> Tuple[str, int, Any]:
    """Validate and split a frame into ``(kind, seq, payload)``."""
    frame = decode_snapshot(blob)
    return frame["kind"], frame["seq"], frame["payload"]


def pack_rows(rows_by_sub: Dict[str, List[tuple]]) -> Dict[str, Any]:
    """Columnar-transpose each subscription's rows for the wire."""
    return {name: rows_to_columns(rows)
            for name, rows in rows_by_sub.items()}


def unpack_rows(payload: Dict[str, Any]) -> Dict[str, List[tuple]]:
    """Invert :func:`pack_rows`: blocks back into row tuples."""
    return {name: columns_to_rows(block)
            for name, block in payload.items()}
