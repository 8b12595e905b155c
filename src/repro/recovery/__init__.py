"""Checkpoint/restore and supervised node recovery (DESIGN section 11).

* :mod:`repro.recovery.wire` -- the versioned, crc32-checksummed
  snapshot wire format every stateful operator serializes into.
* :mod:`repro.recovery.statelog` -- the state log: the one cut, fold and
  apply behind checkpoints, shard respawn and replication frames.
* :mod:`repro.recovery.journal` -- the one input journal: what an RTS
  was handed since a cut, the application's takes included, and its
  replay onto a restored RTS -- a rollback in place, or a promoted
  standby, exactly-once either way.
* :mod:`repro.recovery.supervisor` -- the one durability plane: one
  state log, one journal and one cadence, put back onto the RTS itself
  (bounded-retry rollback of a failed node) or onto a warm standby
  promoted when the primary dies.

Its two switches are :meth:`repro.core.engine.Gigascope.enable_recovery`
(``--recover`` / ``--checkpoint-interval`` / ``--max-restarts``) and
``enable_replication`` (``--standby`` and the flags that imply it).
"""

from repro.recovery.supervisor import RecoverySupervisor
from repro.recovery.wire import (
    MAGIC,
    SNAPSHOT_VERSION,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    decode_snapshot,
    encode_snapshot,
)

__all__ = [
    "MAGIC",
    "SNAPSHOT_VERSION",
    "RecoverySupervisor",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotVersionError",
    "decode_snapshot",
    "encode_snapshot",
]
