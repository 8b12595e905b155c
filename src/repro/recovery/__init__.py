"""Checkpoint/restore and supervised node recovery (DESIGN section 11).

* :mod:`repro.recovery.wire` -- the versioned, ``stable_hash``-checksummed
  snapshot wire format every stateful operator serializes into.
* :mod:`repro.recovery.statelog` -- the state log: the one cut, fold and
  apply behind checkpoints, shard respawn and replication frames.
* :mod:`repro.recovery.supervisor` -- crash-consistent periodic
  checkpoints, input journaling, bounded-retry restart with journal
  replay and exactly-once re-emission.

Enable via :meth:`repro.core.engine.Gigascope.enable_recovery` or the
CLI's ``--recover`` / ``--checkpoint-interval`` / ``--max-restarts``.
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
