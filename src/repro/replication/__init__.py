"""Continuous replication and warm-standby failover (DESIGN section 16).

PR 5's checkpoints are local and stop-the-world at pump boundaries: a
process loss still forfeits everything since the last snapshot.  This
package streams the state log (:mod:`repro.recovery.statelog`: a full
snapshot epoch followed by per-cadence delta frames, cut at the same
quiescent pump boundaries and by the same cutter the recovery
supervisor uses) continuously from a primary engine to a warm standby
that folds each frame into live operator state.  The frame codec and
its typed error family (corrupt / stale-version / out-of-order frames
are refused by name, never applied partially) are the state log's,
re-exported here.

* :mod:`repro.replication.shipper` -- the primary-side
  :class:`ReplicationShipper`, attached to the RTS in the
  ``replication`` phase and invoked at every pump boundary.
* :mod:`repro.replication.replica` -- the :class:`StandbyReplica`
  applier over a live, started engine.
* :mod:`repro.replication.failover` -- :class:`ReplicatedGigascope`,
  the primary+standby pair with heartbeat-silence detection,
  promote-on-failure, journal-tail replay, and exactly-once delivery
  gating; byte-identical to an uninterrupted run (``replay verify
  --scenario failover_agg``).
"""

from repro.recovery.statelog import (
    REPLICATION_VERSION,
    FrameCorruptError,
    FrameError,
    FrameSequenceError,
    FrameVersionError,
    StateLogError as ReplicationError,
    decode_frame,
    encode_frame,
)
from repro.replication.failover import (
    DEFAULT_CADENCE,
    ReplicatedGigascope,
    parse_crash_spec,
    resolve_replicate_cadence,
)
from repro.replication.replica import StandbyReplica
from repro.replication.shipper import ReplicationShipper

__all__ = [
    "DEFAULT_CADENCE",
    "REPLICATION_VERSION",
    "ReplicationError",
    "FrameError",
    "FrameCorruptError",
    "FrameSequenceError",
    "FrameVersionError",
    "encode_frame",
    "decode_frame",
    "ReplicationShipper",
    "StandbyReplica",
    "ReplicatedGigascope",
    "parse_crash_spec",
    "resolve_replicate_cadence",
]
