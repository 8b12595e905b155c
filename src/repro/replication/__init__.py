"""Continuous replication and warm-standby failover (DESIGN section 16).

A checkpoint is local: a process loss forfeits everything since it.
This package streams the state log (:mod:`repro.recovery.statelog`: a
full epoch, then per-cadence deltas, cut at quiescent pump boundaries)
from the primary runtime to a warm standby that folds each frame into
live operator state; the frame codec and its typed errors are the
state log's, re-exported here.

* :mod:`.shipper` -- :class:`ReplicationShipper`, which cuts the frames;
* :mod:`.replica` -- :class:`StandbyReplica`, which applies them;
* :mod:`.failover` -- :class:`ReplicationPlane`, the ``replication``
  plane ``Gigascope.enable_replication()`` attaches: the standby, its
  promotion, journal-tail replay and exactly-once delivery.
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
    ReplicationPlane,
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
    "ReplicationPlane",
    "parse_crash_spec",
    "resolve_replicate_cadence",
]
