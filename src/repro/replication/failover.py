"""Primary + warm standby with promote-on-failure (DESIGN section 16).

:class:`ReplicatedGigascope` runs two identically configured engines.
The **primary** processes the packet stream; a
:class:`~repro.replication.shipper.ReplicationShipper` on its RTS cuts
checksummed, seq-numbered frames at quiescent pump boundaries and the
**standby** applies each one into live operator state
(:class:`~repro.replication.replica.StandbyReplica`), so the standby
is always the primary as of the last good frame.

Promotion -- triggered by an injected hard crash (testing) or by the
heartbeat-silence detector (``promote_after``) -- follows a fixed
protocol:

1. the primary is declared dead; its subscription channels are drained
   one last time (rows already emitted into our process survive the
   primary's death and count as delivered);
2. the standby's journal tail is the retained packet list from the
   last applied frame's ``cursor``: re-feeding it replays exactly the
   window the frames missed;
3. exactly-once output: the standby's restored per-node ``tuples_out``
   says how many rows it will regenerate that were already delivered,
   so each subscription arms a skip gate for the difference -- the
   same delivered-minus-restored arithmetic as the recovery
   supervisor's emit gates, applied at the subscription boundary;
4. the feed resumes on the standby from the cursor, then continues
   with the rest of the stream.

Because a run is a pure function of (queries, packets, seed) and a
subscription's row sequence after K packets is a deterministic prefix
of the canonical sequence regardless of pump timing, the promoted
standby's output is byte-identical to an uninterrupted primary --
enforced by ``replay verify --scenario failover_agg`` across hash seeds
and crash points (including a crash mid-frame: a torn frame is refused
by the applier, typed and total, and promotion falls back one frame).
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.core.engine import Gigascope, refuses
from repro.core.stream_manager import check_pump_every
from repro.obs.ledger import Field, Ledger
from repro.recovery.statelog import FrameError, StateLogError, append_frame
from repro.replication.replica import StandbyReplica
from repro.replication.shipper import ReplicationShipper

#: Default virtual-time seconds between delta frames.
DEFAULT_CADENCE = 1.0


def resolve_replicate_cadence(value: Optional[Any] = None) -> Optional[float]:
    """Validate the ``--replicate`` cadence (None: not requested).

    Raises ``ValueError`` on a malformed or negative cadence -- the CLI
    turns that into a usage error (exit 2), same as every other knob.
    """
    if value is None:
        return None
    try:
        cadence = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"--replicate must be a number of virtual "
                         f"seconds, got {value!r}") from None
    if cadence < 0 or math.isnan(cadence) or math.isinf(cadence):
        raise ValueError(f"--replicate must be >= 0 and finite, "
                         f"got {value!r}")
    return cadence


def parse_crash_spec(text: str) -> Dict[str, Any]:
    """Parse a failover crash spec.

    ``packet:K``       -- the primary dies right after packet index K
                          (mid delta-interval);
    ``frame:N``        -- the primary dies right after shipping frame N
                          (a snapshot/delta boundary);
    ``frame:N:torn``   -- frame N is written truncated (a crash
                          mid-frame), then the primary dies: the
                          standby refuses the torn frame and promotion
                          falls back to frame N-1.
    """
    parts = text.split(":")
    if len(parts) < 2 or parts[0] not in ("packet", "frame"):
        raise ValueError(f"bad crash spec {text!r}; use packet:K, "
                         f"frame:N, or frame:N:torn")
    torn = False
    if len(parts) == 3:
        if parts[0] != "frame" or parts[2] != "torn":
            raise ValueError(f"bad crash spec {text!r}; only frame:N:torn "
                             f"takes a third field")
        torn = True
    elif len(parts) != 2:
        raise ValueError(f"bad crash spec {text!r}")
    try:
        at = int(parts[1])
    except ValueError:
        raise ValueError(f"bad crash spec {text!r}: {parts[1]!r} is not "
                         f"an integer")
    if at < 0:
        raise ValueError(f"bad crash spec {text!r}: index must be >= 0")
    return {"kind": parts[0], "at": at, "torn": torn}


class FailoverSubscription:
    """A subscription that survives promotion with exactly-once rows."""

    def __init__(self, name: str, inner) -> None:
        self.name = name
        self._inner = inner
        self._pending: List[tuple] = []
        #: rows drained from an engine so far -- delivered into this
        #: process, whether or not the application polled them yet
        self.delivered = 0
        #: regenerated rows still to drop after a promotion
        self.skip = 0
        #: rows actually dropped by the gate (exactly-once accounting)
        self.suppressed = 0
        self.ended = False

    def _drain(self) -> None:
        rows = self._inner.poll()
        if self.skip:
            gated = min(self.skip, len(rows))
            rows = rows[gated:]
            self.skip -= gated
            self.suppressed += gated
        self._pending.extend(rows)
        self.delivered += len(rows)
        if self._inner.ended:
            self.ended = True

    def poll(self) -> List[tuple]:
        """All data tuples received since the last poll."""
        self._drain()
        rows = self._pending
        self._pending = []
        return rows

    def _promote(self, inner, regenerated: int) -> None:
        """Swap to the standby's channel, arming the skip gate."""
        self._drain()  # final drain: pre-crash rows survive in-process
        self._inner = inner
        self.skip = self.delivered - regenerated
        if self.skip < 0:
            raise StateLogError(
                f"subscription {self.name!r}: standby ahead of delivery "
                f"({regenerated} regenerated vs {self.delivered} "
                f"delivered)")
        self.ended = False


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


#: Read off the pair; all ``gs_repl``-prefixed, so a snapshot-diffing
#: caller can strip them the way ``gs_recovery*`` is stripped.
LEDGER = Ledger("replication", (
    Field("frames_delta", "gs_repl_frames_total", "counter",
          "replication frames cut at quiescent pump boundaries", "kind",
          read=lambda pair: pair.shipper.frames),
    Field("bytes_total", "gs_repl_bytes_total", "counter",
          "encoded replication frame bytes shipped",
          read=lambda pair: pair.shipper.bytes_total),
    Field("nodes_shipped", "gs_repl_nodes_shipped_total", "counter",
          "per-node state blobs carried by frames (delta frames carry "
          "only the nodes whose state changed)",
          read=lambda pair: pair.shipper.nodes_shipped),
    Field("skipped_unquiescent", "gs_repl_skipped_unquiescent_total",
          "counter",
          "frame cuts deferred because a channel held in-flight items",
          read=lambda pair: pair.shipper.skipped_unquiescent),
    Field("applied_seq", "gs_repl_last_frame_seq", "gauge",
          "sequence number of the latest frame "
          "applied by the standby (-1 before the full epoch)",
          read=lambda pair: pair.replica.applied_seq),
    Field("applied_time", "gs_repl_last_frame_time_seconds", "gauge",
          "virtual time of the latest applied frame",
          read=lambda pair: _finite(pair.replica.applied_time)),
    Field("standby_lag_s", "gs_repl_standby_lag_seconds", "gauge",
          "primary stream time minus the latest applied frame's time "
          "(the recovery-point exposure right now)"),
    Field("apply_errors", "gs_repl_apply_errors_total", "counter",
          "frames the standby refused (corrupt, stale-version, or "
          "out-of-order; never applied partially)",
          read=lambda pair: len(pair.apply_errors)),
    Field("promotions", "gs_repl_promotions_total", "counter",
          "standby promotions after a detected primary failure"),
    Field("replayed_packets", "gs_repl_replayed_packets_total", "counter",
          "journal-tail packets re-fed through the promoted standby"),
    Field("suppressed_rows", "gs_repl_suppressed_rows_total", "counter",
          "already-delivered rows dropped by the promotion skip gates "
          "(exactly-once output)"),
))


#: what a promotion would lose: the state log carries operator state only
_UNTIL_5C = "is not in the state log until ROADMAP 5 (c)"


@refuses({
    "shed": f"the policy's keep-rate {_UNTIL_5C}: a promoted standby would "
            "restart at rate 1.0 and diverge from the primary's output",
    "alerts": f"the epoch clock's last tick {_UNTIL_5C}: a promoted "
              "standby would re-tick epochs the primary already closed",
    "telemetry": f"the hub's sample cursor {_UNTIL_5C}: a promoted standby "
                 "would re-emit or skip _gs_* samples",
    "recovery": f"the supervisor's journal and restart budget {_UNTIL_5C}: "
                "a standby promoted mid-backoff would not know which nodes "
                "were suspended",
    "tracing": "trace ids are sampled and spans kept by the primary's "
               "tracer; neither survives a promotion",
})
class ReplicatedGigascope:
    """A primary/warm-standby engine pair behind the Gigascope API."""

    ledger = LEDGER

    def __init__(self, cadence: float = DEFAULT_CADENCE,
                 promote_after: Optional[float] = None,
                 crash: Optional[str] = None,
                 log_path: Optional[str] = None,
                 **engine_kwargs: Any) -> None:
        if promote_after is not None and promote_after < 0:
            raise ValueError(f"promote_after must be >= 0, "
                             f"got {promote_after}")
        self.primary = Gigascope(**engine_kwargs)
        self.standby = Gigascope(**engine_kwargs)
        self.replica = StandbyReplica(self.standby)
        self.shipper = ReplicationShipper(self.primary.rts, cadence,
                                          self._deliver)
        self.promote_after = promote_after
        self._crash = parse_crash_spec(crash) if crash else None
        self._log_file = open(log_path, "wb") if log_path else None
        #: every frame as shipped (torn bytes included), for artifacts
        self.log_frames: List[bytes] = []
        self.apply_errors: List[str] = []
        #: every subscription handed out, several per name included
        self._subs: List[FailoverSubscription] = []
        self._packets: List[Any] = []
        self._fed = 0
        self.promoted = False
        self.failure_reason: Optional[str] = None
        self._pending_failure: Optional[str] = None
        self.promotions = 0
        self.replayed_packets = 0
        self.promote_wall_s = 0.0
        #: virtual-time window the promotion rolled back (crash time
        #: minus the last applied frame's time): the recovery point
        self.rpo_virtual_s = 0.0
        self.rpo_packets = 0
        # Both engines carry the pair as their replication plane: the
        # standby's registry and report serve after a promotion.
        self.primary.rts.attach_plane(self)
        self.standby.rts.attach_plane(self)

    # -- engine facade -------------------------------------------------------
    @property
    def engine(self) -> Gigascope:
        """The engine currently serving the feed."""
        return self.standby if self.promoted else self.primary

    @property
    def rts(self):
        return self.engine.rts

    @property
    def metrics(self):
        return self.engine.metrics

    @property
    def planes(self):
        return self.engine.planes

    def add_query(self, text: str, params: Optional[Dict] = None,
                  name: Optional[str] = None) -> str:
        result = self.primary.add_query(text, params=params, name=name)
        self.standby.add_query(text, params=params, name=name)
        return result

    def add_queries(self, text: str, params: Optional[Dict] = None):
        names = self.primary.add_queries(text, params=params)
        self.standby.add_queries(text, params=params)
        return names

    def explain(self, name: str) -> str:
        return self.primary.explain(name)

    def schema_of(self, name: str):
        return self.engine.schema_of(name)

    def stats(self):
        return self.engine.stats()

    def subscribe(self, name: str,
                  capacity: Optional[int] = None) -> FailoverSubscription:
        sub = FailoverSubscription(
            name, self.primary.subscribe(name, capacity=capacity))
        self._subs.append(sub)
        return sub

    def inject_faults(self, faults) -> None:
        """Faults arm on the primary only: they are the failure source."""
        self.primary.inject_faults(faults)

    def fault_report(self):
        return self.primary.fault_report()

    def start(self) -> None:
        self.primary.start()
        self.standby.start()

    # -- the replication stream ---------------------------------------------
    def _deliver(self, frame: bytes) -> None:
        seq = self.shipper.log.seq + 1  # the frame being delivered
        crash = self._crash
        if (crash is not None and crash["kind"] == "frame"
                and crash["torn"] and seq == crash["at"]):
            # A crash mid-frame: the log ends in a truncated write.
            frame = frame[: max(1, len(frame) // 2)]
        if self._log_file is not None:
            append_frame(self._log_file, frame)
        self.log_frames.append(frame)
        try:
            self.replica.apply(frame)
        except FrameError as error:
            # A refused frame is recorded, never half-applied; the
            # standby stays at the previous frame.
            self.apply_errors.append(str(error))
        if (crash is not None and crash["kind"] == "frame"
                and seq == crash["at"]):
            self._pending_failure = (
                f"crash injected after frame {seq}"
                + (" (torn mid-write)" if crash["torn"] else ""))

    # -- feeding and failure detection ---------------------------------------
    def feed(self, packets, pump_every: int = 256) -> None:
        check_pump_every(pump_every)
        self._packets.extend(packets)
        total = len(self._packets)
        while self._fed < total:
            engine = self.engine
            # Slices end on the canonical pump_every grid so batch
            # blocks and pump boundaries land on the same packets as
            # one uninterrupted feed would put them.
            end = min((self._fed // pump_every + 1) * pump_every, total)
            if not self.promoted and self._crash is not None \
                    and self._crash["kind"] == "packet" \
                    and self._fed <= self._crash["at"] < end:
                end = self._crash["at"]
                if end > self._fed:
                    engine.feed(self._packets[self._fed:end],
                                pump_every=pump_every)
                self._fed = end
                self._promote(f"crash injected at packet {end}")
                continue
            engine.feed(self._packets[self._fed:end],
                        pump_every=pump_every)
            self._fed = end
            if not self.promoted:
                if self._pending_failure is not None:
                    reason, self._pending_failure = self._pending_failure, \
                        None
                    self._promote(reason)
                elif self._silence_detected():
                    rts = self.primary.rts
                    self._promote(
                        f"heartbeat silence: no heartbeat since "
                        f"t={rts.last_heartbeat:.3f} at "
                        f"t={rts.stream_time:.3f}")

    def feed_packet(self, packet) -> None:
        self.feed([packet], pump_every=1)

    def _silence_detected(self) -> bool:
        if self.promote_after is None:
            return False
        rts = self.primary.rts
        interval = rts.heartbeat_interval
        if interval is None:
            return False
        now, last = rts.stream_time, rts.last_heartbeat
        if math.isinf(now) or math.isinf(last):
            return False
        return now - last > interval + self.promote_after

    # -- promotion -----------------------------------------------------------
    def _promote(self, reason: str) -> None:
        began = perf_counter()
        self.failure_reason = reason
        crash_time = self.primary.rts.stream_time
        if not math.isinf(crash_time) \
                and not math.isinf(self.replica.applied_time):
            self.rpo_virtual_s = crash_time - self.replica.applied_time
        cursor = self.replica.cursor
        self.rpo_packets = self._fed - cursor
        self.replayed_packets = self.rpo_packets
        standby = self.standby
        for sub in self._subs:
            inner = standby.subscribe(sub.name)
            regenerated = standby.rts.node(sub.name).stats.tuples_out
            sub._promote(inner, regenerated)
        self.promoted = True
        self.promotions += 1
        self._fed = cursor
        self.promote_wall_s = perf_counter() - began

    # -- end of stream -------------------------------------------------------
    def flush(self) -> None:
        self.engine.flush()
        for sub in self._subs:
            sub._drain()
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    # -- reporting -----------------------------------------------------------
    @property
    def suppressed_rows(self) -> int:
        return sum(sub.suppressed for sub in self._subs)

    @property
    def standby_lag_s(self) -> Optional[float]:
        """Primary stream time minus the latest applied frame's time
        (None until both clocks have started)."""
        return _finite(self.primary.rts.stream_time
                       - self.replica.applied_time)

    def replication_report(self) -> Dict[str, Any]:
        report = self.shipper.report()
        report.update(self.replica.report())
        report.update(
            standby_lag_s=self.standby_lag_s,
            promoted=self.promoted,
            promotions=self.promotions,
            failure_reason=self.failure_reason,
            replayed_packets=self.replayed_packets,
            suppressed_rows=self.suppressed_rows,
            rpo_packets=self.rpo_packets,
            rpo_virtual_s=self.rpo_virtual_s,
            promote_wall_s=self.promote_wall_s,
            apply_error_log=list(self.apply_errors),
        )
        return report

    #: as the ``replication`` plane (``planes``), this is the report
    report = replication_report

    def overload_report(self):
        return self.engine.overload_report()
