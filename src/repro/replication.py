"""Continuous replication and warm-standby failover (DESIGN section 16).

``Gigascope.enable_replication()`` attaches a :class:`ReplicationPlane`.
Its standby is a second :class:`~repro.core.stream_manager.RuntimeSystem`
built from the engine's own query instances -- the same plans and
compilers, so ``set_param`` reaches both -- and kept warm: at a
quiescent pump boundary on the cadence the plane cuts the next frame
of its state log (:class:`repro.recovery.statelog.StateLog`) from the
primary and folds it into the standby's operator state.
``Gigascope.feed`` hands the plane the packets; it keeps only the
*journal tail*, those from the last applied frame's ``cursor`` on.

Promotion -- on an injected crash or ``promote_after`` seconds of
heartbeat silence -- drains every subscription one last time (those
rows were delivered), moves it onto the standby's channel with a skip
gate for the rows the standby will regenerate (delivered minus its
restored ``tuples_out``), quarantines what the primary quarantined,
makes the standby the engine's ``rts`` and feeds it the journal tail.
A run is a pure function of (queries, packets, seed), so the promoted
output is byte-identical to an uninterrupted run: ``replay verify
--scenario failover_agg`` checks it across hash seeds and crash
points, a torn frame included (refused, so promotion falls back one
frame).
"""

from __future__ import annotations

import math
import re
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.core.channels import check_finite
from repro.core.stream_manager import (RegistryError, RuntimeSystem,
                                       check_positive_int)
from repro.obs.ledger import Field, Ledger
from repro.recovery.statelog import (FrameError, StateLog, StateLogError,
                                     append_frame)

#: Default virtual-time seconds between delta frames.
DEFAULT_CADENCE = 1.0

_CRASH_SPEC = re.compile(r"(packet|frame):([0-9]+)(:torn)?")


def check_cadence(name: str, value) -> None:
    """Refuse a cadence or grace period in virtual seconds that is not
    a finite number >= 0, naming it: a NaN cadence would cut a frame at
    every pump boundary, an infinite one never after the epoch."""
    check_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def resolve_replicate_cadence(value: Optional[Any] = None) -> Optional[float]:
    """Validate the ``--replicate`` cadence (None: not requested).

    Raises ``ValueError`` on a malformed, non-finite or negative
    cadence -- the CLI turns that into a usage error (exit 2), same as
    every other knob.
    """
    if value is None:
        return None
    try:
        cadence = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"--replicate must be a number of virtual "
                         f"seconds, got {value!r}") from None
    check_cadence("--replicate", cadence)
    return cadence


def parse_crash_spec(text: str) -> Dict[str, Any]:
    """Parse a failover crash spec: ``packet:K`` (the primary dies
    right after packet index K), ``frame:N`` (right after shipping
    frame N) or ``frame:N:torn`` (frame N is written truncated, then
    the primary dies: the standby refuses it and promotion falls back
    to frame N-1)."""
    match = _CRASH_SPEC.fullmatch(text)
    if match is None or (match[3] and match[1] != "frame"):
        raise ValueError(f"bad crash spec {text!r}; use packet:K, "
                         f"frame:N, or frame:N:torn")
    return {"kind": match[1], "at": int(match[2]), "torn": bool(match[3])}


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


#: Read off the plane; all ``gs_repl``-prefixed, so a snapshot-diffing
#: caller can strip them the way ``gs_recovery*`` is stripped.
LEDGER = Ledger("replication", (
    Field("frames_delta", "gs_repl_frames_total", "counter",
          "replication frames applied by the standby", "kind",
          read=lambda plane: plane.frames),
    Field("bytes_total", "gs_repl_bytes_total", "counter",
          "encoded bytes of the frames applied by the standby"),
    Field("nodes_shipped", "gs_repl_nodes_shipped_total", "counter",
          "per-node state blobs carried by the frames applied by the "
          "standby (delta frames carry only the nodes whose state "
          "changed)"),
    Field("skipped_unquiescent", "gs_repl_skipped_unquiescent_total",
          "counter",
          "frame cuts deferred because a channel held in-flight items"),
    Field("applied_seq", "gs_repl_last_frame_seq", "gauge",
          "sequence number of the latest frame "
          "applied by the standby (-1 before the full epoch)",
          read=lambda plane: plane.log.seq),
    Field("applied_time", "gs_repl_last_frame_time_seconds", "gauge",
          "virtual time of the latest applied frame",
          read=lambda plane: _finite(plane.log.time)),
    Field("standby_lag_s", "gs_repl_standby_lag_seconds", "gauge",
          "primary stream time minus the latest applied frame's time "
          "(the recovery-point exposure right now)"),
    Field("apply_errors", "gs_repl_apply_errors_total", "counter",
          "frames the standby refused (corrupt, stale-version, or "
          "out-of-order; never applied partially)",
          read=lambda plane: len(plane.apply_errors)),
    Field("promotions", "gs_repl_promotions_total", "counter",
          "standby promotions after a detected primary failure"),
    Field("replayed_packets", "gs_repl_replayed_packets_total", "counter",
          "journal-tail packets re-fed through the promoted standby"),
    Field("suppressed_rows", "gs_repl_suppressed_rows_total", "counter",
          "already-delivered rows dropped by the promotion skip gates "
          "(exactly-once output)"),
))


#: what a promotion would lose: a plane's state would ride every frame
#: (``RuntimeSystem.counters_state``), but a standby runs no plane
_UNTIL_5C = "runs on the primary only until ROADMAP 5 (c)"


class ReplicationPlane:
    """A warm standby runtime for one engine, the frames that keep it
    warm, and its promotion."""

    ledger = LEDGER
    #: the planes a promotion could not carry over, and why
    #: (``attach_plane`` refuses them next to this one, either order)
    refusals = {
        "shed": f"the controller {_UNTIL_5C}: a promoted standby would hold "
                "the last frame's keep-rate for good and diverge from the "
                "primary's output",
        "alerts": f"the epoch clock {_UNTIL_5C}: a promoted standby's "
                  "triggers would close no epoch after the promotion",
        "telemetry": f"the hub {_UNTIL_5C}: a promoted standby would "
                     "publish no _gs_* sample after the promotion",
        "recovery": f"the supervisor {_UNTIL_5C}: its restart budget and "
                    "suspensions are in no frame, so a standby promoted "
                    "mid-backoff would not know which nodes were suspended",
        "tracing": "trace ids are sampled and spans kept by the primary's "
                   "tracer; neither survives a promotion",
    }

    def __init__(self, gs, cadence: float = DEFAULT_CADENCE,
                 promote_after: Optional[float] = None,
                 crash: Optional[str] = None,
                 log_path: Optional[str] = None) -> None:
        check_cadence("cadence", cadence)
        if promote_after is not None:
            check_cadence("promote_after", promote_after)
        self._crash = parse_crash_spec(crash) if crash else None
        primary = gs.rts
        if primary.packets_fed + primary.fault_dropped:
            raise RegistryError("enable replication before the first "
                                "packet: a promotion replays from it")
        # A user-written node has no plan the standby could copy it
        # from; a plane refused beside this one (and owning such a
        # node) says so first.
        built = {node.name for instance in gs._instances.values()
                 for node in instance.nodes}
        written = [name for name in primary.names() if name not in built]
        if written and primary.refusal(self) is None:
            raise RegistryError(f"replication cannot copy the user-written "
                                f"node {written[0]!r} onto its standby")
        self._log_file = open(log_path, "wb") if log_path else None
        primary.attach_plane(self)
        self.gs, self.primary, self.promote_after = gs, primary, promote_after
        #: virtual-time seconds between delta frames; 0.0 means a frame
        #: at every pump boundary
        self.cadence = cadence
        # Started at its promotion; listing the plane too, so that its
        # registry and report serve after it.
        self.standby = RuntimeSystem(
            heartbeat_interval=primary.heartbeat_interval,
            on_demand_heartbeats=primary.on_demand_heartbeats,
            metrics=primary.metrics is not None,
            batch_size=primary.batch_size)
        self.standby.attach_plane(self)
        self.promoted = False
        for instance in gs._instances.values():
            self.copy(instance)
        #: the fold of every frame the standby applied
        self.log = StateLog()
        #: every frame as shipped (torn bytes included), for artifacts
        self.log_frames: List[bytes] = []
        self.apply_errors: List[str] = []
        self.bytes_total = self.nodes_shipped = 0
        #: cuts deferred because a channel held in-flight items, and
        #: frames the log file refused (both cut at the next boundary)
        self.skipped_unquiescent = self.deliver_errors = 0
        self.last_deliver_error: Optional[str] = None
        #: the journal tail, from packet ``_base`` (the last applied
        #: frame's cursor; after a promotion, the next to feed) on, and
        #: the packets handed to the serving runtime
        self.tail: List[Any] = []
        self._base = self._fed = 0
        self.failure_reason: Optional[str] = None
        self._pending_failure: Optional[str] = None
        self.promotions = self.replayed_packets = self.rpo_packets = 0
        #: the promotion's wall time, and the virtual-time window it
        #: rolled back (crash time minus the last applied frame's time)
        self.promote_wall_s = self.rpo_virtual_s = 0.0

    @property
    def runtimes(self) -> List[RuntimeSystem]:
        """Where a query lives: the primary and the standby, or the
        promoted standby alone."""
        return [self.standby] if self.promoted else [self.primary,
                                                     self.standby]

    def copy(self, instance) -> None:
        """Build ``instance``'s nodes in the standby too, from the same
        plan and compiler; the compiler's listing keeps the primary's
        loops, once."""
        if self.promoted:
            return
        compiler = instance.compiler
        listing, compiler.generated_sources = compiler.generated_sources, []
        try:
            self.gs._link_nodes(instance, self.standby)
        finally:
            compiler.generated_sources = listing

    def checkpoint(self) -> None:
        """Pump and ship a frame now (a parameter just changed): a
        replay then never runs a packet fed before the change under
        the value set after it."""
        primary = self.primary
        if not self.promoted and not math.isinf(primary.stream_time):
            primary.pump()
            self.ship(primary.stream_time)

    # -- the replication stream ---------------------------------------------
    def on_pump_end(self, stream_time: float) -> None:
        """Maybe ship a frame at this pump boundary of the primary."""
        # The first pump with a real stream clock opens the epoch; the
        # cadence then runs from the last applied frame.  A dead
        # primary (or, after a promotion, the standby) cuts nothing.
        if (not self.promoted and self._pending_failure is None
                and not math.isinf(stream_time)
                and stream_time >= self.log.time + self.cadence):
            self.ship(stream_time)

    def ship(self, stream_time: float) -> None:
        """Cut the primary's next frame now, at a pump boundary, write
        it to the log and apply it to the standby.

        The log only moves once the standby applied the frame, so a
        frame the log file or the standby refused is cut again at the
        next boundary: same ``seq``, the union of the changes.  A
        failed write never unwinds the pump.
        """
        primary = self.primary
        # The cursor is how many packets the primary has been handed so
        # far: the dispatch counter plus the ones injected faults
        # dropped pre-dispatch (both consumed an input-stream position).
        frame = self.log.cut(primary, stream_time,
                             primary.packets_fed + primary.fault_dropped)
        if frame is None:
            # The next boundary will be quiescent (the pump drains to a
            # fixpoint unless a node was suspended mid-drain).
            self.skipped_unquiescent += 1
            return
        seq = self.log.seq + 1
        crash = self._crash or {}
        crashes = crash.get("kind") == "frame" and seq == crash["at"]
        # A crash mid-frame: the log ends in a truncated write.
        shipped = (frame[: max(1, len(frame) // 2)]
                   if crashes and crash["torn"] else frame)
        try:
            if self._log_file is not None:
                append_frame(self._log_file, shipped)
        except Exception as error:
            self.deliver_errors += 1
            self.last_deliver_error = f"{type(error).__name__}: {error}"
            return
        self.log_frames.append(shipped)
        try:
            applied = self.log.fold(shipped, into=self.standby)
        except FrameError as error:
            # A refused frame is recorded, never half-applied; the
            # standby stays at the previous frame.
            self.apply_errors.append(str(error))
        else:
            self.nodes_shipped += len(applied["nodes"])
            self.bytes_total += len(frame)
        if crashes:
            self._pending_failure = (
                f"crash injected after frame {seq}"
                + (" (torn mid-write)" if crash["torn"] else ""))

    @property
    def frames(self) -> Dict[str, int]:
        """Frames applied so far by kind: frame 0 is the full epoch,
        every later one a delta."""
        return {"full": min(self.log.seq + 1, 1),
                "delta": max(self.log.seq, 0)}

    # -- feeding and failure detection ---------------------------------------
    def feed(self, packets, pump_every: Optional[int]) -> None:
        """Feed the serving runtime, keeping the journal tail and
        promoting the standby on a failure.  ``pump_every`` None feeds
        packet by packet without a pump, as ``feed_packet`` does."""
        if pump_every is not None:
            check_positive_int("pump_every", pump_every)
        grid = pump_every or 1
        tail = self.tail
        tail.extend(packets)
        total = self._base + len(tail)
        crash = self._crash or {}
        while self._fed < total:
            # Slices end on the canonical pump_every grid so batch
            # blocks and pump boundaries land on the same packets as
            # one uninterrupted feed would put them.
            end = min((self._fed // grid + 1) * grid, total)
            if (crash.get("kind") == "packet" and not self.promoted
                    and self._fed <= crash["at"] < end):
                self._feed_to(crash["at"], pump_every)
                self._promote(f"crash injected at packet {crash['at']}")
                continue
            self._feed_to(end, pump_every)
            if not self.promoted:
                if self._pending_failure is not None:
                    self._promote(self._pending_failure)
                elif self._silence_detected():
                    self._promote(
                        f"heartbeat silence: no heartbeat since "
                        f"t={self.primary.last_heartbeat:.3f} at "
                        f"t={self.primary.stream_time:.3f}")
            # Nothing below the standby's replay point is needed again.
            keep = self._fed if self.promoted else self.log.cursor
            if keep > self._base:
                del tail[:keep - self._base]
                self._base = keep

    def _feed_to(self, end: int, pump_every: Optional[int]) -> None:
        if end > self._fed:
            packets = self.tail[self._fed - self._base:end - self._base]
            rts = self.gs.rts
            if pump_every is None:
                for packet in packets:
                    rts.feed_packet(packet)
            else:
                # The slice ends on the pump grid (or where the packets
                # handed in end), so the pump ``rts.feed`` ends with is
                # that boundary's; a ``pump_every`` past the slice keeps
                # it from pumping a second time there.
                rts.feed(packets, pump_every=len(packets) + 1)
            self._fed = end

    def _silence_detected(self) -> bool:
        rts = self.primary
        if self.promote_after is None or rts.heartbeat_interval is None:
            return False
        now, last = rts.stream_time, rts.last_heartbeat
        return (math.isfinite(now) and math.isfinite(last) and now - last
                > rts.heartbeat_interval + self.promote_after)

    # -- promotion -----------------------------------------------------------
    def _promote(self, reason: str) -> None:
        began = perf_counter()
        self.failure_reason = reason
        primary, standby = self.primary, self.standby
        self.rpo_virtual_s = self.standby_lag_s or 0.0
        cursor = self.log.cursor
        self.rpo_packets = self.replayed_packets = self._fed - cursor
        for sub in primary.subscriptions:
            if sub.name not in standby.names():
                continue  # its query was removed
            node = standby.node(sub.name)
            sub.follow(standby.open_channel(sub.name, "app",
                                            sub.channel.capacity),
                       standby, node.stats.tuples_out)
            if sub.skip < 0:
                raise StateLogError(
                    f"subscription {sub.name!r}: standby ahead of delivery "
                    f"({node.stats.tuples_out} regenerated vs "
                    f"{sub.delivered} delivered)")
            standby.subscriptions.append(sub)
        # A node the primary quarantined stays quarantined, for the
        # primary's reason: the fold left it out, or holds the state it
        # had before it failed.  Its FLUSH ends the subscriptions just
        # moved onto it, which were handed every row it emitted.
        for name, error in primary.quarantined.items():
            if name in standby.names():
                standby._quarantine(standby.node(name), error)
        # Every injector stays in the drop ledger, and those on the
        # packet path go on dropping or skewing the packets the standby
        # is fed, the tail first; its dropped ones are the cursor's rest.
        standby.faults = list(primary.faults)
        for fault in primary.faults:
            if hasattr(fault, "on_packet"):
                fault.rts = standby
                standby.attach_plane(fault)
        standby.fault_dropped = cursor - standby.packets_fed
        standby.start()
        self.gs.rts, self.promoted, self._fed = standby, True, cursor
        self.promotions += 1
        self.promote_wall_s = perf_counter() - began

    # -- RTS hook ------------------------------------------------------------
    def on_stream_end(self, stream_time: float) -> None:
        """The serving runtime flushed: the frame log is complete."""
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    # -- reporting -----------------------------------------------------------
    @property
    def suppressed_rows(self) -> int:
        return sum(sub.suppressed for sub in self.standby.subscriptions)

    @property
    def standby_lag_s(self) -> Optional[float]:
        """Primary stream time minus the latest applied frame's time
        (None until both clocks have started)."""
        return _finite(self.primary.stream_time - self.log.time)

    def report(self) -> Dict[str, Any]:
        frames, log = self.frames, self.log
        return {
            "cadence": self.cadence,
            "frames_full": frames["full"],
            "frames_delta": frames["delta"],
            "bytes_total": self.bytes_total,
            "nodes_shipped": self.nodes_shipped,
            "skipped_unquiescent": self.skipped_unquiescent,
            "deliver_errors": self.deliver_errors,
            "last_deliver_error": self.last_deliver_error,
            "last_frame_time": log.time,
            "applied_seq": log.seq,
            "applied_time": log.time,
            "cursor": log.cursor,
            "frames_applied": log.seq + 1,
            "apply_errors": len(self.apply_errors),
            "standby_lag_s": self.standby_lag_s,
            "promoted": self.promoted,
            "promotions": self.promotions,
            "failure_reason": self.failure_reason,
            "replayed_packets": self.replayed_packets,
            "suppressed_rows": self.suppressed_rows,
            "rpo_packets": self.rpo_packets,
            "rpo_virtual_s": self.rpo_virtual_s,
            "promote_wall_s": self.promote_wall_s,
            "apply_error_log": list(self.apply_errors),
        }
