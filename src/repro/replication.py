"""Continuous replication and warm-standby failover (DESIGN section 16).

``Gigascope.enable_replication()`` attaches a :class:`ReplicationPlane`.
Its standby is a second :class:`~repro.core.stream_manager.RuntimeSystem`
built from the engine's own query instances -- the same plans and
compilers, so ``set_param`` reaches both -- and kept warm: at a
quiescent pump boundary on the cadence the plane cuts the next frame
of its state log (:class:`repro.recovery.statelog.StateLog`) from the
primary and folds it into the standby's operator state.
Applying a frame cuts the primary's input journal
(:class:`~repro.recovery.journal.Journal`, the recovery supervisor's).

Promotion -- on an injected crash or ``promote_after`` seconds of
heartbeat silence, found at a pump boundary of the primary -- is the
supervisor's rollback with the standby as target: the subscriptions
move onto the standby's channels of their names, the journal is
replayed onto it, and it becomes the engine's ``rts`` (a feed under
way goes on there).  A run is a pure function of (queries, packets,
seed), so the promoted run ends where an uninterrupted one does:
``replay verify --scenario failover_agg`` checks it across hash seeds
and crash points, a torn frame included (refused, so promotion falls
back one frame).
"""

from __future__ import annotations

import math
import re
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.core.channels import check_finite
from repro.core.stream_manager import RegistryError, RuntimeSystem
from repro.obs.ledger import Field, Ledger
from repro.recovery.journal import Journal
from repro.recovery.statelog import FrameError, StateLog, append_frame

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
    """Parse a failover crash spec: ``packet:K`` (the primary dies once
    it was handed K packets, and is found dead at the next pump
    boundary), ``frame:N`` (right after shipping frame N) or
    ``frame:N:torn`` (frame N is written truncated, then the primary
    dies: the standby refuses it and promotion falls back to frame
    N-1)."""
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
          "frame cuts deferred because a channel held in-flight items",
          read=lambda plane: plane.deferred_cuts),
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
          "journaled packets the promotion replayed onto the standby"),
    Field("suppressed_rows", "gs_repl_suppressed_rows_total", "counter",
          "already-delivered rows the promotion's replayed takes dropped "
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
        self.deferred_cuts = self.deliver_errors = 0
        self.last_deliver_error: Optional[str] = None
        #: the primary's inputs since the last applied frame
        self.journal = Journal(primary)
        self.failure_reason: Optional[str] = None
        self.promotions = self.replayed_packets = self.rpo_packets = 0
        self.suppressed_rows = 0
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
            if not self.promoted:
                self.ship(primary.stream_time)

    # -- the replication stream ---------------------------------------------
    def on_pump_end(self, stream_time: float) -> None:
        """At a pump boundary of the primary: promote the standby if the
        primary died, else maybe ship a frame, then listen for its
        heartbeats."""
        if self.promoted:
            return  # the standby serves, and cuts nothing
        rts, crash = self.primary, self._crash or {}
        if (crash.get("kind") == "packet"
                and rts.packets_fed + rts.fault_dropped >= crash["at"]):
            self._promote(f"crash injected at packet {crash['at']}")
            return
        # The first pump with a real stream clock opens the epoch; the
        # cadence then runs from the last applied frame.
        if (not math.isinf(stream_time)
                and stream_time >= self.log.time + self.cadence):
            self.ship(stream_time)
        last = rts.last_heartbeat
        if (not self.promoted and self.promote_after is not None
                and rts.heartbeat_interval is not None
                and math.isfinite(stream_time) and math.isfinite(last)
                and stream_time - last
                > rts.heartbeat_interval + self.promote_after):
            self._promote(f"heartbeat silence: no heartbeat since "
                          f"t={last:.3f} at t={stream_time:.3f}")

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
            self.deferred_cuts += 1
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
            self.journal.cut(primary)
        if crashes:
            self._promote(f"crash injected after frame {seq}"
                          + (" (torn mid-write)" if crash["torn"] else ""))

    @property
    def frames(self) -> Dict[str, int]:
        """Frames applied so far by kind: frame 0 is the full epoch,
        every later one a delta."""
        return {"full": min(self.log.seq + 1, 1),
                "delta": max(self.log.seq, 0)}

    # -- promotion -----------------------------------------------------------
    def _promote(self, reason: str) -> None:
        """Roll the dead primary's run forward onto the standby: move
        the subscriptions, replay the journal, serve from the standby."""
        began = perf_counter()
        self.failure_reason, self.promoted = reason, True
        primary, standby = self.primary, self.standby
        self.rpo_virtual_s = self.standby_lag_s or 0.0
        crash = self._crash or {}
        died = (crash["at"] if crash.get("kind") == "packet"
                else primary.packets_fed + primary.fault_dropped)
        self.rpo_packets = died - self.log.cursor
        # A node the primary quarantined stays quarantined, for the
        # primary's reason: the fold left it out, or holds the state it
        # had before it failed.
        for name, error in primary.quarantined.items():
            if name in standby.names():
                standby._quarantine(standby.node(name), error)
        # Each subscription reads the standby's channel of its name.  A
        # quarantined producer regenerates nothing, so its channel is
        # the one the application held, as it stands.
        standby._channel_names.update(primary._channel_names)
        for sub in primary.subscriptions:
            if sub.name not in standby.names():
                continue  # its query was removed
            held = sub.channel
            channel = standby.node(sub.name).subscribe(
                capacity=held.capacity, name=held.name)
            if sub.name in standby.quarantined:
                channel.rewind(held.ledger(), held)
            sub.channel, sub.manager = channel, standby
            standby.subscriptions.append(sub)
        # Every injector stays in the drop ledger, and those on the
        # packet path go on dropping or skewing what the standby is
        # fed; the journal holds the packets they let through.
        standby.faults = list(primary.faults)
        for fault in primary.faults:
            if hasattr(fault, "on_packet"):
                fault.rts = standby
                standby.attach_plane(fault)
        standby.fault_dropped = primary.fault_dropped
        standby.start()
        self.replayed_packets = self.journal.packets
        self.suppressed_rows = self.journal.replay(standby)
        self.gs.rts = primary.successor = standby
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
            "skipped_unquiescent": self.deferred_cuts,
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
