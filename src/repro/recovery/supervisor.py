"""The durability plane: one state log, one journal, one cadence.

State is the integral of the inputs (DBSP), so one cut of an engine
plus the inputs since restores it wherever the cut is put back (DESIGN
sections 11 and 16).  The plane cuts one frame of its
:class:`~repro.recovery.statelog.StateLog` at quiescent pump boundaries
every ``checkpoint_interval`` or ``cadence`` seconds of virtual time,
whichever is tighter, and whenever the engine changes under the input;
each frame folded cuts its one :class:`~repro.recovery.journal.Journal`.
Its two switches say where the cut goes back:

* ``enable_recovery()`` -- onto the RTS itself when a node raises: a
  rollback and a replay, retried after an exponential backoff in
  virtual time until the restart budget is spent, then quarantine;
* ``enable_replication()`` -- onto a warm standby that applies each
  frame as it is cut and, when the primary dies, is promoted by a
  replay of the journal onto it.

The restart budget rides every frame in its ``extra``, outside
``counters_state``: a rollback in place that restored it would retry
a node for ever, so it comes back on a promotion only.
"""

from __future__ import annotations

import math
import re
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.stream_manager import RegistryError, RuntimeSystem
from repro.obs.ledger import Field, Ledger
from repro.obs.plane_ledgers import RECOVERY
from repro.options import check
from repro.recovery.journal import Journal
from repro.recovery.statelog import FrameError, StateLog, append_frame


_CRASH_SPEC = re.compile(r"(packet|frame):([0-9]+)(:torn)?")


def parse_crash_spec(text: str) -> Dict[str, Any]:
    """A failover crash: ``packet:K`` (the primary dies once handed K
    packets, found dead at the next pump boundary), ``frame:N`` (right
    after shipping frame N) or ``frame:N:torn`` (frame N is written
    truncated: the standby refuses it, promotion falls back to N-1)."""
    match = _CRASH_SPEC.fullmatch(text)
    if match is None or (match[3] and match[1] != "frame"):
        raise ValueError(f"bad crash spec {text!r}; use packet:K, "
                         f"frame:N, or frame:N:torn")
    return {"kind": match[1], "at": int(match[2]), "torn": bool(match[3])}


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


#: All ``gs_repl``-prefixed, so a snapshot-diffing caller can strip
#: them the way ``gs_recovery*`` is stripped.
REPLICATION = Ledger("replication", (
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
          "applied by the standby (-1 before the full epoch)"),
    Field("applied_time", "gs_repl_last_frame_time_seconds", "gauge",
          "virtual time of the latest applied frame",
          read=lambda plane: _finite(plane.applied_time)),
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

#: a plane's state would ride every frame (``counters_state``), but a
#: standby runs no plane
_UNTIL_5C = "runs on the primary only until ROADMAP 5 (c)"

#: the planes a promotion could not carry over, and why (``attach_plane``
#: refuses them next to a standby, either order)
STANDBY_REFUSALS = {
    "shed": f"the controller {_UNTIL_5C}: a promoted standby would hold "
            "the last frame's keep-rate for good and diverge from the "
            "primary's output",
    "alerts": f"the epoch clock {_UNTIL_5C}: a promoted standby's "
              "triggers would close no epoch after the promotion",
    "telemetry": f"the hub {_UNTIL_5C}: a promoted standby would "
                 "publish no _gs_* sample after the promotion",
    "tracing": "trace ids are sampled and spans kept by the primary's "
               "tracer; neither survives a promotion",
}


class RecoverySupervisor:
    """The durability plane of one engine, listed in ``planes`` as
    ``recovery`` and/or ``replication``, as its switches are on."""

    def __init__(self, gs) -> None:
        #: ``rts`` is the runtime served -- cut, journaled, rolled back:
        #: the ``primary`` until a promotion, the ``standby`` after
        self.gs, self.rts, self.primary = gs, gs.rts, gs.rts
        #: the switches' settings (None: that switch is off), and the
        #: virtual seconds between cuts: the tighter one's
        self.checkpoint_interval: Optional[float] = None
        self.cadence: Optional[float] = None
        self.interval = math.inf
        self.promote_after: Optional[float] = None
        self.max_restarts, self.backoff_base, self.backoff_factor = 3, 0.25, 2.0
        #: switch name -> (its ledger, its report)
        self.views: Dict[str, Tuple[Ledger, Callable[[], Dict]]] = {}
        self.log = StateLog()
        #: node name -> encoded state as of the last cut (the fold's)
        self.checkpoints = self.log.nodes
        self.journal: Optional[Journal] = None
        self.standby: Optional[RuntimeSystem] = None
        self._crash: Optional[Dict[str, Any]] = None
        self._log_file = None
        #: what the standby refused
        self.apply_errors: List[str] = []
        #: node name -> restart attempts consumed; node name -> (node,
        #: error, retry_at) while it waits out its backoff
        self.restarts: Dict[str, int] = {}
        self._suspended: Dict[str, Tuple[Any, Exception, float]] = {}
        #: ``_stale``: the last cut predates a change to the query set or
        #: a subscription, and no rollback goes back to it
        self.promoted = self._stale = self._replaying = False
        #: ``deferred_cuts``: a channel held items in flight
        self.bytes_total = self.nodes_shipped = self.deferred_cuts = 0
        #: the ``seq``/``time``/``cursor`` of the last frame a standby
        #: folded: a promotion freezes them (and ``bytes_total`` and
        #: ``nodes_shipped``), though recovery goes on cutting
        self.applied_seq, self.applied_time = self.log.seq, self.log.time
        self.applied_cursor = self.log.cursor
        self.deliver_errors = self.restarts_total = self.replayed_items = 0
        self.retries_exhausted = self.suppressed_rows = self.promotions = 0
        self.replayed_packets = self.rpo_packets = 0
        #: the promotion's wall time, and the virtual-time window it
        #: rolled back (crash time minus the last applied frame's time)
        self.promote_wall_s = self.rpo_virtual_s = 0.0
        self.last_deliver_error: Optional[str] = None
        self.failure_reason: Optional[str] = None
        self._lag: Optional[float] = None

    # -- the two switches ----------------------------------------------------
    @property
    def ledger(self) -> Ledger:
        """The switch that names the plane in a refusal."""
        return RECOVERY if self.cadence is None else REPLICATION

    @property
    def refusals(self) -> Dict[str, str]:
        return {} if self.cadence is None else STANDBY_REFUSALS

    @property
    def runtimes(self) -> List[RuntimeSystem]:
        """Where a query lives: the runtime served, and a standby not
        yet promoted."""
        if self.standby is None or self.promoted:
            return [self.rts]
        return [self.rts, self.standby]

    def _switch(self, ledger: Ledger, report: Callable[[], Dict],
                interval: float) -> None:
        for rts in self.runtimes:
            rts.attach_plane(self, ledger)
        self.views[ledger.name] = (ledger, report)
        self.interval = min(self.interval, interval)
        self.journal = self.journal or Journal(self.rts)

    def recover(self, checkpoint_interval: float, max_restarts: int,
                backoff_base: float, backoff_factor: float
                ) -> "RecoverySupervisor":
        """Switch on the rollback in place (``enable_recovery``)."""
        check("enable_recovery", checkpoint_interval=checkpoint_interval,
              max_restarts=max_restarts, backoff_base=backoff_base,
              backoff_factor=backoff_factor)
        self._switch(RECOVERY, self.recovery_report, checkpoint_interval)
        self.checkpoint_interval, self.max_restarts = (checkpoint_interval,
                                                       max_restarts)
        self.backoff_base, self.backoff_factor = backoff_base, backoff_factor
        if self.promoted:
            self.rts.attach_plane(self.journal)
        if self.rts.started:
            self.checkpoint()
        return self

    def replicate(self, cadence: float, promote_after: Optional[float],
                  crash: Optional[str], log_path: Optional[str]
                  ) -> "RecoverySupervisor":
        """Switch on the warm standby (``enable_replication``)."""
        check("enable_replication", cadence=cadence,
              promote_after=promote_after)
        parsed = parse_crash_spec(crash) if crash else None
        gs, primary = self.gs, self.rts
        if primary.packets_fed + primary.fault_dropped:
            raise RegistryError("enable replication before the first "
                                "packet: a promotion replays from it")
        # A user-written node has no plan the standby could copy it
        # from; a plane refused beside this one (and owning such a
        # node) says so first.
        built = {node.name for instance in gs._instances.values()
                 for node in instance.nodes}
        written = [name for name in primary.names() if name not in built]
        self.cadence = cadence  # the standby's refusals hold from here
        try:
            if written and primary.refusal(self) is None:
                raise RegistryError(f"replication cannot copy the "
                                    f"user-written node {written[0]!r} "
                                    f"onto its standby")
            self._switch(REPLICATION, self.replication_report, cadence)
        except RegistryError:
            self.cadence = None
            raise
        self.promote_after, self._crash = promote_after, parsed
        self._log_file = open(log_path, "wb") if log_path else None
        # Started at its promotion; listing the plane too, so that its
        # registry and reports serve after it.
        self.standby = RuntimeSystem(
            heartbeat_interval=primary.heartbeat_interval,
            on_demand_heartbeats=primary.on_demand_heartbeats,
            metrics=primary.metrics is not None,
            batch_size=primary.batch_size)
        for ledger, _ in self.views.values():
            self.standby.attach_plane(self, ledger)
        for instance in gs._instances.values():
            self.copy(instance)
        return self

    def copy(self, instance) -> None:
        """Build ``instance``'s nodes in the standby too, from the same
        plan and compiler; the compiler's listing keeps the primary's
        loops, once."""
        if self.standby is None or self.promoted:
            return
        compiler = instance.compiler
        listing, compiler.generated_sources = compiler.generated_sources, []
        try:
            self.gs._link_nodes(instance, self.standby)
        finally:
            compiler.generated_sources = listing

    # -- the one log ---------------------------------------------------------
    def _cut(self, stream_time: float) -> bool:
        """Cut the next frame, write it to the log file and fold it --
        into the standby while there is one -- which cuts the journal.
        False when nothing was folded: a channel held items in flight,
        or the log file or the standby refused the frame, which the next
        boundary cuts again (same ``seq``, the union of the changes)."""
        rts = self.rts
        # The cursor is how many packets the RTS has been handed: the
        # dispatch counter plus those injected faults dropped first.
        frame = self.log.cut(rts, stream_time,
                             rts.packets_fed + rts.fault_dropped,
                             self.restarts or None)
        if frame is None:
            self.deferred_cuts += 1
            return False
        seq, crash = self.log.seq + 1, self._crash or {}
        crashes = (not self.promoted and crash.get("kind") == "frame"
                   and seq == crash["at"])
        # A crash mid-frame: the log ends in a truncated write.
        shipped = (frame[: max(1, len(frame) // 2)]
                   if crashes and crash["torn"] else frame)
        try:
            if self._log_file is not None:
                append_frame(self._log_file, shipped)
        except Exception as error:  # a failed write never unwinds a pump
            self.deliver_errors += 1
            self.last_deliver_error = f"{type(error).__name__}: {error}"
            return False
        log, standby = self.log, None if self.promoted else self.standby
        try:
            applied = log.fold(shipped, into=standby)
        except FrameError as error:
            # never half-applied: the standby stays at the previous frame
            self.apply_errors.append(str(error))
            applied = None
        else:
            if standby is not None:
                self.nodes_shipped += len(applied["nodes"])
                self.bytes_total += len(frame)
                self.applied_seq, self.applied_time = log.seq, log.time
                self.applied_cursor = log.cursor
            self.journal.cut(rts)
            self._stale = False
        if crashes:
            self._promote(f"crash injected after frame {seq}"
                          + (" (torn mid-write)" if crash["torn"] else ""))
        return applied is not None

    def checkpoint(self) -> None:
        """Cut now: the query set, a subscription or a parameter
        changed, and a replay past the change would re-feed what was
        fed before it to the engine after it.  A primary with a standby
        is pumped first.  Where no cut can be made (a node waits for its
        retry, or a channel holds items in flight), a failure is
        quarantined until the next cut."""
        if (self.cadence is not None and not self.promoted
                and math.isfinite(self.rts.stream_time)):
            self.rts.pump()
        rts = self.rts
        if self.checkpoint_interval is not None:
            cuts = rts.started
        else:  # a promoted standby without recovery cuts nothing
            cuts = not self.promoted and math.isfinite(rts.stream_time)
        if cuts and (self._suspended or not self._cut(rts.stream_time)):
            self._stale = True

    @property
    def checkpoints_taken(self) -> int:
        return self.log.seq + 1

    @property
    def checkpoint_bytes(self) -> int:
        return sum(map(len, self.checkpoints.values()))

    @property
    def frames(self) -> Dict[str, int]:
        """Frames a standby folded, by kind: frame 0 is the full epoch."""
        return {"full": min(self.applied_seq + 1, 1),
                "delta": max(self.applied_seq, 0)}

    # -- scheduler hooks -----------------------------------------------------
    def on_start(self) -> None:
        """Cut the baseline a rollback goes back to (a promoted standby
        starts from the fold it applied)."""
        if self.checkpoint_interval is not None and not self.promoted:
            self._cut(self.rts.stream_time)

    def on_pump_begin(self, stream_time: float) -> None:
        # before the journal takes the cycle down: a due retry replays
        # the journal as it stands
        if self._suspended and not self._replaying:
            self.resume_due(stream_time)

    def on_pump_end(self, stream_time: float) -> None:
        """Promote the standby if the primary died, else cut when due
        (a suspension defers it: the suspended node's retry rolls back
        to the cut before it failed), then hear the heartbeats."""
        rts, crash = self.rts, self._crash
        if self.promoted:
            if self.checkpoint_interval is None:
                return  # the standby serves, and cuts nothing
        elif (crash and crash["kind"] == "packet"
              and rts.packets_fed + rts.fault_dropped >= crash["at"]):
            self._promote(f"crash injected at packet {crash['at']}")
            return
        # The first pump with a real stream clock opens the epoch; the
        # cadence then runs from the last frame folded.
        if not (self._suspended or math.isinf(stream_time)) and (
                self._stale or stream_time >= self.log.time + self.interval):
            self._cut(stream_time)
        if self.promote_after is None or self.promoted:
            return
        last = rts.last_heartbeat
        if (rts.heartbeat_interval is not None
                and math.isfinite(stream_time) and math.isfinite(last)
                and stream_time - last
                > rts.heartbeat_interval + self.promote_after):
            self._promote(f"heartbeat silence: no heartbeat since "
                          f"t={last:.3f} at t={stream_time:.3f}")

    def finalize(self) -> None:
        """Force every pending retry before end-of-stream flush: each
        recovers the node or spends budget, so this terminates."""
        while self._suspended:
            self.resume_due(self.rts.stream_time, force=True)

    def on_stream_end(self, stream_time: float) -> None:
        """The serving runtime flushed: the frame log is complete."""
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    # -- a node failure: the rollback in place -------------------------------
    def on_failure(self, node, error: Exception) -> bool:
        """Offer a failing node recovery.  True: the RTS was rolled back
        (the journal re-fed).  False: the node was suspended -- it
        failed again while the journal was re-fed, or the rollback was
        refused -- or, left unmarked, goes to quarantine."""
        if self.checkpoint_interval is None:
            return False
        if self._replaying:
            self._suspend(node, error)
            return False
        if self._stale:
            return False
        if self.restarts.get(node.name, 0) >= self.max_restarts:
            self.retries_exhausted += 1
            return False
        return self._restart(node, error)

    def _restart(self, node, error: Exception) -> bool:
        """Spend one of ``node``'s restarts on a rollback; suspend it
        when the fold does not apply (the RTS is then untouched)."""
        self.restarts[node.name] = self.restarts.get(node.name, 0) + 1
        self.restarts_total += 1
        try:
            self._rollback()
        except FrameError as refused:
            self._suspend(node, refused)
            return False
        return True

    def _rollback(self) -> None:
        """Restore the whole RTS to the last cut and replay the journal
        onto it: every suspended node resumes."""
        rts = self.rts
        self.log.restore(rts)
        for node, _, _ in self._suspended.values():
            node.quarantined = None
        self._suspended.clear()
        rts._replan()
        self.replayed_items += self.journal.len
        self._replay(rts)

    def _replay(self, rts) -> None:
        """Re-feed the journal onto ``rts``, the application's channels
        with it: each replayed take drops what the application has."""
        self._replaying = True
        try:
            self.suppressed_rows += self.journal.replay(rts)
        finally:
            self._replaying = False

    def _suspend(self, node, error: Exception) -> None:
        """Park the node until its backoff expires; left unmarked (for
        quarantine) when its budget is gone."""
        used = self.restarts.get(node.name, 0)
        if used >= self.max_restarts:
            self.retries_exhausted += 1
            if self._suspended.pop(node.name, None) is not None:
                node.quarantined = None
            return
        delay = self.backoff_base * self.backoff_factor ** max(0, used - 1)
        stream_time = self.rts.stream_time
        # The quarantined marker buys the existing skip behavior in
        # every scheduler loop for free; unlike a real quarantine the
        # node stays registered, wired, and uncounted in the
        # containment ledger.
        node.quarantined = f"recovering: {type(error).__name__}: {error}"
        self.rts._replan()
        self._suspended[node.name] = (
            node, error, delay + (0 if math.isinf(stream_time)
                                  else stream_time))

    def resume_due(self, stream_time: float, force: bool = False) -> None:
        """Retry suspended nodes whose backoff has expired: each retry
        is a rollback, which resumes every suspended node at once (a
        stale cut quarantines them instead)."""
        for name in list(self._suspended):
            if name not in self._suspended:
                continue
            node, error, retry_at = self._suspended[name]
            if not force and stream_time < retry_at:
                continue
            if self._stale or self.restarts.get(name, 0) >= self.max_restarts:
                del self._suspended[name]
                node.quarantined = None
                self.retries_exhausted += not self._stale
            elif self._restart(node, error) or node.quarantined is not None:
                continue
            self.rts._quarantine(node, error)

    @property
    def suspended(self) -> List[str]:
        return sorted(self._suspended)

    # -- the primary's death: the promotion ----------------------------------
    def _promote(self, reason: str) -> None:
        """The rollback onto the standby: it takes over the primary's
        quarantines, subscriptions and packet-path injectors, and the
        budget of the frame it holds, replays the journal and serves."""
        began = perf_counter()
        primary, standby = self.primary, self.standby
        self._lag = self.standby_lag_s
        self.failure_reason, self.promoted = reason, True
        self.rpo_virtual_s = self._lag or 0.0
        crash = self._crash or {}
        died = (crash["at"] if crash.get("kind") == "packet"
                else primary.packets_fed + primary.fault_dropped)
        self.rpo_packets = died - self.applied_cursor
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
        # Nothing is suspended at a cut (a suspension defers it), and the
        # replay spends again the budget it repeats.
        self._suspended.clear()
        self.restarts = dict(self.log.extra or {})
        if self.checkpoint_interval is not None:
            standby.attach_plane(self.journal)
        self.rts = self.gs.rts = primary.successor = standby
        self.replayed_packets = self.journal.packets
        self._replay(standby)
        self.promotions += 1
        self.promote_wall_s = perf_counter() - began

    @property
    def standby_lag_s(self) -> Optional[float]:
        """Primary stream time minus the latest applied frame's time
        (None until both clocks have started), frozen at a promotion."""
        if self.promoted:
            return self._lag
        return _finite(self.primary.stream_time - self.applied_time)

    # -- the reports ---------------------------------------------------------
    def recovery_report(self) -> Dict[str, Any]:
        return {
            "checkpoint_interval": self.checkpoint_interval,
            "max_restarts": self.max_restarts,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_nodes": len(self.checkpoints),
            "checkpoint_bytes": self.checkpoint_bytes,
            "restarts": dict(sorted(self.restarts.items())),
            "restarts_total": self.restarts_total,
            "replayed_items": self.replayed_items,
            "suppressed_rows": self.suppressed_rows,
            "retries_exhausted": self.retries_exhausted,
            "suspended": self.suspended,
            "journal_len": self.journal.len,
        }

    def replication_report(self) -> Dict[str, Any]:
        return {
            "cadence": self.cadence,
            "frames_full": self.frames["full"],
            "frames_delta": self.frames["delta"],
            "bytes_total": self.bytes_total,
            "nodes_shipped": self.nodes_shipped,
            "skipped_unquiescent": self.deferred_cuts,
            "deliver_errors": self.deliver_errors,
            "last_deliver_error": self.last_deliver_error,
            "last_frame_time": self.applied_time,
            "applied_seq": self.applied_seq,
            "applied_time": self.applied_time,
            "cursor": self.applied_cursor,
            "frames_applied": self.applied_seq + 1,
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
