"""Supervised node recovery: checkpoints, journal replay, retry budget.

PR 3's quarantine contains a failing node permanently: it is detached
and all accumulated state (aggregate groups, join windows, reassembly
buffers) is lost for the rest of the run -- the opposite of what a
long-running link monitor needs.  The supervisor upgrades that into
bounded-retry restart (DESIGN section 11):

* **Checkpoints.**  Periodically in virtual time, and only at pump
  boundaries where every channel is quiescent, the supervisor cuts a
  state-log frame (:mod:`repro.recovery.statelog`) and folds it
  in-process: ``checkpoints`` is the fold, every live node's latest
  encoded state.

* **Journals.**  Between checkpoints, the RTS journals its inputs
  *before* dispatching them: captured packets and heartbeat times on
  the packet path, popped channel items per HFTA node on the pump
  path.  The journal is exactly the gap between the last checkpoint
  and a crash.

* **Recovery.**  When a node raises, the RTS offers the failure here
  instead of quarantining.  The first attempt is inline: restore the
  last checkpoint, replay the node's journal segment, and return to
  normal scheduling -- deterministic operators land byte-identical to
  a run without the crash (enforced by ``replay verify``'s crash arms).
  Rows the node emitted between the checkpoint and the crash were
  already delivered downstream, so an emit gate suppresses exactly
  that many re-emissions (counting them in the node's statistics), and
  sinks skip re-writing rows that already reached the file -- output
  stays exactly-once.

* **Backoff and the budget.**  A failed attempt suspends the node
  (marked, skipped by schedulers, producers keep it wired) and retries
  after an exponential backoff in virtual time.  When the retry budget
  is exhausted the node degrades to today's permanent quarantine with
  identical containment accounting.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.ledger import Field, Ledger
from repro.recovery.statelog import FrameError, StateLog


class _Suspension:
    """A node waiting out its backoff before the next restart attempt."""

    __slots__ = ("node", "error", "retry_at")

    def __init__(self, node, error: Exception, retry_at: float) -> None:
        self.node = node
        self.error = error
        self.retry_at = retry_at


class _EmitGate:
    """Suppress re-emission of rows already produced before the crash.

    Journal replay regenerates every row from the checkpoint up to the
    crash point; those up to the crash were already pushed downstream
    (and possibly consumed), so the first ``skip_rows`` emissions are
    swallowed -- still counted in the node's output statistics, never
    pushed again.  Rows past the crash point emit normally: they are
    genuinely new.  Punctuation gets the same treatment, mirroring
    ``emit_punctuation``'s skip-empty check so counters line up.
    """

    def __init__(self, node, skip_rows: int, skip_punctuations: int,
                 supervisor: "RecoverySupervisor") -> None:
        self.node = node
        self.skip_rows = skip_rows
        self.skip_punctuations = skip_punctuations
        self.supervisor = supervisor
        cls = type(node)
        self._emit = cls.emit.__get__(node)
        self._emit_punctuation = cls.emit_punctuation.__get__(node)
        node.emit = self.emit
        node.emit_many = self.emit_many
        node.emit_punctuation = self.emit_punctuation

    def emit(self, row: tuple) -> None:
        if self.skip_rows > 0:
            self.skip_rows -= 1
            self.node.stats.tuples_out += 1
            self.supervisor.suppressed_rows += 1
            return
        self._emit(row)

    def emit_many(self, rows) -> None:
        for row in rows:
            self.emit(row)

    def emit_punctuation(self, punctuation) -> None:
        if not punctuation:
            return
        if self.skip_punctuations > 0:
            self.skip_punctuations -= 1
            self.node.stats.punctuations_out += 1
            self.supervisor.suppressed_punctuations += 1
            return
        self._emit_punctuation(punctuation)

    def remove(self) -> None:
        for attr in ("emit", "emit_many", "emit_punctuation"):
            self.node.__dict__.pop(attr, None)


#: All ``gs_recovery``-prefixed: ``repro.determinism.comparable`` drops
#: the prefix before diffing two arms that differ in their crash (a
#: crash run restarts nodes, a clean run does not).
LEDGER = Ledger("recovery", (
    Field("checkpoints_taken", "gs_recovery_checkpoints_total", "counter",
          "crash-consistent checkpoints cut at pump boundaries",
          column="checkpoints"),
    Field("checkpoint_bytes", "gs_recovery_checkpoint_bytes", "gauge",
          "encoded size of the latest full checkpoint",
          column="checkpoint_bytes"),
    Field("restarts_total", "gs_recovery_restarts_total", "counter",
          "restore-and-replay attempts across all nodes", column="restarts"),
    Field("replayed_items", "gs_recovery_replayed_items_total", "counter",
          "journal entries re-dispatched during gap repair",
          column="replayed"),
    Field("suppressed_rows", "gs_recovery_suppressed_rows_total", "counter",
          "already-delivered rows suppressed during replay (exactly-once)",
          column="suppressed"),
    Field("suspended", "gs_recovery_nodes_suspended", "gauge",
          "nodes awaiting a backoff retry", column="suspended",
          read=lambda supervisor: len(supervisor.suspended)),
    Field("journal_len", "gs_recovery_journal_len", "gauge",
          "journal entries retained since the last checkpoint",
          column="journal_len"),
    Field("retries_exhausted", "gs_recovery_retries_exhausted_total",
          "counter",
          "nodes degraded to permanent quarantine after the retry budget"),
), stream="_gs_recovery")


class RecoverySupervisor:
    """Checkpoint/restore supervisor attached to one :class:`RuntimeSystem`."""

    ledger = LEDGER

    def __init__(self, rts, checkpoint_interval: float = 1.0,
                 max_restarts: int = 3, backoff_base: float = 0.25,
                 backoff_factor: float = 2.0) -> None:
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if backoff_base <= 0 or backoff_factor < 1.0:
            raise ValueError("backoff must be positive and non-shrinking")
        self.rts = rts
        self.checkpoint_interval = checkpoint_interval
        self.max_restarts = max_restarts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        #: the fold of every checkpoint frame cut so far
        self.log = StateLog()
        #: node name -> encoded snapshot bytes as of the last checkpoint
        self.checkpoints: Dict[str, bytes] = self.log.nodes
        self.checkpoints_taken = 0
        self.checkpoint_bytes = 0
        #: node name -> restart attempts consumed so far
        self.restarts: Dict[str, int] = {}
        self.restarts_total = 0
        self.replayed_items = 0
        self.suppressed_rows = 0
        self.suppressed_punctuations = 0
        self.retries_exhausted = 0
        self._packet_journal: List[Tuple[str, Any]] = []
        self._item_journals: Dict[str, List[Tuple[Any, int]]] = {}
        self._suspended: Dict[str, _Suspension] = {}
        rts.attach_plane(self)
        if rts.started:
            self.on_start()

    # -- journals (appended by the RTS before dispatch) --------------------
    #
    # Journaling sits on the per-packet hot path, so entries are kept
    # allocation-free: the packet journal stores the captured packets
    # themselves with heartbeats as bare floats (the two are told apart
    # by type at replay time, which is rare), and the item journals
    # store whole dispatched blocks, one append per block.

    def journal_packets(self, packets) -> None:
        self._packet_journal.extend(packets)

    def journal_heartbeat(self, stream_time: float) -> None:
        self._packet_journal.append(stream_time)

    def journal_items(self, node, items, input_index: int) -> None:
        journal = self._item_journals.get(node.name)
        if journal is None:
            journal = self._item_journals[node.name] = []
        journal.append((items, input_index))

    @property
    def journal_len(self) -> int:
        return (len(self._packet_journal)
                + sum(len(items) for journal in self._item_journals.values()
                      for items, _ in journal))

    # -- checkpointing ------------------------------------------------------
    def on_start(self) -> None:
        """Cut the baseline checkpoint (empty state, empty journal)."""
        self.take_checkpoint(self.rts.stream_time)

    def checkpoint_due(self, stream_time: float) -> bool:
        # A suspension defers checkpoints: truncating the journal would
        # orphan the replay data the suspended node needs to resume.
        if self._suspended or math.isinf(stream_time):
            return False
        if math.isinf(self.log.time):
            return True
        return stream_time >= self.log.time + self.checkpoint_interval

    def take_checkpoint(self, stream_time: float) -> bool:
        """Snapshot every live node and truncate the journals."""
        rts = self.rts
        # A node the supervisor gave up on is left out of every cut.
        frame = self.log.cut(rts, stream_time,
                             rts.packets_fed + rts.fault_dropped,
                             live_only=True)
        if frame is None:
            return False
        self.log.fold(frame)
        self.checkpoints_taken += 1
        self.checkpoint_bytes = sum(map(len, self.checkpoints.values()))
        self._packet_journal.clear()
        self._item_journals.clear()
        return True

    # -- scheduler hooks ----------------------------------------------------
    def on_pump_begin(self, stream_time: float) -> None:
        if self._suspended:
            self.resume_due(stream_time)

    def on_pump_end(self, stream_time: float) -> None:
        if self.checkpoint_due(stream_time):
            self.take_checkpoint(stream_time)

    def finalize(self) -> None:
        """Force every pending retry before end-of-stream flush.

        Terminates: each forced attempt either recovers the node or
        consumes restart budget, and an exhausted budget degrades to
        permanent quarantine.
        """
        while self._suspended:
            self.resume_due(self.rts.stream_time, force=True)

    # -- failure handling ---------------------------------------------------
    def on_failure(self, node, error: Exception) -> bool:
        """Offer a crashing node recovery; False sends it to quarantine."""
        name = node.name
        if name not in self.checkpoints:
            return False
        if self.restarts.get(name, 0) >= self.max_restarts:
            self.retries_exhausted += 1
            return False
        self.restarts[name] = self.restarts.get(name, 0) + 1
        self.restarts_total += 1
        ok, replay_error = self._attempt(node)
        if ok:
            return True
        return self._suspend(node, replay_error or error)

    def _attempt(self, node) -> Tuple[bool, Optional[Exception]]:
        """Restore the last checkpoint and replay the journal gap."""
        crash_marks = node.recovery_marks()
        try:
            self.log.restore(self.rts, names=[node.name])
        except FrameError as error:
            return False, error
        node.begin_replay(crash_marks)
        gate = _EmitGate(
            node,
            crash_marks["tuples_out"] - node.stats.tuples_out,
            crash_marks["punctuations_out"] - node.stats.punctuations_out,
            self,
        )
        try:
            replayed = self._replay(node)
        except Exception as error:
            return False, error
        finally:
            gate.remove()
        self.replayed_items += replayed
        return True, None

    def _interface_of(self, node) -> Optional[str]:
        for interface, consumers in self.rts._packet_consumers.items():
            if node in consumers:
                return interface
        return None

    def _replay(self, node) -> int:
        """Re-deliver the node's journaled inputs since the checkpoint."""
        count = 0
        interface = self._interface_of(node)
        if interface is not None:
            # Packet consumer: its slice of the global packet journal
            # (an "any" consumer sees every packet), with heartbeats at
            # their original positions.
            wants_any = interface == "any"
            on_heartbeat = getattr(node, "on_heartbeat", None)
            for entry in list(self._packet_journal):
                if type(entry) is float:  # a heartbeat marker
                    if on_heartbeat is not None:
                        on_heartbeat(entry)
                elif wants_any or entry.interface == interface:
                    node.accept_packet(entry)
                    count += 1
        else:
            for items, input_index in list(self._item_journals.get(node.name, ())):
                for item in items:
                    node.dispatch(item, input_index)
                    count += 1
        return count

    # -- backoff / suspension ------------------------------------------------
    def _suspend(self, node, error: Exception) -> bool:
        """Park the node until its backoff expires; False = budget gone."""
        name = node.name
        used = self.restarts.get(name, 0)
        if used >= self.max_restarts:
            self.retries_exhausted += 1
            return False
        delay = self.backoff_base * self.backoff_factor ** max(0, used - 1)
        stream_time = self.rts.stream_time
        retry_at = stream_time + delay if not math.isinf(stream_time) else delay
        # The quarantined marker buys the existing skip behavior in
        # every scheduler loop for free; unlike a real quarantine the
        # node stays registered, wired, and uncounted in the
        # containment ledger.
        node.quarantined = f"recovering: {type(error).__name__}: {error}"
        self.rts._replan()
        self._suspended[name] = _Suspension(node, error, retry_at)
        return True

    def resume_due(self, stream_time: float, force: bool = False) -> None:
        """Retry suspended nodes whose backoff has expired."""
        for name in list(self._suspended):
            suspension = self._suspended[name]
            if not force and stream_time < suspension.retry_at:
                continue
            del self._suspended[name]
            node = suspension.node
            node.quarantined = None
            self.rts._replan()
            if self.restarts.get(name, 0) >= self.max_restarts:
                self.retries_exhausted += 1
                self.rts._quarantine(node, suspension.error)
                continue
            self.restarts[name] = self.restarts.get(name, 0) + 1
            self.restarts_total += 1
            ok, replay_error = self._attempt(node)
            if ok:
                continue
            if not self._suspend(node, replay_error or suspension.error):
                self.rts._quarantine(node, replay_error or suspension.error)

    # -- introspection -------------------------------------------------------
    @property
    def suspended(self) -> List[str]:
        return sorted(self._suspended)

    def report(self) -> dict:
        """The recovery ledger (not part of the replay-verified snapshot)."""
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
            "suppressed_punctuations": self.suppressed_punctuations,
            "retries_exhausted": self.retries_exhausted,
            "suspended": self.suspended,
            "journal_len": self.journal_len,
        }
