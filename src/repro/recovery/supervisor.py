"""Supervised recovery: checkpoints, one input journal, rollback, retry budget.

A quarantine contains a failing node for good: it is detached and its
state (aggregate groups, join windows, reassembly buffers) is lost for
the rest of the run -- the opposite of what a long-running link monitor
needs.  The supervisor upgrades that into bounded-retry restart
(DESIGN section 11):

* **Checkpoints.**  Periodically in virtual time, at pump boundaries
  where every channel a node reads is quiescent, it cuts a state-log
  frame (:mod:`repro.recovery.statelog`) and folds it in-process: every
  live node's state and the RTS's counters, channels and plane state.

* **One journal.**  Between checkpoints the RTS journals its inputs
  into a :class:`~repro.recovery.journal.Journal`, the one the
  replication plane keeps for its standby too; a checkpoint cuts it.

* **Rollback.**  When a node raises, the RTS offers the failure here
  instead of quarantining.  The supervisor restores the whole RTS to
  the last checkpoint (``StateLog.restore``) and replays the journal
  onto it, the operation in progress included; the interrupted caller
  returns.  State is the integral of the inputs, so the run lands
  byte-identical to one without the crash (``replay verify``'s crash
  arms).  The application's takes are journaled inputs too, so its
  rows arrive once; a file sink skips the rows already in its file.

* **Backoff and the budget.**  A node that fails again while the
  journal is re-fed is suspended (marked, skipped by schedulers,
  producers keep it wired); its retry after an exponential backoff in
  virtual time is the same rollback.  An exhausted budget degrades it
  to permanent quarantine with identical containment accounting.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from repro.core.channels import check_finite
from repro.obs.ledger import Field, Ledger
from repro.recovery.journal import Journal
from repro.recovery.statelog import FrameError, StateLog

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
          "rollback attempts across all nodes", column="restarts"),
    Field("replayed_items", "gs_recovery_replayed_items_total", "counter",
          "journal entries re-fed by rollbacks", column="replayed"),
    Field("suppressed_rows", "gs_recovery_suppressed_rows_total", "counter",
          "already-delivered rows a rollback's replayed takes dropped "
          "(exactly-once)", column="suppressed"),
    Field("suspended", "gs_recovery_nodes_suspended", "gauge",
          "nodes awaiting a backoff retry", column="suspended",
          read=lambda supervisor: len(supervisor.suspended)),
    Field("journal_len", "gs_recovery_journal_len", "gauge",
          "journaled packets and other inputs since the last checkpoint",
          column="journal_len",
          read=lambda supervisor: supervisor.journal.len),
    Field("retries_exhausted", "gs_recovery_retries_exhausted_total",
          "counter",
          "nodes degraded to permanent quarantine after the retry budget"),
), stream="_gs_recovery")


class RecoverySupervisor:
    """Checkpoint and rollback supervisor of one :class:`RuntimeSystem`."""

    ledger = LEDGER

    def __init__(self, rts, checkpoint_interval: float = 1.0,
                 max_restarts: int = 3, backoff_base: float = 0.25,
                 backoff_factor: float = 2.0) -> None:
        check_finite("checkpoint_interval", checkpoint_interval)
        check_finite("backoff_base", backoff_base)
        check_finite("backoff_factor", backoff_factor)
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
        self.restarts_total = self.replayed_items = self.suppressed_rows = 0
        self.retries_exhausted = 0
        #: node name -> (node, error, retry_at) while it waits to retry
        self._suspended: Dict[str, Tuple[Any, Exception, float]] = {}
        #: the last checkpoint predates a change to the query set or a
        #: subscription: nothing is rolled back until the next one
        self._stale = False
        self._replaying = False
        rts.attach_plane(self)
        #: the RTS's inputs since the last checkpoint
        self.journal = Journal(rts)
        if rts.started:
            self.checkpoint()

    # -- checkpointing ------------------------------------------------------
    def take_checkpoint(self, stream_time: float) -> bool:
        """Snapshot every live node and the RTS; empty the journal."""
        rts = self.rts
        frame = self.log.cut(rts, stream_time,
                             rts.packets_fed + rts.fault_dropped)
        if frame is None:
            return False
        self.log.fold(frame)
        self.journal.cut(rts)
        self.checkpoints_taken += 1
        self.checkpoint_bytes = sum(map(len, self.checkpoints.values()))
        self._stale = False
        return True

    def on_start(self) -> None:
        """Cut the baseline checkpoint."""
        self.take_checkpoint(self.rts.stream_time)

    def checkpoint(self) -> None:
        """Cut a checkpoint now: the query set, a subscription or a
        parameter changed, and a rollback past the change would re-feed
        what was fed before it to the engine after it.  Where none can
        be cut (a node waits for its retry, or a channel holds items in
        flight), a failure is quarantined until the next checkpoint."""
        if self.rts.started and (
                self._suspended
                or not self.take_checkpoint(self.rts.stream_time)):
            self._stale = True

    # -- scheduler hooks ----------------------------------------------------
    def on_pump_begin(self, stream_time: float) -> None:
        # before the journal takes the cycle down: a due retry replays
        # the journal as it stands
        if self._suspended and not self._replaying:
            self.resume_due(stream_time)

    def on_pump_end(self, stream_time: float) -> None:
        # A suspension defers checkpoints: the suspended node's retry
        # rolls back to the one before it failed.
        if not (self._suspended or math.isinf(stream_time)) and (
                self._stale
                or stream_time >= self.log.time + self.checkpoint_interval):
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
        """Offer a failing node recovery.  True: the RTS was rolled back
        (the journal re-fed).  False: the node was suspended -- it
        failed again while the journal was re-fed, or the rollback was
        refused -- or, left unmarked, goes to quarantine."""
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
        """Restore the whole RTS to the last checkpoint and replay the
        journal onto it (:meth:`Journal.replay`): the application's
        channels go back with it and its takes are replayed, dropping
        what they hand over, as the application has it."""
        rts = self.rts
        self.log.restore(rts)
        for node, _, _ in self._suspended.values():
            node.quarantined = None
        self._suspended.clear()
        rts._replan()
        self.replayed_items += self.journal.len
        self._replaying = True
        try:
            self.suppressed_rows += self.journal.replay(rts)
        finally:
            self._replaying = False

    # -- backoff / suspension ------------------------------------------------
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
        stale checkpoint quarantines them instead)."""
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
            "retries_exhausted": self.retries_exhausted,
            "suspended": self.suspended,
            "journal_len": self.journal.len,
        }
