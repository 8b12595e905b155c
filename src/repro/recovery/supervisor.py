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
  before acting on them: each block as it was cut, each heartbeat a
  feed or ``advance_time`` sent, each pump cycle and the end of the
  streams -- nothing a pump derives, which a replayed pump derives again.

* **Rollback.**  When a node raises, the RTS offers the failure here
  instead of quarantining.  The supervisor restores the whole RTS to
  the last checkpoint and re-feeds the journal, the operation in
  progress included; the interrupted caller returns.  State is the
  integral of the inputs, so the run lands byte-identical to one
  without the crash (``replay verify``'s crash arms).  The
  application's takes from its subscriptions are journaled inputs too:
  the replay takes again and drops what it is handed, as the
  application has it; a file sink skips the rows already in its file
  -- exactly-once.

* **Backoff and the budget.**  A node that fails again while the
  journal is re-fed is suspended (marked, skipped by schedulers,
  producers keep it wired); its retry after an exponential backoff in
  virtual time is the same rollback.  An exhausted budget degrades it
  to permanent quarantine with identical containment accounting.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, NamedTuple, Tuple

from repro.core.channels import check_finite
from repro.obs.ledger import Field, Ledger
from repro.recovery.statelog import FrameError, StateLog

#: journal entries besides a block ``(packets, newest)``, a heartbeat's
#: stream time and a :class:`_Drain`
_PUMP, _END = "pump", "end of streams"


class _Drain(NamedTuple):
    """The application took what a subscription's channel held."""

    subscription: Any
    raw: bool

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
          column="journal_len"),
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
        #: the RTS's inputs since the last checkpoint, in order (the
        #: packets themselves, no copy), and its packets and other
        #: entries: a count no block size moves
        self.journal: List[Any] = []
        self.journal_len = 0
        #: node name -> (node, error, retry_at) while it waits to retry
        self._suspended: Dict[str, Tuple[Any, Exception, float]] = {}
        #: each channel no node reads (an application's): its ledger at
        #: the last checkpoint, and the items it held then once the
        #: application took them
        self._delivery: Dict[Any, tuple] = {}
        self._taken: Dict[Any, list] = {}
        #: the last checkpoint predates a change to the query set or a
        #: subscription: nothing is rolled back until the next one
        self._stale = False
        self._replaying = False
        rts.attach_plane(self)
        if rts.started:
            self.checkpoint()

    # -- the journal (appended by the RTS before it acts) ------------------
    def journal_packets(self, packets, newest: float) -> None:
        self.journal.append((packets, newest))
        self.journal_len += len(packets)

    def journal_heartbeat(self, stream_time: float) -> None:
        self._journal(stream_time)

    def journal_drain(self, subscription, raw: bool) -> None:
        channel = subscription.channel
        ledger = self._delivery.get(channel)
        if ledger is not None and channel.stats.popped == ledger[1]:
            # the first take since the checkpoint: keep what the
            # channel held at it for a rollback to put back
            self._taken[channel] = list(channel)[:ledger[0] - ledger[1]]
        self._journal(_Drain(subscription, raw))

    def _journal(self, entry) -> None:
        self.journal.append(entry)
        self.journal_len += 1

    # -- checkpointing ------------------------------------------------------
    def take_checkpoint(self, stream_time: float) -> bool:
        """Snapshot every live node and the RTS; empty the journal."""
        rts = self.rts
        frame = self.log.cut(rts, stream_time,
                             rts.packets_fed + rts.fault_dropped)
        if frame is None:
            return False
        self.log.fold(frame)
        reads = {channel for _, node in rts.iter_nodes()
                 for channel in node.inputs}
        self._delivery = {channel: channel.ledger()
                          for channel in rts.channels()
                          if channel not in reads}
        self._taken.clear()
        self.checkpoints_taken += 1
        self.checkpoint_bytes = sum(map(len, self.checkpoints.values()))
        self.journal.clear()
        self.journal_len = 0
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
        if self._suspended and not self._replaying:
            self.resume_due(stream_time)
        self._journal(_PUMP)

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

    def on_stream_end(self, stream_time: float) -> None:
        # Flushing cannot fail into a rollback (a consumer that fails
        # while flushing is quarantined), so journaling it last is safe.
        self._journal(_END)

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
        """Restore the whole RTS to the last checkpoint and re-feed the
        journal.

        The application's takes are inputs too: a channel no node reads
        (a subscription's) goes back to the checkpoint with the RTS, the
        items it held then put back, and each journaled take drains it
        again; what that hands over is dropped, as the application has
        it.  A node quarantined since regenerates nothing, and its
        channels and their takes stay as they are.
        """
        rts = self.rts
        self.log.restore(rts)
        for node, _, _ in self._suspended.values():
            node.quarantined = None
        self._suspended.clear()
        rts._replan()
        rewound = set()
        for name, node in rts.iter_nodes():
            for channel in node.subscribers:
                ledger = self._delivery.get(channel)
                if ledger is not None and name not in rts.quarantined:
                    held = self._taken.get(channel)
                    if held is None:  # untouched since the checkpoint
                        held = list(channel)[:ledger[0] - ledger[1]]
                    channel.rewind(ledger, held)
                    rewound.add(channel)
        entries, self.journal = self.journal, []
        self.replayed_items += self.journal_len
        self.journal_len = 0
        self._replaying = True
        try:
            for entry in entries:
                if entry is _PUMP:
                    rts.pump()
                elif entry is _END:
                    rts._end_streams()
                elif type(entry) is _Drain:
                    if entry.subscription.channel in rewound:
                        self.suppressed_rows += len(
                            entry.subscription._take(entry.raw))
                elif type(entry) is tuple:
                    rts._feed_batch(*entry)
                else:
                    rts._heartbeat(entry)
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
            "journal_len": self.journal_len,
        }
