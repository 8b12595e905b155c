"""The query-node API.

Query nodes are the units the stream manager schedules.  Generated
query code and user-written operators implement the same interface --
"Users can write their own query nodes to implement special operators
by following this API" (the paper's example is an IP defragmentation
operator; see :mod:`repro.operators.defrag`).

A node has a name, an output :class:`StreamSchema`, and a set of
subscriber channels.  Stream items are plain tuples; control items are
:class:`Punctuation` and :class:`FlushToken`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.channels import Channel
from repro.core.heartbeat import FLUSH, FlushToken, Punctuation
from repro.gsql.schema import StreamSchema


class NodeStats:
    __slots__ = ("tuples_in", "tuples_out", "punctuations_in",
                 "punctuations_out", "discarded")

    def __init__(self) -> None:
        self.tuples_in = 0
        self.tuples_out = 0
        self.punctuations_in = 0
        self.punctuations_out = 0
        self.discarded = 0  # dropped by predicates / partial functions

    def __repr__(self) -> str:
        return (f"NodeStats(tuples_in={self.tuples_in}, "
                f"tuples_out={self.tuples_out}, "
                f"punctuations_in={self.punctuations_in}, "
                f"punctuations_out={self.punctuations_out}, "
                f"discarded={self.discarded})")


class QueryNode:
    """Base class for every operator the stream manager runs."""

    def __init__(self, name: str, output_schema: StreamSchema) -> None:
        self.name = name
        self.output_schema = output_schema
        self.subscribers: List[Channel] = []
        self.inputs: List[Channel] = []
        #: (producer, channel) pairs behind ``inputs``, for detaching
        self.input_links: List[tuple] = []
        self.stats = NodeStats()
        self.manager = None  # set by the stream manager at registration
        self.flushed = False
        #: error string once the RTS has contained a failure here, else None
        self.quarantined: Optional[str] = None

    # -- output side ----------------------------------------------------
    def subscribe(self, capacity: Optional[int] = None, name: str = "") -> Channel:
        """Open a new output channel; the caller owns the consumer side."""
        channel = Channel(capacity=capacity, name=name or f"{self.name}->?")
        self.subscribers.append(channel)
        return channel

    def emit(self, row: tuple) -> None:
        self.stats.tuples_out += 1
        manager = self.manager
        if manager is not None and manager.tracer is not None:
            # Sampled lineage (repro.obs.tracing): a tuple emitted while
            # a traced item is being processed belongs to that trace and
            # is tagged so channel crossings can be followed.
            trace = manager.tracer.current
            if trace is not None:
                manager.tracer.tag(row, trace)
                manager.tracer.event(trace, "emit", self.name,
                                     manager.stream_time)
        for channel in self.subscribers:
            channel.push(row)

    def emit_many(self, rows: Sequence[tuple]) -> None:
        """Emit a block of output tuples.

        While a lineage trace is in flight the block goes out row by
        row through :meth:`emit`, so every row is tagged with it.
        """
        if not rows:
            return
        manager = self.manager
        if (manager is not None and manager.tracer is not None
                and manager.tracer.current is not None):
            for row in rows:
                self.emit(row)
            return
        self.stats.tuples_out += len(rows)
        for channel in self.subscribers:
            channel.push_rows(rows)

    def emit_punctuation(self, punctuation: Punctuation) -> None:
        if not punctuation:
            return
        self.stats.punctuations_out += 1
        for channel in self.subscribers:
            channel.push(punctuation)

    def emit_flush(self) -> None:
        for channel in self.subscribers:
            channel.push(FLUSH)

    # -- input side (HFTA-style nodes) ------------------------------------
    def attach_input(self, channel: Channel) -> int:
        """Register an input channel; returns its input index."""
        self.inputs.append(channel)
        return len(self.inputs) - 1

    def dispatch(self, item: Any, input_index: int) -> None:
        """Route one channel item to the right handler; a data tuple
        is a block of one."""
        if type(item) is tuple:
            self.dispatch_batch((item,), input_index)
        elif isinstance(item, Punctuation):
            self.stats.punctuations_in += 1
            self.on_punctuation(item, input_index)
        elif isinstance(item, FlushToken):
            self.on_flush(input_index)
        else:
            raise TypeError(f"{self.name}: unknown stream item {item!r}")

    def dispatch_batch(self, rows: List[tuple], input_index: int) -> None:
        """Route a block of *data tuples* to the block handler -- the
        one entry every data tuple takes.  The scheduler only calls
        this with runs of plain tuples (control items are always
        dispatched singly, in stream order).
        """
        self.stats.tuples_in += len(rows)
        self.on_tuple_batch(rows, input_index)

    # -- handlers to override ------------------------------------------------
    def on_tuple(self, row: tuple, input_index: int) -> None:
        raise NotImplementedError

    def on_tuple_batch(self, rows: List[tuple], input_index: int) -> None:
        """Process a run of tuples.  The default loops :meth:`on_tuple`:
        the adapter for per-row operators (sinks, triggers, and
        user-written nodes, which only implement ``on_tuple``).

        Overrides must not depend on how the stream was cut into runs:
        same outputs in the same order, same statistics at every block
        size (tests/test_golden_scenarios.py holds them to it).
        ``rows`` may be the very block the scheduler popped: read it,
        never mutate it.
        """
        on_tuple = self.on_tuple
        for row in rows:
            on_tuple(row, input_index)

    def on_punctuation(self, punctuation: Punctuation, input_index: int) -> None:
        """Default: consume silently (operators override to unblock)."""

    def on_flush(self, input_index: int) -> None:
        """Default: first flush from any input flushes the node."""
        if not self.flushed:
            self.flushed = True
            self.flush()
            self.emit_flush()

    def flush(self) -> None:
        """Emit any remaining state (end of stream)."""

    # -- checkpoint/restore (DESIGN section 11) -------------------------------
    def snapshot_state(self) -> dict:
        """The node's mutable state as a tree of snapshot primitives.

        Stateful operators override this (and :meth:`restore_state`),
        call ``super()``, and add their own fields.  Callers must
        encode the result (``repro.recovery.wire.encode_snapshot``)
        before the node runs again: the tree may alias live mutable
        state, and the encoded bytes are what isolate the checkpoint
        from later mutation.
        """
        stats = self.stats
        return {
            "stats": (stats.tuples_in, stats.tuples_out,
                      stats.punctuations_in, stats.punctuations_out,
                      stats.discarded),
            "flushed": self.flushed,
        }

    def restore_state(self, state: dict) -> None:
        """Reset the node to a state produced by :meth:`snapshot_state`."""
        stats = self.stats
        (stats.tuples_in, stats.tuples_out, stats.punctuations_in,
         stats.punctuations_out, stats.discarded) = state["stats"]
        self.flushed = state["flushed"]

    # -- blocked-operator support ----------------------------------------------
    def request_heartbeat(self) -> None:
        """Ask the manager for an on-demand ordering-update token."""
        if self.manager is not None:
            self.manager.heartbeat_requested(self)


class UserNode(QueryNode):
    """Convenience base class for user-written operators.

    Subclasses override :meth:`on_tuple` (and optionally
    :meth:`on_punctuation` / :meth:`flush`) and call :meth:`emit`.
    Register with :meth:`repro.core.engine.Gigascope.add_node`.
    """
