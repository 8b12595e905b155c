"""Bounded ring-buffer channels between query nodes.

The paper's query nodes are processes communicating through shared
memory; here they are objects communicating through :class:`Channel`
ring buffers.  The properties that matter to the reproduction are
preserved: bounded capacity, overflow accounting (bursty streams
overflow merge buffers, Section 3), and subscription fan-out.

The batched data path (DESIGN section 10) moves items in blocks:
:meth:`Channel.push_many` / :meth:`Channel.pop_many` amortize the
per-item call overhead while keeping the overflow ledger *per item* --
a batch that straddles the capacity bound drops exactly the same
tuples, and counts them exactly the same way, as a sequence of
single pushes would.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterable, Iterator, List, Optional


def check_positive_int(name: str, value, allow_none: bool = False) -> None:
    """Refuse a size or count argument ``name`` that is not a positive
    integer (``allow_none``: None, "unbounded", passes too), with a
    ``ValueError`` naming it.  Every engine facade asks before it
    builds, feeds or forks anything."""
    if value is None and allow_none:
        return
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


class ChannelStats:
    __slots__ = ("pushed", "popped", "dropped", "max_depth", "control_pushed")

    def __init__(self) -> None:
        self.pushed = 0
        self.popped = 0
        self.dropped = 0
        self.max_depth = 0
        #: punctuation/flush tokens pushed; these bypass the capacity bound
        #: (so max_depth may exceed capacity by at most this many items)
        self.control_pushed = 0

    def __repr__(self) -> str:  # keep the dataclass-style repr
        return (f"ChannelStats(pushed={self.pushed}, popped={self.popped}, "
                f"dropped={self.dropped}, max_depth={self.max_depth}, "
                f"control_pushed={self.control_pushed})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelStats):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def absorb(self, snapshot: dict) -> None:
        """Fold a remote channel's statistics dict into this ledger.

        The sharded runtime runs :meth:`push_many` inside worker
        processes; their per-item overflow accounting would die with
        the pipe otherwise.  Counters add, ``max_depth`` takes the
        high-water mark (see :func:`repro.obs.collectors.channel_snapshot`
        for the dict shape).
        """
        self.pushed += snapshot.get("pushed", 0)
        self.popped += snapshot.get("popped", 0)
        self.dropped += snapshot.get("dropped", 0)
        self.control_pushed += snapshot.get("control_pushed", 0)
        depth = snapshot.get("max_depth", 0)
        if depth > self.max_depth:
            self.max_depth = depth


class Channel:
    """A FIFO with optional capacity; overflow drops the newest item."""

    __slots__ = ("capacity", "name", "fault_capacity", "_queue", "stats",
                 "control_queued")

    def __init__(self, capacity: Optional[int] = None, name: str = "") -> None:
        check_positive_int("capacity", capacity, allow_none=True)
        self.capacity = capacity
        self.name = name
        #: temporary bound installed by a fault injector (channel-overflow
        #: storm); the effective capacity is the tighter of the two
        self.fault_capacity: Optional[int] = None
        self._queue: Deque[Any] = deque()
        self.stats = ChannelStats()
        #: control tokens currently in the queue; while it is 0 a popped
        #: block is one run of data tuples and needs no scan to split
        self.control_queued = 0

    def _effective_capacity(self) -> Optional[int]:
        capacity = self.capacity
        if self.fault_capacity is not None and (
                capacity is None or self.fault_capacity < capacity):
            capacity = self.fault_capacity
        return capacity

    def push(self, item: Any) -> bool:
        """Append ``item``; returns False (and counts a drop) on overflow.

        Control tokens (punctuation, flush) are never dropped: losing
        one would stall downstream operators forever.
        """
        capacity = self._effective_capacity()
        if (
            capacity is not None
            and len(self._queue) >= capacity
            and type(item) is tuple
        ):
            self.stats.dropped += 1
            return False
        self._queue.append(item)
        self.stats.pushed += 1
        if type(item) is not tuple:
            self.stats.control_pushed += 1
            self.control_queued += 1
        if len(self._queue) > self.stats.max_depth:
            self.stats.max_depth = len(self._queue)
        return True

    def push_rows(self, rows: List[tuple]) -> int:
        """:meth:`push_many` for a materialized block of *data tuples*
        (what ``emit_many`` carries): with no control token to count,
        an unbounded channel takes the block without looking at it.
        (:meth:`push_many`'s own unbounded path counts the tokens of a
        mixed block, then appends through here.)"""
        if self.capacity is not None or self.fault_capacity is not None:
            return self.push_many(rows)
        queue = self._queue
        queue.extend(rows)
        stats = self.stats
        stats.pushed += len(rows)
        if len(queue) > stats.max_depth:
            stats.max_depth = len(queue)
        return len(rows)

    def push_many(self, items: Iterable[Any]) -> int:
        """Append a block of items; returns how many were accepted.

        Per-item semantics are identical to calling :meth:`push` once
        per item -- data tuples beyond the capacity bound are dropped
        and counted individually, control tokens always get through,
        and ``max_depth`` records the same high-water mark (depth grows
        monotonically within a block, so checking once at the end sees
        the same peak a per-push check would).
        """
        stats = self.stats
        queue = self._queue
        if (self.capacity is None and self.fault_capacity is None
                and isinstance(items, (list, tuple))):
            # Fast path: no bound applies and the block is already
            # materialized, so no code runs mid-block that could
            # install one.  A generator input gets the general loop --
            # its body may set ``fault_capacity`` between items (fault
            # injectors do), and per-push semantics must see that.
            control = 0
            for item in items:
                if type(item) is not tuple:
                    control += 1
            stats.control_pushed += control
            self.control_queued += control
            return self.push_rows(items)
        accepted = 0
        dropped = 0
        control = 0
        effective = self._effective_capacity
        for item in items:
            # Re-read the bound per item, exactly as push() does: a
            # fault injector tightening it mid-block must drop the
            # same suffix a sequence of single pushes would.
            capacity = effective()
            if (capacity is not None and len(queue) >= capacity
                    and type(item) is tuple):
                dropped += 1
                continue
            queue.append(item)
            accepted += 1
            if type(item) is not tuple:
                control += 1
        stats.pushed += accepted
        stats.dropped += dropped
        stats.control_pushed += control
        self.control_queued += control
        if len(queue) > stats.max_depth:
            stats.max_depth = len(queue)
        return accepted

    def pop(self) -> Any:
        """Remove and return the oldest item; raises IndexError when empty."""
        item = self._queue.popleft()
        self.stats.popped += 1
        if type(item) is not tuple:
            self.control_queued -= 1
        return item

    def pop_many(self, limit: Optional[int] = None) -> List[Any]:
        """Remove and return up to ``limit`` oldest items (all when None)."""
        queue = self._queue
        if limit is None or limit >= len(queue):
            items = list(queue)
            queue.clear()
            self.control_queued = 0
        else:
            items = [queue.popleft() for _ in range(limit)]
            if self.control_queued:
                self.control_queued -= sum(
                    1 for item in items if type(item) is not tuple)
        self.stats.popped += len(items)
        return items

    def peek(self) -> Any:
        return self._queue[0]

    def drain(self) -> List[Any]:
        """Pop everything currently buffered."""
        items = list(self._queue)
        self.stats.popped += len(items)
        self._queue.clear()
        self.control_queued = 0
        return items

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._queue)


def all_quiescent(channels: Iterable["Channel"]) -> bool:
    """True when no channel holds in-flight items.

    A checkpoint is crash-consistent only if it is cut at a quiescent
    point -- operator state alone describes the computation, with no
    half-delivered items living in channels (DESIGN section 11).  The
    recovery supervisor checks this before cutting a checkpoint at a
    pump boundary.
    """
    return all(not channel for channel in channels)
