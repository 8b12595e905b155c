"""The order-preserving merge (union) operator (paper Section 2.2).

"The merge operator allows us to combine streams from multiple sources
into a single stream.  This operator is surprisingly important -- we
implemented it before the join operator."  Optical links are simplex:
seeing a full logical link means monitoring two interfaces and merging.

The merge emits tuples in nondecreasing order of the merge attribute.
Each input carries a low-water mark -- the largest merge value it has
delivered, or a punctuation's bound if that is higher -- below which it
promises nothing more.  One rule decides what may leave:

    every buffered row whose merge value is at most the smallest
    low-water mark over the inputs still open goes out, in merge order
    (ties: lowest input first, then arrival order).

An input that stays silent therefore holds everything back until a
tuple or a punctuation raises its mark -- the blocking problem of
Section 3, and why the heartbeat mechanism exists.  When an input's
held rows grow past a threshold while another input is silent, the node
requests an on-demand heartbeat.

Inputs arrive as sorted runs (a channel block; a single tuple is the
run of one).  A run is spliced, not looped over: ``bisect`` finds the
released prefix of the run and of every other buffer, the prefixes are
concatenated in input order and stable-sorted on the merge attribute
(timsort merges the presorted prefixes in C), and the result leaves in
one ``emit_many``.  What tuple-at-a-time arrival would have done
differently is reproduced exactly:

* a row arriving on input ``i`` leaves *before* tied rows buffered on a
  higher input ``j`` -- but its own duplicates, arriving later, leave
  after them.  So the run's first row of each tie group sorts as
  ``(t, i)``, buffered rows as ``(t, j)``, the run's duplicates as
  ``(t, +inf)``: the duplicates are moved behind every buffer before
  the stable sort.
* rows released on arrival never occupy the buffer, so they do not
  count against ``buffer_capacity``; only the held tail can overflow.

A banded-increasing input may deliver a row that sorts before an
earlier one, and tuple-at-a-time arrival emits such a pair in arrival
order when both are released at once; deferring the drain to the end
of a run would sort them.  A banded buffer is not sorted either: its
released rows are picked by a scan, and while it is non-empty it may
release values above its own low-water mark (an input only holds the
others back once its buffer is empty, see :meth:`MergeNode._bound`),
so whether a run's later duplicates leave can depend on a banded
buffer emptying part-way through the run.  A node with a banded input
therefore feeds every run through the same code one row at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.core.heartbeat import Punctuation
from repro.core.query_node import QueryNode
from repro.gsql.planner import HftaPlan
from repro.gsql.semantic import AnalyzedQuery

BLOCK_SUSPECT_DEPTH = 1024


class MergeNode(QueryNode):
    """K-way merge preserving the ordering of the merge attribute."""

    def __init__(self, plan: HftaPlan, analyzed: AnalyzedQuery,
                 buffer_capacity: Optional[int] = None) -> None:
        super().__init__(plan.name, plan.output_schema)
        self.plan = plan
        self._slots = [slot for (_, slot) in plan.merge_slots]
        self._bands = []
        for position, (_, slot) in enumerate(plan.merge_slots):
            attribute = plan.input_schemas[position].attributes[slot]
            if not attribute.ordering.is_increasing:
                raise ValueError(
                    f"merge column {attribute.name} must be increasing "
                    "(decreasing merges are not implemented)"
                )
            self._bands.append(attribute.ordering.effective_band)
        self._banded = any(self._bands)
        #: merge-value extractor per input (bisect and sort key)
        self._keys = [itemgetter(slot) for slot in self._slots]
        #: one key sorts a whole release when every input carries the
        #: merge attribute in the same slot (schemas only have to match
        #: in type, so the general case extracts keys per input)
        self._sort_key = self._keys[0] if len(set(self._slots)) == 1 else None
        count = len(plan.inputs)
        self._buffers: List[List[tuple]] = [[] for _ in range(count)]
        self._low_water = [-math.inf] * count
        self._done = [False] * count
        self.buffer_capacity = buffer_capacity
        self.dropped = 0
        # Output slot of the merge attribute (schemas match; use input 0's).
        self._out_slot = self._slots[0]

    @property
    def buffered(self) -> int:
        return sum(len(buffer) for buffer in self._buffers)

    def on_tuple(self, row: tuple, input_index: int) -> None:
        self.on_tuple_batch((row,), input_index)

    def on_tuple_batch(self, rows: Sequence[tuple], input_index: int) -> None:
        # A channel block of tuples from one input is a sorted run and
        # is spliced as one (see the module docstring for the release
        # rule and the tie key that keeps it equal to tuple-at-a-time
        # arrival).
        if self._banded:
            # Within-band inversions leave in arrival order when each
            # row drains alone; one drain per run would sort them.  And
            # a banded buffer that empties mid-run changes what the
            # run's later duplicates may do, so every input of such a
            # node arrives row by row.
            for row in rows:
                self._arrive((row,), input_index)
        else:
            self._arrive(rows, input_index)

    def _arrive(self, run: Sequence[tuple], input_index: int) -> None:
        """Buffer one sorted run of input ``input_index`` and release."""
        buffer = self._buffers[input_index]
        band = self._bands[input_index]
        # A monotone input that already holds rows releases nothing by
        # holding more: its head and every silent input's mark are what
        # they were when the last drain stopped.
        held = bool(buffer) and not band
        capacity = self.buffer_capacity
        if capacity is not None:
            room = max(capacity - len(buffer), 0)
            if room and not held and len(run) > room:
                room += self._passing(run, input_index)
            if len(run) > room:
                # Merge buffer overflow -- the Section 3 failure mode
                # when a bursty stream outruns a quiet one and no
                # heartbeats arrive.
                self.dropped += len(run) - room
                run = run[:room]
        if not run:
            return
        buffer.extend(run)
        advance = self._keys[input_index](run[-1]) - band
        if advance > self._low_water[input_index]:
            self._low_water[input_index] = advance
        if band:
            # Tuple order: the depth check sees the row before its drain.
            self._suspect_block(buffer)
            self._drain()
        else:
            if not held:
                self._drain(arrived=input_index)
            # The check the run's held rows would each have made, after
            # its released rows drained.
            self._suspect_block(buffer)

    def _suspect_block(self, buffer: List[tuple]) -> None:
        if (len(buffer) > BLOCK_SUSPECT_DEPTH
                and any(not b and not d for b, d in zip(self._buffers, self._done))):
            self.request_heartbeat()

    def on_punctuation(self, punctuation: Punctuation, input_index: int) -> None:
        bound = punctuation.bound_for(self._slots[input_index])
        if bound is not None and bound > self._low_water[input_index]:
            self._low_water[input_index] = bound
            self._drain()
            self._emit_floor_punctuation()

    def _bound(self, skip: int = -1) -> Tuple[float, float]:
        """The release bound ``(value, input)`` over the open inputs.

        A row of input ``k`` with merge value ``v`` is released iff
        ``(v, k) <= bound``.  An open input bounds the others by its
        low-water mark ``(mark, +inf)``; a banded one that still holds
        rows above its mark bounds them by its last row in merge order
        instead, ``(largest held value, its index)``.  ``skip`` leaves
        one input out (what the *others* release of its arriving run).
        """
        bound = (math.inf, math.inf)
        for index, done in enumerate(self._done):
            if done or index == skip:
                continue
            mark = (self._low_water[index], math.inf)
            if self._bands[index] and self._buffers[index]:
                top = (max(map(self._keys[index], self._buffers[index])), index)
                if top > mark:
                    mark = top
            if mark < bound:
                bound = mark
        return bound

    def _passing(self, run: Sequence[tuple], input_index: int) -> int:
        """How many leading rows of a run on an empty monotone input the
        other inputs already release: tuple-at-a-time, each would find
        the buffer empty and leave at once."""
        value, last_input = self._bound(skip=input_index)
        find = bisect_right if input_index <= last_input else bisect_left
        return find(run, value, key=self._keys[input_index])

    def _drain(self, arrived: int = -1) -> None:
        """Emit every buffered row the release bound lets go, in merge
        order.  ``arrived`` names the input whose run was just buffered
        into an empty buffer, for the tie rule."""
        value, last_input = self._bound()
        inputs: List[int] = []          # inputs releasing rows, ascending
        parts: List[List[tuple]] = []   # their released rows
        for index, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            key = self._keys[index]
            inclusive = index <= last_input
            if self._bands[index]:
                part, kept = [], []
                for row in buffer:
                    merge_value = key(row)
                    released = (merge_value < value
                                or (inclusive and merge_value == value))
                    (part if released else kept).append(row)
                buffer[:] = kept
            else:
                find = bisect_right if inclusive else bisect_left
                take = find(buffer, value, key=key)
                part = buffer[:take]
                del buffer[:take]
            if part:
                inputs.append(index)
                parts.append(part)
        if not parts:
            return
        if len(parts) == 1 and not self._bands[inputs[0]]:
            # One monotone input releasing alone: already in merge order.
            self.emit_many(parts[0])
            return
        if arrived in inputs[:-1]:
            # Rows buffered on a higher input leave between the run's
            # first row of a tie group and that row's duplicates.
            position = inputs.index(arrived)
            run = parts[position]
            values = list(map(self._keys[arrived], run))
            if len(set(values)) < len(values):
                firsts, duplicates = [], []
                previous = None
                for row, merge_value in zip(run, values):
                    (duplicates if merge_value == previous
                     else firsts).append(row)
                    previous = merge_value
                parts[position] = firsts
                inputs.append(arrived)
                parts.append(duplicates)
        merged = [row for part in parts for row in part]
        if self._sort_key is not None:
            merged.sort(key=self._sort_key)
        else:
            values = [self._keys[index](row)
                      for index, part in zip(inputs, parts) for row in part]
            order = sorted(range(len(merged)), key=values.__getitem__)
            merged = [merged[position] for position in order]
        self.emit_many(merged)

    def _emit_floor_punctuation(self) -> None:
        floor = math.inf
        for input_index, buffer in enumerate(self._buffers):
            if buffer:
                key = self._keys[input_index]
                # A monotone input's head is its minimum.
                head = (min(map(key, buffer)) if self._bands[input_index]
                        else key(buffer[0]))
                floor = min(floor, head)
            elif not self._done[input_index]:
                floor = min(floor, self._low_water[input_index])
        if not math.isinf(floor):
            self.emit_punctuation(Punctuation({self._out_slot: floor}))

    def on_flush(self, input_index: int) -> None:
        self._done[input_index] = True
        self._low_water[input_index] = math.inf
        self._drain()
        if all(self._done) and not self.flushed:
            self.flushed = True
            self.emit_flush()

    # -- checkpoint/restore (DESIGN section 11) ----------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["buffers"] = [list(buffer) for buffer in self._buffers]
        state["low_water"] = list(self._low_water)
        state["done"] = list(self._done)
        state["dropped"] = self.dropped
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._buffers = [list(buffer) for buffer in state["buffers"]]
        self._low_water = list(state["low_water"])
        self._done = list(state["done"])
        self.dropped = state["dropped"]

    def flush(self) -> None:
        """Force out everything buffered, in merge order."""
        for done in range(len(self._done)):
            self._done[done] = True
            self._low_water[done] = math.inf
        self._drain()
