"""The two-stream window join (paper Sections 2.1-2.2).

"The join predicate must contain a constraint on an ordered attribute
from each table which can be used to define a join window.  For
example, B.ts = C.ts, or B.ts >= C.ts - 1 and B.ts <= C.ts + 1."

The implementation is a symmetric hash band join: each side buffers
its tuples, probes the other side's buffer on arrival, and purges using
low-water marks advanced by tuples and by punctuation.  The window
``left.ts - right.ts in [low, high]`` bounds the state exactly.  A row
below its own side's low-water mark is late: discarded, unprobed,
unbuffered.

Beside its arrival-ordered buffer each side keeps the same rows in
buckets keyed on the plan's equality conjuncts (``HftaPlan.join_keys``),
so an arrival bisects the one bucket that can match instead of the whole
window, and the key each row was buffered under, so a purge cuts the
buckets without re-keying.  The index changes which candidates are
*examined*, never which pairs are emitted: every candidate still passes
through the full compiled predicate, and ``a == b`` implies
``hash(a) == hash(b)`` for every GSQL value type, so only rows an
equality conjunct would have rejected are skipped.  A join without
equality conjuncts has the single key ``()`` -- one bucket holding the
whole window.

Arrivals come in blocks: each input has one generated loop
(``ExprCompiler.hfta_join_fn``) that keys, probes through
:meth:`JoinNode._window_candidates`, tests, projects and inserts its
rows in arrival order, and emits the block's pairs ahead of any output
punctuation (DESIGN section 17).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from itertools import compress
from operator import itemgetter, not_
from typing import Dict, List, Tuple

from repro.core.heartbeat import Punctuation
from repro.core.query_node import QueryNode
from repro.gsql.ast_nodes import Column
from repro.gsql.codegen import ExprCompiler
from repro.gsql.planner import HftaPlan
from repro.gsql.semantic import AnalyzedQuery

# Buffer depth at which the join suspects it is blocked on a quiet
# input and asks the manager for an on-demand heartbeat.
BLOCK_SUSPECT_DEPTH = 1024


class JoinNode(QueryNode):
    """Symmetric windowed join of exactly two streams."""

    def __init__(self, plan: HftaPlan, analyzed: AnalyzedQuery,
                 compiler: ExprCompiler) -> None:
        super().__init__(plan.name, plan.output_schema)
        if plan.join_window is None or plan.join_slots is None:
            raise ValueError("join plan is missing its window")
        self.plan = plan
        slot_maps = tuple(plan.slot_maps)
        self.low = plan.join_window.low
        self.high = plan.join_window.high
        (_, self._left_slot), (_, self._right_slot) = plan.join_slots
        # Per side, the window's rows in arrival order: on a monotone
        # input that is ordered-value order, so purges bisect it.
        self._buffers: List[List[tuple]] = [[], []]
        # Per side, a row's values of the plan's key columns: what a
        # restore re-keys the buffers with.
        self._key_fns = [
            compiler.tuple_fn([pair[side] for pair in plan.join_keys], slot_maps)
            for side in (0, 1)
        ]
        # Each buffered row's key, parallel to the buffer, and the same
        # rows bucketed: key -> (ordered values, rows), each bucket in
        # arrival order.  Derived from the buffers (never snapshotted),
        # purged with them, so they hold the window and no more; an
        # emptied bucket is deleted.
        self._keys: List[List[tuple]] = [[], []]
        self._index: List[Dict[tuple, Tuple[list, list]]] = [{}, {}]
        self._suspect_depth = BLOCK_SUSPECT_DEPTH
        self._low_water = [-math.inf, -math.inf]
        # Set whenever a low-water mark moves: output bounds depend on
        # nothing else, so punctuation is only recomputed when it is.
        self._bounds_stale = True
        self._done = [False, False]
        self._bands = [
            plan.input_schemas[0].attributes[self._left_slot].ordering.effective_band,
            plan.input_schemas[1].attributes[self._right_slot].ordering.effective_band,
        ]
        self._out_transforms = self._output_column_sides(analyzed, slot_maps)
        self._last_bounds: dict = {}
        self.pairs_emitted = 0
        # Sorted-output mode: pairs park in a reorder heap keyed by the
        # first window column in the output, released as the watermark
        # advances -- "monotonically increasing requires more buffer
        # space" (Section 2.1).
        self.sorted_output = plan.join_sorted_output
        self._reorder: List[tuple] = []
        self._reorder_seq = 0
        self.reorder_peak = 0
        if self.sorted_output:
            if not self._out_transforms:
                raise ValueError(
                    "sorted join output requires a window column in the "
                    "select list")
            self._sort_side, self._sort_slot = self._out_transforms[0]
        # One generated loop per input (DESIGN section 17).
        self._arrive = [
            compiler.hfta_join_fn(
                plan, side, self._sort_slot if self.sorted_output else None)
            for side in (0, 1)
        ]

    def _output_column_sides(self, analyzed: AnalyzedQuery, slot_maps):
        """Output slots that directly carry a side's ordered attribute."""
        transforms = []
        for out_slot, expr in enumerate(self.plan.select_exprs):
            if not isinstance(expr, Column):
                continue
            bound = analyzed.binding_of(expr)
            if bound is None:
                continue
            slot_map = slot_maps[bound.source_index]
            slot = bound.attr_index if slot_map is None else slot_map[bound.attr_index]
            side_slot = self._left_slot if bound.source_index == 0 else self._right_slot
            if slot == side_slot and bound.attribute.ordering.is_increasing:
                transforms.append((bound.source_index, out_slot))
        return transforms

    @property
    def buffered(self) -> int:
        return len(self._buffers[0]) + len(self._buffers[1])

    def on_tuple(self, row: tuple, input_index: int) -> None:
        self.on_tuple_batch((row,), input_index)

    def on_tuple_batch(self, rows, input_index: int) -> None:
        """One block of arrivals on ``input_index`` through that side's
        generated loop (:meth:`ExprCompiler.hfta_join_fn`): per row the
        late check, the low-water advance and purge, the key, the probe,
        predicate and projection of every candidate, and the insert, in
        arrival order -- the same pairs, punctuation and counters at
        every block size."""
        self._arrive[input_index](self, rows)

    def _window_candidates(self, side: int, key: tuple, lo_value, hi_value):
        """Buffered tuples of ``side`` under ``key`` with ordered value
        in [lo, hi], in arrival order.

        A monotone input keeps every bucket sorted, so the window is
        found by bisection; banded inputs fall back to a linear scan.
        """
        bucket = self._index[side].get(key)
        if bucket is None:
            return ()
        values, rows = bucket
        if self._bands[side] == 0:
            return rows[bisect_left(values, lo_value):
                        bisect_right(values, hi_value)]
        return [row for value, row in zip(values, rows)
                if lo_value <= value <= hi_value]

    def _reindex(self, side: int) -> None:
        """Rebuild ``side``'s keys and buckets from its buffer."""
        slot = self._left_slot if side == 0 else self._right_slot
        self._keys[side] = keys = list(map(self._key_fns[side],
                                           self._buffers[side]))
        self._index[side] = index = {}
        for key, row in zip(keys, self._buffers[side]):
            values, rows = index.setdefault(key, ([], []))
            values.append(row[slot])
            rows.append(row)

    def _release_sorted(self, final: bool = False) -> None:
        """Emit reordered pairs whose sort key is below the watermark."""
        if not self.sorted_output or not self._reorder:
            return
        if final:
            bound = math.inf
        else:
            bound = self._output_bound(self._sort_side)
            if math.isinf(bound) and bound < 0:
                return
        heap = self._reorder
        released = []
        while heap and heap[0][0] <= bound:
            released.append(heapq.heappop(heap)[2])
        self.emit_many(released)

    def _output_bound(self, side: int) -> float:
        """Lower bound on future output values of ``side``'s column."""
        lw0, lw1 = self._low_water
        if side == 0:
            return min(lw0, lw1 + self.low)
        return min(lw1, lw0 - self.high)

    def _purge(self, side: int) -> None:
        """Drop buffered tuples of ``side`` that can no longer join.

        The purged rows' stored keys name the buckets to cut, so no row
        is re-keyed: each named bucket loses its rows below the
        threshold (a prefix, on a monotone input) and leaves the index
        when none remain."""
        if side == 1:
            # right tuple r joins future left l >= lw0 only if r >= l - high
            threshold = self._low_water[0] - self.high
            slot = self._right_slot
        else:
            # left tuple l joins future right r >= lw1 only if l >= r + low
            threshold = self._low_water[1] + self.low
            slot = self._left_slot
        if math.isinf(threshold) and threshold < 0:
            return
        buffer, keys = self._buffers[side], self._keys[side]
        monotone = self._bands[side] == 0
        if monotone:
            cut = bisect_left(buffer, threshold, key=itemgetter(slot))
            gone = keys[:cut]
            del buffer[:cut], keys[:cut]
        else:
            live = [row[slot] >= threshold for row in buffer]
            # once per key: a banded bucket is filtered whole
            gone = dict.fromkeys(compress(keys, map(not_, live)))
            if not gone:
                return
            buffer[:] = compress(buffer, live)
            keys[:] = compress(keys, live)
        index = self._index[side]
        for key in gone:
            bucket = index.pop(key, None)
            if bucket is None:
                continue  # emptied by an earlier row of its key
            values, rows = bucket
            if monotone:
                cut = bisect_left(values, threshold)
                del values[:cut], rows[:cut]
            else:
                live = [value >= threshold for value in values]
                values[:] = compress(values, live)
                rows[:] = compress(rows, live)
            if rows:
                index[key] = bucket

    def on_punctuation(self, punctuation: Punctuation, input_index: int) -> None:
        slot = self._left_slot if input_index == 0 else self._right_slot
        bound = punctuation.bound_for(slot)
        if bound is None:
            return
        if bound > self._low_water[input_index]:
            self._low_water[input_index] = bound
            self._purge(1 - input_index)
            self._release_sorted()
            self._emit_output_punctuation()

    def _emit_output_punctuation(self) -> None:
        self._bounds_stale = False
        if not self._out_transforms:
            return
        bounds = {}
        if self.sorted_output:
            # The reorder heap can hold back pairs whose *other* window
            # column is arbitrarily old, so only the sort column's
            # promise survives: everything at or below the release
            # bound has already been emitted.
            transforms = [(self._sort_side, self._sort_slot)]
        else:
            transforms = self._out_transforms
        for side, out_slot in transforms:
            # A buffered left tuple survives purging only if
            # l >= lw1 + low, and future arrivals satisfy l >= lw0
            # (and symmetrically for the right side).
            bound = self._output_bound(side)
            if not math.isinf(bound):
                bounds[out_slot] = bound
        # Only emit tokens that actually advance a bound.
        improved = {
            slot: value for slot, value in bounds.items()
            if value > self._last_bounds.get(slot, -math.inf)
        }
        if improved:
            self._last_bounds.update(improved)
            self.emit_punctuation(Punctuation(improved))

    # -- checkpoint/restore (DESIGN section 11) ----------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["buffers"] = [list(self._buffers[0]), list(self._buffers[1])]
        state["low_water"] = list(self._low_water)
        state["done"] = list(self._done)
        state["last_bounds"] = dict(self._last_bounds)
        state["reorder"] = list(self._reorder)
        state["reorder_seq"] = self._reorder_seq
        state["reorder_peak"] = self.reorder_peak
        state["pairs_emitted"] = self.pairs_emitted
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._buffers = [list(state["buffers"][0]), list(state["buffers"][1])]
        # Keys and buckets are derived state: not on the wire, rebuilt here.
        self._reindex(0)
        self._reindex(1)
        self._low_water = list(state["low_water"])
        self._bounds_stale = True
        self._done = list(state["done"])
        self._last_bounds = dict(state["last_bounds"])
        # Heap invariant survives the round trip: entries come back in
        # the same list order they were snapshotted in.
        self._reorder = list(state["reorder"])
        self._reorder_seq = state["reorder_seq"]
        self.reorder_peak = state["reorder_peak"]
        self.pairs_emitted = state["pairs_emitted"]

    def on_flush(self, input_index: int) -> None:
        self._done[input_index] = True
        self._low_water[input_index] = math.inf
        self._bounds_stale = True
        self._purge(1 - input_index)
        if all(self._done) and not self.flushed:
            self.flushed = True
            self._buffers = [[], []]
            self._keys = [[], []]
            self._index = [{}, {}]
            self._release_sorted(final=True)
            self.emit_flush()
