"""The two-stream window join (paper Sections 2.1-2.2).

"The join predicate must contain a constraint on an ordered attribute
from each table which can be used to define a join window.  For
example, B.ts = C.ts, or B.ts >= C.ts - 1 and B.ts <= C.ts + 1."

The implementation is a symmetric hash band join: each side buffers
its tuples, probes the other side's buffer on arrival, and purges using
low-water marks advanced by tuples and by punctuation.  The window
``left.ts - right.ts in [low, high]`` bounds the state exactly.

Beside its arrival-ordered buffer each side keeps the same rows in
buckets keyed on the plan's equality conjuncts (``HftaPlan.join_keys``),
so an arrival bisects the one bucket that can match instead of the whole
window.  The index changes which candidates are *examined*, never which
pairs are emitted: every candidate still passes through the full
compiled predicate, and ``a == b`` implies ``hash(a) == hash(b)`` for
every GSQL value type, so only rows an equality conjunct would have
rejected are skipped.  A join without equality conjuncts has the single
key ``()`` -- one bucket holding the whole window.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import islice
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
        self._predicate = compiler.predicate_fn(plan.predicates, slot_maps, arity=2)
        self._project = compiler.tuple_fn(plan.select_exprs, slot_maps, arity=2)
        self.low = plan.join_window.low
        self.high = plan.join_window.high
        (_, self._left_slot), (_, self._right_slot) = plan.join_slots
        self._buffers: List[List[tuple]] = [[], []]
        # Parallel ordered-value arrays; monotone inputs append in sorted
        # order, so purges bisect instead of scanning.
        self._values: List[List] = [[], []]
        # Per side, a row's values of the plan's key columns.
        self._key_fns = [
            compiler.tuple_fn([pair[side] for pair in plan.join_keys], slot_maps)
            for side in (0, 1)
        ]
        # The same rows per side, bucketed: key -> (ordered values, rows),
        # each bucket in arrival order.  Derived from the buffers (never
        # snapshotted), purged with them, so it holds the window and no
        # more; an emptied bucket is deleted.
        self._index: List[Dict[tuple, Tuple[list, list]]] = [{}, {}]
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
        side = input_index
        other = 1 - side
        value = row[self._left_slot if side == 0 else self._right_slot]
        advance = value - self._bands[side]
        if advance > self._low_water[side]:
            self._low_water[side] = advance
            self._bounds_stale = True
            self._purge(other)
        # Probe the other side's buffer for the window of joinable values.
        # left - right in [low, high]:
        #   probing right with left value v: r in [v - high, v - low]
        #   probing left with right value v: l in [v + low, v + high]
        if side == 0:
            lo_value, hi_value = value - self.high, value - self.low
        else:
            lo_value, hi_value = value + self.low, value + self.high
        key = self._key_fns[side](row)
        for candidate in self._window_candidates(other, key,
                                                 lo_value, hi_value):
            if side == 0:
                self._try_emit(row, candidate)
            else:
                self._try_emit(candidate, row)
        if not self._done[other]:
            self._buffers[side].append(row)
            if self._bands[side] == 0:
                self._values[side].append(value)
            self._index_row(side, key, value, row)
            if (len(self._buffers[side]) > BLOCK_SUSPECT_DEPTH
                    and not self._buffers[other]):
                self.request_heartbeat()
        if self._reorder:
            self._release_sorted()
        if self._bounds_stale:
            self._emit_output_punctuation()

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

    def _index_row(self, side: int, key: tuple, value, row: tuple) -> None:
        bucket = self._index[side].get(key)
        if bucket is None:
            self._index[side][key] = bucket = ([], [])
        bucket[0].append(value)
        bucket[1].append(row)

    def _reindex(self, side: int) -> None:
        """Rebuild ``side``'s buckets from its buffer."""
        self._index[side] = {}
        slot = self._left_slot if side == 0 else self._right_slot
        key_of = self._key_fns[side]
        for row in self._buffers[side]:
            self._index_row(side, key_of(row), row[slot], row)

    def _try_emit(self, left: tuple, right: tuple) -> None:
        if not self._predicate(left, right):
            return
        out = self._project(left, right)
        if out is None:
            self.stats.discarded += 1
            return
        self.pairs_emitted += 1
        if self.sorted_output:
            heapq.heappush(
                self._reorder,
                (out[self._sort_slot], self._reorder_seq, out),
            )
            self._reorder_seq += 1
            if len(self._reorder) > self.reorder_peak:
                self.reorder_peak = len(self._reorder)
        else:
            self.emit(out)

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
        while heap and heap[0][0] <= bound:
            _value, _seq, out = heapq.heappop(heap)
            self.emit(out)

    def _output_bound(self, side: int) -> float:
        """Lower bound on future output values of ``side``'s column."""
        lw0, lw1 = self._low_water
        if side == 0:
            return min(lw0, lw1 + self.low)
        return min(lw1, lw0 - self.high)

    def _purge(self, side: int) -> None:
        """Drop buffered tuples of ``side`` that can no longer join."""
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
        buffer = self._buffers[side]
        if self._bands[side] == 0:
            values = self._values[side]
            cut = bisect_left(values, threshold)
            if cut:
                # The cut prefix is, per key, a prefix of that bucket.
                index = self._index[side]
                cut_keys = Counter(map(self._key_fns[side],
                                       islice(buffer, cut)))
                for key, gone in cut_keys.items():
                    bucket_values, bucket_rows = index[key]
                    if gone == len(bucket_rows):
                        del index[key]
                    else:
                        del bucket_values[:gone]
                        del bucket_rows[:gone]
                self._buffers[side] = buffer[cut:]
                self._values[side] = values[cut:]
            return
        kept = [row for row in buffer if row[slot] >= threshold]
        if len(kept) != len(buffer):
            self._buffers[side] = kept
            self._reindex(side)

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
        state["values"] = [list(self._values[0]), list(self._values[1])]
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
        self._values = [list(state["values"][0]), list(state["values"][1])]
        # The buckets are derived state: not on the wire, rebuilt here.
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
            self._values = [[], []]
            self._index = [{}, {}]
            self._release_sorted(final=True)
            self.emit_flush()
