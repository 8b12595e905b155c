"""The HFTA aggregation operator with ordered group flushing.

"The group key must contain at least one ordered attribute.  When a
tuple arrives for aggregation whose ordered attribute is larger than
that in any current group, we can deduce that all of the current groups
are closed and will receive no further updates in the future.  All of
the closed groups are flushed to the output."  (Section 2.1)

Banded-increasing keys keep a slack of the band width before closing.
The node either aggregates raw tuples (full mode) or combines the
partial aggregates an LFTA emits (superaggregate mode), completing the
sub/super-aggregate split of Section 3.

Both loops are generated per plan (DESIGN section 18): the fold of a
block into the groups and the close of a window, whose final values,
HAVING and select list are inline -- no call per group.  Group state
lives in columns, one list per partial slot (AVG's ``(sum, count)``
takes two), and the group dict maps a key to its row: an open group is
a key and a row of plain values, nothing the collector re-scans.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.heartbeat import Punctuation
from repro.core.query_node import QueryNode
from repro.gsql.codegen import ExprCompiler
from repro.gsql.planner import HftaPlan
from repro.gsql.semantic import AnalyzedQuery, KeyRef
from repro.operators.aggregates import column_values, partial_layout, state_list
from repro.operators.base import key_bound_fn


class AggregationNode(QueryNode):
    """Group-by/aggregation over one input stream."""

    def __init__(self, plan: HftaPlan, analyzed: AnalyzedQuery,
                 compiler: ExprCompiler, seed: int = 0) -> None:
        super().__init__(plan.name, plan.output_schema)
        self.plan = plan
        slot_maps = tuple(plan.slot_maps)
        self.from_partials = plan.final_from_partials
        if plan.sample_rate is not None and not self.from_partials:
            # Seeded registry stream, not hash(name): str hash() is
            # process-randomized and breaks deterministic replay.
            from repro.determinism import rng_for
            self._sample_rate = plan.sample_rate
            self._sample_rng = rng_for(seed, "hfta.sample", plan.name)
        else:
            self._sample_rate = None
            self._sample_rng = None
        # The one group-table loop (DESIGN section 18), generated per
        # plan: sample draw, predicate, key and fold of raw tuples
        # behind a key-run cache, or the combine of LFTA partials.
        self._aggregate = compiler.hfta_aggregate_fn(plan)
        self._close = compiler.hfta_close_fn(plan)
        self._compiler = compiler
        self._window_index = plan.window_key_index
        self._window_band = plan.window_key_band
        self._layout = partial_layout(plan.aggregates)
        #: key -> row of the open group; rows are 0 .. len - 1 in
        #: insertion order (``_compact`` keeps them so)
        self._groups: Dict[tuple, int] = {}
        #: one list per partial slot, indexed by row
        self._columns: Tuple[list, ...] = tuple(
            [] for _ in range(sum(self._layout)))
        self._high_water = None
        if self.from_partials:
            identity = (
                (0, plan.window_key_index, lambda b: b)
                if plan.window_key_index >= 0 else None
            )
            self._key_bound = identity
        else:
            self._key_bound = key_bound_fn(
                plan.group_exprs, plan.window_key_index, analyzed, slot_maps,
                functions=compiler.functions,
            )
        # Which output slot carries the window key, for outgoing punctuation.
        self._window_out_slot = -1
        for slot, expr in enumerate(plan.post_select_exprs):
            if isinstance(expr, KeyRef) and expr.index == plan.window_key_index:
                self._window_out_slot = slot
                break
        self.groups_emitted = 0

    def enable_partial_output(self) -> None:
        """Switch the node into superaggregate-producer mode.

        Closed groups are emitted as ``key + partials(state)`` rows --
        the same wire shape an LFTA's partial aggregates have -- with
        HAVING and the post-select deferred to whoever combines the
        partials (the shard-merge parent, see ``repro.shard``).  The
        outgoing punctuation slot moves to the window key's position
        *inside the key*, which is where a ``final_from_partials``
        combiner expects its bound.
        """
        self._close = self._compiler.hfta_close_fn(self.plan, partials=True)
        if self._window_index >= 0:
            self._window_out_slot = self._window_index

    @property
    def open_groups(self) -> int:
        return len(self._groups)

    def on_tuple(self, row: tuple, input_index: int) -> None:
        self.on_tuple_batch((row,), input_index)

    def on_tuple_batch(self, rows, input_index: int) -> None:
        """One block through the plan's generated loop: per row the
        sample gate, the predicate, the group key and the fold (raw
        tuples), or the predicate and the combine of a partial
        aggregate whose key is a plain slice.  Groups are updated in
        row order, so a window flush fires at the same row however the
        stream was cut, and an error at row *k* leaves the groups and
        ``discarded`` as the *k* rows before it made them."""
        self._aggregate(self, rows)

    def _flush_below(self, low_water) -> None:
        index = self._window_index
        closed = [key for key in self._groups if key[index] < low_water]
        self._sort_closing(closed)
        self._close(self, closed)
        if self._window_out_slot >= 0:
            self.emit_punctuation(Punctuation({self._window_out_slot: low_water}))

    def _compact(self) -> None:
        """After a close (``hfta_close_fn``'s ``finally``): drop the
        closed groups' rows, renumbering the open ones in order.  The
        lists and the dict change in place -- a fold loop that flushed
        mid-block holds them -- and rows stay in insertion order, so a
        new group's row is always ``len(groups)``."""
        groups = self._groups
        columns = self._columns
        if columns and len(columns[0]) == len(groups):
            return  # nothing closed
        rows = list(groups.values())
        for column in columns:
            column[:] = [column[row] for row in rows]
        for row, key in enumerate(list(groups)):
            groups[key] = row

    def _sort_closing(self, keys: list) -> None:
        """Full-key order, window first: the emitted sequence becomes the
        global (window, key) sort however arrivals were batched, so a
        sharded run's combined output matches the single-process run
        byte-for-byte (DESIGN section 15).  Dict insertion order --
        the old tie-break -- differs per shard by construction.
        """
        index = self._window_index
        if index == 0:
            keys.sort()  # the window key leads: tuple order is that order
        else:
            keys.sort(key=lambda key: (key[index], key))

    def on_punctuation(self, punctuation: Punctuation, input_index: int) -> None:
        if self._key_bound is None or self._window_index < 0:
            return
        _source, slot, bound_fn = self._key_bound
        bound = punctuation.bound_for(slot)
        if bound is None:
            return
        low_water = bound_fn(bound)
        if self._high_water is None or low_water > self._high_water - self._window_band:
            self._flush_below(low_water)

    # -- checkpoint/restore (DESIGN section 11) ----------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["groups"] = self._snapshot_groups()
        state["high_water"] = self._high_water
        state["groups_emitted"] = self.groups_emitted
        state["sample_rng"] = (self._sample_rng.getstate()
                               if self._sample_rng is not None else None)
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._restore_groups(state["groups"])
        self._high_water = state["high_water"]
        self.groups_emitted = state["groups_emitted"]
        if self._sample_rng is not None and state["sample_rng"] is not None:
            self._sample_rng.setstate(state["sample_rng"])

    def _snapshot_groups(self) -> dict:
        """The open groups as ``{key: state list}`` in insertion order,
        the shape of the generic aggregate loops' states."""
        columns = self._columns
        layout = self._layout
        return {key: state_list([column[row] for column in columns], layout)
                for key, row in self._groups.items()}

    def _restore_groups(self, groups: dict) -> None:
        self._groups = dict(zip(groups, range(len(groups))))
        rows = [column_values(state, self._layout)
                for state in groups.values()]
        for slot, column in enumerate(self._columns):
            column[:] = [row[slot] for row in rows]

    def flush(self) -> None:
        """Emit every remaining group (explicit flush / end of stream)."""
        keys = list(self._groups)
        if self._window_index >= 0:
            self._sort_closing(keys)
        self._close(self, keys)
