"""JoinNode's keyed buckets against the nested-loop join they replaced.

``ReferenceJoin`` is the window join exactly as it stood before its
window was indexed on the plan's equality conjuncts (every arrival
bisected the other side's whole buffer and ran the predicate on every
row in the window; frozen here as the oracle).  Hypothesis draws
interleavings of tuples, punctuation and per-side flushes -- 0, 1 and 3
key columns; key values mixing ``1``/``1.0``/``True``, ``bytes``,
``-0.0``/``0.0`` and NaN, with heavy duplicates on one key; equality,
asymmetric and symmetric band windows; a banded input; ``DEFINE
join_output sorted``; a snapshot -> encode -> restore round trip at a
random point -- and feeds them to the reference one tuple at a time and
to ``JoinNode`` in blocks of 1, 7 and 256.  After every block the
emitted items, ``buffered``, ``pairs_emitted``, ``stats`` and heartbeat
requests must be equal, the encoded snapshots byte-identical, and the
index must hold exactly the buffered rows: the window bounds the
buckets because nothing outlives its row.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heartbeat import FLUSH, Punctuation
from repro.core.query_node import QueryNode
from repro.gsql.ast_nodes import Column
from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.gsql.ordering import Ordering
from repro.gsql.parser import parse_query
from repro.gsql.planner import HftaPlan, plan_query
from repro.gsql.schema import Attribute, StreamSchema, builtin_registry
from repro.gsql.semantic import AnalyzedQuery, analyze
from repro.gsql.types import FLOAT, STRING, UINT
from repro.operators import join as join_module
from repro.operators.join import JoinNode
from repro.recovery.wire import decode_snapshot, encode_snapshot
from tests.reference.evaluator import ReferenceEvaluator
from tests.test_merge_equivalence import RecordingManager, feed

#: low enough that a one-sided burst crosses it
SUSPECT_DEPTH = 12
#: block sizes of the three nodes held to the reference
ARMS = (1, 7, 256)


class ReferenceJoin(QueryNode):
    """The nested-loop window join, verbatim from f96f3e2 but for its
    expressions, which the reference evaluator walks: the oracle."""

    def __init__(self, plan: HftaPlan, analyzed: AnalyzedQuery,
                 compiler: ReferenceEvaluator) -> None:
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
        # order, so probes and purges bisect instead of scanning.
        self._values: List[List] = [[], []]
        self._low_water = [-math.inf, -math.inf]
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
        slot = self._left_slot if side == 0 else self._right_slot
        other_slot = self._right_slot if side == 0 else self._left_slot
        value = row[slot]
        advance = value - self._bands[side]
        if advance > self._low_water[side]:
            self._low_water[side] = advance
            self._purge(other)
        # Probe the other side's buffer for the window of joinable values.
        # left - right in [low, high]:
        #   probing right with left value v: r in [v - high, v - low]
        #   probing left with right value v: l in [v + low, v + high]
        if side == 0:
            lo_value, hi_value = value - self.high, value - self.low
        else:
            lo_value, hi_value = value + self.low, value + self.high
        for candidate in self._window_candidates(other, other_slot,
                                                 lo_value, hi_value):
            if side == 0:
                self._try_emit(row, candidate)
            else:
                self._try_emit(candidate, row)
        if not self._done[other]:
            self._buffers[side].append(row)
            if self._bands[side] == 0:
                self._values[side].append(value)
            if (len(self._buffers[side]) > SUSPECT_DEPTH
                    and not self._buffers[other]):
                self.request_heartbeat()
        self._release_sorted()
        self._emit_output_punctuation()

    def _window_candidates(self, side: int, slot: int, lo_value, hi_value):
        """Buffered tuples of ``side`` with ordered value in [lo, hi].

        A monotone input keeps its buffer sorted, so the window is found
        by bisection; banded inputs fall back to a linear scan.
        """
        buffer = self._buffers[side]
        if self._bands[side] == 0:
            values = self._values[side]
            start = bisect_left(values, lo_value)
            stop = bisect_right(values, hi_value)
            return buffer[start:stop]
        return [row for row in buffer if lo_value <= row[slot] <= hi_value]

    def _try_emit(self, left: tuple, right: tuple) -> None:
        if not self._predicate(left, right):
            return
        out = self._project(left, right)
        if out is None:
            self.stats.discarded += 1
            return
        self.pairs_emitted += 1
        if self.sorted_output:
            import heapq
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
        import heapq
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
                self._buffers[side] = buffer[cut:]
                self._values[side] = values[cut:]
            return
        kept = [row for row in buffer if row[slot] >= threshold]
        if len(kept) != len(buffer):
            self._buffers[side] = kept

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
        self._low_water = list(state["low_water"])
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
        self._purge(1 - input_index)
        self._buffers[input_index] = (
            self._buffers[input_index] if not all(self._done) else []
        )
        if all(self._done) and not self.flushed:
            self.flushed = True
            self._buffers = [[], []]
            self._values = [[], []]
            self._release_sorted(final=True)
            self.emit_flush()


@pytest.fixture(autouse=True, scope="module")
def low_suspect_depth():
    saved = join_module.BLOCK_SUSPECT_DEPTH
    join_module.BLOCK_SUSPECT_DEPTH = SUSPECT_DEPTH
    yield
    join_module.BLOCK_SUSPECT_DEPTH = saved


# -- plans ---------------------------------------------------------------

WINDOWS = {
    "eq": "A.time = B.time",
    "asym": "A.time >= B.time and A.time <= B.time + 1",
    "sym": "A.time >= B.time - 2 and A.time <= B.time + 2",
}
KEYS = {
    0: "",
    1: " and A.k1 = B.k1",
    # written right-to-left and out of slot order: pairs are re-oriented
    3: " and B.k3 = A.k3 and A.k1 = B.k1 and B.k2 = A.k2",
}

CONFIGS = [
    # (key columns, window, (band of A, band of B), sorted output)
    *[(keys, window, (0, 0), False)
      for keys in (0, 1, 3) for window in ("eq", "asym", "sym")],
    (1, "sym", (0, 3), False),
    (0, "asym", (2, 0), False),
    (3, "eq", (2, 3), False),
    (1, "sym", (0, 0), True),
    (0, "asym", (0, 0), True),
    (3, "sym", (2, 0), True),
]


def join_plan(keys, window, bands, sorted_output):
    """A join plan over two streams ``(time, k1, k2, k3, tag)``."""
    streams = {}
    for name, band in zip(("sa", "sb"), bands):
        ordering = Ordering.banded(band) if band else Ordering.increasing()
        streams[name] = StreamSchema(name, [
            Attribute("time", UINT, ordering), Attribute("k1", UINT),
            Attribute("k2", FLOAT), Attribute("k3", STRING),
            Attribute("tag", UINT)])
    defines = ("DEFINE { query_name j; join_output sorted; }"
               if sorted_output else "DEFINE query_name j;")
    functions = builtin_functions()
    analyzed = analyze(
        parse_query(f"{defines} Select A.time, A.tag, B.tag From sa A, sb B "
                    f"Where {WINDOWS[window]}{KEYS[keys]}"),
        builtin_registry(), functions, stream_resolver=streams.get)
    plan = plan_query(analyzed, functions).hfta
    assert len(plan.join_keys) == keys
    assert plan.join_sorted_output == sorted_output

    def make(cls):
        evaluator = (ReferenceEvaluator if cls is ReferenceJoin
                     else ExprCompiler)(analyzed, functions)
        node = cls(plan, analyzed, evaluator)
        node.manager = RecordingManager()
        return node, node.subscribe()
    return make


# -- schedules -----------------------------------------------------------

NAN = float("nan")
#: heavy duplicates on 7; 1/1.0/True and 0.0/-0.0 are one key each;
#: neither NaN equals anything, itself included
K1 = (7, 7, 7, 7, 7, 1, 1.0, True, 2, b"a", 0.0, -0.0, NAN, float("nan"))
K2 = (0.0, 0.0, -0.0, 1.5, NAN)
K3 = (b"x", b"x", b"x", b"y")


@st.composite
def timeline(draw, side, band):
    """One input's items in order: rows (nondecreasing up to ``band``),
    punctuation it keeps, a final flush."""
    # Some inputs are short: they flush early and stop holding rows.
    length = draw(st.sampled_from((0, 3, 25, 60)))
    steps = draw(st.lists(st.tuples(
        st.sampled_from((0, 0, 0, 1, 1, 3)),   # how far time advances
        st.integers(0, band),                  # how deep in the band
        st.sampled_from(K1), st.sampled_from(K2), st.sampled_from(K3),
        st.integers(0, 11),                    # 0: punctuation first
    ), min_size=length, max_size=length + 10))
    values, high = [], 0
    for advance, inside, *_ in steps:
        high += advance
        values.append(high - inside)
    items = []
    for position, (_, _, k1, k2, k3, punctuate) in enumerate(steps):
        if punctuate == 0:
            # A promise every later row of this input keeps.
            items.append(Punctuation({0: min(values[position:])}))
        items.append((values[position], k1, k2, k3, side * 100000 + position))
    closing = draw(st.none() | st.integers(0, 4))
    if closing is not None:
        items.append(Punctuation({0: high + closing}))
    items.append(FLUSH)
    return items


@st.composite
def schedules(draw, bands):
    """(bursts, restore point): the two timelines cut into
    ``(input, [items])`` bursts, and the burst before which every
    ``JoinNode`` is replaced by a restored copy of itself."""
    timelines = [draw(timeline(side, band)) for side, band in enumerate(bands)]
    cursors = [0, 0]
    bursts = []
    # Mostly short bursts, sometimes one long enough to stall deep.
    cuts = draw(st.lists(st.tuples(
        st.integers(0, 1), st.sampled_from((1, 1, 2, 5, 9, 30))), max_size=60))
    for side, size in cuts + [(0, 10 ** 6), (1, 10 ** 6)]:
        chunk = timelines[side][cursors[side]:cursors[side] + size]
        cursors[side] += len(chunk)
        if chunk:
            bursts.append((side, chunk))
    return bursts, draw(st.integers(0, len(bursts)))


def observe(node, tap):
    stats = node.stats
    requested = node.manager.requested
    node.manager.requested = False
    return (tap.drain(), node.buffered, node.pairs_emitted, node.reorder_peak,
            (stats.tuples_in, stats.tuples_out, stats.punctuations_in,
             stats.punctuations_out, stats.discarded),
            node.flushed, requested)


def check_index(node):
    """The bounded-state argument as an assertion: per side, the buckets
    hold the buffered rows, each once, in arrival order, each under the
    key it was buffered with, and no bucket outlives its last row."""
    for side in (0, 1):
        buffer = node._buffers[side]
        position = {id(row): at for at, row in enumerate(buffer)}
        keys = node._keys[side]
        assert len(keys) == len(buffer)
        slot = node._left_slot if side == 0 else node._right_slot
        held = 0
        for key, (values, rows) in node._index[side].items():
            assert rows, f"empty bucket {key!r} survives"
            assert values == [row[slot] for row in rows]
            arrival = [position[id(row)] for row in rows]
            assert arrival == sorted(arrival)
            assert all(keys[at] is key or keys[at] == key for at in arrival)
            held += len(rows)
        assert held == len(buffer) == len(position)


def run(make, bursts, restore_at, seen):
    reference, reference_tap = make(ReferenceJoin)
    arms = [make(JoinNode) for _ in ARMS]

    def round_trip():
        wire = encode_snapshot(reference.snapshot_state())
        for position, (node, _) in enumerate(arms):
            assert encode_snapshot(node.snapshot_state()) == wire
            restored, tap = make(JoinNode)
            restored.restore_state(decode_snapshot(wire))
            assert encode_snapshot(restored.snapshot_state()) == wire
            check_index(restored)
            arms[position] = (restored, tap)
        seen["restored_rows"] += reference.buffered

    for step, (side, items) in enumerate(bursts):
        if step == restore_at:
            round_trip()
        for item in items:
            reference.dispatch(item, side)
        expected = observe(reference, reference_tap)
        for (node, tap), block_size in zip(arms, ARMS):
            feed(node, side, items, block_size)
            assert observe(node, tap) == expected, (
                f"block={block_size} step={step} input={side} items={items}")
            check_index(node)
        seen["heartbeats"] += expected[-1]
        seen["held"] += bool(reference.buffered)
    if restore_at == len(bursts):
        round_trip()
    # Both inputs have flushed: nothing is held, under any key.
    assert reference.flushed and reference.buffered == 0
    for node, _ in arms:
        assert node._index == [{}, {}]
        assert (encode_snapshot(node.snapshot_state())
                == encode_snapshot(reference.snapshot_state()))
    seen["pairs"] += reference.pairs_emitted
    seen["reordered"] += reference.reorder_peak


@pytest.mark.parametrize(
    "config", CONFIGS,
    ids=lambda c: f"keys{c[0]}-{c[1]}-bands{c[2][0]}{c[2][1]}"
                  + ("-sorted" if c[3] else ""))
def test_buckets_equal_nested_loop(config):
    keys, window, bands, sorted_output = config
    make = join_plan(keys, window, bands, sorted_output)
    seen = Counter()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(schedules(bands))
    def check(schedule):
        run(make, *schedule, seen)

    check()
    # Only an oracle if the corpus reaches pairs, held state across a
    # restore, a deep one-sided stall and (when sorted) the reorder heap.
    assert seen["pairs"] and seen["held"] and seen["restored_rows"], seen
    assert seen["heartbeats"], seen
    assert bool(seen["reordered"]) == sorted_output, seen


class TestKeySemantics:
    """What the index may and may not assume about ``=``, spelled out."""

    def pairs(self, left_keys, right_keys, keys=1):
        make = join_plan(keys, "eq", (0, 0), False)
        node, tap = make(JoinNode)
        for tag, key in enumerate(left_keys):
            node.dispatch((5, key, 0.0, b"x", tag), 0)
        for tag, key in enumerate(right_keys):
            node.dispatch((5, key, 0.0, b"x", tag), 1)
        return [row[1:] for row in tap.drain() if type(row) is tuple], node

    def test_equal_values_of_different_types_share_a_bucket(self):
        pairs, node = self.pairs([1, 1.0, True], [True, 1, 1.0])
        assert pairs == [(left, right) for right in range(3)
                         for left in range(3)]
        assert len(node._index[0]) == 1

    def test_signed_zeros_are_one_key(self):
        pairs, _ = self.pairs([0.0, -0.0], [-0.0])
        assert pairs == [(0, 0), (1, 0)]

    def test_nan_matches_nothing_not_even_itself(self):
        pairs, node = self.pairs([NAN, NAN, 7], [NAN, 7])
        assert pairs == [(2, 1)]
        # The same NaN object is found by identity -- and then rejected
        # by the predicate, which is why the predicate still runs.
        assert len(node._window_candidates(0, (NAN,), 5, 5)) == 2

    def test_bytes_keys(self):
        pairs, _ = self.pairs([b"a", b"ab", b"a"], [b"a"])
        assert pairs == [(0, 0), (2, 0)]

    def test_candidates_keep_arrival_order_within_a_key(self):
        pairs, _ = self.pairs([7, 2, 7, 2, 7], [7])
        assert pairs == [(0, 0), (2, 0), (4, 0)]

    def test_a_keyless_join_is_the_one_bucket_case(self):
        pairs, node = self.pairs([1, 2], [3], keys=0)
        assert pairs == [(0, 0), (1, 0)]
        assert list(node._index[0]) == [()] and list(node._index[1]) == [()]

    def test_emptied_buckets_are_deleted(self):
        make = join_plan(1, "asym", (0, 0), False)
        node, _ = make(JoinNode)
        for time in range(50):
            node.dispatch((time, time, 0.0, b"x", time), 0)   # 50 keys
        assert len(node._index[0]) == 50
        node.dispatch(Punctuation({0: 45}), 1)
        # left rows below 45 + low can no longer join: 45 buckets go
        assert sorted(node._index[0]) == [(key,) for key in range(45, 50)]
        assert node.buffered == 5


class TestLateArrivals:
    """A row whose ordered value is below its input's low-water mark is
    late: counted in ``discarded``, it neither probes nor is buffered,
    so the buckets stay sorted for the probes and purges after it."""

    A_ROWS = [(5, 7, 0.0, b"x", 1), (3, 7, 0.0, b"x", 2), (6, 7, 0.0, b"x", 3)]

    @pytest.mark.parametrize("block_size", ARMS)
    def test_a_late_row_does_not_hide_in_order_pairs(self, block_size):
        node, tap = join_plan(1, "eq", (0, 0), False)(JoinNode)
        feed(node, 0, self.A_ROWS, block_size)
        node.dispatch((5, 7, 0.0, b"x", 100), 1)
        assert [row for row in tap.drain() if type(row) is tuple] == [
            (5, 1, 100)]
        assert node.stats.discarded == 1
        assert [row[4] for row in node._buffers[0]] == [1, 3]
        assert node.snapshot_state()["values"][0] == [5, 6]
        check_index(node)

    def test_a_late_row_does_not_probe(self):
        # |A - B| <= 2: the A row at 5 stays buffered past B's mark 6,
        # so only the late B row's skipped probe keeps (5, 1, 101) out
        node, tap = join_plan(1, "sym", (0, 0), False)(JoinNode)
        feed(node, 0, self.A_ROWS[:1], 1)
        feed(node, 1, [(6, 7, 0.0, b"x", 100), (5, 7, 0.0, b"x", 101)], 2)
        assert [row for row in tap.drain() if type(row) is tuple] == [
            (5, 1, 100)]
        assert node.stats.discarded == 1
        assert [row[4] for row in node._buffers[1]] == [100]
