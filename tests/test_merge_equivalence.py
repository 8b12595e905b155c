"""MergeNode's run splice against the tuple-at-a-time algorithm it replaced.

``ReferenceMerge`` is the per-row merge exactly as it stood before
blocks went through the HFTA (``on_tuple`` / ``_min_of`` / ``_drain``,
frozen here as the oracle).  Random 2- and 3-way schedules -- tie-heavy
integer timestamps with duplicates inside a run, runs interleaved with
punctuation and per-input flush, a bounded buffer, a banded input, a
merge column in differing slots -- are fed to the reference one tuple
at a time and to ``MergeNode`` in blocks of 1, 7 and 256; after every
block the emitted items, ``dropped``, ``stats``, ``snapshot_state()``
and heartbeat requests must be equal.
"""

import hashlib
import math
import os
import random
import subprocess
import sys

from repro.core.heartbeat import FLUSH, Punctuation
from repro.core.query_node import QueryNode
from repro.gsql.functions import builtin_functions
from repro.gsql.ordering import Ordering
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import Attribute, StreamSchema, builtin_registry
from repro.gsql.semantic import analyze
from repro.gsql.types import UINT
from repro.operators import merge as merge_module
from repro.operators.merge import MergeNode

SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "src")
#: low enough that the corpus's longer stalls cross it
SUSPECT_DEPTH = 24
BLOCK_SIZES = (1, 7, 256)


class ReferenceMerge(QueryNode):
    """The tuple-at-a-time merge, verbatim: the oracle."""

    def __init__(self, plan, buffer_capacity=None):
        super().__init__(plan.name, plan.output_schema)
        self._slots = [slot for (_, slot) in plan.merge_slots]
        self._bands = [
            plan.input_schemas[position].attributes[slot].ordering.effective_band
            for position, (_, slot) in enumerate(plan.merge_slots)]
        count = len(plan.inputs)
        self._buffers = [[] for _ in range(count)]
        self._low_water = [-math.inf] * count
        self._done = [False] * count
        self.buffer_capacity = buffer_capacity
        self.dropped = 0
        self._out_slot = self._slots[0]

    def on_tuple(self, row, input_index):
        buffer = self._buffers[input_index]
        if self.buffer_capacity is not None and len(buffer) >= self.buffer_capacity:
            self.dropped += 1
            return
        buffer.append(row)
        value = row[self._slots[input_index]]
        advance = value - self._bands[input_index]
        if advance > self._low_water[input_index]:
            self._low_water[input_index] = advance
        if (len(buffer) > SUSPECT_DEPTH
                and any(not b and not d for b, d in zip(self._buffers, self._done))):
            self.request_heartbeat()
        self._drain()

    def on_punctuation(self, punctuation, input_index):
        bound = punctuation.bound_for(self._slots[input_index])
        if bound is not None and bound > self._low_water[input_index]:
            self._low_water[input_index] = bound
            self._drain()
            self._emit_floor_punctuation()

    def _min_of(self, input_index):
        buffer = self._buffers[input_index]
        slot = self._slots[input_index]
        if self._bands[input_index] == 0:
            return buffer[0][slot], 0
        best_pos = 0
        best = buffer[0][slot]
        for position in range(1, len(buffer)):
            value = buffer[position][slot]
            if value < best:
                best, best_pos = value, position
        return best, best_pos

    def _drain(self):
        while True:
            candidate_value = None
            candidate_input = -1
            candidate_pos = -1
            floor = math.inf
            for input_index, buffer in enumerate(self._buffers):
                if buffer:
                    value, position = self._min_of(input_index)
                    if candidate_value is None or value < candidate_value:
                        candidate_value = value
                        candidate_input = input_index
                        candidate_pos = position
                elif not self._done[input_index]:
                    floor = min(floor, self._low_water[input_index])
            if candidate_value is None or candidate_value > floor:
                return
            row = self._buffers[candidate_input].pop(candidate_pos)
            self.emit(row)

    def _emit_floor_punctuation(self):
        floor = math.inf
        for input_index, buffer in enumerate(self._buffers):
            if buffer:
                value, _ = self._min_of(input_index)
                floor = min(floor, value)
            elif not self._done[input_index]:
                floor = min(floor, self._low_water[input_index])
        if not math.isinf(floor):
            self.emit_punctuation(Punctuation({self._out_slot: floor}))

    def on_flush(self, input_index):
        self._done[input_index] = True
        self._low_water[input_index] = math.inf
        self._drain()
        if all(self._done) and not self.flushed:
            self.flushed = True
            self.emit_flush()

    def snapshot_state(self):
        state = super().snapshot_state()
        state["buffers"] = [list(buffer) for buffer in self._buffers]
        state["low_water"] = list(self._low_water)
        state["done"] = list(self._done)
        state["dropped"] = self.dropped
        return state

    def flush(self):
        for done in range(len(self._done)):
            self._done[done] = True
            self._low_water[done] = math.inf
        self._drain()


class RecordingManager:
    """Stands in for the RTS: remembers heartbeat requests."""

    tracer = None

    def __init__(self):
        self.requested = False

    def heartbeat_requested(self, node):
        self.requested = True


# -- plans ---------------------------------------------------------------

def merge_plan(bands, swap_last=False):
    """A merge plan over ``len(bands)`` streams ``(time, tag)``.

    ``bands[i] > 0`` makes input ``i`` banded-increasing; ``swap_last``
    gives the last input the schema ``(tag, time)``, so its merge
    column sits in another slot.
    """
    streams = {}
    for index, band in enumerate(bands):
        ordering = Ordering.banded(band) if band else Ordering.increasing()
        attributes = [Attribute("time", UINT, ordering), Attribute("tag", UINT)]
        if swap_last and index == len(bands) - 1:
            attributes.reverse()
        streams[f"s{index}"] = StreamSchema(f"s{index}", attributes)
    columns = " : ".join(f"{name}.time" for name in streams)
    functions = builtin_functions()
    analyzed = analyze(
        parse_query(f"DEFINE query_name m; Merge {columns} From {', '.join(streams)}"),
        builtin_registry(), functions, stream_resolver=streams.get)
    plan = plan_query(analyzed, functions)
    return plan.hfta, analyzed


# -- schedules -----------------------------------------------------------

def input_timeline(rng, input_index, band, swapped, length):
    """One input's items in order: rows (nondecreasing up to ``band``),
    punctuation it can keep, a final flush."""
    values = []
    high = rng.randrange(4)
    for _ in range(length):
        high += rng.choice((0, 0, 0, 0, 1, 1, 3))
        values.append(high - (rng.randrange(band + 1) if band else 0))
    items = []
    for position, value in enumerate(values):
        if rng.random() < 0.06:
            # A promise every later row of this input keeps.
            bound = min(values[position:])
            items.append(Punctuation({1 if swapped else 0: bound}))
        tag = input_index * 100000 + position
        items.append((tag, value) if swapped else (value, tag))
    if rng.random() < 0.5:
        slot = 1 if swapped else 0
        items.append(Punctuation({slot: (values[-1] if values else 0) + rng.randrange(5)}))
    items.append(FLUSH)
    return items


def schedule(rng, bands, swap_last):
    """Interleave the inputs' timelines into (input, [items]) bursts."""
    timelines = []
    for index, band in enumerate(bands):
        # Some inputs are short: they flush early and stop blocking.
        length = rng.choice((0, 3, 40, 120, 400))
        swapped = swap_last and index == len(bands) - 1
        timelines.append(input_timeline(rng, index, band, swapped, length))
    cursors = [0] * len(bands)
    live = list(range(len(bands)))
    bursts = []
    while live:
        index = rng.choice(live)
        # Mostly short bursts, sometimes one long enough to stall deep.
        size = rng.choice((1, 1, 2, 5, 9, 30, 90))
        chunk = timelines[index][cursors[index]:cursors[index] + size]
        cursors[index] += len(chunk)
        if cursors[index] >= len(timelines[index]):
            live.remove(index)
        bursts.append((index, chunk))
    return bursts


def feed(node, index, items, block_size):
    """What ``_pump_batched`` does with one popped block: runs of tuples
    to ``dispatch_batch``, control items singly, in order."""
    run = []
    for item in items:
        if type(item) is tuple:
            run.append(item)
            if len(run) == block_size:
                node.dispatch_batch(run, index)
                run = []
        else:
            if run:
                node.dispatch_batch(run, index)
                run = []
            node.dispatch(item, index)
    if run:
        node.dispatch_batch(run, index)


def observe(node, tap):
    stats = node.stats
    requested = node.manager.requested
    node.manager.requested = False
    return (tap.drain(), node.dropped, requested,
            (stats.tuples_in, stats.tuples_out, stats.punctuations_in,
             stats.punctuations_out, stats.discarded),
            node.flushed, node.snapshot_state())


CONFIGS = [
    # (bands, swap_last, buffer_capacity)
    ((0, 0), False, None),
    ((0, 0, 0), False, None),
    ((0, 0), False, 16),
    ((0, 0, 0), False, 5),
    ((0, 0), False, 0),
    ((0, 3), False, None),
    ((2, 0, 0), False, None),
    ((4, 0), False, 12),
    ((0, 0), True, None),
    ((0, 0, 0), True, 9),
]


def run_corpus(seeds=range(12)):
    """Check every config x seed x block size; returns a digest of
    everything the reference emitted (stable across hash seeds).
    ``merge_module.BLOCK_SUSPECT_DEPTH`` must already be lowered to
    ``SUSPECT_DEPTH``."""
    digest = hashlib.sha256()
    for bands, swap_last, capacity in CONFIGS:
        plan, analyzed = merge_plan(bands, swap_last)
        for seed in seeds:
            bursts = schedule(random.Random(seed * 7919 + len(bands)),
                              bands, swap_last)
            reference = ReferenceMerge(plan, buffer_capacity=capacity)
            nodes = [reference] + [
                MergeNode(plan, analyzed, buffer_capacity=capacity)
                for _ in BLOCK_SIZES]
            taps = []
            for node in nodes:
                node.manager = RecordingManager()
                taps.append(node.subscribe())
            for step, (index, items) in enumerate(bursts):
                for item in items:
                    reference.dispatch(item, index)
                expected = observe(reference, taps[0])
                digest.update(repr(expected[:5]).encode())
                for node, tap, block_size in zip(nodes[1:], taps[1:], BLOCK_SIZES):
                    feed(node, index, items, block_size)
                    assert observe(node, tap) == expected, (
                        f"bands={bands} swap={swap_last} capacity={capacity} "
                        f"seed={seed} block={block_size} step={step} "
                        f"input={index} items={items}")
            # A forced flush on whatever is still held.
            for node in nodes:
                node.flush()
            expected = observe(reference, taps[0])
            for node, tap in zip(nodes[1:], taps[1:]):
                assert observe(node, tap) == expected
    return digest.hexdigest()


class TestSpliceEqualsTupleAtATime:
    def test_corpus(self, monkeypatch):
        monkeypatch.setattr(merge_module, "BLOCK_SUSPECT_DEPTH", SUSPECT_DEPTH)
        run_corpus()

    def test_corpus_exercises_the_hard_cases(self, monkeypatch):
        """The corpus is only an oracle if it reaches ties against a
        higher input, overflow, heartbeat requests and banded holds."""
        monkeypatch.setattr(merge_module, "BLOCK_SUSPECT_DEPTH", SUSPECT_DEPTH)
        seen = {"tie_split": 0, "dropped": 0, "heartbeat": 0, "banded_held": 0}
        original = MergeNode._drain

        def counting(self, arrived=-1):
            before = self.stats.tuples_out
            buffers = [list(buffer) for buffer in self._buffers]
            original(self, arrived)
            if arrived >= 0 and self.stats.tuples_out > before:
                run = [row[self._slots[arrived]] for row in buffers[arrived]]
                later = {row[self._slots[j]]
                         for j in range(arrived + 1, len(buffers))
                         for row in buffers[j]}
                if any(run.count(value) > 1 for value in later):
                    seen["tie_split"] += 1

        monkeypatch.setattr(MergeNode, "_drain", counting)
        for bands, swap_last, capacity in CONFIGS:
            plan, analyzed = merge_plan(bands, swap_last)
            for seed in range(12):
                bursts = schedule(random.Random(seed * 7919 + len(bands)),
                                  bands, swap_last)
                node = MergeNode(plan, analyzed, buffer_capacity=capacity)
                node.manager = RecordingManager()
                node.subscribe()
                for index, items in bursts:
                    feed(node, index, items, 256)
                    seen["heartbeat"] += node.manager.requested
                    node.manager.requested = False
                    if any(bands) and node.buffered:
                        seen["banded_held"] += 1
                seen["dropped"] += node.dropped
        assert all(seen.values()), seen

    def test_identical_under_two_hash_seeds(self):
        digests = set()
        for hash_seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=SRC_ROOT)
            out = subprocess.run([sys.executable, __file__], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1 and all(digests)


class TestTieRule:
    """The case the decorated key exists for, spelled out."""

    def test_run_duplicates_leave_after_a_higher_inputs_ties(self):
        plan, analyzed = merge_plan((0, 0))
        node = MergeNode(plan, analyzed)
        tap = node.subscribe()
        node.dispatch_batch([(5, 10), (5, 11), (6, 12)], 1)   # held: input 0 silent
        node.dispatch_batch([(4, 0), (5, 1), (5, 2), (6, 3), (6, 4)], 0)
        # 5/1 arrives before input 1's fives are released, 5/2 after;
        # likewise 6/3 and 6/4 around 6/12.
        assert tap.drain() == [(4, 0), (5, 1), (5, 10), (5, 11), (5, 2),
                               (6, 3), (6, 12), (6, 4)]

    def test_lower_input_ties_leave_first(self):
        plan, analyzed = merge_plan((0, 0))
        node = MergeNode(plan, analyzed)
        tap = node.subscribe()
        node.dispatch_batch([(5, 0), (5, 1)], 0)
        node.dispatch_batch([(5, 10), (5, 11)], 1)
        assert tap.drain() == [(5, 0), (5, 1), (5, 10), (5, 11)]

    def test_released_rows_do_not_count_against_capacity(self):
        plan, analyzed = merge_plan((0, 0))
        node = MergeNode(plan, analyzed, buffer_capacity=2)
        tap = node.subscribe()
        node.dispatch(Punctuation({0: 3}), 1)
        tap.drain()
        node.dispatch_batch([(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)], 0)
        # 1..3 pass straight through; 4 and 5 fill the buffer; 6 overflows.
        assert tap.drain() == [(1, 0), (2, 1), (3, 2)]
        assert node.buffered == 2 and node.dropped == 1
        # The mark follows the last row *kept*, not the last row offered.
        assert node.snapshot_state()["low_water"][0] == 5


class TestBandedInput:
    """Where a banded input makes tuple-at-a-time order observable."""

    def both(self, bands, monkeypatch, depth=SUSPECT_DEPTH):
        monkeypatch.setattr(merge_module, "BLOCK_SUSPECT_DEPTH", depth)
        monkeypatch.setattr(sys.modules[__name__], "SUSPECT_DEPTH", depth)
        plan, analyzed = merge_plan(bands)
        nodes = [ReferenceMerge(plan), MergeNode(plan, analyzed)]
        taps = []
        for node in nodes:
            node.manager = RecordingManager()
            taps.append(node.subscribe())
        return nodes, taps

    def test_banded_buffer_emptying_mid_run_holds_later_duplicates(
            self, monkeypatch):
        (reference, node), taps = self.both((0, 5), monkeypatch)
        for each in (reference, node):
            each.dispatch((100, 1), 1)   # held above its own mark of 95
        run = [(100, 2), (100, 3)]
        for row in run:
            reference.dispatch(row, 0)
        node.dispatch_batch(run, 0)
        # 100/2 leaves, then input 1's 100 -- which empties that buffer
        # and drops the floor to 95, so the duplicate 100/3 is held.
        assert taps[0].drain() == [(100, 2), (100, 1)]
        assert observe(node, taps[1])[1:] == observe(reference, taps[0])[1:]
        assert node.buffered == 1

    def test_within_band_inversion_leaves_in_arrival_order(self, monkeypatch):
        (reference, node), taps = self.both((10, 0), monkeypatch)
        for each in (reference, node):
            each.dispatch(Punctuation({0: 100}), 1)
        run = [(50, 1), (45, 2)]
        for row in run:
            reference.dispatch(row, 0)
        node.dispatch_batch(run, 0)
        assert observe(node, taps[1]) == observe(reference, taps[0])
        assert node.stats.tuples_out == 2

    def test_depth_check_sees_a_banded_row_before_its_own_drain(
            self, monkeypatch):
        (reference, node), taps = self.both((3, 0), monkeypatch, depth=2)
        for each in (reference, node):
            each.dispatch(Punctuation({0: 5}), 1)
        run = [(7, 1), (8, 2), (5, 3)]   # 5 is released on arrival
        for row in run:
            reference.dispatch(row, 0)
        node.dispatch_batch(run, 0)
        assert reference.manager.requested   # three rows deep at the check
        assert observe(node, taps[1]) == observe(reference, taps[0])


if __name__ == "__main__":
    merge_module.BLOCK_SUSPECT_DEPTH = SUSPECT_DEPTH
    print(run_corpus())
