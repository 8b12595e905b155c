"""The generated aggregation block kernels against the row-at-a-time
loops they replaced (DESIGN section 18).

``ReferenceLfta`` and ``ReferenceAggregation`` carry the aggregation
paths exactly as they stood at c83354f -- ``_aggregate_batch`` /
``on_tuple_batch`` looping ``upsert`` / ``groups.get`` and the generic
``AggregateOps`` per row, closed groups emitted one ``emit`` at a time,
slots placed by ``stable_hash`` itself -- frozen here as the oracle.
Generated streams (hits and collisions, a window boundary in the middle
of a block, late rows, a banded window key, shedding, every aggregate
name, both decodes, the row adapter) go through the reference and
through the real node in blocks of 1, 7 and 256; after every block the
items on the output channel, the table counters, ``NodeStats`` and the
encoded ``snapshot_state`` must be equal, including when a fold raises
in the middle of a block.

One thing is *not* frozen: where a partial function inside an
aggregate argument has no result.  The reference half-folds the group
and lets the no-result signal escape; the kernels discard the row
(``TestDiscardInAggregateArgument``; end to end in ``tests/test_engine.py``).
"""

import ast
import hashlib
import os
import random
import subprocess
import sys

import pytest

from repro.core.heartbeat import FLUSH, Punctuation
from repro.determinism import stable_hash
from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.gsql.ordering import Ordering
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import (
    Attribute,
    ProtocolSchema,
    StreamSchema,
    builtin_registry,
)
from repro.gsql.semantic import analyze
from repro.gsql.types import FLOAT, STRING, UINT
from repro.net.build import build_icmp_frame, build_tcp6_frame, capture
from repro.net.packet import CapturedPacket
from repro.operators.aggregation import AggregationNode
from repro.operators.lfta import LftaNode
from repro.operators.lfta_table import DirectMappedTable
from repro.recovery.wire import encode_snapshot

from tests.conftest import tcp_packet
from tests.frozen_decode_select import (FrozenAggregation, FrozenCompiler,
                                        FrozenLfta)
from tests.reference.evaluator import NoResult, ReferenceEvaluator

SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "src")
BLOCK_SIZES = (1, 7, 256)
TABLE_SIZES = (1, 2, 7, 4096)


# -- the oracle ------------------------------------------------------------

class ReferenceOps:
    """The generic per-tuple aggregate loops, verbatim from c83354f:
    each argument is evaluated right before its slot is folded, here by
    the reference evaluator."""

    def __init__(self, aggregates, arg_fns):
        self.aggregates = list(aggregates)
        self.arg_fns = list(arg_fns)

    @classmethod
    def for_plan(cls, compiler, aggregates, slot_maps):
        reference = ReferenceEvaluator(compiler.analyzed, compiler.functions,
                                       compiler.params)
        return cls(aggregates, [
            None if slot_maps is None or agg.arg is None
            else (lambda row, arg=agg.arg:
                  reference.value(arg, row, slot_maps=slot_maps))
            for agg in aggregates])

    def new_state(self):
        state = []
        for agg in self.aggregates:
            if agg.name == "COUNT":
                state.append(0)
            elif agg.name == "SUM":
                state.append(0)
            elif agg.name == "AVG":
                state.append([0.0, 0])
            else:
                state.append(None)
        return state

    def update(self, state, row):
        for index, agg in enumerate(self.aggregates):
            arg_fn = self.arg_fns[index]
            name = agg.name
            if name == "COUNT":
                state[index] += 1
                continue
            value = arg_fn(row)
            if name == "SUM":
                state[index] += value
            elif name == "MIN":
                if state[index] is None or value < state[index]:
                    state[index] = value
            elif name == "MAX":
                if state[index] is None or value > state[index]:
                    state[index] = value
            elif name == "AVG":
                pair = state[index]
                pair[0] += value
                pair[1] += 1

    def update_weighted(self, state, row, weight):
        for index, agg in enumerate(self.aggregates):
            arg_fn = self.arg_fns[index]
            name = agg.name
            if name == "COUNT":
                state[index] += weight
                continue
            value = arg_fn(row)
            if name == "SUM":
                state[index] += value * weight
            elif name == "MIN":
                if state[index] is None or value < state[index]:
                    state[index] = value
            elif name == "MAX":
                if state[index] is None or value > state[index]:
                    state[index] = value
            elif name == "AVG":
                pair = state[index]
                pair[0] += value * weight
                pair[1] += weight

    def partials(self, state):
        out = []
        for index, agg in enumerate(self.aggregates):
            if agg.name == "AVG":
                out.extend(state[index])
            else:
                out.append(state[index])
        return tuple(out)

    def combine(self, state, partial_slots):
        cursor = 0
        for index, agg in enumerate(self.aggregates):
            name = agg.name
            if name == "AVG":
                pair = state[index]
                pair[0] += partial_slots[cursor]
                pair[1] += partial_slots[cursor + 1]
                cursor += 2
                continue
            value = partial_slots[cursor]
            cursor += 1
            if name in ("COUNT", "SUM"):
                state[index] += value
            elif name == "MIN":
                if state[index] is None or (value is not None and value < state[index]):
                    state[index] = value
            elif name == "MAX":
                if state[index] is None or (value is not None and value > state[index]):
                    state[index] = value

    def final_values(self, state):
        out = []
        for index, agg in enumerate(self.aggregates):
            if agg.name == "AVG":
                total, count = state[index]
                out.append(total / count if count else 0.0)
            else:
                out.append(state[index])
        return tuple(out)


class ReferenceLfta(FrozenLfta):
    """The LFTA with c83354f's per-row aggregation: ``upsert`` on a
    table placed by ``stable_hash``, one ``emit`` per ejected or closed
    group -- behind the decode-then-key front end of its day
    (``tests/frozen_decode_select.py``), which hands ``_aggregate`` the
    block's keys and rows."""

    def __init__(self, plan, analyzed, compiler, **kwargs):
        super().__init__(plan, analyzed, compiler, **kwargs)
        self.table = DirectMappedTable(self.table.size)
        self.reference_ops = ReferenceOps.for_plan(
            compiler, plan.aggregates, (None, None))
        self._aggregate = ReferenceLfta._aggregate_batch

    def _aggregate_batch(self, keys, rows, weight):
        window_index = self._window_index
        band = self._window_band
        upsert = self.table.upsert
        new_state = self.reference_ops.new_state
        update = self.reference_ops.update
        update_weighted = self.reference_ops.update_weighted
        weighted = weight != 1.0
        for key, row in zip(keys, rows):
            if window_index >= 0:
                window_value = key[window_index]
                high_water = self._high_water
                if high_water is None or window_value > high_water:
                    self._high_water = window_value
                    self._flush_below(window_value - band)
            state, ejected = upsert(key, new_state)
            if ejected is not None:
                self._emit_group(*ejected)
            if weighted:
                update_weighted(state, row, weight)
            else:
                update(state, row)

    def _flush_below(self, low_water):
        index = self._window_index
        closed = self.table.evict_if(lambda key: key[index] < low_water)
        closed.sort(key=lambda entry: entry[0][index])
        for key, state in closed:
            self._emit_group(key, state)
        if closed or self._high_water is not None:
            self.emit_punctuation(Punctuation({index: low_water}))

    def _emit_group(self, key, state):
        self.emit(key + self.reference_ops.partials(state))

    def flush(self):
        index = self._window_index
        groups = self.table.evict_all()
        if index >= 0:
            groups.sort(key=lambda entry: entry[0][index])
        for key, state in groups:
            self._emit_group(key, state)


class ReferenceAggregation(FrozenAggregation):
    """The HFTA aggregation with c83354f's ``on_tuple_batch``: a
    ``(key, row)`` pair list, then ``groups.get`` and the generic
    ``update`` / ``combine`` per pair; closed groups leave one ``emit``
    at a time, HAVING and the select list evaluated per group by the
    reference evaluator."""

    def __init__(self, plan, analyzed, compiler):
        super().__init__(plan, analyzed, compiler)
        self.reference_ops = ReferenceOps.for_plan(
            compiler, plan.aggregates,
            None if self.from_partials else tuple(plan.slot_maps))
        self._key_width = len(analyzed.group_exprs if self.from_partials
                              else plan.group_exprs)
        evaluator = ReferenceEvaluator(analyzed, compiler.functions,
                                       compiler.params)
        self._having = evaluator.post_predicate_fn(plan.having)
        self._post_select = evaluator.post_tuple_fn(plan.post_select_exprs)
        self._emit_partials = False

    def enable_partial_output(self):
        super().enable_partial_output()
        self._emit_partials = True

    def on_tuple_batch(self, rows, input_index):
        pairs = []
        if self.from_partials:
            predicate = self._predicate
            key_width = self._key_width
            dropped = 0
            for row in rows:
                if not predicate(row):
                    dropped += 1
                    continue
                pairs.append((row[:key_width], row))
        else:
            dropped, keys, kept = self._batch_key(rows)
            pairs = list(zip(keys, kept))
        if dropped:
            self.stats.discarded += dropped
        if not pairs:
            return
        window_index = self._window_index
        band = self._window_band
        groups = self._groups
        new_state = self.reference_ops.new_state
        combine = self.reference_ops.combine
        update = self.reference_ops.update
        from_partials = self.from_partials
        key_width = self._key_width
        for key, row in pairs:
            if window_index >= 0:
                window_value = key[window_index]
                high_water = self._high_water
                if high_water is None or window_value > high_water:
                    self._high_water = window_value
                    self._flush_below(window_value - band)
            state = groups.get(key)
            if state is None:
                state = new_state()
                groups[key] = state
            if from_partials:
                combine(state, row[key_width:])
            else:
                update(state, row)

    def _flush_below(self, low_water):
        index = self._window_index
        closed = [key for key in self._groups if key[index] < low_water]
        closed.sort(key=lambda key: (key[index], key))
        for key in closed:
            self._emit_group(key, self._groups.pop(key))
        if self._window_out_slot >= 0:
            self.emit_punctuation(Punctuation({self._window_out_slot: low_water}))

    def _emit_group(self, key, state):
        if self._emit_partials:
            self.groups_emitted += 1
            self.emit(key + self.reference_ops.partials(state))
            return
        values = self.reference_ops.final_values(state)
        if not self._having(key, values):
            self.stats.discarded += 1
            return
        out = self._post_select(key, values)
        if out is None:
            self.stats.discarded += 1
            return
        self.groups_emitted += 1
        self.emit(out)

    def flush(self):
        keys = list(self._groups)
        if self._window_index >= 0:
            index = self._window_index
            keys.sort(key=lambda key: (key[index], key))
        for key in keys:
            self._emit_group(key, self._groups.pop(key))


# -- plans and protocols -----------------------------------------------------

#: the row-decoded protocol: a packet's bytes are the ``repr`` of its row
PROBE_ATTRIBUTES = [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("bt", UINT, Ordering.banded(3)),
    Attribute("k", UINT),
    Attribute("v", UINT),
    Attribute("f", FLOAT),
    Attribute("s", STRING),
]


def registry_with_probe():
    registry = builtin_registry()
    registry.add(ProtocolSchema(
        "probe", PROBE_ATTRIBUTES, {},
        expander=lambda packet: [ast.literal_eval(packet.data.decode())]))
    return registry


def probe_packet(row):
    return CapturedPacket(timestamp=float(row[0]), data=repr(row).encode())


def compile_query(text, streams=None, compiler=ExprCompiler):
    functions = builtin_functions()
    analyzed = analyze(parse_query(text), registry_with_probe(), functions,
                       stream_resolver=(streams or {}).get)
    plan = plan_query(analyzed, functions)
    return analyzed, plan, compiler(analyzed, functions)


def lfta_pair(text, **kwargs):
    """(reference, node), each with its own compiler, both tapped."""
    nodes = []
    for cls, compiler in ((ReferenceLfta, FrozenCompiler),
                          (LftaNode, ExprCompiler)):
        analyzed, plan, compiler = compile_query(text, compiler=compiler)
        node = cls(plan.lftas[0], analyzed, compiler, **kwargs)
        node.tap = node.subscribe()
        nodes.append(node)
    return nodes


# -- streams -----------------------------------------------------------------

def tcp_stream(rng, count):
    """TCP packets over a few flows: mostly advancing clock, several
    windows per 256-block, now and then a packet from the past."""
    packets = []
    now = 10.0
    for _ in range(count):
        now += rng.choice((0.0, 0.0, 0.01, 0.05, 0.4, 1.3))
        late = rng.random() < 0.05
        packets.append(tcp_packet(
            ts=now - 5.0 if late else now,
            src=f"10.0.0.{rng.randrange(1, 9)}",
            dport=rng.choice((80, 443, 22, 8080, 53)),
            sport=rng.choice((1024, 1025)),
            payload=b"x" * rng.randrange(0, 40)))
    return packets


def tcp6_stream(rng, count):
    """``tcp_stream``'s flows over IPv6: a protocol without a layout,
    so the LFTA runs the row adapter."""
    packets = []
    now = 10.0
    for _ in range(count):
        now += rng.choice((0.0, 0.0, 0.01, 0.05, 0.4, 1.3))
        late = rng.random() < 0.05
        packets.append(capture(build_tcp6_frame(
            f"2001:db8::{rng.randrange(1, 9)}", "2001:db8::ff",
            rng.choice((1024, 1025)), rng.choice((80, 443, 22, 8080, 53)),
            payload=b"x" * rng.randrange(0, 40)),
            now - 5.0 if late else now))
    return packets


def probe_rows(rng, count):
    rows = []
    now = 10
    for _ in range(count):
        now += rng.choice((0, 0, 0, 1, 1, 3))
        late = rng.random() < 0.05
        time = max(0, now - 6) if late else now
        rows.append((time, max(0, now - rng.randrange(4)), rng.randrange(12),
                     rng.randrange(100), rng.choice((0.5, -0.0, 2.25, 1e22)),
                     rng.choice((b"a", b"caf\xc3\xa9", b"it's", b"\\"))))
    return rows


def probe_stream(rng, count):
    return [probe_packet(row) for row in probe_rows(rng, count)]


def blocks_of(items, size):
    return [items[start:start + size] for start in range(0, len(items), size)]


# -- observation ---------------------------------------------------------------

def stats_of(node):
    stats = node.stats
    return (stats.tuples_in, stats.tuples_out, stats.punctuations_in,
            stats.punctuations_out, stats.discarded)


def rows_of(tap):
    return [item for item in tap.drain() if type(item) is tuple]


def observe_lfta(node):
    table = node.table
    return (node.tap.drain(), table.lookups, table.collisions, table.occupied,
            stats_of(node), node.packets_seen, node.shed_packets,
            encode_snapshot(node.snapshot_state()))


def observe_hfta(node):
    return (node.tap.drain(), stats_of(node), node.groups_emitted,
            node.open_groups, encode_snapshot(node.snapshot_state()))


# -- the LFTA corpus -------------------------------------------------------------

#: (label, query, stream, generated block decoder expected)
LFTA_CONFIGS = [
    ("tcp windowed columnar",
     "Select tb, srcIP, destPort, count(*), sum(len) From tcp "
     "Group by time/2 as tb, srcIP, destPort", tcp_stream, True),
    ("tcp windowless every aggregate",
     "Select srcIP, count(*), sum(len), avg(len), min(len), max(len) "
     "From tcp Group by srcIP", tcp_stream, True),
    ("tcp predicate + row-only key",
     "Select tb, destPort, count(*), max(len) From tcp Where len > 60 "
     "Group by time/2 as tb, destPort", tcp_stream, True),
    ("tcp6 row adapter",
     "Select tb, destPort, count(*), sum(len), avg(len), min(srcPort), "
     "max(len) From tcp6 Group by time/2 as tb, destPort",
     tcp6_stream, False),
    ("probe row decode",
     "Select tb, k, count(*), sum(v), avg(v), min(v), max(f) From probe "
     "Group by time/2 as tb, k", probe_stream, False),
    ("probe banded window key",
     "Select b, k, count(*), sum(v) From probe Group by bt as b, k",
     probe_stream, False),
    ("probe string key (stable_hash fallback)",
     "Select tb, s, count(*), min(f) From probe Where v > 4 "
     "Group by time/2 as tb, s", probe_stream, False),
    ("probe float key",
     "Select tb, f, count(*), avg(v) From probe Group by time/3 as tb, f",
     probe_stream, False),
]


def run_lfta_corpus(seeds=range(2), table_sizes=TABLE_SIZES,
                    block_sizes=BLOCK_SIZES, seen=None):
    """Every config x table size x block size, shedding on for every
    other one; returns a digest of what the reference emitted (stable
    across hash seeds)."""
    digest = hashlib.sha256()
    for label, query, stream, columnar in LFTA_CONFIGS:
        text = "DEFINE query_name q; " + query
        for seed in seeds:
            packets = stream(random.Random(seed * 7919 + len(label)), 320)
            for turn, table_size in enumerate(table_sizes):
                for block_size in block_sizes:
                    turn += 1
                    for shed_rate in ((1.0, 0.6)[turn % 2],):
                        reference, node = lfta_pair(
                            text, table_size=table_size, seed=seed)
                        assert (node.protocol.columnar_decoder
                                is not None) == columnar
                        assert reference.table._hash is stable_hash
                        for each in (reference, node):
                            each.set_shed_rate(shed_rate)
                        where = (f"{label} seed={seed} table={table_size} "
                                 f"shed={shed_rate} block={block_size}")
                        for step, block in enumerate(
                                blocks_of(packets, block_size)):
                            for each in (reference, node):
                                each.accept_batch(block)
                                if step % 5 == 4:
                                    each.on_heartbeat(block[-1].timestamp)
                            expected = observe_lfta(reference)
                            assert observe_lfta(node) == expected, (
                                f"{where} step={step}")
                            digest.update(repr(expected[:7]).encode())
                            if seen is not None:
                                note_lfta(seen, node, expected[0], block_size)
                        for each in (reference, node):
                            each.flush()
                        assert observe_lfta(node) == observe_lfta(reference), where
    return digest.hexdigest()


def note_lfta(seen, node, items, block_size):
    """Which hard cases the corpus reached."""
    seen["collisions"] += node.table.collisions > 0
    seen["fallback_hash"] += node.table._hash is stable_hash
    seen["format_hash"] += node.table._hash is not stable_hash
    seen["banded"] += node._window_band > 0
    seen["windowless"] += node._window_index < 0
    seen["shed"] += node.shed_packets > 0
    kinds = [type(item) is tuple for item in items]
    if block_size == 256 and True in kinds and False in kinds:
        # partials on both sides of a punctuation: a window closed in
        # the middle of the block
        first = kinds.index(False)
        seen["flush_mid_block"] += True in kinds[:first] and True in kinds[first:]


class TestLftaKernelEqualsRowAtATime:
    def test_corpus(self):
        seen = dict.fromkeys(
            ("collisions", "fallback_hash", "format_hash", "banded",
             "windowless", "shed", "flush_mid_block"), 0)
        run_lfta_corpus(seen=seen)
        # The corpus is only an oracle if it reaches the hard cases.
        assert all(seen.values()), seen

    def test_identical_under_two_hash_seeds(self):
        digests = set()
        for hash_seed in ("1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           (SRC_ROOT, os.path.join(SRC_ROOT, ".."))))
            out = subprocess.run([sys.executable, __file__], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1 and all(digests)

    def test_late_rows_rejoin_their_group(self):
        """A row below the high-water mark is neither dropped nor a
        reason to flush: it lands in a fresh slot for its old window."""
        reference, node = lfta_pair(
            "DEFINE query_name q; Select tb, k, count(*) From probe "
            "Group by time/2 as tb, k")
        rows = [(10, 10, 1, 0, 0.0, b""), (14, 14, 1, 0, 0.0, b""),
                (10, 10, 1, 0, 0.0, b""), (15, 15, 1, 0, 0.0, b"")]
        for each in (reference, node):
            each.accept_batch([probe_packet(row) for row in rows])
        expected = observe_lfta(reference)
        assert observe_lfta(node) == expected
        assert expected[0] == [Punctuation({0: 5.0}), (5, 1, 1),
                               Punctuation({0: 7.0})]
        for each in (reference, node):
            each.flush()
        assert node.tap.drain() == reference.tap.drain() == [
            (5, 1, 1), (7, 1, 2)]

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("shed_rate", [1.0, 0.5])
    def test_fold_raising_at_row_k(self, block_size, shed_rate):
        """``sum(v)`` meets a string at row k: the slots before it are
        folded, the group it displaced has left, the rows after it are
        untouched -- on both sides alike."""
        rows = probe_rows(random.Random(11), 300)
        poisoned = list(rows[137])
        poisoned[3] = "boom"
        rows[137] = tuple(poisoned)
        packets = [probe_packet(row) for row in rows]
        query = ("DEFINE query_name q; Select tb, k, count(*), sum(v), max(f) "
                 "From probe Group by time/2 as tb, k")
        reference, node = lfta_pair(query, table_size=7, seed=3)
        by_one, _ = lfta_pair(query, table_size=7, seed=3)
        raised = []
        for each, size in ((reference, block_size), (node, block_size),
                           (by_one, 1)):
            each.set_shed_rate(shed_rate)
            try:
                for block in blocks_of(packets, size):
                    each.accept_batch(block)
            except TypeError as error:
                raised.append(str(error))
        # (under shedding the poisoned packet may itself be shed)
        assert len(raised) in (0, 3)
        assert shed_rate < 1.0 or raised
        expected = observe_lfta(reference)
        observed = observe_lfta(node)
        if not raised:
            assert observed == expected
            return
        # count(*) of the poisoned row's group was bumped before
        # sum(v) raised: a half-fold, exactly as row-at-a-time.
        assert node.table.lookups == reference.table.lookups > 0
        # Output, table and every ``NodeStats`` counter but one are the
        # reference's.  ``tuples_in``, ``packets_seen`` and
        # ``shed_packets`` are not: the reference counted the whole
        # raising block in, and drew its shed gate for all of it, before
        # it keyed a row -- a block-size dependence; the fused loop
        # counts and draws for what it got through, which is what blocks
        # of one count.
        (*table_side, stats, seen, shed, _) = observed
        (*table_want, stats_want, seen_want, shed_want, _) = expected
        assert table_side == table_want
        assert stats[1:] == stats_want[1:]
        assert (stats[0], seen, shed) == (
            stats_of(by_one)[0], by_one.packets_seen, by_one.shed_packets)
        assert stats[0] <= stats_want[0] and seen <= seen_want \
            and shed <= shed_want

    def test_unhashable_key_finishes_the_rows_before_it(self):
        analyzed, plan, compiler = compile_query(
            "DEFINE query_name q; Select tb, s, count(*) From probe "
            "Group by time/2 as tb, s")
        node = LftaNode(plan.lftas[0], analyzed, compiler, table_size=7)
        tap = node.subscribe()
        rows = [(10, 10, 1, 0, 0.0, b"a"), (10, 10, 1, 0, 0.0, b"b"),
                (10, 10, 1, 0, 0.0, {"not": "a primitive"}),
                (10, 10, 1, 0, 0.0, b"c")]
        with pytest.raises(TypeError, match="stable_hash only covers"):
            node.accept_batch([probe_packet(row) for row in rows])
        assert node.table.lookups == 2 and len(node.table) == 2
        node.flush()
        assert sorted(rows_of(tap)) == [(5, b"a", 1), (5, b"b", 1)]


class TestDiscardInAggregateArgument:
    """Where the kernels deliberately differ from the frozen loops."""

    QUERY = ("DEFINE query_name q; Select tb, count(*), "
             "sum(getlpmid(destIP, '192.168.0.0/16 5')) From {} "
             "Group by time/60 as tb")

    @staticmethod
    def packet(protocol, ts, dst):
        if protocol == "tcp":
            return tcp_packet(ts=ts, dst=dst)
        return capture(build_icmp_frame("10.0.0.1", dst), ts)

    @pytest.mark.parametrize("protocol", ["tcp", "icmp"])
    @pytest.mark.parametrize("shed_rate", [1.0, 0.999])
    def test_row_is_discarded_before_the_table_is_touched(self, protocol,
                                                          shed_rate):
        """On the generated decode loop (tcp) and the row adapter (icmp)."""
        reference, node = lfta_pair(self.QUERY.format(protocol),
                                    table_size=1)
        assert (node.protocol.columnar_decoder is None) == (
            protocol == "icmp")
        packets = [self.packet(protocol, 1.0, "192.168.1.1"),
                   self.packet(protocol, 2.0, "10.9.9.9"),
                   self.packet(protocol, 3.0, "192.168.1.2")]
        # The frozen loop lets the exception out, count(*) already bumped.
        with pytest.raises(NoResult):
            reference.accept_batch(packets)
        assert reference.table.lookups == 2
        node.set_shed_rate(shed_rate)
        node._shed_rng.random = lambda: 0.0   # the gate keeps every packet
        node.accept_batch(packets)
        assert node.stats.discarded == 1
        assert (node.table.lookups, node.table.collisions, len(node.table)) \
            == (2, 0, 1)
        node.flush()
        weight = 1.0 / shed_rate
        (row,) = rows_of(node.tap)
        assert row == ((0, 2, 10) if shed_rate == 1.0
                       else (0, 2 * weight, 10 * weight))

    def test_discarded_row_does_not_advance_the_window(self):
        _reference, node = lfta_pair(
            "DEFINE query_name q; Select tb, count(*), "
            "sum(getlpmid(destIP, '192.168.0.0/16 5')) From tcp "
            "Group by time/2 as tb")
        node.accept_batch([tcp_packet(ts=1.0, dst="192.168.1.1"),
                           tcp_packet(ts=9.0, dst="10.9.9.9"),
                           tcp_packet(ts=1.5, dst="192.168.1.2")])
        assert node._high_water == 0 and node.stats.discarded == 1
        node.flush()
        assert rows_of(node.tap) == [(0, 2, 10)]


# -- the superaggregate loop -------------------------------------------------------

SOURCE = StreamSchema("src", [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("k", UINT),
    Attribute("v", UINT),
])

#: (label, query, what the node reads)
HFTA_CONFIGS = [
    ("superaggregate",
     "Select tb, k, count(*), sum(v), avg(v), min(v), max(v) From probe "
     "Group by time/2 as tb, k", "partials"),
    ("superaggregate having",
     "Select tb, count(*), sum(v) From probe Group by time/2 as tb "
     "Having count(*) > 3", "partials"),
    ("superaggregate window key second",
     "Select k, tb, count(*), sum(v) From probe Group by k, time/2 as tb",
     "partials"),
    ("superaggregate banded",
     "Select b, k, count(*), max(v) From probe Group by bt as b, k",
     "partials"),
    ("superaggregate windowless",
     "Select k, count(*), avg(v) From probe Group by k", "partials"),
    ("full mode",
     "Select tb, k, count(*), sum(v), avg(v), min(v), max(v) From src "
     "Where v > 10 Group by time/2 as tb, k Having count(*) > 1", "raw"),
    ("full mode window only",
     "Select tb, count(*), max(v) From src Group by time/3 as tb", "raw"),
    ("full mode shard producer",
     "Select tb, k, count(*), avg(v) From src Group by time/2 as tb, k",
     "raw-producer"),
]


def hfta_pair(text, reads):
    nodes = []
    for cls, compiler in ((ReferenceAggregation, FrozenCompiler),
                          (AggregationNode, ExprCompiler)):
        analyzed, plan, compiler = compile_query(
            "DEFINE query_name q; " + text, streams={"src": SOURCE},
            compiler=compiler)
        node = cls(plan.hfta, analyzed, compiler)
        if reads == "raw-producer":
            node.enable_partial_output()
        node.tap = node.subscribe()
        nodes.append(node)
    return nodes, plan


def hfta_input(rng, plan, reads, count):
    """Channel items for the node: rows with a mostly advancing window
    key and some late ones, punctuation now and then, a final flush."""
    items = []
    if reads == "partials":
        # What the plan's own LFTA emits for a probe stream, ejections,
        # window punctuation and all.
        analyzed, lfta_plan, compiler = compile_query(
            "DEFINE query_name q; " + plan)
        lfta = LftaNode(lfta_plan.lftas[0], analyzed, compiler, table_size=7)
        tap = lfta.subscribe()
        lfta.accept_batch(probe_stream(rng, count))
        lfta.flush()
        items = tap.drain()
    else:
        now = 10
        for _ in range(count):
            now += rng.choice((0, 0, 0, 1, 1, 3))
            late = rng.random() < 0.05
            if rng.random() < 0.04:
                items.append(Punctuation({0: now}))
            items.append((max(0, now - 6) if late else now,
                          rng.randrange(12), rng.randrange(100)))
    items.append(FLUSH)
    return items


def feed(node, items, block_size):
    """What ``pump`` does with a popped block: runs of tuples to
    ``dispatch_batch``, control items singly, in order; yields after
    each call so the two sides can be compared."""
    run = []
    for item in items:
        if type(item) is tuple:
            run.append(item)
            if len(run) == block_size:
                node.dispatch_batch(run, 0)
                run = []
                yield
        else:
            if run:
                node.dispatch_batch(run, 0)
                run = []
                yield
            node.dispatch(item, 0)
            yield
    if run:
        node.dispatch_batch(run, 0)
        yield


class TestSuperaggregateLoopEqualsRowAtATime:
    def test_corpus(self):
        flushed_mid_block = 0
        for label, query, reads in HFTA_CONFIGS:
            for seed in range(4):
                items = hfta_input(random.Random(seed * 104729 + len(label)),
                                   query, reads, 500)
                for block_size in BLOCK_SIZES:
                    (reference, node), _plan = hfta_pair(query, reads)
                    steps = zip(feed(reference, items, block_size),
                                feed(node, items, block_size))
                    for step, _ in enumerate(steps):
                        expected = observe_hfta(reference)
                        assert observe_hfta(node) == expected, (
                            f"{label} seed={seed} block={block_size} "
                            f"step={step}")
                        kinds = [type(item) is tuple for item in expected[0]]
                        if False in kinds[:-1] and True in kinds[
                                kinds.index(False):]:
                            flushed_mid_block += 1
                    assert node.flushed and reference.flushed
        assert flushed_mid_block

    @pytest.mark.parametrize("reads", ["partials", "raw"])
    def test_fold_raising_at_row_k(self, reads):
        if reads == "partials":
            query = ("Select tb, k, count(*), sum(v) From probe "
                     "Group by time/2 as tb, k")
            rows = [(5, 1, 2, 20), (5, 2, 1, 7), (6, 1, 1, "boom"), (6, 2, 1, 1)]
        else:
            query = ("Select tb, k, count(*), sum(v) From src "
                     "Group by time/2 as tb, k")
            rows = [(10, 1, 20), (11, 2, 7), (12, 1, "boom"), (13, 2, 1)]
        (reference, node), _plan = hfta_pair(query, reads)
        for each in (reference, node):
            with pytest.raises(TypeError):
                each.dispatch_batch(rows, 0)
        expected = observe_hfta(reference)
        assert observe_hfta(node) == expected
        # The window flush row 3 caused has happened; its group exists,
        # count(*) bumped, sum(v) not.
        assert expected[0] and node.open_groups == 1

    def test_discard_in_an_argument_on_the_hfta(self):
        """Full mode evaluates the arguments before the group exists."""
        streams = {"src": StreamSchema("src", [
            Attribute("time", UINT, Ordering.increasing()),
            Attribute("destIP", UINT)])}
        analyzed, plan, compiler = compile_query(
            "DEFINE query_name q; Select tb, count(*), "
            "sum(getlpmid(destIP, '192.168.0.0/16 5')) From src "
            "Group by time/60 as tb", streams=streams)
        node = AggregationNode(plan.hfta, analyzed, compiler)
        tap = node.subscribe()
        inside, outside = (192 << 24) | (168 << 16) | 1, 10 << 24
        node.dispatch_batch([(1, inside), (2, outside), (3, inside + 1)], 0)
        assert node.stats.discarded == 1 and node.open_groups == 1
        node.dispatch_batch([(200, outside)], 0)   # discarded: closes nothing
        assert node.open_groups == 1 and rows_of(tap) == []
        node.dispatch(FLUSH, 0)
        assert tap.drain() == [(0, 2, 10), FLUSH]


if __name__ == "__main__":
    print(run_lfta_corpus(seeds=range(1), table_sizes=(7,), block_sizes=(7, 256)))
