"""Both levels of the generated aggregation against one row-at-a-time
reference (DESIGN sections 14 and 18).

The engine runs an LFTA as one generated loop from packet bytes to
table slots (``LftaNode.accept_batch``: a block kernel, or the row
adapter), and an HFTA aggregation as one generated fold behind a
key-run cache plus one generated close (``AggregationNode``).
``tests/reference/aggregation.py`` says what they compute, one packet,
one row and one group at a time, with the reference evaluator and the
one fold table.  Every input below goes to the engine node and to the
reference in blocks of 1, 7 and 256, and after every block -- and
after every heartbeat, punctuation and flush -- these must be equal:

* the items on the output channel, in order, punctuation included;
* ``NodeStats``, and on an LFTA ``sampled_out``, ``packets_seen``,
  ``shed_packets`` and both RNG states (the gates draw alike);
* the table's ``lookups``/``occupied``/``collisions`` and each slot's
  key and partials, or the HFTA's open groups as key -> partials in
  order, and the window's high-water mark;
* whether the block raised, and what type of error.

The inputs: ``tests/test_prefilter.py``'s corpus under its 18 conjunct
shapes; header-only and payload plans, projection and partial
aggregation; the lean and the full form of the loop, a decode-group
member and a node alone; the row adapter; shedding with its
Horvitz-Thompson weight, ``DEFINE sample``, every aggregate, a
parameter in the key; table sizes 1, 2, 7 and 4096, banded and late
windows; a fold, a HAVING or a select list that raises mid-block or
mid-close; Hypothesis streams built to break a key-run cache; and a
snapshot/restore in the middle of the run.  The structural tests at
the end pin what the loops skip and what EXPLAIN says of them.
"""

import ast
import hashlib
import math
import os
import random
import subprocess
import sys
from itertools import compress, count, repeat
from operator import is_not

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.heartbeat import FLUSH, Punctuation
from repro.determinism import stable_hash, tuple_hash
from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import FunctionSpec, builtin_functions
from repro.gsql.ordering import Ordering
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import (Attribute, ProtocolSchema, StreamSchema,
                               builtin_registry)
from repro.gsql.semantic import analyze
from repro.gsql.types import FLOAT, IP, STRING, UINT
from repro.net.build import (build_icmp_frame, build_tcp6_frame,
                             build_tcp_frame, capture)
from repro.net.columnar import Branch, block_kernel
from repro.net.packet import CapturedPacket
from repro.operators.aggregation import AggregationNode
from repro.operators.lfta import LftaNode
from repro.operators.lfta_table import DirectMappedTable
from repro.recovery.wire import decode_snapshot, encode_snapshot

from tests.conftest import tcp_packet
from tests.reference.aggregation import RowAggregation, RowLfta, partials
from tests.test_prefilter import (CORPUS, FIELDS, SHAPES, decode_then_filter,
                                  without_layouts)
from tests.test_shared_decode import assert_same_as_alone, shed

SEED = 7
BLOCK_SIZES = (1, 7, 256)
TABLE_SIZES = (1, 2, 7, 4096)
REGISTRY = builtin_registry()
#: the same protocols without their layouts: every LFTA on the row adapter
LAYOUTLESS = without_layouts()
REGISTRIES = {"kernel": REGISTRY, "adapter": LAYOUTLESS}


def blocks(items, size):
    return [items[start:start + size] for start in range(0, len(items), size)]


class Crash(Exception):
    """What ``crash`` raises."""


def crash(value):
    if value == 3:
        raise Crash(f"crash({value!r})")
    return value


#: a frame of this length makes ``boom`` return a string, which the
#: fold then fails to add
BOOM_LEN = 60


def udfs():
    """The builtins plus ``keep`` (no result on multiples of five),
    ``crash`` (raises on 3) and ``boom`` (a string where an integer is
    due, on ``BOOM_LEN``)."""
    registry = builtin_functions()
    registry.register(FunctionSpec(
        "keep", lambda x: None if x % 5 == 0 else x, (UINT,), UINT,
        partial=True))
    registry.register(FunctionSpec("crash", crash, (UINT,), UINT))
    registry.register(FunctionSpec(
        "boom", lambda x: "x" if x == BOOM_LEN else x, (UINT,), UINT))
    return registry


def compiled(text, registry=REGISTRY, params=None, streams=None):
    functions = udfs()
    analyzed = analyze(parse_query(text), registry, functions,
                       stream_resolver=(streams or {}).get)
    plan = plan_query(analyzed, functions)
    return analyzed, plan, ExprCompiler(analyzed, functions, params), functions


# -- the LFTA: engine node and reference side by side ----------------------------

class Forced(LftaNode):
    """An LFTA pinned to one form of its loop (a lean ask without a lean
    form runs the full one)."""

    lean = False

    @property
    def prefers_lean(self):
        return self.lean


class ForcedLean(Forced):
    lean = True


class Pair:
    """An engine node with a tap (``node``) beside its reference."""

    def both(self, call, where=""):
        """``call`` on the node, then on the reference: both raise the
        same type of error or neither does; then compare."""
        raised = []
        for each in (self.node, self.reference):
            try:
                call(each)
                raised.append(None)
            except Exception as error:   # compared, never swallowed
                raised.append(type(error))
        assert raised[0] is raised[1], (where, raised)
        self.check(where)
        return raised[0]


class LftaPair(Pair):
    """An engine LFTA of ``text`` (``cls``) with a tap, and the
    reference of the same plan on a table placed as the node places.
    ``params`` is shared: :meth:`set_param` moves both."""

    def __init__(self, text, registry=REGISTRY, params=None, table_size=7,
                 cls=LftaNode, seed=SEED):
        analyzed, plan, compiler, functions = compiled(text, registry, params)
        self.plan = plan.lftas[0]
        self.node = cls(self.plan, analyzed, compiler, table_size=table_size,
                        seed=seed)
        self.node.tap = self.node.subscribe()
        self.compiler = compiler
        table = self.node.table
        self.reference = RowLfta(
            self.plan, analyzed, functions,
            None if table is None else DirectMappedTable(table.size,
                                                         table._hash),
            compiler.params, seed)
        self.args = (text, registry, params, table_size, cls, seed)
        #: every item the node emitted, as compared
        self.emitted = []

    def set_param(self, name, value):
        self.compiler.params[name] = value
        self.reference.evaluator.params[name] = value

    def set_shed_rate(self, rate):
        self.node.set_shed_rate(rate)
        self.reference.shed_rate = self.node.shed_rate

    def check(self, where=""):
        observed = observe_lfta(self.node)
        assert observed == observe_reference_lfta(self.reference), where
        self.emitted += observed[0]

    def feed(self, packets, size, heartbeat_every=None, where=""):
        """``packets`` in blocks of ``size``; a heartbeat at the last
        stamp of every ``heartbeat_every``-th block."""
        raised = []
        for step, block in enumerate(blocks(packets, size), 1):
            raised.append(self.both(lambda each: each.accept_batch(block),
                                    f"{where} block {step}"))
            if heartbeat_every and step % heartbeat_every == 0:
                stamp = block[-1].timestamp
                self.both(lambda each: each.on_heartbeat(stamp),
                          f"{where} heartbeat {step}")
        return raised

    def flush(self, where=""):
        self.both(lambda each: each.flush(), f"{where} flush")

    def restored(self):
        """The node replaced by a fresh one restored from its encoded
        snapshot (which must round-trip), output so far compared."""
        self.check("before the cut")
        blob = encode_snapshot(self.node.snapshot_state())
        text, registry, params, table_size, cls, seed = self.args
        analyzed, plan, compiler, _ = compiled(text, registry, params)
        node = cls(plan.lftas[0], analyzed, compiler, table_size=table_size,
                   seed=seed)
        node.tap = node.subscribe()
        node.restore_state(decode_snapshot(blob))
        assert encode_snapshot(node.snapshot_state()) == blob
        self.node, self.compiler = node, compiler


def table_of(table, partials_at):
    """The table's counters and ``{slot: (key, partials)}`` of its
    resident groups, ``partials_at(slot)`` reading a slot's partials."""
    keys = table.keys
    return (table.lookups, table.occupied, table.collisions,
            {slot: (keys[slot], partials_at(slot)) for slot in compress(
                count(), map(is_not, keys, repeat(None)))})


def stats_of(node):
    stats = node.stats
    return (stats.tuples_in, stats.tuples_out, stats.punctuations_in,
            stats.punctuations_out, stats.discarded)


def observe_lfta(node):
    table = node.table
    return (node.tap.drain(), stats_of(node), node.sampled_out,
            node.packets_seen, node.shed_packets,
            None if table is None else table_of(table, lambda slot: tuple(
                column[slot] for column in table.columns)),
            getattr(node, "_high_water", None), node._shed_rng.getstate(),
            node._sample_rng and node._sample_rng.getstate())


def observe_reference_lfta(reference):
    table = reference.table
    return (reference.drain(), stats_of(reference), reference.sampled_out,
            reference.packets_seen, reference.shed_packets,
            None if table is None else table_of(table, lambda slot: partials(
                table.columns[0][slot])),
            reference.high_water if table is not None else None,
            reference.shed_rng.getstate(),
            reference.sample_rng and reference.sample_rng.getstate())


def run_lfta(text, packets, size, registry=REGISTRY, params=None,
             table_size=7, cls=LftaNode, shed_rate=1.0, heartbeat_every=None):
    """One plan over ``packets`` in blocks of ``size`` against the
    reference, then flushed; the pair."""
    pair = LftaPair(text, registry, params, table_size, cls)
    pair.set_shed_rate(shed_rate)
    pair.feed(packets, size, heartbeat_every, text)
    pair.flush(text)
    return pair


# -- the prefilter corpus ------------------------------------------------------------

def plans(shape):
    """Header-only and payload plans, projection and partial
    aggregation, behind one WHERE clause."""
    protocol, where, _, _ = SHAPES[shape]
    # ip has no payload attribute: its bit fields stand in
    wide, size = (("id, more_fragments, ipversion", "frag_offset")
                  if protocol == "ip" else ("data", "str_len(data)"))
    return ["DEFINE query_name q; " + plan for plan in (
        f"Select {FIELDS[protocol]} From {protocol} Where {where}",
        f"Select tb, destIP, count(*), sum(len) From {protocol} "
        f"Where {where} Group by time/2 as tb, destIP",
        f"Select time, {size}, {wide} From {protocol} Where {where}",
        f"Select tb, srcIP, count(*), max({size}), avg(len), "
        f"min(ttl) From {protocol} Where {where} "
        f"Group by time/2 as tb, srcIP")]


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestPrefilterCorpus:
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_every_plan(self, shape, size):
        params = SHAPES[shape][3]
        produced = 0
        for text in plans(shape):
            pair = LftaPair(text, params=params)
            assert pair.node.decode_fields is not None
            pair.feed(CORPUS, size, where=text)
            produced += pair.node.stats.tuples_out
            pair.flush(text)
        assert produced or shape == "nothing_passes"

    def test_without_a_pushed_prefix(self, shape):
        """Every conjunct in the row's action, none in the loop ahead
        of it."""
        params = SHAPES[shape][3]
        for text in plans(shape)[:2]:
            with decode_then_filter():
                pair = LftaPair(text, params=params)
            assert pair.node.prefilter is None  # and so no lean form
            pair.feed(CORPUS, 7, where=text)
            pair.flush(text)

    def test_row_adapter(self, shape):
        """The same plans over the protocols without their layouts."""
        params = SHAPES[shape][3]
        for text in plans(shape):
            pair = run_lfta(text, CORPUS, 7, LAYOUTLESS, params)
            assert pair.node.decode_fields is None


class TestLeanAndFull:
    CASES = [
        ("tcp", "time, srcIP, destIP, srcPort, destPort",
         "tcpflags & 18 = 2", None),
        ("tcp", "time, srcIP, destIP, data", "destPort = 80 and len > 60",
         None),
        ("tcp", "seqno, ackno, tcpwindow, ttl, id", "srcIP = 167772161",
         None),
        ("udp", "time, srcIP, destIP, udplen, data", "destPort = 53", None),
        ("ip", "time, srcIP, destIP, id, ttl", "protocol = 6", None),
        ("tcp", "time, srcIP, destIP, seqno", "destPort = $port",
         {"port": 80}),
    ]

    @pytest.mark.parametrize("protocol, fields, where, params", CASES)
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_both_forms_are_the_reference(self, protocol, fields, where,
                                          params, size):
        for text in (
                f"DEFINE query_name q; Select {fields} From {protocol} "
                f"Where {where}",
                f"DEFINE query_name q; Select tb, srcIP, destIP, count(*), "
                f"sum(len) From {protocol} Where {where} "
                f"Group by time/2 as tb, srcIP, destIP"):
            lean = run_lfta(text, CORPUS, size, params=params, cls=ForcedLean)
            full = run_lfta(text, CORPUS, size, params=params, cls=Forced)
            # (the aggregation may defer too few fields to have one)
            assert "unpack_b" in loops(lean)[-1] or "Group by" in text
            assert "unpack_b" not in "".join(loops(full))
            assert lean.node.stats.discarded > 0  # the prefix killed some

    def test_the_lean_source_differs_only_ahead_of_the_row(self):
        pair = LftaPair("DEFINE query_name q; Select time, srcIP, destIP, "
                        "srcPort From tcp Where tcpflags & 18 = 2", cls=Forced)
        node = pair.node
        # the full form is built with the node, the lean one on demand
        full = node._loop(False, False).__code__
        assert full is not node._loop(False, True).__code__
        sources = loops(pair)
        assert len(sources) == 2
        actions = [source.split("m_0 += 1\n")[1] for source in sources]
        assert actions[0] == actions[1]
        assert "unpack_b" in sources[1] and "unpack_b" not in sources[0]


def loops(pair):
    """The block kernels the node's compiler recorded, in the order they
    were generated: its own loop's forms as it met them."""
    return [source for source in pair.compiler.generated_sources
            if source.startswith("def kernel(")]


class TestGates:
    """The shed gate draws per packet ahead of the guard and weighs
    additive aggregates by 1/rate; ``DEFINE sample`` draws once per
    guard-passing row, ahead of every conjunct."""

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("rate", [0.6, 0.25])
    def test_weighted_partials(self, size, rate):
        pair = run_lfta("DEFINE query_name q; Select tb, destIP, count(*), "
                        "sum(len), avg(ttl), max(len) From tcp "
                        "Where destPort >= 80 Group by time/2 as tb, destIP",
                        CORPUS, size, shed_rate=rate)
        assert pair.node.shed_packets > 0

    def test_rate_changes_between_blocks(self):
        pair = LftaPair("DEFINE query_name q; Select tb, count(*), sum(len) "
                        "From tcp Group by time/2 as tb")
        for step, block in enumerate(blocks(CORPUS, 7)):
            pair.set_shed_rate((1.0, 0.5, 0.9, 0.001)[step % 4])
            pair.both(lambda each: each.accept_batch(block), step)
        pair.flush()

    def test_projection_under_shedding(self):
        run_lfta("DEFINE query_name q; Select time, srcIP, len From tcp "
                 "Where destPort = 80", CORPUS, 7, shed_rate=0.5)

    SAMPLED = [
        "DEFINE { query_name q; sample 0.5; } Select time, srcPort, "
        "tcpflags From tcp Where tcpflags & 2 = 2",
        "DEFINE { query_name q; sample 0.3; } Select tb, destPort, "
        "count(*), sum(len) From tcp Where destPort <> 22 "
        "Group by time/2 as tb, destPort",
        "DEFINE { query_name q; sample 0.7; } Select time, str_len(data) "
        "From udp",
    ]

    @pytest.mark.parametrize("text", SAMPLED)
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("registry", sorted(REGISTRIES))
    def test_sample_draws(self, text, size, registry):
        pair = run_lfta(text, CORPUS, size, REGISTRIES[registry])
        assert pair.node.prefilter is None
        assert 0 < pair.node.sampled_out < pair.node.stats.tuples_in

    def test_sampling_and_shedding_together(self):
        run_lfta(self.SAMPLED[1], CORPUS, 7, shed_rate=0.5)


class TestGroupMembers:
    """The same action inside the block kernel's section, beside other
    members, as alone."""

    MEMBERS = [
        ("Select time, srcIP, destPort From tcp Where destPort = 80", None),
        ("Select tb, destIP, count(*), sum(len) From tcp "
         "Where tcpflags & 18 = 2 Group by time/2 as tb, destIP", None),
        ("Select time, destIP, data From tcp "
         "Where destPort = 80 and str_len(data) > 3", None),
        ("Select time, len, caplen From tcp", None),
        ("Select time, srcPort From tcp Where destPort = $port",
         {"port": 443}),
    ]

    def members(self):
        return [LftaPair("DEFINE query_name q; " + text, params=params)
                for text, params in self.MEMBERS]

    @staticmethod
    def kernel(nodes, lean=False):
        """One block kernel over ``nodes`` -- one section, as the RTS
        makes for LFTAs of one protocol on one interface."""
        section = REGISTRY.get("tcp").kernel_section(
            [node.kernel_member() for node in nodes], lean)
        return block_kernel([Branch("eth0", (section,), False)])

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("lean", [False, True])
    def test_member_of_a_shared_block(self, size, lean):
        """As members (one guard, each prefix once, its own action) and
        alone: each equals its reference after every block."""
        grouped, alone = self.members(), self.members()
        if lean:  # the member that keeps everything rules a lean form out
            grouped, alone = grouped[:3], alone[:3]
        run, source = self.kernel([pair.node for pair in grouped], lean)
        assert ("unpack_b_s0" in source) == lean
        for step, packets in enumerate(blocks(CORPUS, size)):
            run(packets)
            for pair in grouped:
                pair.reference.accept_batch(packets)
                pair.check(step)
            for pair in alone:
                pair.both(lambda each: each.accept_batch(packets), step)
        for pair in grouped + alone:
            pair.flush()
            assert pair.node.stats.tuples_out

    def test_member_source_is_the_lone_decoders_action(self):
        grouped = [pair.node for pair in self.members()]
        _, source = self.kernel(grouped)
        # one guard for the group, each member's action once
        assert source.count("unpack_s0(d)") == 1
        assert all(f"m_{g} += 1" in source for g in range(len(grouped)))
        # over a section of exactly its own fields the action is, line
        # for line, the one inside its own one-member kernel
        _, source = self.kernel(grouped[:1])

        def action(source):
            return [line.strip() for line in source.split("m_0 += 1\n")[1]
                    .split("except Exception as error:")[0].splitlines()]
        own, = (source for source in grouped[0]._compiler.generated_sources
                if source.startswith("def kernel("))
        assert action(source) == action(own)

    def test_a_block_of_another_list_is_not_used(self):
        """The shed gate keeps a subset, drawn inside each shedding
        member's own section: both stay in the kernel, one section
        each, and no run is collected for either."""
        queries = [f"DEFINE query_name m{i}; {text}"
                   for i, (text, params) in enumerate(self.MEMBERS[:2])]

        def setup(gs):
            for name in ("m0", "_fta_m1_0"):
                shed(name)(gs)
        shared = assert_same_as_alone(queries, CORPUS, setup=setup)
        plan = shared.rts._block_plan()
        assert [node.name for node in plan.members] == ["m0", "_fta_m1_0"]
        branch, = plan.branches
        assert [len(section.members) for section in branch.sections] \
            == [1, 1]
        assert not plan.runs and not branch.collect

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_engine_group_equals_each_query_alone(self, batch_size):
        queries = [f"DEFINE query_name m{i}; {text}"
                   for i, (text, params) in enumerate(self.MEMBERS)
                   if params is None]
        shared = assert_same_as_alone(queries, CORPUS, batch_size=batch_size)
        branch, = shared.rts._block_plan().branches
        section, = branch.sections
        assert len(section.members) == 4
        assert "kernel=[guard, prefixes, member actions]" in shared.explain(
            "m0")
        # its own one-member kernel, and the RTS's, once each
        assert shared.generated_code("m0").count("def kernel(") == 2

    def test_engine_group_under_shedding(self):
        queries = [f"DEFINE query_name m{i}; {text}"
                   for i, (text, params) in enumerate(self.MEMBERS)
                   if params is None]
        assert_same_as_alone(queries, CORPUS, setup=shed("_fta_m1_0"))


class TestTables:
    """Every aggregate kind in a table where every group collides,
    where most do and where few do, plain and under the shed gate's
    weight, through the block kernel and the row adapter; and no GROUP
    BY, whose one group is the empty key."""

    TEXT = ("DEFINE query_name q; Select tb, destIP, count(*), sum(len), "
            "min(ttl), max(len), avg(len) From tcp Where destPort >= 80 "
            "Group by time/2 as tb, destIP")

    @pytest.mark.parametrize("table_size", TABLE_SIZES)
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("rate", [1.0, 0.6])
    @pytest.mark.parametrize("registry", sorted(REGISTRIES))
    def test_every_aggregate_at_every_table_size(self, table_size, size,
                                                 rate, registry):
        pair = run_lfta(self.TEXT, CORPUS, size, REGISTRIES[registry],
                        table_size=table_size, shed_rate=rate)
        assert pair.node.table.collisions > 0 or table_size == 4096

    NO_GROUP_BY = [
        "Select count(*), sum(len) From tcp",
        "Select count(*), max(len), avg(ttl) From tcp Where destPort = 80",
        "Select count(*), sum(str_len(data)) From udp",
    ]

    @pytest.mark.parametrize("text", NO_GROUP_BY)
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("registry", sorted(REGISTRIES))
    def test_the_one_group_is_the_empty_key(self, text, size, registry):
        pair = run_lfta("DEFINE query_name q; " + text, CORPUS, size,
                        REGISTRIES[registry])
        table = pair.node.table
        assert table.lookups == pair.node.stats.tuples_in \
            - pair.node.stats.discarded > 0
        assert table.collisions == 0

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    @pytest.mark.parametrize("registry", [builtin_registry, without_layouts],
                             ids=["kernel", "adapter"])
    def test_end_to_end_split_and_over_a_stream(self, batch_size, registry):
        """Through the engine: the split plan (LFTA partials, HFTA
        combine) and the same aggregate over a stream source (HFTA raw
        fold, run cache on no parts) count every tcp packet once."""
        from repro import Gigascope
        gs = Gigascope(batch_size=batch_size, schema_registry=registry())
        gs.add_queries(
            "DEFINE query_name split; Select count(*), sum(len) From tcp; "
            "DEFINE query_name s; Select time, len From tcp; "
            "DEFINE query_name raw; Select count(*), sum(len) From s")
        taps = [gs.subscribe(name) for name in ("split", "raw", "s")]
        gs.start()
        gs.feed(CORPUS)
        gs.flush()
        split, raw, rows = (tap.poll() for tap in taps)
        assert rows and not gs.rts.quarantined
        assert split == raw == [(len(rows), sum(row[1] for row in rows))]


class TestSnapshotRestoreMidRun:
    @pytest.mark.parametrize("size", [7, 256])
    @pytest.mark.parametrize("text", [
        "DEFINE query_name q; Select tb, destIP, count(*), sum(len), "
        "avg(ttl) From tcp Where destPort >= 80 "
        "Group by time/2 as tb, destIP",
        "DEFINE { query_name q; sample 0.5; } Select time, srcIP From tcp",
        "DEFINE query_name q; Select time, srcIP, destIP, srcPort, destPort "
        "From tcp Where tcpflags & 18 = 2",
    ])
    def test_a_restored_node_continues_as_the_reference(self, text, size):
        """The node is replaced by one restored from its snapshot half
        way through: it continues equal to the reference, which ran on
        uninterrupted (so the snapshot carried every counter, the
        table, the high-water mark and both RNG states)."""
        pair = LftaPair(text)
        pair.set_shed_rate(0.8)
        cut = len(blocks(CORPUS, size)) // 2
        for step, block in enumerate(blocks(CORPUS, size)):
            if step == cut:
                pair.restored()
            pair.both(lambda each: each.accept_batch(block), step)
        pair.flush()


# -- the LFTA over generated streams ----------------------------------------------

#: the row-decoded protocol: a packet's bytes are the ``repr`` of its row
PROBE_ATTRIBUTES = [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("bt", UINT, Ordering.banded(3)),
    Attribute("k", UINT),
    Attribute("v", UINT),
    Attribute("f", FLOAT),
    Attribute("s", STRING),
]
PROBE_REGISTRY = builtin_registry()
PROBE_REGISTRY.add(ProtocolSchema(
    "probe", PROBE_ATTRIBUTES, {},
    expander=lambda packet: [ast.literal_eval(packet.data.decode())]))


def probe_packet(row):
    return CapturedPacket(timestamp=float(row[0]), data=repr(row).encode())


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


#: (label, query, stream, runs a block kernel)
LFTA_CONFIGS = [
    ("tcp windowed",
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


def run_stream_corpus(seeds=range(2), table_sizes=(1, 2, 7, 64),
                      block_sizes=BLOCK_SIZES, seen=None):
    """Every config x table size x block size, shedding on for every
    other one, a heartbeat every fifth block; a digest of what the
    reference emitted (stable across hash seeds).  (64 slots are the
    roomy table here; :class:`TestTables` runs one of 4096.)"""
    digest = hashlib.sha256()
    for label, query, stream, kernel in LFTA_CONFIGS:
        text = "DEFINE query_name q; " + query
        for seed in seeds:
            packets = stream(random.Random(seed * 7919 + len(label)), 320)
            for turn, table_size in enumerate(table_sizes):
                for size in block_sizes:
                    turn += 1
                    pair = LftaPair(text, PROBE_REGISTRY,
                                    table_size=table_size, seed=seed)
                    assert (pair.node.decode_fields is not None) == kernel
                    assert pair.reference.table._hash is pair.node.table._hash
                    pair.set_shed_rate((1.0, 0.6)[turn % 2])
                    for step, block in enumerate(blocks(packets, size)):
                        pair.reference.accept_batch(block)
                        pair.node.accept_batch(block)
                        if step % 5 == 4:
                            for each in (pair.node, pair.reference):
                                each.on_heartbeat(block[-1].timestamp)
                        expected = observe_reference_lfta(pair.reference)
                        assert observe_lfta(pair.node) == expected, (
                            label, seed, table_size, size, step)
                        digest.update(repr(expected[:6]).encode())
                        if seen is not None:
                            note(seen, pair.node, expected[0], size)
                    pair.flush(label)
    return digest.hexdigest()


def note(seen, node, items, size):
    """Which hard cases the corpus reached."""
    seen["collisions"] += node.table.collisions > 0
    seen["fallback_hash"] += node.table._hash is stable_hash
    seen["tuple_hash"] += node.table._hash is tuple_hash
    seen["banded"] += node._window_band > 0
    seen["windowless"] += node._window_index < 0
    seen["shed"] += node.shed_packets > 0
    seen["late"] += node.stats.discarded > 0
    kinds = [type(item) is tuple for item in items]
    if size == 256 and True in kinds and False in kinds:
        # partials on both sides of a punctuation: a window closed in
        # the middle of the block
        first = kinds.index(False)
        seen["flush_mid_block"] += True in kinds[:first] and True in kinds[first:]


class TestStreams:
    def test_corpus(self):
        seen = dict.fromkeys(
            ("collisions", "fallback_hash", "tuple_hash", "banded",
             "windowless", "shed", "late", "flush_mid_block"), 0)
        run_stream_corpus(seen=seen)
        # The corpus is only an oracle if it reaches the hard cases.
        assert all(seen.values()), seen

    def test_identical_under_two_hash_seeds(self):
        digests = set()
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        for hash_seed in ("1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           (src, os.path.join(src, ".."))))
            out = subprocess.run([sys.executable, __file__], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1 and all(digests)

    def test_late_rows_are_dropped_not_reopened(self):
        """A row below the high-water mark by more than the band is no
        reason to flush, and its window closed: it is dropped into
        ``discarded``, not put in a fresh slot that would emit that
        window a second time."""
        pair = LftaPair("DEFINE query_name q; Select tb, k, count(*) "
                        "From probe Group by time/2 as tb, k", PROBE_REGISTRY)
        rows = [(10, 10, 1, 0, 0.0, b""), (14, 14, 1, 0, 0.0, b""),
                (10, 10, 1, 0, 0.0, b""), (15, 15, 1, 0, 0.0, b"")]
        pair.reference.accept_batch([probe_packet(row) for row in rows])
        expected = observe_reference_lfta(pair.reference)
        pair.node.accept_batch([probe_packet(row) for row in rows])
        assert observe_lfta(pair.node) == expected
        assert expected[0] == [Punctuation({0: 5.0}), (5, 1, 1),
                               Punctuation({0: 7.0})]
        assert pair.node.stats.discarded == 1
        pair.flush()

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("shed_rate", [1.0, 0.5])
    def test_fold_raising_at_row_k(self, size, shed_rate):
        """``sum(v)`` meets a string at row k: the slots before it are
        folded, the group it displaced has left, the rows after it in
        the block are untouched, the packets up to it are counted."""
        rows = probe_rows(random.Random(11), 300)
        poisoned = list(rows[137])
        poisoned[3] = "boom"
        rows[137] = tuple(poisoned)
        pair = LftaPair("DEFINE query_name q; Select tb, k, count(*), sum(v), "
                        "max(f) From probe Group by time/2 as tb, k",
                        PROBE_REGISTRY, seed=3)
        pair.set_shed_rate(shed_rate)
        raised = pair.feed([probe_packet(row) for row in rows], size)
        # (under shedding the poisoned packet may itself be shed)
        assert set(raised) <= {None, TypeError}
        assert shed_rate < 1.0 or TypeError in raised
        assert pair.node.table.lookups > 0

    def test_unhashable_key_finishes_the_rows_before_it(self):
        """A key no hash covers raises from its placement, before its
        lookup counts: the engine's generated probe and ``upsert`` per
        row, the reference's, agree on the rows before it."""
        pair = LftaPair("DEFINE query_name q; Select tb, s, count(*) "
                        "From probe Group by time/2 as tb, s", PROBE_REGISTRY)
        rows = [(10, 10, 1, 0, 0.0, b"a"), (10, 10, 1, 0, 0.0, b"b"),
                (10, 10, 1, 0, 0.0, {"not": "a primitive"}),
                (10, 10, 1, 0, 0.0, b"c")]
        packets = [probe_packet(row) for row in rows]
        with pytest.raises(TypeError, match="stable_hash only covers"):
            pair.reference.table.upsert((5, {"not": "a primitive"}), tuple)
        assert pair.reference.table.lookups == 0
        assert pair.both(lambda each: each.accept_batch(packets)) is TypeError
        assert pair.node.table.lookups == 2 and len(pair.node.table) == 2
        pair.flush()
        assert sorted(item for item in pair.emitted
                      if type(item) is tuple) == [(5, b"a", 1), (5, b"b", 1)]


class TestDiscardInAggregateArgument:
    """A partial function with no result inside an aggregate argument
    discards the row whole: nothing is folded, no slot is taken, the
    window does not move -- the engine and the reference alike."""

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
        pair = LftaPair(self.QUERY.format(protocol), table_size=1)
        assert (pair.node.decode_fields is None) == (protocol == "icmp")
        packets = [self.packet(protocol, 1.0, "192.168.1.1"),
                   self.packet(protocol, 2.0, "10.9.9.9"),
                   self.packet(protocol, 3.0, "192.168.1.2")]
        pair.set_shed_rate(shed_rate)
        for rng in (pair.node._shed_rng, pair.reference.shed_rng):
            rng.random = lambda: 0.0   # the gate keeps every packet
        pair.both(lambda each: each.accept_batch(packets))
        node = pair.node
        assert node.stats.discarded == 1
        assert (node.table.lookups, node.table.collisions, len(node.table)) \
            == (2, 0, 1)
        for each in (pair.node, pair.reference):
            each.flush()
        weight = 1.0 / shed_rate
        assert pair.node.tap.drain() == pair.reference.drain() == [
            (0, 2, 10) if shed_rate == 1.0 else (0, 2 * weight, 10 * weight)]

    def test_discarded_row_does_not_advance_the_window(self):
        pair = LftaPair("DEFINE query_name q; Select tb, count(*), "
                        "sum(getlpmid(destIP, '192.168.0.0/16 5')) From tcp "
                        "Group by time/2 as tb")
        pair.both(lambda each: each.accept_batch([
            tcp_packet(ts=1.0, dst="192.168.1.1"),
            tcp_packet(ts=9.0, dst="10.9.9.9"),
            tcp_packet(ts=1.5, dst="192.168.1.2")]))
        assert pair.node._high_water == 0 and pair.node.stats.discarded == 1
        pair.node.flush()
        assert [item for item in pair.node.tap.drain()
                if type(item) is tuple] == [(0, 2, 10)]


# -- the LFTA's key-run cache under Hypothesis ---------------------------------------

#: source ports: ``keep`` drops multiples of five
PORTS = [1, 2, 3, 5, 10, 11]
_FRAMES = {}


def frame(sport, dport, length):
    """A TCP frame of ``length`` payload bytes, built once."""
    key = sport, dport, length
    if key not in _FRAMES:
        _FRAMES[key] = build_tcp_frame("10.0.0.1", "10.0.0.2", sport, dport,
                                       payload=b"p" * length)
    return _FRAMES[key]


@st.composite
def packet_runs(draw):
    """Packets as runs of one source port or two alternating ones; the
    clock mostly stands still inside a run (``time/4`` moves inside
    some), a packet is now and then late, and between runs a
    heartbeat, a new ``$off`` or a new shed rate may fall."""
    items = []
    now = draw(st.integers(0, 40))
    for _ in range(draw(st.integers(1, 6))):
        ports = draw(st.lists(st.sampled_from(PORTS), min_size=1, max_size=2))
        dport = draw(st.sampled_from([80, 80, 7]))
        length = draw(st.sampled_from([1, 2, 3, 9, 40, 260]))
        advance = draw(st.sampled_from([0, 0, 1, 3]))
        for position in range(length):
            if draw(st.integers(0, 19)) == 0:
                now += advance
            late = draw(st.integers(0, 29)) == 0
            items.append(CapturedPacket(
                timestamp=(max(0, now - 9) if late else now) + 0.25,
                data=frame(ports[position % len(ports)], dport,
                           draw(st.sampled_from([0, 0, 1, 5, 6, 7]))),
                interface="eth0"))
        between = draw(st.sampled_from([None, None, "heartbeat", "param",
                                        "shed"]))
        if between == "heartbeat":
            items.append(("heartbeat", float(now)))
        elif between == "param":
            items.append(("param", draw(st.sampled_from([0, 1, 7]))))
        elif between == "shed":
            items.append(("shed", draw(st.sampled_from([1.0, 0.5, 0.8]))))
        now += advance
    return items


def lfta_drive(pair, items, size):
    """Blocks of ``size`` packets, what falls between runs to both
    sides; compared after every block and every control step."""
    pending = []
    for item in items + [None]:
        if isinstance(item, CapturedPacket):
            pending.append(item)
            continue
        pair.feed(pending, size)
        pending = []
        if item is None:
            break
        what, value = item
        if what == "heartbeat":
            pair.both(lambda each: each.on_heartbeat(value))
        elif what == "param":
            pair.set_param("off", value)
        else:
            pair.set_shed_rate(value)
    pair.flush()


LFTA_QUERIES = {
    "window and key": "Select tb, srcPort, count(*), sum(len), min(ttl) "
                      "From tcp Group by time/4 as tb, srcPort",
    "key before window": "Select srcPort, tb, count(*), avg(len), "
                         "max(len) From tcp Group by srcPort, time/4 as tb",
    "window only": "Select tb, count(*), sum(len) From tcp "
                   "Group by time/4 as tb",
    "no window": "Select srcPort, destPort, count(*), sum(len) From tcp "
                 "Group by srcPort, destPort",
    "no group by": "Select count(*), sum(len) From tcp Where destPort <> 7",
    "discard in the key": "Select tb, kp, count(*), sum(len) From tcp "
                          "Group by time/4 as tb, keep(srcPort) as kp",
    "discard in an argument": "Select tb, srcPort, count(*), "
                              "sum(keep(len)) From tcp "
                              "Group by time/4 as tb, srcPort",
    "predicate kills": "Select tb, srcPort, count(*) From tcp "
                       "Where destPort <> 7 and keep(len + 1) > 0 "
                       "Group by time/4 as tb, srcPort",
    "parameter in the key": "Select tb, kp, count(*), sum(len) From tcp "
                            "Group by time/4 as tb, srcPort + $off as kp",
    "fold raises": "Select tb, srcPort, count(*), sum(boom(len)) From tcp "
                   "Group by time/4 as tb, srcPort",
    "every aggregate": "Select tb, srcPort, count(*), sum(len), min(ttl), "
                       "max(len), avg(len) From tcp "
                       "Group by time/4 as tb, srcPort",
}

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def at_every_block_size(select, registry, table_size, items,
                        define="query_name q"):
    for size in BLOCK_SIZES:
        pair = LftaPair(f"DEFINE {{ {define}; }} {select}",
                        REGISTRIES[registry], {"off": 0}, table_size)
        assert pair.plan.mode == "partial_aggregation"
        lfta_drive(pair, items, size)


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
@pytest.mark.parametrize("label", sorted(LFTA_QUERIES))
@SETTINGS
@given(items=packet_runs(), table_size=st.sampled_from([1, 2, 7, 64]))
def test_lfta_cache_never_shows(label, registry, items, table_size):
    at_every_block_size(LFTA_QUERIES[label], registry, table_size, items)


def stamped(runs):
    """``(time, srcPort, payload)`` triples as packets to port 80."""
    return [CapturedPacket(timestamp=ts + 0.25, data=frame(port, 80, size),
                           interface="eth0") for ts, port, size in runs]


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
@pytest.mark.parametrize("items", [
    # alternating keys in a one-slot table: every change ejects the
    # cached group's slot-mate, which then comes back
    stamped([(8, 1, 0), (8, 2, 0)] * 5 + [(8, 1, 1)] * 3),
    # the window moves inside a run of one port; a late row reopens
    stamped([(8, 3, 0), (9, 3, 0), (12, 3, 1), (13, 3, 0), (5, 3, 0),
             (16, 3, 0)]),
    # a discarded key mid-run, then the run resumes
    stamped([(8, 1, 0), (8, 1, 0), (8, 5, 0), (8, 1, 0), (8, 10, 0),
             (8, 1, 6)]),
    # the fold raises mid-run, on a run's first row, and after a flush
    stamped([(8, 1, 0), (8, 1, 6), (8, 1, 0), (8, 2, 6), (8, 2, 0),
             (13, 2, 0), (13, 2, 6)]),
], ids=["slot-mates", "window", "discard", "raise"])
def test_lfta_cache_at_the_edges(registry, items):
    for label in ("window and key", "discard in the key", "fold raises",
                  "every aggregate"):
        at_every_block_size(LFTA_QUERIES[label], registry, 1, items)
        at_every_block_size(LFTA_QUERIES[label], registry, 3,
                            items + [("heartbeat", 30.0)] + items)


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
@SETTINGS
@given(items=packet_runs())
def test_lfta_sample_gate_and_shed_weights(registry, items):
    """``DEFINE sample`` draws once per row ahead of the cache, the shed
    gate once per packet, and the Horvitz-Thompson weight rides on
    both paths of the fold."""
    at_every_block_size(LFTA_QUERIES["window and key"], registry, 3,
                        [("shed", 0.6)] + items,
                        define="query_name q; sample 0.5")



# -- the HFTA: engine node and reference side by side --------------------------------

SOURCE = StreamSchema("src", [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("bt", UINT, Ordering.banded(3)),
    Attribute("k", FLOAT),
    Attribute("v", UINT),
])
#: the builtin protocols plus ``probe``, a protocol with ``src``'s
#: attributes: a query over it splits, and its HFTA combines partials
SPLIT_REGISTRY = builtin_registry()
SPLIT_REGISTRY.add(ProtocolSchema("probe", SOURCE.attributes, {},
                                  expander=lambda packet: []))


class HftaPair(Pair):
    """The engine's ``AggregationNode`` of ``text``'s HFTA, with a
    tap, and the reference of the same plan."""

    def __init__(self, text, registry=SPLIT_REGISTRY, partial_output=False,
                 source=SOURCE):
        analyzed, plan, compiler, functions = compiled(
            text, registry, streams={source.name: source})
        self.plan = plan.hfta
        self.node = AggregationNode(self.plan, analyzed, compiler, seed=SEED)
        self.reference = RowAggregation(self.plan, analyzed, functions,
                                        compiler.params, SEED)
        if partial_output:
            self.node.enable_partial_output()
            self.reference.emit_partials()
        self.node.tap = self.node.subscribe()

    def check(self, where=""):
        assert observe_hfta(self.node) == observe_reference_hfta(
            self.reference), where

    def drive(self, items, size, end=FLUSH):
        """Runs of tuples in blocks of ``size``, control items singly,
        in order, then ``end``: what ``pump`` does with a channel."""
        pending = []
        raised = []
        for item in items + [end]:
            if type(item) is tuple:
                pending.append(item)
                continue
            for block in blocks(pending, size):
                raised.append(self.both(
                    lambda each: each.dispatch_batch(block, 0)))
            pending = []
            if item is not None:
                raised.append(self.both(lambda each: each.dispatch(item, 0)))
        return raised


def observe_hfta(node):
    state = node.snapshot_state()
    return (node.tap.drain(), stats_of(node), node.groups_emitted,
            list(zip(state["keys"], zip(*state["columns"]))),
            node._high_water, state["sample_rng"])


def observe_reference_hfta(reference):
    return (reference.drain(), stats_of(reference), reference.groups_emitted,
            reference.open_groups(), reference.high_water,
            reference.sample_rng and reference.sample_rng.getstate())


NAN = math.nan
OTHER_NAN = float("nan")
#: key values: equal across types, equal across signs, never equal
KEYS = [1, 1.0, True, 2, 0.0, -0.0, 0, False, NAN, OTHER_NAN, 2.5]


@st.composite
def streams(draw):
    """Rows ``(time, bt, k, v)`` as runs: each run repeats one key
    value for a while or alternates between two, the clock mostly
    stands still inside a run and the banded attribute wanders within
    its band -- with a punctuation on ``time`` now and then."""
    items = []
    now = draw(st.integers(0, 50))
    for _ in range(draw(st.integers(1, 8))):
        keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=2))
        length = draw(st.sampled_from([1, 2, 3, 9, 40, 260]))
        advance = draw(st.sampled_from([0, 0, 0, 1, 12]))
        for position in range(length):
            if draw(st.integers(0, 19)) == 0:
                now += advance
            late = draw(st.integers(0, 29)) == 0
            items.append((max(0, now - 11) if late else now,
                          max(0, now - draw(st.integers(0, 3))),
                          keys[position % len(keys)],
                          draw(st.integers(0, 12))))
        if draw(st.booleans()):
            items.append(Punctuation({0: now}))
        now += advance
    return items


def as_partials(items):
    """Stream items as an LFTA of ``Group by bt as b, k`` with COUNT,
    SUM, MIN, MAX and AVG would eject them, one row per group: the key,
    then the partial slots (AVG's sum and count).  A ``v`` of 12 stands
    for an untouched group's partial, whose MIN and MAX are None."""
    return [item if type(item) is not tuple
            else (item[1], item[2], 0, 0, None, None, 0.0, 0)
            if item[3] == 12
            else (item[1], item[2], 1, item[3], item[3], item[3],
                  item[3] + 0.0, 1)
            for item in items]


QUERIES = {
    "window and key": "Select tb, k, count(*), sum(v), min(v) From src "
                      "Group by time/10 as tb, k",
    "key before window": "Select k, tb, count(*), avg(v) From src "
                         "Group by k, time/10 as tb",
    "banded window": "Select b, k, count(*), max(v) From src "
                     "Group by bt as b, k",
    "window only": "Select tb, count(*), sum(v) From src "
                   "Group by time/10 as tb",
    "runs": "Select tb, count(*), sum(v), min(v), max(v) From src "
            "Group by time/10 as tb",
    "no window": "Select k, count(*), sum(v) From src Group by k",
    "no group by": "Select count(*), sum(v), min(keep(v)) From src "
                   "Where v <> 7",
    "discard in the key": "Select tb, kv, count(*), sum(v) From src "
                          "Group by time/10 as tb, keep(v) as kv",
    "discard in an argument": "Select tb, k, count(*), sum(keep(v)) "
                              "From src Group by time/10 as tb, k",
    "predicate kills": "Select tb, k, count(*), sum(v) From src "
                       "Where v <> 7 and keep(v + 1) > 0 "
                       "Group by time/10 as tb, k",
    "having": "Select tb, k, count(*) From src Group by time/10 as tb, k "
              "Having count(*) > 2",
    "every aggregate": "Select tb, k, count(*), sum(v), min(v), max(v), "
                       "avg(v) From src Group by time/10 as tb, k",
    "banded, every aggregate": "Select b, k, count(*), sum(v), min(v), "
                               "max(v), avg(v) From src "
                               "Group by bt as b, k",
    "having raises": "Select b, k, count(*), avg(v) From src "
                     "Group by bt as b, k Having crash(count(*)) > 0",
    "select list raises": "Select tb, k, crash(sum(v)), min(v), avg(v) "
                          "From src Group by time/10 as tb, k",
}

#: superaggregates over ``probe``, fed :func:`as_partials` rows
SUPERAGGREGATES = {
    "every aggregate": "Select b, k, count(*), sum(v), min(v), max(v), "
                       "avg(v) From probe Group by bt as b, k",
    "having raises": "Select b, k, count(*), sum(v), min(v), max(v), "
                     "avg(v) From probe Group by bt as b, k "
                     "Having crash(count(*)) > 0",
    "select list raises": "Select b, k, count(*), sum(v), min(v), max(v), "
                          "crash(sum(v) % 7) From probe Group by bt as b, k",
}


@pytest.mark.parametrize("label", sorted(QUERIES))
@SETTINGS
@given(items=streams())
@example(items=[(10, 10, 1, 1), (10, 10, 1.0, 2), (10, 10, True, 3),
                (10, 10, 2, 4), (10, 10, 1, 5)])
@example(items=[(10, 10, NAN, 1), (10, 10, NAN, 2), (10, 10, OTHER_NAN, 3),
                (10, 10, NAN, 4)])
@example(items=[(10, 9, 1, 1), (10, 10, 1, 2), (11, 14, 1, 3),
                (11, 11, 1, 4), (11, 14, 1, 6), (12, 18, 1, 7)])
@example(items=[(10, 10, 1, 5), (10, 10, 1, 1), (10, 10, 1, 10),
                (30, 30, 1, 5), (10, 10, 1, 2), (30, 30, 1, 2)])
def test_hfta_cache_never_shows(label, items):
    for size in BLOCK_SIZES:
        HftaPair("DEFINE query_name q; " + QUERIES[label]).drive(items, size)


@pytest.mark.parametrize("label", sorted(SUPERAGGREGATES))
@SETTINGS
@given(items=streams())
@example(items=[(10, 10, 1, 1), (10, 11, 1, 12), (10, 12, 1, 1),
                (10, 12, 2, 1), (10, 12, 2, 12), (10, 12, 2, 1),
                (10, 15, 2, 1), (10, 16, 1, 1), (10, 17, 1, 1)])
def test_superaggregate(label, items):
    """The combine of partials, untouched groups' included, and its
    close."""
    for size in BLOCK_SIZES:
        HftaPair("DEFINE query_name q; " + SUPERAGGREGATES[label]).drive(
            as_partials(items), size)


@SETTINGS
@given(items=streams())
def test_hfta_sample_gate_draws_once_per_row_in_order(items):
    for size in BLOCK_SIZES:
        pair = HftaPair("DEFINE { query_name q; sample 0.5; } "
                        + QUERIES["window and key"])
        assert pair.node._sample_rate == 0.5
        pair.drive(items, size)


@pytest.mark.parametrize("label", ["window and key", "every aggregate",
                                   "no window", "runs"])
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_partial_output(label, size):
    """A superaggregate producer emits ``key + partials``, punctuated
    on the window key's place in the key."""
    items = [(t // 3, t // 3, t % 4, t % 13) for t in range(30, 600)]
    HftaPair("DEFINE query_name q; " + QUERIES[label],
             partial_output=True).drive(items, size)


class TestSplit:
    """Both levels of one plan: what the plan's own LFTA ejects for a
    probe stream -- ejections, window punctuation and all -- is what its
    superaggregate combines."""

    CONFIGS = [
        "Select tb, k, count(*), sum(v), avg(v), min(v), max(v) From probe "
        "Group by time/2 as tb, k",
        "Select tb, count(*), sum(v) From probe Group by time/2 as tb "
        "Having count(*) > 3",
        "Select k, tb, count(*), sum(v) From probe Group by k, time/2 as tb",
        "Select b, k, count(*), max(v) From probe Group by bt as b, k",
        "Select k, count(*), avg(v) From probe Group by k",
    ]

    @pytest.mark.parametrize("text", CONFIGS)
    @pytest.mark.parametrize("table_size", TABLE_SIZES)
    def test_lfta_output_through_the_superaggregate(self, text, table_size):
        text = "DEFINE query_name q; " + text
        for seed in range(2):
            lfta = run_lfta(text, probe_stream(random.Random(seed), 400), 256,
                            PROBE_REGISTRY, table_size=table_size)
            assert lfta.emitted
            for size in BLOCK_SIZES:
                HftaPair(text, PROBE_REGISTRY).drive(lfta.emitted, size)


class TestHftaEdges:
    @pytest.mark.parametrize("partials", [True, False])
    def test_fold_raising_at_row_k(self, partials):
        """Row 3's window closes the first; its group opens and
        ``count(*)`` folds; ``sum(v)`` meets a string and raises."""
        if partials:
            pair = HftaPair("DEFINE query_name q; Select tb, k, count(*), "
                            "sum(v) From probe Group by time/2 as tb, k")
            rows = [(5, 1, 2, 20), (5, 2, 1, 7), (6, 1, 1, "boom"),
                    (6, 2, 1, 1)]
        else:
            pair = HftaPair("DEFINE query_name q; Select tb, k, count(*), "
                            "sum(v) From src Group by time/2 as tb, k")
            rows = [(10, 10, 1, 20), (11, 11, 2, 7), (12, 12, 1, "boom"),
                    (13, 13, 2, 1)]
        assert pair.both(lambda each: each.dispatch_batch(rows, 0)) \
            is TypeError
        assert pair.node.open_groups == 1 and pair.node.groups_emitted == 2

    def test_discard_in_an_argument(self):
        """Arguments are evaluated before the group exists: a row whose
        argument has no result neither opens a group nor moves the
        window."""
        source = StreamSchema("dst", [
            Attribute("time", UINT, Ordering.increasing()),
            Attribute("destIP", UINT)])
        pair = HftaPair("DEFINE query_name q; Select tb, count(*), "
                        "sum(getlpmid(destIP, '192.168.0.0/16 5')) From dst "
                        "Group by time/60 as tb", source=source)
        inside, outside = (192 << 24) | (168 << 16) | 1, 10 << 24
        pair.drive([(1, inside), (2, outside), (3, inside + 1), (200, outside)],
                   256, end=None)
        assert pair.node.stats.discarded == 2 and pair.node.open_groups == 1
        pair.drive([], 1)

    def test_cache_does_not_outlive_the_block(self):
        """A punctuation between two blocks closes the group the first
        block's run was folding into; the second block must not fold
        into the closed state (its rows reopen the window: a punctuation
        moves no high-water mark)."""
        pair = HftaPair("DEFINE query_name q; " + QUERIES["window only"])
        pair.drive([(10, 10, 1, 1)] * 3 + [Punctuation({0: 25})]
                   + [(10, 10, 1, 1)] * 2, 256)
        assert pair.node.groups_emitted == 2

    def test_flush_inside_a_run_refills_the_cache(self):
        """Banded window: ``bt`` climbs inside a run of one ``k``; each
        new high-water mark flushes below the band and the probe after
        it finds (or recreates) the right group."""
        HftaPair("DEFINE query_name q; " + QUERIES["banded window"]).drive(
            [(10, bt, 1, bt) for bt in (5, 5, 6, 9, 9, 5, 13, 13, 9, 20)], 256)

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_a_partial_close_compacts_and_a_raise_leaves_groups_open(
            self, size):
        """Banded window (band 3): a new high-water mark closes the
        groups more than the band below it and keeps the rest, whose
        rows move down.  The close that meets a group of three rows
        raises there: the groups after it stay open, in their rows, and
        the next close emits them."""
        pair = HftaPair("DEFINE query_name q; " + QUERIES["having raises"])
        node = pair.node
        # b = 1, 2, 3 for k = 1, 2; then b = 5 closes b < 2
        pair.drive([(10, b, k, b) for b in (1, 2, 3) for k in (1, 2)]
                   + [(10, 5, 1, 5), (10, 5, 2, 5)], size, end=None)
        assert node.open_groups == len(node._columns[0]) == 6
        assert node.groups_emitted == 2
        # (2, 2) grows to three rows; b = 7 closes b < 4 and raises there
        raised = pair.drive([(10, 2, 2, 7), (10, 2, 2, 8), (10, 7, 3, 1)],
                            size, end=None)
        assert Crash in raised and node.groups_emitted == 3
        assert list(node._groups) == [(3, 1), (3, 2), (5, 1), (5, 2)]
        assert list(node._groups.values()) == [0, 1, 2, 3]
        assert node._columns[0] == [1, 1, 1, 1]
        pair.drive([(10, 9, 1, 4)], size)
        assert node.groups_emitted == 8 and node.open_groups == 0

    def test_a_partial_reads_each_of_its_slots(self):
        """AVG combines its two partial slots (sum, count), every other
        aggregate one."""
        pair = HftaPair("DEFINE query_name q; Select tb, count(*), sum(len), "
                        "min(len), max(len), avg(len), min(destPort) "
                        "From tcp Group by time/10 as tb", REGISTRY)
        assert pair.node.from_partials
        pair.both(lambda each: each.dispatch_batch(
            [(3, 1, 2, 3, 4, 5, 6, 7)], 0))
        assert pair.reference.open_groups() == [((3,), (1, 2, 3, 4, 5, 6, 7))]
        pair.drive([], 1)


# -- what the generated loops are made of -------------------------------------------

class TestGeneratedKernels:
    """The folds are generated per plan, straight-line per aggregate."""

    AGGREGATES = ("count(*), sum(len), min(len), max(len), avg(len), "
                  "min(destPort), sum(destPort)")
    #: the run loop's aggregates: the same but AVG (a float total)
    RUN_AGGREGATES = ("count(*), sum(len), min(len), max(len), "
                      "min(destPort), sum(destPort)")
    SOURCE = StreamSchema("s", [
        Attribute("time", UINT, Ordering.increasing()),
        Attribute("destIP", IP), Attribute("len", UINT),
        Attribute("destPort", UINT)])

    def raw(self, aggregates=AGGREGATES):
        return HftaPair(f"DEFINE query_name q; Select tb, {aggregates} From s "
                        "Group by time/10 as tb", source=self.SOURCE)

    def split(self, aggregates=AGGREGATES):
        text = (f"DEFINE query_name q; Select tb, {aggregates} From tcp "
                "Group by time/10 as tb")
        return LftaPair(text), HftaPair(text, REGISTRY)

    @staticmethod
    def source_of(node, fn):
        source, = (source for source in node._compiler.generated_sources
                   if source.startswith(f"def {fn.__name__}("))
        return source

    def test_every_aggregate_name_is_covered(self):
        rows = self.raw().plan
        assert {agg.name for agg in rows.aggregates} == {
            "COUNT", "SUM", "MIN", "MAX", "AVG"}
        assert rows.run_note == "a float total"
        runs = self.raw(self.RUN_AGGREGATES).plan
        assert {agg.name for agg in runs.aggregates} == {
            "COUNT", "SUM", "MIN", "MAX"}
        assert runs.run_slot == 0
        # ... and the corpus reaches the run loop
        assert HftaPair("DEFINE query_name q; " + QUERIES["runs"]
                        ).plan.run_slot is not None

    def test_kernels_are_generated_sources(self):
        rows = self.raw().node
        runs = self.raw(self.RUN_AGGREGATES).node
        lfta, hfta = self.split()
        row_loop = self.source_of(rows, rows._aggregate)
        run_loop = self.source_of(runs, runs._aggregate)
        combine = self.source_of(hfta.node, hfta.node._aggregate)
        kernel, = loops(lfta)
        # Straight-line per aggregate: no loop over the list, no name
        # dispatch -- the one loop is over rows, or runs.
        for source in (row_loop, run_loop, combine, kernel):
            assert "COUNT" not in source and "enumerate" not in source
        assert row_loop.count("for ") == 1 and "c0[r] += 1" in row_loop
        assert "c2.append(None)" in row_loop   # MIN starts unset
        assert "groupby(" in run_loop and "c0[r] += n" in run_loop
        assert "v1 = sum(map(get2, run))" in run_loop
        assert "c0[r] += t[1]" in combine and "+= 1" not in combine
        assert "c0_0[i_0] += 1" in kernel and "c0_0[i_0] += w_0" in kernel

    def test_superaggregate_plan_generates_only_combine(self):
        _lfta, hfta = self.split()
        node = hfta.node
        assert node.from_partials
        source = self.source_of(node, node._aggregate)
        assert node._aggregate.__name__.startswith("_g")
        assert "c0[r] += t[1]" in source
        assert "v1 = " not in source and "groupby(" not in source

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("rate", [1.0, 0.4, 0.3])
    def test_split_folds_every_aggregate(self, size, rate):
        """The LFTA's fold, plain and weighted, and the superaggregate
        over what it ejected."""
        lfta = run_lfta("DEFINE query_name q; Select tb, d, "
                        f"{self.AGGREGATES} From tcp "
                        "Group by time/10 as tb, srcPort % 3 as d",
                        CORPUS, size, shed_rate=rate)
        assert lfta.emitted

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("aggregates", [AGGREGATES, RUN_AGGREGATES],
                             ids=["rows", "runs"])
    def test_raw_folds_every_aggregate(self, size, aggregates):
        rng = random.Random(5)
        rows = [(12 * index // 300 * 10 // 3, rng.randrange(1, 2000),
                 rng.randrange(1, 2000), rng.randrange(1, 2000))
                for index in range(300)]
        self.raw(aggregates).drive(rows, size)

    def test_discard_in_an_argument_touches_no_state(self):
        """Arguments before state: a partial function with no result
        discards the row before any column is folded -- ``count(*)``,
        which comes first in the list, must not have been bumped, and
        no group opens."""
        # An inline one-prefix table: no row's destIP (< 2000) is in it.
        aggregates = ("count(*), sum(getlpmid(destIP, '10.0.0.0/8 1')), "
                      "max(len)")
        pair = self.raw(aggregates)
        assert pair.plan.run_note == "sum of an expression"
        pair.drive([(i, i, i, i) for i in range(10)], 256, end=None)
        assert pair.node.stats.discarded == 10
        assert pair.node.open_groups == 0
        lfta, _ = self.split(aggregates)
        lfta.both(lambda each: each.accept_batch(
            [tcp_packet(ts=1.0 + i) for i in range(10)]))
        assert lfta.node.stats.discarded == 10
        assert lfta.node.table.snapshot_state()["slots"] == []


class TestWhatTheCacheSkips:
    def test_one_probe_per_run_not_per_row(self):
        """Counted on the dict itself: 1000 rows, two keys, two runs."""
        node = HftaPair("DEFINE query_name q; " + QUERIES["window and key"]
                        ).node

        class Counting(dict):
            probes = 0

            def get(self, key):
                Counting.probes += 1
                return dict.get(self, key)
        node._groups = Counting()
        node.dispatch_batch([(10, 10, 1, 1)] * 500 + [(10, 10, 2, 1)] * 500,
                            0)
        assert Counting.probes == 2
        state = node.snapshot_state()
        assert (state["keys"], state["columns"]) == (
            [(1, 1), (1, 2)], [[500, 500], [500, 500], [1, 1]])

    def test_generated_source_names_the_cache(self):
        node = HftaPair("DEFINE query_name q; " + QUERIES["window and key"]
                        ).node
        kernel, = (source for source in node._compiler.generated_sources
                   if "groups.get(k)" in source)
        assert "if r is None or g0 != k0 or g1 != k1:" in kernel
        assert kernel.index("groups.get(k)") > kernel.index("g1 != k1")

    def test_lfta_one_probe_per_run_not_per_row(self):
        """Counted on the key array: 1000 packets, two ports, two runs
        -- two slot reads, 1000 lookups."""
        node = LftaPair("DEFINE query_name q; " + LFTA_QUERIES["window and key"],
                        table_size=64).node

        class Counting(list):
            reads = 0

            def __getitem__(self, index):
                Counting.reads += 1
                return list.__getitem__(self, index)
        node.table.keys = Counting(node.table.keys)
        node.accept_batch(stamped([(8, 1, 0)] * 500 + [(8, 2, 0)] * 500))
        assert Counting.reads == 2
        assert node.table.lookups == 1000
        assert node.table.snapshot_state()["columns"] == [
            [500, 500], [27000, 27000], [64, 64]]

    def test_the_lfta_probe_is_inside_the_changed_branch(self):
        pair = LftaPair("DEFINE query_name q; " + LFTA_QUERIES["window and key"],
                        table_size=64)
        source, = loops(pair)
        lines = source.splitlines()
        test = next(i for i, line in enumerate(lines) if line.strip()
                    == "if i_0 is None or g0_0 != k0_0 or g1_0 != k1_0:")
        depth = len(lines[test]) - len(lines[test].lstrip())
        end = next(i for i in range(test + 1, len(lines))
                   if len(lines[i]) - len(lines[i].lstrip()) <= depth)
        branch = "\n".join(lines[test:end])
        for probe in ("hash(k_0)", "node_0._flush_below(",
                      "e_0 = keys_0[i_0]"):
            assert source.count(probe) == branch.count(probe) == 1
        assert lines[end:end + 2] == [" " * depth + "else:",
                                      " " * depth + "    lookups_0 += 1"]


class TestExplainNamesTheKernel:
    def explain(self, *queries, name=None):
        from repro import Gigascope
        gs = Gigascope()
        names = [gs.add_query(text) for text in queries]
        return gs.explain(name or names[0])

    @pytest.mark.parametrize("text, stages", [
        ("Select time, destIP, len From tcp Where destPort = 80",
         "guard, prefix, select"),
        ("Select time From tcp", "guard, select"),
        ("Select time From tcp Where destPort = 80 and str_len(data) > 3",
         "guard, prefix, filter, select"),
        ("Select time From tcp Where str_len(data) > 3",
         "guard, filter, select"),
        ("Select tb, count(*) From tcp Where destPort = 80 "
         "Group by time/2 as tb", "guard, prefix, key, table"),
        ("Select tb, srcIP, count(*) From udp Group by time/2 as tb, srcIP",
         "guard, key, table"),
        ("Select time From icmp Where icmp_type = 8",
         "adapter, filter, select"),
    ])
    def test_stages_in_order(self, text, stages):
        assert f"kernel=[{stages}]" in self.explain(
            "DEFINE query_name q; " + text)

    def test_a_sampled_plan_draws_after_the_guard(self):
        assert "kernel=[guard, sample, filter, select]" in self.explain(
            "DEFINE { query_name q; sample 0.5; } Select time From tcp "
            "Where destPort = 80")

    def test_a_group_member_says_so(self):
        text = self.explain(
            "DEFINE query_name a; Select time From tcp Where destPort = 80",
            "DEFINE query_name b; Select time, srcIP From tcp")
        assert "kernel=[guard, prefix, select]" in text   # alone, or shed
        assert text.count("kernel=[guard, prefixes, member actions]") == 1

    def test_run_cache_key_per_aggregation(self):
        raw = self.explain(
            "DEFINE query_name s; Select time, destIP, len From tcp",
            "DEFINE query_name q; Select tb, destIP, count(*) From s "
            "Group by time/10 as tb, destIP", name="q")
        assert "run-cache=[time / 10, destIP]" in raw
        split = self.explain("DEFINE query_name q; Select tb, count(*) "
                             "From tcp Group by time/5 as tb")
        lfta, hfta = split.splitlines()[1:3]
        assert lfta.startswith("  LFTA ")
        assert lfta.endswith("kernel=[guard, key, table] run-cache=[time / 5]")
        assert hfta.endswith("run-cache=none (combines partials)")
        # a projecting LFTA folds nothing
        assert "run-cache" not in self.explain(
            "DEFINE query_name s; Select time, destIP, len From tcp")


if __name__ == "__main__":
    print(run_stream_corpus(seeds=range(1), table_sizes=(7,),
                            block_sizes=(7, 256)))
