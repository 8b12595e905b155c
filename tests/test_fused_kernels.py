"""The row-fused LFTA kernels against the frozen decode-then-select/key
path (DESIGN sections 14 and 18).

``tests/frozen_decode_select.py`` keeps the multi-pass front end as it
stood at 355ece7: decode a block, gather columns, select or key, place
the block's keys, then aggregate.  Here every plan runs through it and
through the engine's one generated loop (``accept_batch``'s one-member
block kernel, or the row adapter), side by side on two nodes, in
blocks of 1, 7 and 256: the items on the output channel in order,
``NodeStats``, ``sampled_out``, ``packets_seen``, ``shed_packets``,
``columnar_blocks``, the table's ``lookups``/``occupied``/``collisions``
and the encoded ``snapshot_state`` (table contents, both RNG states)
must be equal -- over ``tests/test_prefilter.py``'s corpus (truncations,
IP options, TCP options, fragments, snapped frames) and its 18 conjunct
shapes, for header-only and ``data`` payload plans, under shedding with
the Horvitz-Thompson weight, with a ``DEFINE sample`` draw, through the
lean form and the full one, as a member of a block kernel's decode
group and alone, and across a snapshot/restore in the middle of the
run.  CI's
``columnar-smoke`` job runs this file under two hash seeds.

Nothing here raises mid-block: what an exception leaves behind is the
one place the two differ by design (``tests/test_row_exactness.py``).
"""

import pytest

from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import builtin_registry
from repro.gsql.semantic import analyze
from repro.net.columnar import Branch, block_kernel
from repro.operators.lfta import LftaNode
from repro.recovery.wire import decode_snapshot, encode_snapshot

from tests.frozen_decode_select import FrozenCompiler, FrozenLfta
from tests.test_prefilter import (BLOCK_SIZES, CORPUS, FIELDS, SHAPES, blocks,
                                  decode_then_filter, without_layouts)
from tests.test_shared_decode import assert_same_as_alone, shed

SEED = 7
REGISTRY = builtin_registry()
#: the same protocols without their layouts: every LFTA on the row adapter
LAYOUTLESS = without_layouts()


def compiled(text, params, registry, compiler):
    functions = builtin_functions()
    analyzed = analyze(parse_query(text), registry, functions)
    plan = plan_query(analyzed, functions)
    return analyzed, plan.lftas[0], compiler(analyzed, functions, params)


def build(cls, compiler, text, params=None, registry=REGISTRY, **kwargs):
    analyzed, plan, compiler = compiled(text, params, registry, compiler)
    node = cls(plan, analyzed, compiler, seed=SEED, **kwargs)
    node.tap = node.subscribe()
    node.compiler = compiler
    return node


def loops(node):
    """The block kernels the node's compiler recorded, in the order they
    were generated: its own loop's forms as it met them."""
    return [source for source in node.compiler.generated_sources
            if source.startswith("def kernel(")]


def has_layout(node):
    return node.protocol.columnar_decoder is not None


def pair(text, params=None, registry=REGISTRY, fused=LftaNode, **kwargs):
    """(frozen, fused) nodes of one plan, each with its own compiler."""
    return (build(FrozenLfta, FrozenCompiler, text, params, registry,
                  **kwargs),
            build(fused, ExprCompiler, text, params, registry, **kwargs))


def observe(node):
    stats = node.stats
    table = node.table
    return (node.tap.drain(),
            (stats.tuples_in, stats.tuples_out, stats.discarded,
             stats.punctuations_out),
            node.sampled_out, node.packets_seen, node.shed_packets,
            node.columnar_blocks,
            None if table is None else (table.lookups, table.occupied,
                                        table.collisions),
            encode_snapshot(node.snapshot_state()))


def assert_in_step(frozen, fused, packets, size, where=""):
    """Feed both nodes the same blocks; compare after every block (every
    50th at size 1), after the end-of-stream flush, and in total."""
    produced = 0
    every = 50 if size == 1 else 1
    for step, block in enumerate(blocks(packets, size)):
        frozen.accept_batch(block)
        fused.accept_batch(block)
        if step % every == 0:
            expected = observe(frozen)
            assert observe(fused) == expected, f"{where} block {step}"
            produced += len(expected[0])
    for node in (frozen, fused):
        node.flush()
    expected = observe(frozen)
    assert observe(fused) == expected, f"{where} flush"
    return produced + len(expected[0])


def plans(shape):
    """Header-only and payload plans, projection and partial
    aggregation, behind one WHERE clause."""
    protocol, where, _, _ = SHAPES[shape]
    # ip has no payload attribute: its bit fields stand in
    wide, size = (("id, more_fragments, ipversion", "frag_offset")
                  if protocol == "ip" else ("data", "str_len(data)"))
    plans = [
        f"Select {FIELDS[protocol]} From {protocol} Where {where}",
        f"Select tb, destIP, count(*), sum(len) From {protocol} "
        f"Where {where} Group by time/2 as tb, destIP",
        f"Select time, {size}, {wide} From {protocol} Where {where}",
        f"Select tb, srcIP, count(*), max({size}), avg(len), "
        f"min(ttl) From {protocol} Where {where} "
        f"Group by time/2 as tb, srcIP",
    ]
    return ["DEFINE query_name q; " + plan for plan in plans]


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestFusedEqualsDecodeThenSelect:
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_rows_counters_table_and_snapshot(self, shape, size):
        params = SHAPES[shape][3]
        produced = 0
        for text in plans(shape):
            frozen, fused = pair(text, params, table_size=7)
            assert has_layout(fused)
            produced += assert_in_step(frozen, fused, CORPUS, size, text)
        assert produced or shape == "nothing_passes"

    def test_without_a_pushed_prefix(self, shape):
        """Every conjunct in the row's action, none in the loop ahead
        of it: the same rows and counters again."""
        params = SHAPES[shape][3]
        for text in plans(shape)[:2]:
            with decode_then_filter():
                frozen, fused = pair(text, params, table_size=7)
                again = build(LftaNode, ExprCompiler, text, params,
                              table_size=7)
            assert fused.prefilter is None  # and so no lean form
            pushed = build(LftaNode, ExprCompiler, text, params,
                           table_size=7)
            assert_in_step(frozen, fused, CORPUS, 7, text)
            assert_in_step(again, pushed, CORPUS, 7, text)

    def test_row_adapter(self, shape):
        """The same plans over the protocol without its layout."""
        params = SHAPES[shape][3]
        for text in plans(shape):
            frozen, fused = pair(text, params, LAYOUTLESS, table_size=7)
            assert not has_layout(fused)
            assert_in_step(frozen, fused, CORPUS, 7, text)
            # ... and agrees with the decode loop on what leaves
            compiled_node = build(LftaNode, ExprCompiler, text, params,
                                  table_size=7)
            again = build(LftaNode, ExprCompiler, text, params, LAYOUTLESS,
                          table_size=7)
            for block in blocks(CORPUS, 7):
                compiled_node.accept_batch(block)
                again.accept_batch(block)
            assert again.tap.drain() == compiled_node.tap.drain()
            assert again.stats.discarded == compiled_node.stats.discarded


class Forced(LftaNode):
    """An LFTA pinned to one form of its loop (a lean ask without a lean
    form runs the full one)."""

    lean = False

    @property
    def prefers_lean(self):
        return self.lean


class ForcedLean(Forced):
    lean = True


class TestLeanEqualsFull:
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
    def test_both_forms_run_the_same_action(self, protocol, fields, where,
                                            params, size):
        for text in (
                f"DEFINE query_name q; Select {fields} From {protocol} "
                f"Where {where}",
                f"DEFINE query_name q; Select tb, srcIP, destIP, count(*), "
                f"sum(len) From {protocol} Where {where} "
                f"Group by time/2 as tb, srcIP, destIP"):
            frozen, lean = pair(text, params, fused=ForcedLean, table_size=7)
            full = build(Forced, ExprCompiler, text, params, table_size=7)
            for block in blocks(CORPUS, size):
                for node in (frozen, lean, full):
                    node.accept_batch(block)
            # (the aggregation may defer too few fields to have one)
            assert "unpack_b" in loops(lean)[-1] or "Group by" in text
            assert "unpack_b" not in "".join(loops(full))
            expected = observe(frozen)
            assert observe(lean) == observe(full) == expected
            assert expected[1][2] > 0  # the prefix killed something

    def test_the_lean_source_differs_only_ahead_of_the_row(self):
        node = build(Forced, ExprCompiler,
                     "DEFINE query_name q; Select time, srcIP, destIP, "
                     "srcPort From tcp Where tcpflags & 18 = 2")
        # the full form is built with the node, the lean one on demand
        full = node._loop(False, False).__code__
        assert full is not node._loop(False, True).__code__
        sources = loops(node)
        assert len(sources) == 2
        actions = [source.split("m_0 += 1\n")[1] for source in sources]
        assert actions[0] == actions[1]
        assert "unpack_b" in sources[1] and "unpack_b" not in sources[0]


class TestShedSubset:
    """The shed gate keeps a subset: it draws per packet inside the
    node's loop, ahead of the guard, as the frozen gate drew over the
    block before decoding, and additive aggregates carry the
    Horvitz-Thompson weight."""

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("rate", [0.6, 0.25])
    def test_weighted_partials(self, size, rate):
        text = ("DEFINE query_name q; Select tb, destIP, count(*), sum(len), "
                "avg(ttl), max(len) From tcp Where destPort >= 80 "
                "Group by time/2 as tb, destIP")
        frozen, fused = pair(text, table_size=7)
        for node in (frozen, fused):
            node.set_shed_rate(rate)
        assert_in_step(frozen, fused, CORPUS, size)
        assert fused.shed_packets > 0

    def test_rate_changes_between_blocks(self):
        text = ("DEFINE query_name q; Select tb, count(*), sum(len) "
                "From tcp Group by time/2 as tb")
        frozen, fused = pair(text, table_size=7)
        for step, block in enumerate(blocks(CORPUS, 7)):
            for node in (frozen, fused):
                node.set_shed_rate((1.0, 0.5, 0.9, 0.001)[step % 4])
                node.accept_batch(block)
            assert observe(fused) == observe(frozen)

    def test_projection_under_shedding(self):
        frozen, fused = pair("DEFINE query_name q; Select time, srcIP, len "
                             "From tcp Where destPort = 80")
        for node in (frozen, fused):
            node.set_shed_rate(0.5)
        assert_in_step(frozen, fused, CORPUS, 7)


class TestSampleDrawOrder:
    """``DEFINE sample``: one draw per guard-passing packet, in arrival
    order, ahead of every conjunct -- the RNG state after each block is
    the frozen one's."""

    QUERIES = [
        "DEFINE { query_name q; sample 0.5; } Select time, srcPort, "
        "tcpflags From tcp Where tcpflags & 2 = 2",
        "DEFINE { query_name q; sample 0.3; } Select tb, destPort, "
        "count(*), sum(len) From tcp Where destPort <> 22 "
        "Group by time/2 as tb, destPort",
        "DEFINE { query_name q; sample 0.7; } Select time, str_len(data) "
        "From udp",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("registry", [REGISTRY, LAYOUTLESS],
                             ids=["decoded", "adapter"])
    def test_same_draws_same_rows(self, text, size, registry):
        frozen, fused = pair(text, registry=registry, table_size=7)
        assert fused.prefilter is None
        assert_in_step(frozen, fused, CORPUS, size)
        assert 0 < fused.sampled_out < fused.stats.tuples_in

    def test_sampling_and_shedding_together(self):
        frozen, fused = pair(self.QUERIES[1], table_size=7)
        for node in (frozen, fused):
            node.set_shed_rate(0.5)
        assert_in_step(frozen, fused, CORPUS, 7)


class TestGroupMemberEqualsAlone:
    """The same action source inside the block kernel's section."""

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

    def members(self, cls, compiler):
        return [build(cls, compiler, "DEFINE query_name q; " + text, params,
                      table_size=7) for text, params in self.MEMBERS]

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
        """Three ways through the same packets: alone (own fused
        decoder), as a member (the kernel's section: one guard, each
        prefix once, its own action), and the frozen path."""
        alone = self.members(LftaNode, ExprCompiler)
        grouped = self.members(LftaNode, ExprCompiler)
        frozen = self.members(FrozenLfta, FrozenCompiler)
        if lean:  # the member that keeps everything rules a lean form out
            alone, grouped, frozen = alone[:3], grouped[:3], frozen[:3]
        run, source = self.kernel(grouped, lean)
        assert ("unpack_b_s0" in source) == lean
        for packets in blocks(CORPUS, size):
            run(packets)
            for nodes in zip(alone, frozen):
                for node in nodes:
                    node.accept_batch(packets)
        for nodes in zip(alone, grouped, frozen):
            for node in nodes:
                node.flush()
            expected = observe(nodes[2])
            assert observe(nodes[0]) == observe(nodes[1]) == expected
            assert expected[0]

    def test_member_source_is_the_lone_decoders_action(self):
        grouped = self.members(LftaNode, ExprCompiler)
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
        assert action(source) == action(loops(grouped[0])[0])

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


class TestAggregateWithoutGroupBy:
    """No GROUP BY: one group, keyed by the empty tuple, in the LFTA's
    table and in the HFTA's dict alike."""

    QUERIES = [
        "Select count(*), sum(len) From tcp",
        "Select count(*), max(len), avg(ttl) From tcp Where destPort = 80",
        "Select count(*), sum(str_len(data)) From udp",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("registry", [REGISTRY, LAYOUTLESS],
                             ids=["decoded", "adapter"])
    def test_the_one_group_is_the_empty_key(self, text, size, registry):
        frozen, fused = pair("DEFINE query_name q; " + text,
                             registry=registry, table_size=7)
        assert has_layout(fused) == (registry is REGISTRY)
        assert_in_step(frozen, fused, CORPUS, size, text)
        assert fused.table.lookups == fused.stats.tuples_in \
            - fused.stats.discarded > 0
        assert fused.table.collisions == 0

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    @pytest.mark.parametrize("registry", [builtin_registry, without_layouts],
                             ids=["decoded", "adapter"])
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


class TestColumnarTable:
    """The engine's table keeps a group as its key plus one column per
    partial slot, the frozen node's a ``(key, state list)`` entry: every
    aggregate kind, in a table where every group collides, where most
    do and where few do, plain and under the shed gate's weight,
    through the block kernel and the row adapter."""

    TEXT = ("DEFINE query_name q; Select tb, destIP, count(*), sum(len), "
            "min(ttl), max(len), avg(len) From tcp Where destPort >= 80 "
            "Group by time/2 as tb, destIP")

    @pytest.mark.parametrize("table_size", [1, 3, 64])
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("rate", [1.0, 0.6])
    @pytest.mark.parametrize("registry", [REGISTRY, LAYOUTLESS],
                             ids=["decoded", "adapter"])
    def test_every_aggregate_at_every_table_size(self, table_size, size,
                                                 rate, registry):
        frozen, fused = pair(self.TEXT, registry=registry,
                             table_size=table_size)
        for node in (frozen, fused):
            node.set_shed_rate(rate)
        assert_in_step(frozen, fused, CORPUS, size, self.TEXT)
        assert fused.table.collisions > 0 or table_size == 64


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
    def test_a_restored_node_continues_the_frozen_run(self, text, size):
        frozen, fused = pair(text, table_size=7)
        for node in (frozen, fused):
            node.set_shed_rate(0.8)
        cut = len(blocks(CORPUS, size)) // 2
        emitted = []
        for step, block in enumerate(blocks(CORPUS, size)):
            if step == cut:
                blob = encode_snapshot(fused.snapshot_state())
                emitted = fused.tap.drain()
                fused = build(LftaNode, ExprCompiler, text, table_size=7)
                fused.restore_state(decode_snapshot(blob))
                assert encode_snapshot(fused.snapshot_state()) == blob
            frozen.accept_batch(block)
            fused.accept_batch(block)
        for node in (frozen, fused):
            node.flush()
        expected = observe(frozen)
        observed = observe(fused)
        assert emitted + observed[0] == expected[0]
        # (``columnar_blocks`` is a process-local tally, not checkpointed)
        assert observed[1:5] + observed[6:] == expected[1:5] + expected[6:]


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
