"""Tests for the aggregate state machinery (sub/super-aggregate split)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gsql.ast_nodes import AggCall, Column
from repro.gsql.ordering import Ordering
from repro.gsql.schema import Attribute, StreamSchema, builtin_registry
from repro.gsql.types import IP, UINT
from repro.operators.aggregates import AggregateOps, partial_layout
from repro.operators.aggregation import AggregationNode
from repro.operators.lfta import LftaNode
from tests.conftest import tcp_packet
from tests.reference.evaluator import NoResult, ReferenceEvaluator


def generic_ops(analyzed, functions, aggregates):
    """The generic loops, over argument values the reference evaluator
    computes from the input tuple."""
    reference = ReferenceEvaluator(analyzed, functions)
    return AggregateOps(aggregates, [
        None if agg.arg is None
        else (lambda row, arg=agg.arg:
              reference.value(arg, row, slot_maps=(None, None)))
        for agg in aggregates])


def groups_of(state):
    """``{key: column values}`` of a snapshot's groups (an aggregation
    node's or an LFTA table's)."""
    return dict(zip(state["keys"], zip(*state["columns"]), strict=True))


def partials_of(generic, states):
    """The generic loops' ``{key: state list}`` as the columns hold
    them: one value per partial slot."""
    return {key: generic.partials(state) for key, state in states.items()}


def rows_of(items):
    """The data rows among drained stream items."""
    return [item for item in items if type(item) is tuple]


def make_ops(*names):
    """AggregateOps over rows that are (value,) 1-tuples."""
    aggregates = [
        AggCall(name, None if name == "COUNT" else Column("v"))
        for name in names
    ]
    arg_fns = [None if name == "COUNT" else (lambda row: row[0])
               for name in names]
    return AggregateOps(aggregates, arg_fns)


class TestLayout:
    def test_avg_takes_two_slots(self):
        aggregates = [AggCall("COUNT", None), AggCall("AVG", Column("v")),
                      AggCall("SUM", Column("v"))]
        assert partial_layout(aggregates) == [1, 2, 1]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AggregateOps([AggCall("COUNT", None)], [])


class TestDirectAccumulation:
    def test_all_aggregates(self):
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        state = ops.new_state()
        for value in (5, 1, 9, 3):
            ops.update(state, (value,))
        assert ops.final_values(state) == (4, 18, 1, 9, 4.5)

    def test_avg_of_nothing_is_zero(self):
        ops = make_ops("AVG")
        assert ops.final_values(ops.new_state()) == (0.0,)

    def test_min_max_single_value(self):
        ops = make_ops("MIN", "MAX")
        state = ops.new_state()
        ops.update(state, (7,))
        assert ops.final_values(state) == (7, 7)


class TestPartialCombine:
    def test_partials_round_trip(self):
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        state = ops.new_state()
        for value in (2, 8, 4):
            ops.update(state, (value,))
        partials = ops.partials(state)
        assert len(partials) == ops.partial_width == 6
        combined = ops.new_state()
        ops.combine(combined, partials)
        assert ops.final_values(combined) == ops.final_values(state)

    def test_combining_two_partials(self):
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        left, right = ops.new_state(), ops.new_state()
        for value in (1, 2, 3):
            ops.update(left, (value,))
        for value in (10, 20):
            ops.update(right, (value,))
        total = ops.new_state()
        ops.combine(total, ops.partials(left))
        ops.combine(total, ops.partials(right))
        assert ops.final_values(total) == (5, 36, 1, 20, 7.2)

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=60),
           st.data())
    def test_any_split_equals_direct(self, values, data):
        """Splitting the stream at arbitrary points (LFTA evictions) and
        recombining (HFTA) must equal direct aggregation -- the core
        correctness property of the aggregate query splitting."""
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        direct = ops.new_state()
        for value in values:
            ops.update(direct, (value,))

        combined = ops.new_state()
        cursor = 0
        while cursor < len(values):
            size = data.draw(st.integers(1, len(values) - cursor))
            chunk = ops.new_state()
            for value in values[cursor:cursor + size]:
                ops.update(chunk, (value,))
            ops.combine(combined, ops.partials(chunk))
            cursor += size

        direct_final = ops.final_values(direct)
        combined_final = ops.final_values(combined)
        assert direct_final[:4] == combined_final[:4]
        assert direct_final[4] == pytest.approx(combined_final[4])


class TestGeneratedKernels:
    """The folds the engine runs, generated per plan, against the
    generic loops over the same aggregates: the HFTA's row loop and run
    loop over raw tuples, the LFTA's fold plain and under the shed
    gate's Horvitz-Thompson weight, and the superaggregate's combine of
    partials.  After every block the groups ``snapshot_state`` holds,
    one column per partial slot, are compared with the generic loops'
    state lists flattened by ``AggregateOps.partials``."""

    AGGREGATES = ("count(*), sum(len), min(len), max(len), avg(len), "
                  "min(destPort), sum(destPort)")
    #: the run loop's aggregates: the same but AVG (a float total)
    RUN_AGGREGATES = ("count(*), sum(len), min(len), max(len), "
                      "min(destPort), sum(destPort)")
    QUERY = (f"DEFINE query_name q; Select tb, {AGGREGATES} "
             "From tcp Group by time/10 as tb")
    SOURCE = StreamSchema("s", [
        Attribute("time", UINT, Ordering.increasing()),
        Attribute("destIP", IP), Attribute("len", UINT),
        Attribute("destPort", UINT)])

    @staticmethod
    def rows(count=40, seed=5):
        """``(time, destIP, len, destPort)``: ``time`` non-decreasing in
        twelve runs over four windows of ten."""
        rng = random.Random(seed)
        return [(12 * index // count * 10 // 3, rng.randrange(1, 2000),
                 rng.randrange(1, 2000), rng.randrange(1, 2000))
                for index in range(count)]

    def raw(self, compile_plan, functions, aggregates=AGGREGATES):
        """(node, generic ops) of an aggregation over the raw stream."""
        analyzed, plan, compiler = compile_plan(
            f"DEFINE query_name q; Select tb, {aggregates} From s "
            "Group by time/10 as tb", streams={"s": self.SOURCE})
        node = AggregationNode(plan.hfta, analyzed, compiler)
        node.tap = node.subscribe()
        return node, generic_ops(analyzed, functions, plan.hfta.aggregates)

    def split(self, compile_plan, functions, query=QUERY):
        """(LFTA node, superaggregate node, generic ops) of ``query``."""
        analyzed, plan, compiler = compile_plan(query)
        lfta = LftaNode(plan.lftas[0], analyzed, compiler, table_size=4096)
        lfta.tap = lfta.subscribe()
        hfta = AggregationNode(plan.hfta, analyzed, compiler)
        return (lfta, hfta,
                generic_ops(analyzed, functions, plan.lftas[0].aggregates))

    @staticmethod
    def source_of(node, fn):
        source, = (source for source in node._compiler.generated_sources
                   if source.startswith(f"def {fn.__name__}("))
        return source

    def test_every_aggregate_name_is_covered(self, compile_plan, functions):
        node, _generic = self.raw(compile_plan, functions)
        assert {agg.name for agg in node.plan.aggregates} == {
            "COUNT", "SUM", "MIN", "MAX", "AVG"}
        assert node.plan.run_note == "a float total"
        runs, _generic = self.raw(compile_plan, functions,
                                  self.RUN_AGGREGATES)
        assert {agg.name for agg in runs.plan.aggregates} == {
            "COUNT", "SUM", "MIN", "MAX"}
        assert runs.plan.run_slot == 0

    def test_kernels_are_generated_sources(self, compile_plan, functions):
        rows, generic = self.raw(compile_plan, functions)
        runs, _generic = self.raw(compile_plan, functions,
                                  self.RUN_AGGREGATES)
        lfta, hfta, _generic = self.split(compile_plan, functions)
        row_loop = self.source_of(rows, rows._aggregate)
        run_loop = self.source_of(runs, runs._aggregate)
        combine = self.source_of(hfta, hfta._aggregate)
        kernel, = (source for source in lfta._compiler.generated_sources
                   if source.startswith("def kernel("))
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
        # The plain constructor keeps the generic loops.
        assert generic.update.__func__ is AggregateOps.update

    @pytest.mark.parametrize("size", [1, 7, 256])
    @pytest.mark.parametrize("loop", ["rows", "runs"])
    def test_update_matches_generic(self, compile_plan, functions, loop,
                                    size):
        """The HFTA's row loop and run loop: after every block the open
        groups hold the generic states of their rows, and every closed
        group left with the generic final values."""
        aggregates = self.AGGREGATES if loop == "rows" else self.RUN_AGGREGATES
        node, generic = self.raw(compile_plan, functions, aggregates)
        assert (node.plan.run_slot is None) == (loop == "rows")
        rows = self.rows(300)
        states, closed = {}, []
        for start in range(0, len(rows), size):
            block = rows[start:start + size]
            node.dispatch_batch(block, 0)
            for row in block:
                key = (row[0] // 10,)
                for done in sorted(k for k in states if k < key):
                    closed.append(done + generic.final_values(states.pop(done)))
                if key not in states:
                    states[key] = generic.new_state()
                    assert states[key][2] is None    # MIN unset
                generic.update(states[key], row)
            assert (groups_of(node.snapshot_state())
                    == partials_of(generic, states)), start
            assert rows_of(node.tap.drain()) == closed
            closed = []
        node.flush()
        assert rows_of(node.tap.drain()) == [
            key + generic.final_values(state) for key, state in states.items()]

    @pytest.mark.parametrize("weight", [1.0, 2.5, 1 / 0.3])
    def test_update_weighted_matches_generic(self, compile_plan, functions,
                                             weight):
        """The LFTA's fold, one packet a block: at shed rate ``1 /
        weight`` the kept packets (the node's own shed draws, replayed)
        fold with the generic weighted update, and the partials the
        flush emits are the generic ones."""
        lfta, _hfta, generic = self.split(
            compile_plan, functions,
            f"DEFINE query_name q; Select tb, d, {self.AGGREGATES} "
            "From tcp Group by time/10 as tb, srcPort % 3 as d")
        lfta.set_shed_rate(1 / weight)
        weight = 1.0 / lfta.shed_rate            # the LFTA's own w
        draws = random.Random()
        draws.setstate(lfta._shed_rng.getstate())
        tcp = builtin_registry().get("tcp")
        interpret = tcp.sparse_interpreter(range(len(tcp.attributes)))
        sport = [attribute.name for attribute in tcp.attributes].index(
            "srcPort")
        states = {}
        for index, row in enumerate(self.rows(60)):
            packet = tcp_packet(ts=5.25, sport=row[1] % 7, dport=row[3],
                                payload=b"x" * (row[2] % 50))
            lfta.accept_batch([packet])
            if weight != 1.0 and draws.random() >= lfta.shed_rate:
                continue
            t, = interpret(packet)
            key = (0, t[sport] % 3)
            state = states.setdefault(key, generic.new_state())
            if weight == 1.0:
                generic.update(state, t)
            else:
                generic.update_weighted(state, t, weight)
            assert (groups_of(lfta.table.snapshot_state())
                    == partials_of(generic, states)), index
        assert lfta.table.collisions == 0
        lfta.flush()
        assert sorted(rows_of(lfta.tap.drain())) == sorted(
            key + generic.partials(state) for key, state in states.items())

    def test_combine_matches_generic(self, compile_plan, functions):
        """The superaggregate's combine, one partial a block, against
        the generic combine -- including an untouched group's partial,
        whose MIN/MAX are None."""
        _lfta, _hfta, generic = self.split(compile_plan, functions)
        _node, raw = self.raw(compile_plan, functions)
        rows = self.rows(60)
        partials = []
        for start in range(0, 60, 7):
            chunk = raw.new_state()
            for row in rows[start:start + 7]:
                raw.update(chunk, row)
            partials.append(raw.partials(chunk))
        empty = generic.partials(generic.new_state())
        assert None in empty
        sequences = [partials, [empty] + partials, partials[:3] + [empty]
                     + partials[3:], [empty, empty]]
        for sequence in sequences:
            _lfta, node, _generic = self.split(compile_plan, functions)
            state = generic.new_state()
            for partial in sequence:
                node.dispatch_batch([(3,) + partial], 0)
                generic.combine(state, partial)
                assert groups_of(node.snapshot_state()) == {
                    (3,): generic.partials(state)}
        # AVG folds its two partial slots (sum, count), not one.
        width = generic.partial_width
        assert width == len(generic.aggregates) + 1
        _lfta, node, _generic = self.split(compile_plan, functions)
        node.dispatch_batch([(3,) + tuple(range(1, width + 1))], 0)
        values, = groups_of(node.snapshot_state()).values()
        avg_index = [agg.name for agg in generic.aggregates].index("AVG")
        slot = sum(generic.layout[:avg_index])
        assert values[slot:slot + 2] == (5.0, 6)

    def test_superaggregate_plan_generates_only_combine(self, compile_plan,
                                                        functions):
        _lfta, node, _generic = self.split(compile_plan, functions)
        assert node.from_partials
        source = self.source_of(node, node._aggregate)
        assert node._aggregate.__name__.startswith("_g")
        assert "c0[r] += t[1]" in source
        assert "v1 = " not in source and "groupby(" not in source

    def test_discard_in_an_argument_touches_no_state(self, compile_plan,
                                                     functions):
        """Arguments before state: a partial function with no result
        discards the row before any column is folded -- ``count(*)``,
        which comes first in the list, must not have been bumped, and
        no group opens.  The generic loops raise with the state list
        untouched."""
        # An inline one-prefix table: no row's destIP (< 2000) is in it.
        aggregates = ("count(*), sum(getlpmid(destIP, '10.0.0.0/8 1')), "
                      "max(len)")
        node, _generic = self.raw(compile_plan, functions, aggregates)
        assert node.plan.run_note == "sum of an expression"
        rows = self.rows(10)
        node.dispatch_batch(rows, 0)
        assert node.stats.discarded == 10 and node.open_groups == 0
        lfta, _hfta, _generic = self.split(
            compile_plan, functions,
            f"DEFINE query_name q; Select tb, {aggregates} From tcp "
            "Group by time/10 as tb")
        lfta.accept_batch([tcp_packet(ts=1.0 + i) for i in range(10)])
        assert lfta.stats.discarded == 10
        assert lfta.table.snapshot_state()["slots"] == []
        analyzed, plan, _compiler = compile_plan(
            f"DEFINE query_name q; Select tb, {aggregates} From s "
            "Group by time/10 as tb", streams={"s": self.SOURCE})
        generic = generic_ops(analyzed, functions, plan.hfta.aggregates)
        for fold in (generic.update,
                     lambda s, t: generic.update_weighted(s, t, 2.5)):
            state = generic.new_state()
            with pytest.raises(NoResult):
                fold(state, rows[0])
            assert state == [0, 0, None]
