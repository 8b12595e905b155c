"""The aggregate split on the engine: an LFTA's partials, however its
table cuts the stream, combine in the HFTA to the one-level answer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heartbeat import FLUSH
from repro.gsql.ast_nodes import AggCall, Column
from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.gsql.ordering import Ordering
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import Attribute, ProtocolSchema, builtin_registry
from repro.gsql.semantic import analyze
from repro.gsql.types import UINT
from repro.net.packet import CapturedPacket
from repro.operators.aggregates import partial_layout
from repro.operators.aggregation import AggregationNode
from repro.operators.lfta import LftaNode
from tests.reference.evaluator import ReferenceEvaluator


class TestLayout:
    def test_avg_takes_two_slots(self):
        aggregates = [AggCall("COUNT", None), AggCall("AVG", Column("v")),
                      AggCall("SUM", Column("v"))]
        assert partial_layout(aggregates) == [1, 2, 1]


#: rows ``(time, k, v)``, one per packet: the packet's bytes are the row
ROWS = ProtocolSchema(
    "rows", [Attribute("time", UINT, Ordering.increasing()),
             Attribute("k", UINT), Attribute("v", UINT)], {},
    expander=lambda packet: [tuple(packet.data)])
QUERY = ("DEFINE query_name q; Select k, count(*), sum(v), min(v), max(v), "
         "avg(v) From rows Group by k")


def split(table_size, rows, query=QUERY):
    """The plan's LFTA at ``table_size`` over ``rows``, its partials
    through the superaggregate: (HFTA output rows, analysed query)."""
    registry = builtin_registry()
    registry.add(ROWS)
    functions = builtin_functions()
    analyzed = analyze(parse_query(query), registry, functions)
    plan = plan_query(analyzed, functions)
    compiler = ExprCompiler(analyzed, functions)
    lfta = LftaNode(plan.lftas[0], analyzed, compiler, table_size=table_size)
    hfta = AggregationNode(plan.hfta, analyzed, compiler)
    channel = hfta.subscribe()
    partials = lfta.subscribe()
    lfta.accept_batch([CapturedPacket(timestamp=0.0, data=row)
                       for row in rows])
    lfta.flush()
    hfta.dispatch_batch(partials.drain(), 0)
    hfta.dispatch(FLUSH, 0)
    return [item for item in channel.drain() if type(item) is tuple], analyzed


class TestPartialCombine:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 255)),
                    min_size=1, max_size=60),
           st.sampled_from([1, 2, 3, 7, 4096]))
    def test_any_split_equals_one_level(self, pairs, table_size):
        """An LFTA table of any size splits the stream at its own
        ejections; the superaggregate of those partials is what the
        reference evaluator computes in one level, row for row."""
        values = [(0, k, v) for k, v in pairs]
        out, analyzed = split(table_size, [bytes(row) for row in values])
        direct = ReferenceEvaluator(analyzed, builtin_functions()).aggregate(
            values)
        by_key = {row[0]: row for row in out}
        assert sorted(by_key) == sorted(row[0] for row in direct)
        for row in direct:
            assert by_key[row[0]][:5] == row[:5]
            assert by_key[row[0]][5] == pytest.approx(row[5])

    def test_avg_of_nothing_is_zero(self):
        """A group whose partial carries no AVG count finishes at 0.0."""
        registry = builtin_registry()
        registry.add(ROWS)
        functions = builtin_functions()
        analyzed = analyze(parse_query(
            "DEFINE query_name q; Select k, avg(v) From rows Group by k"),
            registry, functions)
        node = AggregationNode(plan_query(analyzed, functions).hfta,
                               analyzed, ExprCompiler(analyzed, functions))
        channel = node.subscribe()
        node.dispatch_batch([(3, 0.0, 0)], 0)
        node.dispatch(FLUSH, 0)
        assert channel.drain() == [(3, 0.0), FLUSH]
