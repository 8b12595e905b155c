"""Tests for the HFTA aggregation node (ordered flush, partial combine)."""

import random

import pytest

from repro.core.heartbeat import FLUSH, Punctuation
from repro.operators.aggregation import AggregationNode
from tests.reference.evaluator import ReferenceEvaluator


def make_agg(compile_plan, text, streams=None):
    analyzed, plan, compiler = compile_plan(text, streams=streams)
    node = AggregationNode(plan.hfta, analyzed, compiler)
    tap = node.subscribe()
    return node, tap


def rows_of(tap):
    return [item for item in tap.drain() if type(item) is tuple]


# A stream schema to aggregate over: (time UINT increasing, len UINT).
def base_stream(compile_plan):
    _, plan, _ = compile_plan("DEFINE query_name base; "
                              "Select time, len From tcp")
    return {"base": plan.output_schema}


class TestFullAggregation:
    def test_ordered_flush(self, compile_plan):
        streams = base_stream(compile_plan)
        node, tap = make_agg(
            compile_plan,
            "DEFINE query_name q; Select tb, count(*), sum(len) From base "
            "Group by time/60 as tb", streams)
        for t in (0, 10, 50):
            node.dispatch((t, 100), 0)
        assert rows_of(tap) == []  # bucket 0 still open
        node.dispatch((65, 100), 0)  # advances to bucket 1
        rows = rows_of(tap)
        assert rows == [(0, 3, 300)]
        assert node.open_groups == 1

    def test_having_filters_groups(self, compile_plan):
        streams = base_stream(compile_plan)
        node, tap = make_agg(
            compile_plan,
            "DEFINE query_name q; Select tb, count(*) From base "
            "Group by time/60 as tb Having count(*) >= 2", streams)
        node.dispatch((0, 1), 0)
        node.dispatch((70, 1), 0)
        node.dispatch((71, 1), 0)
        node.dispatch((140, 1), 0)
        rows = rows_of(tap)
        assert rows == [(1, 2)]  # bucket 0 (count 1) suppressed

    def test_avg(self, compile_plan):
        streams = base_stream(compile_plan)
        node, tap = make_agg(
            compile_plan,
            "DEFINE query_name q; Select tb, avg(len) From base "
            "Group by time/60 as tb", streams)
        node.dispatch((0, 100), 0)
        node.dispatch((1, 300), 0)
        node.dispatch((70, 1), 0)
        assert rows_of(tap) == [(0, 200.0)]

    def test_multiple_groups_flush_in_key_order(self, compile_plan):
        streams = base_stream(compile_plan)
        node, tap = make_agg(
            compile_plan,
            "DEFINE query_name q; Select tb, lenk, count(*) From base "
            "Group by time/60 as tb, len as lenk", streams)
        node.dispatch((0, 5), 0)
        node.dispatch((61, 7), 0)
        node.dispatch((125, 9), 0)  # closes buckets 0 and 1
        rows = rows_of(tap)
        assert [r[0] for r in rows] == [0, 1]

    def test_flush_token_drains_everything(self, compile_plan):
        streams = base_stream(compile_plan)
        node, tap = make_agg(
            compile_plan,
            "DEFINE query_name q; Select tb, count(*) From base "
            "Group by time/60 as tb", streams)
        node.dispatch((0, 1), 0)
        node.dispatch((61, 1), 0)
        node.dispatch(FLUSH, 0)
        items = tap.drain()
        rows = [i for i in items if type(i) is tuple]
        assert rows == [(0, 1), (1, 1)]
        assert any(item is FLUSH for item in items)

    def test_punctuation_flushes(self, compile_plan):
        streams = base_stream(compile_plan)
        node, tap = make_agg(
            compile_plan,
            "DEFINE query_name q; Select tb, count(*) From base "
            "Group by time/60 as tb", streams)
        node.dispatch((0, 1), 0)
        # a promise that time >= 120 closes bucket 0 (and 1)
        node.dispatch(Punctuation({0: 120}), 0)
        rows = rows_of(tap)
        assert rows == [(0, 1)]

    def test_outgoing_punctuation_on_window_slot(self, compile_plan):
        streams = base_stream(compile_plan)
        node, tap = make_agg(
            compile_plan,
            "DEFINE query_name q; Select tb, count(*) From base "
            "Group by time/60 as tb", streams)
        node.dispatch((0, 1), 0)
        node.dispatch((200, 1), 0)
        puncts = [i for i in tap.drain() if isinstance(i, Punctuation)]
        assert puncts and puncts[-1].bound_for(0) == 3

    def test_pre_predicate_applied(self, compile_plan):
        streams = base_stream(compile_plan)
        node, tap = make_agg(
            compile_plan,
            "DEFINE query_name q; Select tb, count(*) From base "
            "Where len > 10 Group by time/60 as tb", streams)
        node.dispatch((0, 5), 0)
        node.dispatch((1, 50), 0)
        node.dispatch(FLUSH, 0)
        assert rows_of(tap) == [(0, 1)]


class TestFromPartials:
    def test_combines_lfta_partials(self, compile_plan):
        # Plan the paper-style two-level aggregation, then drive the HFTA
        # directly with partial tuples (key, count_partial, sum_partial).
        analyzed, plan, compiler = compile_plan(
            "DEFINE query_name q; Select tb, count(*), sum(len) From tcp "
            "Group by time/60 as tb")
        node = AggregationNode(plan.hfta, analyzed, compiler)
        tap = node.subscribe()
        assert plan.hfta.final_from_partials
        # Two partials for bucket 0 (an eviction + final flush), one for 1.
        node.dispatch((0, 3, 300), 0)
        node.dispatch((0, 2, 200), 0)
        node.dispatch((1, 1, 50), 0)
        node.dispatch(FLUSH, 0)
        assert rows_of(tap) == [(0, 5, 500), (1, 1, 50)]

    def test_banded_partials_respect_slack(self, compile_plan):
        # netflow time_start is banded(30): bucketing by /60 (float) makes
        # the group key banded(0.5); the HFTA must keep the slack.
        analyzed, plan, compiler = compile_plan(
            "DEFINE query_name q; Select tb, count(*) From netflow "
            "Group by time_start/60 as tb")
        node = AggregationNode(plan.hfta, analyzed, compiler)
        tap = node.subscribe()
        assert node._window_band == pytest.approx(0.5)
        node.dispatch((1.0, 4), 0)
        node.dispatch((1.4, 2), 0)  # within the band: must NOT close 1.0
        assert rows_of(tap) == []
        # 2.0 promises future keys >= 1.5: both 1.0 and 1.4 are closed.
        node.dispatch((2.0, 1), 0)
        assert rows_of(tap) == [(1.0, 4), (1.4, 2)]


class TestAgreesWithReference:
    """The node's generated loop against the reference evaluator's
    dict-of-groups aggregation, over the same rows in window order."""

    QUERIES = [
        "Select tb, count(*), sum(len), min(len), max(len), avg(len) "
        "From base Group by time/10 as tb",
        "Select tb, m, count(*) From base Where len > 20 "
        "Group by time/10 as tb, len % 3 as m Having count(*) > 4",
        "Select count(*), sum(len) From base",
    ]

    @pytest.mark.parametrize("select", QUERIES)
    def test_same_groups(self, compile_plan, functions, select):
        streams = base_stream(compile_plan)
        text = "DEFINE query_name q; " + select
        node, tap = make_agg(compile_plan, text, streams)
        rng = random.Random(3)
        rows = [(i // 7, rng.randrange(100)) for i in range(500)]
        node.dispatch_batch(rows, 0)
        node.dispatch(FLUSH, 0)
        analyzed = compile_plan(text, streams=streams)[0]
        expected = ReferenceEvaluator(analyzed, functions).aggregate(rows)
        assert expected and sorted(rows_of(tap)) == sorted(expected)
