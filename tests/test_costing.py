"""Tests for static plan cost estimation."""

import pytest

from repro.gsql.costing import (
    CostEstimate,
    estimate_plan_cost,
    expr_operations,
)
from repro.gsql.parser import parse_query


class TestExprOperations:
    def test_comparison_cheaper_than_regex(self, registry, functions,
                                           compile_plan):
        analyzed, _, _ = compile_plan(
            "DEFINE query_name q; Select time From tcp "
            "Where destPort = 80 and str_match_regex(data, 'HTTP')")
        cheap, expensive = analyzed.where_conjuncts
        assert expr_operations(cheap, functions) < \
            expr_operations(expensive, functions) / 5

    def test_aggregates_counted(self, functions, compile_plan):
        analyzed, _, _ = compile_plan(
            "DEFINE query_name q; Select tb, count(*) From tcp "
            "Group by time/60 as tb")
        post = analyzed.output_columns[1].expr  # AggRef
        assert expr_operations(analyzed.group_exprs[0], functions) > 0


class TestPlanEstimates:
    def test_lfta_only_plan(self, functions, compile_plan):
        _, plan, _ = compile_plan(
            "DEFINE query_name q; Select destIP, time From tcp "
            "Where destPort = 80")
        estimate = estimate_plan_cost(plan, functions)
        assert len(estimate.lfta_stages) == 1
        assert estimate.hfta_stage is None
        assert estimate.lfta_us_per_packet > 0
        assert estimate.hfta_us_per_tuple == 0

    def test_split_plan_puts_regex_cost_up(self, functions, compile_plan):
        _, plan, _ = compile_plan(
            "DEFINE query_name q; Select time From tcp "
            "Where destPort = 80 and str_match_regex(data, 'HTTP')")
        estimate = estimate_plan_cost(plan, functions)
        # the regex dominates, and it lives in the HFTA stage
        assert estimate.hfta_us_per_tuple > estimate.lfta_us_per_packet

    def test_two_level_aggregation(self, functions, compile_plan):
        _, plan, _ = compile_plan(
            "DEFINE query_name q; Select tb, count(*), sum(len) From tcp "
            "Group by time/60 as tb")
        estimate = estimate_plan_cost(plan, functions)
        (lfta,) = estimate.lfta_stages
        assert "hash_update" in lfta.detail
        assert "combine" in estimate.hfta_stage.detail

    def test_join_probe_keyed_or_window_scan(self, functions, compile_plan):
        """The join term follows the plan: a keyed probe hashes and
        bisects one bucket, a keyless one pays the predicate per window
        row -- so adding an equality conjunct makes the estimate fall."""
        join = ("DEFINE query_name q; Select B.time "
                "From eth0.tcp B, eth1.tcp C "
                "Where B.time >= C.time - 1 and B.time <= C.time + 1")
        _, keyless, _ = compile_plan(join)
        _, keyed, _ = compile_plan(join + " and B.srcPort = C.srcPort")
        keyless_cost = estimate_plan_cost(keyless, functions)
        keyed_cost = estimate_plan_cost(keyed, functions)
        assert "window_scan" in keyless_cost.hfta_stage.detail
        assert "keyed_probe" in keyed_cost.hfta_stage.detail
        assert keyed_cost.hfta_us_per_tuple < keyless_cost.hfta_us_per_tuple

    def test_describe_readable(self, functions, compile_plan):
        _, plan, _ = compile_plan(
            "DEFINE query_name q; Select tb, count(*) From tcp "
            "Group by time/60 as tb")
        text = estimate_plan_cost(plan, functions).describe()
        assert "ops/packet" in text
        assert "ops/tuple" in text

    def test_cheap_filter_is_sub_microsecond(self, functions, compile_plan):
        """Sanity against the Section 4 cost model: an LFTA port filter
        is a fraction of a microsecond on the modeled host, far below
        the 6.2 us interrupt cost."""
        _, plan, _ = compile_plan(
            "DEFINE query_name q; Select time From tcp Where destPort = 80")
        estimate = estimate_plan_cost(plan, functions)
        assert estimate.lfta_us_per_packet < 1.0
