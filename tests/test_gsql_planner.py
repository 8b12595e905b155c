"""Tests for the LFTA/HFTA split planner."""

import struct

import pytest

from repro.gsql.functions import builtin_functions
from repro.gsql.parser import parse_query
from repro.gsql.planner import (
    PlanError,
    SNAPLEN_FULL,
    SNAPLEN_HEADERS,
    plan_query,
)
from repro.gsql.schema import builtin_registry
from repro.gsql.semantic import analyze


@pytest.fixture(scope="module")
def registry():
    return builtin_registry()


@pytest.fixture(scope="module")
def functions():
    return builtin_functions()


def plan(text, registry, functions, streams=None):
    analyzed = analyze(parse_query(text), registry, functions,
                       stream_resolver=(streams or {}).get)
    return plan_query(analyzed, functions)


class TestSelectionPlans:
    def test_simple_selection_is_lfta_only(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select destIP, time From tcp "
            "Where destPort = 80", registry, functions)
        assert result.is_lfta_only
        assert len(result.lftas) == 1
        assert result.lftas[0].name == "q"
        assert result.lftas[0].mode == "projection"

    def test_expensive_predicate_splits(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select time, srcIP From tcp "
            "Where destPort = 80 and str_match_regex(data, 'HTTP/1')",
            registry, functions)
        assert not result.is_lfta_only
        lfta = result.lftas[0]
        # "Regular expression finding is too expensive for an LFTA, so the
        # filter query was split into an LFTA which filters TCP packets on
        # port 80, and an HFTA part which performs the regular expression
        # matching."
        assert len(lfta.predicates) == 1
        assert result.hfta.kind == "selection"
        assert len(result.hfta.predicates) == 1
        # LFTA has a mangled name, both streams visible
        assert lfta.name.startswith("_fta_q")

    def test_lfta_safe_function_stays_down(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select time From tcp "
            "Where getlpmid(destIP, $t) > 0", registry, functions)
        assert result.is_lfta_only

    def test_stream_source_is_hfta_only(self, registry, functions):
        base = plan("DEFINE query_name b; Select time, destIP From tcp",
                    registry, functions)
        streams = {"b": base.output_schema}
        result = plan("DEFINE query_name q; Select time From b",
                      registry, functions, streams)
        assert not result.lftas
        assert result.hfta.kind == "selection"
        assert result.hfta.inputs == ["b"]


class TestCaptureHints:
    def test_pushdown_of_simple_comparisons(self, registry, functions):
        """What the card may test is the leading run the decode loop
        tests, capture metadata included."""
        result = plan(
            "DEFINE query_name q; Select time From tcp "
            "Where destPort = 80 and protocol = 6 and len > 100",
            registry, functions)
        assert result.lftas[0].prefix == 3
        assert "pushed" not in result.describe()

    def test_reversed_literal_comparison(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select time From tcp Where 80 = destPort",
            registry, functions)
        assert result.lftas[0].prefix == 1

    def test_snaplen_headers_when_no_payload(self, registry, functions):
        result = plan("DEFINE query_name q; Select time, destIP From tcp",
                      registry, functions)
        assert result.lftas[0].snaplen == SNAPLEN_HEADERS

    def test_snaplen_full_when_payload_touched(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select time From tcp "
            "Where str_find_substr(data, 'x')", registry, functions)
        assert result.lftas[0].snaplen == SNAPLEN_FULL

    def test_snaplen_full_when_the_hfta_reads_the_payload(
            self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select time From tcp "
            "Where destPort = 80 and str_match_regex(data, 'HTTP')",
            registry, functions)
        assert result.hfta is not None
        assert result.lftas[0].snaplen == SNAPLEN_FULL

    @pytest.mark.parametrize("protocol,field", [
        ("ethernet", "time"), ("icmp", "time"), ("tcp6", "time"),
        ("udp6", "time"), ("netflow", "time_end"), ("dns", "time"),
        ("bgp", "time")])
    def test_snaplen_full_without_a_layout(self, protocol, field, registry,
                                           functions):
        """Where in the frame a row adapter's fields sit is not the
        planner's to know: the card keeps every byte."""
        result = plan(f"DEFINE query_name q; Select {field} From {protocol}",
                      registry, functions)
        assert result.lftas[0].snaplen == SNAPLEN_FULL


class TestAggregationPlans:
    def test_two_level_split(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select tb, count(*), sum(len) From tcp "
            "Where destPort = 80 Group by time/60 as tb",
            registry, functions)
        lfta = result.lftas[0]
        assert lfta.mode == "partial_aggregation"
        assert lfta.window_key_index == 0
        # LFTA output: key + one partial slot per aggregate
        assert lfta.output_schema.names == ("tb", "p_count0", "p_sum1")
        hfta = result.hfta
        assert hfta.kind == "aggregation"
        assert hfta.final_from_partials

    def test_avg_needs_two_partial_slots(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select tb, avg(len) From tcp "
            "Group by time/60 as tb", registry, functions)
        schema = result.lftas[0].output_schema
        assert len(schema) == 3  # tb, avg_sum, avg_cnt

    def test_expensive_group_expr_forces_full_hfta_agg(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select k, count(*) From tcp "
            "Group by str_find_substr(data, 'HTTP') as k, time/60 as tb",
            registry, functions)
        lfta = result.lftas[0]
        assert lfta.mode == "projection"
        hfta = result.hfta
        assert hfta.kind == "aggregation"
        assert not hfta.final_from_partials
        assert hfta.slot_maps[0] is not None

    def test_expensive_where_stays_up(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select tb, count(*) From tcp "
            "Where destPort = 80 and str_match_regex(data, 'HTTP') "
            "Group by time/60 as tb", registry, functions)
        assert result.lftas[0].mode == "projection"
        assert len(result.lftas[0].predicates) == 1  # the port filter
        assert len(result.hfta.predicates) == 1  # the regex

    def test_aggregation_over_stream(self, registry, functions):
        base = plan("DEFINE query_name b; Select time, len From tcp",
                    registry, functions)
        streams = {"b": base.output_schema}
        result = plan(
            "DEFINE query_name q; Select tb, count(*) From b "
            "Group by time/60 as tb", registry, functions, streams)
        assert not result.lftas
        assert result.hfta.kind == "aggregation"
        assert not result.hfta.final_from_partials


class TestJoinPlans:
    def test_join_of_two_protocols(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select B.time, B.srcIP, C.srcIP "
            "From eth0.tcp B, eth1.tcp C "
            "Where B.time = C.time and B.destPort = 80",
            registry, functions)
        assert len(result.lftas) == 2
        assert result.lftas[0].interface == "eth0"
        assert result.lftas[1].interface == "eth1"
        # the single-source port filter went down to B's LFTA
        assert len(result.lftas[0].predicates) == 1
        assert len(result.lftas[1].predicates) == 0
        hfta = result.hfta
        assert hfta.kind == "join"
        assert hfta.join_slots is not None
        (left_input, left_slot), (right_input, right_slot) = hfta.join_slots
        assert left_input == 0 and right_input == 1
        # window columns flow through the LFTA projections
        assert hfta.input_schemas[0].attributes[left_slot].name == "time"

    def test_join_protocol_with_stream(self, registry, functions):
        base = plan("DEFINE query_name b; Select time, destIP From tcp",
                    registry, functions)
        streams = {"b": base.output_schema}
        result = plan(
            "DEFINE query_name q; Select B.time From eth1.tcp B, b S "
            "Where B.time = S.time", registry, functions, streams)
        assert len(result.lftas) == 1
        assert result.hfta.inputs[1] == "b"
        assert result.hfta.slot_maps[1] is None


class TestJoinKeys:
    """Which conjuncts the join indexes its window on."""

    def keys_of(self, where, registry, functions):
        base = plan("DEFINE query_name b; "
                    "Select time, srcIP, destIP, srcPort, destPort From tcp",
                    registry, functions)
        streams = {"sa": base.output_schema, "sb": base.output_schema}
        result = plan(
            "DEFINE query_name q; Select A.time From sa A, sb B "
            f"Where A.time >= B.time and A.time <= B.time + 1 and {where}",
            registry, functions, streams)
        return [(str(left), str(right)) for left, right in result.hfta.join_keys]

    def test_bare_column_equalities_across_sources(self, registry, functions):
        assert self.keys_of(
            "A.srcIP = B.destIP and A.srcPort = B.destPort",
            registry, functions) == [("A.srcIP", "B.destIP"),
                                     ("A.srcPort", "B.destPort")]

    def test_pairs_are_oriented_left_source_first(self, registry, functions):
        assert self.keys_of("B.destIP = A.srcIP", registry, functions) == [
            ("A.srcIP", "B.destIP")]

    @pytest.mark.parametrize("where", [
        "A.srcIP = A.destIP",                    # one source
        "A.srcPort + 1 = B.destPort",            # an expression
        "A.srcPort = B.destPort + 0",
        "getlpmid(A.srcIP, 'x') = B.destPort",   # partial: may discard
        "A.srcIP <> B.destIP",
        "A.srcPort <= B.destPort",
        "A.srcPort = 80",
        "(A.srcIP = B.destIP or A.srcPort = B.destPort)",
    ])
    def test_everything_else_stays_residual(self, where, registry, functions,
                                            tmp_path):
        table = tmp_path / "prefixes"
        table.write_text("10.0.0.0/8 1\n")
        assert self.keys_of(where.replace("'x'", f"'{table}'"),
                            registry, functions) == []

    def test_window_conjuncts_are_not_keys(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select B.time From eth0.tcp B, eth1.tcp C "
            "Where B.time = C.time and B.destPort = C.destPort",
            registry, functions)
        assert [(str(l), str(r)) for l, r in result.hfta.join_keys] == [
            ("B.destPort", "C.destPort")]
        # both still reach the emit test
        assert len(result.hfta.predicates) == 2

    def test_single_source_conjuncts_never_reach_the_join(self, registry,
                                                          functions):
        result = plan(
            "DEFINE query_name q; Select B.time From eth0.tcp B, eth1.tcp C "
            "Where B.time = C.time and B.destPort = B.srcPort",
            registry, functions)
        assert result.hfta.join_keys == []


class TestMergePlans:
    def test_merge_of_streams(self, registry, functions):
        base = plan("DEFINE query_name s0; Select time, destIP From tcp",
                    registry, functions)
        streams = {"s0": base.output_schema, "s1": base.output_schema}
        result = plan("DEFINE query_name m; Merge s0.time : s1.time From s0, s1",
                      registry, functions, streams)
        assert result.hfta.kind == "merge"
        assert result.hfta.merge_slots == [(0, 0), (1, 0)]

    def test_merge_of_protocols_rejected(self, registry, functions):
        with pytest.raises(PlanError):
            plan("Merge B.time : C.time From eth0.tcp B, eth1.tcp C",
                 registry, functions)


class TestDescribe:
    def test_describe_mentions_structure(self, registry, functions):
        result = plan(
            "DEFINE query_name q; Select tb, count(*) From tcp "
            "Group by time/60 as tb", registry, functions)
        text = result.describe()
        assert "LFTA" in text and "HFTA" in text
        assert "partial_aggregation" in text
        assert "window=" not in text

    def test_describe_says_what_a_join_probes(self, registry, functions):
        keyed = plan(
            "DEFINE query_name q; Select B.time From eth0.tcp B, eth1.tcp C "
            "Where B.time >= C.time and B.time <= C.time + 1 "
            "and B.srcIP = C.destIP and C.srcPort = B.destPort "
            "and B.len < C.len", registry, functions)
        assert ("window=[0,1] keys=[B.srcIP=C.destIP, B.destPort=C.srcPort] "
                "residual=3") in keyed.describe()
        keyless = plan(
            "DEFINE query_name q; Select B.time From eth0.tcp B, eth1.tcp C "
            "Where B.time = C.time", registry, functions)
        assert ("window=[0,0] keys=none (window scan) residual=1"
                in keyless.describe())

    def test_describe_shows_the_front_end(self, registry, functions):
        http = plan(
            "DEFINE query_name q; Select tb, count(*) From tcp "
            "Where destPort = 80 and str_match_regex(data, 'HTTP') "
            "Group by time/5 as tb", registry, functions)
        assert "decode=[time,destPort,data] struct=47B" in http.describe()
        headers = plan("DEFINE query_name q; Select time, destIP From udp",
                       registry, functions)
        assert ("snaplen=134 decode=[time,destIP] struct=34B "
                "prefilter=none (no predicate)" in headers.describe())
        for protocol in ("icmp", "tcp6", "netflow"):
            field = "time_end" if protocol == "netflow" else "time"
            text = plan(f"DEFINE query_name q; Select {field} From {protocol}",
                        registry, functions).describe()
            assert "decode=row-adapter" in text


def reach(schema, needed):
    """The last frame byte any unpack of the loop covering ``needed``
    can touch, plus one: the fast-path struct, or the L4 struct behind
    the longest (60-byte) IPv4 header."""
    fast, l4 = schema.struct_formats(needed)
    return max(struct.calcsize(fast), 14 + 60 + struct.calcsize(l4 or "!"))


class TestFrontEndStaysInsideTheSnapLength:
    """The planner tells the NIC how many bytes to keep; the generated
    loop must not unpack past them, on either IHL path, or a
    header-only plan would see no rows behind a snapping card."""

    @pytest.mark.parametrize("protocol", ["ip", "tcp", "udp"])
    def test_no_unpack_reads_past_a_header_only_snaplen(
            self, protocol, registry, functions):
        schema = registry.get(protocol)
        for attribute in schema.attributes:
            if attribute.name == "data":
                continue
            result = plan(
                f"DEFINE query_name q; Select {attribute.name} "
                f"From {protocol}", registry, functions)
            lfta = result.lftas[0]
            assert lfta.snaplen == SNAPLEN_HEADERS
            needed = lfta.needed_fields(result.analyzed)
            fast, _ = schema.struct_formats(needed)
            assert struct.calcsize(fast) <= reach(schema, needed) \
                <= SNAPLEN_HEADERS

    def test_every_header_field_at_once(self, registry, functions):
        schema = registry.get("tcp")
        everything = [index for index, attribute in
                      enumerate(schema.attributes) if attribute.name != "data"]
        fast, _ = schema.struct_formats(everything)
        assert struct.calcsize(fast) == 14 + 20 + 16  # through tcpwindow
        assert reach(schema, everything) == 14 + 60 + 16 <= SNAPLEN_HEADERS
