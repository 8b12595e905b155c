"""Tests for GSQL code generation, held to the reference evaluator."""

import pytest

from repro.gsql.codegen import CodegenError, DiscardTuple, ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.core.query_node import NodeStats
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import builtin_registry
from repro.gsql.semantic import analyze
from repro.operators.aggregates import partial_layout
from repro.operators.aggregation import AggregationNode
from tests.reference.evaluator import ReferenceEvaluator


@pytest.fixture(scope="module")
def registry():
    return builtin_registry()


@pytest.fixture(scope="module")
def functions():
    return builtin_functions()


def compile_query(text, registry, functions, params=None,
                  impl=ExprCompiler):
    analyzed = analyze(parse_query(text), registry, functions)
    return analyzed, impl(analyzed, functions, params)


def tcp_row(registry, **overrides):
    """A full-width tcp-protocol row with given field values."""
    tcp = registry.get("tcp")
    row = [0] * len(tcp)
    row[tcp.index_of("data")] = b""
    for name, value in overrides.items():
        row[tcp.index_of(name)] = value
    return tuple(row)


@pytest.fixture(params=[ExprCompiler, ReferenceEvaluator],
                ids=["generated", "reference"])
def impl(request):
    """The generated code, and the reference evaluator every test below
    also pins down: the two answer alike."""
    return request.param


class TestPredicates:
    def test_simple_conjunction(self, registry, functions, impl):
        analyzed, compiler = compile_query(
            "Select time From tcp Where destPort = 80 and len > 100",
            registry, functions, impl=impl)
        predicate = compiler.predicate_fn(analyzed.where_conjuncts)
        assert predicate(tcp_row(registry, destPort=80, len=200))
        assert not predicate(tcp_row(registry, destPort=81, len=200))
        assert not predicate(tcp_row(registry, destPort=80, len=50))

    def test_empty_predicate_always_true(self, registry, functions, impl):
        analyzed, compiler = compile_query("Select time From tcp",
                                           registry, functions, impl=impl)
        assert compiler.predicate_fn([])(tcp_row(registry))

    def test_or_and_not(self, registry, functions, impl):
        analyzed, compiler = compile_query(
            "Select time From tcp Where destPort = 80 or not (len > 10)",
            registry, functions, impl=impl)
        predicate = compiler.predicate_fn(analyzed.where_conjuncts)
        assert predicate(tcp_row(registry, destPort=80, len=100))
        assert predicate(tcp_row(registry, destPort=5, len=5))
        assert not predicate(tcp_row(registry, destPort=5, len=100))


class TestProjection:
    def test_tuple_builder(self, registry, functions, impl):
        analyzed, compiler = compile_query(
            "Select destIP, time/60, len * 8 From tcp",
            registry, functions, impl=impl)
        build = compiler.tuple_fn([c.expr for c in analyzed.output_columns])
        row = tcp_row(registry, destIP=42, time=125, len=10)
        assert build(row) == (42, 2, 80)

    def test_integer_vs_float_division(self, registry, functions, impl):
        analyzed, compiler = compile_query(
            "Select time/60, timestamp/60 From tcp",
            registry, functions, impl=impl)
        build = compiler.tuple_fn([c.expr for c in analyzed.output_columns])
        row = tcp_row(registry, time=90, timestamp=90.0)
        time_bucket, timestamp_bucket = build(row)
        assert time_bucket == 1  # integer division
        assert timestamp_bucket == pytest.approx(1.5)  # float division


class TestFunctions:
    def test_scalar_function(self, registry, functions, impl):
        analyzed, compiler = compile_query(
            "Select getsubnet(destIP, 8) From tcp",
            registry, functions, impl=impl)
        build = compiler.tuple_fn([c.expr for c in analyzed.output_columns])
        (subnet,) = build(tcp_row(registry, destIP=0x0A0B0C0D))
        assert subnet == 0x0A000000

    def test_partial_function_discards(self, registry, functions, impl):
        table = "10.0.0.0/8 7018"
        analyzed, compiler = compile_query(
            f"Select getlpmid(destIP, '{table}') From tcp",
            registry, functions, impl=impl)
        build = compiler.tuple_fn([c.expr for c in analyzed.output_columns])
        assert build(tcp_row(registry, destIP=0x0A000001)) == (7018,)
        # no matching prefix -> "the tuple being processed is discarded"
        assert build(tcp_row(registry, destIP=0x0B000001)) is None

    def test_partial_function_in_predicate_is_false(self, registry, functions, impl):
        analyzed, compiler = compile_query(
            "Select time From tcp Where getlpmid(destIP, '10.0.0.0/8 1') = 1",
            registry, functions, impl=impl)
        predicate = compiler.predicate_fn(analyzed.where_conjuncts)
        assert predicate(tcp_row(registry, destIP=0x0A000001))
        assert not predicate(tcp_row(registry, destIP=0x0B000001))

    def test_regex_handle_precompiled(self, registry, functions, impl):
        analyzed, compiler = compile_query(
            r"Select time From tcp Where str_match_regex(data, '^[^\n]*HTTP/1.')",
            registry, functions, impl=impl)
        predicate = compiler.predicate_fn(analyzed.where_conjuncts)
        assert predicate(tcp_row(registry, data=b"GET / HTTP/1.1\r\n"))
        assert not predicate(tcp_row(registry, data=b"\x00\x01binary"))
        assert not predicate(tcp_row(registry, data=b"junk\nGET HTTP/1.1"))


class TestParams:
    def test_param_lookup(self, registry, functions, impl):
        analyzed, compiler = compile_query(
            "Select time From tcp Where destPort = $port",
            registry, functions, params={"port": 80}, impl=impl)
        predicate = compiler.predicate_fn(analyzed.where_conjuncts)
        assert predicate(tcp_row(registry, destPort=80))
        assert not predicate(tcp_row(registry, destPort=443))

    def test_param_change_on_the_fly(self, registry, functions, impl):
        analyzed, compiler = compile_query(
            "Select time From tcp Where destPort = $port",
            registry, functions, params={"port": 80}, impl=impl)
        predicate = compiler.predicate_fn(analyzed.where_conjuncts)
        assert predicate(tcp_row(registry, destPort=80))
        compiler.params["port"] = 443
        assert predicate(tcp_row(registry, destPort=443))
        assert not predicate(tcp_row(registry, destPort=80))

    def test_missing_param_rejected(self, registry, functions):
        with pytest.raises(CodegenError):
            compile_query("Select time From tcp Where destPort = $port",
                          registry, functions, params={})

    def test_handle_via_param(self, registry, functions, impl):
        analyzed, compiler = compile_query(
            "Select getlpmid(destIP, $tbl) From tcp",
            registry, functions,
            params={"tbl": "10.0.0.0/8 7018"}, impl=impl)
        build = compiler.tuple_fn([c.expr for c in analyzed.output_columns])
        assert build(tcp_row(registry, destIP=0x0A000001)) == (7018,)


class _Closing:
    """What a window close reads and moves on its node: the group dict
    (key -> row), the state columns and their compaction."""

    _restore_groups = AggregationNode._restore_groups
    _compact = AggregationNode._compact

    def __init__(self, groups, aggregates):
        self._layout = partial_layout(aggregates)
        self._columns = tuple([] for _ in range(sum(self._layout)))
        self._restore_groups(groups)
        self.stats = NodeStats()
        self.groups_emitted = 0
        self.emitted = []

    def emit_many(self, rows):
        self.emitted.extend(rows)


def close_groups(text, registry, functions, groups, partials=False):
    """``groups`` (key -> aggregate state list) closed in order by the
    plan's generated ``hfta_close_fn``; the node it closed them on."""
    analyzed, compiler = compile_query(text, registry, functions)
    plan = plan_query(analyzed, functions).hfta
    close = compiler.hfta_close_fn(plan, partials)
    node = _Closing(groups, plan.aggregates)
    close(node, list(groups))
    return node, analyzed


class TestWindowClose:
    """Post-aggregation -- HAVING and the select list over a closed
    group's key and final values -- runs inside the generated window
    close, and answers as the reference evaluator's post functions do."""

    QUERY = ("Select tb, count(*), sum(len) / count(*) From tcp "
             "Group by time/60 as tb Having count(*) > 2")

    def test_post_select_and_having(self, registry, functions):
        node, analyzed = close_groups(
            self.QUERY, registry, functions,
            {(7,): [10, 500], (8,): [1, 500]})
        assert node.emitted == [(7, 10, 50)]
        assert (node.groups_emitted, node.stats.discarded) == (1, 1)
        assert node._groups == {}
        reference = ReferenceEvaluator(analyzed, functions)
        build = reference.post_tuple_fn(
            [c.expr for c in analyzed.output_columns])
        having = reference.post_predicate_fn(analyzed.having)
        assert build((7,), (10, 500)) == (7, 10, 50)
        assert having((7,), (10, 500))
        assert not having((8,), (1, 500))

    def test_no_having_keeps_every_group(self, registry, functions):
        node, analyzed = close_groups(
            "Select tb, count(*) From tcp Group by time/60 as tb",
            registry, functions, {(1,): [2], (2,): [1]})
        assert node.emitted == [(1, 2), (2, 1)]
        assert node.stats.discarded == 0
        assert ReferenceEvaluator(analyzed, functions).post_predicate_fn(
            None)((1,), (2,))

    def test_keys_then_aggregates_concatenate(self, registry, functions):
        analyzed, compiler = compile_query(
            "Select tb, destPort, count(*), avg(len) From tcp "
            "Group by time/60 as tb, destPort", registry, functions)
        compiler.hfta_close_fn(plan_query(analyzed, functions).hfta)
        source = compiler.generated_sources[-1]
        assert "a1 = (c1[r] / c2[r] if c2[r] else 0.0)" in source
        assert "emit(k + (a0, a1))" in source
        node, _ = close_groups(
            "Select tb, destPort, count(*), avg(len) From tcp "
            "Group by time/60 as tb, destPort", registry, functions,
            {(1, 80): [2, [9.0, 2]], (1, 81): [0, [0.0, 0]]})
        assert node.emitted == [(1, 80, 2, 4.5), (1, 81, 0, 0.0)]

    def test_partials_skip_post_aggregation(self, registry, functions):
        node, _ = close_groups(self.QUERY, registry, functions,
                               {(7,): [10, 500], (8,): [1, 500]},
                               partials=True)
        assert node.emitted == [(7, 10, 500), (8, 1, 500)]
        assert (node.groups_emitted, node.stats.discarded) == (2, 0)


class TestGeneratedCode:
    def test_generated_source_retained(self, registry, functions):
        analyzed, compiler = compile_query(
            "Select time From tcp Where destPort = 80",
            registry, functions)
        compiler.predicate_fn(analyzed.where_conjuncts)
        assert any("def _g" in source for source in compiler.generated_sources)
        assert any("== 80" in source for source in compiler.generated_sources)

    def test_agrees_with_reference(self, registry, functions):
        """Generated code and the reference evaluator are
        observationally equal."""
        text = ("Select destIP, time/60, getsubnet(srcIP, 16) From tcp "
                "Where destPort = 80 and len >= 40")
        rows = [
            tcp_row(registry, destIP=i * 7, srcIP=i * 131071, time=i * 30,
                    destPort=80 if i % 2 else 443, len=30 + i)
            for i in range(50)
        ]
        outputs = {}
        for impl in (ExprCompiler, ReferenceEvaluator):
            analyzed, compiler = compile_query(text, registry, functions,
                                               impl=impl)
            predicate = compiler.predicate_fn(analyzed.where_conjuncts)
            build = compiler.tuple_fn([c.expr for c in analyzed.output_columns])
            outputs[impl] = [build(r) for r in rows if predicate(r)]
        assert outputs[ExprCompiler] == outputs[ReferenceEvaluator]
        assert len(outputs[ExprCompiler]) == 20
