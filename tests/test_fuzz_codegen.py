"""Fuzz the code generator against the reference evaluator.

Random well-typed GSQL expressions over the tcp schema must evaluate
identically as generated code and under ``tests/reference/evaluator.py``
on random tuples -- the two are independent implementations, so
agreement is strong evidence both are right.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gsql.ast_nodes import BinaryOp, Column, Literal, UnaryOp
from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.gsql.parser import parse_query
from repro.gsql.schema import builtin_registry
from repro.gsql.semantic import analyze
from repro.gsql.unparse import expr_to_gsql
from tests.reference.evaluator import ReferenceEvaluator

NUMERIC_COLUMNS = ["time", "len", "destPort", "srcPort", "ttl"]


def numeric_exprs(depth=3):
    """Random well-typed numeric expressions (division by literals only)."""
    leaves = st.one_of(
        st.sampled_from(NUMERIC_COLUMNS).map(Column),
        st.integers(0, 1000).map(Literal),
    )

    def extend(children):
        safe_div = st.builds(
            lambda left, c: BinaryOp("/", left, Literal(c)),
            children, st.integers(1, 60),
        )
        safe_mod = st.builds(
            lambda left, c: BinaryOp("%", left, Literal(c)),
            children, st.integers(1, 60),
        )
        arith = st.builds(
            lambda op, left, right: BinaryOp(op, left, right),
            st.sampled_from(["+", "-", "*"]), children, children,
        )
        return st.one_of(arith, safe_div, safe_mod)

    return st.recursive(leaves, extend, max_leaves=8)


def boolean_exprs():
    comparison = st.builds(
        lambda op, left, right: BinaryOp(op, left, right),
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        numeric_exprs(), numeric_exprs(),
    )

    def extend(children):
        logic = st.builds(
            lambda op, left, right: BinaryOp(op, left, right),
            st.sampled_from(["AND", "OR"]), children, children,
        )
        negation = st.builds(lambda inner: UnaryOp("NOT", inner), children)
        return st.one_of(logic, negation)

    return st.recursive(comparison, extend, max_leaves=5)


def random_row(draw, registry):
    tcp = registry.get("tcp")
    row = [0] * len(tcp)
    for name in NUMERIC_COLUMNS:
        row[tcp.index_of(name)] = draw(st.integers(0, 100_000))
    row[tcp.index_of("data")] = b""
    return tuple(row)


@pytest.fixture(scope="module")
def registry():
    return builtin_registry()


@pytest.fixture(scope="module")
def functions():
    return builtin_functions()


class TestFuzzAgreesWithReference:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(expr=numeric_exprs(), data=st.data())
    def test_numeric_expressions(self, expr, data, registry, functions):
        # Round-trip through the real front end so types/bindings exist.
        text = f"Select {expr_to_gsql(expr)} From tcp"
        analyzed = analyze(parse_query(text), registry, functions)
        target = analyzed.output_columns[0].expr
        rows = [random_row(data.draw, registry) for _ in range(3)]
        generated = ExprCompiler(analyzed, functions).tuple_fn([target])
        reference = ReferenceEvaluator(analyzed, functions).tuple_fn([target])
        assert [generated(row) for row in rows] == [
            reference(row) for row in rows]

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(expr=boolean_exprs(), data=st.data())
    def test_boolean_expressions(self, expr, data, registry, functions):
        text = f"Select time From tcp Where {expr_to_gsql(expr)}"
        analyzed = analyze(parse_query(text), registry, functions)
        rows = [random_row(data.draw, registry) for _ in range(4)]
        conjuncts = analyzed.where_conjuncts
        generated = ExprCompiler(analyzed, functions).predicate_fn(conjuncts)
        reference = ReferenceEvaluator(analyzed,
                                       functions).predicate_fn(conjuncts)
        assert [generated(row) for row in rows] == [
            reference(row) for row in rows]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(expr=numeric_exprs())
    def test_unparse_parse_stable(self, expr, registry, functions):
        """Unparsing a generated expression and reparsing preserves it."""
        text = f"Select {expr_to_gsql(expr)} From tcp"
        first = parse_query(text)
        second = parse_query(f"Select {expr_to_gsql(first.select_items[0].expr)} "
                             "From tcp")
        assert first.select_items[0].expr == second.select_items[0].expr
