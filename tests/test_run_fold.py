"""The run loop of a time-bucket aggregation against its row loop
(DESIGN section 18).

An aggregation over raw tuples whose group key reads only its
integer-typed window column, with no predicate, no ``DEFINE sample``
and only COUNT or SUM/MIN/MAX of integer columns, folds a run of rows
that share the column's value at once (``ExprCompiler.hfta_aggregate_fn``
renders the run loop when the planner sets ``HftaPlan.run_slot``).  The
row loop is the same plan with ``run_slot`` cleared.  Hypothesis drives
both with the same rows -- runs of one ``time`` of every length, late
rows (ROADMAP item 6's ``1 2 3 11 12 25 4 5 26 35`` among them), a
``None`` in a summed or compared column mid-run, a key with a partial
function that discards, a key that raises, a window close that raises
-- cut into blocks of 1, 7 and 256 rows, with punctuation between
blocks.  After every delivery the output, ``NodeStats``,
``groups_emitted`` and the encoded snapshot must match, and so must
the exception either raised.

The engine's rule sends blocks and runs shorter than ``RUNS_FROM`` to
the row loop; every drive also runs with ``RUNS_FROM`` at 1, so that
the run loop takes every block and every run.

The bench's plans that do not qualify must generate exactly the source
they did before the run loop existed: their sha256 is pinned below.
"""

import dataclasses
import hashlib
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bench.workloads import WORKLOADS
from repro import Gigascope
from repro.core.heartbeat import FLUSH, Punctuation
from repro.gsql import codegen
from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import FunctionSpec, builtin_functions
from repro.gsql.ordering import Ordering
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import Attribute, StreamSchema, builtin_registry
from repro.gsql.semantic import analyze
from repro.gsql.types import FLOAT, INT, UINT
from repro.operators.aggregation import AggregationNode
from repro.recovery.wire import encode_snapshot

BLOCK_SIZES = (1, 7, 256)

SOURCE = StreamSchema("src", [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("v", UINT),
    Attribute("w", INT),
    Attribute("f", FLOAT),
])

#: ROADMAP item 6's arrival order: 4 and 5 arrive after window 2 opened
ITEM_6 = [1, 2, 3, 11, 12, 25, 4, 5, 26, 35]


class Crash(Exception):
    """What ``crash`` raises."""


def crash(value):
    if value == 3:
        raise Crash(f"crash({value!r})")
    return value


def functions():
    """The builtins plus ``keep``, a partial function with no result on
    multiples of five, and ``crash``, which raises on 3."""
    registry = builtin_functions()
    registry.register(FunctionSpec(
        "keep", lambda x: None if x % 5 == 0 else x, (UINT,), UINT,
        partial=True))
    registry.register(FunctionSpec("crash", crash, (UINT,), UINT))
    return registry


def plan_of(select):
    registry = functions()
    analyzed = analyze(parse_query(f"DEFINE query_name q; {select}"),
                       builtin_registry(), registry,
                       stream_resolver={"src": SOURCE}.get)
    return analyzed, registry, plan_query(analyzed, registry).hfta


def pair(select):
    """(row loop, run loop) nodes of ``select``, each with its own
    compiler."""
    nodes = []
    for runs in (False, True):
        analyzed, registry, plan = plan_of(select)
        assert plan.run_slot == 0, plan.run_note
        if not runs:
            plan = dataclasses.replace(plan, run_slot=None)
        node = AggregationNode(plan, analyzed, ExprCompiler(analyzed, registry),
                               seed=7)
        node.tap = node.subscribe()
        nodes.append(node)
    return nodes


def observe(node):
    stats = node.stats
    return (node.tap.drain(),
            (stats.tuples_in, stats.tuples_out, stats.discarded,
             stats.punctuations_out),
            node.open_groups, node._high_water, node.groups_emitted,
            encode_snapshot(node.snapshot_state()))


def drive(nodes, items, size):
    """Blocks of ``size`` rows to both nodes, punctuation singly, then a
    flush; after every delivery both raised the same exception (or
    none) and look the same."""
    pending = []

    def each(send):
        raised = []
        for node in nodes:
            try:
                send(node)
                raised.append(None)
            except Exception as error:   # noqa: BLE001 -- compared below
                raised.append((type(error), str(error)))
        assert raised[0] == raised[1]
        assert observe(nodes[1]) == observe(nodes[0])

    def deliver(item):
        for start in range(0, len(pending), size):
            block = pending[start:start + size]
            each(lambda node: node.dispatch_batch(block, 0))
        del pending[:]
        each(lambda node: node.dispatch(item, 0))

    for item in items:
        if type(item) is tuple:
            pending.append(item)
        else:
            deliver(item)
    deliver(FLUSH)


def everywhere(select, items):
    """``drive`` at every block size, under the engine's ``RUNS_FROM``
    and with the run loop taking every block and run."""
    for runs_from in (codegen.RUNS_FROM, 1):
        with mock.patch.object(codegen, "RUNS_FROM", runs_from):
            for size in BLOCK_SIZES:
                drive(pair(select), items, size)


QUERIES = {
    "appmon": "Select tb, count(*), sum(v) From src Group by time/10 as tb",
    "every aggregate": "Select tb, count(*), sum(v), min(v), max(w), "
                       "sum(w), min(time) From src Group by time/10 as tb",
    "time itself": "Select time, max(v), count(*) From src Group by time",
    "discard in the key": "Select tb, kt, count(*), sum(v), max(v) "
                          "From src Group by time/10 as tb, keep(time) as kt",
    "key raises": "Select tb, ct, count(*), min(v) From src "
                  "Group by time/10 as tb, crash(time) as ct",
    "having raises": "Select tb, count(*), sum(v) From src "
                     "Group by time/4 as tb Having crash(count(*)) > 0",
}


@st.composite
def streams(draw):
    """Rows ``(time, v, w, f)`` as runs of one ``time``: runs of every
    length, the clock moving on by 0, 1 or 12 between them, now and
    then a late run, a ``None`` in ``v`` or ``w`` mid-run, and a
    punctuation on ``time`` between runs."""
    items = []
    now = draw(st.integers(0, 30))
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.sampled_from([1, 2, 3, 15, 16, 17, 40, 300]))
        late = draw(st.integers(0, 5)) == 0
        time = max(0, now - draw(st.integers(1, 12))) if late else now
        for _ in range(length):
            v = draw(st.integers(0, 12))
            w = draw(st.integers(-9, 9))
            if draw(st.integers(0, 199)) == 0:
                v = None
            if draw(st.integers(0, 199)) == 0:
                w = None
            items.append((time, v, w, 0.5))
        if draw(st.integers(0, 3)) == 0:
            items.append(Punctuation({0: now}))
        now += draw(st.sampled_from([0, 1, 1, 12]))
    return items


def runs_of(times, length=20, v=1):
    return [(time, v, -v, 0.5) for time in times for _ in range(length)]


@pytest.mark.parametrize("label", sorted(QUERIES))
@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(items=streams())
@example(items=runs_of(ITEM_6))
@example(items=runs_of(ITEM_6, length=1))
@example(items=runs_of([10, 11]) + [(11, None, 1, 0.5)] + runs_of([11, 12]))
@example(items=runs_of([10]) + [(12, 4, None, 0.5)] + runs_of([12]))
@example(items=runs_of([10]) + [(11, None, 1, 0.5)] + runs_of([12]))
@example(items=runs_of([1, 2, 3, 4, 5, 6, 3, 10, 15]))
def test_the_run_loop_is_the_row_loop(label, items):
    everywhere(QUERIES[label], items)


class TestWhatQualifies:
    @pytest.mark.parametrize("select, note", [
        ("Select tb, count(*) From src Where v > 1 Group by time/10 as tb",
         "a predicate"),
        ("Select tb, avg(v) From src Group by time/10 as tb",
         "a float total"),
        ("Select tb, v, count(*) From src Group by time/10 as tb, v",
         "a second column"),
        ("Select tb, sum(f) From src Group by time/10 as tb",
         "sum of a non-integer column"),
        ("Select tb, max(v + 1) From src Group by time/10 as tb",
         "max of an expression"),
        ("Select v, count(*) From src Group by v", "no window"),
    ])
    def test_the_row_loop_names_its_reason(self, select, note):
        _, _, plan = plan_of(select)
        assert plan.run_slot is None and plan.run_note == note

    def test_a_sample_keeps_the_row_loop(self):
        registry = functions()
        analyzed = analyze(parse_query(
            "DEFINE { query_name q; sample 0.5; } " + QUERIES["appmon"]),
            builtin_registry(), registry, stream_resolver={"src": SOURCE}.get)
        plan = plan_query(analyzed, registry).hfta
        assert plan.run_slot is None and plan.run_note == "a sample"

    def test_explain_prints_the_fold(self):
        gs = Gigascope()
        gs.add_queries(WORKLOADS["e2_merge"].gsql + ";"
                       + WORKLOADS["join_rtt"].gsql)
        appmon = gs.explain("appmon").splitlines()[1]
        assert appmon == ("  HFTA appmon [aggregation] inputs=['both'] "
                          "fold=runs(time)")
        rtt_stats = gs.explain("rtt_stats").splitlines()[1]
        assert rtt_stats.endswith(
            "run-cache=[time / 5, destIP] fold=rows (a second column)")
        assert "fold=runs" not in rtt_stats

    def test_a_one_row_block_takes_the_row_loop(self):
        """Counted on the row loop itself: a block of one row goes
        straight to it, a run shorter than ``RUNS_FROM`` hands it the
        rest of the block, and long runs never reach it."""
        rows_node, node = pair(QUERIES["appmon"])
        env = node._compiler._env
        run_loop, = (source for source in node._compiler.generated_sources
                     if "groupby(" in source)
        row_loop = env[re.search(r"return (_g\d+)\(node, rows\)",
                                 run_loop)[1]]
        calls = []

        def counting(node, rows):
            calls.append(len(rows))
            return row_loop(node, rows)
        env[row_loop.__name__] = counting
        short = codegen.RUNS_FROM - 1
        for block in ([(10, 1, 1, 0.5)],
                      runs_of([11], codegen.RUNS_FROM) + runs_of([12], short)
                      + runs_of([13], 40),
                      runs_of([14, 15], 100)):
            node.dispatch_batch(block, 0)
            rows_node.dispatch_batch(block, 0)
        assert calls == [1, short + 40]
        assert observe(node) == observe(rows_node)


#: sha256 of ``Gigascope.generated_code(name)`` for every bench query,
#: as the code generator wrote them before the run loop existed -- for
#: ``appmon``, which qualifies, of its first function, the row loop
PARENT_SOURCES = {
    "appmon": "a0795c5b10c592d2fc8f929199f7f6840d61ed80f46c9fdf8093c7a581e32dd5",
    "both": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "flows": "feefb42c7d1e9934bb5f731bb19fac3119733614640c8b8e5056ee441be3bf3f",
    "http_genuine": "76616c4dbfa2dffc4aa8bd0c9311a2cb8ed5a9f511d0c1028c227e73f88f8e81",
    "http_port80": "b7f442bd7c1babf0c02fbb6b1911b570303e95519df520598e6314343d99ec07",
    "link0": "b0c14c20782da6305b2ad9fbf42ca4c624401089da4336594efff5434fe6d18e",
    "link1": "b0c14c20782da6305b2ad9fbf42ca4c624401089da4336594efff5434fe6d18e",
    "rtt": "d802519fff77528fdd2c2a3aabc28e97514051a39efa7f7ee19fb52f76a67a96",
    "rtt_stats": "2e8b8afbe2c7e4c6daed11b5de71e1d1c4ebc7a2507a34df82fdf0d89bcfe14e",
    "syn": "42259601058272311cd822ab0679fc3e476bb08218f109520aa7c529fb0fbeb3",
    "synack": "5f38acbde2458fc2a3884a9d093284ae6a6d1f06ea7d8b6ec5691f45e9a6af2e",
}


def test_plans_that_do_not_qualify_generate_the_parent_source():
    sources = {}
    for workload in WORKLOADS.values():
        gs = Gigascope()
        for name in gs.add_queries(workload.gsql):
            sources[name] = gs.generated_code(name)
    runs = [name for name, source in sources.items() if "groupby(" in source]
    assert runs == ["appmon"]
    sources["appmon"] = sources["appmon"].split("\n\n")[0]
    assert "groupby(" not in sources["appmon"]
    assert {name: hashlib.sha256(source.encode()).hexdigest()
            for name, source in sources.items()} == PARENT_SOURCES
