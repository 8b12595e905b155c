"""The HFTA aggregation's key-run cache against a probe per row
(DESIGN section 18).

``ExprCompiler.hfta_aggregate_fn`` keeps the previous row's key parts
in locals and, while they do not change, folds into the state it
already holds: no key tuple, no window check, no dict probe.  That is
only legal if it can never be seen.  ``FrozenAggregation``
(``tests/frozen_decode_select.py``) is the loop it replaced --
``batch_key_fn`` building every key, then ``groups.get`` per row -- and
Hypothesis drives both with streams built to break a cache: long runs,
strictly alternating keys, key values that are equal across types
(``1``/``1.0``/``True``, ``0.0``/``-0.0``) or unequal to themselves
(NaN, one object and two), a banded window key whose flush lands inside
a run of the other key part, partial functions with no result in the
key or in an aggregate argument mid-run, predicate kills mid-run, a
``DEFINE sample`` gate, punctuation between blocks -- cut into blocks
of 1, 7 and 256.  After every block the output channel, ``NodeStats``
and the encoded ``snapshot_state`` must match.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.heartbeat import FLUSH, Punctuation
from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import FunctionSpec, builtin_functions
from repro.gsql.ordering import Ordering
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import Attribute, StreamSchema, builtin_registry
from repro.gsql.semantic import analyze
from repro.gsql.types import FLOAT, UINT
from repro.operators.aggregation import AggregationNode
from repro.recovery.wire import encode_snapshot

from tests.frozen_decode_select import FrozenAggregation, FrozenCompiler

BLOCK_SIZES = (1, 7, 256)

SOURCE = StreamSchema("src", [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("bt", UINT, Ordering.banded(3)),
    Attribute("k", FLOAT),
    Attribute("v", UINT),
])

NAN = math.nan
OTHER_NAN = float("nan")
#: key values: equal across types, equal across signs, never equal
KEYS = [1, 1.0, True, 2, 0.0, -0.0, 0, False, NAN, OTHER_NAN, 2.5]


def functions():
    """The builtins plus ``keep``: a partial function with no result on
    multiples of five."""
    registry = builtin_functions()
    registry.register(FunctionSpec(
        "keep", lambda x: None if x % 5 == 0 else x, (UINT,), UINT,
        partial=True))
    return registry


def pair(select, define="query_name q"):
    nodes = []
    for cls, compiler in ((FrozenAggregation, FrozenCompiler),
                          (AggregationNode, ExprCompiler)):
        registry = functions()
        analyzed = analyze(
            parse_query(f"DEFINE {{ {define}; }} {select}"),
            builtin_registry(), registry, stream_resolver={"src": SOURCE}.get)
        plan = plan_query(analyzed, registry)
        node = cls(plan.hfta, analyzed, compiler(analyzed, registry),
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


def drive(nodes, items, size):
    """Blocks of ``size`` rows to every node, control items singly;
    compare after every delivery."""
    pending = []

    def deliver(item=None):
        for start in range(0, len(pending), size):
            block = pending[start:start + size]
            for node in nodes:
                node.dispatch_batch(block, 0)
            compare()
        del pending[:]
        if item is not None:
            for node in nodes:
                node.dispatch(item, 0)
            compare()

    def compare():
        expected = observe(nodes[0])
        for node in nodes[1:]:
            assert observe(node) == expected

    for item in items:
        if type(item) is tuple:
            pending.append(item)
        else:
            deliver(item)
    deliver(FLUSH)


QUERIES = {
    "window and key": "Select tb, k, count(*), sum(v), min(v) From src "
                      "Group by time/10 as tb, k",
    "key before window": "Select k, tb, count(*), avg(v) From src "
                         "Group by k, time/10 as tb",
    "banded window": "Select b, k, count(*), max(v) From src "
                     "Group by bt as b, k",
    "window only": "Select tb, count(*), sum(v) From src "
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
}


@pytest.mark.parametrize("label", sorted(QUERIES))
@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(items=streams())
@example(items=[(10, 10, 1, 1), (10, 10, 1.0, 2), (10, 10, True, 3),
                (10, 10, 2, 4), (10, 10, 1, 5)])
@example(items=[(10, 10, NAN, 1), (10, 10, NAN, 2), (10, 10, OTHER_NAN, 3),
                (10, 10, NAN, 4)])
@example(items=[(10, 9, 1, 1), (10, 10, 1, 2), (11, 14, 1, 3),
                (11, 11, 1, 4), (11, 14, 1, 6), (12, 18, 1, 7)])
@example(items=[(10, 10, 1, 5), (10, 10, 1, 1), (10, 10, 1, 10),
                (30, 30, 1, 5), (10, 10, 1, 2), (30, 30, 1, 2)])
def test_cache_never_shows(label, items):
    for size in BLOCK_SIZES:
        drive(pair(QUERIES[label]), items, size)


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(items=streams())
def test_sample_gate_draws_once_per_row_in_order(items):
    for size in BLOCK_SIZES:
        nodes = pair(QUERIES["window and key"],
                     define="query_name q; sample 0.5")
        assert nodes[1]._sample_rate == 0.5
        drive(nodes, items, size)


class TestWhatTheCacheSkips:
    def rows(self, node, rows):
        node.dispatch_batch(rows, 0)
        return node

    def test_one_probe_per_run_not_per_row(self):
        """Counted on the dict itself: 1000 rows, two keys, two runs."""
        _, node = pair(QUERIES["window and key"])

        class Counting(dict):
            probes = 0

            def get(self, key):
                Counting.probes += 1
                return dict.get(self, key)
        node._groups = Counting()
        self.rows(node, [(10, 10, 1, 1)] * 500 + [(10, 10, 2, 1)] * 500)
        assert Counting.probes == 2
        assert dict(node._groups) == {(1, 1): [500, 500, 1],
                                      (1, 2): [500, 500, 1]}

    def test_cache_does_not_outlive_the_block(self):
        """A punctuation between two blocks closes the group the first
        block's run was folding into; the second block must not fold
        into the closed state."""
        frozen, node = pair(QUERIES["window only"])
        for each in (frozen, node):
            self.rows(each, [(10, 10, 1, 1)] * 3)
            each.dispatch(Punctuation({0: 25}), 0)
            self.rows(each, [(10, 10, 1, 1)] * 2)   # late: reopens tb=1
            each.dispatch(FLUSH, 0)
        assert observe(node) == observe(frozen)
        assert [row for row in observe(frozen)[0]] == []
        assert frozen.groups_emitted == node.groups_emitted == 2

    def test_flush_inside_a_run_refills_the_cache(self):
        """Banded window: ``bt`` climbs inside a run of one ``k``; each
        new high-water mark flushes below the band and the probe after
        it finds (or recreates) the right group."""
        frozen, node = pair(QUERIES["banded window"])
        rows = [(10, bt, 1, bt) for bt in (5, 5, 6, 9, 9, 5, 13, 13, 9, 20)]
        for each in (frozen, node):
            self.rows(each, rows)
        assert observe(node) == observe(frozen)

    def test_generated_source_names_the_cache(self):
        analyzed = analyze(
            parse_query("DEFINE query_name q; " + QUERIES["window and key"]),
            builtin_registry(), functions(),
            stream_resolver={"src": SOURCE}.get)
        compiler = ExprCompiler(analyzed, functions())
        AggregationNode(plan_query(analyzed, functions()).hfta, analyzed,
                        compiler)
        kernel, = (source for source in compiler.generated_sources
                   if "groups.get(k)" in source)
        assert "if s is None or g0 != k0 or g1 != k1:" in kernel
        assert kernel.index("groups.get(k)") > kernel.index("g1 != k1")
