"""The key-run caches of both aggregation levels against a probe per
row (DESIGN section 18): the HFTA's here, the LFTA's in the second half.

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

The engine keeps group state in columns (a row per group, one list per
partial slot) and compacts them when a banded window closes only some
groups; the frozen nodes keep a state list per group.  So the same
drive also covers every aggregate kind, the superaggregate that
combines partials, and a HAVING or select list that raises in the
middle of a close: both nodes raise the same error, and the groups
after the failing one stay open.
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
from repro.gsql.schema import (Attribute, ProtocolSchema, StreamSchema,
                               builtin_registry)
from repro.gsql.semantic import analyze
from repro.gsql.types import FLOAT, UINT
from repro.net.build import build_tcp_frame
from repro.net.packet import CapturedPacket
from repro.operators.aggregation import AggregationNode
from repro.operators.lfta import LftaNode
from repro.recovery.wire import encode_snapshot

from tests.frozen_decode_select import (FrozenAggregation, FrozenCompiler,
                                        FrozenLfta)
from tests.test_fused_kernels import observe as lfta_observe
from tests.test_prefilter import without_layouts

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


class Crash(Exception):
    """What ``crash`` raises."""


def crash(value):
    if value == 3:
        raise Crash(f"crash({value!r})")
    return value


def functions():
    """The builtins plus ``keep``: a partial function with no result on
    multiples of five; and ``crash``, which raises on 3."""
    registry = builtin_functions()
    registry.register(FunctionSpec(
        "keep", lambda x: None if x % 5 == 0 else x, (UINT,), UINT,
        partial=True))
    registry.register(FunctionSpec("crash", crash, (UINT,), UINT))
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


def with_source_protocol():
    """The builtin protocols plus ``probe``, a protocol with ``src``'s
    attributes: a query over it splits, and its HFTA combines the
    LFTA's partials."""
    registry = builtin_registry()
    registry.add(ProtocolSchema("probe", SOURCE.attributes, {},
                                expander=lambda packet: []))
    return registry


def superaggregate_pair(select):
    """(frozen, columnar) superaggregates of ``select`` over ``probe``."""
    nodes = []
    for cls, compiler in ((FrozenAggregation, FrozenCompiler),
                          (AggregationNode, ExprCompiler)):
        registry = functions()
        analyzed = analyze(parse_query(f"DEFINE query_name q; {select}"),
                           with_source_protocol(), registry)
        plan = plan_query(analyzed, registry).hfta
        assert plan.final_from_partials
        node = cls(plan, analyzed, compiler(analyzed, registry), seed=7)
        node.tap = node.subscribe()
        nodes.append(node)
    return nodes


def as_partials(items):
    """Stream items as an LFTA of ``Group by bt as b, k`` with COUNT,
    SUM, MIN, MAX and AVG would eject them, one row per group: the
    key, then the partial slots (AVG's sum and count)."""
    return [(item[1], item[2], 1, item[3], item[3], item[3],
             item[3] + 0.0, 1) if type(item) is tuple else item
            for item in items]


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


def drive(nodes, items, size, end=FLUSH):
    """Blocks of ``size`` rows to every node, control items singly, then
    ``end``; compare after every delivery.  A delivery may raise
    ``Crash`` (a window close failing mid-way): then every node raises
    it, alike."""
    pending = []

    def deliver(item=None):
        for start in range(0, len(pending), size):
            block = pending[start:start + size]
            each(lambda node: node.dispatch_batch(block, 0))
        del pending[:]
        if item is not None:
            each(lambda node: node.dispatch(item, 0))

    def each(send):
        raised = []
        for node in nodes:
            try:
                send(node)
                raised.append(None)
            except Crash as error:
                raised.append(str(error))
        assert raised == raised[:1] * len(nodes)
        expected = observe(nodes[0])
        for node in nodes[1:]:
            assert observe(node) == expected

    for item in items:
        if type(item) is tuple:
            pending.append(item)
        else:
            deliver(item)
    deliver(end)


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
    "every aggregate": "Select tb, k, count(*), sum(v), min(v), max(v), "
                       "avg(v) From src Group by time/10 as tb, k",
    "banded, every aggregate": "Select b, k, count(*), sum(v), min(v), "
                               "max(v), avg(v) From src "
                               "Group by bt as b, k",
    "having raises": "Select b, k, count(*), avg(v) From src "
                     "Group by bt as b, k Having crash(count(*)) > 0",
    "select list raises": "Select tb, k, crash(sum(v)), min(v), avg(v) "
                          "From src Group by time/10 as tb, k",
}

#: superaggregates over ``probe``, fed :func:`as_partials` rows
SUPERAGGREGATES = {
    "every aggregate": "Select b, k, count(*), sum(v), min(v), max(v), "
                       "avg(v) From probe Group by bt as b, k",
    "having raises": "Select b, k, count(*), sum(v), min(v), max(v), "
                     "avg(v) From probe Group by bt as b, k "
                     "Having crash(count(*)) > 0",
    "select list raises": "Select b, k, count(*), sum(v), min(v), max(v), "
                          "crash(sum(v) % 7) From probe Group by bt as b, k",
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


@pytest.mark.parametrize("label", sorted(SUPERAGGREGATES))
@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(items=streams())
@example(items=[(10, 10, 1, 1), (10, 11, 1, 1), (10, 12, 1, 1),
                (10, 12, 2, 1), (10, 12, 2, 1), (10, 12, 2, 1),
                (10, 15, 2, 1), (10, 16, 1, 1), (10, 17, 1, 1)])
def test_superaggregate_columns(label, items):
    """The combine of partials into columns, and its close."""
    for size in BLOCK_SIZES:
        drive(superaggregate_pair(SUPERAGGREGATES[label]),
              as_partials(items), size)


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
        assert node.snapshot_state()["groups"] == {(1, 1): [500, 500, 1],
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

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_a_partial_close_compacts_and_a_raise_leaves_groups_open(
            self, size):
        """Banded window (band 3): a new high-water mark closes the
        groups more than the band below it and keeps the rest, whose
        rows move down.  The close that meets a group of three rows
        raises there: the groups after it stay open, in their rows, and
        the next close emits them."""
        nodes = pair(QUERIES["having raises"])
        node = nodes[1]
        # b = 1, 2, 3 for k = 1, 2; then b = 5 closes b < 2
        drive(nodes, [(10, b, k, b) for b in (1, 2, 3) for k in (1, 2)]
              + [(10, 5, 1, 5), (10, 5, 2, 5)], size, end=None)
        assert node.open_groups == len(node._columns[0]) == 6
        assert node.groups_emitted == 2
        # (2, 2) grows to three rows; b = 7 closes b < 4 and raises there
        drive(nodes, [(10, 2, 2, 7), (10, 2, 2, 8), (10, 7, 3, 1)], size,
              end=None)
        assert node.groups_emitted == 3
        assert list(node._groups) == [(3, 1), (3, 2), (5, 1), (5, 2)]
        assert list(node._groups.values()) == [0, 1, 2, 3]
        assert node._columns[0] == [1, 1, 1, 1]
        drive(nodes, [(10, 9, 1, 4)], size)
        assert node.groups_emitted == 8 and node.open_groups == 0

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
        assert "if r is None or g0 != k0 or g1 != k1:" in kernel
        assert kernel.index("groups.get(k)") > kernel.index("g1 != k1")


# -- the LFTA's fold ---------------------------------------------------------------
#
# ``ExprCompiler.lfta_action`` keeps the same cache in front of the
# direct-mapped table: an unchanged key counts its lookup and folds
# into the state in hand -- no slot hash, no window check, no probe.
# ``FrozenLfta`` is the loop that probed per row.  Both take packets:
# through the one-member block kernel where the protocol has a layout,
# through the row adapter (``lfta_adapter_fn``) where it has none.

LFTA_REGISTRIES = {"kernel": builtin_registry(), "adapter": without_layouts()}
#: source ports: ``keep`` drops multiples of five
PORTS = [1, 2, 3, 5, 10, 11]
#: a frame of this length makes ``boom`` return a string, which the
#: fold then fails to add
BOOM_LEN = 60


def lfta_functions():
    """``functions()`` plus ``boom``: a string where an integer is due
    on frames of ``BOOM_LEN`` bytes."""
    registry = functions()
    registry.register(FunctionSpec(
        "boom", lambda x: "x" if x == BOOM_LEN else x, (UINT,), UINT))
    return registry


def lfta_pair(select, registry, table_size, define="query_name q"):
    """(frozen, cached) LFTA nodes of ``select``, each with its own
    compiler; ``$off`` starts at 0."""
    nodes = []
    for cls, compiler in ((FrozenLfta, FrozenCompiler),
                          (LftaNode, ExprCompiler)):
        udfs = lfta_functions()
        analyzed = analyze(parse_query(f"DEFINE {{ {define}; }} {select}"),
                           registry, udfs)
        lfta, = plan_query(analyzed, udfs).lftas
        assert lfta.mode == "partial_aggregation"
        node = cls(lfta, analyzed,
                   compiler(analyzed, udfs, {"off": 0}),
                   table_size=table_size, seed=7)
        node.tap = node.subscribe()
        node.params = node._compiler.params
        nodes.append(node)
    return nodes


_FRAMES = {}


def frame(sport, dport, length):
    """A TCP frame of ``length`` payload bytes, built once."""
    key = sport, dport, length
    if key not in _FRAMES:
        _FRAMES[key] = build_tcp_frame("10.0.0.1", "10.0.0.2", sport, dport,
                                       payload=b"p" * length)
    return _FRAMES[key]


@st.composite
def packet_runs(draw):
    """Packets as runs of one source port or two alternating ones; the
    clock mostly stands still inside a run (``time/4`` moves inside
    some), a packet is now and then late, and between runs a
    heartbeat, a new ``$off`` or a new shed rate may fall."""
    items = []
    now = draw(st.integers(0, 40))
    for _ in range(draw(st.integers(1, 6))):
        ports = draw(st.lists(st.sampled_from(PORTS), min_size=1, max_size=2))
        dport = draw(st.sampled_from([80, 80, 7]))
        length = draw(st.sampled_from([1, 2, 3, 9, 40, 260]))
        advance = draw(st.sampled_from([0, 0, 1, 3]))
        for position in range(length):
            if draw(st.integers(0, 19)) == 0:
                now += advance
            late = draw(st.integers(0, 29)) == 0
            items.append(CapturedPacket(
                timestamp=(max(0, now - 9) if late else now) + 0.25,
                data=frame(ports[position % len(ports)], dport,
                           draw(st.sampled_from([0, 0, 1, 5, 6, 7]))),
                interface="eth0"))
        between = draw(st.sampled_from([None, None, "heartbeat", "param",
                                        "shed"]))
        if between == "heartbeat":
            items.append(("heartbeat", float(now)))
        elif between == "param":
            items.append(("param", draw(st.sampled_from([0, 1, 7]))))
        elif between == "shed":
            items.append(("shed", draw(st.sampled_from([1.0, 0.5, 0.8]))))
        now += advance
    return items


def lfta_drive(nodes, items, size):
    """Blocks of ``size`` packets to both nodes, what falls between
    runs to both; compare after every block.  When the cached node
    raises at packet *k* of a block, the frozen one gets the block's
    first *k* packets and must raise the same error on the last."""
    frozen, cached = nodes
    pending = []

    def deliver():
        for start in range(0, len(pending), size):
            block = pending[start:start + size]
            seen = cached.packets_seen
            try:
                cached.accept_batch(block)
                raised = None
            except TypeError as error:
                raised = error
                block = block[:cached.packets_seen - seen]
            try:
                frozen.accept_batch(block)
                assert raised is None
            except TypeError as error:
                assert str(error) == str(raised)
            assert lfta_observe(cached) == lfta_observe(frozen)
        del pending[:]

    for item in items:
        if isinstance(item, CapturedPacket):
            pending.append(item)
            continue
        deliver()
        what, value = item
        for node in nodes:
            if what == "heartbeat":
                node.on_heartbeat(value)
            elif what == "param":
                node.params["off"] = value
            else:
                node.set_shed_rate(value)
        assert lfta_observe(cached) == lfta_observe(frozen)
    deliver()
    for node in nodes:
        node.flush()
    assert lfta_observe(cached) == lfta_observe(frozen)


LFTA_QUERIES = {
    "window and key": "Select tb, srcPort, count(*), sum(len), min(ttl) "
                      "From tcp Group by time/4 as tb, srcPort",
    "key before window": "Select srcPort, tb, count(*), avg(len), "
                         "max(len) From tcp Group by srcPort, time/4 as tb",
    "window only": "Select tb, count(*), sum(len) From tcp "
                   "Group by time/4 as tb",
    "no window": "Select srcPort, destPort, count(*), sum(len) From tcp "
                 "Group by srcPort, destPort",
    "no group by": "Select count(*), sum(len) From tcp Where destPort <> 7",
    "discard in the key": "Select tb, kp, count(*), sum(len) From tcp "
                          "Group by time/4 as tb, keep(srcPort) as kp",
    "discard in an argument": "Select tb, srcPort, count(*), "
                              "sum(keep(len)) From tcp "
                              "Group by time/4 as tb, srcPort",
    "predicate kills": "Select tb, srcPort, count(*) From tcp "
                       "Where destPort <> 7 and keep(len + 1) > 0 "
                       "Group by time/4 as tb, srcPort",
    "parameter in the key": "Select tb, kp, count(*), sum(len) From tcp "
                            "Group by time/4 as tb, srcPort + $off as kp",
    "fold raises": "Select tb, srcPort, count(*), sum(boom(len)) From tcp "
                   "Group by time/4 as tb, srcPort",
    "every aggregate": "Select tb, srcPort, count(*), sum(len), min(ttl), "
                       "max(len), avg(len) From tcp "
                       "Group by time/4 as tb, srcPort",
}

LFTA_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.data_too_large])


def at_every_block_size(select, registry, table_size, items,
                        define="query_name q"):
    for size in BLOCK_SIZES:
        lfta_drive(lfta_pair(select, LFTA_REGISTRIES[registry], table_size,
                             define), items, size)


@pytest.mark.parametrize("registry", sorted(LFTA_REGISTRIES))
@pytest.mark.parametrize("label", sorted(LFTA_QUERIES))
@LFTA_SETTINGS
@given(items=packet_runs(), table_size=st.sampled_from([1, 3, 64]))
def test_lfta_cache_never_shows(label, registry, items, table_size):
    at_every_block_size(LFTA_QUERIES[label], registry, table_size, items)


def stamped(runs):
    """``(time, srcPort, payload)`` triples as packets to port 80."""
    return [CapturedPacket(timestamp=ts + 0.25, data=frame(port, 80, size),
                           interface="eth0") for ts, port, size in runs]


@pytest.mark.parametrize("registry", sorted(LFTA_REGISTRIES))
@pytest.mark.parametrize("items", [
    # alternating keys in a one-slot table: every change ejects the
    # cached group's slot-mate, which then comes back
    stamped([(8, 1, 0), (8, 2, 0)] * 5 + [(8, 1, 1)] * 3),
    # the window moves inside a run of one port; a late row reopens
    stamped([(8, 3, 0), (9, 3, 0), (12, 3, 1), (13, 3, 0), (5, 3, 0),
             (16, 3, 0)]),
    # a discarded key mid-run, then the run resumes
    stamped([(8, 1, 0), (8, 1, 0), (8, 5, 0), (8, 1, 0), (8, 10, 0),
             (8, 1, 6)]),
    # the fold raises mid-run, on a run's first row, and after a flush
    stamped([(8, 1, 0), (8, 1, 6), (8, 1, 0), (8, 2, 6), (8, 2, 0),
             (13, 2, 0), (13, 2, 6)]),
], ids=["slot-mates", "window", "discard", "raise"])
def test_lfta_cache_at_the_edges(registry, items):
    for label in ("window and key", "discard in the key", "fold raises",
                  "every aggregate"):
        at_every_block_size(LFTA_QUERIES[label], registry, 1, items)
        at_every_block_size(LFTA_QUERIES[label], registry, 3,
                            items + [("heartbeat", 30.0)] + items)


@pytest.mark.parametrize("registry", sorted(LFTA_REGISTRIES))
@LFTA_SETTINGS
@given(items=packet_runs())
def test_lfta_sample_gate_and_shed_weights(registry, items):
    """``DEFINE sample`` draws once per row ahead of the cache, the shed
    gate once per packet, and the Horvitz-Thompson weight rides on
    both paths of the fold."""
    items = [("shed", 0.6)] + items
    at_every_block_size(LFTA_QUERIES["window and key"], registry, 3, items,
                        define="query_name q; sample 0.5")


class TestWhatTheLftaCacheSkips:
    def test_one_probe_per_run_not_per_row(self):
        """Counted on the key array: 1000 packets, two ports, two runs
        -- two slot reads, 1000 lookups."""
        _, node = lfta_pair(LFTA_QUERIES["window and key"],
                            LFTA_REGISTRIES["kernel"], 64)

        class Counting(list):
            reads = 0

            def __getitem__(self, index):
                Counting.reads += 1
                return list.__getitem__(self, index)
        node.table.keys = Counting(node.table.keys)
        node.accept_batch(stamped([(8, 1, 0)] * 500 + [(8, 2, 0)] * 500))
        assert Counting.reads == 2
        assert node.table.lookups == 1000
        slots = node.table.snapshot_state()["slots"]
        assert sorted(state for _, state in slots.values()) == [
            [500, 27000, 64], [500, 27000, 64]]

    def test_the_probe_is_inside_the_changed_branch(self):
        _, node = lfta_pair(LFTA_QUERIES["window and key"],
                            LFTA_REGISTRIES["kernel"], 64)
        source, = (source for source in node._compiler.generated_sources
                   if source.startswith("def kernel("))
        lines = source.splitlines()
        test = next(i for i, line in enumerate(lines) if line.strip()
                    == "if i_0 is None or g0_0 != k0_0 or g1_0 != k1_0:")
        depth = len(lines[test]) - len(lines[test].lstrip())
        end = next(i for i in range(test + 1, len(lines))
                   if len(lines[i]) - len(lines[i].lstrip()) <= depth)
        branch = "\n".join(lines[test:end])
        for probe in ("_crc32_0(", "node_0._flush_below(",
                      "e_0 = keys_0[i_0]"):
            assert source.count(probe) == branch.count(probe) == 1
        assert lines[end:end + 2] == [" " * depth + "else:",
                                      " " * depth + "    lookups_0 += 1"]
