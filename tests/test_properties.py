"""Cross-cutting property-based tests of core invariants.

These exercise the central correctness claims of the system:

1. The LFTA/HFTA aggregate split (with *any* eviction pattern) equals a
   direct single-pass aggregation.
2. The merge operator's output is nondecreasing on the merge attribute
   for any interleaving of ordered inputs.
3. The windowed join equals a brute-force nested loop for any ordered
   inputs.
4. The ordered flush never closes a group that could still be updated.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.heartbeat import FLUSH


# ---------------------------------------------------------------------------
# 1. Full pipeline: LFTA partial agg + HFTA superaggregate == reference
# ---------------------------------------------------------------------------

@st.composite
def timed_events(draw):
    """(time, key, value) events with nondecreasing times."""
    count = draw(st.integers(min_value=1, max_value=120))
    times = sorted(draw(st.lists(st.integers(0, 500), min_size=count,
                                 max_size=count)))
    events = []
    for t in times:
        key = draw(st.integers(0, 5))
        value = draw(st.integers(0, 100))
        events.append((t, key, value))
    return events


class TestSplitAggregationProperty:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(events=timed_events(), table_size=st.sampled_from([1, 2, 4, 64]))
    def test_split_equals_reference(self, events, table_size, compile_plan):
        analyzed, plan, compiler = compile_plan(
            "DEFINE query_name q; Select tb, k, count(*), sum(len) From tcp "
            "Group by time/60 as tb, destPort as k")
        from repro.operators.aggregation import AggregationNode
        from repro.operators.lfta import LftaNode

        lfta = LftaNode(plan.lftas[0], analyzed, compiler,
                        table_size=table_size)
        hfta = AggregationNode(plan.hfta, analyzed, compiler)
        channel = lfta.subscribe()
        tap = hfta.subscribe()

        # Drive the LFTA with synthetic protocol rows: its row action
        # under the row adapter's loop header, with an interpreter that
        # hands the injected rows through.
        tcp = plan.lftas[0].protocol
        width = len(tcp)
        t_slot = tcp.index_of("time")
        p_slot = tcp.index_of("destPort")
        l_slot = tcp.index_of("len")
        rows = []
        for t, key, value in events:
            row = [0] * width
            row[t_slot] = t
            row[p_slot] = key
            row[l_slot] = value
            rows.append(tuple(row))
        lfta._interpret = lambda row: (row,)
        compiler.lfta_adapter_fn(
            compiler.lfta_action(plan.lftas[0], lfta))(rows)
        assert lfta.stats.discarded == 0
        lfta.flush()
        lfta.emit_flush()
        for item in channel.drain():
            hfta.dispatch(item, 0)

        rows = [item for item in tap.drain() if type(item) is tuple]
        got = {(tb, k): (cnt, total) for tb, k, cnt, total in rows}

        reference = {}
        for t, key, value in events:
            entry = reference.setdefault((t // 60, key), [0, 0])
            entry[0] += 1
            entry[1] += value
        assert got == {k: tuple(v) for k, v in reference.items()}


# ---------------------------------------------------------------------------
# 2. Merge output ordering
# ---------------------------------------------------------------------------

class TestMergeProperty:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(streams=st.lists(st.lists(st.integers(0, 300), min_size=0,
                                   max_size=80), min_size=2, max_size=4),
           rng=st.randoms(use_true_random=False))
    def test_output_nondecreasing_and_complete(self, streams, rng,
                                               compile_plan):
        from repro.operators.merge import MergeNode
        streams = [sorted(s) for s in streams]
        nway = len(streams)
        _, base_plan, _ = compile_plan(
            "DEFINE query_name s0; Select time, destPort From tcp")
        schema = base_plan.output_schema
        names = [f"s{i}" for i in range(nway)]
        columns = " : ".join(f"{n}.time" for n in names)
        analyzed, plan, _compiler = compile_plan(
            f"DEFINE query_name m; Merge {columns} From {', '.join(names)}",
            streams={n: schema for n in names})
        node = MergeNode(plan.hfta, analyzed)
        tap = node.subscribe()

        # Interleave deliveries randomly while preserving per-input order.
        cursors = [0] * nway
        live = [i for i in range(nway) if streams[i]]
        while live:
            side = rng.choice(live)
            node.dispatch((streams[side][cursors[side]], side), side)
            cursors[side] += 1
            if cursors[side] == len(streams[side]):
                live.remove(side)
        for side in range(nway):
            node.dispatch(FLUSH, side)

        rows = [item for item in tap.drain() if type(item) is tuple]
        times = [r[0] for r in rows]
        assert times == sorted(times)
        expected = sorted(t for s in streams for t in s)
        assert times == expected


# ---------------------------------------------------------------------------
# 3. Windowed join equals brute force
# ---------------------------------------------------------------------------

class TestJoinProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=st.lists(st.integers(0, 120), min_size=0, max_size=50),
           right=st.lists(st.integers(0, 120), min_size=0, max_size=50),
           width=st.integers(0, 3))
    def test_band_join_equals_nested_loop(self, left, right, width,
                                          compile_plan):
        from repro.operators.join import JoinNode
        left, right = sorted(left), sorted(right)
        _, base_plan, _ = compile_plan(
            "DEFINE query_name s; Select time, destPort From tcp")
        schema = base_plan.output_schema
        text = (
            "DEFINE query_name j; Select A.time, A.destPort, B.destPort "
            "From sa A, sb B "
            f"Where A.time >= B.time - {width} and A.time <= B.time + {width}"
        )
        analyzed, plan, compiler = compile_plan(
            text, streams={"sa": schema, "sb": schema})
        node = JoinNode(plan.hfta, analyzed, compiler)
        tap = node.subscribe()

        events = [((t, i), 0) for i, t in enumerate(left)]
        events += [((t, j), 1) for j, t in enumerate(right)]
        events.sort(key=lambda e: (e[0][0], e[1]))
        for row, side in events:
            node.dispatch(row, side)
        node.dispatch(FLUSH, 0)
        node.dispatch(FLUSH, 1)

        rows = sorted(item for item in tap.drain() if type(item) is tuple)
        expected = sorted(
            (a, i, j)
            for i, a in enumerate(left)
            for j, b in enumerate(right)
            if -width <= a - b <= width
        )
        assert rows == expected


# ---------------------------------------------------------------------------
# 4. Ordered flush safety
# ---------------------------------------------------------------------------

class TestFlushSafety:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(events=timed_events())
    def test_no_group_closed_early(self, events, compile_plan):
        """Every update must land in exactly one emitted group: if a
        group were flushed too early, a later update would open a second
        output row for the same key."""
        from repro.operators.aggregation import AggregationNode
        _, base_plan, _ = compile_plan(
            "DEFINE query_name base; Select time, len From tcp")
        analyzed, plan, compiler = compile_plan(
            "DEFINE query_name q; Select tb, count(*) From base "
            "Group by time/60 as tb",
            streams={"base": base_plan.output_schema})
        node = AggregationNode(plan.hfta, analyzed, compiler)
        tap = node.subscribe()
        for t, _key, value in events:
            node.dispatch((t, value), 0)
        node.dispatch(FLUSH, 0)
        rows = [item for item in tap.drain() if type(item) is tuple]
        buckets = [row[0] for row in rows]
        assert len(buckets) == len(set(buckets))
        assert sum(row[1] for row in rows) == len(events)
