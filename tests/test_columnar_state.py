"""Open groups cost the cyclic collector nothing per group (DESIGN
section 18).

Both aggregation levels keep group state in columns: the LFTA's
direct-mapped table is a key array plus one array per partial slot,
the HFTA's group dict maps a key to its row in the same kind of
columns.  A group is then a key tuple of integers -- which the
collector stops tracking the first time it looks -- and plain values
in lists that exist anyway, so filling a 4096-slot table and holding
20 000 open groups in the superaggregate leaves the number of
GC-tracked objects where it was.  With a ``[count, sum]`` list per
group and a ``(key, state)`` entry per slot it grew by at least two per
group, and every full collection re-scanned them.
"""

import gc

import pytest

from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import builtin_registry
from repro.gsql.semantic import analyze
from repro.operators.aggregation import AggregationNode
from repro.operators.lfta import LftaNode

from tests.conftest import tcp_packet

TABLE_SIZE = 4096
OPEN_GROUPS = 20_000
#: what a constant number of lazily built objects may add
ALLOWANCE = 64

#: aggregate -> its partial slots for one packet of payload length ``n``
AGGREGATES = {
    "count(*)": lambda n: (1,),
    "sum(len)": lambda n: (n,),
    "min(len)": lambda n: (n,),
    "max(len)": lambda n: (n,),
    "avg(len)": lambda n: (n + 0.0, 1),
}


def nodes(aggregate):
    """The LFTA and the superaggregate of one split plan, each with its
    own compiler."""
    functions = builtin_functions()
    analyzed = analyze(parse_query(
        f"DEFINE query_name q; Select tb, srcPort, destPort, {aggregate} "
        "From tcp Group by time/60 as tb, srcPort, destPort"),
        builtin_registry(), functions)
    plan = plan_query(analyzed, functions)
    lfta = LftaNode(plan.lftas[0], analyzed, ExprCompiler(analyzed, functions),
                    table_size=TABLE_SIZE)
    hfta = AggregationNode(plan.hfta, analyzed,
                           ExprCompiler(analyzed, functions))
    assert hfta.from_partials
    return lfta, hfta


def tracked_growth(work):
    """GC-tracked objects after ``work()`` less those before it."""
    gc.collect()
    before = len(gc.get_objects())
    work()
    gc.collect()
    return len(gc.get_objects()) - before


@pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
def test_open_groups_add_no_tracked_objects(aggregate):
    lfta, hfta = nodes(aggregate)
    # distinct (srcPort, destPort) flows in one window: the table fills,
    # ejecting on collisions, and every partial row opens a new group
    packets = [tcp_packet(ts=5.0, sport=1024 + i // 200, dport=1 + i % 200)
               for i in range(4 * TABLE_SIZE)]
    partials = AGGREGATES[aggregate]
    rows = [(0, 1024 + i // 200, 1 + i % 200) + partials(i % 1500)
            for i in range(OPEN_GROUPS)]

    def fill():
        for start in range(0, len(packets), 256):
            lfta.accept_batch(packets[start:start + 256])
        for start in range(0, len(rows), 256):
            hfta.dispatch_batch(rows[start:start + 256], 0)

    growth = tracked_growth(fill)
    assert lfta.table.occupied > 0.9 * TABLE_SIZE
    assert lfta.table.collisions > 0
    assert hfta.open_groups == OPEN_GROUPS
    assert growth <= ALLOWANCE, (
        f"{growth} GC-tracked objects for {OPEN_GROUPS} open groups")
