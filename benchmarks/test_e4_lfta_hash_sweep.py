"""E4 -- the LFTA's small direct-mapped hash table vs temporal locality.

"An LFTA can perform aggregation, but it uses a small direct-mapped
hash table.  Hash table collisions result in a tuple computed from the
ejected group being written to the output stream.  Because of temporal
locality, aggregation even with a small hash table is effective in
early data reduction." (Section 3)

The ablation the paper asserts qualitatively: sweep the table size
against flow-popularity skew (Zipf alpha).  With a skewed workload a
small table already absorbs most updates; with a uniform workload the
same table thrashes.  Correctness never depends on the size -- the HFTA
recombines partials -- only the early-reduction factor does.
"""

import pytest

from repro import Gigascope
from repro.workloads.flows import ZipfFlowWorkload

QUERY = """
    DEFINE query_name flows;
    Select tb, srcIP, srcPort, count(*), sum(len)
    From tcp
    Group by time/30 as tb, srcIP, srcPort
"""

TABLE_SIZES = [64, 256, 1024, 4096]
ALPHAS = [0.0, 0.8, 1.2]
PACKETS = 30_000

#: The EXPERIMENTS.md E4 table, cell for cell.  The workload is seeded
#: and slots are placed by the tuple hash of the all-integer key, a
#: function of its value alone, so these are exact: a change here means
#: group placement moved, and with it the golden ``schedule`` digests
#: (DESIGN section 18) -- regenerate both or neither.
COMMITTED = {
    64: [29783, 26884, 14781],
    256: [29039, 23044, 9108],
    1024: [26333, 17986, 5805],
    4096: [18819, 11823, 4044],
}
COMMITTED_COLLISION_RATES = {0.0: 0.959, 1.2: 0.295}


def run(table_size, packets):
    gs = Gigascope(lfta_table_size=table_size)
    gs.add_query(QUERY)
    sub = gs.subscribe("flows")
    gs.start()
    gs.feed(packets)
    gs.flush()
    rows = sub.poll()
    stats = gs.stats()
    lfta_name = next(name for name in stats if name.startswith("_fta_"))
    return rows, stats[lfta_name]


@pytest.fixture(scope="module")
def streams():
    return {
        alpha: list(ZipfFlowWorkload(num_flows=8000, alpha=alpha,
                                     seed=13).packets(PACKETS, pps=2000.0))
        for alpha in ALPHAS
    }


def test_e4_reduction_vs_table_size_and_skew(streams):
    print("\nE4 LFTA partials emitted (lower = better early reduction), "
          f"{PACKETS} packets, 8000 flows")
    print(f"{'table size':>10}" + "".join(f"  alpha={a:<6}" for a in ALPHAS))
    table = {}
    reference = {}
    for size in TABLE_SIZES:
        row = []
        for alpha in ALPHAS:
            rows, lfta_stats = run(size, streams[alpha])
            aggregated = {}
            for tb, src, sport, cnt, total in rows:
                key = (tb, src, sport)
                assert key not in aggregated  # HFTA emits each group once
                aggregated[key] = (cnt, total)
            if alpha not in reference:
                reference[alpha] = aggregated
            # Correctness is independent of the table size.
            assert aggregated == reference[alpha]
            row.append(lfta_stats["tuples_out"])
        table[size] = row
        print(f"{size:>10}" + "".join(f"{v:>13}" for v in row))

    assert table == COMMITTED
    for column, alpha in enumerate(ALPHAS):
        # Bigger tables always reduce at least as well (fewer partials).
        per_size = [table[size][column] for size in TABLE_SIZES]
        assert per_size == sorted(per_size, reverse=True)
    # Temporal locality is what makes small tables work: with the skewed
    # workload the small table emits far fewer partials than with the
    # uniform one.
    small = TABLE_SIZES[0]
    assert table[small][ALPHAS.index(1.2)] < table[small][ALPHAS.index(0.0)] * 0.8


def test_e4_collision_rate_drops_with_skew(streams):
    from repro.gsql.codegen import ExprCompiler
    from repro.gsql.functions import builtin_functions
    from repro.gsql.parser import parse_query
    from repro.gsql.planner import plan_query
    from repro.gsql.schema import builtin_registry
    from repro.gsql.semantic import analyze
    from repro.operators.lfta import LftaNode

    functions = builtin_functions()
    rates = {}
    for alpha in (0.0, 1.2):
        analyzed = analyze(parse_query(QUERY), builtin_registry(), functions)
        plan = plan_query(analyzed, functions)
        lfta = LftaNode(plan.lftas[0], analyzed,
                        ExprCompiler(analyzed, functions), table_size=256)
        for packet in streams[alpha]:
            lfta.accept_packet(packet)
        rates[alpha] = lfta.table.collision_rate
    print(f"\nE4 collision rate at 256 slots: uniform={rates[0.0]:.3f}, "
          f"zipf(1.2)={rates[1.2]:.3f}")
    assert rates[1.2] < rates[0.0]
    assert {alpha: round(rate, 3) for alpha, rate in rates.items()} \
        == COMMITTED_COLLISION_RATES
