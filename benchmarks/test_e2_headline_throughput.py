"""E2 -- the Section 5 deployment claim: sustained packets/second.

"At peak periods, Gigascope processes 1.2 million packets per second
using an inexpensive dual 2.4 GHz CPU server" -- the headline of the
largest deployment: application-protocol monitoring over two Gigabit
Ethernet links (two interfaces, merged, then aggregated).

We measure what *this* reproduction sustains on the same query shape
(real wall-clock, pytest-benchmark).  Pure Python will not reach 1.2 M
packets/s; the deliverable is the measured number and the efficiency
structure: the LFTA touches every packet, everything downstream sees
only reduced data.
"""

import json
import time
from pathlib import Path

import pytest

from repro import Gigascope
from repro.core.stream_manager import DEFAULT_BATCH_SIZE
from repro.workloads.generators import http_port80_pool, merge_streams, packet_stream

REPO_ROOT = Path(__file__).resolve().parent.parent

PAPER_PPS = 1_200_000

#: Tuple-at-a-time throughput at the commit before blocks landed
#: (reference container); the headline is measured against it.
PRE_BATCH_BASELINE_PPS = 38_527


#: the Section 5 plan: two links, merged, then aggregated (E16 shards it)
QUERIES = """
    DEFINE query_name link0;
    Select time, destIP, len From eth0.tcp Where destPort = 80;

    DEFINE query_name link1;
    Select time, destIP, len From eth1.tcp Where destPort = 80;

    DEFINE query_name both;
    Merge link0.time : link1.time From link0, link1;

    DEFINE query_name appmon;
    Select tb, count(*), sum(len) From both Group by time/10 as tb
"""


def build_engine(batch_size=None):
    gs = Gigascope(heartbeat_interval=1.0, batch_size=batch_size)
    gs.add_queries(QUERIES)
    gs.subscribe("appmon")
    gs.start()
    return gs


def make_packets(count=40_000):
    pool0 = http_port80_pool(seed=1)
    pool1 = http_port80_pool(seed=2)
    # rate chosen so `count` packets span a few heartbeat intervals
    a = packet_stream(pool0, rate_mbps=25.0, duration_s=10.0,
                      interface="eth0", seed=3)
    b = packet_stream(pool1, rate_mbps=25.0, duration_s=10.0,
                      interface="eth1", seed=4)
    packets = []
    for packet in merge_streams(a, b):
        packets.append(packet)
        if len(packets) >= count:
            break
    return packets


ROUNDS = 3


def test_e2_throughput(benchmark):
    packets = make_packets()
    elapsed = []

    def run():
        gs = build_engine(batch_size=DEFAULT_BATCH_SIZE)
        start = time.perf_counter()
        gs.feed(packets, pump_every=1024)
        elapsed.append(time.perf_counter() - start)
        return gs

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    pps = len(packets) / min(elapsed)

    # The same workload in blocks of one (the same code path with
    # nothing amortised): the in-run reference arm of BENCH_E2.json.
    block1_elapsed = []
    for _ in range(ROUNDS):
        gs = build_engine(batch_size=1)
        start = time.perf_counter()
        gs.feed(packets, pump_every=1024)
        block1_elapsed.append(time.perf_counter() - start)
    block1_pps = len(packets) / min(block1_elapsed)

    print(f"\nE2 headline: {pps:,.0f} packets/s sustained "
          f"(paper: {PAPER_PPS:,} on a 2003 dual 2.4 GHz server)")
    print(f"   blocks of one: {block1_pps:,.0f} pps; pre-batching baseline "
          f"{PRE_BATCH_BASELINE_PPS:,} pps "
          f"-> {pps / PRE_BATCH_BASELINE_PPS:.2f}x")
    print(f"   slowdown vs paper: {PAPER_PPS / pps:,.0f}x "
          "(pure Python vs generated C linked into the RTS)")

    (REPO_ROOT / "BENCH_E2.json").write_text(json.dumps({
        "experiment": "E2 headline throughput",
        "packets": len(packets),
        "rounds": ROUNDS,
        "batch_size": DEFAULT_BATCH_SIZE,
        "pps": pps,
        "block1_pps": block1_pps,
        "pre_batch_baseline_pps": PRE_BATCH_BASELINE_PPS,
        "speedup_vs_block1": pps / block1_pps,
        "speedup_vs_pre_batch_baseline": pps / PRE_BATCH_BASELINE_PPS,
    }, indent=2))

    # Floor so regressions are caught; with columnar block execution the
    # engine clears this on any machine that runs the suite at all.
    # (CI additionally holds the ratio to the blocks-of-one arm to 80%
    # of the one in the committed BENCH_E2.json.)
    assert pps > 40_000


def test_e2_reduction_structure():
    """The efficiency claim behind the number: per-packet work happens
    once, in the LFTA; the merge and aggregation see only reduced data."""
    gs = build_engine()
    packets = make_packets(20_000)
    gs.feed(packets)
    gs.flush()
    stats = gs.stats()
    lfta_in = sum(s["tuples_in"] for name, s in stats.items()
                  if name.startswith("link"))
    merge_in = stats["both"]["tuples_in"]
    agg_out = stats["appmon"]["tuples_out"]
    print(f"\nE2 reduction: {len(packets)} packets -> {lfta_in} LFTA tuples "
          f"-> {merge_in} merged -> {agg_out} result rows")
    assert agg_out < merge_in <= lfta_in <= len(packets)
    assert agg_out <= 20  # ~10 s of stream in 10 s buckets
