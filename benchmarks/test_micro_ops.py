"""Micro-benchmarks of the hot paths (pytest-benchmark).

Not tied to a paper table; these guard the per-packet costs that every
experiment's wall-clock depends on: packet interpretation, the LFTA
fast path, LPM lookups, checksums, capture-file IO, and the HFTA
operators.  Run with ``pytest benchmarks/ --benchmark-only``.
"""

import io
import random

import pytest

from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import PacketView, builtin_registry
from repro.gsql.semantic import analyze
from repro.net.checksum import internet_checksum
from repro.net.lpm import PrefixTable
from repro.net.packet import CapturedPacket
from repro.net.pcap import PcapReader, PcapWriter
from repro.operators.lfta import LftaNode
from repro.workloads.generators import http_port80_pool


@pytest.fixture(scope="module")
def packets():
    pool = http_port80_pool(seed=1, pool_size=256)
    return [CapturedPacket(timestamp=i * 0.001, data=pool.frames[i % 256])
            for i in range(2000)]


def test_bench_packet_interpretation(benchmark, packets):
    """Full tcp-protocol interpretation of every field."""
    tcp = builtin_registry().get("tcp")

    def interpret_all():
        total = 0
        for packet in packets:
            total += len(tcp.interpret(packet))
        return total

    assert benchmark(interpret_all) == len(packets)


def test_bench_lfta_filter_path(benchmark, packets):
    """The per-packet LFTA fast path: sparse interpret + predicate +
    projection (the engine's innermost loop)."""
    functions = builtin_functions()
    analyzed = analyze(
        parse_query("DEFINE query_name q; Select time, destIP From tcp "
                    "Where destPort = 80"),
        builtin_registry(), functions)
    plan = plan_query(analyzed, functions)

    def run():
        lfta = LftaNode(plan.lftas[0], analyzed,
                        ExprCompiler(analyzed, functions))
        for packet in packets:
            lfta.accept_packet(packet)
        return lfta.stats.tuples_out

    assert benchmark(run) == len(packets)  # pool is all port 80


def test_bench_lfta_partial_aggregation(benchmark, packets):
    functions = builtin_functions()
    analyzed = analyze(
        parse_query("DEFINE query_name q; Select tb, srcIP, count(*), "
                    "sum(len) From tcp Group by time/1 as tb, srcIP"),
        builtin_registry(), functions)
    plan = plan_query(analyzed, functions)

    def run():
        lfta = LftaNode(plan.lftas[0], analyzed,
                        ExprCompiler(analyzed, functions))
        for packet in packets:
            lfta.accept_packet(packet)
        lfta.flush()
        return lfta.stats.tuples_in

    assert benchmark(run) == len(packets)


@pytest.fixture(scope="module")
def selection_rows(packets):
    """Interpreted rows + the fused and chained batch kernels for the
    same selection plan (DESIGN sec 10: fused codegen vs a chain of the
    scalar predicate and projection callables)."""
    functions = builtin_functions()
    analyzed = analyze(
        parse_query("DEFINE query_name q; Select time, destIP From tcp "
                    "Where destPort = 80"),
        builtin_registry(), functions)
    plan = plan_query(analyzed, functions)
    lfta_plan = plan.lftas[0]
    lfta = LftaNode(lfta_plan, analyzed, ExprCompiler(analyzed, functions))
    rows = [row for packet in packets for row in lfta._interpret(packet)]
    fused = ExprCompiler(analyzed, functions).batch_select_fn(
        lfta_plan.predicates, lfta_plan.project_exprs, (None, None))
    chained = ExprCompiler(analyzed, functions, None, "interpreted"
                           ).batch_select_fn(
        lfta_plan.predicates, lfta_plan.project_exprs, (None, None))
    return rows, fused, chained


def test_bench_batch_select_fused(benchmark, selection_rows):
    """One generated function: interpret -> predicate -> project fused."""
    rows, fused, _ = selection_rows

    def run():
        out = []
        fused(rows, out.append)
        return len(out)

    assert benchmark(run) == len(rows)  # pool is all port 80


def test_bench_batch_select_chained(benchmark, selection_rows):
    """The same plan as a chain of scalar callables, for comparison."""
    rows, _, chained = selection_rows

    def run():
        out = []
        chained(rows, out.append)
        return len(out)

    assert benchmark(run) == len(rows)


@pytest.fixture(scope="module")
def flow_keys():
    """5-tuple-per-window group keys, the shape ``flows_highcard``
    places: all integer, so the plan gets the ``%d`` format."""
    rng = random.Random(5)
    return [(rng.randrange(100), rng.randrange(1 << 32), rng.randrange(1 << 32),
             rng.randrange(1 << 16), rng.randrange(1 << 16), 6)
            for _ in range(10_000)]


def test_bench_key_hash_generated(benchmark, flow_keys):
    """Slot placement through the per-plan format (DESIGN section 18).
    CI gates the ratio of this to ``_stable`` below, measured in the
    same run; the numbers must be the same numbers."""
    from repro.determinism import int_key_format, stable_hash, stable_slots

    fmt = int_key_format(6)
    slots, error = benchmark(stable_slots, flow_keys, 4096, fmt)
    assert error is None
    assert slots == [stable_hash(key) % 4096 for key in flow_keys]


def test_bench_key_hash_stable(benchmark, flow_keys):
    """The same placement through ``stable_hash``'s ``repr`` walk."""
    from repro.determinism import stable_slots

    slots, error = benchmark(stable_slots, flow_keys, 4096, None)
    assert error is None and len(slots) == len(flow_keys)


@pytest.fixture(scope="module")
def syn_blocks():
    """Blocks of TCP packets of which 3 % are bare SYNs: what
    ``join_rtt``'s ``syn`` LFTA sees, 97 % dying on its one conjunct."""
    from repro.net.build import build_tcp_frame

    rng = random.Random(9)
    packets = [CapturedPacket(
        timestamp=i * 0.001,
        data=build_tcp_frame(rng.randrange(1 << 32), rng.randrange(1 << 32),
                             rng.randrange(1 << 16), 80,
                             flags=0x02 if rng.random() < 0.03 else 0x10))
        for i in range(4096)]
    return [packets[i:i + 256] for i in range(0, len(packets), 256)]


def _syn_front_end(pushed: bool):
    """``syn``'s decode + select, with its conjunct inside the decode
    loop (the lean form: what the node picks for this input) or left in
    the select kernel behind the plain decoder."""
    functions = builtin_functions()
    analyzed = analyze(parse_query(
        "DEFINE query_name syn; Select time, timestamp, srcIP, destIP, "
        "srcPort, destPort From tcp Where tcpflags & 18 = 2"),
        builtin_registry(), functions)
    lfta = plan_query(analyzed, functions).lftas[0]
    compiler = ExprCompiler(analyzed, functions, None, "compiled")
    needed = lfta.needed_fields(analyzed)
    prefix = lfta.predicates[:lfta.prefix] if pushed else []
    assert len(prefix) == pushed
    decode = compiler.block_decoder_fn(
        lfta.protocol, needed, compiler.prefilter(prefix), lean=pushed)
    select = compiler.columnar_select_fn(
        lfta.predicates[len(prefix):], lfta.project_exprs, (None, None))

    def run(blocks):
        out = []
        for packets in blocks:
            block = decode(packets)
            select(block, range(block.n), out.append)
        return out
    return run


def test_bench_prefilter_pushed(benchmark, syn_blocks):
    """The prefix tested inside the generated decode loop (DESIGN
    section 14).  CI gates the ratio of ``_unpushed`` below to this,
    measured in the same run; the rows must be the same rows."""
    rows = benchmark(_syn_front_end(True), syn_blocks)
    assert rows == _syn_front_end(False)(syn_blocks)
    assert 0 < len(rows) < 0.06 * sum(map(len, syn_blocks))


def test_bench_prefilter_unpushed(benchmark, syn_blocks):
    """Decode every guard-passer into a row, then filter column-wise."""
    assert benchmark(_syn_front_end(False), syn_blocks)


def test_bench_channel_push_scalar(benchmark):
    from repro.core.channels import Channel

    items = [(i, i * 2) for i in range(10_000)]

    def run():
        channel = Channel()
        push = channel.push
        for item in items:
            push(item)
        return len(channel.drain())

    assert benchmark(run) == len(items)


def test_bench_channel_push_many(benchmark):
    """Block transport of the same items (amortized call overhead)."""
    from repro.core.channels import Channel

    items = [(i, i * 2) for i in range(10_000)]

    def run():
        channel = Channel()
        channel.push_many(items)
        return len(channel.pop_many())

    assert benchmark(run) == len(items)


def test_bench_lpm_lookup(benchmark):
    rng = random.Random(7)
    table = PrefixTable()
    for _ in range(5000):
        length = rng.randrange(8, 25)
        network = rng.randrange(1 << 32) & (~((1 << (32 - length)) - 1))
        table.add((network & 0xFFFFFFFF, length), length)
    addresses = [rng.randrange(1 << 32) for _ in range(10_000)]

    def lookups():
        hits = 0
        for address in addresses:
            if table.lookup(address) is not None:
                hits += 1
        return hits

    benchmark(lookups)


def test_bench_internet_checksum(benchmark):
    data = bytes(range(256)) * 6  # a 1536-byte frame

    def checksums():
        total = 0
        for _ in range(200):
            total ^= internet_checksum(data)
        return total

    benchmark(checksums)


def test_bench_pcap_round_trip(benchmark, packets):
    def round_trip():
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        for packet in packets:
            writer.write(packet)
        buffer.seek(0)
        return sum(1 for _ in PcapReader(buffer))

    assert benchmark(round_trip) == len(packets)


def test_bench_engine_end_to_end(benchmark, packets):
    """Whole-engine throughput on the flagship split query."""
    from repro import Gigascope

    def run():
        gs = Gigascope(heartbeat_interval=None)
        gs.add_query(r"""
            DEFINE query_name q;
            Select tb, count(*) From tcp
            Where destPort = 80 and str_match_regex(data, '^[^\n]*HTTP/1.')
            Group by time/1 as tb
        """)
        sub = gs.subscribe("q")
        gs.start()
        gs.feed(packets, pump_every=512)
        gs.flush()
        return sum(c for _tb, c in sub.poll())

    result = benchmark(run)
    assert result > 0
