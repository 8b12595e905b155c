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
    interpret = lfta_plan.protocol.sparse_interpreter(
        lfta_plan.needed_fields(analyzed))
    rows = [row for packet in packets for row in interpret(packet)]
    compiler = ExprCompiler(analyzed, functions)
    fused = compiler.batch_select_fn(
        lfta_plan.predicates, lfta_plan.project_exprs, (None, None))
    predicate = compiler.predicate_fn(lfta_plan.predicates, (None, None))
    project = compiler.tuple_fn(lfta_plan.project_exprs, (None, None))

    def chained(rows, append):
        dropped = 0
        for row in rows:
            if not predicate(row):
                dropped += 1
                continue
            built = project(row)
            if built is None:
                dropped += 1
                continue
            append(built)
        return dropped
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


def _placement(fmt):
    """``f(keys, size) -> slots`` around the lines the LFTA's generated
    probe places a key with (``_place_key``; DESIGN section 18)."""
    import zlib

    from repro.determinism import key_hasher
    from repro.gsql.codegen import _place_key

    env = {"_crc32": zlib.crc32, "hash_key": key_hasher(fmt)}
    exec("def place(keys, size):\n"
         "    slots = []\n"
         "    for k in keys:\n"
         + "".join(f"        {line}\n" for line in _place_key(fmt))
         + "        slots.append(i)\n"
         "    return slots\n", env)
    return env["place"]


def test_bench_key_hash_generated(benchmark, flow_keys):
    """Slot placement through the per-plan format (DESIGN section 18),
    as the fused LFTA loop inlines it.  CI gates the ratio of this to
    ``_stable`` below, measured in the same run; the numbers must be
    the same numbers."""
    from repro.determinism import int_key_format, stable_hash

    slots = benchmark(_placement(int_key_format(6)), flow_keys, 4096)
    assert slots == [stable_hash(key) % 4096 for key in flow_keys]


def test_bench_key_hash_stable(benchmark, flow_keys):
    """The same placement through ``stable_hash``'s ``repr`` walk."""
    slots = benchmark(_placement(None), flow_keys, 4096)
    assert len(slots) == len(flow_keys)


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


SYN = ("DEFINE query_name syn; Select time, timestamp, srcIP, destIP, "
       "srcPort, destPort From tcp Where tcpflags & 18 = 2")
#: the Section 5 per-link LFTA (``bench/workloads.py``'s ``link0``)
LINK0 = ("DEFINE query_name link0; Select time, destIP, len From tcp "
         "Where destPort = 80")


def _lfta(text, frozen=False, lean=False):
    """An LFTA of ``text`` with a tap: the engine's fused loop (what
    ``accept_batch`` runs, a block kernel with the node as its one
    member), or the decode-then-select passes it replaced
    (``tests/frozen_decode_select.py``).  ``lean`` pins the lean form
    of either (the node would pick it from its counters)."""
    from tests.frozen_decode_select import FrozenCompiler, FrozenLfta

    functions = builtin_functions()
    analyzed = analyze(parse_query(text), builtin_registry(), functions)
    plan = plan_query(analyzed, functions).lftas[0]
    base, compiler = ((FrozenLfta, FrozenCompiler) if frozen
                      else (LftaNode, ExprCompiler))
    cls = type("Pinned", (base,), {
        "prefers_lean": property(lambda self: lean)})
    node = cls(plan, analyzed, compiler(analyzed, functions))
    tap = node.subscribe()

    def run(blocks):
        for packets in blocks:
            node.accept_batch(packets)
        node.flush()   # an aggregation's groups leave; a projection's did
        return tap.drain()
    return run


def test_bench_prefilter_pushed(benchmark, syn_blocks):
    """The prefix tested inside the generated decode loop, lean form
    (DESIGN section 14).  CI gates the ratio of ``_unpushed`` below to
    this, measured in the same run; the rows must be the same rows."""
    rows = benchmark(_lfta(SYN, lean=True), syn_blocks)
    assert rows == _unpushed_syn()(syn_blocks)
    assert 0 < len(rows) < 0.06 * sum(map(len, syn_blocks))


def _unpushed_syn():
    from repro.gsql import planner

    marked = planner._mark_prefix
    planner._mark_prefix = lambda lfta, analyzed: None
    try:
        return _lfta(SYN)
    finally:
        planner._mark_prefix = marked


def test_bench_prefilter_unpushed(benchmark, syn_blocks):
    """The engine's own loop with no prefix marked: every guard-passer
    is unpacked in full and the conjunct runs first in its row action,
    so the ratio is the prefix push alone (``-k fused`` gates fusion)."""
    assert benchmark(_unpushed_syn(), syn_blocks)


# -- the row-fused kernels (DESIGN sections 14 and 18) ----------------------
#
# CI's bench-smoke job gates three ratios out of this group (-k fused),
# each of two arms measured in the same run that produce the same rows.

@pytest.fixture(scope="module")
def link_blocks(packets):
    return [packets[i:i + 256] for i in range(0, len(packets), 256)]


def test_bench_fused_link0(benchmark, link_blocks):
    """One generated loop from packet bytes to the output block."""
    rows = benchmark(_lfta(LINK0), link_blocks)
    assert rows == _lfta(LINK0, frozen=True)(link_blocks)
    assert len(rows) == sum(map(len, link_blocks))  # pool is all port 80


def test_bench_fused_link0_decode_then_select(benchmark, link_blocks):
    """The same plan as decode -> gather -> select over a block."""
    assert benchmark(_lfta(LINK0, frozen=True), link_blocks)


#: link0's packets folded at the LFTA into ``time/10`` windows: one
#: group for the whole fixture, the ordered key at its best
LINK0_FOLD = ("DEFINE query_name fold0; Select tb, count(*), sum(len) "
              "From tcp Where destPort = 80 Group by time/10 as tb")


def test_bench_fused_lfta_run_cache(benchmark, link_blocks):
    """The LFTA's one loop: an unchanged key skips the slot hash, the
    window check and the probe, and folds into the state in hand."""
    def rows(items):   # the first window's opening punctuation aside
        return [item for item in items if type(item) is tuple]
    fused = rows(benchmark(_lfta(LINK0_FOLD), link_blocks))
    assert fused == rows(_lfta(LINK0_FOLD, frozen=True)(link_blocks))
    assert fused == [(0, 2000, sum(len(p.data) for packets in link_blocks
                                   for p in packets))]


def test_bench_fused_lfta_probe_per_row(benchmark, link_blocks):
    """The same plan as decode -> key -> place -> probe per row."""
    assert benchmark(_lfta(LINK0_FOLD, frozen=True), link_blocks)


def _appmon(frozen):
    """``appmon`` of the Section 5 plan over ``both``'s rows."""
    from repro.gsql.ordering import Ordering
    from repro.gsql.schema import Attribute, StreamSchema
    from repro.gsql.types import IP, UINT
    from repro.operators.aggregation import AggregationNode
    from tests.frozen_decode_select import FrozenAggregation, FrozenCompiler

    both = StreamSchema("both", [
        Attribute("time", UINT, Ordering.increasing()),
        Attribute("destIP", IP), Attribute("len", UINT)])
    functions = builtin_functions()
    analyzed = analyze(parse_query(
        "DEFINE query_name appmon; Select tb, count(*), sum(len) From both "
        "Group by time/10 as tb"), builtin_registry(), functions,
        stream_resolver={"both": both}.get)
    plan = plan_query(analyzed, functions).hfta
    cls, compiler = ((FrozenAggregation, FrozenCompiler) if frozen
                     else (AggregationNode, ExprCompiler))
    node = cls(plan, analyzed, compiler(analyzed, functions))
    tap = node.subscribe()

    def run(blocks):
        for rows in blocks:
            node.dispatch_batch(rows, 0)
        node.flush()
        return [item for item in tap.drain() if type(item) is tuple]
    return run


@pytest.fixture(scope="module")
def one_window_rows():
    """Pump-chunk blocks of ``(time, destIP, len)`` whose ``time/10``
    is one value throughout: the ordered group key at its best."""
    rng = random.Random(3)
    rows = [(100 + i // 2000, rng.randrange(1 << 32), rng.randrange(40, 1500))
            for i in range(16_384)]
    return [rows[i:i + 1024] for i in range(0, len(rows), 1024)]


def test_bench_fused_key_run_cache(benchmark, one_window_rows):
    """Predicate, key and fold in one loop behind the key-run cache."""
    rows = benchmark(_appmon(False), one_window_rows)
    assert rows == _appmon(True)(one_window_rows) and len(rows) == 1


def test_bench_fused_probe_per_row(benchmark, one_window_rows):
    """``batch_key_fn`` into key and row lists, then a window check and
    a dict probe per row."""
    assert benchmark(_appmon(True), one_window_rows)


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
