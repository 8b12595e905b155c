"""Differential tests: one tuple path, any block size.

DESIGN section 10's contract is that how the packet stream is cut into
blocks is unobservable -- for every query and every fault scenario,
sink rows, the drop ledger, and per-node statistics are byte-identical
at every block size.  These tests run the full GSQL corpus, the
E13-style fault injectors and the lineage tracer in-process at blocks
of 1, 7 and 256 and diff the canonical snapshots (the ``gs_batch*``
metric families differ by construction and are stripped first).

Every run is a named entry of :data:`CASES`; the golden digest table
(``tests/golden_scenarios.json``, see ``tests/test_golden_scenarios.py``)
holds each case's snapshot as the deleted tuple-at-a-time engine
produced it, so "equal to blocks of one" here means "equal to scalar".
"""

from typing import Callable, Dict, NamedTuple, Optional

import pytest

from repro import Gigascope
from repro.determinism import (
    _diff_paths,
    comparable,
    derive_seed,
    snapshot_engine,
)
from repro.faults import (
    ChannelOverflowStorm,
    ClockSkew,
    HeartbeatSilence,
    OperatorFault,
    RingLossBurst,
)
from repro.obs.collectors import channel_snapshot
from repro.workloads.flows import ZipfFlowWorkload
from tests.conftest import udp_packet
from tests.test_gsql_corpus import CORPUS, PARAMS

SEED = 11

RUNNABLE = [text for text, lftas, _, _ in CORPUS if lftas is not None]

GROUP_BY = ("Select tb, srcIP, count(*) From tcp "
            "Group by time/5 as tb, srcIP")
GROUP_BY_SUM = ("Select tb, srcIP, count(*), sum(len) From tcp "
                "Group by time/5 as tb, srcIP")
MERGE_CHAIN = """
    DEFINE query_name raw0; Select time, destIP, len From eth0.tcp;
    DEFINE query_name raw1; Select time, destIP, len From eth1.tcp;
    DEFINE query_name link;
    Merge raw0.time : raw1.time From raw0, raw1;
    DEFINE query_name volume;
    Select tb, sum(len) as bytes From link Group by time/2 as tb;
"""


def make_packets(seed=SEED, count=1200):
    """A deterministic two-interface TCP workload plus a UDP trickle."""
    eth0 = ZipfFlowWorkload(num_flows=120, alpha=1.0,
                            seed=derive_seed(seed, "diff.eth0"))
    eth1 = ZipfFlowWorkload(num_flows=120, alpha=1.0,
                            seed=derive_seed(seed, "diff.eth1"))
    packets = list(eth0.packets(count // 2, pps=900.0, interface="eth0"))
    packets += eth1.packets(count // 2, pps=1100.0, start=0.0004,
                            interface="eth1")
    packets += [udp_packet(ts=0.05 + i * 0.11, sport=5353, dport=53)
                for i in range(10)]
    packets.sort(key=lambda p: p.timestamp)
    return packets


class Case(NamedTuple):
    """One differential run: ``build(gs)`` registers queries/faults and
    returns the subscription dict, ``feed(gs)`` (default:
    :func:`make_packets`, a pump every 96 packets) drives the engine."""

    build: Callable
    feed: Optional[Callable] = None


def single_query(text):
    def build(gs):
        name = gs.add_query(text, params=PARAMS, name="q")
        return {name: gs.subscribe(name)}
    return build


def with_setup(build, setup):
    """``build`` followed by ``setup(gs)`` (faults, tracing, ...)."""
    def wrapped(gs):
        subs = build(gs)
        setup(gs)
        return subs
    return wrapped


def merge_chain(gs):
    gs.add_queries(MERGE_CHAIN)
    return {name: gs.subscribe(name) for name in ("link", "volume")}


def tie_heavy_merge(gs):
    gs.add_queries("""
        DEFINE query_name raw0; Select time, destIP, len From eth0.tcp;
        DEFINE query_name raw1; Select time, destIP, len From eth1.tcp;
        DEFINE query_name raw2; Select time, destIP, len From eth2.tcp;
        DEFINE query_name link;
        Merge raw0.time : raw1.time : raw2.time From raw0, raw1, raw2;
        DEFINE query_name volume;
        Select tb, count(*), sum(len) From link Group by time/2 as tb;
    """)
    return {name: gs.subscribe(name) for name in ("link", "volume")}


def feed_tie_heavy(gs):
    packets = []
    for index, pps in enumerate((170.0, 130.0, 90.0)):
        workload = ZipfFlowWorkload(
            num_flows=40, alpha=1.0,
            seed=derive_seed(SEED, f"ties.eth{index}"))
        packets += workload.packets(int(pps * 6), pps=pps,
                                    start=0.003 * index,
                                    interface=f"eth{index}")
    packets.sort(key=lambda p: p.timestamp)
    gs.feed(packets, pump_every=96)


def shedding_and_sampling(gs):
    gs.add_query("""
        DEFINE { query_name sampled; sample 0.25; }
        Select srcIP, destPort, time From tcp Where protocol = 6
    """)
    gs.add_query("""
        DEFINE query_name flows;
        Select tb, srcIP, count(*) From tcp Group by time/5 as tb, srcIP
    """)
    gs.enable_shedding("static:0.6")
    return {name: gs.subscribe(name) for name in ("sampled", "flows")}


# -- an OperatorFault at a known position inside a popped block -------------
#
# ``raw`` forwards one tuple per eth0 packet and ``q`` (an HFTA
# selection over it) is drained once per 96 packets, so every pump pops
# one block of 96 tuples from ``raw->q``: tuple 97 is the first of the
# second block, 144 sits in its middle, 192 is its last.

CUT_POINTS = {"first": 97, "mid": 144, "last": 192}


def cut_chain(gs):
    gs.add_queries("""
        DEFINE query_name raw; Select time, srcIP, len From eth0.tcp;
        DEFINE query_name q; Select time, len From raw Where len > 0;
    """)
    return {name: gs.subscribe(name) for name in ("raw", "q")}


def feed_cut_chain(gs):
    workload = ZipfFlowWorkload(num_flows=60, alpha=1.0,
                                seed=derive_seed(SEED, "cut.eth0"))
    gs.feed(list(workload.packets(480, pps=900.0, interface="eth0")),
            pump_every=96)


FAULTS = {
    "operator_fault": lambda: [OperatorFault("q", at_tuple=40)],
    "ring_burst": lambda: [RingLossBurst(at=0.1, duration=0.25,
                                         drop_prob=0.5, seed=5)],
    "overflow_storm": lambda: [ChannelOverflowStorm(at=0.1, duration=0.3,
                                                    capacity=4)],
    "clock_skew": lambda: [ClockSkew("eth1", 0.2, at=0.0)],
    "heartbeat_silence": lambda: [HeartbeatSilence(at=0.1, duration=0.3)],
}

CASES: Dict[str, Case] = {
    f"corpus/q{index:02d}": Case(single_query(text))
    for index, text in enumerate(RUNNABLE)
}
CASES.update({
    "merge_chain": Case(merge_chain),
    "tie_heavy_merge": Case(tie_heavy_merge, feed_tie_heavy),
    "shedding_and_sampling": Case(shedding_and_sampling),
    "group_by": Case(single_query(GROUP_BY_SUM)),
    "columnar/on": Case(single_query(GROUP_BY_SUM)),
    "columnar/projection": Case(single_query(
        "Select time, srcIP, destPort From tcp Where destPort = 80")),
    "tracer": Case(with_setup(single_query(GROUP_BY),
                              lambda gs: gs.enable_tracing(0.05))),
    "trace_merge": Case(with_setup(merge_chain,
                                   lambda gs: gs.enable_tracing(0.05))),
})
for _name, _make in FAULTS.items():
    CASES[f"fault/{_name}"] = Case(with_setup(
        single_query(GROUP_BY),
        lambda gs, make=_make: gs.inject_faults(make())))


def _cut_setup(at, recover):
    def setup(gs):
        if recover:
            gs.enable_recovery(checkpoint_interval=0.2)
        gs.inject_faults([OperatorFault("q", at_tuple=at,
                                        times=1 if recover else None)])
    return setup


for _name, _at in CUT_POINTS.items():
    CASES[f"cut/quarantine/{_name}"] = Case(
        with_setup(cut_chain, _cut_setup(_at, recover=False)), feed_cut_chain)
    CASES[f"cut/recover/{_name}"] = Case(
        with_setup(cut_chain, _cut_setup(_at, recover=True)), feed_cut_chain)


def run_case(name, batch_size):
    """Run one :data:`CASES` entry; returns ``(snapshot, engine)``.

    The snapshot is the canonical engine snapshot with the ``gs_batch*``
    families stripped, plus the lineage tracer's span dump when the
    case attached one and the input-channel ledgers of every
    quarantined node (its producers drop those channels, so
    ``stats()`` no longer shows where the node stopped).
    """
    case = CASES[name]
    gs = Gigascope(seed=SEED, batch_size=batch_size, lfta_table_size=64,
                   channel_capacity=256, heartbeat_interval=0.5)
    subs = case.build(gs)
    gs.start()
    if case.feed is not None:
        case.feed(gs)
    else:
        gs.feed(make_packets(), pump_every=96)
    gs.flush()
    snapshot = comparable(snapshot_engine(gs, subs), ("block",))
    if gs.rts.tracer is not None:
        snapshot["spans"] = gs.rts.tracer.to_dict()
    dead = {name: [channel_snapshot(channel) for channel in node.inputs]
            for name, node in gs.rts.iter_nodes()
            if node.quarantined is not None}
    if dead:
        snapshot["quarantined_inputs"] = dead
    return snapshot, gs


BLOCK_SIZES = (7, 256)


def run_differential(name, batch_size):
    """Run a case in blocks of one and of ``batch_size``; returns
    (diffs, the second engine).  Both runs share seeds, so any diff
    means the result depends on where the stream was cut."""
    reference, _ = run_case(name, 1)
    blocked, engine = run_case(name, batch_size)
    diffs = []
    _diff_paths(reference, blocked, "$", diffs)
    return diffs, engine


def _lftas(gs):
    return [node for _, node in gs.rts.iter_nodes()
            if hasattr(node, "columnar_blocks")]


@pytest.mark.parametrize("batch_size", BLOCK_SIZES)
class TestBlockSizeDifferential:
    """Every case at every block size against blocks of one (the golden
    table pins blocks of one to the frozen scalar outputs)."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case_is_byte_identical(self, name, batch_size):
        diffs, blocked = run_differential(name, batch_size)
        assert not diffs, "\n".join(diffs)
        # Faults, tracer or neither: packets moved in blocks.
        rts = blocked.rts
        assert 0 < rts.batches_fed < rts.packets_fed

    def test_tie_heavy_merge_passes_every_row(self, batch_size):
        """Integer-second merge values: thousands of ties, duplicates
        inside every run, second boundaries where one link runs ahead
        and the other's run lands on its held ties."""
        _, engine = run_case("tie_heavy_merge", batch_size)
        link = engine.stats()["link"]
        assert link["tuples_out"] == link["tuples_in"] == 2340

    def test_columnar_decode_engaged(self, batch_size):
        for name in ("columnar/on", "columnar/projection"):
            _, engine = run_case(name, batch_size)
            assert sum(node.columnar_blocks for node in _lftas(engine)) > 0

    @pytest.mark.parametrize("position", sorted(CUT_POINTS))
    def test_operator_fault_position_in_block(self, position, batch_size):
        """The quarantined node stopped on exactly the Nth tuple."""
        at = CUT_POINTS[position]
        _, engine = run_case(f"cut/quarantine/{position}", batch_size)
        q = engine.stats()["q"]
        assert q["tuples_in"] == at
        # Nothing past the failing tuple left the channel: the rest of
        # that pump's 96 tuples died queued.
        stopped = engine.rts.node("q").inputs[0]
        assert stopped.stats.popped == at + q["punctuations_in"]
        assert len(stopped) == 192 - at

    @pytest.mark.parametrize("position", sorted(CUT_POINTS))
    def test_operator_fault_recovered_in_block(self, position, batch_size):
        _, engine = run_case(f"cut/recover/{position}", batch_size)
        assert engine.recovery_report()["restarts_total"] == 1
        assert engine.stats()["q"]["tuples_in"] == 480


@pytest.mark.parametrize("batch_size", [2, 64, 4096])
def test_batch_size_does_not_matter(batch_size):
    diffs, _ = run_differential("group_by", batch_size)
    assert not diffs, "\n".join(diffs)
