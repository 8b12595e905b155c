"""Differential tests: the batched data path vs the scalar one.

DESIGN section 10's contract is that vectorized execution is purely a
mechanical optimization -- for every query and every fault scenario,
sink rows, the drop ledger, and per-node statistics must be
byte-identical to scalar execution.  These tests run the full GSQL
corpus and the E13-style fault injectors through both paths in-process
and diff the canonical snapshots (the ``gs_batch*`` metric families
differ by construction and are stripped first).

Every run is a named entry of :data:`CASES`, so the golden digest
table (``tests/golden_scenarios.json``, see
``tests/test_golden_scenarios.py``) freezes exactly the snapshots the
differential compares.
"""

from typing import Callable, Dict, NamedTuple, Optional

import pytest

from repro import Gigascope
from repro.determinism import (
    _diff_paths,
    derive_seed,
    snapshot_engine,
    strip_batch_metrics,
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
    :func:`make_packets`, a pump every 96 packets) drives the engine,
    ``columnar`` pins the LFTA block representation (None: engine
    default, i.e. columnar for builtin ip/tcp/udp LFTAs)."""

    build: Callable
    feed: Optional[Callable] = None
    columnar: Optional[bool] = None


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


def _recovering(fault):
    def setup(gs):
        gs.enable_recovery(checkpoint_interval=0.2)
        gs.inject_faults([fault])
    return setup


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
    "columnar/on": Case(single_query(GROUP_BY_SUM), columnar=True),
    "columnar/off": Case(single_query(GROUP_BY_SUM), columnar=False),
    "columnar/projection": Case(single_query(
        "Select time, srcIP, destPort From tcp Where destPort = 80"),
        columnar=True),
    "tracer": Case(with_setup(single_query(GROUP_BY),
                              lambda gs: gs.enable_tracing(0.05))),
    "trace_merge": Case(with_setup(merge_chain,
                                   lambda gs: gs.enable_tracing(0.05))),
})
for _name, _make in FAULTS.items():
    CASES[f"fault/{_name}"] = Case(with_setup(
        single_query(GROUP_BY),
        lambda gs, make=_make: gs.inject_faults(make())))
for _name, _at in CUT_POINTS.items():
    CASES[f"cut/quarantine/{_name}"] = Case(with_setup(
        cut_chain,
        lambda gs, at=_at: gs.inject_faults(
            [OperatorFault("q", at_tuple=at)])), feed_cut_chain)
    CASES[f"cut/recover/{_name}"] = Case(with_setup(
        cut_chain,
        lambda gs, at=_at: _recovering(
            OperatorFault("q", at_tuple=at, times=1))(gs)), feed_cut_chain)


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
                   channel_capacity=256, heartbeat_interval=0.5,
                   columnar=case.columnar)
    subs = case.build(gs)
    gs.start()
    if case.feed is not None:
        case.feed(gs)
    else:
        gs.feed(make_packets(), pump_every=96)
    gs.flush()
    snapshot = strip_batch_metrics(snapshot_engine(gs, subs))
    if gs.rts.tracer is not None:
        snapshot["spans"] = gs.rts.tracer.to_dict()
    dead = {name: [channel_snapshot(channel) for channel in node.inputs]
            for name, node in gs.rts.iter_nodes()
            if node.quarantined is not None}
    if dead:
        snapshot["quarantined_inputs"] = dead
    return snapshot, gs


def run_differential(name, batch_size=64):
    """Run a case scalar and batched; return (diffs, batched engine).

    Both runs share seeds, so any diff is a batching bug.
    """
    scalar, _ = run_case(name, 1)
    batched, engine = run_case(name, batch_size)
    diffs = []
    _diff_paths(scalar, batched, "$", diffs)
    return diffs, engine


class TestCorpusDifferential:
    """Every runnable corpus query, scalar vs batched."""

    @pytest.mark.parametrize(
        "name", [name for name in CASES if name.startswith("corpus/")])
    def test_query_is_byte_identical(self, name):
        diffs, batched = run_differential(name)
        assert not diffs, "\n".join(diffs)
        # The batched run must actually have taken the vectorized path.
        assert batched.rts.batches_fed > 0

    def test_composition_chain_is_byte_identical(self):
        diffs, batched = run_differential("merge_chain")
        assert not diffs, "\n".join(diffs)
        assert batched.rts.batches_fed > 0

    def test_tie_heavy_merge_is_byte_identical(self):
        """Integer-second merge values: thousands of ties, duplicates
        inside every run, second boundaries where one link runs ahead
        and the other's run lands on its held ties.  The scalar arm
        feeds the merge blocks of one, the batched arm whole runs."""
        diffs, batched = run_differential("tie_heavy_merge")
        assert not diffs, "\n".join(diffs)
        assert batched.rts.batches_fed > 0
        link = batched.stats()["link"]
        assert link["tuples_out"] == link["tuples_in"] == 2340

    def test_shedding_and_sampling_are_byte_identical(self):
        """Both RNG consumers (shed gate, DEFINE sample) draw in the
        same order on both paths."""
        diffs, batched = run_differential("shedding_and_sampling")
        assert not diffs, "\n".join(diffs)
        assert batched.rts.batches_fed > 0

    @pytest.mark.parametrize("batch_size", [2, 7, 64, 4096])
    def test_batch_size_does_not_matter(self, batch_size):
        diffs, _ = run_differential("group_by", batch_size=batch_size)
        assert not diffs, "\n".join(diffs)


def _lftas(gs):
    return [node for _, node in gs.rts.iter_nodes()
            if hasattr(node, "columnar_blocks")]


class TestColumnarDifferential:
    """DESIGN section 14: the columnar block path is byte-identical to
    scalar, and the row-based batched path (columnar off) stays so."""

    def test_columnar_path_is_byte_identical_and_engaged(self):
        diffs, batched = run_differential("columnar/on")
        assert not diffs, "\n".join(diffs)
        assert batched.rts.batches_fed > 0
        assert sum(node.columnar_blocks for node in _lftas(batched)) > 0

    def test_row_based_batch_path_is_byte_identical(self):
        """columnar=False keeps the pre-columnar per-row batch loop."""
        diffs, batched = run_differential("columnar/off")
        assert not diffs, "\n".join(diffs)
        assert batched.rts.batches_fed > 0
        assert all(node.columnar_blocks == 0 for node in _lftas(batched))

    def test_projection_query_columnar_engaged(self):
        diffs, batched = run_differential("columnar/projection")
        assert not diffs, "\n".join(diffs)
        assert sum(node.columnar_blocks for node in _lftas(batched)) > 0

    def test_gs_columnar_env_disables(self, monkeypatch):
        monkeypatch.setenv("GS_COLUMNAR", "0")
        gs = Gigascope(seed=SEED, batch_size=64)
        assert gs.columnar is False
        monkeypatch.setenv("GS_COLUMNAR", "1")
        assert Gigascope(seed=SEED).columnar is True
        monkeypatch.delenv("GS_COLUMNAR")
        assert Gigascope(seed=SEED).columnar is True


class TestFaultDifferential:
    """E13-style fault scenarios through both paths.

    Armed faults force the scalar fallback, so these assert that the
    fallback really is byte-identical *and* that batching never leaks
    around an injected failure.
    """

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_faulted_run_is_byte_identical(self, fault):
        diffs, batched = run_differential(f"fault/{fault}")
        assert not diffs, "\n".join(diffs)
        # Armed faults disable the vectorized path entirely.
        assert batched.rts.batches_fed == 0

    def test_tracing_run_is_byte_identical(self):
        """An active tracer forces sampled packets down the scalar path;
        rows and statistics still match the fully scalar run."""
        diffs, _ = run_differential("tracer")
        assert not diffs, "\n".join(diffs)

    @pytest.mark.parametrize("position", sorted(CUT_POINTS))
    def test_operator_fault_position_in_block(self, position):
        """The quarantined node stopped on exactly the Nth tuple."""
        at = CUT_POINTS[position]
        diffs, batched = run_differential(f"cut/quarantine/{position}")
        assert not diffs, "\n".join(diffs)
        q = batched.stats()["q"]
        assert q["tuples_in"] == at
        # Nothing past the failing tuple left the channel: the rest of
        # that pump's 96 tuples died queued.
        stopped = batched.rts.node("q").inputs[0]
        assert stopped.stats.popped == at + q["punctuations_in"]
        assert len(stopped) == 192 - at

    @pytest.mark.parametrize("position", sorted(CUT_POINTS))
    def test_operator_fault_recovered_in_block(self, position):
        diffs, batched = run_differential(f"cut/recover/{position}")
        assert not diffs, "\n".join(diffs)
        assert batched.recovery_report()["restarts_total"] == 1
        assert batched.stats()["q"]["tuples_in"] == 480
