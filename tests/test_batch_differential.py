"""Differential tests: the batched data path vs the scalar one.

DESIGN section 10's contract is that vectorized execution is purely a
mechanical optimization -- for every query and every fault scenario,
sink rows, the drop ledger, and per-node statistics must be
byte-identical to scalar execution.  These tests run the full GSQL
corpus and the E13-style fault injectors through both paths in-process
and diff the canonical snapshots (the ``gs_batch*`` metric families
differ by construction and are stripped first).
"""

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
from repro.workloads.flows import ZipfFlowWorkload
from tests.conftest import udp_packet
from tests.test_gsql_corpus import CORPUS, PARAMS

SEED = 11

RUNNABLE = [(text,) for text, lftas, _, _ in CORPUS if lftas is not None]


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


def run_differential(build, feed=None, *, batch_size=64, pump_every=96,
                     columnar=None):
    """Run ``build`` scalar and batched; return (diffs, batched engine).

    ``build(gs)`` registers queries/faults and returns the subscription
    dict; ``feed(gs)`` (default: :func:`make_packets`) drives the
    engine.  Both runs share seeds, so any diff is a batching bug.
    ``columnar`` pins the batched arm's block representation (None:
    engine default, i.e. columnar for builtin ip/tcp/udp LFTAs).
    """
    snapshots = []
    engines = []
    for size in (1, batch_size):
        gs = Gigascope(seed=SEED, batch_size=size, lfta_table_size=64,
                       channel_capacity=256, heartbeat_interval=0.5,
                       columnar=columnar)
        subs = build(gs)
        gs.start()
        if feed is not None:
            feed(gs)
        else:
            gs.feed(make_packets(), pump_every=pump_every)
        gs.flush()
        snapshots.append(strip_batch_metrics(snapshot_engine(gs, subs)))
        engines.append(gs)
    diffs = []
    _diff_paths(snapshots[0], snapshots[1], "$", diffs)
    return diffs, engines[1]


class TestCorpusDifferential:
    """Every runnable corpus query, scalar vs batched."""

    @pytest.mark.parametrize("text", [q[0] for q in RUNNABLE],
                             ids=[f"q{i:02d}" for i in range(len(RUNNABLE))])
    def test_query_is_byte_identical(self, text):
        def build(gs):
            name = gs.add_query(text, params=PARAMS, name="q")
            return {name: gs.subscribe(name)}

        diffs, batched = run_differential(build)
        assert not diffs, "\n".join(diffs)
        # The batched run must actually have taken the vectorized path.
        assert batched.rts.batches_fed > 0

    def test_composition_chain_is_byte_identical(self):
        def build(gs):
            gs.add_queries("""
                DEFINE query_name raw0; Select time, destIP, len From eth0.tcp;
                DEFINE query_name raw1; Select time, destIP, len From eth1.tcp;
                DEFINE query_name link;
                Merge raw0.time : raw1.time From raw0, raw1;
                DEFINE query_name volume;
                Select tb, sum(len) as bytes From link Group by time/2 as tb;
            """)
            return {name: gs.subscribe(name) for name in ("link", "volume")}

        diffs, batched = run_differential(build)
        assert not diffs, "\n".join(diffs)
        assert batched.rts.batches_fed > 0

    def test_tie_heavy_merge_is_byte_identical(self):
        """Integer-second merge values: thousands of ties, duplicates
        inside every run, second boundaries where one link runs ahead
        and the other's run lands on its held ties.  The scalar arm
        feeds the merge blocks of one, the batched arm whole runs."""
        def build(gs):
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

        def feed(gs):
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

        diffs, batched = run_differential(build, feed=feed)
        assert not diffs, "\n".join(diffs)
        assert batched.rts.batches_fed > 0
        link = batched.stats()["link"]
        assert link["tuples_out"] == link["tuples_in"] == 2340

    def test_shedding_and_sampling_are_byte_identical(self):
        """Both RNG consumers (shed gate, DEFINE sample) draw in the
        same order on both paths."""
        def build(gs):
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

        diffs, batched = run_differential(build)
        assert not diffs, "\n".join(diffs)
        assert batched.rts.batches_fed > 0

    @pytest.mark.parametrize("batch_size", [2, 7, 64, 4096])
    def test_batch_size_does_not_matter(self, batch_size):
        def build(gs):
            name = gs.add_query(
                "Select tb, srcIP, count(*), sum(len) From tcp "
                "Group by time/5 as tb, srcIP", name="q")
            return {name: gs.subscribe(name)}

        diffs, _ = run_differential(build, batch_size=batch_size)
        assert not diffs, "\n".join(diffs)


def _lftas(gs):
    return [node for _, node in gs.rts.iter_nodes()
            if hasattr(node, "columnar_blocks")]


class TestColumnarDifferential:
    """DESIGN section 14: the columnar block path is byte-identical to
    scalar, and the row-based batched path (columnar off) stays so."""

    BUILD_TEXT = ("Select tb, srcIP, count(*), sum(len) From tcp "
                  "Group by time/5 as tb, srcIP")

    def _build(self, gs):
        name = gs.add_query(self.BUILD_TEXT, name="q")
        return {name: gs.subscribe(name)}

    def test_columnar_path_is_byte_identical_and_engaged(self):
        diffs, batched = run_differential(self._build, columnar=True)
        assert not diffs, "\n".join(diffs)
        assert batched.rts.batches_fed > 0
        assert sum(node.columnar_blocks for node in _lftas(batched)) > 0

    def test_row_based_batch_path_is_byte_identical(self):
        """columnar=False keeps the pre-columnar per-row batch loop."""
        diffs, batched = run_differential(self._build, columnar=False)
        assert not diffs, "\n".join(diffs)
        assert batched.rts.batches_fed > 0
        assert all(node.columnar_blocks == 0 for node in _lftas(batched))

    def test_projection_query_columnar_engaged(self):
        def build(gs):
            name = gs.add_query(
                "Select time, srcIP, destPort From tcp "
                "Where destPort = 80", name="q")
            return {name: gs.subscribe(name)}

        diffs, batched = run_differential(build, columnar=True)
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

    @pytest.mark.parametrize("make_faults", [
        pytest.param(lambda: [OperatorFault("q", at_tuple=40)],
                     id="operator_fault"),
        pytest.param(lambda: [RingLossBurst(at=0.1, duration=0.25,
                                            drop_prob=0.5, seed=5)],
                     id="ring_burst"),
        pytest.param(lambda: [ChannelOverflowStorm(at=0.1, duration=0.3,
                                                   capacity=4)],
                     id="overflow_storm"),
        pytest.param(lambda: [ClockSkew("eth1", 0.2, at=0.0)],
                     id="clock_skew"),
        pytest.param(lambda: [HeartbeatSilence(at=0.1, duration=0.3)],
                     id="heartbeat_silence"),
    ])
    def test_faulted_run_is_byte_identical(self, make_faults):
        def build(gs):
            name = gs.add_query(
                "Select tb, srcIP, count(*) From tcp "
                "Group by time/5 as tb, srcIP", name="q")
            gs.inject_faults(make_faults())
            return {name: gs.subscribe(name)}

        diffs, batched = run_differential(build)
        assert not diffs, "\n".join(diffs)
        # Armed faults disable the vectorized path entirely.
        assert batched.rts.batches_fed == 0

    def test_tracing_run_is_byte_identical(self):
        """An active tracer forces sampled packets down the scalar path;
        rows and statistics still match the fully scalar run."""
        def build(gs):
            name = gs.add_query(
                "Select tb, srcIP, count(*) From tcp "
                "Group by time/5 as tb, srcIP", name="q")
            gs.enable_tracing(0.05)
            return {name: gs.subscribe(name)}

        diffs, _ = run_differential(build)
        assert not diffs, "\n".join(diffs)
