"""Tests for the overload control plane (:mod:`repro.control`).

Covers the signals bus, the shedding policies, the controller wiring
through the engine, NIC and utilization pressure sources, and the
ISSUE's deterministic acceptance scenario: a synthetic burst with
adaptive shedding keeps bounded channels within their watermarks,
reports a nonzero shed fraction, and 1/rate-corrected COUNT/SUM land
within 10% of the unshedded ground truth -- while the "none" policy
reports the raw drops instead.
"""

import pytest

from repro import Gigascope
from repro.control import (
    AimdShedding,
    NoShedding,
    PressureSample,
    SignalsBus,
    StaticShedding,
    make_policy,
    overload_snapshot,
)
from repro.core.stream_manager import RuntimeSystem
from repro.nic.nic import Nic
from repro.sim.cost_model import CostModel
from tests.conftest import tcp_packet

BURST_QUERIES = """
    DEFINE query_name heavy;
    Select time, len From tcp Where str_match_regex(data, '.*');

    DEFINE query_name totals;
    Select tb, count(*), sum(len) From tcp Group by time/1 as tb
"""


def burst_packets(count=8000, gap_s=0.001):
    """A deterministic packet burst: ~1k pps for count/1000 seconds."""
    return [tcp_packet(ts=i * gap_s, payload=b"x" * 100) for i in range(count)]


def sample(**kw):
    kw.setdefault("stream_time", 0.0)
    kw.setdefault("cycle", 1)
    return PressureSample(**kw)


class TestPolicies:
    def test_none_never_sheds(self):
        policy = NoShedding()
        assert policy.update(sample(max_fill=1.0, channel_drops_delta=99)) == 1.0

    def test_static_rate(self):
        policy = StaticShedding(0.25)
        assert policy.update(sample()) == 0.25
        assert policy.update(sample(max_fill=1.0)) == 0.25

    def test_static_validates_rate(self):
        with pytest.raises(ValueError):
            StaticShedding(0.0)
        with pytest.raises(ValueError):
            StaticShedding(1.5)

    def test_aimd_decreases_under_sustained_pressure(self):
        policy = AimdShedding(trigger_cycles=2)
        pressured = sample(max_fill=1.0, channel_drops_delta=10)
        assert policy.update(pressured) == 1.0  # one cycle is not sustained
        assert policy.update(pressured) == 0.5  # two is
        policy.update(pressured)
        assert policy.update(pressured) == 0.25

    def test_aimd_floors_at_min_rate(self):
        policy = AimdShedding(trigger_cycles=1, min_rate=0.1)
        pressured = sample(channel_drops_delta=1)
        for _ in range(20):
            policy.update(pressured)
        assert policy.rate == pytest.approx(0.1)

    def test_aimd_recovers_additively_when_calm(self):
        policy = AimdShedding(trigger_cycles=1, relief_cycles=2, increase=0.1)
        policy.update(sample(channel_drops_delta=1))
        assert policy.rate == 0.5
        calm = sample(max_fill=0.0)
        policy.update(calm)
        assert policy.update(calm) == pytest.approx(0.6)

    def test_aimd_holds_in_hysteresis_band(self):
        policy = AimdShedding(trigger_cycles=1, high_fill=0.8, low_fill=0.3)
        policy.update(sample(channel_drops_delta=1))
        rate = policy.rate
        between = sample(max_fill=0.5)
        for _ in range(10):
            assert policy.update(between) == rate

    def test_aimd_pressured_by_utilization(self):
        policy = AimdShedding(trigger_cycles=1)
        assert policy.update(sample(utilization=1.5)) == 0.5

    def test_aimd_pressured_by_nic_drops(self):
        policy = AimdShedding(trigger_cycles=1)
        assert policy.update(sample(nic_drops_delta=3)) == 0.5

    def test_make_policy_specs(self):
        assert isinstance(make_policy("none"), NoShedding)
        assert isinstance(make_policy("adaptive"), AimdShedding)
        static = make_policy("static:0.3")
        assert isinstance(static, StaticShedding)
        assert static.rate == 0.3
        existing = AimdShedding()
        assert make_policy(existing) is existing
        with pytest.raises(ValueError):
            make_policy("bogus")
        with pytest.raises(ValueError):
            make_policy("static:banana")


class TestWeightedAggregates:
    """The Horvitz-Thompson weight on the engine's split plan: at shed
    rate 0.5 each packet the gate keeps stands for two."""

    QUERY = ("DEFINE query_name w; Select count(*), sum(destPort), "
             "avg(destPort), min(destPort), max(destPort) From tcp")

    def _run(self, rate):
        from repro.core.heartbeat import FLUSH
        from repro.gsql.codegen import ExprCompiler
        from repro.gsql.functions import builtin_functions
        from repro.gsql.parser import parse_query
        from repro.gsql.planner import plan_query
        from repro.gsql.schema import builtin_registry
        from repro.gsql.semantic import analyze
        from repro.operators.aggregation import AggregationNode
        from repro.operators.lfta import LftaNode

        functions = builtin_functions()
        analyzed = analyze(parse_query(self.QUERY), builtin_registry(),
                           functions)
        plan = plan_query(analyzed, functions)
        compiler = ExprCompiler(analyzed, functions)
        lfta = LftaNode(plan.lftas[0], analyzed, compiler)
        hfta = AggregationNode(plan.hfta, analyzed, compiler)
        partials, out = lfta.subscribe(), hfta.subscribe()
        lfta.set_shed_rate(rate)
        lfta._shed_rng.random = lambda: 0.0   # the gate keeps both
        lfta.accept_batch([tcp_packet(dport=4), tcp_packet(dport=6)])
        lfta.flush()
        hfta.dispatch_batch(partials.drain(), 0)
        hfta.dispatch(FLUSH, 0)
        (row,) = [item for item in out.drain() if type(item) is tuple]
        return row

    def test_rate_one_is_the_plain_fold(self):
        assert self._run(1.0) == (2, 10, 5.0, 4, 6)

    def test_horvitz_thompson_scaling(self):
        count, total, avg, lo, hi = self._run(0.5)
        assert count == 4.0
        assert total == 20.0
        assert avg == pytest.approx(5.0)  # weighted mean, not inflated
        assert (lo, hi) == (4, 6)  # order statistics stay unweighted


class _Source:
    """A minimal packet consumer emitting one tuple per packet."""

    def __init__(self, name):
        from repro.core.query_node import QueryNode
        from repro.gsql.schema import StreamSchema

        self.node = QueryNode(name, StreamSchema(name, []))
        self.node.accept_packet = self._accept
        self.node.flush = lambda: None
        self.node.emit_flush = lambda: None

    def _accept(self, packet):
        self.node.emit((packet.timestamp,))


class TestSignalsBus:
    def _rts(self, capacity=4):
        rts = RuntimeSystem(heartbeat_interval=None)
        source = _Source("src")
        rts.register_node(source.node, packet_interface="eth0")
        subscription = rts.subscribe("src", capacity=capacity)
        return rts, subscription

    def test_channel_depth_and_drop_deltas(self):
        rts, _sub = self._rts(capacity=4)
        bus = SignalsBus(rts)
        rts.start()
        for i in range(10):
            rts.feed_packet(tcp_packet(ts=i * 0.1))
        first = bus.collect(rts.stream_time)
        assert first.max_fill == 1.0
        assert first.channel_drops_delta == 6
        assert first.channel_drops_total == 6
        # No new drops between cycles: the delta resets, the total holds.
        second = bus.collect(rts.stream_time)
        assert second.channel_drops_delta == 0
        assert second.channel_drops_total == 6

    def test_packet_and_node_rates(self):
        rts, _sub = self._rts(capacity=None)
        bus = SignalsBus(rts)
        rts.start()
        rts.feed_packet(tcp_packet(ts=0.0))
        bus.collect(rts.stream_time)
        for i in range(1, 11):
            rts.feed_packet(tcp_packet(ts=i * 0.1))
        s = bus.collect(rts.stream_time)
        assert s.packet_rate == pytest.approx(10.0, rel=0.01)
        assert s.node_rates["src"] == pytest.approx(10.0, rel=0.01)

    def test_utilization_from_cost_model(self):
        rts, _sub = self._rts(capacity=None)
        bus = SignalsBus(rts, cost_model=CostModel())
        rts.start()
        rts.feed_packet(tcp_packet(ts=0.0))
        bus.collect(rts.stream_time)
        # 100k packets/s of small packets: far beyond the ~150k/s the
        # 6.2us interrupt cost alone allows.  (Feed a handful only.)
        for i in range(1, 50):
            rts.feed_packet(tcp_packet(ts=i * 1e-5))
        s = bus.collect(rts.stream_time)
        assert s.utilization > 0.5
        assert bus.peak_utilization == s.utilization


    def test_signals_follow_instances_through_a_readd(self):
        """Previous values are kept per channel and node object: a
        consumer re-added under its old name neither inherits the old
        node's output count nor takes the old channel's drops out of
        the cumulative total."""
        lfta = "DEFINE query_name a; Select time, destIP From eth0.tcp"
        reader = "DEFINE query_name h; Select time, destIP From a"
        gs = Gigascope(channel_capacity=4)
        gs.add_queries(lfta)
        gs.add_query(reader)
        gs.start()
        bus = SignalsBus(gs.rts)
        packets = [tcp_packet(ts=i * 0.01, sport=1000 + i % 50)
                   for i in range(400)]
        gs.feed(packets[:300], pump_every=50)
        first = bus.collect(gs.rts.stream_time)
        old_channel = gs.rts.node("a").subscribers[0]
        assert first.channel_drops_total == old_channel.stats.dropped > 0
        gs.remove_query("h")
        gs.add_query(reader)
        gs.feed(packets[300:], pump_every=100)
        second = bus.collect(gs.rts.stream_time)
        new_channel, = gs.rts.node("a").subscribers
        assert second.channel_drops_delta == new_channel.stats.dropped > 0
        assert second.channel_drops_total == \
            first.channel_drops_total + second.channel_drops_delta
        elapsed = second.stream_time - first.stream_time
        assert second.node_rates["h"] == pytest.approx(
            gs.rts.node("h").stats.tuples_out / elapsed)
        assert second.node_rates["h"] > 0


class TestControllerThroughEngine:
    def test_static_gate_sheds_and_accounts(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; "
                     "Select tb, count(*) From tcp Group by time/1 as tb")
        gs.enable_shedding("static:0.25")
        sub = gs.subscribe("q")
        gs.start()
        gs.feed(burst_packets(4000))
        gs.flush()
        report = gs.overload_report()
        assert report["policy"] == "static"
        assert 0.6 < report["shed_fraction"] < 0.9  # ~75% shed
        # The corrected COUNT still estimates the full stream.
        total = sum(r[1] for r in sub.poll())
        assert total == pytest.approx(4000, rel=0.10)
        # Per-LFTA accounting flows into RuntimeSystem.stats() too.
        lfta_stats = next(s for s in gs.stats().values()
                          if "shed_packets" in s)
        assert lfta_stats["shed_packets"] == report["packets_shed"] > 0

    def test_none_policy_observes_without_shedding(self):
        gs = Gigascope(channel_capacity=32)
        gs.add_queries(BURST_QUERIES)
        gs.enable_shedding("none")
        gs.start()
        gs.feed(burst_packets(2000))
        gs.flush()
        report = gs.overload_report()
        assert report["policy"] == "none"
        assert report["shed_rate"] == 1.0
        assert report["packets_shed"] == 0
        assert report["shed_fraction"] == 0.0
        # ... but the raw losses are fully accounted.
        assert report["channel_dropped"] > 0
        assert report["cycles"] > 0
        heavy = report["channels"]["_fta_heavy_0->heavy"]
        assert heavy["dropped"] > 0
        assert heavy["capacity"] == 32

    def test_snapshot_without_controller(self):
        gs = Gigascope(channel_capacity=16)
        gs.add_queries(BURST_QUERIES)
        gs.start()
        gs.feed(burst_packets(1000))
        gs.flush()
        report = gs.overload_report()
        assert report["policy"] == "disabled"
        assert report["channel_dropped"] > 0
        assert report["packets_shed"] == 0
        assert overload_snapshot(gs.rts)["policy"] == "disabled"

    def test_utilization_pressure_sheds_without_bounded_channels(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; "
                     "Select tb, count(*) From tcp Group by time/1 as tb")
        controller = gs.enable_shedding(AimdShedding(trigger_cycles=1))
        gs.start()
        # ~1M packets/s in stream time: utilization far above 1.0.
        gs.feed(burst_packets(2000, gap_s=1e-6))
        gs.flush()
        assert controller.shed_rate < 1.0
        assert controller.report()["pressured_cycles"] > 0


class TestBoundedChannelsEndToEnd:
    def test_flush_traverses_full_channels_and_stats_expose_drops(self):
        gs = Gigascope(channel_capacity=8)
        gs.add_queries(BURST_QUERIES)
        heavy = gs.subscribe("heavy")
        gs.start()
        # One giant pump window: the bounded channel overflows hard.
        gs.feed(burst_packets(500), pump_every=10 ** 9)
        gs.flush()
        heavy.poll()
        # The flush token was never dropped: the subscription ended.
        assert heavy.ended
        # And the overflow losses are visible per channel in stats().
        stats = gs.stats()
        lfta = stats["_fta_heavy_0"]
        channel = lfta["channels"]["_fta_heavy_0->heavy"]
        assert channel["dropped"] > 0
        assert channel["capacity"] == 8
        assert channel["max_depth"] >= 8
        assert channel["pushed"] + channel["dropped"] >= 500


class TestNicSignal:
    def test_ring_drops_feed_the_policy(self):
        rts = RuntimeSystem(heartbeat_interval=None)
        source = _Source("src")
        rts.register_node(source.node, packet_interface="eth0")
        bus = SignalsBus(rts)
        # A deliberately slow card: 1000us per packet, 2-slot ring.
        nic = Nic(service_us=1000.0, ring_slots=2)
        bus.watch_nic(nic)
        rts.start()
        for i in range(50):
            nic.receive(tcp_packet(ts=i * 1e-6), now_us=i)
        assert nic.stats.ring_dropped > 0
        s = bus.collect(0.0)
        assert s.nic_drops_delta == nic.stats.ring_dropped
        assert s.drops_delta >= s.nic_drops_delta
        signal = nic.pressure_signal()
        assert signal["ring_dropped"] == nic.stats.ring_dropped
        assert 0.0 < signal["loss_rate"] <= 1.0


class TestAcceptanceBurst:
    """The ISSUE's deterministic overload scenario, end to end."""

    CAPACITY = 64

    def _run(self, policy, channel_capacity=CAPACITY):
        gs = Gigascope(channel_capacity=channel_capacity)
        gs.add_queries(BURST_QUERIES)
        if policy is not None:
            gs.enable_shedding(policy)
        totals = gs.subscribe("totals")
        gs.start()
        gs.feed(burst_packets(8000))
        gs.flush()
        rows = totals.poll()
        count = sum(r[1] for r in rows)
        total = sum(r[2] for r in rows)
        return gs.overload_report(), count, total

    def test_adaptive_sheds_and_corrects(self):
        # Ground truth: same burst, no shedding, unbounded channels.
        _, true_count, true_total = self._run(None, channel_capacity=None)
        assert true_count == 8000

        report, count, total = self._run("adaptive")
        # The controller engaged: nonzero shed fraction, reduced rate.
        assert report["shed_fraction"] > 0.1
        assert report["min_shed_rate"] < 1.0
        assert report["packets_shed"] > 0
        # Bounded channels stayed within their capacity watermark:
        # data-tuple occupancy never exceeds capacity (control tokens
        # may ride on top; they are never dropped, and are counted).
        for _name, info in report["channels"].items():
            if info["capacity"] is not None:
                assert info["max_depth"] <= info["capacity"] + 8
        # 1/rate-corrected COUNT/SUM land within 10% of ground truth.
        assert count == pytest.approx(true_count, rel=0.10)
        assert total == pytest.approx(true_total, rel=0.10)

    def test_none_policy_reports_raw_drops(self):
        report, count, _total = self._run("none")
        assert report["shed_fraction"] == 0.0
        assert report["channel_dropped"] > 0
        # The aggregate path is undamaged (few groups, no overflow
        # there), so the raw count is exact -- the losses are the heavy
        # query's tuples, and they are reported, not corrected.
        assert count == 8000
        heavy = report["channels"]["_fta_heavy_0->heavy"]
        assert heavy["dropped"] > 0

    def test_adaptive_loses_less_than_none(self):
        none_report, _, _ = self._run("none")
        adaptive_report, _, _ = self._run("adaptive")
        assert (adaptive_report["channel_dropped"]
                < none_report["channel_dropped"])
