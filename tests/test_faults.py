"""Fault injection (repro.faults) and the RTS's quarantine containment."""

import math

import pytest

from repro import Gigascope
from repro.faults import (
    ChannelOverflowStorm,
    ClockSkew,
    HeartbeatSilence,
    OperatorFault,
    RingLossBurst,
    parse_fault_spec,
)
from repro.nic.nic import Nic
from repro.workloads.flows import ZipfFlowWorkload
from tests.conftest import tcp_packet

AGG_QUERY = """
    DEFINE query_name {name};
    Select tb, srcIP, count(*)
    From tcp
    Group by time/5 as tb, srcIP
"""

SEL_QUERY = """
    DEFINE query_name {name};
    Select time, srcIP
    From tcp
"""


def build_engine(*names, query=AGG_QUERY, **kwargs):
    gs = Gigascope(**kwargs)
    for name in names:
        gs.add_query(query.format(name=name))
    subs = {name: gs.subscribe(name) for name in names}
    gs.start()
    return gs, subs


def packets(count=2000, seed=23):
    return list(ZipfFlowWorkload(num_flows=200, alpha=1.0,
                                 seed=seed).packets(count, pps=1000.0))


class TestOperatorQuarantine:
    def test_failing_hfta_quarantined_siblings_keep_running(self):
        gs, subs = build_engine("good", "bad")
        gs.inject_faults([OperatorFault("bad", at_tuple=50)])
        gs.feed(packets())
        gs.flush()

        stats = gs.stats()
        assert "quarantined" in stats["bad"]
        assert "injected fault" in stats["bad"]["quarantined"]
        assert "quarantined" not in stats["good"]
        # The sibling query kept producing and being accounted.
        good_rows = subs["good"].poll()
        assert good_rows
        assert stats["good"]["tuples_out"] == len(good_rows)
        # The failed query's subscribers saw end-of-stream, not a hang.
        subs["bad"].poll()
        assert subs["bad"].ended
        # The ledger names the quarantined node.
        report = gs.overload_report()
        assert list(report["quarantined"]) == ["bad"]
        assert gs.rts.nodes_quarantined == 1

    def test_fault_on_a_merge_counts_every_tuple(self):
        """The injector wraps the instance's ``dispatch_batch`` and
        counts every row of every run, so ``at_tuple`` means the Nth
        tuple however the merge's input was cut into runs."""
        gs = Gigascope()
        gs.add_queries("""
            DEFINE query_name a; Select time, srcIP From eth0.tcp;
            DEFINE query_name b; Select time, srcIP From eth1.tcp;
            DEFINE query_name m; Merge a.time : b.time From a, b;
        """)
        gs.subscribe("m")
        gs.start()
        fault = OperatorFault("m", at_tuple=137)
        gs.inject_faults([fault])
        workload = ZipfFlowWorkload(num_flows=50, alpha=1.0, seed=3)
        feed = list(workload.packets(300, pps=500.0, interface="eth0"))
        feed += workload.packets(300, pps=500.0, start=0.001,
                                 interface="eth1")
        feed.sort(key=lambda packet: packet.timestamp)
        gs.feed(feed)
        gs.flush()
        assert fault.triggered == 1
        merge = gs.stats()["m"]
        assert "quarantined" in merge
        # Quarantined on its 137th tuple: 136 got in before it.
        assert merge["tuples_in"] == 137

    def test_fault_armed_after_the_first_feed_is_not_bypassed(self):
        """``feed()`` caches each LFTA's ``accept_batch`` per interface;
        arming a fault later rebinds it on the node, so the cached plan
        has to go."""
        gs, subs = build_engine("good", "bad")
        lfta_name = next(n for n, _ in gs.rts.iter_nodes()
                         if n.startswith("_fta_bad"))
        stream = packets()
        gs.feed(stream[:20])
        fault = OperatorFault(lfta_name, at_tuple=10)
        gs.inject_faults([fault])
        gs.feed(stream[20:])
        gs.flush()
        assert fault.triggered == 1
        assert lfta_name in gs.rts.quarantined
        # 20 packets before the fault was armed, 9 more before it fired.
        assert gs.stats()[lfta_name]["packets_seen"] == 29

    def test_failing_lfta_quarantined_on_packet_path(self):
        gs, subs = build_engine("good", "bad")
        lfta_name = next(n for n, _ in gs.rts.iter_nodes()
                         if n.startswith("_fta_bad"))
        gs.inject_faults([OperatorFault(lfta_name, at_tuple=10)])
        gs.feed(packets())
        gs.flush()
        assert lfta_name in gs.rts.quarantined
        assert subs["good"].poll()
        subs["bad"].poll()
        assert subs["bad"].ended  # upstream died -> FLUSH propagated

    def test_failure_during_flush_does_not_abort_teardown(self):
        gs, subs = build_engine("good", "bad")
        lfta_name = next(n for n, _ in gs.rts.iter_nodes()
                         if n.startswith("_fta_bad"))

        def broken_flush():
            raise RuntimeError("flush fault")

        gs.rts.node(lfta_name).flush = broken_flush
        gs.feed(packets(count=500))
        gs.flush()  # must not raise
        assert lfta_name in gs.rts.quarantined
        assert subs["good"].poll()

    def test_quarantine_counts_in_metrics(self):
        gs, _subs = build_engine("good", "bad")
        gs.inject_faults([OperatorFault("bad", at_tuple=1)])
        gs.feed(packets(count=500))
        gs.flush()
        exposition = gs.metrics.to_prometheus()
        assert "gs_nodes_quarantined_total 1" in exposition


class TestRingLossBurst:
    def test_card_drops_are_accounted(self):
        nic = Nic(service_us=0.1, ring_slots=4096)
        burst = RingLossBurst(at=0.5, duration=0.5)
        nic.fault = burst  # as RingLossBurst.arm does, given the card
        for packet in packets(count=2000):
            nic.receive(packet, packet.timestamp * 1e6)
        stats = nic.stats
        assert burst.dropped > 0
        assert stats.ring_dropped >= burst.dropped
        # Conservation: every arrival is delivered, filtered, or dropped.
        assert (stats.delivered_packets + stats.filtered
                + stats.ring_dropped == stats.received)

    def test_feed_level_burst_without_nic(self):
        gs, subs = build_engine("flows")
        burst = RingLossBurst(at=0.4, duration=0.2)
        gs.inject_faults([burst])
        stream = packets()
        gs.feed(stream)
        gs.flush()
        in_window = sum(1 for p in stream if 0.4 <= p.timestamp < 0.6)
        assert burst.dropped == in_window > 0
        assert gs.rts.fault_dropped == burst.dropped
        assert gs.rts.packets_fed == len(stream) - burst.dropped
        report = gs.overload_report()
        assert report["fault_dropped"] == burst.dropped
        assert report["faults"][0]["kind"] == "ring_burst"

    def test_probabilistic_burst_is_seeded(self):
        def run():
            burst = RingLossBurst(at=0.0, duration=1.0, drop_prob=0.5,
                                  seed=9)
            return [burst.drops_packet(0.5) for _ in range(200)]
        first, second = run(), run()
        assert first == second
        assert 40 < sum(first) < 160


class TestChannelOverflowStorm:
    def test_storm_squeezes_and_releases(self):
        # A selection query pushes one tuple per packet through its
        # channel, so the storm window is guaranteed live traffic.
        gs, subs = build_engine("flows", query=SEL_QUERY)
        storm = ChannelOverflowStorm(at=0.3, duration=0.4, capacity=2)
        gs.inject_faults([storm])
        gs.feed(packets(), pump_every=64)
        gs.flush()
        assert storm.cycles_active > 0
        assert storm.dropped_during > 0
        # The organic overflow accounting carries the storm's drops.
        report = gs.overload_report()
        assert report["channel_dropped"] >= storm.dropped_during
        # After the storm every channel is unbounded again.
        assert all(c.fault_capacity is None for c in gs.rts.channels())

    def test_a_consumer_removed_mid_storm_keeps_its_drops(self):
        gs = Gigascope()
        gs.add_queries("DEFINE query_name a; Select time, destIP From eth0.tcp")
        gs.add_query("DEFINE query_name h; Select time, destIP From a")
        gs.start()
        storm = ChannelOverflowStorm(at=0.5, duration=3.0, capacity=2)
        gs.inject_faults([storm])
        stream = [tcp_packet(ts=i * 0.01, sport=1000 + i % 50)
                  for i in range(500)]
        gs.feed(stream[:200], pump_every=50)
        lost = gs.rts.node("a").subscribers[0].stats.dropped
        assert lost > 0
        gs.remove_query("h")             # a->h leaves mid-storm
        gs.feed(stream[200:], pump_every=50)
        gs.flush()
        assert storm.dropped_during == lost
        assert gs.overload_report()["channel_dropped"] == lost


class TestClockSkew:
    def test_skews_only_the_named_interface(self):
        skew = ClockSkew(interface="eth1", skew_s=10.0)
        gs, subs = build_engine("flows")
        gs.inject_faults([skew])
        stream = packets(count=100)
        for packet in stream[:50]:
            gs.feed_packet(packet)
        assert skew.skewed == 0  # workload arrives on eth0
        import dataclasses
        for packet in stream[50:]:
            gs.feed_packet(dataclasses.replace(packet, interface="eth1"))
        assert skew.skewed == 50
        # Stream time follows the skewed clock.
        assert gs.rts.stream_time >= 10.0


class TestHeartbeatSilence:
    def test_suppression_is_counted_and_recovers(self):
        gs, subs = build_engine("flows", heartbeat_interval=0.1)
        silence = HeartbeatSilence(at=0.5, duration=0.6)
        gs.inject_faults([silence])
        gs.feed(packets(count=2000))
        gs.flush()
        assert silence.suppressed > 0
        assert gs.rts.heartbeats_suppressed == silence.suppressed
        assert gs.rts.heartbeats_sent > 0  # beats resumed after the window
        report = gs.overload_report()
        assert report["heartbeats_suppressed"] == silence.suppressed


class TestFaultSpecs:
    def test_round_trips(self):
        burst = parse_fault_spec("ring_burst:at=0.5,duration=0.2,drop=0.5")
        assert isinstance(burst, RingLossBurst)
        assert (burst.at, burst.duration, burst.drop_prob) == (0.5, 0.2, 0.5)
        storm = parse_fault_spec("channel_storm:at=1,duration=2,capacity=8")
        assert isinstance(storm, ChannelOverflowStorm)
        assert storm.capacity == 8
        skew = parse_fault_spec("clock_skew:iface=eth1,skew=0.25")
        assert isinstance(skew, ClockSkew)
        assert skew.interface == "eth1" and skew.skew_s == 0.25
        assert math.isinf(skew.duration)
        silence = parse_fault_spec("heartbeat_silence:at=2,duration=3")
        assert isinstance(silence, HeartbeatSilence)
        op = parse_fault_spec("operator_error:node=flows,at_tuple=100")
        assert isinstance(op, OperatorFault)
        assert (op.node, op.at_tuple) == ("flows", 100)

    def test_bad_specs_raise(self):
        for spec in ("nope:at=1", "ring_burst:at=1", "ring_burst:junk",
                     "operator_error:", "channel_storm:at=1,duration=1,"
                     "capacity=0"):
            with pytest.raises(ValueError):
                parse_fault_spec(spec)

    @pytest.mark.parametrize("spec, name", [
        ("ring_burst:at=nan,duration=1", "at"),
        ("ring_burst:at=inf,duration=1", "at"),
        ("ring_burst:at=x,duration=1", "at"),
        ("heartbeat_silence:at=1,duration=nan", "duration"),
        ("channel_storm:at=1,duration=-inf", "duration"),
        ("clock_skew:iface=eth0,skew=nan", "skew_s"),
        ("clock_skew:iface=eth0,skew=-inf", "skew_s"),
    ])
    def test_non_finite_windows_are_refused_by_name(self, spec, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite "
                                             f"number( >= 0)?, got "):
            parse_fault_spec(spec)

    def test_engine_accepts_spec_strings(self):
        gs, subs = build_engine("flows")
        armed = gs.inject_faults(["heartbeat_silence:at=0.1,duration=0.2"])
        assert isinstance(armed[0], HeartbeatSilence)
        assert gs.rts.faults == armed
