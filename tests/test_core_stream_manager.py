"""Tests for the stream manager: registry, scheduling, heartbeats."""

import pytest

from repro.core.heartbeat import FLUSH, Punctuation
from repro.core.query_node import QueryNode
from repro.core.stream_manager import RegistryError, RuntimeSystem
from repro.gsql.ordering import Ordering
from repro.gsql.schema import Attribute, StreamSchema
from repro.gsql.types import UINT
from repro.net.packet import CapturedPacket


def schema(name="s"):
    return StreamSchema(name, [Attribute("time", UINT, Ordering.increasing())])


class Producer(QueryNode):
    """A packet consumer that emits (int(ts),) per packet."""

    def __init__(self, name):
        super().__init__(name, schema(name))
        self.heartbeats = []

    def accept_packet(self, packet):
        self.emit((int(packet.timestamp),))

    def on_heartbeat(self, stream_time):
        self.heartbeats.append(stream_time)
        self.emit_punctuation(Punctuation({0: int(stream_time)}))

    def on_tuple(self, row, input_index):
        raise TypeError


class Doubler(QueryNode):
    """An HFTA-style node: forwards 2*time."""

    def __init__(self, name):
        super().__init__(name, schema(name))

    def on_tuple(self, row, input_index):
        self.emit((row[0] * 2,))


def packet(ts, interface="eth0"):
    return CapturedPacket(timestamp=ts, data=b"x" * 60, interface=interface)


class TestRegistry:
    def test_duplicate_names_rejected(self):
        rts = RuntimeSystem()
        rts.register_node(Doubler("a"))
        with pytest.raises(RegistryError):
            rts.register_node(Doubler("a"))

    def test_unknown_node_lookup(self):
        rts = RuntimeSystem()
        with pytest.raises(RegistryError):
            rts.node("ghost")

    def test_lfta_batch_restriction(self):
        """LFTAs must be submitted before start(); HFTAs any time."""
        rts = RuntimeSystem()
        rts.register_node(Producer("p0"), packet_interface="eth0")
        rts.start()
        with pytest.raises(RegistryError):
            rts.register_node(Producer("p1"), packet_interface="eth0")
        rts.register_node(Doubler("h"))  # HFTA-only: fine
        rts.stop()
        rts.register_node(Producer("p2"), packet_interface="eth0")

    def test_feed_requires_start(self):
        rts = RuntimeSystem()
        rts.register_node(Producer("p"), packet_interface="eth0")
        with pytest.raises(RegistryError):
            rts.feed_packet(packet(0.0))


class TestDataflow:
    def test_packets_flow_through_chain(self):
        rts = RuntimeSystem(heartbeat_interval=None)
        producer = Producer("p")
        doubler = Doubler("d")
        rts.register_node(producer, packet_interface="eth0")
        rts.register_node(doubler)
        rts.connect(doubler, ["p"])
        subscription = rts.subscribe("d")
        rts.start()
        for ts in range(3):
            rts.feed_packet(packet(float(ts)))
        rts.pump()
        assert subscription.poll() == [(0,), (2,), (4,)]

    def test_interface_isolation(self):
        rts = RuntimeSystem(heartbeat_interval=None)
        p0 = Producer("p0")
        p1 = Producer("p1")
        rts.register_node(p0, packet_interface="eth0")
        rts.register_node(p1, packet_interface="eth1")
        s0 = rts.subscribe("p0")
        s1 = rts.subscribe("p1")
        rts.start()
        rts.feed_packet(packet(1.0, "eth0"))
        rts.feed_packet(packet(2.0, "eth1"))
        assert s0.poll() == [(1,)]
        assert s1.poll() == [(2,)]

    def test_feed_iterable_pumps(self):
        rts = RuntimeSystem(heartbeat_interval=None)
        producer = Producer("p")
        doubler = Doubler("d")
        rts.register_node(producer, packet_interface="eth0")
        rts.register_node(doubler)
        rts.connect(doubler, ["p"])
        subscription = rts.subscribe("d")
        rts.start()
        rts.feed(packet(float(i)) for i in range(600))
        assert len(subscription.poll()) == 600

    def test_stats_exposed(self):
        rts = RuntimeSystem(heartbeat_interval=None)
        producer = Producer("p")
        rts.register_node(producer, packet_interface="eth0")
        rts.start()
        rts.feed_packet(packet(0.0))
        stats = rts.stats()
        assert stats["p"]["tuples_out"] == 1


class TestHeartbeats:
    def test_periodic_heartbeats_in_stream_time(self):
        rts = RuntimeSystem(heartbeat_interval=1.0)
        producer = Producer("p")
        rts.register_node(producer, packet_interface="eth0")
        rts.start()
        for i in range(30):
            rts.feed_packet(packet(i * 0.25))
        # 7.25 seconds of stream time at 1 Hz -> ~8 heartbeats
        assert 6 <= len(producer.heartbeats) <= 9

    def test_heartbeats_reach_silent_interfaces(self):
        """The whole point: a quiet interface still gets time tokens."""
        rts = RuntimeSystem(heartbeat_interval=1.0)
        busy = Producer("busy")
        quiet = Producer("quiet")
        rts.register_node(busy, packet_interface="eth0")
        rts.register_node(quiet, packet_interface="eth1")
        rts.start()
        for i in range(50):
            rts.feed_packet(packet(i * 0.2, "eth0"))  # only eth0 traffic
        assert len(quiet.heartbeats) >= 8

    def test_on_demand_heartbeat(self):
        rts = RuntimeSystem(heartbeat_interval=None)
        producer = Producer("p")
        rts.register_node(producer, packet_interface="eth0")
        rts.start()
        rts.feed_packet(packet(5.0))
        rts.heartbeat_requested(producer)
        rts.pump()
        assert producer.heartbeats == [5.0]

    def test_no_interval_never_cuts_on_a_stamp(self):
        """Without an interval an infinite stamp is one more packet: no
        block ends on it and no heartbeat goes out, so ``feed()`` does
        not raise.  The ``time`` reader fails on the packet itself, as
        it does with an interval; a query that reads no ``time`` keeps
        all three rows, and so it does with an interval: the heartbeat
        at the infinite stream time goes out and bounds nothing."""
        from repro import Gigascope
        from tests.conftest import tcp_packet

        def run(interval, select):
            gs = Gigascope(heartbeat_interval=interval)
            gs.add_query(f"DEFINE query_name q; Select {select} "
                         "From eth0.tcp Where destPort = 80")
            sub = gs.subscribe("q")
            gs.start()
            gs.feed([tcp_packet(ts=ts)
                     for ts in (1.0, float("inf"), 2.0)])
            gs.flush()
            return sub.poll(), dict(gs.rts.quarantined), \
                gs.rts.heartbeats_sent

        timed = run(None, "time, destIP")
        assert timed[:2] == run(1.0, "time, destIP")[:2]
        assert "OverflowError" in timed[1]["q"]
        rows, quarantined, sent = run(None, "destIP")
        assert len(rows) == 3 and not quarantined and sent == 0
        beaten = run(1.0, "destIP")
        assert beaten[0] == rows and not beaten[1] and beaten[2] > 0

    def test_advance_time_without_packets(self):
        rts = RuntimeSystem(heartbeat_interval=1.0)
        producer = Producer("p")
        rts.register_node(producer, packet_interface="eth0")
        rts.start()
        rts.advance_time(42.0)
        assert producer.heartbeats == [42.0]


class TestFlush:
    def test_flush_all_propagates(self):
        rts = RuntimeSystem(heartbeat_interval=None)
        producer = Producer("p")
        doubler = Doubler("d")
        rts.register_node(producer, packet_interface="eth0")
        rts.register_node(doubler)
        rts.connect(doubler, ["p"])
        subscription = rts.subscribe("d")
        rts.start()
        rts.feed_packet(packet(1.0))
        rts.flush_all()
        subscription.poll()
        assert subscription.ended
