"""Tests for Protocols, Streams, the DDL, and packet interpretation."""

import pytest

from repro.gsql.ordering import Ordering, OrderingKind
from repro.gsql.schema import (
    Attribute,
    PacketView,
    ProtocolSchema,
    SchemaError,
    SchemaRegistry,
    StreamSchema,
    builtin_registry,
    parse_ddl,
)
from repro.gsql.types import IP, STRING, UINT
from repro.net.build import build_tcp_frame, build_udp_frame, capture
from repro.net.netflow import NetflowRecord, pack_netflow_v5
from repro.net.packet import CapturedPacket, ip_to_int


@pytest.fixture
def registry():
    return builtin_registry()


def _tcp_packet(ts=100.0, dport=80, payload=b"GET / HTTP/1.1\r\n\r\n"):
    frame = build_tcp_frame("10.0.0.1", "192.168.1.1", 1234, dport,
                            payload=payload, ttl=63)
    return capture(frame, ts)


class TestPacketView:
    def test_tcp_fields(self):
        view = PacketView(_tcp_packet())
        assert view.ip.src == ip_to_int("10.0.0.1")
        assert view.tcp.dst_port == 80
        assert view.payload == b"GET / HTTP/1.1\r\n\r\n"
        assert view.udp is None

    def test_udp_fields(self):
        frame = build_udp_frame("1.1.1.1", "2.2.2.2", 53, 5353, payload=b"dns")
        view = PacketView(capture(frame, 0.0))
        assert view.udp.src_port == 53
        assert view.tcp is None
        assert view.payload == b"dns"

    def test_non_ip_frame(self):
        view = PacketView(CapturedPacket(timestamp=0.0, data=b"\x00" * 20))
        assert view.ip is None
        assert view.payload is None

    def test_truncated_capture(self):
        packet = _tcp_packet().truncate(20)  # cuts into the IP header
        view = PacketView(packet)
        assert view.eth is not None
        assert view.ip is None


class TestBuiltinProtocols:
    def test_tcp_interpret(self, registry):
        tcp = registry.get("tcp")
        rows = tcp.interpret(_tcp_packet(ts=42.7))
        assert len(rows) == 1
        row = rows[0]
        assert row[tcp.index_of("time")] == 42
        assert abs(row[tcp.index_of("timestamp")] - 42.7) < 1e-9
        assert row[tcp.index_of("destPort")] == 80
        assert row[tcp.index_of("srcIP")] == ip_to_int("10.0.0.1")
        assert row[tcp.index_of("data")] == b"GET / HTTP/1.1\r\n\r\n"
        assert row[tcp.index_of("ttl")] == 63
        assert row[tcp.index_of("protocol")] == 6

    def test_tcp_rejects_udp_packet(self, registry):
        frame = build_udp_frame("1.1.1.1", "2.2.2.2", 53, 5353)
        assert registry.get("tcp").interpret(capture(frame, 0.0)) == []

    def test_udp_rejects_tcp_packet(self, registry):
        assert registry.get("udp").interpret(_tcp_packet()) == []

    def test_ip_accepts_both(self, registry):
        ip = registry.get("ip")
        assert len(ip.interpret(_tcp_packet())) == 1
        frame = build_udp_frame("1.1.1.1", "2.2.2.2", 53, 5353)
        assert len(ip.interpret(capture(frame, 0.0))) == 1

    def test_time_ordering_declared(self, registry):
        tcp = registry.get("tcp")
        assert tcp.attribute("time").ordering.is_increasing
        assert tcp.attribute("destPort").ordering.kind == OrderingKind.NONE

    def test_netflow_expander(self, registry):
        records = [
            NetflowRecord(src_ip=1, dst_ip=2, src_port=3, dst_port=80,
                          protocol=6, packets=9, octets=900,
                          start_time=10.0, end_time=20.0)
            for _ in range(3)
        ]
        payload = pack_netflow_v5(records, unix_secs=0)
        frame = build_udp_frame("10.255.0.1", "10.255.0.2", 4000, 2055,
                                payload=payload)
        netflow = registry.get("netflow")
        rows = netflow.interpret(capture(frame, 50.0))
        assert len(rows) == 3
        assert rows[0][netflow.index_of("packets")] == 9
        assert abs(rows[0][netflow.index_of("time_start")] - 10.0) < 0.01

    def test_netflow_clock_bounds(self, registry):
        netflow = registry.get("netflow")
        bounds = netflow.clock_bounds(100.0)
        assert bounds[netflow.index_of("time_end")] == 100.0
        assert bounds[netflow.index_of("time_start")] == 70.0

    def test_a_non_finite_stream_time_bounds_nothing(self, registry):
        tcp = registry.get("tcp")
        assert tcp.clock_bounds(2.5) == {tcp.index_of("time"): 2,
                                         tcp.index_of("timestamp"): 2.5}
        for odd in (float("inf"), float("-inf"), float("nan")):
            assert tcp.clock_bounds(odd) == {}

    def test_bgp_expander(self, registry):
        from repro.net.bgp import BGPUpdate
        update = BGPUpdate(announced=[(ip_to_int("10.0.0.0"), 8)],
                           as_path=[7018, 3356])
        frame = build_udp_frame("10.0.0.9", "10.0.0.10", 179, 179,
                                payload=update.pack())
        bgp = registry.get("bgp")
        rows = bgp.interpret(capture(frame, 9.0))
        assert len(rows) == 1
        assert rows[0][bgp.index_of("origin_as")] == 3356
        assert rows[0][bgp.index_of("announced")] == 1


class TestSparseInterpreter:
    def test_only_requested_fields_computed(self, registry):
        tcp = registry.get("tcp")
        wanted = [tcp.index_of("time"), tcp.index_of("destPort")]
        interpret = tcp.sparse_interpreter(wanted)
        (row,) = interpret(_tcp_packet(ts=5.0))
        assert row[tcp.index_of("time")] == 5
        assert row[tcp.index_of("destPort")] == 80
        assert row[tcp.index_of("srcIP")] is None  # not computed

    def test_discards_when_field_unavailable(self, registry):
        tcp = registry.get("tcp")
        interpret = tcp.sparse_interpreter([tcp.index_of("destPort")])
        frame = build_udp_frame("1.1.1.1", "2.2.2.2", 53, 5353)
        assert interpret(capture(frame, 0.0)) == []


class TestSchemas:
    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            StreamSchema("s", [Attribute("x", UINT), Attribute("X", UINT)])

    def test_index_lookup_case_insensitive(self):
        schema = StreamSchema("s", [Attribute("destIP", IP)])
        assert schema.index_of("destip") == 0
        assert "DESTIP" in schema

    def test_missing_attribute_raises(self):
        schema = StreamSchema("s", [Attribute("x", UINT)])
        with pytest.raises(SchemaError):
            schema.index_of("y")

    def test_registry_duplicate(self, registry):
        with pytest.raises(SchemaError):
            registry.add(registry.get("tcp"))

    def test_protocol_requires_all_field_functions(self):
        with pytest.raises(SchemaError):
            ProtocolSchema("p", [Attribute("mystery", UINT)], {})


class TestDDL:
    def test_define_custom_protocol(self):
        (schema,) = parse_ddl("""
            PROTOCOL web (
                time UINT (increasing),
                destIP IP,
                destPort UINT,
                data STRING
            )
        """)
        assert schema.name == "web"
        assert schema.attribute("time").ordering.is_increasing
        rows = schema.interpret(_tcp_packet(ts=3.0))
        assert rows[0][schema.index_of("destPort")] == 80

    def test_ordering_variants(self):
        (schema,) = parse_ddl("""
            PROTOCOL p (
                time UINT (strictly increasing),
                timestamp FLOAT (banded_increasing(30)),
                seqno UINT (nonrepeating),
                srcIP IP (increasing_in_group(destIP, destPort)),
                destIP IP,
                destPort UINT
            )
        """)
        assert schema.attribute("time").ordering == Ordering.increasing(strict=True)
        assert schema.attribute("timestamp").ordering == Ordering.banded(30)
        assert schema.attribute("seqno").ordering == Ordering.nonrepeating()
        assert schema.attribute("srcIP").ordering.group == ("destIP", "destPort")

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            parse_ddl("PROTOCOL p ( nosuchfield UINT )")

    def test_multiple_protocols(self):
        schemas = parse_ddl("""
            PROTOCOL a ( time UINT );
            PROTOCOL b ( destPort UINT )
        """)
        assert [s.name for s in schemas] == ["a", "b"]


class TestEthernetProtocol:
    def test_counts_every_frame(self, registry):
        from tests.conftest import tcp_packet, udp_packet
        from repro.net.build import build_tcp6_frame, capture
        ethernet = registry.get("ethernet")
        for packet in (tcp_packet(ts=1.0), udp_packet(ts=2.0),
                       capture(build_tcp6_frame("::1", "::2", 1, 2), 3.0)):
            (row,) = ethernet.interpret(packet)
            assert row[ethernet.index_of("len")] == packet.orig_len

    def test_mac_fields(self, registry):
        from tests.conftest import tcp_packet
        ethernet = registry.get("ethernet")
        (row,) = ethernet.interpret(tcp_packet())
        assert row[ethernet.index_of("eth_src")] == b"02:00:00:00:00:01"

    def test_query_over_ethernet(self):
        from repro import Gigascope
        from tests.conftest import tcp_packet, udp_packet
        gs = Gigascope()
        gs.add_query("DEFINE query_name frames; "
                     "Select tb, count(*), sum(len) From ethernet "
                     "Group by time/10 as tb")
        sub = gs.subscribe("frames")
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0))
        gs.feed_packet(udp_packet(ts=2.0))
        gs.flush()
        rows = sub.poll()
        assert rows[0][1] == 2
