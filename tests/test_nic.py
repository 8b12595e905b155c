"""Tests for the simulated NIC, the card-side filter, and on-NIC RTS."""

import struct

import pytest

from repro import Gigascope
from repro.gsql.schema import PacketView
from repro.net.build import (build_tcp6_frame, build_udp6_frame,
                             build_udp_frame, capture)
from repro.net.dns import build_response
from repro.net.packet import ip_to_int
from repro.nic.nic import Nic
from repro.nic.nic_rts import NicRts
from repro.operators.lfta import LftaNode
from repro.workloads.netflow_source import netflow_export_stream
from tests.conftest import tcp_packet, udp_packet
from tests.test_columnar import _corpus
from tests.test_gsql_corpus import CORPUS, PARAMS


def engine_for(select, params=None):
    gs = Gigascope()
    gs.add_query(f"DEFINE query_name q; {select}", params=params)
    return gs


def card_filter(where=None):
    """The card-side test of ``Select time From tcp [Where ...]``:
    what the LFTA that re-checks on the host hands the card."""
    text = "Select time From tcp" + (f" Where {where}" if where else "")
    return engine_for(text).rts.node("q").card_filter()


class TestBpf:
    def test_port_and_protocol_tests(self):
        program = card_filter("destPort = 80 and protocol = 6")
        assert program.description == "destPort = 80 AND protocol = 6"
        assert program.matches(tcp_packet(dport=80))
        assert not program.matches(tcp_packet(dport=443))
        assert not program.matches(udp_packet(dport=80))
        assert program.evaluated == 3
        assert program.matched == 1

    def test_ip_address_tests(self):
        program = card_filter(f"srcIP = {ip_to_int('10.0.0.1')}")
        assert program.matches(tcp_packet(src="10.0.0.1"))
        assert not program.matches(tcp_packet(src="10.0.0.2"))

    def test_range_operators(self):
        program = card_filter("destPort <= 1023")
        assert program.matches(tcp_packet(dport=80))
        assert not program.matches(tcp_packet(dport=8080))

    def test_non_ip_rejected(self):
        program = card_filter()  # nothing pushed: the guard alone
        assert program.description == ""
        assert not program.matches(capture(b"\x00" * 60, 0.0))  # ethertype 0
        assert program.matches(tcp_packet())

    def test_truncated_frame_fails_field_tests(self):
        program = card_filter("destPort = 80")
        assert not program.matches(
            capture(tcp_packet(dport=80).data[:20], 0.0))

    def test_consistency_with_packet_view(self):
        """The card's generated offsets must agree with full parsing."""
        program = card_filter("destPort = 80 and ipversion = 4")
        for dport in (80, 443, 8080):
            packet = tcp_packet(dport=dport, payload=b"xyz")
            view = PacketView(packet)
            expected = view.tcp is not None and view.tcp.dst_port == 80
            assert program.matches(packet) == expected

    def test_a_parameter_in_the_prefix_is_read_per_packet(self):
        """The card's loop reads the compiler's parameter dict, as the
        LFTA's own does: ``set_param`` bites on the next packet."""
        gs = engine_for("Select time From tcp Where destPort = $port",
                        params={"port": 80})
        program = gs.rts.node("q").card_filter()
        assert program.matches(tcp_packet(dport=80))
        assert not program.matches(tcp_packet(dport=443))
        gs.set_param("q", "port", 443)
        assert program.matches(tcp_packet(dport=443))
        assert not program.matches(tcp_packet(dport=80))

    def test_a_row_adapter_node_pushes_nothing(self):
        """No layout, no offsets to test at: the card passes everything
        and keeps every byte."""
        for text in ("Select time From tcp6 Where destPort = 80",
                     "Select time From icmp Where icmp_type = 8"):
            gs = engine_for(text)
            assert gs.rts.node("q").card_filter() is None
            assert gs.plan_of("q").lftas[0].snaplen == 65535


def _frames(build, count):
    return [capture(build(i), 0.01 * i) for i in range(count)]


#: (query, packets, rows) on protocols without a header layout: a
#: card that tested their fields at Ethernet+IPv4 offsets, or snapped
#: to the header reach, would lose every row
LAYOUTLESS = {
    "netflow": (
        "Select srcIP, octets From nf0.netflow "
        "Where destPort = 80 and protocol = 6",
        lambda: list(netflow_export_stream(duration_s=60)), 1070),
    "tcp6": (
        "Select time From eth0.tcp6 Where destPort = 80",
        lambda: _frames(lambda i: build_tcp6_frame(
            "::1", "::2", 1000 + i, 80), 100), 100),
    "udp6": (
        "Select time From eth0.udp6 Where destPort = 53",
        lambda: _frames(lambda i: build_udp6_frame(
            "::1", "::2", 1000 + i, 53, payload=b"x" * 20), 10), 10),
    "ethernet": (  # ARP
        "Select time, ethertype From eth0.ethernet",
        lambda: _frames(lambda i: b"\xff" * 6 + b"\x02" * 6
                        + struct.pack("!H", 0x0806) + bytes(28), 10), 10),
    "dns": (  # 193-byte responses: the question ends past byte 134
        "Select time, qname, answers From eth0.dns",
        lambda: _frames(lambda i: build_udp_frame(
            "10.0.0.53", "10.0.0.1", 53, 5000 + i, payload=build_response(
                i, ".".join(["x" * 32] * 4 + [str(i)]))), 10), 10),
}


def rows_behind_the_card(text, packets, card, params=None):
    """Rows of ``text`` over ``packets``, fed directly or through a card
    programmed with the LFTAs' own filter and the plan's snap length."""
    gs = engine_for(text, params)
    sub = gs.subscribe("q")
    gs.start()
    if card:
        delivered = []
        for lfta in gs.plan_of("q").lftas:
            nic = Nic(service_us=0.001, ring_slots=1 << 20,
                      bpf=gs.rts.node(lfta.name).card_filter(),
                      snaplen=lfta.snaplen)
            for packet in packets:
                if lfta.interface in ("any", packet.interface):
                    nic.receive(packet, packet.timestamp * 1e6)
            delivered += [packet for _, packet in nic.take_deliveries()]
        packets = sorted(delivered, key=lambda packet: packet.timestamp)
    gs.feed(packets)
    gs.flush()
    return sub.poll()


@pytest.mark.parametrize("protocol", sorted(LAYOUTLESS))
def test_a_card_programmed_by_the_plan_loses_no_row(protocol):
    text, make, rows = LAYOUTLESS[protocol]
    packets = make()
    assert len(rows_behind_the_card(text, packets, card=False)) == rows
    assert rows_behind_the_card(text, packets, card=True) == \
        rows_behind_the_card(text, packets, card=False)


def _whole_predicate_is_prefix(lfta):
    return lfta.sample_rate is None and lfta.prefix == len(lfta.predicates)


def _layout_queries():
    """``(query, some LFTA's card test is its whole predicate)`` for the
    corpus queries every LFTA of which has a card filter."""
    for text, lftas, _, _ in CORPUS:
        if lftas:
            gs = engine_for(text, PARAMS)
            plans = gs.plan_of("q").lftas
            if all(gs.rts.node(lfta.name).card_filter() is not None
                   for lfta in plans):
                yield text, any(map(_whole_predicate_is_prefix, plans))


LAYOUT_QUERIES = list(_layout_queries())


def _both_links():
    """The adversarial frame corpus of ``tests/test_columnar.py`` (every
    truncation prefix of tcp/udp/options frames, fragments, non-IP),
    arriving on eth0 and on eth1 so the join plans see both sides."""
    return [capture(packet.data, packet.timestamp, interface)
            for packet in _corpus() for interface in ("eth0", "eth1")]


class TestTheCardIsARestrictionOfTheLfta:
    def test_the_corpus_has_layout_queries(self):
        assert len(LAYOUT_QUERIES) >= 15
        assert sum(exact for _, exact in LAYOUT_QUERIES) >= 10

    @pytest.mark.parametrize("text", [text for text, _ in LAYOUT_QUERIES])
    def test_rows_are_the_same_behind_the_card(self, text):
        packets = _both_links()
        direct = rows_behind_the_card(text, packets, False, PARAMS)
        assert rows_behind_the_card(text, packets, True, PARAMS) == direct

    @pytest.mark.parametrize(
        "text", [text for text, exact in LAYOUT_QUERIES if exact])
    def test_card_and_loop_agree_packet_by_packet(self, text):
        """Where the whole predicate list is the prefix and nothing is
        sampled, the card passes a packet exactly when the LFTA's own
        loop takes it to the row action."""
        gs = engine_for(text, PARAMS)
        for lfta in filter(_whole_predicate_is_prefix,
                           gs.plan_of("q").lftas):
            node = gs.rts.node(lfta.name)
            card = node.card_filter()
            stats = node.stats
            for packet in _corpus():
                before = stats.tuples_in - stats.discarded
                node.accept_packet(packet)
                taken = stats.tuples_in - stats.discarded - before
                assert taken == card.matches(packet), packet


class TestNicQueueing:
    def test_fast_nic_accepts_everything(self):
        nic = Nic(service_us=1.0, ring_slots=8)
        for i in range(100):
            nic.receive(tcp_packet(ts=i * 0.001), now_us=i * 1000.0)
        assert nic.stats.ring_dropped == 0
        assert nic.stats.delivered_packets == 100

    def test_slow_nic_drops_on_ring_overflow(self):
        nic = Nic(service_us=1000.0, ring_slots=8)
        for i in range(100):
            nic.receive(tcp_packet(ts=i * 1e-6), now_us=float(i))
        assert nic.stats.ring_dropped > 0
        assert nic.loss_rate > 0.5

    def test_bpf_filter_counts(self):
        program = card_filter("destPort = 80")
        nic = Nic(service_us=1.0, ring_slots=64, bpf=program)
        nic.receive(tcp_packet(dport=80), 0.0)
        nic.receive(tcp_packet(dport=443), 10.0)
        assert nic.stats.filtered == 1
        assert nic.stats.delivered_packets == 1

    def test_snaplen_truncation(self):
        nic = Nic(service_us=1.0, snaplen=60)
        nic.receive(tcp_packet(payload=b"z" * 500), 0.0)
        ((_, delivered),) = nic.take_deliveries()
        assert delivered.caplen == 60
        assert delivered.orig_len > 500


class TestOnNicLfta:
    def _nic_with_lfta(self, compile_plan):
        analyzed, plan, compiler = compile_plan(
            "DEFINE query_name q; Select time, destPort From tcp "
            "Where destPort = 80")
        lfta = LftaNode(plan.lftas[0], analyzed, compiler)
        rts = NicRts([lfta])
        return Nic(service_us=1.0, ring_slots=64, rts=rts), lfta

    def test_tuples_delivered_not_packets(self, compile_plan):
        nic, _ = self._nic_with_lfta(compile_plan)
        nic.receive(tcp_packet(ts=1.0, dport=80), 0.0)
        nic.receive(tcp_packet(ts=2.0, dport=443), 10.0)
        assert nic.stats.delivered_tuples == 1
        assert nic.stats.delivered_packets == 0
        ((_, rows),) = nic.take_deliveries()
        assert rows == [(1, 80)]

    def test_nic_results_match_host_lfta(self, compile_plan):
        """Running the LFTA on the card is semantically transparent."""
        nic, _ = self._nic_with_lfta(compile_plan)
        analyzed, plan, compiler = compile_plan(
            "DEFINE query_name q2; Select time, destPort From tcp "
            "Where destPort = 80")
        host_lfta = LftaNode(plan.lftas[0], analyzed, compiler)
        tap = host_lfta.subscribe()
        packets = [tcp_packet(ts=float(i), dport=80 if i % 3 else 22)
                   for i in range(30)]
        for i, packet in enumerate(packets):
            nic.receive(packet, i * 10.0)
            host_lfta.accept_packet(packet)
        nic_rows = [row for _, batch in nic.take_deliveries() for row in batch]
        host_rows = [item for item in tap.drain() if type(item) is tuple]
        assert nic_rows == host_rows

    def test_rts_heartbeat_and_flush(self, compile_plan):
        analyzed, plan, compiler = compile_plan(
            "DEFINE query_name agg; Select tb, count(*) From tcp "
            "Group by time/10 as tb")
        lfta = LftaNode(plan.lftas[0], analyzed, compiler)
        rts = NicRts([lfta])
        nic = Nic(service_us=1.0, rts=rts)
        nic.receive(tcp_packet(ts=1.0), 0.0)
        assert rts.heartbeat(50.0) == [(0, 1)]
        nic.receive(tcp_packet(ts=60.0), 100.0)
        assert rts.flush() == [(6, 1)]
