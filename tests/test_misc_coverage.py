"""Coverage for smaller API surfaces: unparse sources, params objects,
sink flushing, schema helpers, the CLI's absent mode flag, runtime edges."""

import io

import pytest

from repro import Gigascope
from repro.gsql.parser import parse_query
from repro.gsql.unparse import query_to_gsql
from repro.operators.sessionize import SessionizeNode
from tests.conftest import tcp_packet, udp_packet
from tests.test_icmp_sessionize_sinks import icmp_packet


class TestUnparseSources:
    def test_subquery_rendering(self):
        query = parse_query(
            "Select time From ( Select time, destPort From tcp "
            "Where destPort = 80 ) web")
        rendered = query_to_gsql(query)
        assert "( SELECT time, destPort" in rendered
        assert rendered.rstrip().endswith("web")
        # and the rendering parses back
        again = parse_query(rendered)
        assert again.sources[0].subquery is not None

    def test_interface_and_alias_rendering(self):
        query = parse_query("Select B.time From eth3.tcp B")
        rendered = query_to_gsql(query)
        assert "eth3.tcp B" in rendered

    def test_merge_with_defines(self):
        query = parse_query("DEFINE query_name m; "
                            "Merge a.ts : b.ts From a, b")
        rendered = query_to_gsql(query)
        assert rendered.startswith("DEFINE { query_name m; }")
        assert "MERGE a.ts : b.ts" in rendered


class TestQueryInstance:
    def test_params_property_is_live(self):
        gs = Gigascope()
        name = gs.add_query("Select time From tcp Where destPort = $p",
                            params={"p": 80}, name="q")
        instance = gs._instances[name]
        assert instance.params["p"] == 80
        gs.set_param("q", "p", 443)
        assert instance.params["p"] == 443
        assert gs.get_param("q", "p") == 443


class TestSchemaHelpers:
    def test_ordered_attributes(self, registry):
        tcp = registry.get("tcp")
        names = [a.name for a in tcp.ordered_attributes()]
        assert "time" in names and "destPort" not in names

    def test_names_tuple(self, registry):
        assert registry.get("udp").names[0] == "time"

    def test_registry_contains(self, registry):
        assert "TCP" in registry
        assert "smtp" not in registry


class TestSinkFlushing:
    def test_flush_every_batches_writes(self):
        from repro.gsql.schema import Attribute, StreamSchema
        from repro.gsql.types import UINT
        from repro.sinks import CsvSink

        class CountingIO(io.StringIO):
            def __init__(self):
                super().__init__()
                self.flushes = 0

            def flush(self):
                self.flushes += 1
                super().flush()

        buffer = CountingIO()
        schema = StreamSchema("s", [Attribute("x", UINT)])
        sink = CsvSink("sink", schema, buffer, flush_every=10)
        for i in range(25):
            sink.on_tuple((i,), 0)
        assert buffer.flushes == 2  # at rows 10 and 20


class TestCliHasNoCodegenMode:
    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_mode_flag_is_a_usage_error(self, tmp_path, capsys, mode):
        """The GSQL processor is a code generator; there is no mode to
        pick."""
        from repro.cli import main
        from repro.net.pcap import write_pcap
        path = tmp_path / "t.pcap"
        write_pcap(str(path), [tcp_packet(ts=1.0, dport=80)])
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", str(path), "--mode", mode,
                  "--query", "DEFINE query_name q; Select time From tcp"])
        assert excinfo.value.code == 2
        assert "--mode" in capsys.readouterr().err


class TestRuntimeEdges:
    def test_advance_time_flushes_aggregation(self):
        gs = Gigascope(heartbeat_interval=1.0)
        gs.add_query("DEFINE query_name q; Select tb, count(*) From tcp "
                     "Group by time/10 as tb")
        sub = gs.subscribe("q")
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0))
        gs.pump()
        assert sub.poll() == []
        gs.advance_time(50.0)  # quiet period passes; the window closes
        assert sub.poll() == [(0, 1)]

    def test_subscription_len_and_ended(self):
        gs = Gigascope(heartbeat_interval=None)
        gs.add_query("DEFINE query_name q; Select time From tcp")
        sub = gs.subscribe("q")
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0))
        assert len(sub) == 1
        assert not sub.ended
        gs.flush()
        sub.poll()
        assert sub.ended

    def test_pump_returns_items_processed(self):
        gs = Gigascope(heartbeat_interval=None)
        gs.add_queries("""
            DEFINE query_name base; Select time, len From tcp;
            DEFINE query_name agg;
            Select tb, count(*) From base Group by time/10 as tb
        """)
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0))
        assert gs.pump() >= 1
        assert gs.pump() == 0  # quiescent

    def test_stats_stable_names(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select time From tcp")
        gs.start()
        stats = gs.stats()
        assert set(stats["q"]) >= {"tuples_in", "tuples_out", "discarded",
                                   "punctuations_in", "punctuations_out"}


class TestStringLiteralCoercion:
    """GSQL STRING values are bytes at run time; str literals must
    compare equal to them (regression: qname = 'x' silently never
    matched)."""

    def test_equality_on_payload_fields(self):
        from repro.net.build import build_udp_frame, capture
        from repro.net.dns import build_query as dns_query
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select time From dns "
                     "Where qname = 'www.example.com'")
        sub = gs.subscribe("q")
        gs.start()
        for i, name in enumerate(("www.example.com", "other.net")):
            frame = build_udp_frame("10.0.0.1", "10.0.0.53", 5353, 53,
                                    payload=dns_query(i, name))
            gs.feed_packet(capture(frame, float(i)))
        gs.flush()
        assert sub.poll() == [(0,)]

    def test_in_list_over_ports_end_to_end(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select destPort From tcp "
                     "Where destPort IN (80, 443)")
        sub = gs.subscribe("q")
        gs.start()
        for port in (80, 22, 443, 8080):
            gs.feed_packet(tcp_packet(ts=1.0, dport=port))
        gs.pump()
        assert sorted(sub.poll()) == [(80,), (443,)]


class TestRowAdapterConsumers:
    """Consumers the block kernel does not cover -- two row-adapter
    LFTAs (``icmp`` has no layout) and a user-written packet operator
    on one interface -- each parse the packets of their run themselves:
    together they end exactly as each does alone."""

    QUERIES = {
        "pings": "Select time, srcIP, icmp_seq From eth0.icmp "
                 "Where icmp_type = 8",
        "per_type": "Select tb, icmp_type, count(*) From eth0.icmp "
                    "Group by time/2 as tb, icmp_type",
    }
    SESSIONS = "sessions"

    @staticmethod
    def packets():
        out = []
        for i in range(120):
            ts = i * 0.1
            if i % 3 == 0:
                out.append(tcp_packet(ts=ts, sport=1000 + i % 5))
            elif i % 3 == 1:
                out.append(icmp_packet(ts=ts, icmp_type=8 if i % 2 else 0,
                                       seq=i))
            else:
                out.append(udp_packet(ts=ts, sport=40 + i % 4))
        return out

    def _run(self, names, batch_size):
        gs = Gigascope(seed=3, batch_size=batch_size, heartbeat_interval=0.5)
        for name in names:
            if name == self.SESSIONS:
                gs.add_node(SessionizeNode(name, idle_timeout=1.0),
                            interface="eth0")
            else:
                gs.add_query(f"DEFINE query_name {name}; "
                             f"{self.QUERIES[name]}")
        subs = {name: gs.subscribe(name) for name in names}
        gs.start()
        assert not gs.rts._block_plan().members
        gs.feed(self.packets(), pump_every=32)
        gs.flush()
        stats = gs.stats()
        nodes = {name: (stats[name], getattr(node, "packets_seen", None))
                 for name, node in gs.rts.iter_nodes()}
        return nodes, {name: sub.poll() for name, sub in subs.items()}

    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_each_ends_as_it_does_alone(self, batch_size):
        names = [*self.QUERIES, self.SESSIONS]
        nodes, rows = self._run(names, batch_size)
        assert all(rows.values())
        for name in names:
            alone_nodes, alone_rows = self._run([name], batch_size)
            assert alone_rows[name] == rows[name]
            for node, seen in alone_nodes.items():
                assert nodes[node] == seen, node
