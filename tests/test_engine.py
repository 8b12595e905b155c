"""End-to-end tests of the Gigascope engine over real packets."""

import random
import re

import pytest

from repro import Gigascope
from repro.core.stream_manager import RegistryError
from repro.gsql.schema import PacketView
from repro.net.build import build_tcp_frame, capture
from repro.operators.defrag import DefragNode
from tests.conftest import tcp_packet, udp_packet


def make_traffic(count=600, seed=3, interface="eth0"):
    """TCP traffic: mixed ports, half the port-80 payloads are HTTP."""
    rng = random.Random(seed)
    packets = []
    for i in range(count):
        ts = i * 0.1
        dport = 80 if rng.random() < 0.6 else rng.choice((22, 443, 8080))
        if dport == 80 and rng.random() < 0.5:
            payload = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n"
        else:
            payload = bytes([1, 2, 3]) * rng.randrange(1, 30)
        packets.append(tcp_packet(
            ts=ts, src=f"10.0.{rng.randrange(8)}.{rng.randrange(1, 250)}",
            dst="192.168.1.1", sport=rng.randrange(1024, 60000),
            dport=dport, payload=payload, interface=interface))
    return packets


class TestSelection:
    def test_lfta_only_query(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select destPort, time From tcp "
                     "Where destPort = 80")
        sub = gs.subscribe("q")
        gs.start()
        packets = make_traffic(200)
        gs.feed(packets)
        gs.flush()
        rows = sub.poll()
        expected = sum(1 for p in packets
                       if PacketView(p).tcp and PacketView(p).tcp.dst_port == 80)
        assert len(rows) == expected
        assert all(port == 80 for port, _time in rows)

    def test_split_regex_query(self):
        """The paper's flagship: LFTA filters port 80, HFTA runs the regex."""
        gs = Gigascope()
        gs.add_query(r"""
            DEFINE query_name http80;
            Select time, srcIP From tcp
            Where destPort = 80 and str_match_regex(data, '^[^\n]*HTTP/1.')
        """)
        sub = gs.subscribe("http80")
        gs.start()
        packets = make_traffic(400)
        gs.feed(packets)
        gs.flush()
        rows = sub.poll()
        expected = 0
        for packet in packets:
            view = PacketView(packet)
            if view.tcp and view.tcp.dst_port == 80 and \
                    view.payload.startswith(b"GET /x HTTP/1.1"):
                expected += 1
        assert len(rows) == expected > 0

    def test_lfta_stream_also_subscribable(self):
        """Both the mangled LFTA stream and the HFTA stream are visible."""
        gs = Gigascope()
        name = gs.add_query(
            "DEFINE query_name q; Select time From tcp "
            "Where destPort = 80 and str_find_substr(data, 'HTTP')")
        plan = gs.plan_of(name)
        lfta_name = plan.lftas[0].name
        assert lfta_name.startswith("_fta_")
        lfta_sub = gs.subscribe(lfta_name)
        gs.start()
        gs.feed(make_traffic(100))
        gs.flush()
        assert len(lfta_sub.poll()) > 0


class TestAggregation:
    def test_two_level_equals_reference(self):
        gs = Gigascope(lfta_table_size=4)  # force evictions
        gs.add_query("""
            DEFINE query_name counts;
            Select tb, srcIP, count(*), sum(len)
            From tcp Where destPort = 80
            Group by time/10 as tb, srcIP
        """)
        sub = gs.subscribe("counts")
        gs.start()
        packets = make_traffic(500)
        gs.feed(packets)
        gs.flush()
        rows = sub.poll()
        # reference aggregation
        reference = {}
        for packet in packets:
            view = PacketView(packet)
            if not view.tcp or view.tcp.dst_port != 80:
                continue
            key = (int(packet.timestamp) // 10, view.ip.src)
            entry = reference.setdefault(key, [0, 0])
            entry[0] += 1
            entry[1] += packet.orig_len
        got = {(tb, src): (cnt, ln) for tb, src, cnt, ln in rows}
        assert got == {key: tuple(value) for key, value in reference.items()}

    def test_no_duplicate_groups_in_output(self):
        gs = Gigascope(lfta_table_size=2)
        gs.add_query("DEFINE query_name q; Select tb, count(*) From tcp "
                     "Group by time/10 as tb")
        sub = gs.subscribe("q")
        gs.start()
        gs.feed(make_traffic(300))
        gs.flush()
        rows = sub.poll()
        buckets = [row[0] for row in rows]
        assert len(buckets) == len(set(buckets))
        assert buckets == sorted(buckets)

    def test_having(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select tb, count(*) From tcp "
                     "Group by time/10 as tb Having count(*) > 1000")
        sub = gs.subscribe("q")
        gs.start()
        gs.feed(make_traffic(100))
        gs.flush()
        assert sub.poll() == []

    def test_getlpmid_grouping(self):
        """The paper's Section 2.2 example, end to end."""
        gs = Gigascope()
        table = "10.0.0.0/15 7018\\n10.2.0.0/15 7019"
        gs.add_query(f"""
            DEFINE query_name peers;
            Select peerid, tb, count(*)
            From tcp
            Group by time/20 as tb, getlpmid(srcIP, '{table}') as peerid
        """)
        sub = gs.subscribe("peers")
        gs.start()
        gs.feed(make_traffic(400))
        gs.flush()
        rows = sub.poll()
        assert rows
        peer_ids = {row[0] for row in rows}
        assert peer_ids <= {7018, 7019}

    @pytest.mark.parametrize("level", ["lfta", "hfta"])
    def test_partial_function_in_aggregate_argument_discards(self, level):
        """Section 2.2: no result => the tuple is discarded.  It used to
        quarantine the aggregating node with ``DiscardTuple: ``."""
        gs = Gigascope()
        aggregate = ("Select tb, count(*), "
                     "sum(getlpmid(destIP, '192.168.0.0/16 5')) From {} "
                     "Group by time/60 as tb")
        if level == "lfta":
            gs.add_query("DEFINE query_name q; " + aggregate.format("tcp"))
            aggregator = "_fta_q_0"
        else:
            # Reading a stream puts the whole aggregation on the HFTA.
            gs.add_query("DEFINE query_name base; Select time, destIP From tcp")
            gs.add_query("DEFINE query_name q; " + aggregate.format("base"))
            aggregator = "q"
        sub = gs.subscribe("q")
        gs.start()
        gs.feed([tcp_packet(ts=1.0, dst="192.168.1.1"),
                 tcp_packet(ts=2.0, dst="10.9.9.9"),
                 tcp_packet(ts=3.0, dst="192.168.1.2")])
        gs.flush()
        assert sub.poll() == [(0, 2, 10)]
        assert gs.overload_report()["quarantined"] == {}
        assert gs.stats()[aggregator]["discarded"] == 1


class TestComposition:
    def test_query_over_query(self):
        gs = Gigascope()
        gs.add_queries("""
            DEFINE query_name base;
            Select time, destPort, len From tcp Where destPort = 80;

            DEFINE query_name tot;
            Select tb, sum(len) From base Group by time/10 as tb
        """)
        sub = gs.subscribe("tot")
        gs.start()
        gs.feed(make_traffic(200))
        gs.flush()
        assert len(sub.poll()) > 0

    def test_merge_of_two_interfaces(self):
        """The paper's simplex-optical-link scenario."""
        gs = Gigascope()
        gs.add_queries("""
            DEFINE query_name tcpdest0;
            Select destIP, destPort, time From eth0.tcp;

            DEFINE query_name tcpdest1;
            Select destIP, destPort, time From eth1.tcp;

            DEFINE query_name tcpdest;
            Merge tcpdest0.time : tcpdest1.time From tcpdest0, tcpdest1
        """)
        sub = gs.subscribe("tcpdest")
        gs.start()
        east = make_traffic(150, seed=1, interface="eth0")
        west = make_traffic(150, seed=2, interface="eth1")
        merged = sorted(east + west, key=lambda p: p.timestamp)
        gs.feed(merged)
        gs.flush()
        rows = sub.poll()
        assert len(rows) == 300
        times = [row[2] for row in rows]
        assert times == sorted(times)

    def test_join_two_interfaces(self):
        gs = Gigascope()
        gs.add_query("""
            DEFINE query_name j;
            Select B.time, B.destPort From eth0.tcp B, eth1.tcp C
            Where B.time = C.time and B.destPort = C.destPort
        """)
        sub = gs.subscribe("j")
        gs.start()
        packets = []
        for t in range(50):
            packets.append(tcp_packet(ts=float(t), dport=80, interface="eth0"))
            packets.append(tcp_packet(ts=float(t), dport=80 if t % 2 else 443,
                                      interface="eth1"))
        gs.feed(packets)
        gs.flush()
        rows = sub.poll()
        assert len(rows) == 25  # odd seconds only
        assert all(port == 80 for _t, port in rows)


class TestParameters:
    def test_on_the_fly_change(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select time From tcp "
                     "Where destPort = $port", params={"port": 80})
        sub = gs.subscribe("q")
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0, dport=80))
        gs.feed_packet(tcp_packet(ts=2.0, dport=443))
        gs.pump()
        assert len(sub.poll()) == 1
        gs.set_param("q", "port", 443)
        gs.feed_packet(tcp_packet(ts=3.0, dport=443))
        gs.pump()
        assert len(sub.poll()) == 1

    def test_multiple_instances_different_params(self):
        """"The RTS can execute multiple instances of the same LFTA,
        each with different parameters."""
        gs = Gigascope()
        text = ("Select time From tcp Where destPort = $port")
        gs.add_query(text, params={"port": 80}, name="inst80")
        gs.add_query(text, params={"port": 443}, name="inst443")
        s80, s443 = gs.subscribe("inst80"), gs.subscribe("inst443")
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0, dport=80))
        gs.feed_packet(tcp_packet(ts=2.0, dport=443))
        gs.feed_packet(tcp_packet(ts=3.0, dport=80))
        gs.pump()
        assert len(s80.poll()) == 2
        assert len(s443.poll()) == 1

    def test_unknown_param_rejected(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select time From tcp")
        with pytest.raises(RegistryError):
            gs.set_param("q", "nope", 1)


class TestLifecycle:
    def test_lfta_after_start_rejected(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q0; Select time From tcp")
        gs.start()
        with pytest.raises(RegistryError):
            gs.add_query("DEFINE query_name q1; Select len From tcp")

    def test_hfta_only_query_after_start_ok(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name base; Select time, len From tcp")
        gs.start()
        gs.feed_packet(tcp_packet(ts=0.0))
        # reading an existing stream needs no RTS change
        gs.add_query("DEFINE query_name late; Select time From base")
        sub = gs.subscribe("late")
        gs.feed_packet(tcp_packet(ts=1.0))
        gs.pump()
        assert len(sub.poll()) == 1

    def test_stop_then_add_lfta(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q0; Select time From tcp")
        gs.start()
        gs.stop()
        gs.add_query("DEFINE query_name q1; Select len From tcp")
        gs.start()
        sub = gs.subscribe("q1")
        gs.feed_packet(tcp_packet(ts=0.0))
        gs.pump()
        assert len(sub.poll()) == 1

    def test_duplicate_query_name_rejected(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select time From tcp")
        with pytest.raises(RegistryError):
            gs.add_query("DEFINE query_name q; Select len From tcp")

    @pytest.mark.parametrize("pump_every", [0, -4, 2.5])
    @pytest.mark.parametrize("facade", ["single", "shards", "standby"])
    def test_pump_every_is_refused_before_anything_is_fed(
            self, monkeypatch, facade, pump_every):
        """Not a crash deep inside the feed loop, and on the sharded
        engine not silent data loss: every facade refuses the value
        before a packet is fed or a worker is forked."""
        from repro.replication import ReplicatedGigascope
        from repro.shard import ShardedGigascope

        def fork(*args):
            raise AssertionError("a worker was started")
        monkeypatch.setattr(ShardedGigascope, "_spawn", fork)
        gs = {"single": lambda: Gigascope(metrics=False),
              "shards": lambda: ShardedGigascope(2, metrics=False),
              "standby": lambda: ReplicatedGigascope(metrics=False)}[facade]()
        gs.add_query("DEFINE query_name q; Select time From tcp")
        sub = gs.subscribe("q")
        gs.start()
        with pytest.raises(ValueError, match=(
                f"pump_every must be a positive integer, got {pump_every}")):
            gs.feed(make_traffic(40), pump_every=pump_every)
        gs.flush()
        assert sub.poll() == []
        if facade == "shards":
            assert gs.generations == 0
        else:
            engine = gs if facade == "single" else gs.primary
            assert engine.rts.packets_fed == 0

    @pytest.mark.parametrize("argument, bad", [
        (argument, bad)
        for argument in ("batch_size", "lfta_table_size",
                         "merge_buffer_capacity", "channel_capacity")
        for bad in (0, -3, 2.5, "8", True)] + [
        ("heartbeat_interval", bad)
        for bad in (0, -1, "1", float("nan"), float("inf"), True)])
    @pytest.mark.parametrize("facade", ["single", "shards", "standby"])
    def test_size_arguments_are_refused_at_construction(
            self, facade, argument, bad):
        """A size that is not a positive integer, or a heartbeat
        interval that is not None or a positive finite number, is named
        when the engine is built -- not a TypeError at ``add_query`` or
        inside ``feed``, an islice error at the first ``feed``, a merge
        that silently drops every row, or a heartbeat on every packet
        (0) or never (NaN)."""
        from repro.replication import ReplicatedGigascope
        from repro.shard import ShardedGigascope
        build = {"single": Gigascope,
                 "shards": lambda **kw: ShardedGigascope(2, **kw),
                 "standby": ReplicatedGigascope}[facade]
        wanted = ("None or a positive finite number"
                  if argument == "heartbeat_interval" else "a positive integer")
        with pytest.raises(ValueError, match=re.escape(
                f"{argument} must be {wanted}, got {bad!r}")):
            build(metrics=False, **{argument: bad})

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "8", True])
    @pytest.mark.parametrize("facade", ["single", "shards", "standby"])
    def test_subscription_capacity_is_refused_before_anything_is_built(
            self, facade, bad):
        """A subscription's channel bound is a size like the engine's
        own: not 2 rows for 2.5, nor 1 for True."""
        from repro.replication import ReplicatedGigascope
        from repro.shard import ShardedGigascope
        gs = {"single": lambda: Gigascope(metrics=False),
              "shards": lambda: ShardedGigascope(2, metrics=False),
              "standby": lambda: ReplicatedGigascope(metrics=False)}[facade]()
        gs.add_query("DEFINE query_name q; Select time From tcp")
        with pytest.raises(ValueError, match=re.escape(
                f"capacity must be a positive integer, got {bad!r}")):
            gs.subscribe("q", capacity=bad)
        if facade == "shards":
            assert not gs._sinks
        else:
            engine = gs if facade == "single" else gs.primary
            assert not engine.rts.node("q").subscribers

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_max_traces_is_refused_before_the_tracer_is_built(self, bad):
        gs = Gigascope(metrics=False)
        with pytest.raises(ValueError, match=re.escape(
                f"max_traces must be a positive integer, got {bad!r}")):
            gs.enable_tracing(0.5, max_traces=bad)
        assert gs.rts.tracer is None

    @pytest.mark.parametrize("argument", ["merge_buffer_capacity",
                                          "channel_capacity"])
    def test_unbounded_is_none(self, argument):
        assert getattr(Gigascope(**{argument: None}), argument) is None


class TestCodegen:
    def test_generated_code_inspectable(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select time From tcp "
                     "Where destPort = 80")
        source = gs.generated_code("q")
        # the front end is generated like every other kernel: the LFTA's
        # own block kernel, with the plan's row action inside its loop
        assert "def kernel(packets):" in source
        assert "emit_0(x_0)" in source
        assert "node_0.emit_many(out_0)" in source
        assert "decode=[time,destPort] struct=47B" in gs.explain("q")

    def test_there_is_no_codegen_mode(self):
        """The GSQL processor is a code generator (Section 3): there is
        no interpreter to switch to."""
        with pytest.raises(TypeError):
            Gigascope(mode="compiled")

    def test_layoutless_protocol_takes_the_row_adapter(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select time From tcp6 "
                     "Where destPort = 80")
        assert "def kernel" not in gs.generated_code("q")
        assert "decode=row-adapter" in gs.explain("q")
        assert gs.rts.node("q").decode_fields is None


class TestUserNodes:
    def test_defrag_feeds_gsql_query(self):
        """The paper's query-tree-over-a-user-operator scenario."""
        from tests.test_operators_defrag import fragmented_udp
        gs = Gigascope()
        defrag = DefragNode("defrag0", gs.schema_registry.get("udp"))
        gs.add_node(defrag, interface="eth0")
        gs.add_query("DEFINE query_name big; Select time, len From defrag0")
        sub = gs.subscribe("big")
        gs.start()
        fragments, payload = fragmented_udp()
        gs.feed(fragments)
        gs.flush()
        rows = sub.poll()
        assert len(rows) == 1

    def test_custom_protocol_via_ddl(self):
        gs = Gigascope()
        gs.define_protocols("""
            PROTOCOL web (
                time UINT (increasing),
                destPort UINT,
                data STRING
            )
        """)
        gs.add_query("DEFINE query_name q; Select time From web "
                     "Where destPort = 80")
        sub = gs.subscribe("q")
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0, dport=80))
        gs.pump()
        assert len(sub.poll()) == 1

    def test_custom_function(self):
        from repro.gsql.functions import FunctionSpec
        from repro.gsql.types import UINT
        gs = Gigascope()
        gs.register_function(FunctionSpec(
            name="double", implementation=lambda x: 2 * x,
            arg_types=(UINT,), return_type=UINT))
        gs.add_query("DEFINE query_name q; Select double(destPort) From tcp")
        sub = gs.subscribe("q")
        gs.start()
        gs.feed_packet(tcp_packet(ts=0.0, dport=80))
        gs.pump()
        assert sub.poll() == [(160,)]


class TestNetflowQueries:
    def test_netflow_aggregation(self):
        from repro.workloads.netflow_source import netflow_export_stream
        gs = Gigascope(default_interface="nf0")
        gs.add_query("""
            DEFINE query_name volume;
            Select tb, sum(octets), count(*)
            From netflow Group by time_end/30 as tb
        """)
        sub = gs.subscribe("volume")
        gs.start()
        gs.feed(netflow_export_stream(duration_s=100.0, flows_per_second=80))
        gs.flush()
        rows = sub.poll()
        assert rows
        assert all(octets > 0 for _tb, octets, _cnt in rows)
