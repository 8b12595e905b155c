"""Tests for the operational status report."""

from repro import Gigascope
from repro.report import engine_report
from tests.conftest import tcp_packet


def build_engine():
    gs = Gigascope()
    gs.add_queries("""
        DEFINE query_name base;
        Select time, destPort, len From tcp Where destPort = 80;

        DEFINE query_name counts;
        Select tb, count(*) From base Group by time/10 as tb
    """)
    return gs


class TestEngineReport:
    def test_report_before_start(self):
        gs = build_engine()
        text = engine_report(gs)
        assert "started: False" in text
        assert "base" in text and "counts" in text

    def test_report_reflects_traffic(self):
        gs = build_engine()
        sub = gs.subscribe("counts")
        gs.start()
        for i in range(25):
            gs.feed_packet(tcp_packet(ts=float(i),
                                      dport=80 if i % 5 else 22))
        gs.flush()
        text = engine_report(gs)
        assert "packets fed: 25" in text
        assert "packets_seen=25" in text
        # the port-22 packets were discarded by the LFTA predicate
        assert "discard" in text
        lines = [l for l in text.splitlines() if l.startswith("base")]
        assert lines, text

    def test_queued_channels_shown(self):
        gs = build_engine()
        sub = gs.subscribe("base")  # never polled
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0, dport=80))
        text = engine_report(gs)
        assert "channels with queued items:" in text
        assert "base->app" in text

    def test_overload_section_without_controller(self):
        gs = build_engine()
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0, dport=80))
        text = engine_report(gs)
        assert "overload" in text
        assert "policy=disabled shed_rate=1 " in text

    def test_overload_section_with_shedding(self):
        gs = Gigascope(channel_capacity=4, heartbeat_interval=None)
        gs.add_queries("""
            DEFINE query_name pkts;
            Select time, destPort, len From tcp;

            DEFINE query_name counts;
            Select tb, count(*) From pkts Group by time/10 as tb
        """)
        gs.enable_shedding("static:0.5")
        gs.start()
        for i in range(50):
            gs.feed_packet(tcp_packet(ts=float(i)))
        gs.pump()
        text = engine_report(gs)
        assert "policy=static shed_rate=0.5 " in text
        assert " policy_state=static:0.5 " in text
        assert " pressured_cycles=" in text
        assert " packets_shed=" in text
        # the overflowing channel shows up with its drop count
        channel = [line for line in text.splitlines()
                   if line.startswith("  channels pkts->counts:")]
        assert channel and " dropped=46" in channel[0]

    def test_report_and_stats_share_extras(self):
        """The drift bug: stats() and the report now read one tuple."""
        gs = build_engine()
        gs.start()
        for i in range(25):
            gs.feed_packet(tcp_packet(ts=float(i), dport=80))
        gs.pump()
        stats = gs.stats()
        text = engine_report(gs)
        assert stats["counts"]["open_groups"] >= 1
        assert f"open_groups={stats['counts']['open_groups']}" in text

    def test_extras_for_operators(self):
        gs = Gigascope(heartbeat_interval=None)
        gs.add_queries("""
            DEFINE query_name a; Select time, destPort From eth0.tcp;
            DEFINE query_name b; Select time, destPort From eth1.tcp;
            DEFINE query_name m; Merge a.time : b.time From a, b
        """)
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0, interface="eth0"))
        gs.pump()
        text = engine_report(gs)
        assert "buffered=1" in text  # merge holding back for eth1


class TestPlaneSections:
    """Every enabled plane gets a section, the ones the report used to
    lack (recovery, replication) included."""

    def feed(self, gs):
        gs.start()
        gs.feed([tcp_packet(ts=0.2 * i, dport=80) for i in range(40)],
                pump_every=8)
        gs.flush()

    def test_recovery_section(self):
        gs = build_engine()
        assert "\nrecovery\n" not in engine_report(gs)
        gs.enable_recovery(checkpoint_interval=1.0)
        self.feed(gs)
        text = engine_report(gs)
        taken = gs.recovery_report()["checkpoints_taken"]
        assert taken >= 2
        assert f"\nrecovery\n  checkpoint_interval=1 max_restarts=3 " \
            f"checkpoints_taken={taken} " in text
        assert "  restarts: -" in text

    def test_replication_section_before_and_after_promotion(self):
        from repro.replication import ReplicatedGigascope
        for crash, promoted in ((None, False), ("packet:20", True)):
            gs = ReplicatedGigascope(cadence=1.0, crash=crash)
            gs.add_queries("""
                DEFINE query_name base;
                Select time, destPort, len From tcp Where destPort = 80
            """)
            self.feed(gs)
            text = engine_report(gs)
            section = text.split("\nreplication\n")[1]
            assert section.startswith("  cadence=1 frames_full=1 ")
            assert f" promoted={promoted} promotions={int(promoted)} " \
                in section
            assert "packets fed:" in text and "policy=disabled" in text

    def test_sharded_report_uses_the_same_sections(self):
        from repro.shard import ShardedGigascope
        gs = ShardedGigascope(2)
        gs.add_queries("""
            DEFINE query_name counts;
            Select tb, count(*) From tcp Group by time/10 as tb
        """)
        gs.subscribe("counts")
        self.feed(gs)
        text = engine_report(gs)
        assert text.startswith("gigascope status (sharded)")
        assert "\nshard\n  count=2 generations=1\n" in text
        assert "  merge_rows: counts=" in text
        assert "\noverload\n  policy=sharded " in text
        assert "merge/counts" in text and "shard0/" in text

    def test_plane_reports_is_json_shaped(self):
        import json
        from repro.report import plane_reports
        gs = build_engine()
        gs.enable_recovery()
        gs.enable_shedding("none")
        self.feed(gs)
        dump = json.loads(json.dumps(plane_reports(gs)))
        assert dump["report"] == engine_report(gs).splitlines()
        assert list(dump["planes"]) == ["recovery", "shed"]
        assert dump["planes"]["recovery"]["checkpoints_taken"] >= 1

    def test_cli_epilogue_is_the_same_rendering(self, capsys):
        """``gsq`` prints each plane's section body line for line."""
        from repro.cli import main
        main(["--synthetic", "20x1", "--recover", "--shed", "none",
              "--query", "DEFINE query_name q; Select time From tcp"])
        err = capsys.readouterr().err.splitlines()
        for heading in ("# overload report", "# recovery report"):
            assert heading in err
        start = err.index("# recovery report")
        body = [line[3:] for line in err[start + 1:]
                if line.startswith("#  ")]
        assert body[0].startswith("checkpoint_interval=1 max_restarts=3 ")
        assert body[1:] == ["restarts: -", "suspended: -"]
