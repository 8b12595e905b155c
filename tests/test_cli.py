"""Tests for the ``gsq`` command-line tool."""

import csv
import io
import sys

import pytest

from repro.cli import main
from repro.net.pcap import write_pcap
from tests.conftest import tcp_packet


@pytest.fixture
def trace(tmp_path):
    packets = [
        tcp_packet(ts=float(i), dport=80 if i % 2 else 443,
                   payload=b"GET / HTTP/1.1\r\n" if i % 2 else b"x")
        for i in range(20)
    ]
    path = tmp_path / "trace.pcap"
    write_pcap(str(path), packets)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicRuns:
    def test_inline_query_csv(self, trace, capsys):
        code, out, _ = run_cli(
            ["--pcap", trace,
             "--query", "DEFINE query_name q; Select time, destPort "
                        "From tcp Where destPort = 80"],
            capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.split("# q\n")[1])))
        assert rows[0] == ["time", "destPort"]
        assert len(rows) == 11  # header + 10 port-80 packets

    def test_query_file_and_output_dir(self, trace, tmp_path, capsys):
        qfile = tmp_path / "queries.gsql"
        qfile.write_text("""
            DEFINE query_name base;
            Select time, destPort, len From tcp;

            DEFINE query_name counts;
            Select tb, count(*) From base Group by time/5 as tb
        """)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            ["--pcap", trace, "--query-file", str(qfile),
             "--subscribe", "counts", "--output", str(out_dir)],
            capsys)
        assert code == 0
        with open(out_dir / "counts.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["tb", "cnt"]
        assert sum(int(r[1]) for r in rows[1:]) == 20

    def test_explain(self, capsys):
        code, out, _ = run_cli(
            ["--query", "DEFINE query_name q; Select time From tcp "
                        "Where destPort = 80", "--explain"],
            capsys)
        assert code == 0
        assert "LFTA" in out

    def test_pretty_ip(self, trace, capsys):
        code, out, _ = run_cli(
            ["--pcap", trace, "--pretty-ip",
             "--query", "DEFINE query_name q; Select destIP From tcp"],
            capsys)
        assert code == 0
        assert "192.168.1.1" in out

    def test_param(self, trace, capsys):
        code, out, _ = run_cli(
            ["--pcap", trace,
             "--query", "DEFINE query_name q; Select time From tcp "
                        "Where destPort = $port",
             "--param", "q.port=443"],
            capsys)
        assert code == 0
        body = out.split("# q\n")[1].strip().splitlines()
        assert len(body) == 11  # header + 10 rows

    def test_synthetic_source(self, capsys):
        code, out, _ = run_cli(
            ["--synthetic", "60x0.2",
             "--query", "DEFINE query_name q; Select tb, count(*) "
                        "From tcp Group by time/1 as tb"],
            capsys)
        assert code == 0
        assert "# q" in out

    def test_stats_flag(self, trace, capsys):
        code, _out, err = run_cli(
            ["--pcap", trace, "--stats",
             "--query", "DEFINE query_name q; Select time From tcp"],
            capsys)
        assert code == 0
        assert "node statistics" in err

    def test_shed_flag_prints_overload_report(self, trace, capsys):
        code, out, err = run_cli(
            ["--pcap", trace, "--shed", "static:0.5",
             "--channel-capacity", "8",
             "--query", "DEFINE query_name q; Select tb, count(*) "
                        "From tcp Group by time/5 as tb"],
            capsys)
        assert code == 0
        assert "# overload report" in err
        assert " shed_rate=0.5 " in err
        # COUNT stays statistically correct: each kept packet carries
        # weight 1/rate, so the estimate lands near the 20 true packets.
        body = out.split("# q\n")[1].strip().splitlines()
        estimate = sum(float(line.split(",")[1]) for line in body[1:])
        assert 0 < estimate <= 40

    def test_shed_adaptive_runs_clean_when_unpressured(self, trace, capsys):
        code, _out, err = run_cli(
            ["--pcap", trace, "--shed", "adaptive",
             "--query", "DEFINE query_name q; Select time From tcp"],
            capsys)
        assert code == 0
        assert "# overload report" in err
        assert " shed_rate=1 " in err  # 20 packets: never pressured


class TestObservabilityFlags:
    QUERY = ("DEFINE query_name q; Select time, destPort From tcp "
             "Where destPort = 80")

    def test_metrics_out_prom(self, trace, tmp_path, capsys):
        out_path = tmp_path / "metrics.prom"
        code, _out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--metrics-out", str(out_path)],
            capsys)
        assert code == 0
        assert "metrics snapshot (prom)" in err
        text = out_path.read_text()
        assert "# TYPE gs_packets_fed_total counter" in text
        assert "gs_packets_fed_total 20" in text
        assert 'gs_node_tuples_out_total{node="q"} 10' in text

    def test_metrics_out_json(self, trace, tmp_path, capsys):
        import json
        out_path = tmp_path / "metrics.json"
        code, _out, _err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--metrics-out", str(out_path), "--metrics-format", "json"],
            capsys)
        assert code == 0
        doc = json.loads(out_path.read_text())
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["gs_packets_fed_total"]["samples"][0]["value"] == 20

    def test_trace_sample_and_out(self, trace, tmp_path, capsys):
        import json
        out_path = tmp_path / "spans.json"
        code, _out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--trace-sample", "1.0", "--trace-out", str(out_path)],
            capsys)
        assert code == 0
        assert "sampled traces" in err
        doc = json.loads(out_path.read_text())
        assert doc["sample_rate"] == 1.0
        assert len(doc["traces"]) == 20
        stages = {event["stage"] for events in doc["traces"].values()
                  for event in events}
        assert {"feed", "lfta", "emit"} <= stages

    def test_trace_out_requires_sample(self, trace, capsys):
        with pytest.raises(SystemExit):
            main(["--pcap", trace, "--query", self.QUERY,
                  "--trace-out", "x.json"])

    def test_bad_trace_sample(self, trace, capsys):
        with pytest.raises(SystemExit):
            main(["--pcap", trace, "--query", self.QUERY,
                  "--trace-sample", "2.0"])


class TestErrors:
    def test_bad_query_reports_error(self, trace, capsys):
        code, _out, err = run_cli(
            ["--pcap", trace, "--query", "Select FROM nothing"],
            capsys)
        assert code == 1
        assert "query error" in err

    def test_semantic_error_reported(self, trace, capsys):
        code, _out, err = run_cli(
            ["--pcap", trace,
             "--query", "DEFINE query_name q; Select ghost From tcp"],
            capsys)
        assert code == 1
        assert "query error" in err

    def test_no_queries(self, capsys):
        with pytest.raises(SystemExit):
            main(["--pcap", "x.pcap"])

    def test_bad_param_format(self, trace, capsys):
        with pytest.raises(SystemExit):
            main(["--pcap", trace, "--query", "Select time From tcp",
                  "--param", "nonsense"])

    def test_bad_shed_policy(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", "Select time From tcp",
                  "--shed", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "gsq: error: bad --shed 'bogus'" in err

    @pytest.mark.parametrize("argv,named", [
        (["--pcap", "TRACE", "--param", "x"], "--param 'x'"),
        (["--synthetic", "abc"], "--synthetic 'abc'"),
        # an infinite trace never ended, an empty one ran on nothing and
        # a NaN rate was read as 60 Mbit/s
        (["--synthetic", "1xinf"], "--synthetic '1xinf'"),
        (["--synthetic", "1x0"], "--synthetic '1x0'"),
        (["--synthetic", "nanx1"], "--synthetic 'nanx1'"),
        (["--pcap", "/no/such/trace.pcap"],
         "--pcap '/no/such/trace.pcap'"),
        (["--pcap", "TRACE", "--query-file", "/no/such/q.gsql"],
         "--query-file '/no/such/q.gsql'"),
    ])
    def test_malformed_input_is_a_usage_error(self, trace, capsys, argv,
                                              named):
        """Exit 1 is for query errors: a bad flag value or an unreadable
        file is usage (2), one line naming flag and value, no traceback."""
        argv = [trace if arg == "TRACE" else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--query", "Select time From tcp"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "gsq: error:" in err and named in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("flag,extra", [
        ("--metrics-out", []),
        ("--trace-out", ["--trace-sample", "1.0"]),
        ("--telemetry-out", ["--telemetry"]),
        ("--alert-out", ["--alert", "big:on=q,when=count(*) > 0"]),
        ("--replicate-log", []),
        ("--output", []),
    ])
    def test_unwritable_output_is_a_usage_error(self, trace, tmp_path,
                                                capsys, monkeypatch, flag,
                                                extra):
        """An output that cannot be written is refused before the engine
        is built -- not a traceback after the run, with its results."""
        from repro.core.engine import Gigascope
        monkeypatch.setattr(
            Gigascope, "feed",
            lambda *args, **kwargs: pytest.fail("a packet was fed"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = str(blocker / "under" / "out")  # a file is in the way
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query",
                  "DEFINE query_name q; Select time From tcp",
                  flag, path] + extra)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert f"gsq: error: {flag} {path!r}: Not a directory" in err
        assert "Traceback" not in err and out == ""

    def test_output_dir_that_is_a_file(self, trace, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", "Select time From tcp",
                  "--output", str(blocker)])
        assert excinfo.value.code == 2
        assert f"gsq: error: --output {str(blocker)!r}: File exists" in \
            capsys.readouterr().err


class TestBatchKnobs:
    QUERY = "DEFINE query_name q; Select time From tcp Where destPort = 80"

    def test_batch_size_zero_exits_2(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--batch-size", "0"])
        assert excinfo.value.code == 2

    def test_batch_size_negative_exits_2(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--batch-size", "-4"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("size", [0, -4])
    def test_library_refuses_a_block_of_no_packets(self, size):
        """There is no scalar mode for 0 to mean: a block holds >= 1."""
        from repro import Gigascope
        from repro.shard import ShardedGigascope
        with pytest.raises(ValueError, match=f"batch_size.*{size}"):
            Gigascope(batch_size=size)
        with pytest.raises(ValueError, match="batch_size"):
            ShardedGigascope(2, batch_size=size)

    @pytest.mark.parametrize("raw", ["banana", "-3", "0", "2.5", ""])
    def test_malformed_batch_size_flag_exits_2(self, trace, capsys, raw):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--batch-size", raw])
        assert excinfo.value.code == 2
        assert "batch" in capsys.readouterr().err


class TestMultiplePcaps:
    def test_two_traces_two_interfaces(self, tmp_path, capsys):
        east = [tcp_packet(ts=float(i), interface="x") for i in range(5)]
        west = [tcp_packet(ts=i + 0.5, interface="x") for i in range(5)]
        east_path = tmp_path / "east.pcap"
        west_path = tmp_path / "west.pcap"
        write_pcap(str(east_path), east)
        write_pcap(str(west_path), west)
        code, out, _ = run_cli(
            [
                "--pcap", f"{east_path}:eth0",
                "--pcap", f"{west_path}:eth1",
                "--query", """
                    DEFINE query_name e0; Select time, destIP From eth0.tcp;
                    DEFINE query_name e1; Select time, destIP From eth1.tcp;
                    DEFINE query_name m;
                    Merge e0.time : e1.time From e0, e1
                """,
                "--subscribe", "m",
            ],
            capsys)
        assert code == 0
        body = out.split("# m\n")[1].strip().splitlines()
        assert len(body) == 11  # header + 10 merged rows
        times = [int(line.split(",")[0]) for line in body[1:]]
        assert times == sorted(times)


    def test_trace_sample_follows_packets_through_a_merge(self, tmp_path,
                                                         capsys):
        """The merge emits in blocks; with a tracer attached every
        emitted row must still be tagged, so a sampled packet's spans
        reach the merge, its emit and the aggregation behind it."""
        import json
        east = [tcp_packet(ts=i * 0.4, interface="x") for i in range(8)]
        west = [tcp_packet(ts=i * 0.4 + 0.1, interface="x", sport=4321)
                for i in range(8)]
        for name, packets in (("east", east), ("west", west)):
            write_pcap(str(tmp_path / f"{name}.pcap"), packets)
        spans = tmp_path / "spans.json"
        code, out, _ = run_cli(
            [
                "--pcap", f"{tmp_path / 'east.pcap'}:eth0",
                "--pcap", f"{tmp_path / 'west.pcap'}:eth1",
                "--query", """
                    DEFINE query_name e0; Select time, destIP From eth0.tcp;
                    DEFINE query_name e1; Select time, destIP From eth1.tcp;
                    DEFINE query_name m;
                    Merge e0.time : e1.time From e0, e1;
                    DEFINE query_name c;
                    Select tb, count(*) From m Group by time/2 as tb
                """,
                "--subscribe", "c",
                "--trace-sample", "1.0", "--trace-out", str(spans),
            ],
            capsys)
        assert code == 0
        traces = json.loads(spans.read_text())["traces"]
        assert len(traces) == 16
        chains = [[(event["stage"], event["node"]) for event in events]
                  for events in traces.values()]
        assert all(("hfta", "m") in hops for hops in chains)
        # A row that leaves the merge while a traced item is in flight
        # joins that item's trace (held rows leave under a later one).
        through = [hops for hops in chains if ("emit", "m") in hops]
        assert len(through) >= 8
        assert all(("hfta", "c") in hops for hops in through)


class TestAlertFlags:
    QUERY = ("DEFINE query_name q; Select tb, count(*) as hits "
             "From tcp Group by time/5 as tb")

    def test_alert_raises_and_reports(self, trace, capsys):
        code, out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--alert", "burst:on=q,when=sum(hits) > 1,epoch=5",
             "--subscribe", "alerts"],
            capsys)
        assert code == 0
        assert "# alert report" in err
        assert "triggers burst:" in err
        assert "condition=sum(hits) > 1" in err
        assert "RAISE" in out

    def test_alert_out_writes_jsonl(self, trace, tmp_path, capsys):
        import json
        path = tmp_path / "alerts.jsonl"
        code, _out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--alert", "burst:on=q,when=sum(hits) > 1,epoch=5",
             "--alert-out", str(path)],
            capsys)
        assert code == 0
        assert "alert stream ->" in err
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records
        assert records[0]["trigger"] == "burst"
        assert records[0]["kind"] == "RAISE"
        assert records[0]["severity"] == "warning"

    def test_bad_alert_condition_exits_2_naming_field(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--alert", "burst:on=q,when=delta(count(*), inf) > 1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "bad --alert" in err
        assert "when" in err and "unbounded" in err

    def test_unknown_alert_query_exits_2_naming_field(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--alert", "burst:on=ghost,when=count(*) > 1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "bad --alert" in err
        assert "on: unknown query" in err

    def test_bad_alert_severity_exits_2_naming_field(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--alert", "burst:on=q,when=count(*) > 1,severity=panic"])
        assert excinfo.value.code == 2
        assert "severity" in capsys.readouterr().err

    def test_alert_out_requires_alert(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--alert-out", "alerts.jsonl"])
        assert excinfo.value.code == 2
        assert "--alert-out requires --alert" in capsys.readouterr().err


class TestRecoveryFlags:
    QUERY = ("DEFINE query_name q; Select tb, count(*) "
             "From tcp Group by time/5 as tb")

    def test_recover_runs_and_prints_report(self, trace, capsys):
        code, out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY, "--recover",
             "--fault", "operator_error:node=q,at_tuple=3,times=1"],
            capsys)
        assert code == 0
        assert "# recovery report" in err
        assert "restarts: q=1" in err
        # Output identical to an undisturbed run.
        clean_code, clean_out, _ = run_cli(
            ["--pcap", trace, "--query", self.QUERY], capsys)
        assert clean_code == 0
        assert out == clean_out

    def test_checkpoint_interval_implies_recover(self, trace, capsys):
        code, _out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--checkpoint-interval", "2.5"],
            capsys)
        assert code == 0
        assert "# recovery report" in err

    def test_bad_checkpoint_interval_exits_2_naming_field(self, trace,
                                                          capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--checkpoint-interval", "0"])
        assert excinfo.value.code == 2
        assert "--checkpoint-interval" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (["--recover", "--checkpoint-interval", "nan"],
         "argument --checkpoint-interval: checkpoint_interval must be a "
         "positive finite number, got nan"),
        (["--checkpoint-interval", "inf"],
         "argument --checkpoint-interval: checkpoint_interval must be a "
         "positive finite number, got inf"),
        (["--telemetry-interval", "nan"],
         "argument --telemetry-interval: interval must be a finite number "
         ">= 0, got nan"),
        (["--fault", "clock_skew:iface=eth0,skew=nan"],
         "bad --fault: skew_s must be a finite number, got nan"),
        (["--fault", "ring_burst:at=nan,duration=1"],
         "bad --fault: at must be a finite number, got nan"),
    ])
    def test_non_finite_seconds_exit_2_naming_them(self, trace, capsys,
                                                   args, named):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY, *args])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines()
                if line.startswith("gsq: error:")] == [f"gsq: error: {named}"]
        assert "Traceback" not in err

    def test_bad_max_restarts_exits_2_naming_field(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--max-restarts", "-1"])
        assert excinfo.value.code == 2
        assert "--max-restarts" in capsys.readouterr().err

    def test_bad_fault_exits_2_naming_field(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--fault", "operator_error:junk"])
        assert excinfo.value.code == 2
        assert "bad --fault" in capsys.readouterr().err

    def test_unknown_fault_kind_exits_2(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--fault", "gremlins:at=1"])
        assert excinfo.value.code == 2
        assert "unknown fault kind" in capsys.readouterr().err


class TestTelemetryFlags:
    QUERY = ("DEFINE query_name q; Select tb, count(*) as hits "
             "From tcp Group by time/5 as tb")

    def test_telemetry_runs_and_prints_report(self, trace, capsys):
        code, _out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY, "--telemetry"],
            capsys)
        assert code == 0
        assert "# telemetry report" in err
        assert "_gs_channel" in err
        assert "profiler:" in err

    def test_meta_query_over_telemetry_stream(self, trace, capsys):
        code, out, _err = run_cli(
            ["--pcap", trace, "--telemetry",
             "--query", self.QUERY,
             "--query", "DEFINE query_name chan; "
                        "Select time, channel, depth From _gs_channel",
             "--subscribe", "chan"],
            capsys)
        assert code == 0
        body = out.split("# chan\n")[1]
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0] == ["time", "channel", "depth"]
        assert len(rows) > 1

    def test_telemetry_out_writes_jsonl(self, trace, tmp_path, capsys):
        import json
        path = tmp_path / "telemetry.jsonl"
        code, _out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--telemetry", "--telemetry-out", str(path)],
            capsys)
        assert code == 0
        assert "telemetry streams ->" in err
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records
        streams = {record["stream"] for record in records}
        assert {"_gs_channel", "_gs_operator", "_gs_shed",
                "_gs_recovery", "_gs_alert"} <= streams
        operator = next(r for r in records
                        if r["stream"] == "_gs_operator")
        assert {"time", "operator", "tuples_in", "cost_us"} <= set(operator)

    def test_telemetry_interval_implies_telemetry(self, trace, capsys):
        code, _out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--telemetry-interval", "0.5"],
            capsys)
        assert code == 0
        assert "# telemetry report" in err

    def test_telemetry_out_requires_telemetry(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--telemetry-out", "t.jsonl"])
        assert excinfo.value.code == 2
        assert ("--telemetry-out requires --telemetry"
                in capsys.readouterr().err)

    def test_bad_telemetry_interval_exits_2(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--telemetry-interval", "-1"])
        assert excinfo.value.code == 2
        assert "--telemetry-interval" in capsys.readouterr().err

    def test_telemetry_and_metrics_same_path_exits_2_naming_both(
            self, trace, tmp_path, capsys):
        path = str(tmp_path / "out.txt")
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--telemetry", "--telemetry-out", path,
                  "--metrics-out", path])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--metrics-out" in err and "--telemetry-out" in err

    def test_trace_and_metrics_same_path_exits_2_naming_both(
            self, trace, tmp_path, capsys):
        path = str(tmp_path / "out.txt")
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--trace-sample", "0.5", "--trace-out", path,
                  "--metrics-out", path])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--trace-out" in err and "--metrics-out" in err

    def test_distinct_output_paths_accepted(self, trace, tmp_path, capsys):
        code, _out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--telemetry", "--telemetry-out", str(tmp_path / "t.jsonl"),
             "--metrics-out", str(tmp_path / "m.prom")],
            capsys)
        assert code == 0
        assert (tmp_path / "t.jsonl").exists()
        assert (tmp_path / "m.prom").exists()

    def test_meta_alert_over_telemetry_stream(self, trace, capsys):
        # A PR 6 trigger reads a _gs_* stream unmodified: always-true
        # condition over _gs_shed proves the wiring end to end.
        code, out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY, "--telemetry",
             "--alert", "meta:on=_gs_shed,when=count(*) >= 1,epoch=5",
             "--subscribe", "alerts"],
            capsys)
        assert code == 0
        assert "# alert report" in err
        assert "on=_gs_shed" in err
        assert "RAISE" in out


class TestReplicationFlags:
    QUERY = ("DEFINE query_name q; Select tb, count(*) "
             "From tcp Group by time/5 as tb")

    def test_standby_run_is_invisible_and_reports(self, trace, capsys):
        code, out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--standby", "--replicate", "2"],
            capsys)
        assert code == 0
        assert "# replication report" in err
        assert "promoted=False" in err
        clean_code, clean_out, _ = run_cli(
            ["--pcap", trace, "--query", self.QUERY], capsys)
        assert clean_code == 0
        assert out == clean_out

    def test_promotion_run_end_to_end(self, trace, tmp_path, capsys):
        log = tmp_path / "repl.log"
        code, out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY,
             "--replicate", "2", "--promote-after", "0.5",
             "--replicate-log", str(log),
             "--fault", "heartbeat_silence:at=5,duration=60"],
            capsys)
        assert code == 0
        assert "promoted=True" in err
        assert "heartbeat silence" in err
        assert "promote_wall_s=" in err
        assert f"replication log -> {log}" in err
        assert log.read_bytes()[4:8] == b"GSCK"
        clean_code, clean_out, _ = run_cli(
            ["--pcap", trace, "--query", self.QUERY], capsys)
        assert clean_code == 0
        assert out == clean_out

    def test_recover_and_standby_run_together(self, trace, capsys):
        """One durability plane: a node failure rolls back in place, the
        heartbeat silence promotes the standby, and the rows are the
        clean run's."""
        code, out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY, "--recover",
             "--standby", "--promote-after", "0.5",
             "--fault", "operator_error:node=q,at_tuple=2,times=1",
             "--fault", "heartbeat_silence:at=5,duration=60"],
            capsys)
        assert code == 0
        assert "# recovery report" in err and "restarts_total=1" in err
        assert "# replication report" in err and "promoted=True" in err
        clean_code, clean_out, _ = run_cli(
            ["--pcap", trace, "--query", self.QUERY], capsys)
        assert clean_code == 0
        assert out == clean_out

    def test_replicate_implies_standby(self, trace, capsys):
        code, _out, err = run_cli(
            ["--pcap", trace, "--query", self.QUERY, "--replicate", "0"],
            capsys)
        assert code == 0
        assert "# replication report" in err

    def test_standby_with_shards_exits_2(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--standby", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "--standby" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["banana", "-1", "nan"])
    def test_malformed_replicate_exits_2_naming_flag(self, trace, bad,
                                                     capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--replicate", bad])
        assert excinfo.value.code == 2
        assert "--replicate" in capsys.readouterr().err

    def test_negative_promote_after_exits_2(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--promote-after", "-0.5"])
        assert excinfo.value.code == 2
        assert "--promote-after" in capsys.readouterr().err

    def test_replicate_log_path_collision_exits_2(self, trace, tmp_path,
                                                  capsys):
        path = str(tmp_path / "same.out")
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY,
                  "--replicate-log", path, "--metrics-out", path])
        assert excinfo.value.code == 2
        assert "same.out" in capsys.readouterr().err

    def test_standby_refuses_control_plane_flags(self, trace, capsys):
        for extra in (["--shed", "static:0.5"], ["--telemetry"],
                      ["--alert", "a:on=q,when=count(*)>1"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["--pcap", trace, "--query", self.QUERY,
                      "--standby"] + extra)
            assert excinfo.value.code == 2
            assert "--standby" in capsys.readouterr().err


# plane -> (the flags that ask for it, the API call that does)
REFUSABLE = {
    "shed": (["--shed", "adaptive"], lambda gs: gs.enable_shedding()),
    "alerts": (["--alert", "a:on=q,when=count(*)>1"],
               lambda gs: gs.enable_alerts()),
    "recovery": (["--recover"], lambda gs: gs.enable_recovery()),
    "telemetry": (["--telemetry"], lambda gs: gs.enable_telemetry()),
    "tracing": (["--trace-sample", "0.5"],
                lambda gs: gs.enable_tracing(0.5)),
    "faults": (["--fault", "heartbeat_silence:at=1,duration=1"],
               lambda gs: gs.inject_faults([])),
}


def _sharded():
    """``(engine, its refusals, who the API says refuses)``."""
    from repro.shard import ShardedGigascope
    engine = ShardedGigascope(2, metrics=False)
    return engine, engine.refusals, "ShardedGigascope"


def _replicated():
    from repro import Gigascope
    engine = Gigascope(metrics=False)
    return engine, engine.enable_replication().refusals, "replication"


def _facades():
    return {"--shards": (["--shards", "2"], _sharded),
            "--standby": (["--standby"], _replicated)}


class TestRefusals:
    """The sharded facade and the replication plane each state once
    which planes they refuse and why; the API raises that reason typed
    and ``gsq`` prints the same words."""

    QUERY = "DEFINE query_name q; Select time From tcp Where destPort = 80"

    @pytest.mark.parametrize("plane", sorted(REFUSABLE))
    @pytest.mark.parametrize("topology", ["--shards", "--standby"])
    def test_api_and_cli_give_the_same_reason(self, trace, capsys,
                                              topology, plane):
        from repro.core.stream_manager import RegistryError
        topology_flags, build = _facades()[topology]
        plane_flags, enable = REFUSABLE[plane]
        engine, refusals, refuser = build()
        reason = refusals.get(plane)
        if reason is None:
            enable(engine)  # faults on a replicated engine: allowed
            return
        assert "not implemented" not in reason and len(reason) > 40
        with pytest.raises(RegistryError) as refused:
            enable(engine)
        assert str(refused.value) == f"{refuser} refuses {plane}: {reason}"
        with pytest.raises(SystemExit) as excinfo:
            main(["--pcap", trace, "--query", self.QUERY]
                 + topology_flags + plane_flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert (f"{plane_flags[0]} cannot be combined with {topology}: "
                f"{reason}") in err

    def test_the_refusal_count(self):
        """ROADMAP item 5 counts these; (c) is what empties the list."""
        from repro import Gigascope
        counts = {flag: len(build()[1])
                  for flag, (_, build) in _facades().items()}
        assert counts == {"--shards": 7, "--standby": 4}
        assert Gigascope.refusals == {}

    @pytest.mark.parametrize("plane", sorted(set(REFUSABLE)
                                             - {"faults", "recovery"}))
    def test_replication_is_refused_next_to_a_plane_it_refuses(self, plane):
        """``attach_plane`` checks a refusal both ways: a plane enabled
        first refuses replication with the reason replication gives."""
        from repro import Gigascope
        from repro.core.stream_manager import RegistryError
        from repro.recovery.supervisor import STANDBY_REFUSALS
        engine = Gigascope(metrics=False)
        REFUSABLE[plane][1](engine)
        with pytest.raises(RegistryError) as refused:
            engine.enable_replication()
        assert str(refused.value) == (f"replication refuses {plane}: "
                                      f"{STANDBY_REFUSALS[plane]}")
        assert "replication" not in engine.planes

    def test_sharded_refuses_replication_by_its_declared_reason(self):
        from repro.core.stream_manager import RegistryError
        engine, refusals, _ = _sharded()
        with pytest.raises(RegistryError) as refused:
            engine.enable_replication()
        assert str(refused.value) == ("ShardedGigascope refuses replication: "
                                      f"{refusals['replication']}")
