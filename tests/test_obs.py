"""Tests for the unified observability layer (repro.obs)."""

import json
import re

import pytest

from repro import Gigascope
from repro.nic.nic import Nic
from repro.obs import (
    NODE_EXTRA_ATTRS,
    MetricError,
    MetricsRegistry,
    Tracer,
    trace_key,
)
from tests.conftest import tcp_packet

_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
PROM_SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{%s(,%s)*\})? \S+$' % (_LABEL, _LABEL))


def parse_prometheus(text):
    """Parse exposition text into {name{labels}: float}; asserts every
    line is well-formed (the 'does it parse' half of the test)."""
    values = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
            continue
        assert PROM_SAMPLE_RE.match(line), f"bad sample line: {line!r}"
        key, value = line.rsplit(" ", 1)
        values[key] = float("inf") if value == "+Inf" else float(value)
    return values


class TestRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "a counter")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(MetricError):
            counter.unlabeled.inc(-1)
        gauge = registry.gauge("g", "a gauge")
        gauge.set(2.5)
        gauge.unlabeled.dec(0.5)
        assert gauge.value == 2.0

    def test_labels(self):
        registry = MetricsRegistry()
        family = registry.counter("rows_total", "rows", labels=("node",))
        family.labels(node="a").inc(3)
        family.labels(node="b").inc(1)
        assert family.labels(node="a").value == 3
        with pytest.raises(MetricError):
            family.labels(wrong="x")
        with pytest.raises(MetricError):
            family.inc()  # labeled family has no unlabeled child

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_us", "latency",
                                  buckets=(10.0, 100.0, 1000.0))
        for value in (5, 50, 500, 5000):
            hist.observe(value)
        child = hist.unlabeled
        assert child.count == 4
        assert child.sum == 5555
        # cumulative: <=10 -> 1, <=100 -> 2, <=1000 -> 3, +Inf -> 4
        assert child.bucket_counts() == [
            (10.0, 1), (100.0, 2), (1000.0, 3), (float("inf"), 4)]

    def test_bucket_boundary_is_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "", buckets=(10.0,))
        hist.observe(10.0)
        assert hist.unlabeled.bucket_counts()[0] == (10.0, 1)

    def test_reregistration_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x")
        assert registry.counter("x_total", "x") is first
        with pytest.raises(MetricError):
            registry.gauge("x_total", "x")
        with pytest.raises(MetricError):
            registry.counter("bad name", "x")

    def test_prometheus_text_parses(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "with \"quotes\"",
                         labels=("node",)).labels(node='q"0"').inc()
        registry.gauge("b", "gauge").set(1.5)
        registry.histogram("h_us", "hist", buckets=(1.0, 10.0)).observe(3)
        values = parse_prometheus(registry.to_prometheus())
        assert values['a_total{node="q\\"0\\""}'] == 1
        assert values["b"] == 1.5
        assert values['h_us_bucket{le="10"}'] == 1
        assert values['h_us_bucket{le="+Inf"}'] == 1
        assert values["h_us_count"] == 1

    def test_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a", labels=("k",)).labels(k="v").inc(7)
        registry.histogram("h_us", "h", buckets=(5.0,)).observe(2)
        doc = json.loads(registry.to_json())
        assert doc == registry.to_dict()
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["a_total"]["type"] == "counter"
        assert by_name["a_total"]["samples"][0] == {
            "labels": {"k": "v"}, "value": 7}
        hist = by_name["h_us"]["samples"][0]
        assert hist["count"] == 1 and hist["buckets"][-1][0] == "+Inf"

    def test_collectors_run_lazily(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("sampled", "")
        calls = []
        registry.add_collector(lambda: (calls.append(1), gauge.set(42)))
        assert not calls
        assert registry.snapshot()["sampled"][()] == 42
        assert len(calls) == 1


def build_engine(**kw):
    gs = Gigascope(**kw)
    gs.add_queries("""
        DEFINE query_name base;
        Select time, destPort, len From tcp Where destPort = 80;

        DEFINE query_name counts;
        Select tb, count(*) From base Group by time/10 as tb
    """)
    return gs


def feed(gs, n=25):
    gs.start()
    for i in range(n):
        gs.feed_packet(tcp_packet(ts=float(i), dport=80 if i % 5 else 22))
    gs.flush()


class TestEngineMetrics:
    def test_counters_match_stats(self):
        gs = build_engine()
        sub = gs.subscribe("counts")
        feed(gs)
        stats = gs.stats()
        values = parse_prometheus(gs.metrics.to_prometheus())
        assert values["gs_packets_fed_total"] == 25
        for node in ("base", "counts"):
            for stat in ("tuples_in", "tuples_out", "discarded"):
                assert (values[f'gs_node_{stat}_total{{node="{node}"}}']
                        == stats[node][stat]), (node, stat)
        assert (values['gs_node_extra{node="base",stat="packets_seen"}']
                == stats["base"]["packets_seen"] == 25)
        # channel metrics mirror the per-channel stats() nesting
        channel = 'counts->app'
        assert (values[f'gs_channel_pushed_total{{channel="{channel}"}}']
                == stats["counts"]["channels"][channel]["pushed"])

    def test_pump_cycle_histogram_records_virtual_time(self):
        gs = build_engine()
        feed(gs)
        hist = gs.metrics.get("gs_pump_cycle_virtual_us").unlabeled
        assert hist.count >= 1
        # 20 port-80 packets crossed the LFTA->HFTA channel at
        # hfta_tuple_us each (plus punctuation dispatches)
        assert hist.sum >= 20 * gs.rts.cost_model.hfta_tuple_us

    def test_metrics_disabled(self):
        gs = build_engine(metrics=False)
        sub = gs.subscribe("counts")
        feed(gs)
        assert gs.metrics is None
        assert sub.poll()  # pipeline unaffected

    def test_stats_includes_report_extras(self):
        """The extras tuple is defined once: stats() now carries the
        operator counters the report shows (the old drift bug)."""
        assert {"reorder_peak", "open_groups", "sessions_emitted"} <= set(
            NODE_EXTRA_ATTRS)
        gs = Gigascope(heartbeat_interval=None)
        gs.add_queries("""
            DEFINE query_name pkts;
            Select time, destPort, len From tcp;

            DEFINE query_name counts;
            Select tb, count(*) From pkts Group by time/10 as tb
        """)
        gs.start()
        for i in range(5):
            gs.feed_packet(tcp_packet(ts=float(i)))
        gs.pump()
        assert gs.stats()["counts"]["open_groups"] == 1

    def test_removed_node_leaves_exposition(self):
        gs = build_engine()
        feed(gs)
        gs.remove_query("counts")
        gs.stop()  # the LFTA batch restriction: stop before removing one
        gs.remove_query("base")
        values = parse_prometheus(gs.metrics.to_prometheus())
        assert not any("node=" in key for key in values)

    def test_nic_metrics(self):
        gs = Gigascope()
        nic = Nic(ring_slots=4, service_us=100.0)
        gs.observe_nic(nic, name="card0")
        for i in range(10):
            nic.receive(tcp_packet(ts=i * 1e-6), now_us=float(i))
        values = parse_prometheus(gs.metrics.to_prometheus())
        assert values['gs_nic_received_total{nic="card0"}'] == 10
        assert values['gs_nic_ring_dropped_total{nic="card0"}'] == \
            nic.stats.ring_dropped > 0
        assert values['gs_nic_ring_occupancy{nic="card0"}'] == \
            nic.ring_occupancy


class TestControlPlaneGauges:
    def test_pressure_and_shed_gauges(self):
        gs = Gigascope(channel_capacity=4, heartbeat_interval=None)
        gs.add_queries("""
            DEFINE query_name pkts;
            Select time, destPort, len From tcp;

            DEFINE query_name counts;
            Select tb, count(*) From pkts Group by time/10 as tb
        """)
        gs.enable_shedding("static:0.5")
        gs.start()
        for i in range(25):
            gs.feed_packet(tcp_packet(ts=float(i)))
        gs.pump()
        for i in range(25, 50):
            gs.feed_packet(tcp_packet(ts=float(i)))
        gs.pump()  # second cycle: elapsed > 0, so node rates exist
        values = parse_prometheus(gs.metrics.to_prometheus())
        assert values["gs_shed_rate"] == 0.5
        assert values["gs_control_cycles_total"] >= 1
        assert "gs_pressure_utilization" in values
        assert 'gs_node_rate{node="pkts"}' in values


class TestTracer:
    def test_sampling_is_deterministic_and_rate_bounded(self):
        packets = [tcp_packet(ts=float(i), sport=1000 + i)
                   for i in range(400)]
        tracer = Tracer(0.05)
        sampled = [p for p in packets if tracer.wants(p) is not None]
        # deterministic: same packets sample the same way again
        again = Tracer(0.05)
        assert [again.wants(p) for p in packets] == \
            [tracer.wants(p) for p in packets]
        assert 0 < len(sampled) < 100  # ~20 expected; loose binomial bound
        for p in sampled:
            assert tracer.wants(p) == trace_key(p)

    def test_truncation_does_not_change_the_key(self):
        packet = tcp_packet(ts=1.5, payload=b"x" * 400)
        assert trace_key(packet) == trace_key(packet.truncate(68))

    @pytest.mark.parametrize("odd", [float("inf"), float("-inf"),
                                     float("nan")])
    def test_non_finite_timestamp_traces_like_the_untraced_run(self, odd):
        """A timestamp with no microsecond count gets a trace id too:
        the traced run returns the untraced rows and quarantines what
        the untraced run quarantines, instead of raising from feed()."""
        def run(traced):
            gs = Gigascope()
            gs.add_query("DEFINE query_name q; Select timestamp, destIP "
                         "From eth0.tcp Where destPort = 80")
            if traced:
                gs.enable_tracing(1.0)
            sub = gs.subscribe("q")
            gs.start()
            gs.feed([tcp_packet(ts=ts) for ts in (1.0, odd, 2.0)])
            gs.flush()
            return ([tuple(map(repr, row)) for row in sub.poll()],
                    dict(gs.rts.quarantined))

        untraced = run(False)
        assert run(True) == untraced
        # a heartbeat at an infinite stream time bounds nothing; NaN
        # can never cross a threshold
        assert len(untraced[0]) == 3 and not untraced[1]
        packet = tcp_packet(ts=odd)
        assert trace_key(packet) == trace_key(tcp_packet(ts=odd))
        assert trace_key(tcp_packet(ts=1.5)) != trace_key(packet)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(0.0)
        with pytest.raises(ValueError):
            Tracer(1.5)

    def test_max_traces_bounds_memory(self):
        tracer = Tracer(1.0, max_traces=3)
        for i in range(10):
            packet = tcp_packet(ts=float(i), sport=i + 1)
            tracer.begin(trace_key(packet), packet, "feed", float(i))
        assert len(tracer.traces) == 3
        assert tracer.truncated == 7

    def test_end_to_end_chain(self):
        gs = Gigascope()
        gs.add_queries("""
            DEFINE query_name base;
            Select time, destPort, len From tcp Where destPort = 80;

            DEFINE query_name watch;
            Select time, destPort From base Where destPort = 80
        """)
        tracer = gs.enable_tracing(1.0)
        sub = gs.subscribe("watch")
        gs.start()
        for i in range(10):
            gs.feed_packet(tcp_packet(ts=float(i), dport=80 if i % 2 else 22))
        gs.flush()
        sub.poll()
        assert tracer.started == 10
        chains = tracer.complete_chains(("feed", "lfta", "emit", "hfta",
                                         "app"))
        assert len(chains) == 5  # the five port-80 packets
        # a filtered-out packet still shows where it stopped
        stopped = [t for t in tracer.traces
                   if "emit" not in tracer.stage_chain(t)]
        assert len(stopped) == 5
        for trace in stopped:
            assert tracer.stage_chain(trace) == ["feed", "lfta"]

    def test_a_join_pair_joins_its_arrivals_trace(self):
        """The join hands a block's pairs to ``emit_many`` at once; a
        traced arrival travels as a block of one with ``tracer.current``
        set, and ``emit_many``'s per-row path tags its pair, so the
        join's emit event is in that trace and in no other."""
        gs = Gigascope()
        gs.add_query("DEFINE query_name j; Select A.time, A.destPort, "
                     "B.destPort From eth0.tcp A, eth1.tcp B "
                     "Where A.time = B.time")
        tracer = gs.enable_tracing(1.0)
        sub = gs.subscribe("j")
        gs.start()
        buffered = tcp_packet(ts=1.0, dport=80, interface="eth0")
        arrival = tcp_packet(ts=1.0, src="10.9.9.9", dport=443,
                             interface="eth1")
        gs.feed([buffered, arrival])
        gs.flush()
        assert sub.poll() == [(1, 80, 443)]
        assert tracer.stage_chain(trace_key(arrival)) == [
            "feed", "lfta", "emit", "hfta", "emit", "app"]
        assert tracer.traces[trace_key(arrival)][-2]["node"] == "j"
        assert tracer.stage_chain(trace_key(buffered)) == [
            "feed", "lfta", "emit", "hfta"]

    def test_nic_span_joins_the_chain(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select time, destPort From tcp "
                     "Where destPort = 80")
        nic = Nic()
        gs.observe_nic(nic)
        tracer = gs.enable_tracing(1.0)
        gs.start()
        packet = tcp_packet(ts=1.0, dport=80)
        nic.receive(packet, now_us=1e6)
        for _ts, delivered in nic.take_deliveries():
            gs.feed_packet(delivered)
        gs.flush()
        trace = trace_key(packet)
        stages = tracer.stage_chain(trace)
        assert stages[:3] == ["nic", "feed", "lfta"]

    def test_bpf_rejection_ends_the_span(self):
        # A prefilter rejection must close its trace with a terminal
        # nic_filtered event, not leave the span dangling at "nic".
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select time From tcp "
                     "Where destPort = 80")
        nic = Nic(service_us=1.0, ring_slots=64,
                  bpf=gs.rts.node("q").card_filter())
        nic.tracer = tracer = Tracer(1.0)
        accepted = tcp_packet(ts=1.0, dport=80)
        rejected = tcp_packet(ts=2.0, dport=443)
        nic.receive(accepted, now_us=1e6)
        nic.receive(rejected, now_us=2e6)
        assert tracer.stage_chain(trace_key(rejected)) == ["nic",
                                                          "nic_filtered"]
        assert tracer.stage_chain(trace_key(accepted)) == ["nic"]

    def test_trace_json_dump(self):
        tracer = Tracer(1.0)
        packet = tcp_packet(ts=2.0)
        trace = trace_key(packet)
        tracer.begin(trace, packet, "feed", 2.0)
        tracer.event(trace, "lfta", "q0", 2.0)
        doc = json.loads(tracer.to_json())
        assert doc["sample_rate"] == 1.0
        events = doc["traces"][str(trace)]
        assert [e["stage"] for e in events] == ["feed", "lfta"]
        assert events[0]["interface"] == "eth0"

    def test_tag_does_not_pass_to_a_tuple_reusing_the_address(self):
        """Tags are keyed by ``id()``; a consumed tuple's address must
        not hand its trace to the next tuple allocated there."""
        tracer = Tracer(1.0)
        row = tuple([0.5, 80])
        tracer.tag(row, 7)
        assert tracer.lookup(row) == 7
        del row
        later = [tuple([float(i), i]) for i in range(64)]
        assert all(tracer.lookup(other) is None for other in later)


class TestTelemetryMetrics:
    """The telemetry plane's metric families: registered once, fully
    documented in exposition, round-trippable."""

    def build(self):
        gs = Gigascope(seed=3, heartbeat_interval=0.5)
        gs.enable_telemetry(interval=0.5)
        gs.add_query("""
            DEFINE query_name flows;
            Select tb, count(*) as pkts
            From tcp Group by time/2 as tb
        """)
        gs.subscribe("flows")
        gs.start()
        for i in range(40):
            gs.feed_packet(tcp_packet(ts=0.1 * i))
            if i % 8 == 7:
                gs.rts.pump()
        gs.flush()
        return gs

    def test_telemetry_families_registered_and_set(self):
        gs = self.build()
        values = parse_prometheus(gs.metrics.to_prometheus())
        assert values["gs_telemetry_samples_total"] > 0
        assert values["gs_telemetry_last_sample_time_seconds"] > 0
        assert values['gs_telemetry_rows_total{stream="_gs_channel"}'] > 0
        assert values["gs_telemetry_profile_cycles_total"] > 0
        assert any(key.startswith("gs_telemetry_profile_wall_us_total{")
                   for key in values)
        assert any(key.startswith("gs_telemetry_profile_virtual_us_total{")
                   for key in values)

    def test_no_double_registration_with_collector_metrics(self):
        # Telemetry-stream-derived families must not collide with the
        # collector families install_engine_metrics registered: every
        # family name appears exactly once in the exposition.
        gs = self.build()
        text = gs.metrics.to_prometheus()
        help_names = re.findall(r"^# HELP (\S+)", text, re.MULTILINE)
        assert len(help_names) == len(set(help_names))
        type_names = re.findall(r"^# TYPE (\S+)", text, re.MULTILINE)
        assert sorted(type_names) == sorted(help_names)

    def test_every_family_emits_help_and_type(self):
        gs = self.build()
        text = gs.metrics.to_prometheus()
        help_names = set(re.findall(r"^# HELP (\S+)", text, re.MULTILINE))
        sample_names = {key.partition("{")[0]
                        for key in parse_prometheus(text)}
        # Histogram samples use the family name plus a suffix.
        base = {name.rsplit("_bucket", 1)[0].rsplit("_sum", 1)[0]
                    .rsplit("_count", 1)[0]
                for name in sample_names}
        assert base <= help_names

    def test_exposition_round_trips_through_parser(self):
        gs = self.build()
        first = parse_prometheus(gs.metrics.to_prometheus())
        second = parse_prometheus(gs.metrics.to_prometheus())
        # Collectors are pure reads of engine state: re-exposition after
        # the run is stable for everything but wall-clock profiling.
        stable = {key: value for key, value in first.items()
                  if "profile_wall" not in key}
        assert stable == {key: value for key, value in second.items()
                         if "profile_wall" not in key}
