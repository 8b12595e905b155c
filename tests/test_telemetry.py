"""Tests for the self-telemetry subsystem (``repro.obs.telemetry``).

The contract under test: engine internals are ordinary GSQL streams --
queries and alert triggers read ``_gs_*`` unmodified, rows carry only
deterministic virtual-time values, the sampler keeps per-operator rows
monotone and gap-free even through quarantines and restarts, and the
profiler never leaves a dangling cost attribution.
"""

import math

import pytest

from repro.core.engine import Gigascope
from repro.core.stream_manager import RegistryError
from repro.obs.telemetry import (
    TELEMETRY_STREAMS,
    PumpProfiler,
    TelemetryStreamNode,
    telemetry_schema,
)
from repro.report import engine_report
from repro.workloads.generators import http_port80_pool, packet_stream


FLOWS_QUERY = """
    DEFINE query_name flows;
    Select tb, count(*) as pkts
    From tcp
    Group by time/2 as tb
"""

PKTS_QUERY = """
    DEFINE query_name pkts;
    Select time, len
    From tcp
"""

META_QUERY = """
    Select floor(time/2) as tb, sum(dropped_delta) as drops
    From _gs_channel
    Group by floor(time/2) as tb
"""

STORM_TRIGGER = ("chanstorm:on=_gs_channel,key=channel,"
                 "when=sum(dropped_delta) > 40,epoch=2,"
                 "raise_for=1,clear_for=2,severity=warning")


def feed_traffic(gs, duration_s=10.0, seed=7, pump_every=64):
    pool = http_port80_pool(seed=seed)
    gs.feed(packet_stream(pool, rate_mbps=2.0, duration_s=duration_s,
                          seed=seed), pump_every=pump_every)
    gs.flush()


def make_engine(**kw):
    kw.setdefault("seed", 7)
    kw.setdefault("heartbeat_interval", 0.5)
    kw.setdefault("channel_capacity", 256)
    return Gigascope(**kw)


class TestSchemas:
    def test_every_stream_has_a_schema_led_by_increasing_time(self):
        for stream in TELEMETRY_STREAMS:
            schema = telemetry_schema(stream)
            assert schema.names[0] == "time"
            assert schema.attributes[0].ordering.usable_for_windows

    def test_unknown_stream_raises(self):
        with pytest.raises(KeyError):
            telemetry_schema("_gs_bogus")

    def test_stream_node_rejects_input(self):
        node = TelemetryStreamNode("_gs_shed")
        with pytest.raises(TypeError):
            node.on_tuple((0.0,), 0)


class TestRegistration:
    def test_off_by_default(self):
        gs = make_engine()
        assert "telemetry" not in gs.rts.planes
        assert gs.telemetry_report() is None
        from repro.gsql.semantic import SemanticError
        with pytest.raises(SemanticError):
            gs.add_query("Select time From _gs_channel", name="meta")

    def test_enable_twice_raises(self):
        gs = make_engine()
        gs.enable_telemetry()
        with pytest.raises(RegistryError):
            gs.enable_telemetry()

    def test_stream_subset(self):
        gs = make_engine()
        hub = gs.enable_telemetry(streams=("_gs_channel", "_gs_shed"))
        assert sorted(hub.nodes) == ["_gs_channel", "_gs_shed"]

    def test_unknown_stream_name_raises(self):
        gs = make_engine()
        with pytest.raises(KeyError):
            gs.enable_telemetry(streams=("_gs_channel", "_gs_nope"))

    def test_negative_interval_raises(self):
        gs = make_engine()
        with pytest.raises(ValueError):
            gs.enable_telemetry(interval=-1.0)


class TestGsqlOverTelemetry:
    def test_meta_query_runs_unmodified(self):
        gs = make_engine()
        gs.enable_telemetry(interval=0.5)
        gs.add_query(FLOWS_QUERY)
        gs.add_query(META_QUERY, name="chan_drops")
        meta = gs.subscribe("chan_drops")
        gs.start()
        feed_traffic(gs)
        rows = meta.poll()
        # Multiple 2s epochs closed before end-of-stream: punctuation
        # from the telemetry node advances the window, not just FLUSH.
        assert len(rows) >= 4
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)

    def test_raw_stream_subscription(self):
        gs = make_engine()
        gs.enable_telemetry(interval=0.5)
        gs.add_query(FLOWS_QUERY)
        chan = gs.subscribe("_gs_channel")
        ops = gs.subscribe("_gs_operator")
        gs.start()
        feed_traffic(gs)
        chan_rows, op_rows = chan.poll(), ops.poll()
        assert chan_rows and op_rows
        schema = telemetry_schema("_gs_channel")
        assert all(len(row) == len(schema.names) for row in chan_rows)
        # Cumulative counters never run backwards per channel.
        by_channel = {}
        for row in chan_rows:
            name = row[1]
            prev = by_channel.get(name)
            if prev is not None:
                assert row[4] >= prev[4]   # pushed
                assert row[6] >= prev[6]   # dropped
            by_channel[name] = row

    def test_rows_are_deterministic_values_only(self):
        def run():
            gs = make_engine()
            gs.enable_telemetry(interval=0.5)
            gs.add_query(FLOWS_QUERY)
            sub = {s: gs.subscribe(s) for s in TELEMETRY_STREAMS}
            gs.start()
            feed_traffic(gs)
            return {s: sub[s].poll() for s in TELEMETRY_STREAMS}

        assert run() == run()


class TestMetaAlerts:
    def run(self, storm):
        gs = make_engine()
        gs.enable_telemetry(interval=0.5)
        gs.add_query(PKTS_QUERY)
        gs.enable_alerts([STORM_TRIGGER])
        data = gs.subscribe("pkts")
        alerts = gs.subscribe("alerts")
        if storm:
            gs.inject_faults(["channel_storm:at=3.0,duration=2.0,capacity=4"])
        gs.start()
        feed_traffic(gs)
        assert data.poll()
        return alerts.poll()

    def test_clean_run_raises_nothing(self):
        assert self.run(storm=False) == []

    def test_storm_raises_and_clears_on_the_squeezed_channel(self):
        rows = self.run(storm=True)
        kinds = [row[3] for row in rows]
        assert kinds == [b"RAISE", b"CLEAR"]
        assert all(row[5] == b"pkts->app" for row in rows)


def operator_rows_by_name(rows):
    by_name = {}
    for row in rows:
        by_name.setdefault(row[1], []).append(row)
    return by_name


def assert_monotone_and_gap_free(rows):
    """Every operator appears in every sample, at strictly increasing
    times -- no dangling attribution, no missing rows."""
    sample_times = sorted({row[0] for row in rows})
    assert sample_times == sorted(sample_times)
    by_name = operator_rows_by_name(rows)
    for name, entries in by_name.items():
        times = [row[0] for row in entries]
        assert times == sample_times, f"{name} misses samples"
        assert all(a < b for a, b in zip(times, times[1:]))
        # Cumulative counters are monotone per operator.
        for field in (2, 3, 4):
            values = [row[field] for row in entries]
            assert values == sorted(values), f"{name} field {field} regressed"


class TestOperatorStreamInvariants:
    def test_clean_run_monotone_and_gap_free(self):
        gs = make_engine()
        gs.enable_telemetry(interval=0.5)
        gs.add_query(FLOWS_QUERY)
        ops = gs.subscribe("_gs_operator")
        gs.start()
        feed_traffic(gs)
        rows = ops.poll()
        assert rows
        assert_monotone_and_gap_free(rows)

    def test_quarantine_mid_cycle_keeps_rows_gap_free(self):
        # PR 3 path: the operator dies permanently mid-cycle.  It must
        # keep appearing in _gs_operator (flagged) with frozen counters.
        gs = make_engine()
        gs.enable_telemetry(interval=0.5)
        gs.add_query(FLOWS_QUERY)
        ops = gs.subscribe("_gs_operator")
        gs.start()
        gs.inject_faults(["operator_error:node=flows,at_tuple=3,times=9999"])
        feed_traffic(gs)
        rows = ops.poll()
        assert_monotone_and_gap_free(rows)
        flows_rows = operator_rows_by_name(rows)[b"flows"]
        flags = [row[8] for row in flows_rows]
        assert flags[0] == 0 and flags[-1] == 1
        # After quarantine the cost attribution stays closed: deltas 0.
        dead = [row for row in flows_rows if row[8] == 1]
        assert all(row[5] == 0 and row[7] == 0.0 for row in dead[1:])

    def test_restart_mid_cycle_keeps_rows_gap_free(self):
        # PR 5 path: transient crash, supervisor restores + replays
        # inline; the next sample must show clean-run counters.
        def run(crash):
            gs = make_engine()
            gs.enable_telemetry(interval=0.5)
            gs.add_query(FLOWS_QUERY)
            ops = gs.subscribe("_gs_operator")
            gs.enable_recovery(checkpoint_interval=1.0)
            gs.start()
            if crash:
                from repro.faults.injectors import OperatorFault
                # The LFTA hands flows one row per closed 2s epoch, so
                # tuple 2 lands mid-run (~t=6) with live group state.
                gs.inject_faults([OperatorFault("flows", at_tuple=2,
                                                times=1)])
            feed_traffic(gs)
            report = gs.recovery_report()
            return ops.poll(), report["restarts_total"]

        clean_rows, clean_restarts = run(crash=False)
        crash_rows, crash_restarts = run(crash=True)
        assert clean_restarts == 0 and crash_restarts == 1
        assert_monotone_and_gap_free(crash_rows)
        assert crash_rows == clean_rows


class TestProfiler:
    def test_begin_cycle_sampling(self):
        profiler = PumpProfiler(sample_every=3)
        decisions = [profiler.begin_cycle() for _ in range(9)]
        assert decisions == [False, False, True] * 3
        assert profiler.cycles == 9
        assert profiler.profiled_cycles == 3

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            PumpProfiler(sample_every=0)

    def test_attribution_covers_only_real_operators(self):
        gs = make_engine()
        gs.enable_telemetry(interval=0.5)
        gs.add_query(FLOWS_QUERY)
        gs.subscribe("flows")
        gs.start()
        feed_traffic(gs)
        report = gs.telemetry_report()
        profiler = report["profiler"]
        assert profiler["cycles"] > 0
        assert profiler["profiled_cycles"] == profiler["cycles"]
        node_names = set(dict(gs.rts.iter_nodes()))
        assert set(profiler["wall_us"]) <= node_names
        assert all(value >= 0.0 for value in profiler["wall_us"].values())
        # Virtual attribution covers the data path.
        assert any(value > 0 for value in profiler["virtual_us"].values())

    def test_profile_every_thins_wall_sampling(self):
        gs = make_engine()
        gs.enable_telemetry(interval=0.5, profile_every=4)
        gs.add_query(FLOWS_QUERY)
        gs.start()
        feed_traffic(gs)
        profiler = gs.telemetry_report()["profiler"]
        assert profiler["sample_every"] == 4
        assert profiler["profiled_cycles"] <= profiler["cycles"] // 4 + 1


class TestReporting:
    def test_report_counts_match_subscriptions(self):
        gs = make_engine()
        gs.enable_telemetry(interval=0.5)
        gs.add_query(FLOWS_QUERY)
        subs = {s: gs.subscribe(s) for s in TELEMETRY_STREAMS}
        gs.start()
        feed_traffic(gs)
        report = gs.telemetry_report()
        assert report["samples"] > 1
        assert report["last_sample_time"] is not None
        for stream in TELEMETRY_STREAMS:
            assert report["rows"][stream] == len(subs[stream].poll())

    def test_engine_report_has_telemetry_section(self):
        gs = make_engine()
        gs.enable_telemetry(interval=0.5)
        gs.add_query(FLOWS_QUERY)
        gs.start()
        feed_traffic(gs, duration_s=4.0)
        text = engine_report(gs)
        assert "telemetry" in text
        assert "_gs_channel" in text
        assert "profiler:" in text

    def test_no_samples_before_traffic(self):
        gs = make_engine()
        gs.enable_telemetry()
        gs.add_query(FLOWS_QUERY)
        report = gs.telemetry_report()
        assert report["samples"] == 0
        assert report["last_sample_time"] is None
        assert math.isinf(gs.rts.planes["telemetry"]._last_sample)
