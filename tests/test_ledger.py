"""Each control plane states its counters once (``repro.obs.ledger``).

One parametrised suite over every plane's ledger: the report keys it
names exist, the generic collector registers exactly its families, the
``_gs_*`` schema is its columns, an off plane streams its declared
off-row -- and a change to a counter that breaks any rendering fails
here or in ``tests/test_golden_scenarios.py`` (which hashes the values).
"""

import pytest

from repro import Gigascope
from repro.core.stream_manager import RegistryError
from repro.obs.ledger import (Field, Ledger, columns, install, render, row,
                              view)
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import LEDGER as TELEMETRY
from repro.obs.plane_ledgers import ALERTS, BY_STREAM, RECOVERY, SHED
from repro.obs.telemetry import TELEMETRY_STREAMS, telemetry_schema
from repro.recovery.supervisor import REPLICATION
from repro.shard import ShardedGigascope
from repro.shard.runtime import LEDGER as SHARD
from tests.conftest import tcp_packet

LEDGERS = (SHED, RECOVERY, ALERTS, TELEMETRY, REPLICATION, SHARD)
FLOWS = """
    DEFINE query_name flows;
    Select tb, count(*) as pkts From tcp Group by time/2 as tb
"""


def packets(count=64):
    return [tcp_packet(ts=0.1 * i, sport=1000 + i % 7) for i in range(count)]


def all_planes_engine():
    gs = Gigascope(seed=3, heartbeat_interval=0.5)
    gs.enable_shedding("adaptive")
    gs.enable_telemetry(interval=0.5)
    gs.add_query(FLOWS)
    gs.enable_recovery(checkpoint_interval=1.0)
    gs.enable_alerts(["t:on=flows,when=sum(pkts) > 1,epoch=2"])
    return gs


def drive(gs):
    sub = gs.subscribe("flows")
    gs.start()
    gs.feed(packets(), pump_every=8)
    gs.flush()
    return sub.poll()


@pytest.fixture(scope="module")
def live():
    """``{plane name: (plane, its registry)}`` after one short run each."""
    gs = all_planes_engine()
    drive(gs)
    out = {name: (plane, gs.metrics) for name, plane in gs.planes.items()}
    sharded = ShardedGigascope(2, seed=3)
    sharded.add_query(FLOWS)
    drive(sharded)
    out["shard"] = (sharded, sharded.metrics)
    replicated = Gigascope(seed=3)
    plane = replicated.enable_replication(cadence=0.5, crash="packet:40")
    replicated.add_query(FLOWS)
    drive(replicated)
    out["replication"] = (plane, replicated.metrics)
    return out


@pytest.mark.parametrize("ledger", LEDGERS, ids=lambda ledger: ledger.name)
class TestEveryPlane:
    def test_plane_carries_its_ledger(self, ledger, live):
        plane, _ = live[ledger.name]
        assert view(ledger.name, plane)[0] is ledger
        assert len({f.family for f in ledger.fields if f.family}) == \
            len([f for f in ledger.fields if f.family])

    def test_report_keys_exist(self, ledger, live):
        plane, _ = live[ledger.name]
        report = view(ledger.name, plane)[1]()
        assert {f.key for f in ledger.fields if f.key is not None} \
            <= set(report)

    def test_collector_registers_exactly_the_ledger(self, ledger, live):
        plane, _ = live[ledger.name]
        registry = MetricsRegistry()
        install(registry, ledger, plane)
        registered = [(f.name, f.kind, f.help, f.label_names)
                      for f in registry.families()]
        declared = sorted((f.family, f.kind, f.help,
                           (f.label,) if f.label else ())
                          for f in ledger.fields if f.family)
        assert registered == declared
        # ... and the plane's own registry carries the same families
        # with the same samples.
        _, own = live[ledger.name]
        fresh, attached = registry.snapshot(), own.snapshot()
        assert all(attached[name] == fresh[name] for name in fresh
                   if "wall_us" not in name)

    def test_values_match_the_report(self, ledger, live):
        """A field whose report entry is a plain number reads that number
        (a labelled one: its sum).  Two fields are projections instead:
        ``shed_delta`` differences ``packets_shed`` between samples, and
        ``gs_repl_frames_total{kind}`` carries ``frames_full`` and
        ``frames_delta`` in one family."""
        plane, _ = live[ledger.name]
        report = view(ledger.name, plane)[1]()
        for field in ledger.fields:
            entry = report.get(field.key)
            if field.column == "shed_delta" \
                    or field.family == "gs_repl_frames_total" \
                    or isinstance(entry, bool) \
                    or not isinstance(entry, (int, float)):
                continue
            value = field.value(plane)
            assert (sum(value.values()) if field.label else value) == entry, \
                field.key

    def test_stream_schema_is_the_ledger_columns(self, ledger):
        if ledger.stream is None:
            assert not columns(ledger)
            return
        schema = telemetry_schema(ledger.stream)
        assert list(schema.names) == \
            ["time"] + [name for name, _ in columns(ledger)]
        kinds = {"FLOAT": float, "UINT": int}
        assert [kinds[a.gsql_type.name.upper()] for a in schema.attributes[1:]] \
            == [kind for _, kind in columns(ledger)]

    def test_off_plane_streams_its_off_row(self, ledger):
        if ledger.stream is None:
            return
        off = row(ledger, None, 2.5)
        assert off[0] == 2.5
        assert list(off[1:]) == [f.off for f in ledger.fields if f.column]
        assert [type(v) for v in off[1:]] == [k for _, k in columns(ledger)]


class TestStreams:
    def test_plane_streams_are_the_declared_ones(self):
        assert tuple(BY_STREAM) == TELEMETRY_STREAMS[2:]
        assert [ledger.name for ledger in BY_STREAM.values()] == \
            ["shed", "recovery", "alerts"]

    def test_off_rows_in_a_running_engine(self):
        gs = Gigascope(heartbeat_interval=0.5)
        gs.enable_telemetry(interval=0.5)
        gs.add_query(FLOWS)
        subs = {s: gs.subscribe(s) for s in ("_gs_shed", "_gs_recovery",
                                             "_gs_alert")}
        drive(gs)
        rows = {s: sub.poll() for s, sub in subs.items()}
        assert all(rows.values())
        assert all(r[1:] == (0,) * 7 for r in rows["_gs_recovery"])
        assert all(r[1:] == (0,) * 6 for r in rows["_gs_alert"])
        assert all(r[1] == 1.0 and r[5:] == (0, 0) for r in rows["_gs_shed"])

    def test_live_row_equals_the_ledger_read(self, live):
        supervisor, _ = live["recovery"]
        sample = row(RECOVERY, supervisor, 9.0)
        assert sample == (9.0, supervisor.checkpoints_taken,
                          supervisor.checkpoint_bytes,
                          supervisor.restarts_total,
                          supervisor.replayed_items,
                          supervisor.suppressed_rows,
                          len(supervisor.suspended), supervisor.journal.len)
        controller, _ = live["shed"]
        assert row(SHED, controller, 9.0, packets_shed=7, shed_delta=3,
                   channel_dropped=2)[2:5] == (7, 3, 2)


class TestAttachPlane:
    @pytest.mark.parametrize("name,enable", [
        ("shed", lambda gs: gs.enable_shedding("adaptive")),
        ("recovery", lambda gs: gs.enable_recovery()),
        ("alerts", lambda gs: gs.enable_alerts()),
        ("telemetry", lambda gs: gs.enable_telemetry()),
    ])
    def test_second_enable_is_refused(self, name, enable):
        gs = Gigascope()
        first = enable(gs)
        nodes = gs.rts.names()
        families = [family.name for family in gs.metrics.families()]
        with pytest.raises(RegistryError, match=f"{name} already enabled"):
            enable(gs)
        assert gs.planes[name] is first
        assert gs.rts.planes[first.ledger.name] is first
        assert gs.rts.names() == nodes
        assert [f.name for f in gs.metrics.families()] == families

    def test_refused_supervisor_leaves_the_first_in_charge(self):
        """The probe from the issue: the second supervisor used to win
        and the first was orphaned with its collector registered."""
        gs = Gigascope(heartbeat_interval=0.5)
        gs.add_query(FLOWS)
        first = gs.enable_recovery(checkpoint_interval=1.0)
        with pytest.raises(RegistryError):
            gs.enable_recovery(checkpoint_interval=1.0)
        drive(gs)
        assert gs.rts.planes["recovery"] is first
        assert first.checkpoints_taken >= 3
        assert gs.recovery_report()["checkpoints_taken"] == \
            first.checkpoints_taken

    def test_last_heartbeat_is_read_only(self):
        gs = Gigascope(heartbeat_interval=0.5)
        gs.add_query(FLOWS)
        drive(gs)
        assert gs.rts.last_heartbeat > 0
        with pytest.raises(AttributeError):
            gs.rts.last_heartbeat = 0.0


class TestRender:
    def test_scalars_then_lists_then_nested(self):
        report = {"a": 1, "rate": 0.5, "names": ["x", "y"], "empty": [],
                  "per": {"n1": {"k": 2}, "n2": {"k": 3}}, "flat": {"u": 1},
                  "none": {}}
        assert render(report) == [
            "a=1 rate=0.5", "names: x y", "empty: -",
            "per n1: k=2", "per n2: k=3", "flat: u=1", "none: -"]

    def test_a_toy_ledger_renders_three_ways(self):
        class Plane:
            ledger = Ledger("toy", (
                Field("hits", "toy_hits_total", "counter", "hits", column="hits"),
                Field("by_kind", "toy_kind", "gauge", "per kind", "kind",
                      column="kinds", off=0.0),
            ), stream="_toy")
            hits = 3
            by_kind = {"a": 1.5, "b": 2.0}

            def report(self):
                return {"hits": self.hits, "by_kind": self.by_kind}

        registry = MetricsRegistry()
        install(registry, Plane.ledger, Plane())
        assert registry.snapshot() == {
            "toy_hits_total": {(): 3},
            "toy_kind": {("a",): 1.5, ("b",): 2.0}}
        assert columns(Plane.ledger) == [("hits", int), ("kinds", float)]
        assert row(Plane.ledger, Plane(), 1.0) == (1.0, 3, 3.5)
        assert row(Plane.ledger, None, 1.0) == (1.0, 0, 0.0)
