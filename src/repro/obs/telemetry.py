"""Self-telemetry: the engine's internals as first-class GSQL streams.

Gigascope's defining observability move is that it monitors itself with
its own query language -- internal performance data is exposed as
ordinary streams that GSQL queries (and PR 6 alert triggers) consume
exactly like packet streams.  The :class:`TelemetryHub` turns the
engine's counters into five typed streams, registered in the engine's
schema like any query output.  Two render
:func:`~repro.obs.collectors.engine_snapshot`, one row per channel or
node, each delta this sample's snapshot minus the last one:
``_gs_channel`` (depth, high-water mark, overflow drops) and
``_gs_operator`` (tuple counters, the Section 4 virtual-time cost since
the last sample, the quarantine flag).  Three are projections of a
control plane's ledger (:mod:`repro.obs.ledger`), one row of
plane-wide counters each: ``_gs_shed``, ``_gs_recovery``, ``_gs_alert``.

Rows are emitted at pump boundaries *in virtual time* -- the hub's
:meth:`~TelemetryHub.on_cycle` runs before the drain, so telemetry
rows travel through the same channels as every other stream item.
Row values are derived exclusively from deterministic counters (never
wall clocks), and a recovery rollback restores the hub's sample cursor
with the engine (:meth:`TelemetryHub.snapshot_state`), so ``replay
verify --scenario telemetry_meta telemetry_crash`` can prove telemetry
streams byte-identical across ``PYTHONHASHSEED`` values and across a
mid-run crash/restore.

The no-feedback rule: telemetry streams observe only non-telemetry
nodes and channels (names starting with ``_gs_`` are skipped), so each
sample emits a bounded, workload-independent number of rows and the
streams never describe themselves.

Bounded memory (DESIGN section 13): every stream declares ``time``
with :meth:`Ordering.increasing`, the same admission evidence packet
protocols carry, so windowed meta-queries and triggers pass the
bounded-memory check of ``gsql/ordering.py`` unchanged.

Wall-clock cost is profiled separately: :class:`PumpProfiler` samples
``perf_counter`` around each operator's share of the pump drain and
surfaces the attribution through :meth:`TelemetryHub.report` and the
``gs_telemetry_profile*`` metrics -- never through the streams, which
must stay replayable.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.core.heartbeat import Punctuation
from repro.core.query_node import QueryNode
from repro.gsql.ordering import Ordering
from repro.gsql.schema import Attribute, StreamSchema
from repro.gsql.types import FLOAT, STRING, UINT
from repro.obs.collectors import delta, engine_snapshot
from repro.obs.ledger import Field, Ledger, columns, row
from repro.obs.plane_ledgers import BY_STREAM
from repro.options import check

#: every stream the hub can publish, in emission order
TELEMETRY_STREAMS = ("_gs_channel", "_gs_operator", "_gs_shed",
                     "_gs_recovery", "_gs_alert")


#: the per-object streams' columns after ``time``; the plane streams'
#: come from their ledgers
_OBJECT_COLUMNS = {
    "_gs_channel": (
        ("channel", STRING), ("depth", UINT), ("max_depth", UINT),
        ("pushed", UINT), ("popped", UINT), ("dropped", UINT),
        ("dropped_delta", UINT)),
    "_gs_operator": (
        ("operator", STRING), ("tuples_in", UINT), ("tuples_out", UINT),
        ("discarded", UINT), ("in_delta", UINT), ("out_delta", UINT),
        ("cost_us", FLOAT), ("quarantined", UINT)),
}


def telemetry_schema(stream: str) -> StreamSchema:
    """The typed schema of one ``_gs_*`` stream.

    ``time`` leads every stream with an increasing ordering: sample
    times are strictly advancing virtual time, which is what admits
    windowed meta-queries (``Group by time/5``) as bounded-memory.
    """
    typed = _OBJECT_COLUMNS.get(stream)
    if typed is None:
        ledger = BY_STREAM.get(stream)
        if ledger is None:
            raise KeyError(f"unknown telemetry stream {stream!r}; "
                           f"known: {TELEMETRY_STREAMS}")
        typed = [(name, FLOAT if kind is float else UINT)
                 for name, kind in columns(ledger)]
    return StreamSchema(
        stream, [Attribute("time", FLOAT, Ordering.increasing())]
        + [Attribute(name, gsql_type) for name, gsql_type in typed])


class TelemetryStreamNode(QueryNode):
    """The producer node behind one ``_gs_*`` stream.

    A pure emitter: it has no inputs (the hub pushes rows into it at
    pump boundaries) and no state beyond the base counters, so
    checkpoint/restore needs nothing telemetry-specific.  After each
    sample it emits punctuation on the ``time`` attribute (slot 0) so
    downstream windowed meta-queries close their epochs promptly.
    """

    def __init__(self, stream: str) -> None:
        super().__init__(stream, telemetry_schema(stream))

    def on_tuple(self, row: tuple, input_index: int) -> None:
        raise TypeError(f"{self.name} is a telemetry source; it has no inputs")

    def publish(self, rows: List[tuple], stream_time: float) -> None:
        for row in rows:
            self.emit(row)
        self.emit_punctuation(Punctuation({0: stream_time}))


class PumpProfiler:
    """Sampling wall-clock profiler for the pump drain.

    Every ``sample_every``-th pump cycle, the RTS brackets each
    operator's share of the drain with ``perf_counter`` and reports it
    here.  Attribution closes when the operator's drain ends --
    including a mid-cycle quarantine or restart, so a contained failure
    never leaves a dangling cost entry.  Wall times are *observability
    only*: they feed the report and the ``gs_telemetry_profile*``
    metrics, never the telemetry streams.
    """

    __slots__ = ("sample_every", "cycles", "profiled_cycles", "wall_s")

    def __init__(self, sample_every: int = 1) -> None:
        self.sample_every = sample_every
        self.cycles = 0
        self.profiled_cycles = 0
        #: operator name -> accumulated wall seconds across sampled cycles
        self.wall_s: Dict[str, float] = {}

    def begin_cycle(self) -> bool:
        """Count a pump cycle; True when this cycle should be profiled."""
        self.cycles += 1
        if self.cycles % self.sample_every:
            return False
        self.profiled_cycles += 1
        return True

    def add(self, operator: str, seconds: float) -> None:
        self.wall_s[operator] = self.wall_s.get(operator, 0.0) + seconds

    def wall_us(self) -> Dict[str, float]:
        return {name: self.wall_s[name] * 1e6 for name in sorted(self.wall_s)}


#: What the hub adds on top of its stream nodes (ordinary nodes, under
#: ``gs_node_*{node="_gs_channel"}``): cadence, rows per stream and the
#: profile -- wall clock is observability-only, never in a stream.
LEDGER = Ledger("telemetry", (
    Field("samples", "gs_telemetry_samples_total", "counter",
          "telemetry samples taken at pump boundaries",
          read=lambda hub: hub.samples_taken),
    Field("last_sample_time", "gs_telemetry_last_sample_time_seconds",
          "gauge", "virtual time of the latest telemetry sample"),
    Field("rows", "gs_telemetry_rows_total", "counter",
          "rows emitted per telemetry stream", "stream"),
    Field("profiler", "gs_telemetry_profile_cycles_total", "counter",
          "pump cycles the sampling profiler timed",
          read=lambda hub: hub.profiler.profiled_cycles),
    Field("profiler", "gs_telemetry_profile_wall_us_total", "counter",
          "wall-clock microseconds of pump-drain work attributed per "
          "operator (sampled cycles only)", "operator",
          read=lambda hub: hub.profiler.wall_us()),
    Field("profiler", "gs_telemetry_profile_virtual_us_total", "counter",
          "Section 4 virtual-time microseconds attributed per operator",
          "operator", read=lambda hub: hub.virtual_us),
))


class TelemetryHub:
    """Owns the ``_gs_*`` stream nodes, the sampler, and the profiler.

    Created via :meth:`repro.core.engine.Gigascope.enable_telemetry`;
    the RTS calls :meth:`on_cycle` at every pump boundary (before the
    drain, like the alert plane's epoch clock) and :meth:`on_stream_end`
    from ``flush_all`` so subscribers of telemetry streams terminate
    like any other stream's.
    """

    ledger = LEDGER

    def __init__(self, engine, interval: float = 1.0,
                 streams: Optional[Tuple[str, ...]] = None,
                 profile_every: int = 1) -> None:
        check("enable_telemetry", interval=interval,
              profile_every=profile_every)
        unknown = [s for s in (streams or ()) if s not in TELEMETRY_STREAMS]
        if unknown:
            raise KeyError(f"unknown telemetry streams {unknown}; "
                           f"known: {TELEMETRY_STREAMS}")
        self.engine = engine
        self.rts = engine.rts
        self.interval = interval
        self.nodes: Dict[str, TelemetryStreamNode] = {}
        self.rts.attach_plane(self)
        for stream in TELEMETRY_STREAMS:
            if streams is not None and stream not in streams:
                continue
            node = TelemetryStreamNode(stream)
            engine.add_node(node)
            self.nodes[stream] = node
        #: the RTS brackets each operator's share of the drain with it
        self.profiler = self.rts.profiler = PumpProfiler(
            sample_every=profile_every)
        self.samples_taken = 0
        self._last_sample = -math.inf
        #: the last sample's snapshot entries, keyed by node object so a
        #: namesake re-added since then starts at zero
        self._last: Dict[QueryNode, Dict[str, Any]] = {}
        #: cumulative Section 4 virtual cost attributed per operator
        self.virtual_us: Dict[str, float] = {}
        #: the plane-ledger streams this hub publishes
        self._plane_ledgers = {stream: ledger for stream, ledger
                               in BY_STREAM.items()
                               if stream in self.nodes}

    # -- sampling -------------------------------------------------------------
    def on_cycle(self, stream_time: float) -> None:
        """Pump-boundary hook: sample the engine if the interval elapsed.

        Runs *before* the drain so the emitted rows flow through
        channels this same cycle, exactly like alert epoch ticks -- a
        replayed cycle samples again, the property the ``telemetry_*``
        replay scenarios hold.
        """
        if math.isinf(stream_time) or stream_time <= self._last_sample:
            return
        if (self.samples_taken and
                stream_time < self._last_sample + self.interval):
            return
        self._sample(stream_time)

    def on_stream_end(self, stream_time: float) -> None:
        """End-of-stream hook (``flush_all``): final sample, then FLUSH.

        Telemetry nodes are not packet consumers, so the RTS's flush
        loop never reaches them; without this, meta-queries and
        meta-triggers reading ``_gs_*`` streams would never terminate.
        """
        if not math.isinf(stream_time) and stream_time > self._last_sample:
            self._sample(stream_time)
        for node in self.nodes.values():
            if not node.flushed:
                node.flushed = True
                node.flush()
                node.emit_flush()

    def _sample(self, stream_time: float) -> None:
        self._last_sample = stream_time
        self.samples_taken += 1
        time_value = float(stream_time)
        channel_rows: List[tuple] = []
        operator_rows: List[tuple] = []
        shed_total = shed_delta = 0
        dropped_total = self.rts.retired_dropped  # detached channels' drops
        tuple_us = self.rts.cost_model.hfta_tuple_us
        last, now = self._last, {}
        for name, entry in engine_snapshot(self.rts).items():
            if name.startswith("_gs_"):
                continue  # the no-feedback rule
            node = self.rts.node(name)
            before = last.get(node)  # None: new since the last sample
            now[node] = entry
            in_delta = delta(entry, before, "tuples_in")
            # Section 4 cost of the work done since the last sample:
            # channel items for HFTAs, examined packets for consumers.
            seen_delta = delta(entry, before, "packets_seen")
            cost_us = float(max(in_delta, seen_delta, 0) * tuple_us)
            self.virtual_us[name] = self.virtual_us.get(name, 0.0) + cost_us
            shed_total += entry.get("shed_packets", 0)
            shed_delta += max(delta(entry, before, "shed_packets"), 0)
            operator_rows.append((
                time_value,
                name.encode("utf-8", "backslashreplace"),
                entry["tuples_in"],
                entry["tuples_out"],
                entry["discarded"],
                max(in_delta, 0),
                max(delta(entry, before, "tuples_out"), 0),
                cost_us,
                int("quarantined" in entry),
            ))
            earlier = before.get("channels", {}) if before else {}
            for channel, stats in entry.get("channels", {}).items():
                dropped_total += stats["dropped"]
                channel_rows.append((
                    time_value,
                    channel.encode("utf-8", "backslashreplace"),
                    stats["depth"],
                    stats["max_depth"],
                    stats["pushed"],
                    stats["popped"],
                    stats["dropped"],
                    max(delta(stats, earlier.get(channel), "dropped"), 0),
                ))
        self._last = now
        self._publish("_gs_channel", channel_rows, stream_time)
        self._publish("_gs_operator", operator_rows, stream_time)
        known = {"_gs_shed": {"packets_shed": shed_total,
                              "shed_delta": shed_delta,
                              "channel_dropped": dropped_total}}
        for stream, ledger in self._plane_ledgers.items():
            self._publish(stream, [row(
                ledger, self.rts.planes.get(ledger.name), time_value,
                **known.get(stream, {}))], stream_time)

    # -- rollback (DESIGN section 11) -----------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """The sample cursor, last sample (by node name), attributed cost
        and profiled cycles; the profiler's wall times stay."""
        profiler = self.profiler
        return {"cursor": (self.samples_taken, self._last_sample,
                           profiler.cycles, profiler.profiled_cycles),
                "last": {node.name: entry
                         for node, entry in self._last.items()},
                "virtual_us": self.virtual_us}

    def restore_state(self, state: Dict[str, Any]) -> None:
        (self.samples_taken, self._last_sample, self.profiler.cycles,
         self.profiler.profiled_cycles) = state["cursor"]
        nodes = dict(self.rts.iter_nodes())
        self._last = {nodes[name]: entry for name, entry
                      in state["last"].items() if name in nodes}
        self.virtual_us = dict(state["virtual_us"])

    def _publish(self, stream: str, rows: List[tuple],
                 stream_time: float) -> None:
        node = self.nodes.get(stream)
        if node is not None:
            node.publish(rows, stream_time)

    # -- reporting ------------------------------------------------------------
    @property
    def last_sample_time(self) -> Optional[float]:
        """Virtual time of the latest sample (None before the first)."""
        return None if math.isinf(self._last_sample) else self._last_sample

    @property
    def rows(self) -> Dict[str, int]:
        """Rows emitted so far, per stream."""
        return {stream: node.stats.tuples_out
                for stream, node in sorted(self.nodes.items())}

    def report(self) -> Dict[str, Any]:
        """The hub's ledger (the ``# telemetry report`` source)."""
        profiler = self.profiler
        return {
            "interval": self.interval,
            "streams": sorted(self.nodes),
            "samples": self.samples_taken,
            "last_sample_time": self.last_sample_time,
            "rows": self.rows,
            "profiler": {
                "sample_every": profiler.sample_every,
                "cycles": profiler.cycles,
                "profiled_cycles": profiler.profiled_cycles,
                "wall_us": {name: round(value, 1)
                            for name, value in profiler.wall_us().items()},
                "virtual_us": {name: round(self.virtual_us[name], 1)
                               for name in sorted(self.virtual_us)},
            },
        }


__all__ = [
    "LEDGER",
    "TELEMETRY_STREAMS",
    "PumpProfiler",
    "TelemetryHub",
    "TelemetryStreamNode",
    "telemetry_schema",
]
