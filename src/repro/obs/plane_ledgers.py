"""The ledgers of the three planes the telemetry hub streams.

``_gs_shed``, ``_gs_recovery`` and ``_gs_alert`` project these and
stream their off-rows while a plane is off, so they live here, where
reading them loads no plane; each plane carries its own as ``ledger``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.ledger import Field, Ledger


def _signal(name: str, before_first: Any = None):
    """Read one signal off the latest :class:`PressureSample`."""
    return lambda controller: (getattr(controller.last_sample, name)
                               if controller.last_sample else before_first)


#: The shed plane's counters, then every signal its policy saw last
#: cycle (exported only: a key of None is in no report).  The telemetry
#: sampler passes its own ``packets_shed``, ``shed_delta`` and
#: ``channel_dropped`` to ``row`` (a delta exists only between two of
#: its samples, and its sums skip ``_gs_*`` objects); the reads below,
#: of the report, serve a caller outside a sample.
SHED = Ledger("shed", (
    Field("shed_rate", "gs_shed_rate", "gauge",
          "keep-rate installed on the LFTA sampling gates (1.0 = no shedding)",
          column="shed_rate", off=1.0),
    Field("packets_shed", column="packets_shed", read=lambda controller:
          controller.report()["packets_shed"]),
    Field("packets_shed", column="shed_delta", read=lambda controller: 0),
    Field("channel_dropped", column="channel_dropped", read=lambda controller:
          controller.report()["channel_dropped"]),
    Field("pressured_cycles", "gs_control_pressured_cycles_total", "counter",
          "cycles with drops or utilization > 1", column="pressured_cycles"),
    Field("cycles", "gs_control_cycles_total", "counter",
          "control-loop cycles run", column="cycles"),
    Field("min_shed_rate", "gs_shed_min_rate", "gauge",
          "lowest keep-rate seen", read=lambda controller: controller.min_rate_seen),
    Field("utilization", "gs_pressure_utilization", "gauge",
          "estimated host CPU utilization in virtual time (1.0 = saturated)",
          read=_signal("utilization")),
    Field(None, "gs_pressure_max_fill", "gauge",
          "worst channel depth/capacity this cycle", read=_signal("max_fill")),
    Field(None, "gs_pressure_packet_rate", "gauge",
          "packets/second of stream time since the last cycle",
          read=_signal("packet_rate")),
    Field(None, "gs_pressure_drops_delta", "gauge",
          "new losses anywhere in the stack this cycle",
          read=_signal("drops_delta")),
    Field("channel_dropped", "gs_pressure_channel_drops_total", "counter",
          "cumulative channel overflow drops",
          read=_signal("channel_drops_total")),
    Field(None, "gs_pressure_nic_drops_total", "counter",
          "cumulative NIC ring drops", read=_signal("nic_drops_total")),
    Field(None, "gs_node_rate", "gauge",
          "per-node output tuples/second of stream time", "node",
          read=_signal("node_rates", {})),
), title="overload", stream="_gs_shed")


def _per_trigger(key, family, kind, help_text, column=None, counter=None):
    counter = counter or f"alerts_{column}"
    return Field(key, family, kind, help_text, "trigger", column,
                 read=lambda engine: {name: getattr(node, counter) for name,
                                      node in engine.triggers.items()})


#: The alert plane's counters: per-trigger families, and the
#: ``_gs_alert`` columns their sums.
ALERTS = Ledger("alerts", (
    Field("triggers", "gs_alert_triggers", "gauge",
          "trigger definitions installed", column="triggers",
          read=lambda engine: len(engine.triggers)),
    Field("ticks_sent", "gs_alert_ticks_total", "counter",
          "epoch-clock ticks sent at pump boundaries", column="ticks"),
    _per_trigger("raised_total", "gs_alert_raised_total", "counter",
                 "RAISE events emitted", "raised"),
    _per_trigger("cleared_total", "gs_alert_cleared_total", "counter",
                 "CLEAR events emitted", "cleared"),
    _per_trigger("suppressed_total", "gs_alert_suppressed_total", "counter",
                 "raises withheld by per-trigger rate limiting", "suppressed"),
    _per_trigger("active_total", "gs_alert_active", "gauge",
                 "keys currently raised", "active"),
    _per_trigger("triggers", "gs_alert_epochs_evaluated_total", "counter",
                 "evaluation epochs closed", counter="epochs_evaluated"),
), title="alert", stream="_gs_alert")


#: All ``gs_recovery``-prefixed: ``repro.determinism.comparable`` drops
#: the prefix before diffing two arms that differ in their crash (a
#: crash run restarts nodes, a clean run does not).
RECOVERY = Ledger("recovery", (
    Field("checkpoints_taken", "gs_recovery_checkpoints_total", "counter",
          "crash-consistent checkpoints cut at pump boundaries",
          column="checkpoints"),
    Field("checkpoint_bytes", "gs_recovery_checkpoint_bytes", "gauge",
          "encoded size of the latest full checkpoint",
          column="checkpoint_bytes"),
    Field("restarts_total", "gs_recovery_restarts_total", "counter",
          "rollback attempts across all nodes", column="restarts"),
    Field("replayed_items", "gs_recovery_replayed_items_total", "counter",
          "journal entries re-fed by rollbacks", column="replayed"),
    Field("suppressed_rows", "gs_recovery_suppressed_rows_total", "counter",
          "already-delivered rows a rollback's replayed takes dropped "
          "(exactly-once)", column="suppressed"),
    Field("suspended", "gs_recovery_nodes_suspended", "gauge",
          "nodes awaiting a backoff retry", column="suspended",
          read=lambda plane: len(plane.suspended)),
    Field("journal_len", "gs_recovery_journal_len", "gauge",
          "journaled packets and other inputs since the last checkpoint",
          column="journal_len", read=lambda plane: plane.journal.len),
    Field("retries_exhausted", "gs_recovery_retries_exhausted_total",
          "counter",
          "nodes degraded to permanent quarantine after the retry budget"),
), stream="_gs_recovery")


#: ``_gs_*`` stream -> its plane's ledger, in ``TELEMETRY_STREAMS`` order
BY_STREAM: Dict[str, Ledger] = {ledger.stream: ledger
                                for ledger in (SHED, RECOVERY, ALERTS)}
