"""Collectors: the one place runtime statistics are gathered.

``RuntimeSystem.stats()``, :func:`repro.report.engine_report`, and the
metrics registry exposition previously each walked the node/channel
objects themselves and had drifted apart (``stats()`` omitted
``reorder_peak``, ``open_groups``, and ``sessions_emitted`` that the
report showed).  This module defines the canonical snapshot --
:data:`NODE_EXTRA_ATTRS` and :func:`node_snapshot` -- and every other
surface is built on top of it.

:func:`install_engine_metrics` registers a lazy collector on a
:class:`~repro.obs.registry.MetricsRegistry` that re-exports the
snapshot as typed metric families; it runs only when a metrics snapshot
is taken, so the packet path pays nothing for it.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from repro.obs.registry import MetricsRegistry

#: Operator-specific counters, beyond the NodeStats five, that both
#: ``RuntimeSystem.stats()`` and ``report.engine_report`` surface.
#: Defined once so the two can never drift again.
NODE_EXTRA_ATTRS = (
    "packets_seen",      # LFTA/defrag: packets examined
    "dropped",           # defrag/merge: fragments or late tuples dropped
    "pairs_emitted",     # join
    "groups_emitted",    # aggregation
    "open_groups",       # aggregation: groups currently held open
    "buffered",          # merge: tuples held waiting for the other input
    "sessions_emitted",  # sessionize
    "reorder_peak",      # sorted band join: reorder-buffer high water
    "sampled_out",       # DEFINE sample p: packets thinned by the analyst
    "shed_packets",      # overload control: packets shed by the gate
    "alerts_raised",     # trigger node: RAISE events emitted
    "alerts_cleared",    # trigger node: CLEAR events emitted
    "alerts_suppressed", # trigger node: raises withheld by min_interval
    "alerts_active",     # trigger node: keys currently in the raised set
    "epochs_evaluated",  # trigger node: epochs closed so far
)


def channel_snapshot(channel) -> Dict[str, Any]:
    """The canonical per-channel statistics dict."""
    stats = channel.stats
    return {
        "pushed": stats.pushed,
        "popped": stats.popped,
        "dropped": stats.dropped,
        "depth": len(channel),
        "max_depth": stats.max_depth,
        "capacity": channel.capacity,
    }


def node_snapshot(node) -> Dict[str, Any]:
    """The canonical per-node statistics dict (single source of truth)."""
    stats = node.stats
    entry: Dict[str, Any] = {
        "tuples_in": stats.tuples_in,
        "tuples_out": stats.tuples_out,
        "discarded": stats.discarded,
        "punctuations_in": stats.punctuations_in,
        "punctuations_out": stats.punctuations_out,
    }
    for extra in NODE_EXTRA_ATTRS:
        value = getattr(node, extra, None)
        if value is not None:
            entry[extra] = value
    table = getattr(node, "table", None)
    if table is not None:
        entry["hash_collisions"] = table.collisions
    if getattr(node, "quarantined", None) is not None:
        # The RTS contained a failure here; the reason travels with the
        # node's statistics so the ledger explains the missing output.
        entry["quarantined"] = node.quarantined
    if node.subscribers:
        entry["channels"] = {
            channel.name: channel_snapshot(channel)
            for channel in node.subscribers
        }
    return entry


def engine_snapshot(rts) -> Dict[str, Dict[str, Any]]:
    """Per-node snapshots for every registered node."""
    return {name: node_snapshot(node) for name, node in rts.iter_nodes()}


def install_engine_metrics(registry: MetricsRegistry, rts) -> None:
    """Export the RTS's node/channel statistics through ``registry``.

    Registers a collector; nothing here touches the packet path.
    """
    packets = registry.counter(
        "gs_packets_fed_total", "packets handed to the RTS")
    nbytes = registry.counter(
        "gs_bytes_fed_total", "captured bytes handed to the RTS")
    heartbeats = registry.counter(
        "gs_heartbeats_total", "ordering-update tokens injected")
    heartbeats_suppressed = registry.counter(
        "gs_heartbeats_suppressed_total",
        "heartbeats withheld by an injected silence fault")
    quarantined = registry.counter(
        "gs_nodes_quarantined_total",
        "query nodes quarantined after an unhandled failure")
    fault_dropped = registry.counter(
        "gs_fault_dropped_total",
        "packets dropped pre-dispatch by injected faults")
    stream_time = registry.gauge(
        "gs_stream_time_seconds", "latest observed stream time")
    # Block instrumentation keeps the distinctive gs_batch prefix: the
    # block-size differential harness strips gs_batch* before diffing
    # snapshots (these counters differ by construction).
    batches = registry.counter(
        "gs_batch_blocks_fed_total",
        "packet blocks dispatched to the LFTAs")
    batch_size_gauge = registry.gauge(
        "gs_batch_size", "configured packets per block")
    columnar_blocks = registry.counter(
        "gs_batch_columnar_blocks_total",
        "packet blocks decoded into columnar form by LFTAs")
    node_counters = {
        stat: registry.counter(
            f"gs_node_{stat}_total", f"per-node {stat}", labels=("node",))
        for stat in ("tuples_in", "tuples_out", "discarded",
                     "punctuations_in", "punctuations_out")
    }
    node_extra = registry.gauge(
        "gs_node_extra", "operator-specific counters "
        "(packets_seen, buffered, reorder_peak, ...)",
        labels=("node", "stat"))
    channel_gauges = {
        stat: registry.gauge(
            f"gs_channel_{stat}", f"per-channel {stat}", labels=("channel",))
        for stat in ("depth", "max_depth", "capacity")
    }
    channel_counters = {
        stat: registry.counter(
            f"gs_channel_{stat}_total", f"per-channel {stat}",
            labels=("channel",))
        for stat in ("pushed", "popped", "dropped")
    }

    def collect() -> None:
        packets.set(rts.packets_fed)
        nbytes.set(rts.bytes_fed)
        heartbeats.set(rts.heartbeats_sent)
        heartbeats_suppressed.set(rts.heartbeats_suppressed)
        quarantined.set(rts.nodes_quarantined)
        fault_dropped.set(rts.fault_dropped)
        batches.set(rts.batches_fed)
        batch_size_gauge.set(rts.batch_size)
        columnar_blocks.set(sum(
            getattr(node, "columnar_blocks", 0)
            for _, node in rts.iter_nodes()))
        if rts.stream_time > float("-inf"):
            stream_time.set(rts.stream_time)
        # Nodes and channels come and go; rebuild the label sets so a
        # removed query does not linger in the exposition.
        for family in node_counters.values():
            family.clear()
        node_extra.clear()
        for family in channel_gauges.values():
            family.clear()
        for family in channel_counters.values():
            family.clear()
        for name, snapshot in engine_snapshot(rts).items():
            for stat, family in node_counters.items():
                family.labels(node=name).set(snapshot[stat])
            for stat in NODE_EXTRA_ATTRS:
                if stat in snapshot:
                    node_extra.labels(node=name, stat=stat).set(
                        snapshot[stat])
            if "hash_collisions" in snapshot:
                node_extra.labels(node=name, stat="hash_collisions").set(
                    snapshot["hash_collisions"])
            for channel_name, channel in snapshot.get("channels", {}).items():
                for stat, family in channel_gauges.items():
                    value = channel[stat]
                    family.labels(channel=channel_name).set(
                        value if value is not None else -1)
                for stat, family in channel_counters.items():
                    family.labels(channel=channel_name).set(channel[stat])

    registry.add_collector(collect)


def install_recovery_metrics(registry: MetricsRegistry, supervisor) -> None:
    """Export the recovery supervisor's ledger through ``registry``.

    All families carry the distinctive ``gs_recovery`` prefix: ``replay
    verify`` drops ``gs_recovery*`` before diffing two arms that differ
    in their crash (``repro.determinism.comparable``), since a crash run
    restarts nodes and a clean run does not (these counters differ by
    design).
    """
    checkpoints = registry.counter(
        "gs_recovery_checkpoints_total",
        "crash-consistent checkpoints cut at pump boundaries")
    checkpoint_bytes = registry.gauge(
        "gs_recovery_checkpoint_bytes",
        "encoded size of the latest full checkpoint")
    restarts = registry.counter(
        "gs_recovery_restarts_total",
        "restore-and-replay attempts across all nodes")
    replayed = registry.counter(
        "gs_recovery_replayed_items_total",
        "journal entries re-dispatched during gap repair")
    suppressed = registry.counter(
        "gs_recovery_suppressed_rows_total",
        "already-delivered rows suppressed during replay (exactly-once)")
    exhausted = registry.counter(
        "gs_recovery_retries_exhausted_total",
        "nodes degraded to permanent quarantine after the retry budget")
    suspended = registry.gauge(
        "gs_recovery_nodes_suspended",
        "nodes awaiting a backoff retry")
    journal_len = registry.gauge(
        "gs_recovery_journal_len",
        "journal entries retained since the last checkpoint")

    def collect() -> None:
        checkpoints.set(supervisor.checkpoints_taken)
        checkpoint_bytes.set(supervisor.checkpoint_bytes)
        restarts.set(supervisor.restarts_total)
        replayed.set(supervisor.replayed_items)
        suppressed.set(supervisor.suppressed_rows)
        exhausted.set(supervisor.retries_exhausted)
        suspended.set(len(supervisor._suspended))
        journal_len.set(supervisor.journal_len)

    registry.add_collector(collect)


def install_alert_metrics(registry: MetricsRegistry, alert_engine) -> None:
    """Export the alert plane's ledger through ``registry``.

    Per-trigger families carry a ``trigger`` label; the label set is
    rebuilt each collection so removed triggers do not linger.
    """
    triggers = registry.gauge(
        "gs_alert_triggers", "trigger definitions installed")
    ticks = registry.counter(
        "gs_alert_ticks_total", "epoch-clock ticks sent at pump boundaries")
    active = registry.gauge(
        "gs_alert_active", "keys currently raised", labels=("trigger",))
    raised = registry.counter(
        "gs_alert_raised_total", "RAISE events emitted", labels=("trigger",))
    cleared = registry.counter(
        "gs_alert_cleared_total", "CLEAR events emitted", labels=("trigger",))
    suppressed = registry.counter(
        "gs_alert_suppressed_total",
        "raises withheld by per-trigger rate limiting", labels=("trigger",))
    epochs = registry.counter(
        "gs_alert_epochs_evaluated_total",
        "evaluation epochs closed", labels=("trigger",))

    def collect() -> None:
        triggers.set(len(alert_engine.triggers))
        ticks.set(alert_engine.ticks_sent)
        for family in (active, raised, cleared, suppressed, epochs):
            family.clear()
        for name, node in alert_engine.triggers.items():
            active.labels(trigger=name).set(node.alerts_active)
            raised.labels(trigger=name).set(node.alerts_raised)
            cleared.labels(trigger=name).set(node.alerts_cleared)
            suppressed.labels(trigger=name).set(node.alerts_suppressed)
            epochs.labels(trigger=name).set(node.epochs_evaluated)

    registry.add_collector(collect)


def install_telemetry_metrics(registry: MetricsRegistry, hub) -> None:
    """Export the telemetry hub's ledger through ``registry``.

    Every family carries the ``gs_telemetry`` prefix so it can never
    collide with the collector families above -- the ``_gs_*`` stream
    *nodes* are ordinary registered nodes and already appear under
    ``gs_node_*{node="_gs_channel"}`` etc.; these families cover only
    what the hub adds on top (sampling cadence, per-stream row counts,
    and the wall-clock profile, which is observability-only and never
    enters the replayable streams).
    """
    samples = registry.counter(
        "gs_telemetry_samples_total",
        "telemetry samples taken at pump boundaries")
    last_sample = registry.gauge(
        "gs_telemetry_last_sample_time_seconds",
        "virtual time of the latest telemetry sample")
    rows = registry.counter(
        "gs_telemetry_rows_total",
        "rows emitted per telemetry stream", labels=("stream",))
    profiled = registry.counter(
        "gs_telemetry_profile_cycles_total",
        "pump cycles the sampling profiler timed")
    wall = registry.counter(
        "gs_telemetry_profile_wall_us_total",
        "wall-clock microseconds of pump-drain work attributed per "
        "operator (sampled cycles only)", labels=("operator",))
    virtual = registry.counter(
        "gs_telemetry_profile_virtual_us_total",
        "Section 4 virtual-time microseconds attributed per operator",
        labels=("operator",))

    def collect() -> None:
        samples.set(hub.samples_taken)
        if not math.isinf(hub._last_sample):
            last_sample.set(hub._last_sample)
        for stream, node in hub.nodes.items():
            rows.labels(stream=stream).set(node.stats.tuples_out)
        profiler = hub.profiler
        profiled.set(profiler.profiled_cycles)
        wall.clear()
        for operator, value in profiler.wall_us().items():
            wall.labels(operator=operator).set(value)
        virtual.clear()
        for operator, value in hub.virtual_us.items():
            virtual.labels(operator=operator).set(value)

    registry.add_collector(collect)


def install_replication_metrics(registry: MetricsRegistry, pair) -> None:
    """Export the replication plane's ledger through ``registry``.

    ``pair`` is a :class:`repro.replication.ReplicatedGigascope`.  All
    families carry the distinctive ``gs_repl`` prefix: ``replay verify``
    compares rows only across a topology change, but any
    snapshot-diffing caller can strip ``gs_repl*`` the way
    ``gs_recovery*`` is stripped.
    """
    frames = registry.counter(
        "gs_repl_frames_total",
        "replication frames cut at quiescent pump boundaries",
        labels=("kind",))
    frame_bytes = registry.counter(
        "gs_repl_bytes_total", "encoded replication frame bytes shipped")
    nodes_shipped = registry.counter(
        "gs_repl_nodes_shipped_total",
        "per-node state blobs carried by frames (delta frames carry "
        "only the nodes whose state changed)")
    skipped = registry.counter(
        "gs_repl_skipped_unquiescent_total",
        "frame cuts deferred because a channel held in-flight items")
    last_seq = registry.gauge(
        "gs_repl_last_frame_seq", "sequence number of the latest frame "
        "applied by the standby (-1 before the full epoch)")
    last_time = registry.gauge(
        "gs_repl_last_frame_time_seconds",
        "virtual time of the latest applied frame")
    lag = registry.gauge(
        "gs_repl_standby_lag_seconds",
        "primary stream time minus the latest applied frame's time "
        "(the recovery-point exposure right now)")
    apply_errors = registry.counter(
        "gs_repl_apply_errors_total",
        "frames the standby refused (corrupt, stale-version, or "
        "out-of-order; never applied partially)")
    promotions = registry.counter(
        "gs_repl_promotions_total",
        "standby promotions after a detected primary failure")
    replayed = registry.counter(
        "gs_repl_replayed_packets_total",
        "journal-tail packets re-fed through the promoted standby")
    suppressed = registry.counter(
        "gs_repl_suppressed_rows_total",
        "already-delivered rows dropped by the promotion skip gates "
        "(exactly-once output)")

    def collect() -> None:
        shipped, replica = pair.shipper.report(), pair.replica
        frames.clear()
        frames.labels(kind="full").set(shipped["frames_full"])
        frames.labels(kind="delta").set(shipped["frames_delta"])
        frame_bytes.set(shipped["bytes_total"])
        nodes_shipped.set(shipped["nodes_shipped"])
        skipped.set(shipped["skipped_unquiescent"])
        last_seq.set(replica.applied_seq)
        if not math.isinf(replica.applied_time):
            last_time.set(replica.applied_time)
            primary_time = pair.primary.rts.stream_time
            if not math.isinf(primary_time):
                lag.set(primary_time - replica.applied_time)
        apply_errors.set(len(pair.apply_errors))
        promotions.set(pair.promotions)
        replayed.set(pair.replayed_packets)
        suppressed.set(pair.suppressed_rows)

    registry.add_collector(collect)


def install_shard_metrics(registry: MetricsRegistry, runtime) -> None:
    """Export the sharded runtime's parent-side ledger through ``registry``.

    Everything here carries the ``gs_shard`` prefix.  The families
    cover what only the parent can see -- per-shard packet/row/restart
    accounting, quarantines, cross-process drop totals -- plus the
    merge operators' output counts; the per-node statistics *inside*
    each worker travel in its ``end`` frame and surface through
    ``stats()`` / the report instead (a worker's own registry dies with
    its process).
    """
    count = registry.gauge(
        "gs_shard_count", "worker processes the runtime partitions across")
    generations = registry.counter(
        "gs_shard_generations_total", "feed() generations dispatched")
    packets = registry.counter(
        "gs_shard_packets_total",
        "packets processed per worker shard", labels=("shard",))
    rows = registry.counter(
        "gs_shard_partial_rows_total",
        "partial-aggregate rows shipped to the parent", labels=("shard",))
    restarts = registry.counter(
        "gs_shard_restarts_total",
        "worker respawns from a shard snapshot", labels=("shard",))
    snapshots = registry.counter(
        "gs_shard_snapshots_total",
        "shard checkpoints cut at barrier crossings", labels=("shard",))
    channel_dropped = registry.counter(
        "gs_shard_channel_dropped_total",
        "worker-side channel overflow drops", labels=("shard",))
    dropped_packets = registry.counter(
        "gs_shard_dropped_packets_total",
        "packets lost to a quarantined shard (accounted, not silent)",
        labels=("shard",))
    quarantined = registry.gauge(
        "gs_shard_quarantined",
        "shards permanently quarantined after the restart budget")
    merge_rows = registry.counter(
        "gs_shard_merge_rows_total",
        "finalized rows emitted by the parent's combine operators",
        labels=("query",))

    def collect() -> None:
        count.set(runtime.shards)
        generations.set(runtime.generations)
        for family in (packets, rows, restarts, snapshots,
                       channel_dropped, dropped_packets):
            family.clear()
        for shard in range(runtime.shards):
            label = str(shard)
            packets.labels(shard=label).set(runtime.shard_packets[shard])
            rows.labels(shard=label).set(runtime.shard_rows[shard])
            restarts.labels(shard=label).set(runtime.shard_restarts[shard])
            snapshots.labels(shard=label).set(
                runtime.shard_snapshots[shard])
            channel_dropped.labels(shard=label).set(
                runtime.shard_channel_dropped[shard])
            dropped_packets.labels(shard=label).set(
                runtime.shard_dropped_packets[shard])
        quarantined.set(len(runtime.quarantined))
        merge_rows.clear()
        for name, sink in runtime._sinks.items():
            if sink.partial:
                merge_rows.labels(query=name).set(sink.node.stats.tuples_out)

    registry.add_collector(collect)


def bind_nic(registry: MetricsRegistry, nic, name: str = "nic0") -> None:
    """Export a simulated NIC's ring occupancy and drop counters."""
    counters = {
        stat: registry.counter(
            f"gs_nic_{stat}_total", f"NIC {stat}", labels=("nic",))
        for stat in ("received", "filtered", "ring_dropped",
                     "delivered_packets", "delivered_tuples")
    }
    occupancy = registry.gauge(
        "gs_nic_ring_occupancy", "packets queued in the card's ring",
        labels=("nic",))
    loss = registry.gauge(
        "gs_nic_loss_rate", "ring drops / packets received", labels=("nic",))

    def collect() -> None:
        stats = nic.stats
        for stat, family in counters.items():
            family.labels(nic=name).set(getattr(stats, stat))
        occupancy.labels(nic=name).set(nic.ring_occupancy)
        loss.labels(nic=name).set(nic.loss_rate)

    registry.add_collector(collect)
