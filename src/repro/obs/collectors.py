"""Collectors: the one walk of the engine every counter surface renders.

:func:`engine_snapshot` is the only code that reads node and channel
counters for reporting: ``RuntimeSystem.stats()``, the metrics, the
overload ledger, :func:`repro.report.engine_report` and the
``_gs_channel``/``_gs_operator``/``_gs_shed`` rows render it.  Channel
names are unique for the RTS's life (``RuntimeSystem.open_channel``),
and a per-sample delta is :func:`delta` between two snapshots.

:func:`install_engine_metrics` registers a lazy collector on a
:class:`~repro.obs.registry.MetricsRegistry`; it runs only when a
metrics snapshot is taken, so the packet path pays nothing for it.  The
control planes' families are not here: each plane declares a ledger
next to its ``report()`` and :mod:`repro.obs.ledger` renders it.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.obs.registry import MetricsRegistry

#: Operator-specific counters, beyond the NodeStats five, that every
#: rendering of :func:`node_snapshot` carries.
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
    """The canonical per-node statistics dict, its output channels
    nested under ``channels`` by name."""
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


def delta(current: Mapping[str, Any], previous: Optional[Mapping[str, Any]],
          stat: str) -> int:
    """How far ``stat`` grew since ``previous``, the same object's entry
    in an earlier snapshot (None: a new object, which starts at zero).
    DBSP's D of I: never a private copy of a counter, so a delta can
    neither read a removed object's counters nor lose a new one's."""
    return current.get(stat, 0) - (previous or {}).get(stat, 0)


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
