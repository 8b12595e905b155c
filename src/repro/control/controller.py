"""The overload controller: collect, decide, install, account.

Attached to the RTS as the ``shed`` plane, the controller's
``on_cycle`` runs once per pump cycle *before* the channels drain, so
depth readings reflect the backlog the cycle actually accumulated.
Each cycle it

1. collects a :class:`~repro.control.signals.PressureSample` from the
   signals bus,
2. asks the shedding policy for a keep-rate, and
3. installs that rate as a packet-sampling gate on every LFTA
   (any node exposing ``set_shed_rate``).

The gate is the paper's sampling "technique of last resort" made
automatic; LFTAs scale additive aggregates by 1/rate so COUNT and SUM
stay unbiased.  :meth:`OverloadController.report` is the end-to-end
drop ledger: what the NIC lost, what channels overflowed, what was shed
on purpose, and what the controller was doing about it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.control.shedding import AimdShedding, SheddingPolicy, make_policy
from repro.control.signals import PressureSample, SignalsBus
from repro.obs.ledger import Field, Ledger
from repro.sim.cost_model import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.stream_manager import RuntimeSystem
    from repro.nic.nic import Nic


def _channel_report(rts: "RuntimeSystem") -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for channel in rts.channels():
        stats = channel.stats
        capacity = channel.capacity
        out[channel.name] = {
            "depth": len(channel),
            "capacity": capacity,
            "max_depth": stats.max_depth,
            "watermark": (stats.max_depth / capacity) if capacity else 0.0,
            "pushed": stats.pushed,
            "dropped": stats.dropped,
        }
    return out


def _shed_report(rts: "RuntimeSystem") -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for name, node in rts.iter_nodes():
        seen = getattr(node, "packets_seen", None)
        shed = getattr(node, "shed_packets", None)
        if seen is None or shed is None:
            continue
        out[name] = {
            "packets_seen": seen,
            "packets_shed": shed,
            "shed_fraction": (shed / seen) if seen else 0.0,
            "shed_rate": getattr(node, "shed_rate", 1.0),
        }
    return out


def overload_snapshot(rts: "RuntimeSystem") -> Dict[str, Any]:
    """Drop accounting without a controller: what was lost, uncorrected.

    Losses the control plane did not *choose* are in the ledger too:
    packets dropped by injected faults, heartbeats an injected silence
    withheld, and nodes the RTS quarantined after a failure.
    """
    channels = _channel_report(rts)
    lftas = _shed_report(rts)
    snapshot = {
        "policy": "disabled",
        "shed_rate": 1.0,
        "channels": channels,
        "channel_dropped": sum(c["dropped"] for c in channels.values()),
        "lftas": lftas,
        "packets_shed": sum(l["packets_shed"] for l in lftas.values()),
        "shed_fraction": 0.0,
        "quarantined": dict(rts.quarantined),
        "fault_dropped": rts.fault_dropped,
        "heartbeats_suppressed": rts.heartbeats_suppressed,
    }
    if rts.faults:
        snapshot["faults"] = [fault.report() for fault in rts.faults]
    return snapshot


def _signal(name: str, before_first: Any = None):
    """Read one signal off the latest :class:`PressureSample`."""
    return lambda controller: (getattr(controller.last_sample, name)
                               if controller.last_sample else before_first)


#: The shed plane's counters, then every signal its policy saw last
#: cycle (exported only: a key of None is in no report).
#: ``packets_shed``, ``shed_delta`` and ``channel_dropped`` are sums
#: over nodes and channels: the telemetry sampler passes them to ``row``
#: from the walk it makes anyway (and a delta exists only between two
#: of its samples).
LEDGER = Ledger("shed", (
    Field("shed_rate", "gs_shed_rate", "gauge",
          "keep-rate installed on the LFTA sampling gates (1.0 = no shedding)",
          column="shed_rate", off=1.0),
    Field("packets_shed", column="packets_shed", read=lambda controller: sum(
        getattr(node, "shed_packets", 0) or 0
        for _, node in controller.rts.iter_nodes())),
    Field("packets_shed", column="shed_delta", read=lambda controller: 0),
    Field("channel_dropped", column="channel_dropped", read=lambda controller:
          sum(channel.stats.dropped for channel in controller.rts.channels())),
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


class OverloadController:
    """The control loop between the signals bus and the LFTA gates."""

    ledger = LEDGER

    def __init__(
        self,
        rts: "RuntimeSystem",
        policy: Any = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.rts = rts
        self.policy: SheddingPolicy = (
            AimdShedding() if policy is None else make_policy(policy)
        )
        self.bus = SignalsBus(rts, cost_model=cost_model)
        self.shed_rate = 1.0
        self.min_rate_seen = 1.0
        self.cycles = 0
        self.pressured_cycles = 0
        self.last_sample: Optional[PressureSample] = None
        #: node names currently held at keep-rate 1.0 because a raised
        #: alert depends on them (AlertEngine.shed_exempt_nodes)
        self.exempt_nodes: frozenset = frozenset()
        self.exempt_cycles = 0
        rts.attach_plane(self)

    def watch_nic(self, nic: "Nic") -> None:
        self.bus.watch_nic(nic)

    # -- the control loop (the RTS's on_cycle event) -----------------------
    def on_cycle(self, stream_time: float) -> PressureSample:
        sample = self.bus.collect(stream_time)
        self.cycles += 1
        if sample.drops_delta > 0 or sample.utilization > 1.0:
            self.pressured_cycles += 1
        rate = self.policy.update(sample)
        # A trigger raised on a feeder query pins that query's whole
        # upstream (through merges/joins down to its LFTAs) at keep-rate
        # 1.0 until the alert CLEARs: while the system is reporting an
        # incident, the evidence for it is not thinned.  Exemption takes
        # effect the cycle after the RAISE (triggers evaluate during the
        # drain, after this hook ran).
        alert_engine = self.rts.planes.get("alerts")
        exempt = (frozenset(alert_engine.shed_exempt_nodes())
                  if alert_engine is not None else frozenset())
        if exempt:
            self.exempt_cycles += 1
        if rate != self.shed_rate or exempt != self.exempt_nodes:
            self._install(rate, exempt)
        self.exempt_nodes = exempt
        self.shed_rate = rate
        if rate < self.min_rate_seen:
            self.min_rate_seen = rate
        self.last_sample = sample
        return sample

    def _install(self, rate: float,
                 exempt: frozenset = frozenset()) -> None:
        for name, node in self.rts.iter_nodes():
            set_rate = getattr(node, "set_shed_rate", None)
            if set_rate is not None:
                set_rate(1.0 if name in exempt else rate)

    # -- telemetry ----------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The end-to-end overload ledger (see ``Gigascope.overload_report``):
        the drop snapshot plus what the controller was doing about it."""
        report = overload_snapshot(self.rts)
        seen = sum(l["packets_seen"] for l in report["lftas"].values())
        report.update(
            policy=self.policy.name,
            policy_state=self.policy.describe(),
            shed_rate=self.shed_rate,
            min_shed_rate=self.min_rate_seen,
            cycles=self.cycles,
            pressured_cycles=self.pressured_cycles,
            packets_seen=seen,
            shed_fraction=(report["packets_shed"] / seen) if seen else 0.0,
            exempt_nodes=sorted(self.exempt_nodes),
            exempt_cycles=self.exempt_cycles,
            utilization={
                "last": (self.last_sample.utilization
                         if self.last_sample else 0.0),
                "peak": self.bus.peak_utilization,
            },
            peak_fill=self.bus.peak_fill,
        )
        if self.bus.nics:
            report["nic"] = {
                "received": sum(n.stats.received for n in self.bus.nics),
                "ring_dropped": sum(n.stats.ring_dropped
                                    for n in self.bus.nics),
            }
        return report
