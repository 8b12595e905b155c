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
from repro.obs.collectors import engine_snapshot
from repro.obs.plane_ledgers import SHED
from repro.sim.cost_model import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.stream_manager import RuntimeSystem
    from repro.nic.nic import Nic


def overload_snapshot(rts: "RuntimeSystem") -> Dict[str, Any]:
    """Drop accounting without a controller: what was lost, uncorrected.

    A rendering of :func:`~repro.obs.collectors.engine_snapshot`: every
    channel, and every packet consumer with a shedding gate;
    ``channel_dropped`` counts the drops of channels since detached too
    (``rts.retired_dropped``).  Losses the control plane did not
    *choose* are in the ledger too: packets dropped by injected faults,
    heartbeats an injected silence withheld, and nodes the RTS
    quarantined after a failure.
    """
    channels: Dict[str, Dict[str, Any]] = {}
    lftas: Dict[str, Dict[str, Any]] = {}
    for name, entry in engine_snapshot(rts).items():
        if "packets_seen" in entry and "shed_packets" in entry:
            seen, shed = entry["packets_seen"], entry["shed_packets"]
            lftas[name] = dict(  # shed_rate: the gate's setting
                packets_seen=seen, packets_shed=shed,
                shed_fraction=shed / seen if seen else 0.0,
                shed_rate=getattr(rts.node(name), "shed_rate", 1.0))
        for channel, stats in entry.get("channels", {}).items():
            peak, capacity = stats["max_depth"], stats["capacity"]
            channels[channel] = dict(
                depth=stats["depth"], capacity=capacity, max_depth=peak,
                watermark=peak / capacity if capacity else 0.0,
                pushed=stats["pushed"], dropped=stats["dropped"])
    snapshot = {
        "policy": "disabled",
        "shed_rate": 1.0,
        "channels": channels,
        "channel_dropped": rts.retired_dropped + sum(
            c["dropped"] for c in channels.values()),
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


class OverloadController:
    """The control loop between the signals bus and the LFTA gates."""

    #: in repro.obs.plane_ledgers, which telemetry reads without this plane
    ledger = SHED

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

    # -- rollback (DESIGN section 11) ----------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """The loop's counters, last sample, policy and bus state."""
        return {"loop": (self.shed_rate, self.min_rate_seen, self.cycles,
                         self.pressured_cycles, self.exempt_cycles,
                         sorted(self.exempt_nodes)),
                "sample": self.last_sample and vars(self.last_sample),
                "policy": vars(self.policy), "bus": self.bus.snapshot_state()}

    def restore_state(self, state: Dict[str, Any]) -> None:
        (self.shed_rate, self.min_rate_seen, self.cycles,
         self.pressured_cycles, self.exempt_cycles, exempt) = state["loop"]
        self.exempt_nodes = frozenset(exempt)
        sample = state["sample"]
        self.last_sample = sample and PressureSample(**sample)
        vars(self.policy).update(state["policy"])
        self.bus.restore_state(state["bus"])

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
