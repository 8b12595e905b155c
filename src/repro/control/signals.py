"""The pressure-signals bus: what the control plane can see.

Every pump cycle the bus snapshots the resource indicators the rest of
the stack already maintains but nothing previously observed:

* channel depth, capacity, and drop counters (:mod:`repro.core.channels`),
* per-node tuple rates (:class:`~repro.core.stream_manager.RuntimeSystem`
  node statistics),
* NIC ring drops (:class:`repro.nic.nic.NicStats.ring_dropped`), and
* estimated host CPU utilization in virtual time, from the packet/byte
  rates and the :class:`~repro.sim.cost_model.CostModel` per-packet
  receive cost.

Counters are cumulative; the bus differences them against the previous
cycle so policies see *rates*, not lifetime totals.  The bus reads
channels and nodes itself, not through ``engine_snapshot`` (a snapshot
every pump cycle costs ``planes_on`` about 2.6 % of its throughput,
DESIGN section 8), but differences them by the same rule: a node's
previous output kept per node object, a new node from zero, and a
channel drop total that counts detached channels too
(``rts.retired_dropped``), so it never falls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.cost_model import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.stream_manager import RuntimeSystem
    from repro.nic.nic import Nic


@dataclass
class PressureSample:
    """Everything a shedding policy gets to look at, one cycle's worth."""

    stream_time: float
    cycle: int
    max_fill: float = 0.0
    channel_drops_total: int = 0
    channel_drops_delta: int = 0
    nic_drops_total: int = 0
    nic_drops_delta: int = 0
    #: packets/second of stream time since the previous sample
    packet_rate: float = 0.0
    #: per-node output tuples/second since the previous sample
    node_rates: Dict[str, float] = field(default_factory=dict)
    #: estimated host CPU utilization (1.0 = saturated) in virtual time
    utilization: float = 0.0

    @property
    def drops_delta(self) -> int:
        """New losses anywhere in the stack since the last cycle."""
        return self.channel_drops_delta + self.nic_drops_delta


class SignalsBus:
    """Collects :class:`PressureSample` snapshots from a running RTS."""

    def __init__(self, rts: "RuntimeSystem",
                 cost_model: Optional[CostModel] = None) -> None:
        self.rts = rts
        self.cost_model = cost_model or CostModel()
        self.nics: List["Nic"] = []
        self.cycle = 0
        self.peak_utilization = 0.0
        self.peak_fill = 0.0
        self._last_channel_drops = 0
        #: last cycle's output counts, keyed by the node object
        self._last_node_out: Dict[object, int] = {}
        self._last_nic_drops = 0
        self._last_packets = 0
        self._last_bytes = 0
        self._last_time: Optional[float] = None

    def watch_nic(self, nic: "Nic") -> None:
        """Include a simulated NIC's ring drops in the pressure signal."""
        self.nics.append(nic)

    def snapshot_state(self) -> Dict[str, object]:
        """Peaks and last cycle's readings (a node's by name): all but
        what the bus is wired to."""
        state = {key: value for key, value in vars(self).items()
                 if key not in ("rts", "cost_model", "nics")}
        state["_last_node_out"] = {node.name: out for node, out
                                   in self._last_node_out.items()}
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        nodes = dict(self.rts.iter_nodes())
        vars(self).update(state, _last_node_out={
            nodes[name]: out for name, out in state["_last_node_out"].items()
            if name in nodes})

    def collect(self, stream_time: float) -> PressureSample:
        """Snapshot all signals and difference them against last cycle."""
        self.cycle += 1
        sample = PressureSample(stream_time=stream_time, cycle=self.cycle)

        sample.channel_drops_total = self.rts.retired_dropped
        for channel in self.rts.channels():
            sample.channel_drops_total += channel.stats.dropped
            fill = (len(channel) / channel.capacity
                    if channel.capacity else 0.0)
            if fill > sample.max_fill:
                sample.max_fill = fill
        sample.channel_drops_delta = (sample.channel_drops_total
                                      - self._last_channel_drops)
        self._last_channel_drops = sample.channel_drops_total

        for nic in self.nics:
            sample.nic_drops_total += nic.stats.ring_dropped
        sample.nic_drops_delta = sample.nic_drops_total - self._last_nic_drops
        self._last_nic_drops = sample.nic_drops_total

        elapsed = (stream_time - self._last_time
                   if self._last_time is not None else 0.0)
        packets = self.rts.packets_fed - self._last_packets
        nbytes = self.rts.bytes_fed - self._last_bytes
        last_out, outs = self._last_node_out, {}
        for name, node in self.rts.iter_nodes():
            out = outs[node] = node.stats.tuples_out
            if elapsed > 0:
                sample.node_rates[name] = ((out - last_out.get(node, 0))
                                           / elapsed)
        self._last_node_out = outs
        if elapsed > 0 and packets > 0:
            sample.packet_rate = packets / elapsed
            mean_caplen = nbytes / packets
            busy_us = packets * self.cost_model.packet_cpu_us(mean_caplen)
            sample.utilization = busy_us / (elapsed * 1e6)
        self._last_time = stream_time
        self._last_packets = self.rts.packets_fed
        self._last_bytes = self.rts.bytes_fed

        if sample.utilization > self.peak_utilization:
            self.peak_utilization = sample.utilization
        if sample.max_fill > self.peak_fill:
            self.peak_fill = sample.max_fill
        return sample
