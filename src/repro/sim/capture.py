"""The four capture stacks of Section 4 and the loss-knee harness.

"We tried four approaches: 1) dumping the data to disk for post-facto
analysis, 2) reading data from the ethernet card using libpcap, then
discarding the packet (best case processing), 3) running Gigascope with
the LFTAs executing in the host (i.e., reading from libpcap), and 4)
running Gigascope with the LFTAs executing on the Tigon gigabit
ethernet card.  We chose a 2% packet drop rate as the maximum
acceptable loss."

Each stack is simulated in virtual time against the
:class:`~repro.sim.cost_model.CostModel`; the workload's qualifying
decision (does the packet pass the port-80 LFTA filter, and how many
payload bytes must the HFTA regex scan) is supplied by a ``qualifier``
callable so the harness can wire in the *real* card-filter/LFTA machinery.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Iterable, List, Optional, Sequence, Tuple

from repro.net.packet import CapturedPacket
from repro.sim.cost_model import CostModel
from repro.sim.disk import DiskModel
from repro.sim.host import HostModel

# qualifier(packet) -> payload bytes the HFTA must scan, or None if the
# packet does not pass the LFTA filter.
Qualifier = Callable[[CapturedPacket], Optional[int]]


class CaptureConfig(enum.Enum):
    DISK_DUMP = "disk_dump"
    LIBPCAP_DISCARD = "libpcap_discard"
    GIGASCOPE_HOST = "gigascope_host"
    GIGASCOPE_NIC = "gigascope_nic"


@dataclass
class CaptureResult:
    config: CaptureConfig
    offered_packets: int = 0
    offered_bytes: int = 0
    duration_s: float = 0.0
    lost_packets: int = 0
    qualifying_packets: int = 0
    host_interrupt_share: float = 0.0
    #: tuples lost in the shared-memory buffer to a saturated second CPU
    hfta_dropped_tuples: int = 0

    @property
    def loss_rate(self) -> float:
        if not self.offered_packets:
            return 0.0
        return self.lost_packets / self.offered_packets

    @property
    def offered_mbps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.offered_bytes * 8 / self.duration_s / 1e6


class RingServer:
    """A single server behind ``ring_slots`` waiting positions, in
    virtual time: a card's CPU behind its wire-side ring (here and in
    :class:`repro.nic.Nic`) and the second host CPU."""

    def __init__(self, ring_slots: int) -> None:
        self.ring_slots = ring_slots
        self._completions: Deque[float] = deque()

    def accept(self, now_us: float, service_us: float) -> bool:
        """Queue one arrival for ``service_us`` of work; False when
        every position is taken."""
        completions = self._completions
        while completions and completions[0] <= now_us:
            completions.popleft()
        if len(completions) >= self.ring_slots:
            return False
        start = completions[-1] if completions else now_us
        completions.append(max(start, now_us) + service_us)
        return True

    def __len__(self) -> int:
        """Arrivals queued or in service as of the last ``accept``."""
        return len(self._completions)


class CaptureSimulation:
    """Simulate one capture stack over a packet stream."""

    def __init__(self, config: CaptureConfig, costs: Optional[CostModel] = None,
                 qualifier: Optional[Qualifier] = None,
                 dual_cpu: bool = False) -> None:
        self.config = config
        self.costs = costs or CostModel()
        self.qualifier = qualifier or (lambda packet: None)
        #: GIGASCOPE_HOST only: run the HFTA on a second CPU (the
        #: deployment hardware of Section 5), so per-tuple query work
        #: does not compete with the receive path.
        self.dual_cpu = dual_cpu

    def run(self, packets: Iterable[CapturedPacket]) -> CaptureResult:
        costs = self.costs
        config = self.config
        qualifier = self.qualifier
        host = HostModel(costs.interrupt_us, costs.host_ring_slots)
        disk = DiskModel(costs.disk_packet_us, costs.disk_per_byte_us,
                         costs.disk_stall_us, costs.disk_stall_every_bytes)
        nic = RingServer(costs.nic_ring_slots)
        # Second host CPU for the HFTA process (dual-CPU ablation).
        hfta_cpu = RingServer(8192) if self.dual_cpu else None
        result = CaptureResult(config=config)
        first_ts = None
        last_ts = 0.0

        for packet in packets:
            now_us = packet.timestamp * 1e6
            if first_ts is None:
                first_ts = packet.timestamp
            last_ts = packet.timestamp
            result.offered_packets += 1
            result.offered_bytes += packet.orig_len
            caplen = packet.caplen

            if config is CaptureConfig.DISK_DUMP:
                service = caplen * costs.copy_per_byte_us + disk.write_cost_us(caplen)
                if not host.arrival(now_us, service):
                    result.lost_packets += 1

            elif config is CaptureConfig.LIBPCAP_DISCARD:
                service = caplen * costs.copy_per_byte_us + costs.libpcap_read_us
                if not host.arrival(now_us, service):
                    result.lost_packets += 1

            elif config is CaptureConfig.GIGASCOPE_HOST:
                service = (
                    caplen * costs.copy_per_byte_us
                    + costs.libpcap_read_us
                    + costs.lfta_filter_us
                )
                payload = qualifier(packet)
                hfta_work = 0.0
                if payload is not None:
                    result.qualifying_packets += 1
                    service += costs.tuple_emit_us
                    hfta_work = (
                        costs.hfta_tuple_us
                        + payload * costs.regex_per_byte_us
                    )
                    if hfta_cpu is None:
                        service += hfta_work
                if not host.arrival(now_us, service):
                    result.lost_packets += 1
                elif hfta_cpu is not None and hfta_work > 0.0:
                    if not hfta_cpu.accept(now_us, hfta_work):
                        result.hfta_dropped_tuples += 1

            else:  # GIGASCOPE_NIC
                if not nic.accept(now_us, costs.nic_lfta_us):
                    result.lost_packets += 1
                    continue
                payload = qualifier(packet)
                if payload is not None:
                    result.qualifying_packets += 1
                    # Tuples DMA to the host in batches: no per-packet
                    # interrupt, just deferred per-tuple work.
                    host.work(
                        now_us,
                        costs.nic_tuple_host_us
                        + costs.hfta_tuple_us
                        + payload * costs.regex_per_byte_us,
                    )

        if first_ts is not None:
            result.duration_s = max(last_ts - first_ts, 1e-9)
            host.drain(last_ts * 1e6 + 1e6)
        total_cpu = host.stats.interrupt_us + host.stats.processing_us
        if total_cpu > 0:
            result.host_interrupt_share = host.stats.interrupt_us / total_cpu
        return result


def find_loss_knee(
    run_at: Callable[[float], float],
    low: float,
    high: float,
    threshold: float = 0.02,
    tolerance: float = 5.0,
) -> float:
    """Largest rate in [low, high] with loss <= threshold (bisection).

    ``run_at(rate_mbps)`` must return the measured loss rate.  Loss is
    assumed nondecreasing in offered load (true for all four stacks).
    """
    if run_at(low) > threshold:
        return low
    if run_at(high) <= threshold:
        return high
    while high - low > tolerance:
        mid = (low + high) / 2
        if run_at(mid) <= threshold:
            low = mid
        else:
            high = mid
    return low


def sweep(run_at: Callable[[float], float],
          rates: Sequence[float]) -> List[Tuple[float, float]]:
    """Loss rate at each offered rate; the raw series behind the figure."""
    return [(rate, run_at(rate)) for rate in rates]
