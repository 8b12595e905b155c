"""The simulated NIC: ring buffer, prefilter, snap length, on-card LFTAs.

The card is modeled as a single server with a fixed per-packet
processing cost and a bounded wire-side ring
(:class:`repro.sim.capture.RingServer`): packets arriving while the
ring is full are lost on the card ("the most that our router could
handle" bounded the paper's NIC experiment before the Tigon itself
saturated, so the card's capacity is deliberately generous).

Depending on configuration the card

* runs a prefilter -- the guard and prefix of the LFTA that re-checks on
  the host, ``LftaNode.card_filter()``: that LFTA's front end as a
  one-member block kernel with no row action -- and truncates to the
  plan's snap length (``LftaPlan.snaplen``), then delivers raw packets
  to the host (options 2/3 of Section 4), or
* executes LFTAs on the card (option 4): the host then receives only
  the LFTAs' output tuples, each far cheaper than a packet interrupt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.packet import CapturedPacket
from repro.nic.nic_rts import NicRts
from repro.operators.lfta import CardFilter
from repro.sim.capture import RingServer


@dataclass
class NicStats:
    received: int = 0
    filtered: int = 0  # rejected by the card filter
    ring_dropped: int = 0  # lost: card too slow for the wire
    delivered_packets: int = 0
    delivered_tuples: int = 0


class Nic:
    """A programmable gigabit NIC (Tigon-style)."""

    def __init__(
        self,
        service_us: float = 1.2,
        ring_slots: int = 512,
        bpf: Optional[CardFilter] = None,
        snaplen: Optional[int] = None,
        rts: Optional[NicRts] = None,
        lfta_service_us: float = 4.5,
    ) -> None:
        self.service_us = service_us
        self.lfta_service_us = lfta_service_us
        self._ring = RingServer(ring_slots)
        #: the card-side test, handed each arriving packet
        #: (``LftaNode.card_filter()`` of the LFTA that re-checks)
        self.bpf = bpf
        self.snaplen = snaplen
        self.rts = rts
        self.stats = NicStats()
        #: host deliveries: (timestamp_us, payload) where payload is a
        #: CapturedPacket (raw modes) or a tuple batch (on-NIC LFTA mode)
        self.deliveries: List = []
        #: sampled-lineage tracer (repro.obs.tracing), set by
        #: ``Gigascope.observe_nic``; records the card-side span
        self.tracer = None
        #: injected card fault (repro.faults.RingLossBurst arms itself
        #: here); consulted per arrival, drops count as ring losses
        self.fault = None

    def receive(self, packet: CapturedPacket, now_us: float) -> None:
        """A packet arrives from the wire at ``now_us`` (microseconds)."""
        self.stats.received += 1
        trace = None
        if self.tracer is not None:
            # The trace key is content-deterministic, so the card and the
            # host RTS agree on which packets are traced with no shared
            # state (and no packet mutation).
            trace = self.tracer.wants(packet)
            if trace is not None and not self.tracer.begin(
                    trace, packet, "nic", now_us / 1e6, node="nic"):
                trace = None
        if self.fault is not None and self.fault.drops_packet(now_us / 1e6):
            # An injected ring-loss burst: the card is blind, and the
            # loss is accounted exactly like an organic ring drop.
            self.stats.ring_dropped += 1
            if trace is not None:
                self.tracer.event(trace, "nic_drop", "nic", now_us / 1e6)
            return
        service = self.lfta_service_us if self.rts is not None else self.service_us
        if not self._ring.accept(now_us, service):
            self.stats.ring_dropped += 1
            if trace is not None:
                self.tracer.event(trace, "nic_drop", "nic", now_us / 1e6)
            return
        if self.bpf is not None and not self.bpf.matches(packet):
            self.stats.filtered += 1
            # Terminal span event: without it, a prefilter rejection is
            # indistinguishable from a lost packet in trace reconstruction.
            if trace is not None:
                self.tracer.event(trace, "nic_filtered", "nic", now_us / 1e6)
            return
        if self.snaplen is not None:
            packet = packet.truncate(self.snaplen)
        if self.rts is not None:
            rows = self.rts.execute(packet)
            if rows:
                self.stats.delivered_tuples += len(rows)
                self.deliveries.append((now_us, rows))
            return
        self.stats.delivered_packets += 1
        self.deliveries.append((now_us, packet))

    def take_deliveries(self) -> List:
        out = self.deliveries
        self.deliveries = []
        return out

    @property
    def ring_occupancy(self) -> int:
        """Packets currently queued or in service in the card's ring."""
        return len(self._ring)

    @property
    def loss_rate(self) -> float:
        if not self.stats.received:
            return 0.0
        return self.stats.ring_dropped / self.stats.received

    def pressure_signal(self) -> dict:
        """Card-side drop accounting for the overload control plane.

        Register the card with ``OverloadController.watch_nic`` so ring
        losses (the card too slow for the wire) feed the shedding policy
        alongside host-side channel overflow.
        """
        return {
            "received": self.stats.received,
            "ring_dropped": self.stats.ring_dropped,
            "loss_rate": self.loss_rate,
        }
