"""The on-NIC run-time system: LFTAs executing on the card.

"Depending on the capabilities of the NIC, Gigascope can perform
further optimizations.  If the NIC has an appropriate RTS, we execute
the LFTAs inside the NIC." (Section 3)

:class:`NicRts` hosts one or more LFTA nodes whose emitted tuples are
captured locally (the card buffers them) instead of flowing through
host channels; the NIC model ships the batches to the host.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.channels import Channel
from repro.net.packet import CapturedPacket
from repro.operators.lfta import LftaNode


class NicRts:
    """Executes LFTAs on the card and collects their output tuples."""

    def __init__(self, lftas: Optional[List[LftaNode]] = None) -> None:
        self.lftas: List[LftaNode] = []
        self._taps: List[Channel] = []
        for lfta in lftas or []:
            self.add_lfta(lfta)

    def add_lfta(self, lfta: LftaNode) -> None:
        """Install an LFTA on the card, tapping its output stream."""
        tap = lfta.subscribe(name=f"{lfta.name}@nic")
        self.lftas.append(lfta)
        self._taps.append(tap)

    def _drain(self, step) -> List[tuple]:
        """``step`` every on-card LFTA; the tuples that left them."""
        rows: List[tuple] = []
        for lfta, tap in zip(self.lftas, self._taps):
            step(lfta)
            rows.extend(item for item in tap.drain() if type(item) is tuple)
        return rows

    def execute(self, packet: CapturedPacket) -> List[tuple]:
        """Run every on-card LFTA on one packet; return emitted tuples."""
        return self._drain(lambda lfta: lfta.accept_packet(packet))

    def heartbeat(self, stream_time: float) -> List[tuple]:
        """Propagate a heartbeat through the on-card LFTAs."""
        return self._drain(lambda lfta: lfta.on_heartbeat(stream_time))

    def flush(self) -> List[tuple]:
        return self._drain(LftaNode.flush)
