"""Seeded packet lists for the six workloads, and their identity digest.

Everything the engine sees is a pre-generated ``list`` of
``CapturedPacket``; generation happens before the timed region.
``seed`` offsets every generator seed, so one ``--seed`` names one exact
input (recorded as ``loadgen.digest``), and ``scale`` multiplies the
rates (``--smoke`` uses 1/80 of the traffic over the same virtual span,
so windows still close).
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List

from repro import CapturedPacket
from repro.net.build import build_tcp_frame
from repro.net.tcp import FLAG_ACK, FLAG_SYN
from repro.workloads import (
    ZipfFlowWorkload,
    background_pool,
    http_port80_pool,
    merge_streams,
    packet_stream,
    section4_stream,
)

SMOKE_SCALE = 1 / 80


@dataclass
class Generated:
    packets: List[CapturedPacket]
    #: generator-side ground truth the oracle cross-checks against
    truth: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def first(cls, count: int, stream) -> "Generated":
        """Exactly ``count`` packets: pool frame sizes vary with the seed
        and would otherwise move the packet count by a few percent."""
        packets = list(islice(stream, count))
        if len(packets) != count:
            raise AssertionError(f"stream ended after {len(packets)} packets")
        return cls(packets)

    @property
    def virtual_span_s(self) -> float:
        return self.packets[-1].timestamp - self.packets[0].timestamp

    @property
    def nbytes(self) -> int:
        return sum(len(packet.data) for packet in self.packets)


def digest(packets: List[CapturedPacket]) -> str:
    """sha256 over every timestamp, interface and frame, in order."""
    sha = hashlib.sha256()
    pack = struct.Struct("<dI").pack
    for packet in packets:
        sha.update(pack(packet.timestamp, len(packet.data)))
        sha.update(packet.interface.encode())
        sha.update(packet.data)
    return sha.hexdigest()


def e2_links(seed: int, scale: float) -> Generated:
    """Section 5: two links of port-80 traffic, 25 Mbit/s each; the first
    330 k packets (about 16 s)."""
    base = seed * 1000
    link0 = packet_stream(http_port80_pool(seed=base + 1), 25.0 * scale, 20.0,
                          interface="eth0", seed=base + 3)
    link1 = packet_stream(http_port80_pool(seed=base + 2), 25.0 * scale, 20.0,
                          interface="eth1", seed=base + 4)
    return Generated.first(int(330_000 * scale), merge_streams(link0, link1))


def section4_mix(seed: int, scale: float) -> Generated:
    """Section 4: 60 Mbit/s of port 80 inside 340 Mbit/s of background;
    the first 600 k packets (about 6 s)."""
    return Generated.first(int(600_000 * scale), section4_stream(
        background_mbps=340.0 * scale, port80_mbps=60.0 * scale,
        duration_s=8.0, seed=seed * 1000 + 7))


def zipf_flows(seed: int, scale: float) -> Generated:
    """150 k packets over 50 k Zipf(0.9) flows at 30 k pps (5 s)."""
    flows = ZipfFlowWorkload(num_flows=max(64, int(50_000 * scale)),
                             alpha=0.9, seed=seed * 1000 + 11)
    return Generated.first(int(150_000 * scale), flows.packets(
        int(150_000 * scale), pps=30_000.0 * scale))


def handshakes(seed: int, scale: float) -> Generated:
    """TCP handshakes split over two links inside background traffic.

    SYNs of 2 048 recurring 5-tuples arrive on ``eth0`` at 400/s; each
    SYN-ACK arrives on ``eth1`` 1-201 ms later.  Both links also carry
    60 Mbit/s of ``background_pool`` traffic that no LFTA passes.  The
    first 380 k packets (about 15 s).
    """
    base = seed * 1000
    rng = random.Random(base + 5)
    duration = 19.0
    flows = []
    for _ in range(2048):
        client = (f"10.{rng.randrange(256)}.{rng.randrange(256)}."
                  f"{rng.randrange(1, 255)}")
        server = f"192.168.{rng.randrange(16)}.{rng.randrange(1, 255)}"
        client_port = rng.randrange(1024, 65535)
        server_port = rng.choice((22, 25, 80, 443))
        flows.append((
            build_tcp_frame(client, server, client_port, server_port,
                            flags=FLAG_SYN, seq=rng.randrange(1 << 31)),
            build_tcp_frame(server, client, server_port, client_port,
                            flags=FLAG_SYN | FLAG_ACK,
                            seq=rng.randrange(1 << 31)),
        ))
    syns: List[CapturedPacket] = []
    synacks: List[CapturedPacket] = []
    gap = 1.0 / (400.0 * scale)
    now = 0.0
    while now < duration:
        syn, synack = flows[rng.randrange(len(flows))]
        syns.append(CapturedPacket(timestamp=now, data=syn, interface="eth0"))
        synacks.append(CapturedPacket(
            timestamp=now + 0.001 + rng.random() * 0.2, data=synack,
            interface="eth1"))
        now += gap * (0.5 + rng.random())
    synacks.sort(key=lambda packet: packet.timestamp)
    background = [
        packet_stream(background_pool(seed=base + 6 + link), 60.0 * scale,
                      duration, interface=f"eth{link}", seed=base + 8 + link)
        for link in (0, 1)
    ]
    generated = Generated.first(
        int(380_000 * scale), merge_streams(syns, synacks, *background))
    sent = set(map(id, syns))
    generated.truth["handshakes"] = sum(
        id(packet) in sent for packet in generated.packets)
    return generated
