"""Labeled attack/anomaly scenarios with ground truth.

The paper motivates Gigascope with "network attack and intrusion
detection and monitoring (e.g. distributed denial of service attacks)".
Detector queries need workloads where the right answer is *known*; each
scenario here mixes benign background with one injected anomaly and
returns the ground truth alongside the packets, so tests can score the
GSQL detectors against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.stable import rng_for
from repro.net.build import (
    build_icmp_frame,
    build_tcp_frame,
    build_udp_frame,
    capture,
)
from repro.net.packet import CapturedPacket, ip_to_int
from repro.net.tcp import FLAG_ACK, FLAG_SYN
from repro.workloads.generators import background_pool, merge_streams, packet_stream


@dataclass
class Scenario:
    """Packets plus the ground truth a detector should recover."""

    packets: List[CapturedPacket]
    #: anomaly window in stream time
    window: Tuple[float, float]
    #: the attacked/attacking address, as an integer
    subject_ip: int
    kind: str
    detail: dict = field(default_factory=dict)


def _background(duration_s: float, rate_mbps: float, seed: int
                ) -> Iterator[CapturedPacket]:
    return packet_stream(background_pool(seed=seed), rate_mbps, duration_s,
                         seed=seed + 1)


def syn_flood(duration_s: float = 60.0, start: float = 20.0,
              attack_s: float = 15.0, pps: float = 1500.0,
              victim: str = "192.168.77.7", background_mbps: float = 15.0,
              seed: int = 41) -> Scenario:
    """Spoofed-source SYN flood against one host."""
    rng = rng_for(seed, "scenarios.syn_flood")

    def attack() -> Iterator[CapturedPacket]:
        now = start
        end = start + attack_s
        while now < end:
            src = (f"{rng.randrange(1, 224)}.{rng.randrange(256)}."
                   f"{rng.randrange(256)}.{rng.randrange(1, 255)}")
            frame = build_tcp_frame(src, victim, rng.randrange(1024, 65535),
                                    80, flags=FLAG_SYN,
                                    seq=rng.randrange(1 << 31))
            yield capture(frame, now)
            now += (0.5 + rng.random()) / pps

    packets = list(merge_streams(_background(duration_s, background_mbps,
                                             seed + 5), attack()))
    return Scenario(packets=packets, window=(start, start + attack_s),
                    subject_ip=ip_to_int(victim), kind="syn_flood",
                    detail={"pps": pps})


def port_scan(duration_s: float = 60.0, start: float = 10.0,
              scan_s: float = 20.0, scanner: str = "203.0.113.66",
              target: str = "192.168.5.5", ports: int = 2000,
              background_mbps: float = 15.0, seed: int = 43) -> Scenario:
    """One source probing many ports of one host (vertical scan)."""
    rng = rng_for(seed, "scenarios.port_scan")

    def attack() -> Iterator[CapturedPacket]:
        gap = scan_s / ports
        now = start
        for port in rng.sample(range(1, 65536), ports):
            frame = build_tcp_frame(scanner, target,
                                    rng.randrange(40000, 65000), port,
                                    flags=FLAG_SYN)
            yield capture(frame, now)
            now += gap * (0.5 + rng.random())

    packets = list(merge_streams(_background(duration_s, background_mbps,
                                             seed + 5), attack()))
    return Scenario(packets=packets, window=(start, start + scan_s),
                    subject_ip=ip_to_int(scanner), kind="port_scan",
                    detail={"ports": ports})


def ping_sweep(duration_s: float = 60.0, start: float = 30.0,
               sweep_s: float = 10.0, scanner: str = "198.51.100.9",
               hosts: int = 500, background_mbps: float = 15.0,
               seed: int = 47) -> Scenario:
    """One source echo-requesting many hosts of a /16 (horizontal sweep)."""
    rng = rng_for(seed, "scenarios.ping_sweep")

    def attack() -> Iterator[CapturedPacket]:
        gap = sweep_s / hosts
        now = start
        for index in range(hosts):
            target = f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            frame = build_icmp_frame(scanner, target, icmp_type=8,
                                     sequence=index)
            yield capture(frame, now)
            now += gap * (0.5 + rng.random())

    packets = list(merge_streams(_background(duration_s, background_mbps,
                                             seed + 5), attack()))
    return Scenario(packets=packets, window=(start, start + sweep_s),
                    subject_ip=ip_to_int(scanner), kind="ping_sweep",
                    detail={"hosts": hosts})


def dns_amplification(duration_s: float = 60.0, start: float = 15.0,
                      attack_s: float = 20.0, pps: float = 600.0,
                      victim: str = "192.168.44.4", reflectors: int = 120,
                      amp_bytes: int = 900, background_mbps: float = 15.0,
                      seed: int = 59) -> Scenario:
    """Reflected DNS amplification: many resolvers answering one victim.

    The attacker spoofs the victim's address in small queries to open
    resolvers; what the monitored link sees is the *reflection* -- large
    UDP responses from port 53, many distinct sources, one destination.
    A per-destination byte-rate trigger catches it where per-source
    counts stay low (each reflector sends only ``pps / reflectors``).
    """
    rng = rng_for(seed, "scenarios.dns_amplification")
    pool = [
        f"{rng.randrange(1, 224)}.{rng.randrange(256)}."
        f"{rng.randrange(256)}.{rng.randrange(1, 255)}"
        for _ in range(reflectors)
    ]
    # A handful of pre-built response payloads (frame building dominates
    # generation cost); sizes spread around amp_bytes like real answers.
    payloads = [
        bytes([rng.randrange(256) for _ in range(
            max(100, amp_bytes + rng.randrange(-200, 201)))])
        for _ in range(16)
    ]

    def attack() -> Iterator[CapturedPacket]:
        now = start
        end = start + attack_s
        while now < end:
            frame = build_udp_frame(rng.choice(pool), victim, 53,
                                    rng.randrange(1024, 65535),
                                    payload=rng.choice(payloads))
            yield capture(frame, now)
            now += (0.5 + rng.random()) / pps

    packets = list(merge_streams(_background(duration_s, background_mbps,
                                             seed + 5), attack()))
    return Scenario(packets=packets, window=(start, start + attack_s),
                    subject_ip=ip_to_int(victim), kind="dns_amplification",
                    detail={"pps": pps, "reflectors": reflectors,
                            "amp_bytes": amp_bytes})


def flash_crowd(duration_s: float = 60.0, start: float = 25.0,
                crowd_s: float = 20.0, server: str = "192.168.10.10",
                clients: int = 400, background_mbps: float = 15.0,
                seed: int = 53) -> Scenario:
    """Legitimate-looking HTTP surge: many real clients, one server.

    The negative control: per-source rates stay modest, so SYN-flood
    and scan detectors must NOT fire on the individual sources.
    """
    rng = rng_for(seed, "scenarios.flash_crowd")

    def crowd() -> Iterator[CapturedPacket]:
        now = start
        end = start + crowd_s
        addresses = [
            f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            for _ in range(clients)
        ]
        while now < end:
            src = rng.choice(addresses)
            frame = build_tcp_frame(src, server, rng.randrange(1024, 65535),
                                    80, flags=FLAG_ACK,
                                    payload=b"GET /hot HTTP/1.1\r\n\r\n")
            yield capture(frame, now)
            now += rng.random() * 0.004

    packets = list(merge_streams(_background(duration_s, background_mbps,
                                             seed + 5), crowd()))
    return Scenario(packets=packets, window=(start, start + crowd_s),
                    subject_ip=ip_to_int(server), kind="flash_crowd",
                    detail={"clients": clients})
