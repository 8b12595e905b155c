"""Independent expected results for every workload.

Expected rows are computed from the generated frames with ``struct`` at
fixed offsets; nothing here imports ``repro.gsql``, ``repro.core`` or
``repro.operators``, so an engine bug cannot cancel itself out.  Frames
come from small pools, so each distinct frame is parsed once.
"""

from __future__ import annotations

import re
import struct
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

Rows = List[tuple]

_ETH_IP = struct.Struct("!12xHBx2x4x1xB2x4s4s")  # ethertype, vihl, proto, src, dst
_PORTS = struct.Struct("!HH")
_HTTP = re.compile(rb"^[^\n]*HTTP/1.")


class _Tcp:
    """The TCP fields of one frame (``None`` fields never occur: frames
    that are not IPv4/TCP parse to ``None`` instead)."""

    __slots__ = ("src", "dst", "sport", "dport", "flags", "payload")

    def __init__(self, frame: bytes) -> None:
        _, vihl, _, src, dst = _ETH_IP.unpack_from(frame)
        tcp = 14 + (vihl & 0x0F) * 4
        self.src = int.from_bytes(src, "big")
        self.dst = int.from_bytes(dst, "big")
        self.sport, self.dport = _PORTS.unpack_from(frame, tcp)
        self.flags = frame[tcp + 13]
        self.payload = frame[tcp + (frame[tcp + 12] >> 4) * 4:]


def _tcp_of(cache: Dict[int, Optional[_Tcp]], frame: bytes) -> Optional[_Tcp]:
    key = id(frame)
    if key not in cache:
        ethertype, _, proto, _, _ = _ETH_IP.unpack_from(frame)
        cache[key] = _Tcp(frame) if (ethertype, proto) == (0x0800, 6) else None
    return cache[key]


def _tcp_packets(packets):
    """``(packet, tcp fields)`` for every IPv4/TCP packet, in order."""
    cache: Dict[int, Optional[_Tcp]] = {}
    for packet in packets:
        tcp = _tcp_of(cache, packet.data)
        if tcp is not None:
            yield packet, tcp


def e2_merge(packets, truth) -> Dict[str, Rows]:
    """``count(*), sum(len)`` of port-80 TCP per 10 s, both links merged."""
    groups: Dict[int, List[int]] = defaultdict(lambda: [0, 0])
    for packet, tcp in _tcp_packets(packets):
        if tcp.dport == 80:
            group = groups[int(packet.timestamp) // 10]
            group[0] += 1
            group[1] += len(packet.data)
    return {"appmon": [(tb, n, total) for tb, (n, total) in groups.items()]}


def lfta_reduce(packets, truth) -> Dict[str, Rows]:
    """Port-80 packets, and those whose payload starts an HTTP/1.x line,
    per 5 s."""
    port80: Counter = Counter()
    genuine: Counter = Counter()
    is_http: Dict[int, bool] = {}
    for packet, tcp in _tcp_packets(packets):
        if tcp.dport != 80:
            continue
        tb = int(packet.timestamp) // 5
        port80[tb] += 1
        key = id(packet.data)
        if key not in is_http:
            is_http[key] = _HTTP.search(tcp.payload) is not None
        if is_http[key]:
            genuine[tb] += 1
    return {"http_port80": list(port80.items()),
            "http_genuine": list(genuine.items())}


def flows_highcard(packets, truth) -> Dict[str, Rows]:
    """``count(*), sum(len)`` per TCP 5-tuple per 2 s."""
    groups: Dict[tuple, List[int]] = defaultdict(lambda: [0, 0])
    for packet, tcp in _tcp_packets(packets):
        group = groups[(int(packet.timestamp) // 2, tcp.src, tcp.dst,
                        tcp.sport, tcp.dport, 6)]
        group[0] += 1
        group[1] += len(packet.data)
    return {"flows": [key + (n, total) for key, (n, total) in groups.items()]}


def join_rtt(packets, truth) -> Dict[str, Rows]:
    """SYN (eth0) joined to SYN-ACK (eth1) of the reversed 4-tuple whose
    whole-second ``time`` is the SYN's or the next; then ``count(*),
    max(rtt)`` per 5 s of SYN time and server address."""
    syns = []
    synacks: Dict[tuple, List[float]] = defaultdict(list)
    for packet, tcp in _tcp_packets(packets):
        handshake = tcp.flags & 0x12
        if handshake == 0x02 and packet.interface == "eth0":
            syns.append((packet.timestamp, tcp))
        elif handshake == 0x12 and packet.interface == "eth1":
            synacks[(tcp.dst, tcp.src, tcp.dport, tcp.sport)].append(
                packet.timestamp)
    if len(syns) != truth["handshakes"]:
        raise AssertionError(
            f"oracle parsed {len(syns)} SYNs, generator sent "
            f"{truth['handshakes']}")
    groups: Dict[tuple, List[float]] = {}
    for syn_time, tcp in syns:
        second = int(syn_time)
        for ack_time in synacks[(tcp.src, tcp.dst, tcp.sport, tcp.dport)]:
            if 0 <= int(ack_time) - second <= 1:
                rtt = ack_time - syn_time
                group = groups.setdefault((second // 5, tcp.dst), [0, rtt])
                group[0] += 1
                if rtt > group[1]:
                    group[1] = rtt
    return {"rtt_stats": [key + (n, rtt) for key, (n, rtt) in groups.items()]}


def failed_rows(expected: Dict[str, Rows], got: Dict[str, Rows]
                ) -> Tuple[int, int]:
    """``(failed, attempted)`` over all outputs.

    A row counts as failed when it is missing, extra, or differs in any
    column (a differing row is one missing plus one extra, counted once).
    Outputs the oracle does not name must be empty.
    """
    failed = attempted = 0
    for name in expected.keys() | got.keys():
        want = Counter(expected.get(name, ()))
        have = Counter(got.get(name, ()))
        attempted += sum(want.values())
        failed += max(sum((want - have).values()), sum((have - want).values()))
    return failed, attempted


def selftest(expected: Dict[str, Rows], rows: Dict[str, Rows]) -> None:
    """The comparison must notice one corrupted count and one lost row."""
    name = next(name for name, out in rows.items() if out)
    first = rows[name][0]
    for corrupted in (
            [first[:-1] + (first[-1] + 1,)] + rows[name][1:],  # one count
            rows[name][1:]):                                   # one row
        failed, _ = failed_rows(expected, {**rows, name: corrupted})
        if failed < 1:
            raise AssertionError("oracle self-test: corruption not noticed")
