"""Captured-packet container and address helpers.

A :class:`CapturedPacket` is what a capture device (NIC, pcap file, or
synthetic generator) hands to the Gigascope run-time system: raw bytes
plus capture metadata.  Interpretation of the bytes is done lazily by
the protocol schemas in :mod:`repro.gsql.schema` via the header parsers
in this package.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field


def ip_to_int(dotted: str) -> int:
    """Convert dotted-quad notation to a 32-bit integer.

    >>> hex(ip_to_int("10.0.0.1"))
    '0xa000001'
    """
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {dotted!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad notation.

    >>> int_to_ip(0x0a000001)
    '10.0.0.1'
    """
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"not a 32-bit address: {value!r}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mac_to_bytes(mac: str) -> bytes:
    """Convert ``aa:bb:cc:dd:ee:ff`` notation to 6 raw bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"not a MAC address: {mac!r}")
    return bytes(int(part, 16) for part in parts)


def bytes_to_mac(raw: bytes) -> str:
    """Convert 6 raw bytes to ``aa:bb:cc:dd:ee:ff`` notation."""
    if len(raw) != 6:
        raise ValueError(f"MAC address must be 6 bytes, got {len(raw)}")
    return ":".join(f"{byte:02x}" for byte in raw)


@dataclass(slots=True)
class CapturedPacket:
    """A packet as delivered by a capture device.

    Slotted: a packet carries these four attributes and nothing else
    (no ``__dict__``), which is what the block kernel reads and what a
    journal or a benchmark holds by the hundred thousand.

    Attributes:
        timestamp: capture time in seconds (float; virtual time in
            simulations, epoch time when read from pcap).
        data: the captured bytes, possibly truncated to the snap length.
        orig_len: length of the packet on the wire.  Equal to
            ``len(data)`` unless a snap length truncated the capture.
        interface: symbolic name of the capture interface (GSQL binds
            Protocols to Interfaces by this name).
    """

    timestamp: float
    data: bytes
    orig_len: int = -1
    interface: str = "eth0"

    def __post_init__(self) -> None:
        if self.orig_len < 0:
            self.orig_len = len(self.data)

    @property
    def caplen(self) -> int:
        """Number of bytes actually captured."""
        return len(self.data)

    @property
    def truncated(self) -> bool:
        """True if a snap length cut the capture short."""
        return self.caplen < self.orig_len

    def truncate(self, snaplen: int) -> "CapturedPacket":
        """Return a copy truncated to ``snaplen`` bytes (snap length)."""
        if snaplen >= self.caplen:
            return self
        return CapturedPacket(
            timestamp=self.timestamp,
            data=self.data[:snaplen],
            orig_len=self.orig_len,
            interface=self.interface,
        )


# struct codes shared by the header modules
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")


def read_u8(data: bytes, offset: int) -> int:
    """Read an unsigned byte at ``offset`` (network order is moot for 1 byte)."""
    return _U8.unpack_from(data, offset)[0]


def read_u16(data: bytes, offset: int) -> int:
    """Read a big-endian unsigned 16-bit integer at ``offset``."""
    return _U16.unpack_from(data, offset)[0]


def read_u32(data: bytes, offset: int) -> int:
    """Read a big-endian unsigned 32-bit integer at ``offset``."""
    return _U32.unpack_from(data, offset)[0]
