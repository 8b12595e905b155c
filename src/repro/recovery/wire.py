"""Versioned, checksummed snapshot wire format (DESIGN section 11).

Operator state is a tree of Python primitives -- ints (including
arbitrary-precision RNG words), floats (including the ``-inf`` join
low-water marks), strings, bytes (TCP payload chunks), tuples used both
as rows and as dict keys, lists, and dicts.  ``json`` cannot carry
bytes or tuple keys and ``pickle`` ties the format to interpreter
internals, so snapshots use a small tagged binary encoding of exactly
those types:

* floats travel as their IEEE-754 bits (``struct '>d'``), never as a
  decimal rendering, so a restore reproduces bit-identical state;
* ints are length-prefixed decimal text (arbitrary precision);
* dicts are (key, value) pair lists in insertion order, which keeps
  tuple keys and makes the bytes deterministic for a deterministic
  builder.

Framing::

    b"GSCK" | version:u16 | payload | checksum:u32

The checksum is :func:`repro.determinism.stable_hash` over the payload
bytes -- the same process-stable digest the replay contract is built
on.  A version mismatch raises :class:`SnapshotVersionError` (a stale
checkpoint must be rejected, not half-decoded into garbage state); any
framing or checksum failure raises :class:`SnapshotCorruptError`.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from repro.determinism import stable_hash

MAGIC = b"GSCK"
#: bump when the payload encoding, any operator's state layout or the
#: meaning of a stored value changes (v2: sparse LFTA table slots,
#: elided untouched shed-RNG state; v3: an all-integer key's LFTA slot
#: is its tuple hash, so a v2 slot index would misplace its group)
SNAPSHOT_VERSION = 3

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


class SnapshotError(Exception):
    """Base class for snapshot encode/decode failures."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by a different format version."""


class SnapshotCorruptError(SnapshotError):
    """The snapshot bytes fail framing or checksum validation."""


def _encode_value(value: Any, out: List[bytes]) -> None:
    kind = type(value)
    if value is None:
        out.append(b"N")
    elif kind is bool:
        out.append(b"T" if value else b"F")
    elif kind is int:
        text = b"%d" % value
        out.append(b"i")
        out.append(_U32.pack(len(text)))
        out.append(text)
    elif kind is float:
        out.append(b"f")
        out.append(_F64.pack(value))
    elif kind is str:
        data = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif kind is bytes:
        out.append(b"b")
        out.append(_U32.pack(len(value)))
        out.append(value)
    elif kind is tuple:
        out.append(b"t")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif kind is list:
        out.append(b"l")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif kind is dict:
        out.append(b"d")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    else:
        raise SnapshotError(
            f"cannot snapshot value of type {kind.__name__}: {value!r}")


def _decode_value(blob: bytes, offset: int) -> Tuple[Any, int]:
    try:
        tag = blob[offset:offset + 1]
        offset += 1
        if tag == b"N":
            return None, offset
        if tag == b"T":
            return True, offset
        if tag == b"F":
            return False, offset
        if tag == b"i":
            (length,) = _U32.unpack_from(blob, offset)
            offset += 4
            text = blob[offset:offset + length]
            if len(text) != length:
                raise SnapshotCorruptError("truncated int payload")
            return int(text), offset + length
        if tag == b"f":
            (value,) = _F64.unpack_from(blob, offset)
            return value, offset + 8
        if tag == b"s":
            (length,) = _U32.unpack_from(blob, offset)
            offset += 4
            data = blob[offset:offset + length]
            if len(data) != length:
                raise SnapshotCorruptError("truncated str payload")
            return data.decode("utf-8"), offset + length
        if tag == b"b":
            (length,) = _U32.unpack_from(blob, offset)
            offset += 4
            data = blob[offset:offset + length]
            if len(data) != length:
                raise SnapshotCorruptError("truncated bytes payload")
            return data, offset + length
        if tag in (b"t", b"l"):
            (count,) = _U32.unpack_from(blob, offset)
            offset += 4
            items = []
            for _ in range(count):
                item, offset = _decode_value(blob, offset)
                items.append(item)
            return (tuple(items) if tag == b"t" else items), offset
        if tag == b"d":
            (count,) = _U32.unpack_from(blob, offset)
            offset += 4
            result = {}
            for _ in range(count):
                key, offset = _decode_value(blob, offset)
                value, offset = _decode_value(blob, offset)
                result[key] = value
            return result, offset
    except struct.error as error:
        raise SnapshotCorruptError(f"truncated snapshot payload: {error}")
    raise SnapshotCorruptError(f"unknown snapshot tag {tag!r} at {offset - 1}")


def _checksum(payload: bytes) -> int:
    return stable_hash(payload) & 0xFFFFFFFF


def encode_snapshot(state: Any) -> bytes:
    """Frame ``state`` (a tree of snapshot primitives) as snapshot bytes."""
    parts: List[bytes] = []
    _encode_value(state, parts)
    payload = b"".join(parts)
    return (MAGIC + _U16.pack(SNAPSHOT_VERSION) + payload
            + _U32.pack(_checksum(payload)))


def decode_snapshot(blob: bytes) -> Any:
    """Validate framing, version, and checksum; return the state tree."""
    if len(blob) < len(MAGIC) + 2 + 4:
        raise SnapshotCorruptError(
            f"snapshot too short ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise SnapshotCorruptError(
            f"bad snapshot magic {blob[:4]!r} (expected {MAGIC!r})")
    (version,) = _U16.unpack_from(blob, 4)
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"snapshot version {version} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION}); "
            "discard the checkpoint and start a fresh one")
    payload = blob[6:-4]
    (expected,) = _U32.unpack_from(blob, len(blob) - 4)
    if _checksum(payload) != expected:
        raise SnapshotCorruptError(
            "snapshot checksum mismatch (corrupt or partially "
            "written checkpoint)")
    state, offset = _decode_value(payload, 0)
    if offset != len(payload):
        raise SnapshotCorruptError(
            f"{len(payload) - offset} trailing bytes after snapshot payload")
    return state
