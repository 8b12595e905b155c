"""Versioned, checksummed snapshot wire format (DESIGN section 11).

Operator state is a tree of nine Python types -- None, bool, int
(including arbitrary-precision RNG words), float (including the
``-inf`` join low-water marks), str, bytes (TCP payload chunks), tuple
(rows, and dict keys) and list, and dict.  The payload is stdlib
:mod:`marshal` at format **2**, which writes exactly those types in C:

* floats travel as their IEEE-754 bits, so a restore reproduces
  bit-identical state (``-0.0`` and every NaN payload included);
* dicts keep insertion order, tuples stay tuples;
* format 2 has no reference table and no interned-string code (both
  came in format 3), so the bytes are a function of the value alone,
  never of object identity, interning or ``PYTHONHASHSEED``.

``marshal`` also writes sets, frozensets, complex numbers and
``Ellipsis``; a set's bytes would follow the hash seed.  So both
directions run one guard that refuses every type outside the nine.
``marshal.loads`` is not hardened against crafted input: a frame is
only ever decoded in the process that encoded it, or in the parent of
the shard worker that did (DESIGN section 11).

Framing::

    b"GSCK" | version:u16 | payload | checksum:u32

The checksum is ``zlib.crc32`` of the payload.  A version mismatch
raises :class:`SnapshotVersionError` (a stale checkpoint must be
rejected, not half-decoded into garbage state); any framing, checksum,
type or trailing-byte failure raises :class:`SnapshotCorruptError`.
"""

from __future__ import annotations

import marshal
import struct
import zlib
from typing import Any, Type

MAGIC = b"GSCK"
#: bump when the payload encoding, any operator's state layout or the
#: meaning of a stored value changes (v2: sparse LFTA table slots,
#: elided untouched shed-RNG state; v3: an all-integer key's LFTA slot
#: is its tuple hash, so a v2 slot index would misplace its group;
#: v4: marshal format 2 payloads, group state as columns)
SNAPSHOT_VERSION = 4

#: the marshal format of the payload: the newest whose bytes depend on
#: the value alone
_MARSHAL_FORMAT = 2

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

_ATOMS = frozenset((type(None), bool, int, float, str, bytes))


class SnapshotError(Exception):
    """Base class for snapshot encode/decode failures."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by a different format version."""


class SnapshotCorruptError(SnapshotError):
    """The snapshot bytes fail framing or checksum validation."""


def _refuse_foreign(state: Any, error: Type[SnapshotError]) -> None:
    """Raise ``error`` if ``state`` holds a type outside the nine.

    Runs before ``marshal`` in both directions: besides foreign types
    it refuses a self-containing value, by Python's recursion limit.
    ``marshal.loads`` can build one from a crafted reference, and
    ``marshal.dumps`` may never finish one that contains itself twice."""
    try:
        _check_types(state, error)
    except RecursionError:
        raise error("snapshot nests too deeply or contains itself") from None


def _check_types(value: Any, error: Type[SnapshotError]) -> None:
    kind = type(value)
    if kind is dict:
        items = [*value, *value.values()]
    elif kind is list or kind is tuple:
        items = value
    elif kind in _ATOMS:
        return
    else:
        raise error(f"cannot snapshot value of type {kind.__name__}: "
                    f"{value!r}")
    if set(map(type, items)) <= _ATOMS:   # one C pass for a column
        return
    for item in items:
        if type(item) not in _ATOMS:
            _check_types(item, error)


def encode_snapshot(state: Any) -> bytes:
    """Frame ``state`` (a tree of snapshot primitives) as snapshot bytes."""
    _refuse_foreign(state, SnapshotError)
    payload = marshal.dumps(state, _MARSHAL_FORMAT)
    return (MAGIC + _U16.pack(SNAPSHOT_VERSION) + payload
            + _U32.pack(zlib.crc32(payload)))


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
    if zlib.crc32(payload) != expected:
        raise SnapshotCorruptError(
            "snapshot checksum mismatch (corrupt or partially "
            "written checkpoint)")
    try:
        state = marshal.loads(payload)
    except (EOFError, ValueError, TypeError) as error:
        raise SnapshotCorruptError(
            f"undecodable snapshot payload: {error}") from error
    _refuse_foreign(state, SnapshotCorruptError)
    # marshal.loads stops at the end of the first value and reads any
    # marshal format: the payload must be the one encoding of its value.
    canonical = marshal.dumps(state, _MARSHAL_FORMAT)
    if canonical != payload:
        if payload.startswith(canonical):
            raise SnapshotCorruptError(
                f"{len(payload) - len(canonical)} trailing bytes after "
                "snapshot payload")
        raise SnapshotCorruptError(
            f"snapshot payload is not marshal format {_MARSHAL_FORMAT}")
    return state
