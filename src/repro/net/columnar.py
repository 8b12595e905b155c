"""The generated capture front end: per-plan block decoders (DESIGN section 14).

The paper's compiler derives from each LFTA's plan *which bytes* of a
frame matter and links the LFTAs into the run-time system so several of
them read one captured packet.  This module is that front end for the
eth/IPv4/TCP/UDP family: one declarative layout table, and one code
generator that turns ``(protocol, needed attributes)`` into a block
decoder -- a single loop that applies the protocol guard to every
packet of a block and unpacks, with one ``struct`` whose pad bytes skip
everything else, only the header fields the guard and the plan read.
Nothing here is written by hand per protocol.

Guard contract
--------------

For ``ip``/``tcp``/``udp`` a row *exists* if and only if the protocol
guard passes (``v.ip``/``v.tcp``/``v.udp`` not None), and under the
guard every field function is total -- none can return ``None``.  A
generated decoder makes exactly the checks of
:meth:`~repro.gsql.schema.PacketView._parse` plus the header ``parse``
classmethods, one definition per layer (:func:`_generate`): frame long
enough for the fixed headers, ethertype IPv4, IHL >= 5 and inside the
capture, fragment offset 0 for an L4 protocol (an MF first fragment
still parses), IP protocol number, TCP data offset >= 20 and inside the
capture.  IHL == 5 is the fast path (one unpack); IP options take a
second unpack of the L4 fields at the shifted offset.  So a block
decode keeps exactly the packets the row-at-a-time interpreter would,
in the same order, whatever subset of fields it was generated for.
Protocols outside the family (DDL-declared views, the expanders, ipv6,
icmp, ethernet) have no layout and stay on the row adapter.

Lazy decode
-----------

Decoding fills three parallel arrays per surviving row -- the unpack
tuple, the packet reference, and (only when the plan reads ``data``)
the payload offset.  Field columns are materialized on first use:
eagerly for the columns the predicate conjuncts touch (``col``), for
the post-filter survivors only for everything else (``gather``).  The
per-decoder column specs map an attribute index to its position in
*that* decoder's unpack tuple, so LFTAs handed one shared block (the
union of their fields, decoded once by the RTS) read it by the same
attribute indices as a block they decoded themselves.
"""

from __future__ import annotations

import struct
from array import array
from functools import lru_cache
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.net.packet import CapturedPacket


class ColumnarBlock:
    """One decoded packet block: parallel arrays plus lazy field columns.

    ``n`` rows survived the protocol guard.  ``vals[i]`` is row *i*'s
    header unpack, ``pkts[i]`` the originating packet, and ``pay[i]``
    the payload offset into its data (empty unless the decoder covers
    ``data``).  ``columns`` caches materialized field columns by
    attribute index.  ``packets`` is the very list that was decoded:
    a consumer handed this block uses it only for that list (identity,
    not equality -- DESIGN section 14, "sharing").
    """

    __slots__ = ("n", "vals", "pkts", "pay", "columns", "packets", "_specs")

    def __init__(self, vals: list, pkts: list, pay: array,
                 specs: Dict[int, tuple],
                 packets: Sequence[CapturedPacket]) -> None:
        self.n = len(vals)
        self.vals = vals
        self.pkts = pkts
        self.pay = pay
        self.columns: Dict[int, list] = {}
        self.packets = packets
        self._specs = specs

    def col(self, index: int) -> list:
        """The full column for attribute ``index`` (cached)."""
        column = self.columns.get(index)
        if column is None:
            column = self._materialize(index, None)
            self.columns[index] = column
        return column

    def gather(self, index: int, rows: Sequence[int]) -> list:
        """Attribute ``index`` for just ``rows``, aligned with ``rows``.

        This is the lazy-decode entry point: columns untouched by the
        prefilter are built here, for survivors only.  An already-cached
        full column is sliced instead of re-decoded.
        """
        column = self.columns.get(index)
        if column is not None:
            return [column[i] for i in rows]
        return self._materialize(index, rows)

    def _materialize(self, index: int, rows: Optional[Sequence[int]]) -> list:
        kind, j, shift, mask = self._specs[index]
        vals = self.vals
        pkts = self.pkts
        if kind == "pick":  # a header field as unpacked
            if rows is None:
                return [v[j] for v in vals]
            return [vals[i][j] for i in rows]
        if kind == "bits":  # a bit field inside an unpacked header field
            if rows is None:
                return [(v[j] >> shift) & mask for v in vals]
            return [(vals[i][j] >> shift) & mask for i in rows]
        if kind == "time":
            if rows is None:
                return [int(p.timestamp) for p in pkts]
            return [int(pkts[i].timestamp) for i in rows]
        if kind == "timestamp":
            if rows is None:
                return [p.timestamp for p in pkts]
            return [pkts[i].timestamp for i in rows]
        if kind == "len":
            if rows is None:
                return [p.orig_len for p in pkts]
            return [pkts[i].orig_len for i in rows]
        if kind == "caplen":
            if rows is None:
                return [len(p.data) for p in pkts]
            return [len(pkts[i].data) for i in rows]
        if kind == "data":
            pay = self.pay
            if rows is None:
                return [p.data[o:] for p, o in zip(pkts, pay)]
            return [pkts[i].data[pay[i]:] for i in rows]
        raise KeyError(f"unknown column kind {kind!r}")


# -- the layout table ----------------------------------------------------------
#
# Header fields by layer: name -> (byte offset inside the layer, struct
# code).  Only fields an attribute or a guard reads are listed; the
# generator pads over everything else.  The eth and ip layers sit at
# frame offsets 0 and 14; the L4 layer starts at 14 + IHL * 4.

_ETH_LEN = 14
_IP_MIN = 20

_HEADER_FIELDS: Dict[str, Dict[str, Tuple[int, str]]] = {
    "eth": {"ethertype": (12, "H")},
    "ip": {
        "ver_ihl": (0, "B"), "id": (4, "H"), "flags_frag": (6, "H"),
        "ttl": (8, "B"), "protocol": (9, "B"), "src": (12, "I"),
        "dst": (16, "I"),
    },
    "tcp": {
        "src_port": (0, "H"), "dst_port": (2, "H"), "seq": (4, "I"),
        "ack": (8, "I"), "offset_reserved": (12, "B"), "flags": (13, "B"),
        "window": (14, "H"),
    },
    "udp": {"src_port": (0, "H"), "dst_port": (2, "H"), "length": (4, "H")},
}

_ETHERTYPE_IPV4 = 0x0800
_FRAG_OFFSET_MASK = 0x1FFF


class _Attribute(NamedTuple):
    """Where one schema attribute comes from.

    ``layer`` ``"meta"`` is capture metadata (``field`` names the kind:
    time, timestamp, len, caplen, data) and costs no header bytes;
    ``"ip"`` and ``"l4"`` name a header field, optionally narrowed to
    the bit field ``(value >> shift) & mask``.
    """

    layer: str
    field: str
    shift: int = 0
    mask: int = 0


#: attribute name (lower case, as the schemas spell it) -> its source
_ATTRIBUTES: Dict[str, _Attribute] = {
    "time": _Attribute("meta", "time"),
    "timestamp": _Attribute("meta", "timestamp"),
    "len": _Attribute("meta", "len"),
    "caplen": _Attribute("meta", "caplen"),
    "data": _Attribute("meta", "data"),
    "ipversion": _Attribute("ip", "ver_ihl", 4, 0x0F),
    "protocol": _Attribute("ip", "protocol"),
    "srcip": _Attribute("ip", "src"),
    "destip": _Attribute("ip", "dst"),
    "ttl": _Attribute("ip", "ttl"),
    "id": _Attribute("ip", "id"),
    "frag_offset": _Attribute("ip", "flags_frag", 0, _FRAG_OFFSET_MASK),
    "more_fragments": _Attribute("ip", "flags_frag", 13, 1),
    "srcport": _Attribute("l4", "src_port"),
    "destport": _Attribute("l4", "dst_port"),
    "tcpflags": _Attribute("l4", "flags"),
    "seqno": _Attribute("l4", "seq"),
    "ackno": _Attribute("l4", "ack"),
    "tcpwindow": _Attribute("l4", "window"),
    "udplen": _Attribute("l4", "length"),
}


class _Family(NamedTuple):
    """One protocol's guard: its L4 header layer (None: any parsed IPv4
    header, fragments included), IP protocol number, and the fixed L4
    header bytes that must be inside the capture."""

    l4: Optional[str]
    ip_protocol: int
    l4_len: int


_FAMILIES: Dict[str, _Family] = {
    "ip": _Family(None, 0, 0),
    "tcp": _Family("tcp", 6, 20),
    "udp": _Family("udp", 17, 8),
}

def _struct_format(fields: Sequence[Tuple[int, str]]) -> str:
    """The network-order format reading ``fields`` (ascending
    ``(offset, code)`` pairs) and padding over the bytes between."""
    parts = ["!"]
    at = 0
    for offset, code in fields:
        gap = offset - at
        if gap:
            parts.append("x" if gap == 1 else f"{gap}x")
        parts.append(code)
        at = offset + struct.calcsize("!" + code)
    return "".join(parts)


class Decoder(NamedTuple):
    """One generated block decoder and what it was generated from."""

    #: ``decode(packets) -> ColumnarBlock``
    decode: Callable[[Sequence[CapturedPacket]], ColumnarBlock]
    source: str
    #: the fast-path (IHL == 5) struct; its size is how far into a
    #: frame the decoder's one unpack reads
    struct_format: str
    #: the L4-only struct of the IP-options path ("" when none)
    l4_format: str

    @property
    def struct_size(self) -> int:
        return struct.calcsize(self.struct_format)

    @property
    def reach(self) -> int:
        """The last frame byte any unpack of this decoder can touch,
        plus one: the fast-path struct, or the L4 struct behind the
        longest IPv4 header."""
        return max(self.struct_size,
                   _ETH_LEN + 60 + struct.calcsize(self.l4_format or "!"))


@lru_cache(maxsize=256)
def generated_decoder(protocol: str, attributes: Tuple[str, ...],
                      needed: FrozenSet[int]) -> Decoder:
    """The block decoder of ``protocol`` (``ip``/``tcp``/``udp``)
    covering the attribute positions ``needed`` of a schema whose
    attribute names, lower case and in order, are ``attributes``.

    Pure in its arguments, so one ``compile()`` serves every LFTA and
    every shared-decode union with the same field set.
    """
    source, env, fmt, l4_fmt = _generate(protocol, attributes, needed)
    exec(compile(source, f"<decoder:{protocol}>", "exec"), env)
    return Decoder(env["decode"], source, fmt, l4_fmt)


def _generate(protocol: str, attributes: Sequence[str],
              needed: FrozenSet[int]):
    """Source, environment and struct formats of one block decoder."""
    family = _FAMILIES[protocol]
    sources = {index: _ATTRIBUTES[attributes[index]] for index in needed}
    wants_pay = any(src.field == "data" for src in sources.values())

    # Which header fields the one unpack must cover: the guard's, then
    # the plan's.
    ip_fields = {"ver_ihl"}
    l4_fields = set()
    if family.l4 is not None:
        ip_fields |= {"flags_frag", "protocol"}
        if family.l4 == "tcp":
            l4_fields.add("offset_reserved")
    for src in sources.values():
        if src.layer == "ip":
            ip_fields.add(src.field)
        elif src.layer == "l4":
            if family.l4 is None or src.field not in _HEADER_FIELDS[family.l4]:
                raise ValueError(
                    f"protocol {protocol!r} has no header field "
                    f"{src.field!r}")
            l4_fields.add(src.field)

    def placed(layer: str, names, base: int) -> List[Tuple[int, str, str]]:
        """``(frame offset, struct code, field)`` in frame order."""
        table = _HEADER_FIELDS[layer]
        return sorted((base + table[name][0], table[name][1], name)
                      for name in names)

    # eth field names and ip field names do not collide, so one
    # name -> tuple-position map serves both fixed layers.
    head = placed("eth", ["ethertype"], 0) + placed("ip", ip_fields, _ETH_LEN)
    tail = placed(family.l4, l4_fields, 0) if family.l4 else []
    l4_at = _ETH_LEN + _IP_MIN
    fmt = _struct_format([(offset, code) for offset, code, _ in head]
                         + [(l4_at + offset, code) for offset, code, _ in tail])
    l4_fmt = _struct_format([(o, c) for o, c, _ in tail]) if tail else ""
    at = {name: j for j, (_, _, name) in enumerate(head)}
    l4_pos = {name: j for j, (_, _, name) in enumerate(tail)}

    specs: Dict[int, tuple] = {}
    for index, src in sources.items():
        if src.layer == "meta":
            specs[index] = (src.field, 0, 0, 0)
        else:
            j = (at[src.field] if src.layer == "ip"
                 else len(head) + l4_pos[src.field])
            specs[index] = ("bits" if src.mask else "pick", j,
                            src.shift, src.mask)

    # -- the guard, one definition per layer ------------------------------
    def fixed_guard() -> List[str]:
        """The fixed headers fit the capture, the frame is IPv4, and
        for an L4 protocol it carries that protocol and is not a later
        fragment."""
        tests = [f"v[{at['ethertype']}] != {_ETHERTYPE_IPV4}"]
        if family.l4 is not None:
            tests += [f"v[{at['protocol']}] != {family.ip_protocol}",
                      f"v[{at['flags_frag']}] & {_FRAG_OFFSET_MASK}"]
        return [
            f"if n < {l4_at + family.l4_len}:",
            "    continue",
            "v = unpack(d)",
            "if " + " or ".join(tests) + ":",
            "    continue",
        ]

    def l4_guard(values: str, shift: int, start) -> List[str]:
        """The L4 header starting at frame offset ``start`` (a number
        or a variable name) ends inside the capture;
        ``values[shift + j]`` is its field *j*.  Records the payload
        offset when the plan reads ``data`` (nothing after this guard
        can reject the packet)."""
        def past(offset) -> str:
            if isinstance(start, int) and isinstance(offset, int):
                return str(start + offset)
            return f"{start} + {offset}"
        lines = []
        end = past(family.l4_len)
        if family.l4 == "tcp":
            lines = [
                f"doff = ({values}[{shift + l4_pos['offset_reserved']}]"
                " >> 4) * 4",
                f"if doff < {family.l4_len} or n - {start} < doff:",
                "    continue",
            ]
            end = past("doff")
        if wants_pay:
            lines.append(f"oa({end})")
        return lines

    body = fixed_guard()
    ihl = f"v[{at['ver_ihl']}] & 15"
    if family.l4 is None:
        body += [f"ihl = {ihl}",
                 f"if ihl < 5 or n - {_ETH_LEN} < ihl * 4:",
                 "    continue"]
    else:
        options = [
            f"ihl = {ihl}",
            "if ihl < 5:",
            "    continue",
            f"l4 = {_ETH_LEN} + ihl * 4",
            f"if n < l4 or n - l4 < {family.l4_len}:",
            "    continue",
        ]
        if tail:
            options.append("t = unpack_l4(d, l4)")
        options += l4_guard("t", 0, "l4")
        if tail:
            options.append(f"v = v[:{len(head)}] + t")
        fast = l4_guard("v", len(head), l4_at)
        if fast:
            body += [f"if {ihl} == 5:"] + _indent(fast) + ["else:"]
        else:
            body.append(f"if {ihl} != 5:")
        body += _indent(options)
    body += ["va(v)", "pa(p)"]
    lines = [
        "def decode(packets):",
        "    vals = []",
        "    pkts = []",
        "    pay = array('l')",
        "    va = vals.append",
        "    pa = pkts.append",
        "    oa = pay.append",
        "    for p in packets:",
        "        d = p.data",
        "        n = len(d)",
    ] + _indent(body, 2) + [
        "    return ColumnarBlock(vals, pkts, pay, specs, packets)",
    ]
    env = {
        "unpack": struct.Struct(fmt).unpack_from,
        "unpack_l4": struct.Struct(l4_fmt or "!").unpack_from,
        "array": array,
        "ColumnarBlock": ColumnarBlock,
        "specs": specs,
    }
    return "\n".join(lines) + "\n", env, fmt, l4_fmt


def _indent(lines: Sequence[str], levels: int = 1) -> List[str]:
    pad = "    " * levels
    return [pad + line for line in lines]


def has_layout(protocol: str) -> bool:
    """Whether ``protocol`` belongs to the family generated here."""
    return protocol in _FAMILIES


def decode_block(packets: Sequence[CapturedPacket],
                 decode: Callable) -> ColumnarBlock:
    """The one per-block decode entry (``ProtocolSchema.columnar_decoder``).

    Every block decode of a run -- the RTS's shared decode and an
    LFTA's own -- goes through the schema attribute holding this
    function, so whoever replaces that attribute (the benchmark's
    outside-in ``net.decode`` span) sees each block decode exactly once.
    ``decode`` is the generated decoder to run.
    """
    return decode(packets)


# -- columnar row-block serialization (DESIGN section 15) --------------------
#
# The shard transport ships blocks of result rows (shard partials) over
# a pipe.  Pickling a list of small tuples pays per-tuple object
# overhead; transposing the block into parallel columns first pickles
# N+1 containers instead of N_rows tuples and reconstructs exactly the
# same tuples on the other side.

def rows_to_columns(rows: Sequence[tuple]) -> tuple:
    """Transpose a block of row tuples into ``(n_rows, [column, ...])``."""
    if not rows:
        return (0, [])
    return (len(rows), [list(column) for column in zip(*rows)])


def columns_to_rows(block: tuple) -> List[tuple]:
    """Rebuild the row tuples a :func:`rows_to_columns` block encodes."""
    n, columns = block
    if not columns:
        # Zero-width rows: the count alone carries the information.
        return [() for _ in range(n)]
    return list(zip(*columns))
