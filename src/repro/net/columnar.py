"""The generated capture front end: per-plan decode loops (DESIGN section 14).

The paper's compiler derives from each LFTA's plan *which bytes* of a
frame matter and links the LFTAs into the run-time system so that one
pass over a captured packet filters, projects and partially aggregates
it.  This module is that front end for the eth/IPv4/TCP/UDP family:
one declarative layout table, and one loop emitter (:func:`block_kernel`)
that turns ``(protocol, needed attributes, pushed prefixes, row
action)`` into a single loop that applies the protocol guard to every
packet of a block,
unpacks, with one ``struct`` whose pad bytes skip everything else, only
the header fields the guard and the plan read, tests the plan's pushed
prefix on the unpacked values, and runs the plan's own *row action* --
sample draw, remaining conjuncts, projection or key, table probe and
fold -- on the survivors, right there.  Nothing here is written by hand
per protocol, and nothing is materialized between the bytes and the
operator's state.

Guard, then prefix
------------------

For ``ip``/``tcp``/``udp`` a packet is a *tuple* if and only if the
protocol guard passes (``v.ip``/``v.tcp``/``v.udp`` not None), and
under the guard every field function is total -- none can return
``None``.  A tuple becomes a *row* iff, in addition, some consumer's
pushed prefix keeps it (:class:`Prefilter`: the leading predicate
conjuncts that are total over header fields and scalar capture
metadata); with nothing pushed, every tuple is a row.  Both counts are
reported -- ``passed`` tuples, ``n`` rows -- so the consumer's
``tuples_in`` and ``discarded`` are those of decoding every tuple and
filtering afterwards.  When the prefix leaves two or more header fields
that only survivors need, the generator also emits a *lean* form: a
first struct over the guard's and the prefix's fields, the rest
unpacked after the test and the tuple re-assembled in the same layout,
so both forms hand the row action the same ``v``.  A generated loop
makes exactly the checks of
:meth:`~repro.gsql.schema.PacketView._parse` plus the header ``parse``
classmethods, one definition per layer (:func:`_front`): frame long
enough for the fixed headers, ethertype IPv4, IHL >= 5 and inside the
capture, fragment offset 0 for an L4 protocol (an MF first fragment
still parses), IP protocol number, TCP data offset >= 20 and inside the
capture.  IHL == 5 is the fast path (one unpack); IP options take a
second unpack of the L4 fields at the shifted offset.  So a decode
keeps exactly the packets the row-at-a-time interpreter would, in the
same order, whatever subset of fields it was generated for.  Protocols
outside the family (DDL-declared views, the expanders, ipv6, icmp,
ethernet) have no layout and stay on the row adapter.

The row, and who owns it
------------------------

A row is five names -- ``v`` the unpack tuple, ``p`` the packet, ``d``
its captured bytes, ``n`` their length, ``o`` the payload offset
(:data:`ROW_NAMES`) -- and a section's ``columns`` say how each covered
attribute reads off them (``v[5]``, ``trunc(p.timestamp)``, ``d[o:]``).
A consumer's :class:`RowAction` is rendered against that map and
spliced under the one loop header that owns rows: the *block kernel*
(:func:`block_kernel`), a loop over a block which counts its captured
bytes, branches on the packet's interface and runs, per protocol on
that interface, one :class:`Section` -- the guard once, each distinct
pushed prefix once, then each member's action on the rows it keeps.  A
shedding member's section is its own, and draws its shed gate
(:func:`shed_gate`) ahead of its guard.  The run-time system runs one
kernel per block for every LFTA it covers; an LFTA handed packets
directly (a fault's wrap, journal replay, the NIC runtime) runs a
kernel of its own with itself as the one member, and so does the test
it pushes into a capture card, with an empty row action.  What EXPLAIN
prints of a loop -- its struct sizes -- is read off the layout table
(:func:`struct_formats`, :func:`lean_formats`), not off a generated one.

The semantics are row-at-a-time by construction: an exception at row
*k* stops that member there -- state, counters, shed draws and emitted
rows as *k* single-row steps would leave them -- while its siblings
finish the block.
"""

from __future__ import annotations

import builtins
import io
import keyword
import struct
import tokenize
from functools import lru_cache
from math import trunc
from operator import length_hint
from typing import (Callable, Dict, FrozenSet, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.net.packet import CapturedPacket


class BlockTally(NamedTuple):
    """What a block kernel (:func:`block_kernel`) reports for one block.

    Every member has moved its own counters by the time this comes
    back; ``n`` is the rows all members' actions got (a packet two
    members keep counts twice), for whoever watches the block entry.
    """

    n: int
    #: the captured bytes of the whole block, every interface included
    nbytes: int
    #: per branch that collects one, its interface's packets in order
    runs: tuple
    #: ``(member position, error)`` per member that raised, in order
    failed: list


# -- the layout table ----------------------------------------------------------
#
# Header fields by layer: name -> (byte offset inside the layer, struct
# code).  Only fields an attribute or a guard reads are listed; the
# generator pads over everything else.  The eth and ip layers sit at
# frame offsets 0 and 14; the L4 layer starts at 14 + IHL * 4.

_ETH_LEN = 14
_IP_MIN = 20
_IP_MAX = 60

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
    header, fragments included), IP protocol number, the fixed L4
    header bytes that must be inside the capture, and the most the
    header's own length field can ask for."""

    l4: Optional[str]
    ip_protocol: int
    l4_len: int
    l4_max: int


_FAMILIES: Dict[str, _Family] = {
    "ip": _Family(None, 0, 0, 0),
    "tcp": _Family("tcp", 6, 20, 60),
    "udp": _Family("udp", 17, 8, 8),
}

#: the captured bytes a guard of the family can ask for: behind the
#: longest IPv4 header, the longest L4 header (a TCP frame with full
#: options).  A header-only snap length must not be shorter.
HEADER_REACH = _ETH_LEN + _IP_MAX + max(
    family.l4_max for family in _FAMILIES.values())


def _struct_format(fields: Sequence[Tuple[int, str, str]]) -> str:
    """The network-order format reading ``fields`` (ascending
    ``(offset, code, name)``) and padding over the bytes between."""
    parts = ["!"]
    at = 0
    for offset, code, _ in fields:
        gap = offset - at
        if gap:
            parts.append("x" if gap == 1 else f"{gap}x")
        parts.append(code)
        at = offset + struct.calcsize("!" + code)
    return "".join(parts)


class Prefilter(NamedTuple):
    """One consumer's pushed prefix, as the generator takes it: the
    leading predicate conjuncts that are total over header fields and
    scalar capture metadata (``LftaPlan.prefix``)."""

    #: attribute positions the conjuncts read
    slots: FrozenSet[int]
    #: ``render(columns, params) -> source`` of the conjunction, reading
    #: attribute position *i* as ``columns[i]`` and the consumer's
    #: query-parameter dict under the name ``params``
    render: Callable[[Mapping[int, str], str], str]
    #: that parameter dict (None: the conjuncts read no ``$param``)
    params: Optional[dict]
    #: the conjuncts as GSQL, for EXPLAIN
    text: str


class ActionSource(NamedTuple):
    """A row action rendered against one loop header's names: lines
    for before the loop, per row (``continue`` ends the row) and for
    the loop's ``finally``, plus the globals they read."""

    setup: List[str]
    body: List[str]
    finish: List[str]
    env: Dict[str, object]


class RowAction(NamedTuple):
    """What one consumer does with each of its rows -- sample draw, the
    conjuncts its prefix left over, then project-and-emit or key,
    window check, table probe and fold
    (``ExprCompiler.lfta_action``) -- as source to splice under
    whichever loop header owns the rows: the block kernel
    (:func:`block_kernel`) or the row adapter's tuples."""

    #: attribute positions the action reads
    slots: FrozenSet[int]
    #: ``render(columns) -> ActionSource``, reading attribute position
    #: *i* as ``columns[i]``
    render: Callable[[Mapping[int, str]], ActionSource]


@lru_cache(maxsize=256)
def _compiled(source: str):
    """One ``compile()`` per distinct generated loop; what the loop
    reads -- structs, parameter dicts, the members' nodes -- is bound
    per ``exec``, so no two callers share a closure."""
    return compile(source, "<kernel>", "exec")


class _View(NamedTuple):
    """Where header fields sit in one unpack tuple: ``var[pos[field]]``."""

    var: str
    pos: Dict[str, int]

    def ref(self, field: str) -> str:
        return f"{self.var}[{self.pos[field]}]"


#: how a pushed prefix reads scalar capture metadata inside the loop
#: (``p`` the packet, ``n`` its captured length); ``math.trunc`` is
#: ``int()``'s result and errors for a third of the call
_META_SOURCES = {"time": "trunc(p.timestamp)", "timestamp": "p.timestamp",
                 "len": "p.orig_len", "caplen": "n"}
#: the payload, for a row action only: ``d`` the captured bytes, ``o``
#: the offset behind the L4 header
_DATA_SOURCE = "d[o:]"
#: the names a row's header binds before a row action runs: the unpack
#: tuple and the packet always; the captured bytes, their length and
#: the payload offset for an action that reads ``caplen`` or ``data``
ROW_NAMES = ("v", "p", "d", "n", "o")


def _place(protocol: str, attributes: Sequence[str],
           needed: FrozenSet[int]):
    """Which header fields a loop covering ``needed`` unpacks, placed:
    ``(family, attribute sources, head, tail, guard fields)`` with
    ``head`` the eth and ip fields as ``(frame offset, struct code,
    field)`` in frame order, ``tail`` the L4 fields by offset inside
    their header, and the names the guard itself reads."""
    family = _FAMILIES[protocol]
    sources = {index: _ATTRIBUTES[attributes[index]] for index in needed}

    # The guard's fields, then the plan's.
    ip_fields = {"ver_ihl"}
    l4_fields = set()
    if family.l4 is not None:
        ip_fields |= {"flags_frag", "protocol"}
        if family.l4 == "tcp":
            l4_fields.add("offset_reserved")
    guard_fields = {"ethertype"} | ip_fields | l4_fields
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
        table = _HEADER_FIELDS[layer]
        return sorted((base + table[name][0], table[name][1], name)
                      for name in names)

    head = placed("eth", ["ethertype"], 0) + placed("ip", ip_fields, _ETH_LEN)
    tail = placed(family.l4, l4_fields, 0) if family.l4 else []
    return family, sources, head, tail, guard_fields


def _fast_path(head, tail) -> List[Tuple[int, str, str]]:
    """Every placed field at its IHL == 5 frame offset."""
    return head + [(_ETH_LEN + _IP_MIN + offset, code, name)
                   for offset, code, name in tail]


def _lean_split(fast, guard_fields, sources, slots):
    """The two structs of a lean form whose prefixes read the attribute
    positions ``slots``: the fields the guard and the prefixes read,
    and the rest, which only survivors need -- or None when the rest is
    fewer than two fields (a second unpack would cost more than it
    saves)."""
    early = guard_fields | {sources[index].field for index in slots
                            if sources[index].layer != "meta"}
    first = [entry for entry in fast if entry[2] in early]
    second = [entry for entry in fast if entry[2] not in early]
    return (first, second) if len(second) >= 2 else None


def describe_formats(formats: Sequence[str]) -> str:
    """``fmt NB + fmt MB``: struct formats with their sizes, for EXPLAIN."""
    return " + ".join(f"{fmt} {struct.calcsize(fmt)}B" for fmt in formats)


def struct_formats(protocol: str, attributes: Sequence[str],
                   needed: FrozenSet[int]) -> Tuple[str, str]:
    """The struct formats of the loop covering ``needed``: the
    fast-path (IHL == 5) one, whose size is how far into a frame its
    one unpack reads, and the L4-only one of the IP-options path (""
    when the loop reads no L4 field) -- read off the layout table, with
    no loop generated."""
    _, _, head, tail, _ = _place(protocol, attributes, needed)
    return (_struct_format(_fast_path(head, tail)),
            _struct_format(tail) if tail else "")


def lean_formats(protocol: str, attributes: Sequence[str],
                 needed: FrozenSet[int],
                 slots: FrozenSet[int]) -> Tuple[str, ...]:
    """The struct formats ``(before the test, for survivors)`` of the
    lean loop covering ``needed`` whose prefixes read ``slots``; empty
    when that loop has no lean form."""
    _, sources, head, tail, guard_fields = _place(protocol, attributes, needed)
    split = _lean_split(_fast_path(head, tail), guard_fields, sources, slots)
    return tuple(map(_struct_format, split or ()))


def distinct_tests(prefilters: Sequence[Optional[Prefilter]]
                   ) -> Tuple[List[Prefilter], List[Optional[int]]]:
    """What a section tests for consumers pushing ``prefilters`` (one
    entry each; None keeps every guard-passer): the first consumer of
    each distinct test -- one conjunction over one parameter dict is
    tested once -- and, per consumer, the test it rides on.  Read off
    the prefixes alone, so EXPLAIN lists what the kernel tests."""
    tests: List[Prefilter] = []
    test_of: List[Optional[int]] = []
    seen: Dict[tuple, int] = {}
    for member in prefilters:
        if member is None:
            test_of.append(None)
            continue
        key = (member.render({index: f"c{index}" for index in member.slots},
                             "P"), id(member.params))
        if key not in seen:
            seen[key] = len(tests)
            tests.append(member)
        test_of.append(seen[key])
    return tests, test_of


class _Front(NamedTuple):
    """One kernel section's per-packet lines, from the bytes to the row
    (:func:`_front`)."""

    #: the guard, then the prefix tests; ``continue`` ends a packet
    #: the loop is done with
    lines: List[str]
    #: the globals they read: structs and parameter dicts
    env: Dict[str, object]
    #: per consumer, the distinct test it rides on (None: it keeps
    #: every guard-passer)
    test_of: List[Optional[int]]
    #: how a row action reads each covered attribute off a row, given
    #: the header's names (:data:`ROW_NAMES`)
    columns: Dict[int, str]


def _front(protocol: str, attributes: Sequence[str], needed: FrozenSet[int],
           prefilters: Sequence[Optional[Prefilter]], lean: bool,
           accept: Callable[[List[str], List[Optional[int]]], List[str]],
           tag: str = "") -> Optional[_Front]:
    """Guard, then prefix: the per-packet lines of one section of a
    block kernel (:func:`block_kernel`).

    The protocol guard comes first, one definition per layer; where the
    pushed prefixes are tested go ``accept(texts, test_of)``'s lines --
    ``texts`` each consumer's prefix rendered against the unpack at
    hand, one per distinct test (:func:`distinct_tests`), ``test_of``
    which one each consumer rides on; the lean form unpacks what only
    survivors need after them.  The lines leave the unpack tuple in
    ``v`` and, when the fields read ``data``, the payload offset in
    ``o``.  ``tag`` ends every global name they read, so several
    sections can share one function.  None for a lean form that does
    not exist.
    """
    family, sources, head, tail, guard_fields = _place(
        protocol, attributes, needed)
    wants_pay = any(src.field == "data" for src in sources.values())
    l4_at = _ETH_LEN + _IP_MIN
    fast = _fast_path(head, tail)
    fmt = _struct_format(fast)
    l4_fmt = _struct_format(tail) if tail else ""
    # Field names do not collide across the eth, ip and L4 layers, so
    # one name -> tuple-position map serves a whole unpack.
    full = _View("v", {name: j for j, (_, _, name) in enumerate(fast)})
    shifted = _View("t", {name: j for j, (_, _, name) in enumerate(tail)})
    unpack, unpack_l4 = "unpack" + tag, "unpack_l4" + tag
    env: Dict[str, object] = {
        unpack: struct.Struct(fmt).unpack_from,
        unpack_l4: struct.Struct(l4_fmt or "!").unpack_from,
    }

    # -- the pushed prefixes ----------------------------------------------
    def columns(view: _View) -> Dict[int, str]:
        """How a prefix reads each attribute off ``view``'s tuple."""
        out = {}
        for index, src in sources.items():
            if src.layer == "meta":
                if src.field in _META_SOURCES:
                    out[index] = _META_SOURCES[src.field]
            elif src.field in view.pos:
                out[index] = (
                    f"(({view.ref(src.field)} >> {src.shift}) & {src.mask})"
                    if src.mask else view.ref(src.field))
        return out

    # Each consumer's parameter dict gets its own name in the loop.
    param_names: Dict[int, str] = {}
    for member in prefilters:
        if member is not None and member.params is not None:
            name = param_names.setdefault(
                id(member.params), f"P{len(param_names) or ''}{tag}")
            env[name] = member.params

    def rendered(member: Prefilter, reads: Dict[int, str]) -> str:
        return member.render(
            reads, param_names.get(id(member.params), "P" + tag))

    reads = columns(full)
    for member in prefilters:
        if member is not None and not member.slots <= reads.keys():
            raise ValueError(
                f"prefilter [{member.text}] reads attributes outside the "
                "decoder's header fields and capture metadata")
    tests, test_of = distinct_tests(prefilters)
    #: what a row action reads: the prefix's sources plus the payload
    row_columns = {index: _DATA_SOURCE for index, src in sources.items()
                   if src.field == "data"}
    row_columns.update(reads)

    def tested(view: _View) -> List[str]:
        reads = columns(view)
        return accept([rendered(member, reads) for member in tests], test_of)

    # -- the guard, one definition per layer ------------------------------
    def fixed_guard(view: _View, unpacker: str) -> List[str]:
        """The fixed headers fit the capture, the frame is IPv4, and
        for an L4 protocol it carries that protocol and is not a later
        fragment."""
        checks = [f"{view.ref('ethertype')} != {_ETHERTYPE_IPV4}"]
        if family.l4 is not None:
            checks += [f"{view.ref('protocol')} != {family.ip_protocol}",
                       f"{view.ref('flags_frag')} & {_FRAG_OFFSET_MASK}"]
        return [
            f"if n < {l4_at + family.l4_len}:",
            "    continue",
            f"{view.var} = {unpacker}(d)",
            "if " + " or ".join(checks) + ":",
            "    continue",
        ]

    def ip_guard(view: _View) -> List[str]:
        """A protocol without an L4 layer: the IPv4 header, options
        included, ends inside the capture."""
        return [f"ihl = {view.ref('ver_ihl')} & 15",
                f"if ihl < 5 or n - {_ETH_LEN} < ihl * 4:",
                "    continue"]

    def l4_guard(view: _View, start) -> List[str]:
        """The L4 header starting at frame offset ``start`` (a number
        or a variable name) ends inside the capture; ``view`` holds its
        fields.  Notes the payload offset in ``o`` when the plan reads
        ``data``."""
        def past(offset) -> str:
            if isinstance(start, int) and isinstance(offset, int):
                return str(start + offset)
            return f"{start} + {offset}"
        lines = []
        end = past(family.l4_len)
        if family.l4 == "tcp":
            lines = [
                f"doff = ({view.ref('offset_reserved')} >> 4) * 4",
                f"if doff < {family.l4_len} or n - {start} < doff:",
                "    continue",
            ]
            end = past("doff")
        if wants_pay:
            lines.append(f"o = {end}")
        return lines

    def options_path() -> List[str]:
        """IHL > 5: the L4 fields sit at a shifted offset and take a
        second unpack; ``v`` is re-assembled in the fast-path layout."""
        lines = [
            f"ihl = {full.ref('ver_ihl')} & 15",
            "if ihl < 5:",
            "    continue",
            f"l4 = {_ETH_LEN} + ihl * 4",
            f"if n < l4 or n - l4 < {family.l4_len}:",
            "    continue",
        ]
        if tail:
            lines.append(f"t = {unpack_l4}(d, l4)")
        lines += l4_guard(shifted, "l4")
        if tail:
            lines.append(f"v = v[:{len(head)}] + t")
        return lines

    if not lean:
        body = fixed_guard(full, unpack)
        if family.l4 is None:
            body += ip_guard(full)
        else:
            quick = l4_guard(full, l4_at)
            ihl = f"{full.ref('ver_ihl')} & 15"
            if quick:
                body += [f"if {ihl} == 5:"] + _indent(quick) + ["else:"]
            else:
                body.append(f"if {ihl} != 5:")
            body += _indent(options_path())
        body += tested(full)
        return _Front(body, env, test_of, row_columns)
    # The first struct covers what the guard and the prefixes read; the
    # rest is unpacked after the test, for survivors only.
    if not tests or None in test_of:
        return None
    split = _lean_split(fast, guard_fields, sources,
                        frozenset().union(*(member.slots for member in tests)))
    if split is None:
        return None
    first, second = split
    unpack_a, unpack_b = "unpack_a" + tag, "unpack_b" + tag
    env[unpack_a] = struct.Struct(_struct_format(first)).unpack_from
    env[unpack_b] = struct.Struct(_struct_format(second)).unpack_from
    before = _View("a", {name: j for j, (_, _, name) in enumerate(first)})
    after = _View("b", {name: j for j, (_, _, name) in enumerate(second)})
    survivor = tested(before) + [
        f"b = {unpack_b}(d)",
        "v = (" + ", ".join(
            (before if name in before.pos else after).ref(name)
            for _, _, name in fast) + ")",
    ]
    body = fixed_guard(before, unpack_a)
    if family.l4 is None:
        body += ip_guard(before) + survivor
    else:
        body += (
            [f"if {before.ref('ver_ihl')} & 15 == 5:"]
            + _indent(l4_guard(before, l4_at) + survivor)
            + ["else:"]
            + _indent([f"v = {unpack}(d)"] + options_path() + tested(full)))
    return _Front(body, env, test_of, row_columns)


# -- the block kernel ----------------------------------------------------------


class Member(NamedTuple):
    """One LFTA as a block kernel takes it (``LftaNode.kernel_member``)."""

    #: the attribute positions it reads
    needed: FrozenSet[int]
    #: its pushed prefix; None when it keeps every guard-passer
    prefilter: Optional[Prefilter]
    #: what it does with a row; the environment binds ``node``, whose
    #: ``packets_seen``, ``columnar_blocks`` and counters the kernel
    #: moves
    action: RowAction
    #: its shed gate (:func:`shed_gate`) draws ahead of its guard; such
    #: a member takes a section of its own
    sheds: bool = False


def shed_gate(sheds: bool, suffix: str = "") -> ActionSource:
    """The overload controller's shed gate (``repro.control``) as a loop
    header splices it for one LFTA, every name it binds or reads ending
    in ``suffix`` (``node`` included): one draw per packet of the LFTA's
    run, in arrival order and ahead of its guard, on the node's own
    ``rng_for(seed, "lfta.shed", name)`` stream; a draw at or above the
    rate counts the packet into ``shed_packets`` and ends it.  Both
    headers that run LFTAs splice it -- a shedding member's section of
    the block kernel and the row adapter's loop.  No lines when the LFTA
    does not shed: then nothing draws."""
    if not sheds:
        return ActionSource([], [], [], {})
    rate, draw, count, node = (name + suffix for name in (
        "shed_rate", "shed_draw", "shed_count", "node"))
    return ActionSource(
        [f"{rate} = {node}.shed_rate", f"{draw} = {node}._shed_rng.random",
         f"{count} = 0"],
        [f"if {draw}() >= {rate}:", f"    {count} += 1", "    continue"],
        [f"{node}.shed_packets += {count}"], {})


class Section(NamedTuple):
    """The members of one protocol on one interface, as one part of a
    block kernel (``ProtocolSchema.kernel_section``): the guard once,
    each distinct prefix once, then each member's rows."""

    protocol: str
    attributes: Tuple[str, ...]
    members: Tuple[Member, ...]
    #: run the two-struct form (where it exists)
    lean: bool


class Branch(NamedTuple):
    """What a block kernel does with the packets of one interface."""

    #: None: every packet of the block (the consumers bound to ``any``)
    interface: Optional[str]
    sections: Tuple[Section, ...]
    #: also hand each packet on in the interface's run, for consumers
    #: no section covers
    collect: bool


def block_kernel(branches: Sequence[Branch]) -> Tuple[Callable, str]:
    """``(kernel, source)``: the one loop over a block that routes every
    packet and does every covered member's work on it, ``kernel(packets)
    -> BlockTally``.

    Per packet it reads ``d`` and ``n`` once and adds ``n`` to the
    block's captured bytes; runs the sections of the branch without an
    interface; then, branching on ``p.interface``, appends the packet to
    its interface's run when that branch collects one and runs the
    branch's sections in order.  A failed guard ends its section, not
    the packet.  A lone member's section is its shed gate when it sheds,
    then its own guard, prefix and action, in the form ``Section.lean``
    asks for; a decode group tests its guard and each distinct prefix
    once and then hands each member the rows it keeps.  Each member runs
    under its own ``try``: one that raises stops at that packet, is
    listed in ``BlockTally.failed`` and skipped for the rest of the
    block while its siblings finish it.  The loop's ``finally`` moves
    every member's ``packets_seen`` (the packets of its run up to the
    one it raised on, if it did), ``columnar_blocks``, ``shed_packets``,
    ``tuples_in`` and ``discarded`` exactly as blocks of one over its
    interface's run would, then runs the action's own closing lines
    (which emit its rows).

    Names: member *g*'s action keeps its own with ``_g`` appended
    (``node_g``, ``out_g``, ...), and so do its counters ``live_g``,
    ``ran_g`` (packets taken), ``m_g`` (rows), ``killed_g`` (lone) or
    ``passed_g`` (group) and its gate's ``shed_count_g``; section *s*'s
    structs, parameter dicts and guard-passer count end in ``_s``.
    """
    env: Dict[str, object] = {"BlockTally": BlockTally,
                              "length_hint": length_hint, "trunc": trunc}
    setup = ["nbytes = 0", "failed = []", "fail = failed.append"]
    finish: List[str] = []
    rows: List[str] = []
    runs: List[str] = []
    #: the steps every packet takes, then each interface's
    everywhere: List[List[str]] = []
    arms: List[Tuple[str, List[List[str]]]] = []

    def closing(g: int, seen: str, lines: List[str]) -> List[str]:
        """Member *g*'s share of the ``finally``: its counter moves for
        the ``ran_g`` packets of its run it took -- ``seen``, the whole
        run, unless it raised, when :func:`stopped` noted how far it
        got.  A member is reported once, for the first error it
        raised."""
        return ["try:"] + _indent([
            f"if live_{g}:",
            f"    ran_{g} = {seen}",
            f"if ran_{g}:",
            f"    node_{g}.packets_seen += ran_{g}",
            f"    node_{g}.columnar_blocks += 1",
        ] + lines) + ["except Exception as error:", f"    if live_{g}:",
                      f"        fail(({g}, error))"]

    def stopped(g: int, seen: str, passed: Optional[str] = None) -> List[str]:
        """Member *g* raised: it takes no further packet of the block,
        and its run ends with the one it raised on."""
        return ["except Exception as error:", f"    live_{g} = False",
                f"    ran_{g} = {seen}"] + (
            [f"    passed_{g} = {passed}"] if passed else []) + [
            f"    fail(({g}, error))"]

    def action_of(g: int, member: Member, front: _Front) -> ActionSource:
        spliced = _renamed(member.action.render(front.columns), f"_{g}")
        if any(line.lstrip().startswith(("for ", "while "))
               for line in spliced.body):
            raise ValueError("a row action in a block kernel may not loop")
        env.update(spliced.env)
        setup.extend(spliced.setup)
        rows.append(f"m_{g}")
        return spliced

    def front_of(section: Section, s: int, needed, prefilters, accept):
        front = None
        if section.lean:
            front = _front(section.protocol, section.attributes, needed,
                           prefilters, True, accept, f"_s{s}")
        if front is None:
            front = _front(section.protocol, section.attributes, needed,
                           prefilters, False, accept, f"_s{s}")
        env.update(front.env)
        return front

    def lone(section: Section, s: int, g: int, seen: str) -> List[str]:
        member, = section.members
        testing = member.prefilter is not None

        def accept(texts: List[str], _) -> List[str]:
            if not texts:
                return []
            return [f"if not ({texts[0]}):", f"    killed_{g} += 1",
                    "    continue"]
        front = front_of(section, s, member.needed,
                         (member.prefilter,) if testing else (), accept)
        gate = shed_gate(member.sheds, f"_{g}")
        setup.extend([f"live_{g} = True", f"m_{g} = 0"]
                     + ([f"killed_{g} = 0"] if testing else []) + gate.setup)
        spliced = action_of(g, member, front)
        if testing:
            counts = [f"node_{g}.stats.tuples_in += m_{g} + killed_{g}",
                      f"node_{g}.stats.discarded += killed_{g}"]
        else:
            counts = [f"node_{g}.stats.tuples_in += m_{g}"]
        finish.extend(closing(g, seen, gate.finish + counts + spliced.finish))
        return [f"if live_{g}:"] + _indent(["try:"] + _indent(
            gate.body + front.lines + [f"m_{g} += 1"] + spliced.body)
            + stopped(g, seen))

    def group(section: Section, s: int, first: int, seen: str) -> List[str]:
        members = section.members
        if any(member.sheds for member in members):
            raise ValueError("a shedding member takes a section of its own")
        passed = f"passed_s{s}"

        def accept(texts: List[str], test_of) -> List[str]:
            """Counted once the tests ran; ended when nobody keeps it."""
            if not texts:
                return [f"{passed} += 1"]
            if set(test_of) == {0}:
                return [f"if not ({texts[0]}):", f"    {passed} += 1",
                        "    continue", f"{passed} += 1"]
            lines = [f"keep{j} = {text}" for j, text in enumerate(texts)]
            lines.append(f"{passed} += 1")
            if None not in test_of:
                lines += ["if not (" + " or ".join(
                    f"keep{j}" for j in range(len(texts))) + "):",
                          "    continue"]
            return lines
        front = front_of(
            section, s, frozenset().union(*(m.needed for m in members)),
            [member.prefilter for member in members], accept)
        setup.append(f"{passed} = 0")
        positions = range(first, first + len(members))
        lines = ["try:"] + _indent(front.lines) + [
            "except Exception as error:"] + _indent([
                line for g in positions for line in [
                    f"if live_{g}:", f"    live_{g} = False",
                    f"    ran_{g} = {seen}",
                    f"    passed_{g} = {passed}", f"    fail(({g}, error))"]
            ] + ["continue"])
        one_test = set(front.test_of) == {0}
        for g, member, test in zip(positions, members, front.test_of):
            setup.extend([f"live_{g} = True", f"m_{g} = 0", f"passed_{g} = 0"])
            spliced = action_of(g, member, front)
            finish.extend(closing(g, seen, [
                f"if live_{g}:",
                f"    passed_{g} = {passed}",
                f"node_{g}.stats.tuples_in += passed_{g}",
                f"node_{g}.stats.discarded += passed_{g} - m_{g}",
            ] + spliced.finish))
            keeps = "" if test is None or one_test else f" and keep{test}"
            lines += _ended([f"if live_{g}{keeps}:"] + _indent(
                ["try:"] + _indent([f"m_{g} += 1"] + spliced.body)
                + stopped(g, seen, passed)), g == positions[-1])
        return lines

    sections = 0
    for b, branch in enumerate(branches):
        steps: List[List[str]] = []
        # the packets of the branch's run taken so far: for the whole
        # block, read off the loop's iterator (no per-packet count)
        seen = "len(packets) - length_hint(it)"
        if branch.interface is not None and branch.sections:
            seen = f"seen{b}"
            setup.append(f"{seen} = 0")
            steps.append([f"{seen} += 1"])
        if branch.collect:
            setup += [f"run{b} = []", f"ra{b} = run{b}.append"]
            runs.append(f"run{b}")
            steps.append([f"ra{b}(p)"])
        for section in branch.sections:
            steps.append((lone if len(section.members) == 1 else group)(
                section, sections, len(rows), seen))
            sections += 1
        if branch.interface is None:
            everywhere.extend(steps)
        elif steps:
            arms.append((branch.interface, steps))

    body = ["d = p.data", "n = len(d)", "nbytes += n"]
    for i, step in enumerate(everywhere):
        body += _ended(step, not arms and i == len(everywhere) - 1)
    if arms:
        body.append("where = p.interface")
        for k, (interface, steps) in enumerate(arms):
            body.append(f"{'elif' if k else 'if'} where == {interface!r}:")
            body += _indent([line for i, step in enumerate(steps)
                             for line in _ended(step, i == len(steps) - 1)])
    collected = "".join(f"{run}, " for run in runs)
    lines = ["def kernel(packets):"] + _indent(setup + [
        "it = iter(packets)",
        "try:",
        "    for p in it:",
    ] + _indent(body, 2) + ["finally:"] + _indent(finish or ["pass"]) + [
        f"return BlockTally({' + '.join(rows) or 0}, nbytes, "
        f"({collected.rstrip(' ')}), failed)",
    ])
    source = "\n".join(lines) + "\n"
    exec(_compiled(source), env)
    return env["kernel"], source


def _ended(lines: List[str], last: bool) -> List[str]:
    """``lines`` as one step of a packet's work.  Where they end early
    (``continue``) they end only themselves: inside a one-pass ``while``
    their ``continue`` is a ``break`` -- unless nothing follows them in
    the packet's loop.  The lines hold no loop of their own but such
    one-pass ones, whose early ends are ``break`` already."""
    if last or not any(line.strip() == "continue" for line in lines):
        return lines
    return ["while True:"] + _indent([
        line.replace("continue", "break") if line.strip() == "continue"
        else line for line in lines] + ["break"])


#: names a row action reads without owning them: the row's, Python's and
#: the kernel's ``trunc`` (``time``)
_SHARED_NAMES = frozenset(ROW_NAMES) | frozenset(dir(builtins)) | {"trunc"}


def _renamed(spliced: ActionSource, suffix: str) -> ActionSource:
    """``spliced`` with ``suffix`` on every name it binds or takes from
    its environment -- all but the row's and the builtins -- so the
    actions of several members can share one function."""
    def rename(lines: List[str]) -> List[str]:
        if not lines:
            return lines
        text = "\n".join(lines) + "\n"
        ends = []
        previous = ""
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if (token.type == tokenize.NAME and previous != "."
                    and not keyword.iskeyword(token.string)
                    and token.string not in _SHARED_NAMES):
                ends.append(token.end)
            if token.type in (tokenize.NAME, tokenize.OP, tokenize.NUMBER,
                              tokenize.STRING):
                previous = token.string
        out = list(lines)
        for row, col in reversed(ends):
            out[row - 1] = out[row - 1][:col] + suffix + out[row - 1][col:]
        return out

    return ActionSource(
        rename(spliced.setup), rename(spliced.body), rename(spliced.finish),
        {name + suffix: value for name, value in spliced.env.items()
         if not name.startswith("__")})


def _indent(lines: Sequence[str], levels: int = 1) -> List[str]:
    pad = "    " * levels
    return [pad + line for line in lines]


def has_layout(protocol: str) -> bool:
    """Whether ``protocol`` belongs to the family generated here."""
    return protocol in _FAMILIES


def prefix_readable(attribute: str) -> bool:
    """Whether a pushed prefix may read ``attribute``: a header field
    or scalar capture metadata, which the loop has in hand after one
    unpack -- not ``data``, which is sliced for survivors only."""
    source = _ATTRIBUTES.get(attribute)
    return source is not None and (
        source.layer != "meta" or source.field in _META_SOURCES)


def decode_block(packets: Sequence[CapturedPacket], decode: Callable):
    """The one per-block decode entry (``ProtocolSchema.columnar_decoder``).

    Every block kernel of a run -- the RTS's and an LFTA's own -- goes
    through the schema attribute holding this function, so whoever
    replaces that attribute (the benchmark's outside-in ``net.decode``
    span) sees each exactly once.  ``decode`` is the loop to run; what
    comes back counts its rows under ``n`` (a :class:`BlockTally`).
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
