"""Protocols, Streams, Interfaces: the GSQL data definition layer.

A **Protocol** is a data stream produced by interpreting raw packets
with a library of interpretation functions; its schema maps field names
to those functions.  A **Stream** is the output of a GSQL query; its
tuples are packed positionally.  A Protocol must be bound to an
**Interface** (a symbolic packet source) to fully specify a query
source (paper Section 2.2).

The DDL (:func:`parse_ddl`) lets users declare new protocols and their
ordering properties, mirroring "The Gigascope data definition language
allows the user to specify special properties of the attributes in a
source stream, including the ordering properties."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.gsql.lexer import (
    EOF,
    GSQLSyntaxError,
    IDENT,
    KEYWORD,
    NUMBER,
    OP,
    TokenStream,
)
from repro.gsql.ordering import Ordering, OrderingKind
from repro.gsql.types import (
    BOOL,
    FLOAT,
    GSQLType,
    INT,
    IP,
    IP6,
    STRING,
    UINT,
    parse_type,
)
from repro.net.bgp import BGPUpdate
from repro.net.columnar import (Decoder, Member, Prefilter, RowAction,
                                Section, decode_block, generated_decoder,
                                has_layout, lean_formats, prefix_readable)
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetHeader
from repro.net.icmp import ICMPHeader
from repro.net.ip import IPv4Header, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.net.ipv6 import (
    ETHERTYPE_IPV6,
    EXT_FRAGMENT,
    IPv6Header,
    skip_extension_headers,
)
from repro.net.netflow import unpack_netflow_v5
from repro.net.packet import CapturedPacket
from repro.net.tcp import TCPHeader
from repro.net.udp import UDPHeader


@dataclass(frozen=True)
class Attribute:
    """One attribute of a Protocol or Stream schema."""

    name: str
    gsql_type: GSQLType
    ordering: Ordering = field(default_factory=Ordering.none)

    def __str__(self) -> str:
        text = f"{self.name} {self.gsql_type}"
        if self.ordering.kind != OrderingKind.NONE:
            text += f" ({self.ordering})"
        return text


class SchemaError(ValueError):
    """Raised for schema definition and lookup errors."""


class _BaseSchema:
    """Shared name/attribute handling for Protocol and Stream schemas."""

    def __init__(self, name: str, attributes: Sequence[Attribute]) -> None:
        self.name = name
        self.attributes: Tuple[Attribute, ...] = tuple(attributes)
        self._index: Dict[str, int] = {}
        for position, attribute in enumerate(self.attributes):
            key = attribute.name.lower()
            if key in self._index:
                raise SchemaError(f"duplicate attribute {attribute.name!r} in {name}")
            self._index[key] = position

    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._index

    def index_of(self, name: str) -> int:
        """Position of attribute ``name`` (case-insensitive)."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(f"no attribute {name!r} in {self.name}") from None

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self.index_of(name)]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(attribute.name for attribute in self.attributes)

    def ordered_attributes(self) -> List[Attribute]:
        """Attributes whose ordering can bound operator state."""
        return [a for a in self.attributes if a.ordering.usable_for_windows]


class PacketView:
    """Lazily parsed view of a captured packet.

    Interpretation functions read fields from this view; headers are
    parsed at most once per packet and missing layers yield ``None``
    (which discards the tuple, like a partial function with no result).
    """

    __slots__ = ("packet", "_eth", "_ip", "_ip6", "_l4", "_payload_offset",
                 "_parsed")

    def __init__(self, packet: CapturedPacket) -> None:
        self.packet = packet
        self._eth: Optional[EthernetHeader] = None
        self._ip: Optional[IPv4Header] = None
        self._ip6: Optional[IPv6Header] = None
        self._l4 = None
        self._payload_offset = -1
        self._parsed = False

    def _parse(self) -> None:
        if self._parsed:
            return
        self._parsed = True
        data = self.packet.data
        try:
            self._eth = EthernetHeader.parse(data, 0)
        except ValueError:
            return
        offset = self._eth.header_len
        if self._eth.ethertype == ETHERTYPE_IPV4:
            try:
                self._ip = IPv4Header.parse(data, offset)
            except ValueError:
                return
            offset += self._ip.header_len
            # Non-first fragments carry no L4 header.
            if self._ip.fragment_offset > 0:
                self._payload_offset = offset
                return
            protocol = self._ip.protocol
        elif self._eth.ethertype == ETHERTYPE_IPV6:
            try:
                self._ip6 = IPv6Header.parse(data, offset)
                offset += self._ip6.header_len
                protocol, offset = skip_extension_headers(
                    data, offset, self._ip6.next_header)
            except ValueError:
                self._ip6 = None
                return
            if protocol == EXT_FRAGMENT:
                self._payload_offset = offset
                return
        else:
            return
        try:
            if protocol == PROTO_TCP:
                self._l4 = TCPHeader.parse(data, offset)
                offset += self._l4.header_len
            elif protocol == PROTO_UDP:
                self._l4 = UDPHeader.parse(data, offset)
                offset += self._l4.header_len
            elif protocol == PROTO_ICMP:
                self._l4 = ICMPHeader.parse(data, offset)
                offset += self._l4.header_len
        except ValueError:
            self._l4 = None
        self._payload_offset = offset

    @property
    def eth(self) -> Optional[EthernetHeader]:
        self._parse()
        return self._eth

    @property
    def ip(self) -> Optional[IPv4Header]:
        self._parse()
        return self._ip

    @property
    def tcp(self) -> Optional[TCPHeader]:
        self._parse()
        return self._l4 if isinstance(self._l4, TCPHeader) else None

    @property
    def udp(self) -> Optional[UDPHeader]:
        self._parse()
        return self._l4 if isinstance(self._l4, UDPHeader) else None

    @property
    def icmp(self) -> Optional[ICMPHeader]:
        self._parse()
        return self._l4 if isinstance(self._l4, ICMPHeader) else None

    @property
    def ip6(self) -> Optional[IPv6Header]:
        self._parse()
        return self._ip6

    @property
    def payload(self) -> Optional[bytes]:
        """The L4 payload (or IP payload for fragments), possibly truncated."""
        self._parse()
        if self._payload_offset < 0:
            return None
        return self.packet.data[self._payload_offset :]


FieldFunction = Callable[[PacketView], object]


class ProtocolSchema(_BaseSchema):
    """A Protocol: schema plus per-field interpretation functions.

    ``interpret(packet)`` returns a list of tuples (usually 0 or 1;
    Netflow datagrams expand to up to 30).  A field function returning
    ``None`` discards the candidate tuple -- the packet does not belong
    to this protocol.
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[Attribute],
        field_functions: Dict[str, FieldFunction],
        expander: Optional[Callable[[CapturedPacket], List[tuple]]] = None,
        clock_fields: Optional[Dict[str, Callable[[float], object]]] = None,
        guard: Optional[Callable[[PacketView], bool]] = None,
        layout: Optional[str] = None,
    ) -> None:
        super().__init__(name, attributes)
        self._expander = expander
        #: the protocol's family in :mod:`repro.net.columnar`'s layout
        #: table (built-in ip/tcp/udp only), from which per-plan block
        #: decoders are generated (:meth:`block_decoder`); None keeps
        #: the row adapter.
        if layout is not None and not has_layout(layout):
            raise SchemaError(f"no block-decoder layout named {layout!r}")
        self._layout = layout
        #: the one per-block decode entry ``f(packets, decode)`` every
        #: consumer of this protocol copies at build time and runs its
        #: generated decoder through (DESIGN section 14); None for a
        #: protocol without a layout.
        self.columnar_decoder = decode_block if layout is not None else None
        #: membership test: does this packet belong to the protocol at
        #: all?  Checked before any field is interpreted, so a query
        #: that only touches capture metadata (e.g. ``time``) still
        #: sees only its own protocol's packets.
        self._guard = guard
        self._functions: List[FieldFunction] = []
        if expander is None:
            for attribute in self.attributes:
                function = field_functions.get(attribute.name.lower())
                if function is None:
                    raise SchemaError(
                        f"no interpretation function for {name}.{attribute.name}"
                    )
                self._functions.append(function)
        # Which attributes track the capture clock, and how a stream-time
        # heartbeat translates into a lower bound for each.
        if clock_fields is None:
            clock_fields = {}
            if "time" in self:
                clock_fields["time"] = int
            if "timestamp" in self:
                clock_fields["timestamp"] = lambda ts: ts
        self.clock_fields: Dict[int, Callable[[float], object]] = {
            self.index_of(field_name): bound_fn
            for field_name, bound_fn in clock_fields.items()
        }

    def clock_bounds(self, stream_time: float) -> Dict[int, object]:
        """Lower bounds on clock attributes implied by ``stream_time``."""
        return {
            index: bound_fn(stream_time)
            for index, bound_fn in self.clock_fields.items()
        }

    def block_decoder(self, needed_indices: Iterable[int],
                      prefilters: Sequence[Optional[Prefilter]] = (),
                      lean: bool = False,
                      action: Optional[RowAction] = None
                      ) -> Optional[Decoder]:
        """The generated block decoder covering ``needed_indices``: it
        unpacks only the header bytes those attributes (and the guard)
        read, and its rows are exactly the packets the guard admits --
        or, with ``prefilters`` (one entry per consumer: its pushed
        prefix, or None), those some consumer keeps.  A lone consumer's
        ``action`` runs on each row inside the loop; without one the
        rows come back as a block.  ``lean`` asks for the two-struct
        form.  None for a protocol without a layout and for a lean form
        that does not exist."""
        if self._layout is None:
            return None
        return generated_decoder(
            self._layout, self._layout_names(),
            frozenset(needed_indices), prefilters, lean, action)

    def kernel_section(self, members: Sequence[Member],
                       lean: bool = False) -> Section:
        """``members`` -- LFTAs of this protocol on one interface -- as
        one section of the RTS's block kernel: the guard once, each
        distinct pushed prefix once, then each member's row action;
        ``lean`` asks for the two-struct form.  Only for a protocol
        with a layout."""
        return Section(self._layout, self._layout_names(), tuple(members),
                       lean)

    def _layout_names(self) -> Tuple[str, ...]:
        """Attribute names as :mod:`repro.net.columnar` spells them."""
        return tuple(attribute.name.lower() for attribute in self.attributes)

    def lean_formats(self, needed_indices: Iterable[int],
                     prefix_slots: Iterable[int]) -> Tuple[str, ...]:
        """The two struct formats of the lean decoder of
        ``needed_indices`` whose pushed prefixes read ``prefix_slots``
        (before the test, for survivors); empty when there is none."""
        if self._layout is None:
            return ()
        return lean_formats(
            self._layout, self._layout_names(),
            frozenset(needed_indices), frozenset(prefix_slots))

    def prefix_fields(self) -> FrozenSet[int]:
        """Attribute positions a pushed prefix may read: the layout's
        header fields and scalar capture metadata (empty without a
        layout)."""
        if self._layout is None:
            return frozenset()
        return frozenset(
            index for index, name in enumerate(self._layout_names())
            if prefix_readable(name))

    def sparse_interpreter(
        self, needed_indices: Sequence[int]
    ) -> Callable[[CapturedPacket], List[tuple]]:
        """An interpreter evaluating only the listed attribute positions.

        The returned rows still have one slot per schema attribute
        (unneeded slots are ``None``), so compiled code can index them
        by attribute position.  Expander-based protocols always produce
        full rows.
        """
        if self._expander is not None:
            expander = self._expander

            def expand(packet: CapturedPacket, view=None) -> List[tuple]:
                return expander(packet)

            return expand
        width = len(self.attributes)
        pairs = [(index, self._functions[index]) for index in sorted(set(needed_indices))]
        guard = self._guard

        def interpret(packet: CapturedPacket,
                      view: Optional[PacketView] = None) -> List[tuple]:
            # A caller-supplied view lets several LFTAs on one interface
            # share a single header parse per packet.
            if view is None:
                view = PacketView(packet)
            if guard is not None and not guard(view):
                return []
            row = [None] * width
            for index, function in pairs:
                value = function(view)
                if value is None:
                    return []
                row[index] = value
            return [tuple(row)]

        return interpret

    def field_function(self, name: str) -> FieldFunction:
        if self._expander is not None:
            raise SchemaError(f"{self.name} is interpreted by an expander")
        return self._functions[self.index_of(name)]

    def interpret(self, packet: CapturedPacket) -> List[tuple]:
        """Interpret a packet into zero or more tuples."""
        if self._expander is not None:
            return self._expander(packet)
        view = PacketView(packet)
        if self._guard is not None and not self._guard(view):
            return []
        values = []
        for function in self._functions:
            value = function(view)
            if value is None:
                return []
            values.append(value)
        return [tuple(values)]


class StreamSchema(_BaseSchema):
    """The schema of a query output stream (positional tuples)."""


class SchemaRegistry:
    """Maps protocol names to schemas; the RTS consults this at bind time."""

    def __init__(self) -> None:
        self._protocols: Dict[str, ProtocolSchema] = {}

    def add(self, schema: ProtocolSchema) -> None:
        key = schema.name.lower()
        if key in self._protocols:
            raise SchemaError(f"protocol {schema.name!r} already registered")
        self._protocols[key] = schema

    def get(self, name: str) -> Optional[ProtocolSchema]:
        return self._protocols.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._protocols

    def names(self) -> List[str]:
        return sorted(self._protocols)


# ---------------------------------------------------------------------------
# Built-in protocols
# ---------------------------------------------------------------------------

def _time_field(view: PacketView) -> object:
    # The paper's `time` is a 1-second granularity timer.
    return int(view.packet.timestamp)


def _timestamp_field(view: PacketView) -> object:
    return view.packet.timestamp


def _ip_fields() -> Dict[str, FieldFunction]:
    return {
        "time": _time_field,
        "timestamp": _timestamp_field,
        "ipversion": lambda v: v.ip.version if v.ip else None,
        "protocol": lambda v: v.ip.protocol if v.ip else None,
        "srcip": lambda v: v.ip.src if v.ip else None,
        "destip": lambda v: v.ip.dst if v.ip else None,
        "len": lambda v: v.packet.orig_len,
        "caplen": lambda v: v.packet.caplen,
        "ttl": lambda v: v.ip.ttl if v.ip else None,
        "id": lambda v: v.ip.identification if v.ip else None,
        "frag_offset": lambda v: v.ip.fragment_offset if v.ip else None,
        "more_fragments": lambda v: (1 if v.ip.more_fragments else 0) if v.ip else None,
    }


_IP_ATTRIBUTES = [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("timestamp", FLOAT, Ordering.increasing()),
    Attribute("ipversion", UINT),
    Attribute("protocol", UINT),
    Attribute("srcIP", IP),
    Attribute("destIP", IP),
    Attribute("len", UINT),
    Attribute("caplen", UINT),
    Attribute("ttl", UINT),
    Attribute("id", UINT),
    Attribute("frag_offset", UINT),
    Attribute("more_fragments", UINT),
]


def _make_ip_protocol() -> ProtocolSchema:
    return ProtocolSchema("ip", _IP_ATTRIBUTES, _ip_fields(),
                          guard=lambda v: v.ip is not None,
                          layout="ip")


def _make_tcp_protocol() -> ProtocolSchema:
    fields = _ip_fields()
    fields.update(
        {
            "srcport": lambda v: v.tcp.src_port if v.tcp else None,
            "destport": lambda v: v.tcp.dst_port if v.tcp else None,
            "tcpflags": lambda v: v.tcp.flags if v.tcp else None,
            "seqno": lambda v: v.tcp.seq if v.tcp else None,
            "ackno": lambda v: v.tcp.ack if v.tcp else None,
            "tcpwindow": lambda v: v.tcp.window if v.tcp else None,
            "data": lambda v: v.payload if v.tcp else None,
        }
    )
    attributes = _IP_ATTRIBUTES + [
        Attribute("srcPort", UINT),
        Attribute("destPort", UINT),
        Attribute("tcpflags", UINT),
        Attribute("seqno", UINT),
        Attribute("ackno", UINT),
        Attribute("tcpwindow", UINT),
        Attribute("data", STRING),
    ]
    return ProtocolSchema("tcp", attributes, fields,
                          guard=lambda v: v.ip is not None and v.tcp is not None,
                          layout="tcp")


def _make_udp_protocol() -> ProtocolSchema:
    fields = _ip_fields()
    fields.update(
        {
            "srcport": lambda v: v.udp.src_port if v.udp else None,
            "destport": lambda v: v.udp.dst_port if v.udp else None,
            "udplen": lambda v: v.udp.length if v.udp else None,
            "data": lambda v: v.payload if v.udp else None,
        }
    )
    attributes = _IP_ATTRIBUTES + [
        Attribute("srcPort", UINT),
        Attribute("destPort", UINT),
        Attribute("udplen", UINT),
        Attribute("data", STRING),
    ]
    return ProtocolSchema("udp", attributes, fields,
                          guard=lambda v: v.ip is not None and v.udp is not None,
                          layout="udp")


_ETHERNET_ATTRIBUTES = [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("timestamp", FLOAT, Ordering.increasing()),
    Attribute("ethertype", UINT),
    Attribute("len", UINT),
    Attribute("eth_src", STRING),
    Attribute("eth_dst", STRING),
]


def _make_ethernet_protocol() -> ProtocolSchema:
    """Link-layer accounting: every frame, regardless of network layer."""
    fields: Dict[str, FieldFunction] = {
        "time": _time_field,
        "timestamp": _timestamp_field,
        "ethertype": lambda v: v.eth.ethertype if v.eth else None,
        "len": lambda v: v.packet.orig_len,
        "eth_src": lambda v: v.eth.src.encode() if v.eth else None,
        "eth_dst": lambda v: v.eth.dst.encode() if v.eth else None,
    }
    return ProtocolSchema("ethernet", _ETHERNET_ATTRIBUTES, fields,
                          guard=lambda v: v.eth is not None)


def _ip6_fields() -> Dict[str, FieldFunction]:
    return {
        "time": _time_field,
        "timestamp": _timestamp_field,
        "ipversion": lambda v: v.ip6.version if v.ip6 else None,
        "srcip6": lambda v: v.ip6.src if v.ip6 else None,
        "destip6": lambda v: v.ip6.dst if v.ip6 else None,
        "len": lambda v: v.packet.orig_len,
        "hoplimit": lambda v: v.ip6.hop_limit if v.ip6 else None,
        "flow_label": lambda v: v.ip6.flow_label if v.ip6 else None,
    }


_IP6_ATTRIBUTES = [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("timestamp", FLOAT, Ordering.increasing()),
    Attribute("ipversion", UINT),
    Attribute("srcIP6", IP6),
    Attribute("destIP6", IP6),
    Attribute("len", UINT),
    Attribute("hoplimit", UINT),
    Attribute("flow_label", UINT),
]


def _make_tcp6_protocol() -> ProtocolSchema:
    fields = _ip6_fields()
    fields.update(
        {
            "srcport": lambda v: v.tcp.src_port if (v.ip6 and v.tcp) else None,
            "destport": lambda v: v.tcp.dst_port if (v.ip6 and v.tcp) else None,
            "tcpflags": lambda v: v.tcp.flags if (v.ip6 and v.tcp) else None,
            "data": lambda v: v.payload if (v.ip6 and v.tcp) else None,
        }
    )
    attributes = _IP6_ATTRIBUTES + [
        Attribute("srcPort", UINT),
        Attribute("destPort", UINT),
        Attribute("tcpflags", UINT),
        Attribute("data", STRING),
    ]
    return ProtocolSchema("tcp6", attributes, fields,
                          guard=lambda v: v.ip6 is not None and v.tcp is not None)


def _make_udp6_protocol() -> ProtocolSchema:
    fields = _ip6_fields()
    fields.update(
        {
            "srcport": lambda v: v.udp.src_port if (v.ip6 and v.udp) else None,
            "destport": lambda v: v.udp.dst_port if (v.ip6 and v.udp) else None,
            "data": lambda v: v.payload if (v.ip6 and v.udp) else None,
        }
    )
    attributes = _IP6_ATTRIBUTES + [
        Attribute("srcPort", UINT),
        Attribute("destPort", UINT),
        Attribute("data", STRING),
    ]
    return ProtocolSchema("udp6", attributes, fields,
                          guard=lambda v: v.ip6 is not None and v.udp is not None)


def _make_icmp_protocol() -> ProtocolSchema:
    fields = _ip_fields()
    fields.update(
        {
            "icmp_type": lambda v: v.icmp.icmp_type if v.icmp else None,
            "icmp_code": lambda v: v.icmp.code if v.icmp else None,
            "icmp_id": lambda v: v.icmp.identifier if v.icmp else None,
            "icmp_seq": lambda v: v.icmp.sequence if v.icmp else None,
        }
    )
    attributes = _IP_ATTRIBUTES + [
        Attribute("icmp_type", UINT),
        Attribute("icmp_code", UINT),
        Attribute("icmp_id", UINT),
        Attribute("icmp_seq", UINT),
    ]
    return ProtocolSchema("icmp", attributes, fields,
                          guard=lambda v: v.icmp is not None)


_NETFLOW_ATTRIBUTES = [
    Attribute("time_end", FLOAT, Ordering.increasing()),
    # Routers dump their cache every 30 s, so start times trail the
    # high-water mark by at most that much (paper Section 2.1).
    Attribute("time_start", FLOAT, Ordering.banded(30.0)),
    Attribute("srcIP", IP),
    Attribute("destIP", IP),
    Attribute("srcPort", UINT),
    Attribute("destPort", UINT),
    Attribute("protocol", UINT),
    Attribute("packets", UINT),
    Attribute("octets", UINT),
    Attribute("tcpflags", UINT),
]


def _netflow_expander(packet: CapturedPacket) -> List[tuple]:
    """Expand a UDP datagram carrying Netflow v5 into flow tuples."""
    view = PacketView(packet)
    payload = view.payload if view.udp else None
    if not payload:
        return []
    try:
        records = unpack_netflow_v5(payload)
    except ValueError:
        return []
    return [
        (
            record.end_time,
            record.start_time,
            record.src_ip,
            record.dst_ip,
            record.src_port,
            record.dst_port,
            record.protocol,
            record.packets,
            record.octets,
            record.tcp_flags,
        )
        for record in records
    ]


def _make_netflow_protocol() -> ProtocolSchema:
    return ProtocolSchema(
        "netflow",
        _NETFLOW_ATTRIBUTES,
        {},
        expander=_netflow_expander,
        clock_fields={
            "time_end": lambda ts: ts,
            # Start times trail the export high-water mark by the 30 s
            # cache-dump interval (banded-increasing(30)).
            "time_start": lambda ts: ts - 30.0,
        },
    )


_DNS_ATTRIBUTES = [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("timestamp", FLOAT, Ordering.increasing()),
    Attribute("srcIP", IP),
    Attribute("destIP", IP),
    Attribute("txid", UINT),
    Attribute("is_response", UINT),
    Attribute("rcode", UINT),
    Attribute("qtype", UINT),
    Attribute("answers", UINT),
    Attribute("qname", STRING),
]


def _dns_expander(packet: CapturedPacket) -> List[tuple]:
    """Interpret UDP port-53 datagrams as DNS messages."""
    from repro.net.dns import DNSMessage
    view = PacketView(packet)
    udp = view.udp
    if udp is None or view.ip is None:
        return []
    if udp.src_port != 53 and udp.dst_port != 53:
        return []
    payload = view.payload
    if not payload:
        return []
    try:
        message = DNSMessage.parse(payload)
    except ValueError:
        return []
    return [
        (
            int(packet.timestamp),
            packet.timestamp,
            view.ip.src,
            view.ip.dst,
            message.txid,
            1 if message.is_response else 0,
            message.rcode,
            message.qtype,
            message.answers,
            message.qname.encode(),
        )
    ]


def _make_dns_protocol() -> ProtocolSchema:
    return ProtocolSchema("dns", _DNS_ATTRIBUTES, {}, expander=_dns_expander)


_BGP_ATTRIBUTES = [
    Attribute("time", UINT, Ordering.increasing()),
    Attribute("peerIP", IP),
    Attribute("origin_as", UINT),
    Attribute("announced", UINT),
    Attribute("withdrawn", UINT),
    Attribute("path_len", UINT),
]


def _bgp_expander(packet: CapturedPacket) -> List[tuple]:
    """Interpret a packet whose UDP/TCP payload is one BGP UPDATE."""
    view = PacketView(packet)
    payload = view.payload
    if not payload or view.ip is None:
        return []
    try:
        update = BGPUpdate.parse(payload)
    except (ValueError, IndexError):
        return []
    return [
        (
            int(packet.timestamp),
            view.ip.src,
            update.origin_as,
            len(update.announced),
            len(update.withdrawn),
            len(update.as_path),
        )
    ]


def _make_bgp_protocol() -> ProtocolSchema:
    return ProtocolSchema("bgp", _BGP_ATTRIBUTES, {}, expander=_bgp_expander)


def builtin_registry() -> SchemaRegistry:
    """The stock protocol library: ip, tcp, udp, icmp, netflow, bgp."""
    registry = SchemaRegistry()
    registry.add(_make_ethernet_protocol())
    registry.add(_make_ip_protocol())
    registry.add(_make_tcp_protocol())
    registry.add(_make_udp_protocol())
    registry.add(_make_icmp_protocol())
    registry.add(_make_tcp6_protocol())
    registry.add(_make_udp6_protocol())
    registry.add(_make_dns_protocol())
    registry.add(_make_netflow_protocol())
    registry.add(_make_bgp_protocol())
    return registry


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------

def _parse_ordering(stream: TokenStream) -> Ordering:
    """Parse an ordering spec inside parentheses after a type name."""
    token = stream.expect(IDENT)
    word = token.text.lower()
    if word == "strictly":
        direction = stream.expect(IDENT).text.lower()
        if direction == "increasing":
            return Ordering.increasing(strict=True)
        if direction == "decreasing":
            return Ordering.decreasing(strict=True)
        raise GSQLSyntaxError(f"bad ordering {word} {direction}", token.line, token.column)
    if word == "increasing":
        return Ordering.increasing()
    if word == "decreasing":
        return Ordering.decreasing()
    if word == "nonrepeating":
        return Ordering.nonrepeating()
    if word == "banded_increasing":
        stream.expect(OP, "(")
        number = stream.expect(NUMBER)
        stream.expect(OP, ")")
        return Ordering.banded(float(number.value))
    if word == "increasing_in_group":
        stream.expect(OP, "(")
        fields = [stream.expect(IDENT).text]
        while stream.accept(OP, ","):
            fields.append(stream.expect(IDENT).text)
        stream.expect(OP, ")")
        return Ordering.in_group(*fields)
    raise GSQLSyntaxError(f"unknown ordering property {word!r}", token.line, token.column)


def parse_ddl(
    text: str,
    field_library: Optional[Dict[str, FieldFunction]] = None,
) -> List[ProtocolSchema]:
    """Parse DDL text declaring protocols.

    Syntax::

        PROTOCOL name (
            field TYPE [(ordering)] ,
            ...
        )

    Interpretation functions are resolved from ``field_library`` by
    lower-cased field name; it defaults to the built-in IP/TCP/UDP field
    library so users can compose custom protocol views of stock fields.
    """
    if field_library is None:
        field_library = _ip_fields()
        tcp = _make_tcp_protocol()
        for name in ("srcport", "destport", "tcpflags", "seqno", "ackno",
                     "tcpwindow", "data"):
            field_library[name] = tcp.field_function(name)
    stream = TokenStream.from_text(text)
    schemas: List[ProtocolSchema] = []
    while not stream.at_end:
        stream.expect(IDENT, "PROTOCOL")
        name = stream.expect(IDENT).text
        stream.expect(OP, "(")
        attributes: List[Attribute] = []
        functions: Dict[str, FieldFunction] = {}
        while True:
            field_name = stream.expect(IDENT).text
            type_token = stream.next()
            gsql_type = parse_type(type_token.text)
            ordering = Ordering.none()
            if stream.accept(OP, "("):
                ordering = _parse_ordering(stream)
                stream.expect(OP, ")")
            attributes.append(Attribute(field_name, gsql_type, ordering))
            key = field_name.lower()
            if key not in field_library:
                raise SchemaError(
                    f"field {field_name!r} not in the interpretation library"
                )
            functions[key] = field_library[key]
            if not stream.accept(OP, ","):
                break
        stream.expect(OP, ")")
        stream.accept(OP, ";")
        schemas.append(ProtocolSchema(name, attributes, functions))
    return schemas
