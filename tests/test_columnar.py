"""Guard/field equivalence tests for the generated front end.

DESIGN section 14's byte-identity contract at its root: for the
builtin ``ip``/``tcp``/``udp`` protocols, a block kernel generated for
*any* subset of a protocol's attributes must keep exactly the rows the
row-at-a-time interpreter keeps, in the same order, with identical
field values -- over an adversarial corpus of truncations, IP options,
fragments and corrupt headers, and over arbitrary bytes: the guard is
total, it never raises on what a capture device hands it.  The rows are
read off a one-member kernel whose row action records them
(``tests/kernel_rows.py``).
"""

import itertools
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gsql.schema import builtin_registry
from repro.net import columnar
from repro.net.build import build_tcp_frame, build_udp_frame, capture

from tests.kernel_rows import KernelRows, kernel_rows

REGISTRY = builtin_registry()
PROTOCOLS = ("ip", "tcp", "udp")


def _mutate(frame: bytes, offset: int, value: bytes) -> bytes:
    return frame[:offset] + value + frame[offset + len(value):]


def _with_ip_options(frame: bytes, words: int = 1) -> bytes:
    """The frame with ``words`` NOP option groups (IHL > 5)."""
    ihl = (frame[14] & 0x0F) + words
    out = frame[:34] + b"\x01\x01\x01\x01" * words + frame[34:]
    out = _mutate(out, 14, bytes([(frame[14] & 0xF0) | ihl]))
    total_len = int.from_bytes(frame[16:18], "big") + 4 * words
    return _mutate(out, 16, total_len.to_bytes(2, "big"))


def _edge_frames():
    """Whole frames spanning every guard edge the decoders replicate."""
    tcp = build_tcp_frame("10.0.0.1", "10.0.0.2", 1234, 80,
                          payload=b"GET / HTTP/1.1\r\n", flags=0x18,
                          seq=7, ack=9)
    tcp_empty = build_tcp_frame("10.0.0.1", "10.0.0.2", 1234, 443,
                                flags=0x02)
    udp = build_udp_frame("10.0.0.3", "10.0.0.4", 5353, 53, payload=b"q")
    udp_empty = build_udp_frame("10.0.0.3", "10.0.0.4", 5353, 123)
    frames = [
        tcp, tcp_empty, udp, udp_empty,
        _mutate(tcp, 20, b"\x20\x00"),   # MF set, offset 0: L4 parses
        _mutate(tcp, 20, b"\x20\x03"),   # MF set, offset 3: fragment
        _mutate(tcp, 20, b"\x00\x40"),   # later fragment, no MF
        _mutate(tcp, 20, b"\x40\x00"),   # DF: parses normally
        _mutate(udp, 20, b"\x3f\xff"),   # every frag bit lit
        _mutate(udp, 20, b"\x20\x00"),   # UDP first fragment, MF
        _mutate(tcp, 12, b"\x08\x06"),   # ARP ethertype
        _mutate(tcp, 12, b"\x86\xdd"),   # IPv6 ethertype
        _mutate(tcp, 14, b"\x44"),       # IHL 4: corrupt IP header
        _mutate(tcp, 14, b"\x65"),       # version nibble 6, IHL 5
        _mutate(tcp, 46, b"\x40"),       # TCP data offset 16 bytes (< 20)
        _mutate(tcp, 46, b"\x00"),       # TCP data offset 0
        _mutate(tcp, 46, b"\xf0"),       # TCP data offset 60 > capture
        _mutate(tcp, 23, b"\x11"),       # proto says UDP on a TCP layout
        _mutate(udp, 23, b"\x06"),       # proto says TCP on a UDP layout
        b"",                             # empty capture
        b"\x00" * 10,                    # sub-ethernet garbage
        b"\xff" * 60,                    # full-size garbage
    ]
    # IHL 6..15 on both L4 protocols: the second-unpack path.
    for words in range(1, 11):
        frames.append(_with_ip_options(tcp, words))
        frames.append(_with_ip_options(udp, words))
    # A data offset past the capture behind IP options.
    frames.append(_mutate(_with_ip_options(tcp, 2), 54, b"\xf0"))
    return tcp, udp, frames


def _corpus():
    """The edge frames plus every truncation prefix of a TCP, a UDP and
    an options frame: the cut can land inside any header layer."""
    tcp, udp, frames = _edge_frames()
    packets = [capture(frame, 0.25 + i * 0.5, interface="eth0")
               for i, frame in enumerate(frames)]
    for base, start in ((tcp, 100.0), (udp, 300.0),
                        (_with_ip_options(tcp), 500.0),
                        (_with_ip_options(udp, 10), 700.0)):
        packets.extend(capture(base, start + cut, snaplen=cut)
                       for cut in range(1, len(base)))
    return packets


def _interpreted_rows(protocol, packets, subset):
    interpret = protocol.sparse_interpreter(subset)
    return [row for p in packets for row in interpret(p)]


@pytest.mark.parametrize("name", PROTOCOLS)
class TestGuardEquivalence:
    def test_block_decode_matches_row_interpreter(self, name):
        protocol = REGISTRY.get(name)
        packets = _corpus()
        scalar = [row for p in packets for row in protocol.interpret(p)]
        assert kernel_rows(protocol, packets) == scalar
        assert scalar  # the corpus must exercise surviving rows too

    def test_single_packet_blocks_match_one_big_block(self, name):
        protocol = REGISTRY.get(name)
        packets = _corpus()
        per_packet = [row for p in packets
                      for row in kernel_rows(protocol, [p])]
        assert per_packet == kernel_rows(protocol, packets)

    def test_empty_block(self, name):
        protocol = REGISTRY.get(name)
        tap = KernelRows(protocol, range(len(protocol.attributes)))
        assert tap.rows([]) == ([], 0)
        assert tap.packets_seen == tap.columnar_blocks == 0


def _subsets(name):
    """Every non-empty subset of ip's 12 attributes; for udp (65 535)
    and tcp (524 287) every singleton, the full set and a seeded sample
    -- a decoder's shape depends on the subset only through the header
    fields it pulls in and whether it reads ``data``."""
    width = len(REGISTRY.get(name).attributes)
    if name == "ip":
        return [subset for size in range(1, width + 1)
                for subset in itertools.combinations(range(width), size)]
    rng = random.Random(width)
    sampled = [tuple(sorted(rng.sample(range(width), rng.randint(2, width - 1))))
               for _ in range(400)]
    return [(i,) for i in range(width)] + [tuple(range(width))] + sampled


@pytest.mark.parametrize("name", PROTOCOLS)
class TestEverySubset:
    """The decoder generated for a subset is the full decoder minus the
    columns nobody asked for: same rows, same values, never an error."""

    def test_rows_match_the_sparse_interpreter(self, name):
        protocol = REGISTRY.get(name)
        # Whole frames for every subset; the (much longer) truncation
        # corpus rides with the sampled ones below.
        packets = [capture(frame, 1.0 + i) for i, frame
                   in enumerate(_edge_frames()[2])]
        width = len(protocol.attributes)
        full = [row for p in packets for row in protocol.interpret(p)]
        for subset in _subsets(name):
            expected = [tuple(row[i] if i in subset else None
                              for i in range(width)) for row in full]
            assert kernel_rows(protocol, packets, subset) == expected, subset

    def test_truncations_match_the_sparse_interpreter(self, name):
        protocol = REGISTRY.get(name)
        packets = _corpus()
        for subset in _subsets(name)[::17]:
            assert (kernel_rows(protocol, packets, subset)
                    == _interpreted_rows(protocol, packets, subset)), subset


_EDGE_FRAMES = _edge_frames()[2]


@st.composite
def _frames(draw):
    """Arbitrary bytes, corpus frames, and corpus frames with a few
    bytes overwritten and a random cut -- guard-passing input is too
    rare among purely random bytes to exercise the field paths."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.binary(min_size=0, max_size=128))
    frame = draw(st.sampled_from(_EDGE_FRAMES))
    if kind == 1 or not frame:
        return frame
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(frame) - 1))
        frame = _mutate(frame, at, bytes([draw(st.integers(0, 255))]))
    return frame[:draw(st.integers(0, len(frame)))]


@pytest.mark.parametrize("name", PROTOCOLS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_decoders_are_total_over_bytes(name, data):
    protocol = REGISTRY.get(name)
    width = len(protocol.attributes)
    subset = sorted(data.draw(
        st.sets(st.integers(0, width - 1), min_size=1), label="subset"))
    frames = data.draw(st.lists(_frames(), max_size=12), label="frames")
    packets = [capture(frame, 10.0 + i) for i, frame in enumerate(frames)]
    assert (kernel_rows(protocol, packets, subset)
            == _interpreted_rows(protocol, packets, subset))


class TestColumns:
    """How a row action reads an attribute, given the names a row's
    header binds."""

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_sources_read_only_the_headers_names(self, name):
        import ast
        protocol = REGISTRY.get(name)
        columns = KernelRows(protocol, range(len(protocol.attributes))).columns
        assert sorted(columns) == list(range(len(protocol.attributes)))
        for source in columns.values():
            names = {node.id for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.Name)}
            assert names <= set(columnar.ROW_NAMES) | {"trunc"}, source

    def test_a_shared_decoder_maps_the_union(self):
        tcp = REGISTRY.get("tcp")
        narrow = KernelRows(tcp, [0, 13]).columns
        wide = KernelRows(tcp, [0, 9, 13, 18]).columns
        assert set(narrow) == {0, 13}
        assert set(wide) == {0, 9, 13, 18}
        # destPort sits further along the wider unpack
        assert narrow[13] != wide[13]
        assert wide[18] == "d[o:]"


class TestLayout:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_layout_covers_every_attribute_and_agrees_with_the_schema(
            self, name):
        """One kernel per attribute: the layout has an entry for each,
        and what it reads off the bytes is what the schema's own field
        function reads through ``PacketView``."""
        protocol = REGISTRY.get(name)
        packets = _corpus()
        admitted = [p for p in packets if protocol.interpret(p)]
        assert admitted
        from repro.gsql.schema import PacketView
        for index, attribute in enumerate(protocol.attributes):
            function = protocol.field_function(attribute.name)
            assert [row[index] for row in
                    kernel_rows(protocol, packets, [index])] == \
                [function(PacketView(p)) for p in admitted], attribute.name

    def test_builtin_ip_family_has_the_block_entry(self):
        for name in PROTOCOLS:
            protocol = REGISTRY.get(name)
            assert protocol.columnar_decoder is columnar.decode_block
            assert protocol.struct_formats([0]) is not None

    def test_other_protocols_stay_on_the_row_adapter(self):
        for name in ("ethernet", "icmp", "tcp6", "udp6", "dns",
                     "netflow", "bgp"):
            protocol = REGISTRY.get(name)
            assert protocol.columnar_decoder is None
            assert protocol.struct_formats([0]) is None

    def test_struct_covers_only_guard_and_needed_fields(self):
        tcp = REGISTRY.get("tcp")
        # time, destPort, data: the http-fraction LFTAs' reads.
        fast, l4 = tcp.struct_formats([0, 13, 18])
        assert fast == "!12xHB5xHxB12xH8xB"
        assert struct.calcsize(fast) == 47
        assert l4 == "!2xH8xB"
        # capture metadata alone costs no header bytes past the guard
        assert REGISTRY.get("udp").struct_formats([0, 1, 6, 7]) == (
            "!12xHB5xHxB", "")
        assert REGISTRY.get("ip").struct_formats([0]) == ("!12xHB", "")

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_the_static_formats_are_what_the_kernel_unpacks(self, name):
        """EXPLAIN's struct sizes are read off the layout table; they
        are the structs the generated kernel's guard binds."""
        protocol = REGISTRY.get(name)
        for subset in _subsets(name)[::7]:
            kernel = KernelRows(protocol, subset).kernel
            fast, l4 = protocol.struct_formats(subset)
            assert kernel.__globals__["unpack_s0"].__self__.format == fast
            assert kernel.__globals__["unpack_l4_s0"].__self__.format == (
                l4 or "!")

    def test_same_field_set_is_generated_once(self):
        """One ``compile()`` per distinct loop, across registries; what
        the loop reads is bound per kernel, so no two share a closure
        (tests/test_prefilter.py: two parameter dicts, one source)."""
        tcp = REGISTRY.get("tcp")
        one = KernelRows(tcp, [13, 0]).kernel
        other = KernelRows(tcp, (0, 13)).kernel
        assert one.__code__ is other.__code__
        assert one is not other
        assert KernelRows(builtin_registry().get("tcp"), [0, 13]) \
            .kernel.__code__ is one.__code__
