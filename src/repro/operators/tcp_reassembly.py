"""TCP stream reassembly as a user-written query node.

The paper lists reconstructing TCP sessions among the protocol
simulations network analyses require ("Many analyses require that a
network protocol be simulated, e.g. IP defragmentation or
reconstructing TCP sessions") and names subsequence extraction as
future work.  This node delivers per-flow, in-order payload chunks as a
stream downstream GSQL queries can consume.

Output schema::

    time UINT (increasing), srcIP IP, destIP IP, srcPort UINT,
    destPort UINT, offset UINT, data STRING
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import trunc
from typing import Dict, Tuple

from repro.core.query_node import QueryNode
from repro.gsql.ordering import Ordering
from repro.gsql.schema import Attribute, PacketView, StreamSchema
from repro.gsql.types import IP, STRING, UINT
from repro.net.packet import CapturedPacket

FlowKey = Tuple[int, int, int, int]


@dataclass
class _FlowState:
    next_seq: int  # next expected sequence number
    base_seq: int  # ISN + 1, for computing stream offsets
    out_of_order: Dict[int, bytes] = field(default_factory=dict)
    delivered: int = 0


def reassembly_schema(name: str) -> StreamSchema:
    return StreamSchema(
        name,
        [
            Attribute("time", UINT, Ordering.increasing()),
            Attribute("srcIP", IP),
            Attribute("destIP", IP),
            Attribute("srcPort", UINT),
            Attribute("destPort", UINT),
            Attribute("offset", UINT, Ordering.in_group(
                "srcIP", "destIP", "srcPort", "destPort")),
            Attribute("data", STRING),
        ],
    )


class TcpReassemblyNode(QueryNode):
    """Deliver TCP payload bytes in order, one chunk per contiguous run."""

    def __init__(self, name: str, max_out_of_order: int = 256) -> None:
        super().__init__(name, reassembly_schema(name))
        self.max_out_of_order = max_out_of_order
        self._flows: Dict[FlowKey, _FlowState] = {}
        self.chunks_emitted = 0
        self.segments_dropped = 0

    def accept_packet(self, packet: CapturedPacket) -> None:
        view = PacketView(packet)
        tcp = view.tcp
        if tcp is None or view.ip is None:
            return
        key: FlowKey = (view.ip.src, view.ip.dst, tcp.src_port, tcp.dst_port)
        if tcp.syn and not tcp.ack_flag:
            self._flows[key] = _FlowState(
                next_seq=(tcp.seq + 1) & 0xFFFFFFFF,
                base_seq=(tcp.seq + 1) & 0xFFFFFFFF,
            )
            return
        flow = self._flows.get(key)
        if flow is None:
            payload = view.payload or b""
            # Mid-stream pickup: adopt this segment as the start.
            flow = _FlowState(next_seq=tcp.seq, base_seq=tcp.seq)
            self._flows[key] = flow
        payload = view.payload or b""
        if tcp.fin or tcp.rst:
            self._deliver(packet, key, flow, tcp.seq, payload)
            self._flows.pop(key, None)
            return
        if payload:
            self._deliver(packet, key, flow, tcp.seq, payload)

    def _deliver(self, packet: CapturedPacket, key: FlowKey, flow: _FlowState,
                 seq: int, payload: bytes) -> None:
        if not payload:
            return
        if seq == flow.next_seq:
            chunk = bytearray(payload)
            flow.next_seq = (flow.next_seq + len(payload)) & 0xFFFFFFFF
            # Stitch any buffered continuations on.
            while flow.next_seq in flow.out_of_order:
                extra = flow.out_of_order.pop(flow.next_seq)
                chunk.extend(extra)
                flow.next_seq = (flow.next_seq + len(extra)) & 0xFFFFFFFF
            self._emit_chunk(packet, key, flow, bytes(chunk))
        elif _seq_after(seq, flow.next_seq):
            if len(flow.out_of_order) >= self.max_out_of_order:
                self.segments_dropped += 1
                return
            flow.out_of_order.setdefault(seq, payload)
        else:
            self.segments_dropped += 1  # retransmission of delivered data

    def _emit_chunk(self, packet: CapturedPacket, key: FlowKey,
                    flow: _FlowState, data: bytes) -> None:
        src_ip, dst_ip, src_port, dst_port = key
        self.chunks_emitted += 1
        self.emit(
            (
                trunc(packet.timestamp),
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                flow.delivered,
                data,
            )
        )
        flow.delivered += len(data)

    def flush(self) -> None:
        self._flows.clear()

    # -- checkpoint/restore (DESIGN section 11) ----------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["flows"] = {
            key: (flow.next_seq, flow.base_seq, dict(flow.out_of_order),
                  flow.delivered)
            for key, flow in self._flows.items()
        }
        state["chunks_emitted"] = self.chunks_emitted
        state["segments_dropped"] = self.segments_dropped
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._flows = {
            key: _FlowState(next_seq=next_seq, base_seq=base_seq,
                            out_of_order=dict(out_of_order),
                            delivered=delivered)
            for key, (next_seq, base_seq, out_of_order, delivered)
            in state["flows"].items()
        }
        self.chunks_emitted = state["chunks_emitted"]
        self.segments_dropped = state["segments_dropped"]

    def on_tuple(self, row: tuple, input_index: int) -> None:
        raise TypeError("TcpReassemblyNode accepts packets, not tuples")


def _seq_after(a: int, b: int) -> bool:
    """True if sequence number ``a`` is after ``b`` (mod 2**32)."""
    return ((a - b) & 0xFFFFFFFF) < 0x80000000
