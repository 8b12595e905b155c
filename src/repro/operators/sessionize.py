"""Sessionization: aggregate packet subsequences into flow records.

The paper defers this exact capability: "many network analysis queries
find and aggregate subsequences of the data stream (i.e., extract the
TCP/IP sessions).  We are exploring how to integrate the complex group
definition mechanisms described in [3] into GSQL."  Until the language
grows that mechanism, Gigascope's answer is a user-written query node
(Section 3's escape hatch) -- this one.

:class:`SessionizeNode` consumes raw packets, maintains per-5-tuple
session state, and emits one tuple per finished session.  A session
ends on a TCP FIN/RST, on an idle gap longer than ``idle_timeout``, or
at the ``active_timeout`` (long-lived flows are split, like Netflow's
active timeout).  Downstream GSQL queries read it like any stream;
the output end time is increasing (sessions are emitted as they close)
with a band of the timeout slack.

Output schema::

    time_end FLOAT (banded_increasing(idle_timeout)),
    time_start FLOAT, srcIP IP, destIP IP, srcPort UINT, destPort UINT,
    protocol UINT, packets UINT, octets UINT, tcpflags UINT
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.heartbeat import Punctuation
from repro.core.query_node import QueryNode
from repro.gsql.ordering import Ordering
from repro.gsql.schema import Attribute, PacketView, StreamSchema
from repro.gsql.types import FLOAT, IP, UINT
from repro.net.packet import CapturedPacket
from repro.net.tcp import FLAG_FIN, FLAG_RST

SessionKey = Tuple[int, int, int, int, int]


@dataclass
class _Session:
    start: float
    last: float
    packets: int = 0
    octets: int = 0
    tcpflags: int = 0


def session_schema(name: str, idle_timeout: float) -> StreamSchema:
    return StreamSchema(
        name,
        [
            # Sessions close at most idle_timeout after their last
            # packet; emission order lags stream time by that band.
            Attribute("time_end", FLOAT, Ordering.banded(idle_timeout)),
            Attribute("time_start", FLOAT),
            Attribute("srcIP", IP),
            Attribute("destIP", IP),
            Attribute("srcPort", UINT),
            Attribute("destPort", UINT),
            Attribute("protocol", UINT),
            Attribute("packets", UINT),
            Attribute("octets", UINT),
            Attribute("tcpflags", UINT),
        ],
    )


class SessionizeNode(QueryNode):
    """Turn packets into per-session summary tuples."""

    def __init__(self, name: str, idle_timeout: float = 30.0,
                 active_timeout: float = 300.0) -> None:
        super().__init__(name, session_schema(name, idle_timeout))
        self.idle_timeout = idle_timeout
        self.active_timeout = active_timeout
        self._sessions: Dict[SessionKey, _Session] = {}
        self.sessions_emitted = 0
        self._last_sweep = 0.0

    def accept_packet(self, packet: CapturedPacket) -> None:
        view = PacketView(packet)
        ip = view.ip
        if ip is None:
            return
        l4 = view.tcp or view.udp
        src_port = l4.src_port if l4 is not None else 0
        dst_port = l4.dst_port if l4 is not None else 0
        key: SessionKey = (ip.src, ip.dst, src_port, dst_port, ip.protocol)
        now = packet.timestamp
        session = self._sessions.get(key)
        if session is None:
            session = _Session(start=now, last=now)
            self._sessions[key] = session
        session.packets += 1
        session.octets += packet.orig_len
        session.last = now
        tcp = view.tcp
        if tcp is not None:
            session.tcpflags |= tcp.flags
            if tcp.flags & (FLAG_FIN | FLAG_RST):
                self._close(key, session)
        elif now - session.start >= self.active_timeout:
            self._close(key, session)
        # Periodic idle sweep, amortized to once a second of stream time.
        if now - self._last_sweep >= 1.0:
            self._last_sweep = now
            self._sweep(now)

    def _close(self, key: SessionKey, session: _Session) -> None:
        self._sessions.pop(key, None)
        self.sessions_emitted += 1
        self.emit(
            (
                session.last,
                session.start,
                key[0],
                key[1],
                key[2],
                key[3],
                key[4],
                session.packets,
                session.octets,
                session.tcpflags,
            )
        )

    def _sweep(self, now: float) -> None:
        """Close idle sessions and long-running ones (active timeout)."""
        stale = [
            (key, session)
            for key, session in self._sessions.items()
            if (now - session.last >= self.idle_timeout
                or now - session.start >= self.active_timeout)
        ]
        stale.sort(key=lambda item: item[1].last)
        for key, session in stale:
            self._close(key, session)

    def on_heartbeat(self, stream_time: float) -> None:
        self._sweep(stream_time)
        # All future sessions end no earlier than the idle horizon.
        self.emit_punctuation(
            Punctuation({0: stream_time - self.idle_timeout})
        )

    def flush(self) -> None:
        remaining = sorted(self._sessions.items(),
                           key=lambda item: item[1].last)
        self._sessions = {}
        for key, session in remaining:
            self._close(key, session)

    @property
    def open_sessions(self) -> int:
        return len(self._sessions)

    # -- checkpoint/restore (DESIGN section 11) ----------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["sessions"] = {
            key: (session.start, session.last, session.packets,
                  session.octets, session.tcpflags)
            for key, session in self._sessions.items()
        }
        state["sessions_emitted"] = self.sessions_emitted
        state["last_sweep"] = self._last_sweep
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._sessions = {
            key: _Session(*values)
            for key, values in state["sessions"].items()
        }
        self.sessions_emitted = state["sessions_emitted"]
        self._last_sweep = state["last_sweep"]

    def on_tuple(self, row: tuple, input_index: int) -> None:
        raise TypeError("SessionizeNode accepts packets, not tuples")
