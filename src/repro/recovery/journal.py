"""The input journal: what an RTS was handed since a cut (DESIGN section 11).

State is the integral of the inputs, so one rule restores an engine:
put a cut's state back, then re-feed the inputs since.  The durability
plane owns one :class:`Journal` and applies the rule to the RTS it
serves (a rollback in place) or to its standby (a promotion).  The
application's takes are inputs too: a channel no node reads is
delivery, in no frame, so the journal keeps its ledger at the cut and,
from the first take since, the items it held then; a replay puts both
back and drops what each replayed take hands over, as the application
has it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, NamedTuple, Tuple

#: journal entries besides a block ``(packets, newest)``, a heartbeat's
#: stream time and a :class:`_Drain`
_PUMP, _END = "pump", "end of streams"


class _Drain(NamedTuple):
    """The application took what a subscription's channel held."""

    subscription: Any
    raw: bool


def _delivery(rts) -> Iterator[Tuple[str, Any]]:
    """``(producer name, channel)`` for each channel no node reads."""
    reads = {channel for _, node in rts.iter_nodes()
             for channel in node.inputs}
    for name, node in rts.iter_nodes():
        for channel in node.subscribers:
            if channel not in reads:
                yield name, channel


class Journal:
    """The inputs one RTS was handed since the last :meth:`cut`, in
    order, journaled before the RTS acts on them: each block as it was
    cut (the packets themselves, no copy), each heartbeat a feed or
    ``advance_time`` sent, each pump cycle, each take of the
    application, the end of the streams -- nothing a pump derives,
    which a replayed pump derives again."""

    #: a hook object: it fires after every declared phase, so a due
    #: recovery retry rolls back before its pump cycle is journaled
    phase = "journal"

    def __init__(self, rts) -> None:
        self.entries: List[Any] = []
        #: packets and other entries: a count no block size moves
        self.len = 0
        #: channel name -> (channel, its ledger) at the cut, and the
        #: items it held then, kept at the application's first take
        self._cut: Dict[str, Tuple[Any, tuple]] = {}
        self._taken: Dict[str, list] = {}
        rts.attach_plane(self)

    @property
    def packets(self) -> int:
        return sum(len(entry[0]) for entry in self.entries
                   if type(entry) is tuple)

    def journal_packets(self, packets, newest: float) -> None:
        self.entries.append((packets, newest))
        self.len += len(packets)

    def journal_heartbeat(self, stream_time: float) -> None:
        self._append(stream_time)

    def journal_drain(self, subscription, raw: bool) -> None:
        channel = subscription.channel
        cut = self._cut.get(channel.name)
        if cut is not None and channel.stats.popped == cut[1][1]:
            ledger = cut[1]
            self._taken[channel.name] = list(channel)[:ledger[0] - ledger[1]]
        self._append(_Drain(subscription, raw))

    def on_pump_begin(self, stream_time: float) -> None:
        self._append(_PUMP)

    def on_stream_end(self, stream_time: float) -> None:
        # Flushing cannot fail into a rollback (a consumer that fails
        # while flushing is quarantined), so journaling it last is safe.
        self._append(_END)

    def _append(self, entry) -> None:
        self.entries.append(entry)
        self.len += 1

    def cut(self, rts) -> None:
        """``rts`` was cut: empty the journal, note its deliveries."""
        self._cut = {channel.name: (channel, channel.ledger())
                     for _, channel in _delivery(rts)}
        self._taken.clear()
        self.entries.clear()
        self.len = 0

    def replay(self, rts) -> int:
        """Re-feed the journal onto ``rts`` -- restored to the cut, or a
        standby holding that state -- and return the rows its replayed
        takes dropped.  Each channel no node reads whose producer is
        live goes back to the cut first (one opened since stays empty);
        a quarantined producer regenerates nothing, so its channels and
        their takes stay as they are.  What the RTS journals while it
        replays starts the journal again."""
        rewound = set()
        for name, channel in _delivery(rts):
            if name in rts.quarantined:
                continue
            rewound.add(channel)
            if channel.name in self._cut:
                source, ledger = self._cut[channel.name]
                held = self._taken.get(channel.name)
                if held is None:  # untouched since the cut
                    held = list(source)[:ledger[0] - ledger[1]]
                channel.rewind(ledger, held)
        entries, self.entries, self.len = self.entries, [], 0
        suppressed = 0
        for entry in entries:
            if entry is _PUMP:
                rts.pump()
            elif entry is _END:
                rts._end_streams()
            elif type(entry) is _Drain:
                if entry.subscription.channel in rewound:
                    suppressed += len(entry.subscription._take(entry.raw))
            elif type(entry) is tuple:
                rts._feed_batch(*entry)
            else:
                rts._heartbeat(entry)
        return suppressed
