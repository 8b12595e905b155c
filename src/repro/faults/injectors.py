"""The fault injectors: seeded, windowed in virtual (stream) time.

Each injector defines the run-time events it needs and no others
(``RuntimeSystem.attach_plane`` hooks exactly the methods a class has,
in the ``faults`` phase, ahead of every control plane):

* ``on_packet(packet)`` -- called by ``RuntimeSystem.feed`` on every
  packet while a block is being built; may transform the packet (clock
  skew), drop it by returning None (ring-loss burst armed without a
  NIC), or pass it through.
* ``on_cycle(stream_time)`` -- called once per pump cycle; used by the
  channel-overflow storm to squeeze and release capacities.
* ``silences_heartbeat(stream_time)`` -- consulted by the heartbeat
  source.
* ``cut_for(node)`` -- consulted by the pump drain before it pops a
  block for ``node``: how many items the block may hold, so it never
  extends past the tuple an injector is about to fail on.
* ``drops_packet(stream_time)`` -- consulted by a :class:`~repro.nic.
  nic.Nic` the injector was armed on (card-side ring loss).

Nothing here uses wall-clock time or process-randomized hashing: a
window is ``[at, at + duration)`` in stream seconds, and probabilistic
drops draw from a :func:`repro.stable.rng_for` stream, so a faulty
run is as replayable as a healthy one.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Dict, Optional

from repro.options import Knob
from repro.stable import rng_for


class FaultInjector:
    """Base class: an inert fault with a stream-time activation window."""

    kind = "fault"
    #: where an injector's hooks fire among the planes' (it has no ledger)
    phase = "faults"

    def __init__(self, at: float = 0.0, duration: float = math.inf) -> None:
        Knob("at", "spec", float).check(at)
        if duration != math.inf:  # the default: the window never ends
            Knob("duration", "spec", float, 0).check(duration)
        self.at = at
        self.duration = duration
        #: the run-time the injector is armed on (None: not armed)
        self.rts = None

    def active(self, stream_time: float) -> bool:
        return self.at <= stream_time < self.at + self.duration

    def arm(self, rts, nics=()) -> None:
        """Attach to a runtime system (and optionally simulated NICs)."""
        self.rts = rts
        rts.install_fault(self)

    def report(self) -> Dict[str, Any]:
        return {"kind": self.kind, "at": self.at, "duration": self.duration}


class RingLossBurst(FaultInjector):
    """The card goes blind for a window: arrivals become ring drops.

    Armed on a :class:`~repro.nic.nic.Nic`, drops count against the
    card's ``ring_dropped`` (indistinguishable from a too-slow card,
    which is the point).  Armed on a bare RTS (no NIC in the path, e.g.
    the CLI feeding a pcap), the burst drops packets before dispatch
    and keeps its own ledger.  ``drop_prob`` < 1 makes the burst a
    seeded coin flip per arrival instead of total silence.
    """

    kind = "ring_burst"

    def __init__(self, at: float, duration: float,
                 drop_prob: float = 1.0, seed: int = 0) -> None:
        super().__init__(at, duration)
        if not 0.0 < drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in (0, 1], got {drop_prob}")
        self.drop_prob = drop_prob
        self.dropped = 0
        self._rng = rng_for(seed, "fault.ring_burst", at, duration)
        self._card_armed = False

    def arm(self, rts, nics=()) -> None:
        super().arm(rts, nics)
        for nic in nics:
            nic.fault = self
            self._card_armed = True

    def drops_packet(self, stream_time: float) -> bool:
        if not self.active(stream_time):
            return False
        if self.drop_prob < 1.0 and self._rng.random() >= self.drop_prob:
            return False
        self.dropped += 1
        return True

    def on_packet(self, packet):
        # With a NIC armed, the card already took the loss; don't double-drop.
        if self._card_armed:
            return packet
        if self.drops_packet(packet.timestamp):
            return None
        return packet

    def report(self) -> Dict[str, Any]:
        out = super().report()
        out.update(drop_prob=self.drop_prob, dropped=self.dropped,
                   on_card=self._card_armed)
        return out


class ChannelOverflowStorm(FaultInjector):
    """Inter-node channels shrink to ``capacity`` for a window.

    Models a slow consumer / shared-memory squeeze: while active, every
    channel behaves as if its capacity were ``capacity``; data tuples
    beyond it are overflow drops, accounted exactly like organic
    overflow (and watched by the overload control plane).  The storm's
    own ledger records the drops that happened on its watch.
    """

    kind = "channel_storm"

    def __init__(self, at: float, duration: float, capacity: int = 4) -> None:
        super().__init__(at, duration)
        if capacity <= 0:
            raise ValueError("storm capacity must be positive")
        self.capacity = capacity
        self.dropped_during = 0
        self.cycles_active = 0
        self._squeezing = False
        self._drops_at_onset = 0

    def _total_drops(self) -> int:
        return self.rts.retired_dropped + sum(
            channel.stats.dropped for channel in self.rts.channels())

    def on_cycle(self, stream_time: float) -> None:
        rts = self.rts
        active = self.active(stream_time)
        if active and not self._squeezing:
            self._squeezing = True
            self._drops_at_onset = self._total_drops()
            for channel in rts.channels():
                channel.fault_capacity = self.capacity
        elif active:
            # Channels created mid-storm (new subscriptions) get squeezed too.
            for channel in rts.channels():
                if channel.fault_capacity is None:
                    channel.fault_capacity = self.capacity
        elif self._squeezing:
            self._squeezing = False
            self.dropped_during += self._total_drops() - self._drops_at_onset
            for channel in rts.channels():
                channel.fault_capacity = None
        if active:
            self.cycles_active += 1

    def snapshot_state(self) -> tuple:
        return (self._squeezing, self._drops_at_onset, self.dropped_during,
                self.cycles_active)

    def restore_state(self, state: tuple) -> None:
        """The squeeze, on the channels too."""
        (self._squeezing, self._drops_at_onset, self.dropped_during,
         self.cycles_active) = state
        for channel in self.rts.channels():
            channel.fault_capacity = self.capacity if self._squeezing else None

    def report(self) -> Dict[str, Any]:
        out = super().report()
        out.update(capacity=self.capacity, cycles_active=self.cycles_active,
                   dropped_during=self.dropped_during)
        return out


class ClockSkew(FaultInjector):
    """One interface's clock runs offset by ``skew_s`` seconds.

    The multi-interface ordering hazard: merge and join operators see
    one input's timestamps shifted, exercising their buffering and the
    heartbeat machinery.  Applied pre-dispatch, so everything downstream
    (including the drop ledger) sees the skewed clock consistently.
    """

    kind = "clock_skew"

    def __init__(self, interface: str, skew_s: float,
                 at: float = 0.0, duration: float = math.inf) -> None:
        super().__init__(at, duration)
        Knob("skew_s", "spec", float).check(skew_s)
        self.interface = interface
        self.skew_s = skew_s
        self.skewed = 0

    def on_packet(self, packet):
        if packet.interface != self.interface:
            return packet
        if not self.active(packet.timestamp):
            return packet
        self.skewed += 1
        return replace(packet, timestamp=packet.timestamp + self.skew_s)

    def report(self) -> Dict[str, Any]:
        out = super().report()
        out.update(interface=self.interface, skew_s=self.skew_s,
                   skewed=self.skewed)
        return out


class HeartbeatSilence(FaultInjector):
    """The stream manager's heartbeats stop for a window.

    Blocked operators (merge, windowed aggregation) depend on the
    ordering-update tokens of Section 3; silencing them exposes
    stalls that packet loss alone never would.  Suppressed tokens are
    counted on both the injector and the RTS.
    """

    kind = "heartbeat_silence"

    def __init__(self, at: float, duration: float) -> None:
        super().__init__(at, duration)
        self.suppressed = 0

    def silences_heartbeat(self, stream_time: float) -> bool:
        if self.active(stream_time):
            self.suppressed += 1
            return True
        return False

    def snapshot_state(self) -> int:
        return self.suppressed

    def restore_state(self, suppressed: int) -> None:
        self.suppressed = suppressed

    def report(self) -> Dict[str, Any]:
        out = super().report()
        out.update(suppressed=self.suppressed)
        return out


class OperatorFault(FaultInjector):
    """A named query node raises on its Nth input item.

    Wraps the node's block entries -- ``dispatch_batch`` for tuples,
    ``accept_batch`` for packets (``accept_packet`` on a per-packet
    user consumer such as defrag) -- so the ``at_tuple``-th item raises
    ``RuntimeError``: the items before it in the block are delivered,
    the Nth is counted in and raises, and the pump drain never pops a
    block that extends past it (:meth:`cut_for`).  The RTS quarantines
    the node -- counts it, detaches it, flushes its downstream -- and
    keeps every sibling running; see ``RuntimeSystem._quarantine``.

    ``times`` bounds how often the fault fires (default: forever once
    tripped).  A transient crash -- ``times=1`` -- is what the recovery
    supervisor is built for: the rollback re-feeds its journal past the
    already-spent injector (its trigger count is never rolled back).
    """

    kind = "operator_error"

    def __init__(self, node: str, at_tuple: int = 1,
                 message: Optional[str] = None,
                 times: Optional[int] = None) -> None:
        super().__init__(0.0, math.inf)
        Knob("at_tuple", "spec", int, 1).check(at_tuple)
        Knob("times", "spec", int, 1, none_ok=True).check(times)
        self.node = node
        self.at_tuple = at_tuple
        self.times = times
        self.message = message or f"injected fault in {node!r}"
        self.triggered = 0
        self._count = 0

    def _until_cut(self) -> Optional[int]:
        """Items from now up to and including the next one that
        raises; None once the fault is spent."""
        if self.times is not None and self.triggered >= self.times:
            return None
        return max(1, self.at_tuple - self._count)

    def cut_for(self, node) -> Optional[int]:
        return self._until_cut() if node.name == self.node else None

    def _prefix(self, arriving: int) -> Optional[int]:
        """Count a block of ``arriving`` items in: None lets the whole
        block through, otherwise it is the number of items ahead of the
        one that raises."""
        cut = self._until_cut()
        if cut is None or cut > arriving:
            self._count += arriving
            return None
        self._count += cut
        return cut - 1

    def _fire(self) -> None:
        self.triggered += 1
        raise RuntimeError(self.message)

    def arm(self, rts, nics=()) -> None:
        super().arm(rts, nics)
        node = rts.node(self.node)
        dispatch_batch = node.dispatch_batch

        def failing_dispatch_batch(rows, input_index):
            before = self._prefix(len(rows))
            if before is None:
                return dispatch_batch(rows, input_index)
            if before:
                dispatch_batch(rows[:before], input_index)
            # The failing tuple had reached the node: it counts as input.
            node.stats.tuples_in += 1
            self._fire()

        node.dispatch_batch = failing_dispatch_batch
        accept_batch = getattr(node, "accept_batch", None)
        accept_packet = getattr(node, "accept_packet", None)
        if accept_batch is not None:
            def failing_accept_batch(packets):
                before = self._prefix(len(packets))
                if before is None:
                    return accept_batch(packets)
                if before:
                    accept_batch(packets[:before])
                self._fire()

            # The wrap takes the node out of the RTS's block kernel: it
            # is handed its run and runs its own loop.
            node.accept_batch = failing_accept_batch
        elif accept_packet is not None:
            def failing_accept(packet):
                if self._prefix(1) is not None:
                    self._fire()
                accept_packet(packet)

            node.accept_packet = failing_accept

    def report(self) -> Dict[str, Any]:
        out = super().report()
        out.update(node=self.node, at_tuple=self.at_tuple,
                   times=self.times, triggered=self.triggered)
        return out
