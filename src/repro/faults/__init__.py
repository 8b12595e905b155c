"""Seeded, virtual-time fault injection for the Gigascope reproduction.

Stream monitors are expected to give deterministic, specifiable
behavior under faults; this package injects the faults.  Every injector
is seeded (through :mod:`repro.stable`) and keyed to *stream time*
-- the virtual clock the packets carry -- so a faulty run replays
exactly like a healthy one.

Injectors:

* :class:`RingLossBurst` -- the card is blind for a window: every
  arriving packet is a ring drop (or a seeded coin flip of them).
* :class:`ChannelOverflowStorm` -- inter-node channels shrink to a
  tiny capacity for a window, forcing overflow drops.
* :class:`ClockSkew` -- one interface's timestamps run fast or slow,
  the multi-source ordering hazard of Section 2.
* :class:`HeartbeatSilence` -- the stream manager's ordering-update
  tokens stop for a window (blocked-operator behavior under silence).
* :class:`OperatorFault` -- a named query node raises on its Nth
  input; the RTS quarantines it and keeps its siblings running.

Arm injectors with :meth:`repro.core.engine.Gigascope.inject_faults`
or ``gsq --fault kind:key=value,...``; every injector keeps its own
drop/trigger ledger (:meth:`FaultInjector.report`) so injected loss is
accounted end to end like every other loss in the system.
"""

from repro.faults.injectors import (
    ChannelOverflowStorm,
    ClockSkew,
    FaultInjector,
    HeartbeatSilence,
    OperatorFault,
    RingLossBurst,
)
from repro.faults.spec import parse_fault_spec

__all__ = [
    "FaultInjector",
    "RingLossBurst",
    "ChannelOverflowStorm",
    "ClockSkew",
    "HeartbeatSilence",
    "OperatorFault",
    "parse_fault_spec",
]
