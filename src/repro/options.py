"""Every numeric knob of every public switch, declared once.

A switch is ``Gigascope(...)``, ``ShardedGigascope(...)``, ``feed``,
``subscribe`` or a plane's ``enable_*``; a knob is one of its numeric
arguments.  Its :data:`KNOBS` entry is the one refusal raised by the
switch (:func:`check`), by ``gsq`` at parse time (:func:`flag_type`)
and by the replay arms (:meth:`Knob.parse`).  A new knob is one entry
here.  This module imports no plane: every engine build loads it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Tuple


class Knob(NamedTuple):
    """One numeric argument of one switch, and the values it takes."""

    name: str
    #: the facade method or class that takes it
    switch: str
    #: ``int`` or ``float`` (an int passes for a float; a bool never)
    kind: type
    #: None: any finite number
    least: Optional[float] = None
    least_ok: bool = True
    #: None means the default, or unbounded
    none_ok: bool = False
    #: the ``gsq`` flag that sets it
    flag: Optional[str] = None
    #: the greatest value, allowed
    most: Optional[float] = None

    def describe(self) -> str:
        """The range in words: ``must be`` + this."""
        least, most, integer = self.least, self.most, self.kind is int
        noun = "an integer" if integer else "a finite number"
        if most is not None:
            bracket = "[" if self.least_ok else "("
            text = (f"{noun} in {least}..{most}" if integer
                    else f"a number in {bracket}{least}, {most}]")
        elif least is None:
            text = noun
        elif (least, self.least_ok) == ((1, True) if integer else (0, False)):
            text = "a positive " + ("integer" if integer else "finite number")
        else:
            text = f"{noun} {'>=' if self.least_ok else '>'} {least}"
        return f"None or {text}" if self.none_ok else text

    def check(self, value: Any) -> Any:
        """``value``, or a ``ValueError`` naming the knob and the value.
        A NaN compares false with everything and an infinity never
        comes, so either would switch a plane off or keep a budget from
        running out without a word; True would pass for 1."""
        least = self.least
        if (type(value) is not bool
                and isinstance(value, int if self.kind is int
                               else (int, float))
                and -math.inf < value < math.inf
                and (least is None or value > least
                     or value == least and self.least_ok)
                and (self.most is None or value <= self.most)
                or value is None and self.none_ok):
            return value
        raise ValueError(f"{self.name} must be {self.describe()}, "
                         f"got {value!r}")

    def parse(self, text: str) -> Any:
        """``text`` (a flag's or an arm's: never None) as a checked number."""
        try:
            value = self.kind(text)
        except ValueError:
            value = text
        return self._replace(none_ok=False).check(value)


def _knobs(switch: str, *entries: tuple) -> Tuple[Knob, ...]:
    return tuple(Knob(name, switch, *rest) for name, *rest in entries)


#: ``(switch, name) -> Knob``; columns: name, type, least, least
#: allowed, None allowed, ``gsq`` flag, greatest
KNOBS: Dict[Tuple[str, str], Knob] = {(knob.switch, knob.name): knob
                                      for knob in (
    *_knobs("Gigascope",
            ("heartbeat_interval", float, 0, False, True),
            ("lfta_table_size", int, 1),
            ("merge_buffer_capacity", int, 1, True, True),
            ("channel_capacity", int, 1, True, True, "--channel-capacity"),
            ("seed", int, 0, True, False, "--seed", 2**32 - 1),
            ("batch_size", int, 1, True, True, "--batch-size")),
    *_knobs("ShardedGigascope",
            ("shards", int, 1, True, False, "--shards"),
            ("barrier_interval", float, 0, False),
            ("max_restarts", int, 0)),
    *_knobs("feed", ("pump_every", int, 1)),
    *_knobs("subscribe", ("capacity", int, 1, True, True)),
    *_knobs("enable_recovery",
            ("checkpoint_interval", float, 0, False, False,
             "--checkpoint-interval"),
            ("max_restarts", int, 0, True, False, "--max-restarts"),
            ("backoff_base", float, 0, False),
            ("backoff_factor", float, 1)),
    *_knobs("enable_replication",
            ("cadence", float, 0, True, False, "--replicate"),
            ("promote_after", float, 0, True, True, "--promote-after")),
    *_knobs("enable_telemetry",
            ("interval", float, 0, True, False, "--telemetry-interval"),
            ("profile_every", int, 1)),
    *_knobs("enable_tracing",
            ("sample_rate", float, 0, False, False, "--trace-sample", 1),
            ("max_traces", int, 1)),
)}

def check(switch: str, **values: Any) -> None:
    """Refuse a value of one of ``switch``'s knobs out of its range."""
    for name, value in values.items():
        KNOBS[switch, name].check(value)


def flag_type(knob: Knob) -> Callable[[str], Any]:
    """:meth:`Knob.parse` as an argparse ``type=``: a refusal is a usage
    error, which argparse prefixes with the flag."""
    def parse(text: str) -> Any:
        try:
            return knob.parse(text)
        except ValueError as error:
            from argparse import ArgumentTypeError
            raise ArgumentTypeError(str(error)) from None
    return parse


#: plane -> its switch, then the ``gsq`` flags (not a knob's) asking for it
SWITCHES: Dict[str, Tuple[str, ...]] = {
    "shed": ("enable_shedding", "--shed"),
    "alerts": ("enable_alerts", "--alert"),
    "recovery": ("enable_recovery", "--recover"),
    "telemetry": ("enable_telemetry", "--telemetry"),
    "tracing": ("enable_tracing",),
    "faults": ("inject_faults", "--fault"),
    "replication": ("enable_replication", "--standby", "--replicate-log"),
}


def plane_flags() -> Iterator[Tuple[str, str]]:
    """``(gsq flag, plane)`` for every flag that asks for a plane, in
    :data:`SWITCHES` order: its own flags, then its knobs'."""
    for plane, (switch, *flags) in SWITCHES.items():
        yield from ((flag, plane) for flag in flags)
        yield from ((knob.flag, plane) for knob in KNOBS.values()
                    if knob.switch == switch and knob.flag)
