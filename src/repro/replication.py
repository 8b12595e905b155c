"""Warm-standby failover's knobs (DESIGN section 16).

``Gigascope.enable_replication()`` switches on the standby of the one
durability plane (:class:`repro.recovery.supervisor.RecoverySupervisor`):
a second runtime kept warm with each frame of the plane's state log and
promoted, by a replay of its journal, when the primary dies.  What is
left here is the parsing of the knobs: ``--replicate``'s cadence and
the crash specs ``replay verify`` arms.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional

from repro.recovery.supervisor import check

#: Default virtual-time seconds between delta frames.
DEFAULT_CADENCE = 1.0

_CRASH_SPEC = re.compile(r"(packet|frame):([0-9]+)(:torn)?")


def resolve_replicate_cadence(value: Optional[Any] = None) -> Optional[float]:
    """Validate the ``--replicate`` cadence (None: not requested).

    Raises ``ValueError`` on a malformed, non-finite or negative
    cadence -- the CLI turns that into a usage error (exit 2), same as
    every other knob.
    """
    if value is None:
        return None
    try:
        cadence = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"--replicate must be a number of virtual "
                         f"seconds, got {value!r}") from None
    check("cadence", cadence, "--replicate")
    return cadence


def parse_crash_spec(text: str) -> Dict[str, Any]:
    """Parse a failover crash spec: ``packet:K`` (the primary dies once
    it was handed K packets, and is found dead at the next pump
    boundary), ``frame:N`` (right after shipping frame N) or
    ``frame:N:torn`` (frame N is written truncated, then the primary
    dies: the standby refuses it and promotion falls back to frame
    N-1)."""
    match = _CRASH_SPEC.fullmatch(text)
    if match is None or (match[3] and match[1] != "frame"):
        raise ValueError(f"bad crash spec {text!r}; use packet:K, "
                         f"frame:N, or frame:N:torn")
    return {"kind": match[1], "at": int(match[2]), "torn": bool(match[3])}
