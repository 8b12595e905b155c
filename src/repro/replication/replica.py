"""The warm-standby applier (DESIGN section 16).

A :class:`StandbyReplica` wraps a live, started engine whose query set
matches the primary's, and folds state-log frames
(:class:`repro.recovery.statelog.StateLog`) *into* its operator state
-- keeping the standby *warm*: at any moment its state equals the
primary's as of the last applied frame, and promotion is just "resume
the feed from the frame's cursor".

Apply is **all-or-nothing**, by the state log's fold and apply rules: a
refused frame (typed :class:`~repro.recovery.statelog.FrameError`,
naming the frame) leaves the standby exactly where the previous frame
left it.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.recovery.statelog import FrameError, StateLog


class StandbyReplica:
    """Applies a state log into a live engine's operator state."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.log = StateLog()
        self.apply_errors = 0

    @property
    def applied_seq(self) -> int:
        return self.log.seq

    @property
    def applied_time(self) -> float:
        return self.log.time

    @property
    def cursor(self) -> int:
        """Journal-tail replay point: packets the primary had been
        handed as of the last applied frame."""
        return self.log.cursor

    def apply(self, blob: bytes) -> Dict[str, Any]:
        """Validate and apply one frame; returns the decoded frame.

        Raises a typed :class:`~repro.recovery.statelog.FrameError` --
        and leaves the standby untouched -- on any refusal.
        """
        try:
            return self.log.fold(blob, into=self.engine.rts)
        except FrameError:
            self.apply_errors += 1
            raise

    def report(self) -> Dict[str, Any]:
        return {
            "applied_seq": self.applied_seq,
            "applied_time": self.applied_time,
            "cursor": self.cursor,
            "frames_applied": self.applied_seq + 1,
            "apply_errors": self.apply_errors,
        }
