"""The primary-side replication shipper (DESIGN section 16).

Attached to the primary's RTS in the ``replication`` phase, it cuts the
next frame of its state log (:meth:`repro.recovery.statelog.StateLog.cut`:
node-granular, so most frames carry a few hot operators) at the first
pump boundary the cadence allows, after the recovery supervisor's
checkpoint at the same one.  Frames go to ``deliver(frame_bytes)``: the
standby's applier, a log file or a pipe.  A failed delivery never
unwinds the pump: a frame joins the shipper's log only once delivered,
so the next boundary cuts the same ``seq`` again with the union of the
changes, and the standby never sees a gap.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional

from repro.core.channels import check_finite
from repro.recovery.statelog import StateLog


def check_cadence(name: str, value) -> None:
    """Refuse a cadence or grace period in virtual seconds that is not
    a finite number >= 0, naming it: a NaN cadence would cut a frame at
    every pump boundary, an infinite one never after the epoch."""
    check_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


class ReplicationShipper:
    """Ships state-log frames from a live RTS on a virtual-time cadence."""

    #: no ledger of its own (``ReplicationPlane`` has it): a phase
    phase = "replication"

    def __init__(self, rts, cadence: float,
                 deliver: Callable[[bytes], None]) -> None:
        check_cadence("cadence", cadence)
        self.rts = rts
        #: virtual-time seconds between delta frames; 0.0 means a frame
        #: at every pump boundary
        self.cadence = cadence
        self.deliver = deliver
        #: the fold of every frame delivered so far
        self.log = StateLog()
        self.bytes_total = 0
        self.nodes_shipped = 0
        #: pump boundaries skipped because a channel held in-flight items
        self.skipped_unquiescent = 0
        #: cuts whose ``deliver`` raised (re-cut at the next boundary)
        self.deliver_errors = 0
        self.last_deliver_error: Optional[str] = None
        rts.attach_plane(self)

    # -- RTS hook ------------------------------------------------------------
    def on_pump_end(self, stream_time: float) -> None:
        """Maybe cut and deliver a frame at this pump boundary."""
        # The first pump with a real stream clock opens the epoch; the
        # cadence then runs from the last frame that was delivered.
        if (not math.isinf(stream_time)
                and stream_time >= self.log.time + self.cadence):
            self.ship(stream_time)

    def ship(self, stream_time: float) -> None:
        """Cut and deliver the next frame now, at a pump boundary."""
        rts = self.rts
        # The cursor is how many packets the primary has been handed so
        # far: the dispatch counter plus the ones injected faults
        # dropped pre-dispatch (both consumed an input-stream position).
        frame = self.log.cut(rts, stream_time,
                             rts.packets_fed + rts.fault_dropped)
        if frame is None:
            # The next boundary will be quiescent (the pump drains to a
            # fixpoint unless a node was suspended mid-drain).
            self.skipped_unquiescent += 1
            return
        try:
            self.deliver(frame)
        except Exception as error:
            self.deliver_errors += 1
            self.last_deliver_error = f"{type(error).__name__}: {error}"
            return
        self.nodes_shipped += len(self.log.fold(frame)["nodes"])
        self.bytes_total += len(frame)

    @property
    def frames(self) -> Dict[str, int]:
        """Frames delivered so far by kind: frame 0 is the full epoch,
        every later one a delta."""
        return {"full": min(self.log.seq + 1, 1),
                "delta": max(self.log.seq, 0)}

    def report(self) -> Dict[str, Any]:
        frames = self.frames
        return {
            "cadence": self.cadence,
            "frames_full": frames["full"],
            "frames_delta": frames["delta"],
            "bytes_total": self.bytes_total,
            "nodes_shipped": self.nodes_shipped,
            "skipped_unquiescent": self.skipped_unquiescent,
            "deliver_errors": self.deliver_errors,
            "last_deliver_error": self.last_deliver_error,
            "last_frame_time": self.log.time,
        }
