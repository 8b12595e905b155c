"""The primary-side replication shipper (DESIGN section 16).

Attaches itself to the primary's RTS (``attach_plane``, in the
``replication`` phase); :meth:`ReplicationShipper.on_pump_end` then
fires at every pump boundary, after the recovery supervisor has cut its
checkpoint at the same one.  When the cadence is due the shipper cuts
the next frame of its state log
(:meth:`repro.recovery.statelog.StateLog.cut` -- the node-granular
incremental framing the DBSP paper motivates: most frames carry the
handful of hot operators, not the whole engine).

Frames go to a ``deliver(frame_bytes)`` callable -- in-process that is
the standby's applier, on disk a log file, over a pipe a standby
process.  Delivery failures never unwind the pump: a frame is folded
into the shipper's own log only after ``deliver`` returns, so one that
was not delivered is cut again at the next quiescent boundary under
the same ``seq`` (with the union of the changes) and the standby never
sees a gap.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional

from repro.recovery.statelog import StateLog


class ReplicationShipper:
    """Ships state-log frames from a live RTS on a virtual-time cadence."""

    #: no ledger of its own (a pair is the ``replication`` plane): a phase
    phase = "replication"

    def __init__(self, rts, cadence: float,
                 deliver: Callable[[bytes], None]) -> None:
        if cadence < 0:
            raise ValueError(f"replication cadence must be >= 0, "
                             f"got {cadence}")
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
        if (math.isinf(stream_time)
                or stream_time < self.log.time + self.cadence):
            return
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
