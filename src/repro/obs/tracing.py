"""Sampled tuple-lineage tracing: follow one packet through the split.

Gigascope's defining structure is the LFTA/HFTA split -- a packet is
reduced on (or near) the card, crosses a channel as a tuple, and is
finished high in the stack.  When a deployment misbehaves, the question
is always "where did my packet go?"; this module answers it for a
sampled subset of traffic.

Sampling is *content-deterministic*: whether a packet is traced is a
pure function of its first bytes and timestamp (:func:`trace_key`), so
independent components -- the simulated NIC and the host RTS -- agree
on which packets are traced without any shared state or packet
mutation.  The key doubles as the trace id.

A traced packet produces a chain of span events::

    nic -> feed -> lfta -> emit -> hfta -> ... -> sink / app

each stamped with the virtual-time clock of the component that recorded
it.  Derived tuples are followed through channels by object identity
(the tuple object pushed by ``emit`` is the one popped at ``pump``; a
tag keeps its tuple alive, so a later tuple allocated at a freed one's
address can never inherit its trace), and operator activations
triggered while a traced item is being processed are attributed to
that trace -- causal attribution, the same convention distributed
tracers use.  Dump everything with
:meth:`Tracer.to_json` for offline inspection.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List, Optional

from repro.options import check

#: bytes of packet payload hashed into the trace key; keep below any
#: realistic snap length so NIC-side truncation cannot change the key
TRACE_PROBE_BYTES = 32

#: span stages, in causal order along the packet path; ``nic_drop``
#: (ring loss) and ``nic_filtered`` (BPF prefilter rejection) are both
#: terminal on the card -- distinct so trace reconstruction can tell
#: an accounted rejection from an accounted loss
STAGES = ("nic", "nic_drop", "nic_filtered", "feed", "lfta", "emit",
          "hfta", "sink", "app", "recovered")


def trace_key(packet) -> int:
    """Deterministic 32-bit trace id for a captured packet; one fixed
    seed for every non-finite timestamp, which has no microseconds."""
    try:
        seed = int(packet.timestamp * 1e6) & 0xFFFFFFFF
    except (OverflowError, ValueError):
        seed = 0xFFFFFFFF
    return zlib.crc32(packet.data[:TRACE_PROBE_BYTES],
                      zlib.crc32(struct.pack("<I", seed)))


class Tracer:
    """Records span events for a sampled subset of packets."""

    #: hooks nothing; attached so a plane can refuse it by name
    phase = "tracing"

    def __init__(self, sample_rate: float, max_traces: int = 1024,
                 max_tagged: int = 8192) -> None:
        check("enable_tracing", sample_rate=sample_rate, max_traces=max_traces)
        self.sample_rate = sample_rate
        self.max_traces = max_traces
        self.max_tagged = max_tagged
        self._threshold = int(sample_rate * 2**32)
        self.traces: Dict[int, List[Dict[str, Any]]] = {}
        self.started = 0       # traces begun
        self.truncated = 0     # traces refused because max_traces was hit
        self._seq = 0
        #: id(tuple object) -> (trace id, the object), for following
        #: tuples through channels; bounded, oldest entries evicted
        self._tagged: Dict[int, tuple] = {}
        #: the trace whose item is currently being processed, if any
        self.current: Optional[int] = None

    # -- sampling ----------------------------------------------------------
    def wants(self, packet) -> Optional[int]:
        """The packet's trace id if it is sampled, else None."""
        key = trace_key(packet)
        return key if key < self._threshold else None

    def begin(self, trace: int, packet, stage: str, t: float,
              node: Optional[str] = None) -> bool:
        """Open (or append to) a trace with a packet-level span event."""
        events = self.traces.get(trace)
        if events is None:
            if len(self.traces) >= self.max_traces:
                self.truncated += 1
                return False
            events = self.traces[trace] = []
            self.started += 1
        self._seq += 1
        events.append({
            "seq": self._seq, "stage": stage, "node": node, "t": t,
            "interface": packet.interface, "caplen": packet.caplen,
        })
        return True

    def event(self, trace: int, stage: str, node: Optional[str],
              t: float) -> None:
        """Append a span event to an already-open trace."""
        events = self.traces.get(trace)
        if events is None:
            return
        self._seq += 1
        events.append({"seq": self._seq, "stage": stage, "node": node,
                       "t": t})

    # -- tuple lineage -----------------------------------------------------
    def tag(self, obj: Any, trace: int) -> None:
        """Associate a live tuple object with a trace."""
        tagged = self._tagged
        if len(tagged) >= self.max_tagged:
            # evict the oldest quarter (dicts preserve insertion order)
            for key in list(tagged)[: self.max_tagged // 4]:
                del tagged[key]
        tagged[id(obj)] = (trace, obj)

    def lookup(self, obj: Any) -> Optional[int]:
        entry = self._tagged.get(id(obj))
        return entry[0] if entry is not None and entry[1] is obj else None

    # -- rollback (DESIGN section 11) ---------------------------------------
    def snapshot_state(self) -> tuple:
        """The spans and their counters; the tags follow live objects
        and stay."""
        return self.traces, self.started, self.truncated, self._seq

    def restore_state(self, state: tuple) -> None:
        self.traces, self.started, self.truncated, self._seq = state
        self.current = None

    # -- inspection --------------------------------------------------------
    def spans(self, trace: int) -> List[Dict[str, Any]]:
        return list(self.traces.get(trace, ()))

    def stage_chain(self, trace: int) -> List[str]:
        """The trace's stages in recording order (for chain assertions)."""
        return [event["stage"] for event in self.traces.get(trace, ())]

    def complete_chains(self, required=("feed", "lfta", "emit")) -> List[int]:
        """Trace ids whose span chain covers all ``required`` stages."""
        wanted = set(required)
        return [trace for trace, events in self.traces.items()
                if wanted.issubset(event["stage"] for event in events)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sample_rate": self.sample_rate,
            "started": self.started,
            "truncated": self.truncated,
            "stages": list(STAGES),
            "traces": {str(trace): events
                       for trace, events in self.traces.items()},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
