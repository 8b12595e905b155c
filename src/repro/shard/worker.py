"""The shard worker: one complete engine over one packet partition.

Forked (never spawned -- workers inherit the parent's materialized
packet list and compiled queries for free) by
:class:`~repro.shard.runtime.ShardedGigascope`.  Each worker:

1. builds a full single-process :class:`~repro.core.engine.Gigascope`
   from the same query batch as its siblings, with every *subscribed
   terminal aggregation* flipped into superaggregate-producer mode
   (:meth:`~repro.operators.aggregation.AggregationNode.enable_partial_output`),
2. filters the inherited packet list down to its own partition with a
   fused generated kernel (partitioning runs inside the parallel
   region -- there is no parent-side scan to serialize on),
3. feeds the partition in chunks cut at a *global barrier grid* --
   multiples of ``barrier_interval`` in virtual time, the same
   thresholds on every shard -- draining its subscriptions into a
   ``rows`` frame and cutting a state-log frame
   (:mod:`repro.recovery.statelog`) into a ``state`` frame at each
   crossing,
4. flushes, ships the final rows, and ends with its statistics ledger.

Everything the worker does is a deterministic function of (queries,
partition, seed, resume point): a worker respawned from the parent's
fold of its ``state`` frames regenerates byte-identical frames from
that barrier on, which is what lets the parent dedup by sequence
number and keep the exactly-once contract across a worker crash.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, List, Optional

from repro.core.engine import Gigascope
from repro.obs.collectors import channel_snapshot, engine_snapshot
from repro.recovery.statelog import StateLog
from repro.shard.partition import partition_filter
from repro.shard.transport import END, ROWS, STATE, encode_frame, pack_rows


def _build_engine(spec: Dict[str, Any]):
    """The worker's engine + subscriptions, per the parent's spec."""
    gs = Gigascope(metrics=False, **spec["engine"])
    for kind, text, params, name in spec["queries"]:
        if kind == "batch":
            gs.add_queries(text, params=params)
        else:
            gs.add_query(text, params=params, name=name)
    subs = {}
    for name, partial in spec["subscribe"]:
        subs[name] = gs.subscribe(name)
        if partial:
            # The terminal aggregation ships combinable partials; the
            # parent's combine operator finalizes (HAVING, post-select).
            gs._instances[name].nodes[-1].enable_partial_output()
    return gs, subs


def _cut_barrier(conn, gs, subs, log: StateLog, seq: int,
                 packets_done: int, next_barrier: float) -> int:
    """Drain + ship rows, then cut and ship the shard's state frame."""
    rows = {name: sub.poll() for name, sub in subs.items()}
    seq += 1
    conn.send_bytes(encode_frame(ROWS, seq, pack_rows(rows)))
    seq += 1
    # ``extra`` is what a respawned worker needs besides engine state:
    # this frame's transport seq and the barrier it was cut at.
    frame = log.cut(gs.rts, gs.rts.stream_time, packets_done,
                    extra={"seq": seq, "next_barrier": next_barrier})
    if frame is not None:
        conn.send_bytes(encode_frame(STATE, seq, frame))
        log.fold(frame)
    return seq


def run_worker(conn, spec: Dict[str, Any], shard: int,
               packets: List, resume_blob: Optional[bytes] = None,
               crash_at: Optional[int] = None) -> None:
    """The fork target: run one shard start to finish (or to a crash)."""
    gs, subs = _build_engine(spec)
    keep = partition_filter(spec["nshards"], shard)
    kept: List = []
    keep(packets, kept.append)
    gs.start()
    seq = 0
    offset = 0
    next_barrier: Optional[float] = None
    # The fold of what this shard has shipped.  A respawned worker
    # continues the log it was restored from: its next frame is a
    # delta against exactly that state.
    log = StateLog()
    if resume_blob is not None:
        log.fold(resume_blob)
        log.restore(gs.rts)
        seq = log.extra["seq"]
        offset = log.cursor
        next_barrier = log.extra["next_barrier"]
    interval = spec["barrier_interval"]
    pump_every = spec["pump_every"]
    buffer: List = []
    for index in range(offset, len(kept)):
        packet = kept[index]
        if crash_at is not None and index == crash_at:
            # Simulated hard worker death: no teardown, no flush, the
            # pipe just goes quiet mid-stream.
            os._exit(3)
        if next_barrier is None:
            # First packet pins the position on the *global* grid
            # (multiples of the interval in absolute virtual time, the
            # same thresholds every sibling shard uses).
            next_barrier = (math.floor(packet.timestamp / interval) + 1
                            ) * interval
        elif packet.timestamp >= next_barrier:
            if buffer:
                gs.feed(buffer, pump_every=pump_every)
                buffer = []
            advanced = next_barrier
            while packet.timestamp >= advanced:
                advanced += interval
            # The stored cursor must be the *advanced* barrier: a
            # restored worker re-examines this very packet and must not
            # cut (and re-number) a second barrier here.
            seq = _cut_barrier(conn, gs, subs, log, seq,
                               packets_done=index, next_barrier=advanced)
            next_barrier = advanced
        buffer.append(packet)
    if buffer:
        gs.feed(buffer, pump_every=pump_every)
    gs.flush()
    rows = {name: sub.poll() for name, sub in subs.items()}
    seq += 1
    conn.send_bytes(encode_frame(ROWS, seq, pack_rows(rows)))
    seq += 1
    conn.send_bytes(encode_frame(END, seq, {
        "packets": len(kept),
        "nodes": engine_snapshot(gs.rts),
        "channels": {channel.name: channel_snapshot(channel)
                     for channel in gs.rts.channels()},
        "quarantined": dict(gs.rts.quarantined),
    }))
    conn.close()
