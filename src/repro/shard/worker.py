"""The shard worker: one complete engine over one packet partition.

Forked (never spawned -- workers inherit the parent's materialized
packet list and compiled queries for free) by
:class:`~repro.shard.runtime.ShardedGigascope`.  Each worker:

1. builds a full single-process :class:`~repro.core.engine.Gigascope`
   from the same query batch as its siblings, with every *subscribed
   terminal aggregation* flipped into superaggregate-producer mode
   (:meth:`~repro.operators.aggregation.AggregationNode.enable_partial_output`),
2. slices its own stripes out of the inherited packet list
   (:func:`~repro.shard.partition.shard_packets`; partitioning runs
   inside the parallel region and touches no packet),
3. feeds the partition in runs cut at a *global barrier grid* --
   multiples of ``barrier_interval`` in virtual time, the same
   thresholds on every shard, found a chunk of timestamps at a time
   (:func:`barrier_cuts`) -- draining its subscriptions into a
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
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.engine import Gigascope
from repro.obs.collectors import channel_snapshot, engine_snapshot
from repro.recovery.statelog import StateLog
from repro.shard.partition import STRIPE, shard_packets
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


def barrier_cuts(packets: List, start: int, stop: int, interval: float,
                 next_barrier: Optional[float]
                 ) -> Iterator[Tuple[int, float]]:
    """Barrier crossings in ``packets[start:stop]``, in stream order.

    Yields ``(index, barrier)``: a cut lands before ``packets[index]``,
    the first packet at or past the pending barrier, and ``barrier`` is
    the grid point the cursor advances to -- the first one beyond that
    packet.  Found the way ``RuntimeSystem.feed`` finds heartbeat
    crossings: one timestamp pass per chunk, and an index search only
    inside a chunk whose newest packet crosses.

    With no pending barrier the first packet pins the position on the
    *global* grid (multiples of the interval in absolute virtual time,
    the same thresholds every sibling shard uses) and is not itself
    tested against it.
    """
    for lo in range(start, stop, STRIPE):
        stamps = [packet.timestamp
                  for packet in packets[lo:min(lo + STRIPE, stop)]]
        at = 0
        if next_barrier is None:
            next_barrier = (math.floor(stamps[0] / interval) + 1) * interval
            at = 1
        while at < len(stamps) and max(stamps[at:]) >= next_barrier:
            at = next(i for i in range(at, len(stamps))
                      if stamps[i] >= next_barrier)
            while stamps[at] >= next_barrier:
                next_barrier += interval
            yield lo + at, next_barrier


def run_worker(conn, spec: Dict[str, Any], shard: int,
               packets: List, resume_blob: Optional[bytes] = None,
               crash_at: Optional[int] = None) -> None:
    """The fork target: run one shard start to finish (or to a crash)."""
    gs, subs = _build_engine(spec)
    kept = shard_packets(packets, spec["nshards"], shard)
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
    pump_every = spec["pump_every"]
    crashing = crash_at is not None and offset <= crash_at < len(kept)
    stop = crash_at if crashing else len(kept)
    fed = offset
    # The cursor a state frame stores is the *advanced* barrier: a
    # restored worker re-examines the packet the cut landed before and
    # must not cut (and re-number) a second barrier there.
    for cut, advanced in barrier_cuts(
            kept, offset, stop, spec["barrier_interval"], next_barrier):
        if cut > fed:
            gs.feed(kept[fed:cut], pump_every=pump_every)
            fed = cut
        seq = _cut_barrier(conn, gs, subs, log, seq,
                           packets_done=cut, next_barrier=advanced)
    if crashing:
        # Simulated hard worker death just before packet ``crash_at``:
        # no teardown, no flush, the pipe just goes quiet mid-stream.
        os._exit(3)
    if fed < len(kept):
        gs.feed(kept[fed:] if fed else kept, pump_every=pump_every)
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
