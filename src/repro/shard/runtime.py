"""The parent side of the sharded runtime: spawn, collect, merge.

:class:`ShardedGigascope` mirrors the :class:`~repro.core.engine.Gigascope`
facade (add queries, subscribe, start, feed, flush, stats) but runs the
packet path across N forked worker processes.  The parent never touches
a packet: it materializes the list, forks the workers (each slices its
own stripes out of the inherited list), then sits on the pipes
collecting frames.

Merging is deterministic by construction.  Partial-aggregate rows are
buffered with a ``(window value, shard index, frame seq, arrival)``
sort key and, at flush, dispatched in that total order into one
``final_from_partials`` combine operator per subscribed aggregation --
the same superaggregate combine an HFTA applies to LFTA partials, one
level up the hierarchy.  Window order makes the combine's group-closing
walk the same global (window, key) sweep the single-process engine
performs; shard-then-seq order fixes every remaining tie.  Output of
non-aggregation subscriptions is concatenated in shard order (stream
order within a shard).

Failure policy (per shard): a worker that dies before its ``end`` frame
is respawned from the parent's fold of its ``state`` frames
(:mod:`repro.recovery.statelog`; deterministic frame regeneration +
parent-side seq dedup keeps delivery exactly-once); a
shard that exhausts ``max_restarts`` is quarantined with its undone
packets counted into the drop ledger, and every sibling shard keeps
running.
"""

from __future__ import annotations

import dataclasses
from multiprocessing import connection, get_context
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.channels import Channel, ChannelStats
from repro.core.engine import Gigascope, refuses
from repro.core.heartbeat import FLUSH
from repro.core.stream_manager import (RegistryError, Subscription,
                                       check_pump_every)
from repro.obs.collectors import node_snapshot
from repro.obs.ledger import Field, Ledger, install
from repro.obs.registry import MetricsRegistry
from repro.operators.aggregation import AggregationNode
from repro.recovery.statelog import StateLog
from repro.shard.partition import shard_size
from repro.shard.transport import END, ROWS, STATE, decode_frame, unpack_rows
from repro.shard.worker import run_worker


class _MergeSink:
    """Parent-side merge state for one subscribed stream."""

    __slots__ = ("name", "partial", "node", "channels", "pending",
                 "per_shard", "window_index")

    def __init__(self, name: str, partial: bool, node=None,
                 window_index: int = -1) -> None:
        self.name = name
        self.partial = partial
        #: the combine operator (partial mode) -- its subscriber
        #: channels are the application subscriptions
        self.node = node
        #: application channels (concat mode)
        self.channels: List[Channel] = []
        #: (window, shard, seq, arrival, row) entries awaiting the merge
        self.pending: List[tuple] = []
        #: shard -> rows, for shard-order concatenation
        self.per_shard: Dict[int, List[tuple]] = {}
        self.window_index = window_index


class _ShardState:
    """One worker process's lifecycle bookkeeping."""

    __slots__ = ("index", "process", "conn", "last_seq", "log",
                 "restarts", "ended", "eof")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.last_seq = 0
        #: the fold of this worker process's state frames: what a
        #: replacement is restored from, and how far the shard got
        self.log = StateLog()
        self.restarts = 0
        self.ended = False
        self.eof = False


def parse_crash(text: Optional[str],
                shards: int) -> Optional[Tuple[int, int]]:
    """``"SHARD:PACKET_INDEX"`` -> ``(shard, index)``: the worker to
    kill just before it feeds that packet of its partition."""
    if not text:
        return None
    try:
        shard_text, _, at_text = text.partition(":")
        crash = (int(shard_text), int(at_text))
    except ValueError:
        raise ValueError(
            f"crash must be 'SHARD:PACKET_INDEX', got {text!r}") from None
    if not 0 <= crash[0] < shards:
        raise ValueError(f"crash {text!r} names shard {crash[0]}, but "
                         f"there are only {shards}")
    return crash


def _worker_entry(recv, conn, spec, shard, packets, resume, crash_at):
    recv.close()
    run_worker(conn, spec, shard, packets,
               resume_blob=resume, crash_at=crash_at)


def _per_shard(key: str, family: str, help_text: str) -> Field:
    return Field(key, family, "counter", help_text, "shard",
                 read=lambda runtime: dict(enumerate(
                     getattr(runtime, f"shard_{key}"))))


#: What only the parent can see, all ``gs_shard``-prefixed.  The
#: statistics *inside* a worker travel in its ``end`` frame and surface
#: through ``stats()`` (a worker's registry dies with its process).
LEDGER = Ledger("shard", (
    Field("count", "gs_shard_count", "gauge",
          "worker processes the runtime partitions across",
          read=lambda runtime: runtime.shards),
    Field("generations", "gs_shard_generations_total", "counter",
          "feed() generations dispatched"),
    _per_shard("packets", "gs_shard_packets_total",
               "packets processed per worker shard"),
    _per_shard("rows", "gs_shard_partial_rows_total",
               "partial-aggregate rows shipped to the parent"),
    _per_shard("restarts", "gs_shard_restarts_total",
               "worker respawns from a shard snapshot"),
    _per_shard("snapshots", "gs_shard_snapshots_total",
               "shard checkpoints cut at barrier crossings"),
    _per_shard("channel_dropped", "gs_shard_channel_dropped_total",
               "worker-side channel overflow drops"),
    _per_shard("dropped_packets", "gs_shard_dropped_packets_total",
               "packets lost to a quarantined shard (accounted, not silent)"),
    Field("quarantined", "gs_shard_quarantined", "gauge",
          "shards permanently quarantined after the restart budget",
          read=lambda runtime: len(runtime.quarantined)),
    Field("merge_rows", "gs_shard_merge_rows_total", "counter",
          "finalized rows emitted by the parent's combine operators",
          "query"),
))


@refuses({
    "shed": "each worker would settle on its own keep-rate from its own "
            "stripes, and policy state is not in the state frames a "
            "respawned worker restores from (ROADMAP 5 (c))",
    "alerts": "a trigger watches a query's finalized rows, and under "
              "sharding those exist only in the parent, at flush",
    "recovery": "respawning a dead worker from the parent's fold of its "
                "state frames is built in (max_restarts)",
    "telemetry": "the parent runs no pump to sample at, a worker's _gs_* "
                 "rows would describe one stripe, and the sample cursor is "
                 "not in its state frames (ROADMAP 5 (c))",
    "tracing": "lineage spans are recorded in the process that handles "
               "the packet and would die with the worker",
    "faults": "a fault window runs on one RTS's clock and packet count; N "
              "workers would hold N copies of each injector, one per "
              "stripe (crash='SHARD:INDEX' kills a worker)",
    "replication": "a sharded run already respawns a dead worker from "
                   "the parent's fold of its state frames, and has no "
                   "second parent to promote",
})
class ShardedGigascope:
    """N stripe-partitioned worker engines under one merging parent."""

    ledger = LEDGER

    def __init__(
        self,
        shards: int,
        barrier_interval: float = 1.0,
        max_restarts: int = 1,
        crash: Optional[str] = None,
        metrics: bool = True,
        **engine_kwargs: Any,
    ) -> None:
        if shards <= 0:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        #: virtual-time spacing of the global barrier grid every shard
        #: cuts rows/state frames at
        self.barrier_interval = barrier_interval
        #: respawn budget per shard before quarantine
        self.max_restarts = max_restarts
        #: :class:`Gigascope`'s own arguments, as given: workers are
        #: forked, so a function or schema registry travels unpickled
        self._engine_kwargs = engine_kwargs
        #: plan/schema oracle and combine-node factory; never fed
        #: packets.  Building it validates the arguments in the parent.
        self.template = Gigascope(metrics=False, **engine_kwargs)
        self.seed = self.template.seed
        self._queries: List[Tuple[str, str, Optional[dict], Optional[str]]] = []
        self._sinks: Dict[str, _MergeSink] = {}
        self._started = False
        # Fault injection ("SHARD:PACKET_INDEX"), consumed by the first
        # feed() only: a respawned worker must not re-crash at the
        # same index.
        self._crash = parse_crash(crash, shards)
        # -- counters (LEDGER's fields read these) ---------------------
        self.generations = 0
        self.shard_packets = [0] * shards
        self.shard_rows = [0] * shards
        self.shard_restarts = [0] * shards
        self.shard_snapshots = [0] * shards
        self.shard_delta_frames = [0] * shards
        self.shard_channel_dropped = [0] * shards
        self.shard_dropped_packets = [0] * shards
        #: shard index -> reason, for shards past their restart budget
        self.quarantined: Dict[int, str] = {}
        #: "shardN/<channel>" -> absorbed worker-side overflow ledger
        self.channel_ledgers: Dict[str, ChannelStats] = {}
        self._worker_nodes: Dict[int, Dict[str, Any]] = {}
        self._worker_quarantined: Dict[int, Dict[str, str]] = {}
        self.metrics = None
        if metrics:
            self.metrics = MetricsRegistry()
            install(self.metrics, LEDGER, self)

    # -- queries (delegated to the template, recorded for workers) --------
    def add_query(self, text: str, params: Optional[Dict[str, Any]] = None,
                  name: Optional[str] = None) -> str:
        result = self.template.add_query(text, params=params, name=name)
        self._queries.append(("single", text, params, name))
        return result

    def add_queries(self, text: str,
                    params: Optional[Dict[str, Dict[str, Any]]] = None
                    ) -> List[str]:
        results = self.template.add_queries(text, params=params)
        self._queries.append(("batch", text, params, None))
        return results

    def plan_of(self, name: str):
        return self.template.plan_of(name)

    def explain(self, name: str) -> str:
        return self.template.explain(name)

    def schema_of(self, name: str):
        return self.template.schema_of(name)

    # -- subscriptions ----------------------------------------------------
    def _refuse_colocation(self, name: str) -> None:
        """Refuse a subscription whose worker-side plan -- the query and
        every query it reads -- holds an operator that stripes break.

        A join pairs tuples and an aggregation folds a group's tuples
        wherever they sit in the stream; a stripe worker sees only its
        own positions, so either would answer per partition, silently.
        The one aggregation that may stay is the subscribed terminal
        itself: its partials are combined in the parent.
        """
        instances = self.template._instances
        pending = [name]
        while pending:
            query = pending.pop()
            instance = instances.get(query)
            if instance is None or instance.plan.hfta is None:
                continue  # an LFTA stream: per tuple
            hfta = instance.plan.hfta
            if hfta.kind == "join" or (hfta.kind == "aggregation"
                                       and query != name):
                raise RegistryError(
                    f"cannot shard-subscribe {name!r}: {hfta.kind} "
                    f"{query!r} in its worker-side plan needs every tuple "
                    f"of a {'pair' if hfta.kind == 'join' else 'group'} "
                    "co-located in one process, and stripe workers each "
                    "see only their own positions of the stream"
                )
            pending.extend(hfta.inputs)

    def _make_sink(self, name: str) -> _MergeSink:
        self._refuse_colocation(name)
        instance = self.template._instances.get(name)
        terminal = instance.nodes[-1] if instance else None
        if isinstance(terminal, AggregationNode):
            # The workers will flip this terminal into partial mode, so
            # its stream stops carrying finalized rows inside the
            # worker; any sibling query reading it would see partials.
            produced = {node.name for node in instance.nodes}
            for other_name, other in self.template._instances.items():
                if other_name == name or other.plan.hfta is None:
                    continue
                used = produced.intersection(other.plan.hfta.inputs)
                if used:
                    raise RegistryError(
                        f"cannot shard-subscribe aggregation {name!r}: "
                        f"query {other_name!r} reads {sorted(used)} "
                        "downstream (the worker-side partial flip would "
                        "feed it superaggregates)"
                    )
            plan = dataclasses.replace(
                instance.plan.hfta, final_from_partials=True,
                predicates=[], sample_rate=None)
            node = AggregationNode(plan, instance.analyzed,
                                   instance.compiler, seed=self.seed)
            return _MergeSink(name, partial=True, node=node,
                              window_index=plan.window_key_index)
        # Canonical unknown-name error comes from the registry.
        self.template.rts.node(name)
        return _MergeSink(name, partial=False)

    def subscribe(self, name: str,
                  capacity: Optional[int] = None) -> Subscription:
        sink = self._sinks.get(name)
        if sink is None:
            sink = self._make_sink(name)
            self._sinks[name] = sink
        if sink.partial:
            channel = sink.node.subscribe(capacity=capacity,
                                          name=f"{name}->app")
        else:
            channel = Channel(capacity=capacity, name=f"{name}->app")
            sink.channels.append(channel)
        return Subscription(name, channel, manager=None)

    # -- lifecycle --------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> None:
        self._started = True

    def stop(self) -> None:
        self._started = False

    # -- the packet path --------------------------------------------------
    def feed(self, packets: Iterable, pump_every: int = 256) -> None:
        """Partition ``packets`` across the workers and collect frames.

        Blocks until every live shard has delivered its ``end`` frame
        (restarting or quarantining the ones that die on the way).
        Merged output becomes visible to subscriptions at
        :meth:`flush`.  ``pump_every`` is refused before any worker is
        forked unless it is a positive integer.
        """
        check_pump_every(pump_every)
        if not self._started:
            raise RegistryError("RTS not started; call start() first")
        if not isinstance(packets, list):
            packets = list(packets)
        if not packets:
            return
        self.generations += 1
        spec = {
            "queries": list(self._queries),
            "subscribe": [(name, sink.partial)
                          for name, sink in self._sinks.items()],
            "engine": dict(self._engine_kwargs),
            "nshards": self.shards,
            "barrier_interval": self.barrier_interval,
            "pump_every": pump_every,
        }
        crash, self._crash = self._crash, None
        self._run(packets, spec, crash)

    def _spawn(self, ctx, shard: int, spec, packets,
               resume: Optional[bytes],
               crash_at: Optional[int]) -> _ShardState:
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_entry,
            args=(recv, send, spec, shard, packets, resume, crash_at),
            daemon=True)
        process.start()
        # The parent keeps only the receive end; the child's copy of
        # ``send`` is then the sole writer, so worker death is visible
        # as EOF as well as through the process sentinel.
        send.close()
        return _ShardState(shard, process, recv)

    def _run(self, packets, spec, crash) -> None:
        ctx = get_context("fork")
        live: Dict[int, _ShardState] = {}
        for shard in range(self.shards):
            if shard in self.quarantined:
                # Dead shards stay dead across generations; keep the
                # drop ledger honest for the new packets too.
                self.shard_dropped_packets[shard] += shard_size(
                    len(packets), self.shards, shard)
                continue
            crash_at = crash[1] if crash and crash[0] == shard else None
            live[shard] = self._spawn(ctx, shard, spec, packets,
                                      None, crash_at)
        while live:
            waitables: List[Any] = []
            for state in live.values():
                waitables.append(state.conn)
                waitables.append(state.process.sentinel)
            ready = set(connection.wait(waitables))
            for shard, state in list(live.items()):
                while state.conn.poll():
                    try:
                        blob = state.conn.recv_bytes()
                    except EOFError:
                        state.eof = True
                        break
                    self._handle_frame(state, blob)
                    if state.ended:
                        break
                if state.ended:
                    state.process.join()
                    del live[shard]
                    continue
                if state.eof or state.process.sentinel in ready:
                    # eof means the drain above consumed every frame
                    # (recv only raises EOFError on an empty buffer); a
                    # dead process without eof can still have frames
                    # buffered -- or its pipe held open by a later-
                    # forked sibling -- so re-check before recovering.
                    # Never poll() after eof: at EOF it reads ready
                    # forever and the check would spin.
                    if not state.eof and state.conn.poll():
                        continue  # more frames buffered; drain next round
                    state.process.join()
                    del live[shard]
                    replacement = self._recover(ctx, state, spec, packets)
                    if replacement is not None:
                        live[shard] = replacement

    def _handle_frame(self, state: _ShardState, blob: bytes) -> None:
        kind, seq, payload = decode_frame(blob)
        if seq <= state.last_seq:
            # A respawned worker deterministically regenerates the
            # frames after its restored checkpoint; ones the parent
            # already consumed are dropped here (exactly-once).
            return
        state.last_seq = seq
        if kind == ROWS:
            for name, rows in unpack_rows(payload).items():
                if not rows:
                    continue
                sink = self._sinks[name]
                self.shard_rows[state.index] += len(rows)
                if sink.partial:
                    window = sink.window_index
                    arrival = len(sink.pending)
                    for offset, row in enumerate(rows):
                        sink.pending.append((
                            row[window] if window >= 0 else 0,
                            state.index, seq, arrival + offset, row))
                else:
                    sink.per_shard.setdefault(state.index, []).extend(rows)
        elif kind == STATE:
            # Unchanged nodes keep their last-shipped blob, so the fold
            # stays byte-equivalent to a full snapshot of the worker.
            frame = state.log.fold(payload)
            self.shard_snapshots[state.index] += 1
            if frame["kind"] == "delta":
                self.shard_delta_frames[state.index] += 1
        elif kind == END:
            state.ended = True
            self.shard_packets[state.index] += payload["packets"]
            self._worker_nodes[state.index] = payload["nodes"]
            if payload["quarantined"]:
                self._worker_quarantined[state.index] = payload["quarantined"]
            self._absorb_channels(state.index, payload["channels"])

    def _absorb_channels(self, shard: int,
                         channels: Dict[str, Dict[str, Any]]) -> None:
        """Satellite 2: worker-side overflow accounting survives the pipe."""
        for name, snapshot in channels.items():
            ledger = self.channel_ledgers.setdefault(
                f"shard{shard}/{name}", ChannelStats())
            ledger.absorb(snapshot)
            self.shard_channel_dropped[shard] += snapshot.get("dropped", 0)

    def _recover(self, ctx, state: _ShardState, spec,
                 packets) -> Optional[_ShardState]:
        exitcode = state.process.exitcode
        reason = f"worker exited with code {exitcode} before its end frame"
        if state.restarts < self.max_restarts:
            self.shard_restarts[state.index] += 1
            # The fold -- the full epoch plus every delta -- re-emitted
            # as the one full frame that opens the replacement's log; a
            # worker that died before its first barrier starts over.
            resume = state.log.full_frame() if state.log.seq >= 0 else None
            replacement = self._spawn(ctx, state.index, spec, packets,
                                      resume, None)
            replacement.restarts = state.restarts + 1
            replacement.last_seq = state.last_seq
            if resume is not None:
                replacement.log.fold(resume)
            return replacement
        # Quarantine: siblings keep running; the undone packets are
        # counted, not silently lost (accountable loss, Section 1).
        self.shard_dropped_packets[state.index] += shard_size(
            len(packets), self.shards, state.index) - state.log.cursor
        self.quarantined[state.index] = reason
        return None

    # -- end of stream ----------------------------------------------------
    def flush(self) -> None:
        """Merge every buffered frame and end the output streams."""
        for sink in self._sinks.values():
            if sink.partial:
                # Total order: global window sweep, shard index and
                # frame sequence breaking every tie deterministically.
                sink.pending.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
                node = sink.node
                for entry in sink.pending:
                    node.dispatch(entry[4], 0)
                sink.pending.clear()
                if not node.flushed:
                    node.flushed = True
                    node.flush()
                    node.emit_flush()
            else:
                for shard in range(self.shards):
                    rows = sink.per_shard.pop(shard, None)
                    if rows:
                        for channel in sink.channels:
                            channel.push_many(rows)
                for channel in sink.channels:
                    channel.push(FLUSH)

    # -- introspection ----------------------------------------------------
    @property
    def planes(self) -> Dict[str, Any]:
        return {LEDGER.name: self}

    @property
    def merge_rows(self) -> Dict[str, int]:
        """Finalized rows each combine operator has emitted, by query."""
        return {name: sink.node.stats.tuples_out
                for name, sink in self._sinks.items() if sink.partial}

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-shard worker node snapshots plus the parent merge nodes."""
        out: Dict[str, Dict[str, Any]] = {}
        for shard in sorted(self._worker_nodes):
            for node_name, entry in self._worker_nodes[shard].items():
                out[f"shard{shard}/{node_name}"] = entry
        for name, sink in self._sinks.items():
            if sink.partial:
                out[f"merge/{name}"] = node_snapshot(sink.node)
        return out

    def overload_report(self) -> Dict[str, Any]:
        """End-to-end drop accounting across the process boundary."""
        channels: Dict[str, Dict[str, Any]] = {}
        for name, ledger in sorted(self.channel_ledgers.items()):
            channels[name] = {
                "pushed": ledger.pushed, "popped": ledger.popped,
                "dropped": ledger.dropped, "depth": 0,
                "max_depth": ledger.max_depth, "capacity": None,
            }
        return {
            "policy": "sharded",
            "shed_rate": 1.0,
            "packets_shed": 0,
            "channel_dropped": sum(self.shard_channel_dropped),
            "channels": channels,
            "shards": {
                "count": self.shards,
                "packets": list(self.shard_packets),
                "rows": list(self.shard_rows),
                "restarts": list(self.shard_restarts),
                "snapshots": list(self.shard_snapshots),
                "delta_frames": list(self.shard_delta_frames),
                "channel_dropped": list(self.shard_channel_dropped),
                "dropped_packets": list(self.shard_dropped_packets),
                "quarantined": {str(shard): reason for shard, reason
                                in sorted(self.quarantined.items())},
            },
        }

    def shard_report(self) -> Dict[str, Any]:
        """The per-shard ledger on its own (what E16 and the report use)."""
        report = self.overload_report()["shards"]
        report["generations"] = self.generations
        report["merge_rows"] = self.merge_rows
        report["worker_quarantined"] = {
            str(shard): dict(nodes) for shard, nodes
            in sorted(self._worker_quarantined.items())}
        return report

    #: as the ``shard`` plane (``planes``), this is the report
    report = shard_report
