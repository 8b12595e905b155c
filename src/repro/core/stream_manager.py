"""The stream manager: registry, subscriptions, and the scheduler.

"The central component of Gigascope is a stream manager which tracks
the query nodes that can be activated.  [...] When a user application
or query node needs to subscribe to the output of a query, it submits
the query name to the registry and receives a query handle in return."

Process model: LFTAs (and other packet consumers, e.g. the defrag
operator) are *linked into* the run-time system -- ``feed_packet``
calls them directly with no queue in between, which is why the LFTA set
is fixed once the RTS starts ("all queries which generate LFTAs must be
submitted in a batch"; changing them requires a stop/restart).  HFTAs
are separate query nodes connected by channels and driven by
:meth:`RuntimeSystem.pump`.

The manager is also the heartbeat source: it injects ordering-update
tokens periodically in stream time, and on demand when a blocked
operator asks (Section 3, "Unblocking Operators").
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.channels import Channel
from repro.core.heartbeat import FLUSH, FlushToken, Punctuation
from repro.core.query_node import QueryNode
from repro.gsql.schema import PacketView
from repro.net.packet import CapturedPacket
from repro.obs.collectors import engine_snapshot, install_engine_metrics
from repro.obs.registry import MetricsRegistry

#: default number of packets per batch on the vectorized path
DEFAULT_BATCH_SIZE = 256


class RegistryError(RuntimeError):
    """Raised for registration and subscription errors."""


class Subscription:
    """A query handle: the consumer side of an output channel."""

    def __init__(self, name: str, channel: Channel,
                 manager: Optional["RuntimeSystem"] = None) -> None:
        self.name = name
        self.channel = channel
        self.manager = manager
        self.ended = False

    def poll(self) -> List[tuple]:
        """All data tuples received since the last poll."""
        rows = []
        tracer = self.manager.tracer if self.manager is not None else None
        for item in self.channel.drain():
            if type(item) is tuple:
                rows.append(item)
                if tracer is not None:
                    trace = tracer.lookup(item)
                    if trace is not None:
                        tracer.event(trace, "app", self.name,
                                     self.manager.stream_time)
            elif isinstance(item, FlushToken):
                self.ended = True
        return rows

    def poll_raw(self) -> List[Any]:
        """Everything, including punctuation and flush tokens."""
        return self.channel.drain()

    def __len__(self) -> int:
        return len(self.channel)


class RuntimeSystem:
    """The Gigascope RTS: registry, packet dispatch, scheduling, heartbeats."""

    def __init__(self, heartbeat_interval: Optional[float] = 1.0,
                 on_demand_heartbeats: bool = True,
                 metrics: bool = True,
                 cost_model=None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        self.heartbeat_interval = heartbeat_interval
        self.on_demand_heartbeats = on_demand_heartbeats
        #: packets per block on the vectorized path (DESIGN section 10);
        #: <= 1 disables batching entirely (pure scalar execution)
        self.batch_size = batch_size
        self.batches_fed = 0
        #: per-interface dispatch plans, rebuilt lazily after any change
        #: to the consumer set (registration, removal, quarantine)
        self._batch_plans: Dict[str, tuple] = {}
        self._nodes: Dict[str, QueryNode] = {}
        self._packet_consumers: Dict[str, List[QueryNode]] = {}
        self._all_consumers: List[QueryNode] = []
        self._hfta_order: List[QueryNode] = []
        self._started = False
        self._stream_time = -math.inf
        self._last_heartbeat = -math.inf
        self._heartbeat_wanted = False
        self.packets_fed = 0
        self.bytes_fed = 0
        self.heartbeats_sent = 0
        #: heartbeats suppressed by an injected HeartbeatSilence fault
        self.heartbeats_suppressed = 0
        #: packets an injected fault dropped before dispatch
        self.fault_dropped = 0
        #: armed fault injectors (see repro.faults)
        self.faults: List = []
        #: node name -> error string, for every node quarantined so far
        self.quarantined: Dict[str, str] = {}
        self.nodes_quarantined = 0
        #: the overload control plane, if enabled (see repro.control)
        self.controller = None
        #: the recovery supervisor, if enabled (see repro.recovery)
        self.supervisor = None
        #: the replication shipper, if enabled (see repro.replication)
        self.replicator = None
        #: the alert evaluation plane, if enabled (see repro.alerts)
        self.alert_engine = None
        #: the self-telemetry hub, if enabled (see repro.obs.telemetry)
        self.telemetry = None
        #: the sampled-lineage tracer, if enabled (see repro.obs.tracing)
        self.tracer = None
        #: virtual-time cost model for latency accounting (lazy default)
        self.cost_model = cost_model
        #: the metrics registry (repro.obs); None when metrics disabled
        self.metrics: Optional[MetricsRegistry] = None
        self._pump_cycle_hist = None
        if metrics:
            self.metrics = MetricsRegistry()
            install_engine_metrics(self.metrics, self)
            self._pump_cycle_hist = self.metrics.histogram(
                "gs_pump_cycle_virtual_us",
                "estimated virtual-time microseconds of HFTA work per "
                "pump cycle (Section 4 cost model)")
            if self.cost_model is None:
                from repro.sim.cost_model import CostModel
                self.cost_model = CostModel()

    # -- registry -------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    def node(self, name: str) -> QueryNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise RegistryError(f"no query node named {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._nodes)

    def iter_nodes(self) -> Iterator[Tuple[str, QueryNode]]:
        """All registered ``(name, node)`` pairs."""
        return iter(self._nodes.items())

    def channels(self) -> Iterator[Channel]:
        """Every live output channel (node-to-node and node-to-app)."""
        for node in self._nodes.values():
            yield from node.subscribers

    def register_node(self, node: QueryNode,
                      packet_interface: Optional[str] = None) -> None:
        """Register a node; packet consumers bind to an interface.

        Packet consumers (LFTAs, defrag, ...) are linked into the RTS
        and may only be added while it is stopped.
        """
        if node.name in self._nodes:
            raise RegistryError(f"query node {node.name!r} already registered")
        if packet_interface is not None and self._started:
            raise RegistryError(
                "LFTAs are linked into the RTS and must be submitted in a "
                "batch before start(); stop() the RTS to change them"
            )
        self._nodes[node.name] = node
        node.manager = self
        self._batch_plans.clear()
        if packet_interface is not None:
            self._packet_consumers.setdefault(packet_interface, []).append(node)
            self._all_consumers.append(node)
        else:
            self._hfta_order.append(node)

    def connect(self, consumer: QueryNode, input_names: Iterable[str],
                capacity: Optional[int] = None) -> None:
        """Wire ``consumer``'s inputs to the named producers' outputs."""
        for name in input_names:
            producer = self.node(name)
            channel = producer.subscribe(
                capacity=capacity, name=f"{name}->{consumer.name}"
            )
            consumer.attach_input(channel)
            consumer.input_links.append((producer, channel))

    def remove_node(self, name: str, force: bool = False) -> None:
        """Deregister a node and detach its channels.

        Packet consumers (LFTAs) cannot be removed while started -- the
        LFTA batch restriction works both ways.  Nodes with subscribers
        are refused unless ``force`` (the engine forces when it removes
        a whole query after checking no other query depends on it; any
        remaining application subscriptions receive a flush token so
        ``Subscription.ended`` becomes True instead of dangling forever).
        """
        node = self.node(name)
        self._batch_plans.clear()
        if node in self._all_consumers:
            if self._started:
                raise RegistryError(
                    "LFTAs are linked into the RTS; stop() before "
                    "removing one"
                )
            for consumers in self._packet_consumers.values():
                if node in consumers:
                    consumers.remove(node)
            self._all_consumers.remove(node)
        if node.subscribers and not force:
            raise RegistryError(
                f"{name!r} still has {len(node.subscribers)} subscriber(s); "
                "remove the dependents first"
            )
        if node in self._hfta_order:
            self._hfta_order.remove(node)
        for producer, channel in node.input_links:
            if channel in producer.subscribers:
                producer.subscribers.remove(channel)
        # End the stream for whoever is still listening (application
        # subscriptions): the removed query will never produce again.
        for channel in node.subscribers:
            channel.push(FLUSH)
        # Detach from the manager so stray on-demand heartbeat requests
        # from the removed node no longer mutate this RTS.
        node.manager = None
        del self._nodes[name]

    def subscribe(self, name: str, capacity: Optional[int] = None) -> Subscription:
        """Application-side subscription to any query's output stream."""
        producer = self.node(name)
        channel = producer.subscribe(capacity=capacity, name=f"{name}->app")
        return Subscription(name, channel, manager=self)

    # -- fault injection & containment (repro.faults) -----------------------
    def install_fault(self, fault) -> None:
        """Arm a fault injector's runtime hooks (see :mod:`repro.faults`)."""
        self.faults.append(fault)

    def _quarantine(self, node: QueryNode, error: Exception) -> None:
        """Contain a failing node instead of unwinding the whole cycle.

        The node is counted, detached from the packet path and the HFTA
        schedule, and its downstream receives FLUSH so dependents and
        application subscriptions terminate cleanly -- every sibling
        keeps running and keeps being accounted.  The node stays in the
        registry so its statistics (and the quarantine reason) remain
        visible.
        """
        node.quarantined = f"{type(error).__name__}: {error}"
        self.quarantined[node.name] = node.quarantined
        self.nodes_quarantined += 1
        self._batch_plans.clear()
        if node in self._hfta_order:
            self._hfta_order.remove(node)
        if node in self._all_consumers:
            for consumers in self._packet_consumers.values():
                if node in consumers:
                    consumers.remove(node)
            self._all_consumers.remove(node)
        # Producers stop filling the dead node's input channels.
        for producer, channel in node.input_links:
            if channel in producer.subscribers:
                producer.subscribers.remove(channel)
        # The failed query will never produce again: end its streams.
        for channel in node.subscribers:
            channel.push(FLUSH)

    def _contain(self, node: QueryNode, error: Exception) -> bool:
        """Offer a failing node to the recovery supervisor, else quarantine.

        True means the caller's loop may continue past the node: it was
        either recovered in place (restored from the last checkpoint
        with its journal gap replayed) or suspended for a backoff retry
        (its ``quarantined`` marker makes every scheduler skip it until
        the supervisor resumes it).  False is today's permanent
        quarantine, with identical containment accounting.
        """
        supervisor = self.supervisor
        if supervisor is not None and supervisor.on_failure(node, error):
            tracer = self.tracer
            if (tracer is not None and tracer.current is not None
                    and node.quarantined is None):
                tracer.event(tracer.current, "recovered", node.name,
                             self._stream_time)
            return True
        self._quarantine(node, error)
        return False

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        self._started = True
        if self.supervisor is not None:
            self.supervisor.on_start()

    def stop(self) -> None:
        """Stop so the LFTA set can change ("we can change the RTS in seconds")."""
        self._started = False

    # -- packet path ----------------------------------------------------------------
    @property
    def stream_time(self) -> float:
        return self._stream_time

    def _plan_for(self, interface: str) -> tuple:
        """The cached dispatch plan for one interface.

        ``(scalar_entries, batch_entries, share_views)`` where

        * ``scalar_entries`` -- ``(node, wants_view)`` pairs in scalar
          dispatch order: interface consumers, then ``"any"`` consumers
          (for ``interface == "any"`` just the any-consumers);
        * ``batch_entries`` -- ``(node, accept_batch_or_None, wants_view)``
          for the interface's *own* consumers only (batched dispatch
          hands any-consumers the whole batch separately);
        * ``share_views`` -- build one shared :class:`PacketView` per
          packet (more than one consumer and at least one wants it).

        Only node identities and static flags are cached; per-packet
        handlers (``accept_packet``) are looked up at call time so a
        fault injector's instance-level wrap is never bypassed.
        """
        plan = self._batch_plans.get(interface)
        if plan is None:
            own = [node for node in self._packet_consumers.get(interface, ())
                   if node.quarantined is None]
            anys: List[QueryNode] = []
            if interface != "any":
                anys = [node for node in self._packet_consumers.get("any", ())
                        if node.quarantined is None]
            combined = own + anys
            scalar_entries = tuple(
                (node, getattr(node, "accepts_view", False))
                for node in combined)
            batch_entries = tuple(
                (node, getattr(node, "accept_batch", None),
                 getattr(node, "accepts_view", False))
                for node in own)
            share = len(combined) > 1 and any(w for _, w in scalar_entries)
            plan = (scalar_entries, batch_entries, share)
            self._batch_plans[interface] = plan
        return plan

    def feed_packet(self, packet: CapturedPacket) -> None:
        """Hand one captured packet to every consumer on its interface."""
        if not self._started:
            raise RegistryError("RTS not started; call start() first")
        for fault in self.faults:
            packet = fault.on_packet(packet, self)
            if packet is None:
                # Dropped by an injected fault before it reached the
                # host path; the injector's ledger has the count too.
                self.fault_dropped += 1
                return
        self.packets_fed += 1
        self.bytes_fed += packet.caplen
        if packet.timestamp > self._stream_time:
            self._stream_time = packet.timestamp
        if self.supervisor is not None:
            # Journal-before-dispatch: the journal must cover the very
            # packet a consumer crashes on (DESIGN section 11).
            self.supervisor.journal_packet(packet)
        tracer = self.tracer
        trace = None
        if tracer is not None:
            trace = tracer.wants(packet)
            if trace is not None and not tracer.begin(
                    trace, packet, "feed", packet.timestamp):
                trace = None
        # Consumers bound to the "any" pseudo-interface see every packet
        # regardless of where it arrived (FROM any.tcp); the cached plan
        # already appends them.
        scalar_entries, _, share = self._plan_for(packet.interface)
        view = None
        if share:
            # Several LFTAs share one header parse per packet -- the
            # zero-extra-transfer property of linking them into the RTS.
            view = PacketView(packet)
        for node, wants_view in scalar_entries:
            if node.quarantined is not None:
                continue
            if trace is not None:
                tracer.event(trace, "lfta", node.name, packet.timestamp)
                tracer.current = trace
            try:
                if view is not None and wants_view:
                    node.accept_packet(packet, view)
                else:
                    node.accept_packet(packet)
            except Exception as error:
                self._contain(node, error)
        if trace is not None:
            tracer.current = None
        if (
            self.heartbeat_interval is not None
            and self._stream_time >= self._last_heartbeat + self.heartbeat_interval
        ):
            self._send_heartbeats(self._stream_time)

    def _feed_batch(self, packets: List[CapturedPacket]) -> None:
        """Dispatch one block of packets (the vectorized capture path).

        The caller (:meth:`feed`) guarantees no fault injector is armed
        and no buffered packet is lineage-sampled, and cuts blocks at
        heartbeat crossings -- so per-node packet order, RNG draw order,
        and counter arithmetic are exactly the scalar path's.
        """
        stream_time = self._stream_time
        total_bytes = 0
        for packet in packets:
            total_bytes += packet.caplen
            if packet.timestamp > stream_time:
                stream_time = packet.timestamp
        self.packets_fed += len(packets)
        self.bytes_fed += total_bytes
        self._stream_time = stream_time
        self.batches_fed += 1
        if self.supervisor is not None:
            self.supervisor.journal_packets(packets)
        # Split into per-interface runs, preserving arrival order within
        # each; an "any" consumer sees every packet, so it gets the whole
        # block (its global arrival order) in one call.
        runs: Dict[str, List[CapturedPacket]] = {}
        run_views: Dict[str, Optional[List[Optional[PacketView]]]] = {}
        share_flags: Dict[str, bool] = {}
        any_entries = self._plan_for("any")[1]
        full_views: Optional[List[Optional[PacketView]]] = (
            [] if any(wants for _, _, wants in any_entries) else None)
        for packet in packets:
            interface = packet.interface
            share = share_flags.get(interface)
            if share is None:
                share_flags[interface] = share = self._plan_for(interface)[2]
                runs[interface] = []
                run_views[interface] = [] if share else None
            view = PacketView(packet) if share else None
            runs[interface].append(packet)
            aligned = run_views[interface]
            if aligned is not None:
                aligned.append(view)
            if full_views is not None:
                full_views.append(view)
        for interface, run in runs.items():
            if interface == "any":
                # Covered by the full-block any-consumer dispatch below.
                continue
            entries = self._plan_for(interface)[1]
            views = run_views[interface]
            self._dispatch_run(entries, run, views)
        if any_entries:
            self._dispatch_run(any_entries, packets, full_views)

    def _dispatch_run(self, entries, packets, views) -> None:
        """One ordered packet run to one interface's consumers."""
        for node, accept_batch, wants_view in entries:
            if node.quarantined is not None:
                continue
            try:
                if accept_batch is not None:
                    accept_batch(packets, views if wants_view else None)
                elif wants_view and views is not None:
                    accept = node.accept_packet
                    for packet, view in zip(packets, views):
                        accept(packet, view)
                else:
                    accept = node.accept_packet
                    for packet in packets:
                        accept(packet)
            except Exception as error:
                # Containment keeps the rest of the block intact for
                # sibling consumers (each entry gets its own dispatch of
                # the same immutable run); a recovered node already
                # re-processed the whole journaled block, tail included.
                self._contain(node, error)

    def feed(self, packets: Iterable[CapturedPacket], pump_every: int = 256) -> None:
        """Feed a packet iterable, pumping HFTAs periodically.

        With ``batch_size > 1`` packets move in blocks through
        :meth:`_feed_batch`; blocks are cut at heartbeat crossings and
        pump boundaries so heartbeats, pump cycles (and therefore
        controller/fault windows) fire after exactly the same packet as
        scalar execution.  Armed faults force the scalar path (their
        hooks wrap the per-packet entry points); a lineage-sampled
        packet is fed scalar after flushing the pending block.
        """
        batch_size = self.batch_size
        if batch_size <= 1 or self.faults:
            count = 0
            for packet in packets:
                self.feed_packet(packet)
                count += 1
                if count % pump_every == 0:
                    self.pump()
            self.pump()
            return
        if not self._started:
            raise RegistryError("RTS not started; call start() first")
        tracer = self.tracer
        interval = self.heartbeat_interval
        buffer: List[CapturedPacket] = []
        count = 0
        stream_time = self._stream_time
        threshold = (self._last_heartbeat + interval
                     if interval is not None else math.inf)
        for packet in packets:
            count += 1
            if tracer is not None and tracer.wants(packet) is not None:
                if buffer:
                    self._feed_batch(buffer)
                    buffer = []
                self.feed_packet(packet)  # scalar: tags/propagates the trace
                stream_time = self._stream_time
                if interval is not None:
                    threshold = self._last_heartbeat + interval
                if count % pump_every == 0:
                    self.pump()
                continue
            buffer.append(packet)
            if packet.timestamp > stream_time:
                stream_time = packet.timestamp
            crossed = stream_time >= threshold
            if crossed or len(buffer) >= batch_size or count % pump_every == 0:
                self._feed_batch(buffer)
                buffer = []
                if crossed:
                    self._send_heartbeats(self._stream_time)
                    threshold = self._last_heartbeat + interval
                if count % pump_every == 0:
                    self.pump()
        if buffer:
            self._feed_batch(buffer)
            if interval is not None and stream_time >= threshold:
                self._send_heartbeats(self._stream_time)
        self.pump()

    def advance_time(self, stream_time: float) -> None:
        """Declare stream time without a packet (quiet period)."""
        if stream_time > self._stream_time:
            self._stream_time = stream_time
        self._send_heartbeats(self._stream_time)
        self.pump()

    # -- heartbeats --------------------------------------------------------------------
    def _send_heartbeats(self, stream_time: float) -> None:
        for fault in self.faults:
            if fault.silences_heartbeat(stream_time):
                # The token is withheld but _last_heartbeat is not
                # advanced, so the first beat after the silence window
                # catches blocked operators up immediately.
                self.heartbeats_suppressed += 1
                return
        self._last_heartbeat = stream_time
        self.heartbeats_sent += 1
        if self.supervisor is not None:
            self.supervisor.journal_heartbeat(stream_time)
        for node in list(self._all_consumers):
            # A supervisor-suspended node stays in _all_consumers but
            # must not see live heartbeats: it catches up from the
            # journal when it resumes.
            if node.quarantined is not None:
                continue
            on_heartbeat = getattr(node, "on_heartbeat", None)
            if on_heartbeat is not None:
                try:
                    on_heartbeat(stream_time)
                except Exception as error:
                    self._contain(node, error)

    def heartbeat_requested(self, node: QueryNode) -> None:
        """An operator suspects it is blocked: serve a token at next pump."""
        if self.on_demand_heartbeats:
            self._heartbeat_wanted = True

    # -- scheduling -----------------------------------------------------------------------
    def pump(self) -> int:
        """Drain HFTA input channels until quiescent; returns items processed."""
        # Windowed fault injectors activate/deactivate on the virtual
        # clock, then the overload control plane samples pressure
        # *before* draining, when channel depths reflect the backlog
        # this cycle built up.
        for fault in self.faults:
            fault.on_cycle(self._stream_time, self)
        if self.controller is not None:
            self.controller.on_cycle(self._stream_time)
        telemetry = self.telemetry
        if telemetry is not None:
            # Telemetry samples the engine *before* the drain so the
            # emitted _gs_* rows travel through (journaled) channels
            # this same cycle, exactly like alert epoch ticks below --
            # which is what makes the streams replay byte-identically.
            telemetry.on_cycle(self._stream_time)
        if self.alert_engine is not None:
            # The epoch clock ticks at pump boundaries in virtual time;
            # ticks travel through (journaled) channels so the drain
            # below delivers them like any other stream item.
            self.alert_engine.on_cycle(self._stream_time)
        supervisor = self.supervisor
        if supervisor is not None:
            # Retry suspended nodes whose backoff expired (virtual time).
            supervisor.on_pump_begin(self._stream_time)
        tracer = self.tracer
        # The sampling wall-clock profiler brackets each operator's
        # share of the drain; it decides per cycle whether to time.
        profiler = telemetry.profiler if telemetry is not None else None
        if profiler is not None and not profiler.begin_cycle():
            profiler = None
        # The batched drain needs per-item tracer lookups disabled and
        # must not bypass a fault injector's per-tuple wraps, so either
        # one forces the scalar drain.
        if self.batch_size > 1 and tracer is None and not self.faults:
            processed = self._pump_batched(profiler)
            if supervisor is not None:
                supervisor.on_pump_end(self._stream_time)
            if self.replicator is not None:
                # The same quiescent boundary the supervisor checkpoints
                # at is where replication frames are cut.
                self.replicator.on_pump_end(self._stream_time)
            return processed
        processed = 0
        while True:
            if self._heartbeat_wanted:
                self._heartbeat_wanted = False
                if not math.isinf(self._stream_time):
                    self._send_heartbeats(self._stream_time)
            progress = False
            # _quarantine edits _hfta_order, so iterate a snapshot.
            for node in list(self._hfta_order):
                if node.quarantined is not None:
                    continue
                drain_began = perf_counter() if profiler is not None else 0.0
                for input_index, channel in enumerate(node.inputs):
                    while channel:
                        item = channel.pop()
                        if supervisor is not None:
                            supervisor.journal_item(node, item, input_index)
                        if tracer is not None:
                            trace = tracer.lookup(item)
                            if trace is not None:
                                # A node with no output channels is a
                                # terminal consumer: a sink.
                                tracer.event(
                                    trace,
                                    "hfta" if node.subscribers else "sink",
                                    node.name, self._stream_time)
                            tracer.current = trace
                        try:
                            node.dispatch(item, input_index)
                        except Exception as error:
                            # A failing node is contained -- recovered by
                            # the supervisor, or quarantined (counted,
                            # detached, downstream flushed) -- instead of
                            # unwinding pump() and starving its siblings.
                            if not self._contain(node, error):
                                break
                            if node.quarantined is not None:
                                break  # suspended: resumes after backoff
                        processed += 1
                        progress = True
                    if node.quarantined is not None:
                        break
                if profiler is not None:
                    # Closed even when the node was quarantined or
                    # suspended mid-drain: cost up to the failure is
                    # still attributed, never dangling.
                    profiler.add(node.name, perf_counter() - drain_began)
            if not progress and not self._heartbeat_wanted:
                break
        if tracer is not None:
            tracer.current = None
        if self._pump_cycle_hist is not None and processed:
            self._pump_cycle_hist.observe(
                processed * self.cost_model.hfta_tuple_us)
        if supervisor is not None:
            # The pump boundary is the crash-consistent cut point: every
            # channel is quiescent here, so operator state alone
            # describes the computation.
            supervisor.on_pump_end(self._stream_time)
        if self.replicator is not None:
            self.replicator.on_pump_end(self._stream_time)
        return processed

    def _pump_batched(self, profiler=None) -> int:
        """The scalar drain loop moving items in blocks (DESIGN sec 10).

        Per-channel FIFO order is preserved exactly: a popped block is
        split into runs of data tuples (handed to ``dispatch_batch`` on
        operators declaring ``accepts_batch``) with control tokens
        dispatched singly at their original positions; a block the
        channel knows holds no control token is handed over whole.
        Only called with no tracer and no armed faults (see
        :meth:`pump`).
        """
        supervisor = self.supervisor
        processed = 0
        while True:
            if self._heartbeat_wanted:
                self._heartbeat_wanted = False
                if not math.isinf(self._stream_time):
                    self._send_heartbeats(self._stream_time)
            progress = False
            # _quarantine edits _hfta_order, so iterate a snapshot.
            for node in list(self._hfta_order):
                if node.quarantined is not None:
                    continue
                batched = node.accepts_batch
                drain_began = perf_counter() if profiler is not None else 0.0
                for input_index, channel in enumerate(node.inputs):
                    while channel:
                        pure = not channel.control_queued
                        items = channel.pop_many()
                        if supervisor is not None:
                            supervisor.journal_items(node, items, input_index)
                        try:
                            if batched and pure:
                                # No control token inside: one run.
                                node.dispatch_batch(items, input_index)
                            elif batched:
                                dispatch_batch = node.dispatch_batch
                                run: List[tuple] = []
                                for item in items:
                                    if type(item) is tuple:
                                        run.append(item)
                                    else:
                                        if run:
                                            dispatch_batch(run, input_index)
                                            run = []
                                        node.dispatch(item, input_index)
                                if run:
                                    dispatch_batch(run, input_index)
                            else:
                                dispatch = node.dispatch
                                for item in items:
                                    dispatch(item, input_index)
                        except Exception as error:
                            # Same containment as the scalar drain; on
                            # recovery the whole journaled block (tail
                            # included) was replayed, on quarantine or
                            # suspension the rest of the popped block
                            # waits in the journal / dies with the node.
                            if not self._contain(node, error):
                                break
                            if node.quarantined is not None:
                                break  # suspended: resumes after backoff
                        processed += len(items)
                        progress = True
                    if node.quarantined is not None:
                        break
                if profiler is not None:
                    profiler.add(node.name, perf_counter() - drain_began)
            if not progress and not self._heartbeat_wanted:
                break
        if self._pump_cycle_hist is not None and processed:
            self._pump_cycle_hist.observe(
                processed * self.cost_model.hfta_tuple_us)
        return processed

    # -- shard-worker checkpoint support (DESIGN section 15) -----------------
    def counters_state(self) -> Dict[str, Any]:
        """The RTS-level counters a shard worker's GSCK snapshot carries.

        Node state alone does not describe a worker engine: the stream
        clock and heartbeat threshold decide when future heartbeats
        fire, and the feed counters must survive a restore for the
        regenerated run to count like the uninterrupted one.
        """
        return {
            "stream_time": self._stream_time,
            "last_heartbeat": self._last_heartbeat,
            "packets_fed": self.packets_fed,
            "bytes_fed": self.bytes_fed,
            "batches_fed": self.batches_fed,
            "heartbeats_sent": self.heartbeats_sent,
        }

    def restore_counters(self, state: Dict[str, Any]) -> None:
        """Reset the RTS-level counters from :meth:`counters_state`."""
        self._stream_time = state["stream_time"]
        self._last_heartbeat = state["last_heartbeat"]
        self.packets_fed = state["packets_fed"]
        self.bytes_fed = state["bytes_fed"]
        self.batches_fed = state["batches_fed"]
        self.heartbeats_sent = state["heartbeats_sent"]

    # -- end of stream -------------------------------------------------------------------------
    def flush_all(self) -> None:
        """End every stream: flush packet consumers, propagate FLUSH, pump.

        A node that fails *while flushing* is quarantined like any
        other failure (its downstream still receives FLUSH), so one bad
        operator cannot abort teardown for the rest.  Flush events are
        not journaled, so the supervisor first forces every pending
        retry (a node must not end the run suspended), and flush-time
        crashes keep permanent quarantine semantics.
        """
        if self.supervisor is not None:
            self.supervisor.finalize()
        for node in list(self._all_consumers):
            if not node.flushed and node.quarantined is None:
                node.flushed = True
                try:
                    node.flush()
                except Exception as error:
                    self._quarantine(node, error)
                else:
                    node.emit_flush()
        if self.telemetry is not None:
            # Final sample + FLUSH on the _gs_* streams, so meta-query
            # subscribers terminate like any packet-stream subscriber.
            self.telemetry.on_stream_end(self._stream_time)
        self.pump()

    # -- introspection ----------------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-node statistics; per-channel overflow accounting (exactly
        the losses the overload control plane watches) nests under each
        producing node.  Built on the canonical obs-layer snapshot, the
        same source the metrics exposition and ``engine_report`` use."""
        return engine_snapshot(self)
