"""The stream manager: registry, subscriptions, and the scheduler.

"The central component of Gigascope is a stream manager which tracks
the query nodes that can be activated.  [...] When a user application
or query node needs to subscribe to the output of a query, it submits
the query name to the registry and receives a query handle in return."

Process model: LFTAs (and other packet consumers, e.g. the defrag
operator) are *linked into* the run-time system -- ``feed`` hands them
packet blocks directly with no queue in between, which is why the LFTA
set is fixed once the RTS starts ("all queries which generate LFTAs
must be submitted in a batch"; changing them requires a stop/restart).
HFTAs are separate query nodes connected by channels and driven by
:meth:`RuntimeSystem.pump`.

There is one tuple path (DESIGN section 10): packets move in blocks of
up to ``batch_size`` from ``feed`` through the LFTAs, and ``pump``
drains every channel a block at a time.  A single packet
(``feed_packet``) is a block of one.  What used to force a per-item
twin of each loop is a *cut point* instead: a block ends at a heartbeat
crossing, a pump boundary, a lineage-sampled packet or tagged tuple,
and the tuple an armed ``OperatorFault`` is about to fail on.

The manager is also the heartbeat source: it injects ordering-update
tokens periodically in stream time, and on demand when a blocked
operator asks (Section 3, "Unblocking Operators").
"""

from __future__ import annotations

import math
from itertools import islice
from time import perf_counter
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)

from repro.core.channels import Channel
from repro.core.heartbeat import FLUSH, FlushToken, Punctuation
from repro.core.query_node import QueryNode
from repro.gsql.schema import PacketView
from repro.net.columnar import Branch, block_kernel, describe_formats
from repro.net.packet import CapturedPacket
from repro.obs.collectors import engine_snapshot, install_engine_metrics
from repro.obs.ledger import install as install_ledger
from repro.obs.registry import MetricsRegistry

#: default number of packets per block
DEFAULT_BATCH_SIZE = 256

#: Every event the RTS fires, in the order a run meets them; an object
#: given to :meth:`RuntimeSystem.attach_plane` hooks the ones it has a
#: method for.
EVENTS = ("on_start", "on_packet", "journal_packets", "journal_heartbeat",
          "silences_heartbeat", "on_cycle", "on_pump_begin", "cut_for",
          "journal_items", "on_failure", "on_pump_end", "finalize",
          "on_stream_end")

#: Who hears an event first, by ledger name (``phase`` on a hook object
#: without one); anything else follows in attach order.  Declared, not
#: registration order: fault windows open before anyone samples, the
#: controller reads channel depths before telemetry and the epoch clock
#: push rows into those channels, and a checkpoint is folded before the
#: same boundary is shipped (DESIGN section 8.1).
PHASES = ("faults", "shed", "telemetry", "alerts", "recovery", "replication")


class _DispatchPlan(NamedTuple):
    """Consumers a block kernel does not cover, handed their run one
    consumer at a time (:meth:`RuntimeSystem._dispatch_run`)."""

    #: ``(node, accept_batch or None, wants_view)`` per consumer
    entries: tuple
    #: build one shared :class:`PacketView` per packet of a run: more
    #: than one such consumer sees the packet -- own plus ``"any"`` --
    #: and at least one wants it
    share_views: bool
    #: some consumer of ``entries`` wants views
    wants_view: bool


def _consumer_plan(nodes, also_seen=()) -> _DispatchPlan:
    """The dispatch plan of ``nodes``; ``also_seen`` see their packets
    too (the ``"any"`` consumers, for an interface's run)."""
    entries = tuple((node, getattr(node, "accept_batch", None),
                     getattr(node, "accepts_view", False)) for node in nodes)
    seen_by = [*nodes, *also_seen]
    share = len(seen_by) > 1 and any(
        getattr(node, "accepts_view", False) for node in seen_by)
    return _DispatchPlan(entries, share, any(entry[2] for entry in entries))


class _BlockPlan(NamedTuple):
    """One cached block kernel and what it leaves to others
    (:meth:`RuntimeSystem._block_plan`)."""

    #: ``kernel(packets) -> BlockTally`` (:func:`block_kernel`)
    kernel: Callable
    #: the per-block entry it runs through, ``entry(packets, kernel)``:
    #: the first member's protocol's ``columnar_decoder``; None when it
    #: covers no LFTA
    entry: Optional[Callable]
    #: the LFTAs it runs, in its member order
    members: tuple
    #: ``(interface, _DispatchPlan)`` per run it collects, in order
    runs: tuple
    #: the ``"any"`` consumers it does not cover (handed the block)
    any_plan: _DispatchPlan
    #: what it was generated from
    branches: tuple


class RegistryError(RuntimeError):
    """Raised for registration and subscription errors."""


def check_pump_every(pump_every) -> None:
    """Refuse a ``feed(pump_every=...)`` that is not a positive integer;
    every engine facade asks before it feeds or forks anything."""
    if (not isinstance(pump_every, int) or isinstance(pump_every, bool)
            or pump_every < 1):
        raise ValueError(
            f"pump_every must be a positive integer, got {pump_every!r}")


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
        #: packets per block (DESIGN section 10), >= 1
        self.batch_size = batch_size
        self.batches_fed = 0
        #: block plans by their members' forms (:meth:`_block_plan`)
        #: and the LFTAs a kernel can cover, rebuilt lazily after any
        #: change to the consumer set (:meth:`_replan`)
        self._batch_plans: Dict[Optional[tuple], _BlockPlan] = {}
        self._coverable: Optional[tuple] = None
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
        #: armed fault injectors, for the drop ledger (see repro.faults)
        self.faults: List = []
        #: node name -> error string, for every node quarantined so far
        self.quarantined: Dict[str, str] = {}
        self.nodes_quarantined = 0
        #: plane name -> plane, in the order :meth:`attach_plane` saw them
        self.planes: Dict[str, Any] = {}
        #: ``(phase rank, hook object)`` attached so far, in firing order
        self._attached: List[Tuple[int, Any]] = []
        #: event -> the bound methods to call, in firing order
        self._hooks: Dict[str, tuple] = dict.fromkeys(EVENTS, ())
        #: the sampled-lineage tracer, if enabled (see repro.obs.tracing)
        self.tracer = None
        #: the pump-drain timer a telemetry hub installs (``PumpProfiler``)
        self.profiler = None
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

    @property
    def last_heartbeat(self) -> float:
        """Stream time of the latest heartbeat (``-inf`` before the first)."""
        return self._last_heartbeat

    def attach_plane(self, plane) -> None:
        """Attach a control plane: the one way anything hooks the RTS.

        Each :data:`EVENTS` method ``plane`` has fires with the event,
        in :data:`PHASES` order.  A plane with a ``ledger`` is named: a
        second one of that name is refused, it is listed in ``planes``
        and its metric families are installed.  A hook object without
        one (a fault injector, a bare replication shipper) states its
        ``phase`` instead.  A plane calls this from its constructor
        before it registers nodes or cuts a checkpoint, so a refused
        plane leaves nothing behind.
        """
        ledger = getattr(plane, "ledger", None)
        if ledger is not None:
            if ledger.name in self.planes:
                raise RegistryError(f"{ledger.name} already enabled")
            self.planes[ledger.name] = plane
            if self.metrics is not None:
                install_ledger(self.metrics, ledger, plane)
        phase = ledger.name if ledger is not None else plane.phase
        rank = PHASES.index(phase) if phase in PHASES else len(PHASES)
        self._attached.append((rank, plane))
        self._attached.sort(key=lambda entry: entry[0])  # stable
        for event in EVENTS:
            self._hooks[event] = tuple(
                getattr(hooked, event) for _, hooked in self._attached
                if hasattr(hooked, event))

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
        self._replan()
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
        if node in self._all_consumers and self._started:
            raise RegistryError(
                "LFTAs are linked into the RTS; stop() before "
                "removing one"
            )
        if node.subscribers and not force:
            raise RegistryError(
                f"{name!r} still has {len(node.subscribers)} subscriber(s); "
                "remove the dependents first"
            )
        self._detach(node)
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
        """Arm a fault injector's runtime hooks (see :mod:`repro.faults`);
        the cached block plans go: an injector may wrap a node's
        ``accept_batch``, which takes the node out of the kernel."""
        self.faults.append(fault)
        self._replan()
        self.attach_plane(fault)

    def _replan(self) -> None:
        """Forget every cached block plan: the consumer set, or how a
        consumer takes its packets, changed (registration, removal,
        quarantine, suspension, an armed injector)."""
        self._batch_plans.clear()
        self._coverable = None

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
        self._detach(node)

    def _detach(self, node: QueryNode) -> None:
        """Take a node off the packet path and the HFTA schedule, stop
        its producers filling its input channels, and end its output
        streams: whoever still listens (dependents, application
        subscriptions) gets FLUSH, since it will never produce again."""
        self._replan()
        if node in self._hfta_order:
            self._hfta_order.remove(node)
        if node in self._all_consumers:
            for consumers in self._packet_consumers.values():
                if node in consumers:
                    consumers.remove(node)
            self._all_consumers.remove(node)
        for producer, channel in node.input_links:
            if channel in producer.subscribers:
                producer.subscribers.remove(channel)
        for channel in node.subscribers:
            channel.push(FLUSH)

    def _contain(self, node: QueryNode, error: Exception) -> bool:
        """Offer a failing node to whoever recovers nodes, else quarantine.

        True means the caller's loop may continue past the node: an
        ``on_failure`` hook (the recovery supervisor's) either
        recovered it in place (restored from the last checkpoint with
        its journal gap replayed) or suspended it for a backoff retry
        (its ``quarantined`` marker makes every scheduler skip it until
        it is resumed).  False is the permanent quarantine, with
        identical containment accounting.
        """
        for recover in self._hooks["on_failure"]:
            if recover(node, error):
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
        for hook in self._hooks["on_start"]:
            hook()

    def stop(self) -> None:
        """Stop so the LFTA set can change ("we can change the RTS in seconds")."""
        self._started = False

    # -- packet path ----------------------------------------------------------------
    @property
    def stream_time(self) -> float:
        return self._stream_time

    def _coverable_lftas(self) -> tuple:
        """The consumers a block kernel can run: every unquarantined
        LFTA with a kernel member (``LftaNode.kernel_member``), cached
        until the consumer set changes."""
        if self._coverable is None:
            self._coverable = tuple(
                node for node in self._all_consumers
                if node.quarantined is None
                and getattr(node, "kernel_member", None) is not None
                and node.kernel_member() is not None)
        return self._coverable

    def _block_plan(self, traced: bool = False) -> _BlockPlan:
        """The cached plan for the next block: its block kernel, and
        the runs it collects for everyone it does not cover.

        Which coverable LFTAs the kernel runs, and in which form, is
        read per block off each: a shedding one draws its gate in its
        own ``accept_batch`` and is handed its run; the others are
        members, in the lean form where the member -- for a decode
        group, every member -- ``prefers_lean``.  A traced block (a
        lineage-sampled packet, fed alone) covers nobody, so every
        consumer is named in the trace as it takes the packet.  Plans
        are cached by that reading; :meth:`_replan` drops them.
        """
        coverable = self._coverable_lftas()
        key = None if traced else tuple([
            2 if node.shed_rate < 1.0 else node.prefers_lean
            for node in coverable])
        plan = self._batch_plans.get(key)
        if plan is None:
            plan = self._batch_plans[key] = self._new_block_plan(
                coverable, key)
        return plan

    def _new_block_plan(self, coverable: tuple,
                        key: Optional[tuple]) -> _BlockPlan:
        """Generate the block kernel for ``key``'s reading of
        ``coverable`` (per LFTA: 2 shedding, else whether it prefers the
        lean form; None: cover nobody).  Per interface -- ``"any"``
        first, then in registration order -- the members form one
        section per protocol, and the interface's other consumers get a
        run; ``"any"``'s others get the whole block."""
        form = dict(zip(coverable, key or ()))
        live = {interface: [node for node in nodes if node.quarantined is None]
                for interface, nodes in self._packet_consumers.items()}
        spare_any = [node for node in live.get("any", ())
                     if form.get(node, 2) == 2]
        members: List[QueryNode] = []
        branches = []
        runs = []
        for interface in sorted(live, key=lambda name: name != "any"):
            families: Dict[Any, List[QueryNode]] = {}
            rest = []
            for node in live[interface]:
                if form.get(node, 2) == 2:
                    rest.append(node)
                else:
                    families.setdefault(node.protocol, []).append(node)
            sections = tuple(
                protocol.kernel_section(
                    [node.kernel_member() for node in group],
                    lean=all(form[node] == 1 for node in group))
                for protocol, group in families.items())
            for group in families.values():
                members += group
            collect = interface != "any" and bool(rest)
            if sections or collect:
                branches.append(Branch(None if interface == "any"
                                       else interface, sections, collect))
            if collect:
                runs.append((interface, _consumer_plan(rest, spare_any)))
        branches = tuple(branches)
        for known in self._batch_plans.values():
            if known.branches == branches:
                # a reading that changes no section (a lone flag in a
                # group that stays full) runs the same kernel
                return known
        kernel, source = block_kernel(branches)
        for node in members:
            node.record_source(source)
        entry = members[0].protocol.columnar_decoder if members else None
        return _BlockPlan(kernel, entry, tuple(members), tuple(runs),
                          _consumer_plan(spare_any), branches)

    def describe_decode_group(self, name: str) -> Optional[str]:
        """For EXPLAIN: the decode group the LFTA ``name`` is a member
        of while none of them sheds -- the kernel runs LFTAs of one
        protocol on one interface behind one guard, each distinct
        prefix tested once -- or None when it has its section to
        itself."""
        node = self._nodes.get(name)
        interface = getattr(node, "interface", None)
        coverable = self._coverable_lftas()
        if interface is None or node not in coverable:
            return None
        members = [other for other in self._packet_consumers[interface]
                   if other in coverable and other.protocol is node.protocol]
        if len(members) < 2:
            return None
        union = set().union(*(member.decode_fields for member in members))
        prefilters = [member.prefilter for member in members]
        decoder = node.protocol.block_decoder(union, prefilters)
        names = ",".join(member.name for member in members)
        tests = "; ".join(decoder.prefilters) or "none"
        text = (f"decode group [{names}] struct={decoder.struct_size}B "
                f"prefilters=[{tests}]")
        lean = node.protocol.block_decoder(union, prefilters, lean=True)
        if lean is not None:
            text += f" lean=[{describe_formats(lean.lean_formats)}]"
        return text + " kernel=[guard, prefixes, member actions]"

    def _admit(self, packet: CapturedPacket) -> Optional[CapturedPacket]:
        """Run the per-packet hooks (an armed injector's clock skew or
        ring loss) while a block is being built; None means dropped
        before it reached the host path -- the injector's ledger has
        the count too."""
        for hook in self._hooks["on_packet"]:
            packet = hook(packet)
            if packet is None:
                self.fault_dropped += 1
                return None
        return packet

    def feed_packet(self, packet: CapturedPacket) -> None:
        """Hand one captured packet to every consumer on its interface:
        a block of one, with no pump."""
        if not self._started:
            raise RegistryError("RTS not started; call start() first")
        packet = self._admit(packet)
        if packet is None:
            return
        self._feed_batch([packet], packet.timestamp)
        interval = self.heartbeat_interval
        if (interval is not None
                and self._stream_time >= self._last_heartbeat + interval):
            self._send_heartbeats(self._stream_time)

    def _feed_batch(self, packets: List[CapturedPacket],
                    newest: float) -> None:
        """Dispatch one block of packets to the consumers linked in.

        ``newest`` is the block's latest timestamp, which the caller has
        from the pass it cuts blocks with.  One generated loop, the
        current plan's block kernel (:meth:`_block_plan`), then takes
        every packet once: it counts the block's captured bytes and runs
        every LFTA it covers, and it collects a run per interface for
        the consumers it does not cover, which are handed theirs after
        it -- ``"any"``'s get the block itself.  A member that raised in
        the kernel is contained once its siblings finished the block.

        The caller cuts blocks at heartbeat crossings and pump
        boundaries and hands a lineage-sampled packet over alone, so
        per-node packet order, RNG draw order and counter arithmetic do
        not depend on the block size.
        """
        if newest > self._stream_time:
            self._stream_time = newest
        self.packets_fed += len(packets)
        self.batches_fed += 1
        # Journal-before-dispatch: the journal must cover the very
        # packet a consumer crashes on (DESIGN section 11).
        for hook in self._hooks["journal_packets"]:
            hook(packets)
        tracer = self.tracer
        trace = None
        if tracer is not None and len(packets) == 1:
            trace = tracer.wants(packets[0])
            if trace is not None and not tracer.begin(
                    trace, packets[0], "feed", packets[0].timestamp):
                trace = None
        plan = self._block_plan(trace is not None)
        try:
            tally = (plan.kernel(packets) if plan.entry is None
                     else plan.entry(packets, plan.kernel))
        except Exception as error:
            # Every member runs under its own try inside the kernel, so
            # this is the entry's error, and every member's: each is
            # contained and skipped for the block (a recovered one has
            # replayed it from the journal).  The runs still go out.
            for node in plan.members:
                if node.quarantined is None:
                    self._contain(node, error)
            tally = block_kernel([branch._replace(sections=())
                                  for branch in plan.branches])[0](packets)
        self.bytes_fed += tally.nbytes
        for position, error in tally.failed:
            self._contain(plan.members[position], error)
        # Several consumers share one header parse per packet -- the
        # zero-extra-transfer property of linking them into the RTS.
        # An "any" consumer sees every packet, so its views cover the
        # whole block and the per-interface runs take theirs from it.
        any_plan = plan.any_plan
        full_views: Optional[List[PacketView]] = (
            list(map(PacketView, packets)) if any_plan.wants_view else None)
        for (interface, run_plan), run in zip(plan.runs, tally.runs):
            if not run:
                continue
            if len(run) == len(packets):
                run = packets  # a block from one interface is its run
            views = None
            if run_plan.share_views:
                if full_views is None:
                    views = list(map(PacketView, run))
                elif run is packets:
                    views = full_views
                else:
                    views = [view for view in full_views
                             if view.packet.interface == interface]
            self._dispatch_run(run_plan, run, views, trace)
        if any_plan.entries:
            self._dispatch_run(any_plan, packets, full_views, trace)

    def _dispatch_run(self, plan: _DispatchPlan, packets, views,
                      trace=None) -> None:
        """One ordered packet run to consumers the kernel does not cover.

        An LFTA takes it through ``accept_batch``; consumers without
        one (user-written packet operators: defrag, sessionize, TCP
        reassembly) take it one ``accept_packet`` at a time.  ``trace``
        is the lineage trace of a sampled packet fed alone.
        """
        tracer = self.tracer
        for node, accept_batch, wants_view in plan.entries:
            if node.quarantined is not None:
                continue
            if trace is not None:
                tracer.event(trace, "lfta", node.name, packets[0].timestamp)
                tracer.current = trace
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
        if trace is not None:
            tracer.current = None

    def feed(self, packets: Iterable[CapturedPacket], pump_every: int = 256) -> None:
        """Feed a packet iterable in blocks, pumping HFTAs periodically.

        A block ends at ``batch_size`` packets and at every cut point:
        a heartbeat crossing, a pump boundary, and a lineage-sampled
        packet (which travels alone so its trace can be tagged) -- so
        heartbeats and pump cycles (and therefore controller and fault
        windows) fire after exactly the same packet whatever the block
        size.  Armed injectors see every packet as the block is built.

        The loop runs per *chunk*, not per packet: up to a block's
        worth of packets is pulled at once (never across a pump
        boundary), timestamps are taken in one single-attribute pass,
        and the cut points are found as indices inside the chunk.  That
        pass is a comprehension, not ``map(attrgetter(...))``: CPython
        3.11 specialises the attribute read inside one and runs it in
        under half the time.  The captured bytes are the block
        kernel's to count, as it reads each packet anyway.  Only an
        ``on_packet`` hook or an attached tracer adds a call per
        packet.  ``pump_every`` must be a positive integer.
        """
        check_pump_every(pump_every)
        if not self._started:
            raise RegistryError("RTS not started; call start() first")
        hooks = self._hooks
        tracer = self.tracer
        interval = self.heartbeat_interval
        batch_size = self.batch_size
        source = iter(packets)
        #: admitted packets not yet dispatched (fewer than batch_size),
        #: their timestamps, and the newest among pending[:scanned]
        pending: List[CapturedPacket] = []
        stamps: List[float] = []
        newest = -math.inf
        count = 0
        threshold = (self._last_heartbeat + interval
                     if interval is not None else math.inf)

        def dispatch(lo: int, hi: int, latest: float) -> None:
            self._feed_batch(
                pending if hi - lo == len(pending) else pending[lo:hi],
                latest)

        while True:
            pulled = list(islice(source, min(
                batch_size - len(pending), pump_every - count % pump_every)))
            if not pulled:
                break
            count += len(pulled)
            if hooks["on_packet"]:
                pulled = [packet for packet in map(self._admit, pulled)
                          if packet is not None]
            scanned = len(pending)
            if scanned:
                pending += pulled
                stamps += [packet.timestamp for packet in pulled]
            else:
                pending = pulled
                stamps = [packet.timestamp for packet in pulled]
            # Forced block ends inside the new part: a sampled packet
            # is cut off from what precedes and what follows it.
            ends = []
            if tracer is not None:
                for i in range(scanned, len(pending)):
                    if tracer.wants(pending[i]) is not None:
                        ends += (i, i + 1)
            forced = len(ends)
            ends.append(len(pending))
            lo = 0
            for position, end in enumerate(ends):
                # Heartbeat crossings in pending[scanned:end]: a block
                # ends with the first packet that takes the stream
                # clock (everything fed and pending before it is
                # older than the threshold) up to the threshold.
                while scanned < end:
                    top = max(stamps[scanned:end])
                    if self._stream_time >= threshold:
                        cut = scanned
                    elif top >= threshold:
                        cut = next(i for i in range(scanned, end)
                                   if stamps[i] >= threshold)
                    else:
                        newest = max(newest, top)
                        break
                    dispatch(lo, cut + 1, stamps[cut])
                    self._send_heartbeats(self._stream_time)
                    threshold = self._last_heartbeat + interval
                    lo = scanned = cut + 1
                    newest = -math.inf
                scanned = end
                if position < forced and lo < end:
                    dispatch(lo, end, newest)
                    lo = end
                    newest = -math.inf
            if lo:
                pending = pending[lo:]
                stamps = stamps[lo:]
            boundary = count % pump_every == 0
            if pending and (boundary or len(pending) >= batch_size):
                dispatch(0, len(pending), newest)
                pending = []
                newest = -math.inf
            if boundary:
                self.pump()
                if interval is not None:
                    # An on-demand heartbeat served by the pump moves
                    # the next periodic one.
                    threshold = self._last_heartbeat + interval
        if pending:
            dispatch(0, len(pending), newest)
        self.pump()

    def advance_time(self, stream_time: float) -> None:
        """Declare stream time without a packet (quiet period)."""
        if stream_time > self._stream_time:
            self._stream_time = stream_time
        self._send_heartbeats(self._stream_time)
        self.pump()

    # -- heartbeats --------------------------------------------------------------------
    def _send_heartbeats(self, stream_time: float) -> None:
        hooks = self._hooks
        for silences in hooks["silences_heartbeat"]:
            if silences(stream_time):
                # The token is withheld but _last_heartbeat is not
                # advanced, so the first beat after the silence window
                # catches blocked operators up immediately.
                self.heartbeats_suppressed += 1
                return
        self._last_heartbeat = stream_time
        self.heartbeats_sent += 1
        for hook in hooks["journal_heartbeat"]:
            hook(stream_time)
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
        # Before the drain, while channel depths still show the backlog
        # this cycle built up; what a hook pushes (telemetry rows, epoch
        # ticks) travels through (journaled) channels and is delivered
        # below this same cycle, which is what makes it replayable.
        hooks = self._hooks
        for hook in hooks["on_cycle"]:
            hook(self._stream_time)
        for hook in hooks["on_pump_begin"]:
            hook(self._stream_time)
        journal_items, cut_for = hooks["journal_items"], hooks["cut_for"]
        tracer = self.tracer
        # The sampling wall-clock profiler brackets each operator's
        # share of the drain; it decides per cycle whether to time.
        profiler = self.profiler
        if profiler is not None and not profiler.begin_cycle():
            profiler = None
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
                        # A block the channel knows holds no control
                        # token is one run of data tuples; with a tracer
                        # attached any of them may be a tagged item.
                        whole = tracer is None and not channel.control_queued
                        # A block never extends past the tuple an
                        # armed ``OperatorFault`` is about to fail on.
                        cuts = [hook(node) for hook in cut_for]
                        items = channel.pop_many(min(
                            filter(None, cuts), default=None))
                        for hook in journal_items:
                            hook(node, items, input_index)
                        progress = True
                        try:
                            if whole:
                                node.dispatch_batch(items, input_index)
                            else:
                                self._deliver(node, items, input_index)
                        except Exception as error:
                            # A failing node is contained -- recovered by
                            # the supervisor (the whole journaled block,
                            # tail included, was replayed), or suspended
                            # or quarantined (counted, detached,
                            # downstream flushed; the rest of the popped
                            # block waits in the journal / dies with the
                            # node) -- instead of unwinding pump() and
                            # starving its siblings.
                            contained = self._contain(node, error)
                            if tracer is not None:
                                tracer.current = None
                            if not contained or node.quarantined is not None:
                                # Everything popped but the item that raised.
                                processed += len(items) - 1
                                break
                        processed += len(items)
                    if node.quarantined is not None:
                        break
                if profiler is not None:
                    # Closed even when the node was quarantined or
                    # suspended mid-drain: cost up to the failure is
                    # still attributed, never dangling.
                    profiler.add(node.name, perf_counter() - drain_began)
            if not progress and not self._heartbeat_wanted:
                break
        if self._pump_cycle_hist is not None and processed:
            self._pump_cycle_hist.observe(
                processed * self.cost_model.hfta_tuple_us)
        # The pump boundary is the crash-consistent cut point: every
        # channel is quiescent here, so operator state alone describes
        # the computation (checkpoints, then replication frames).
        for hook in hooks["on_pump_end"]:
            hook(self._stream_time)
        return processed

    def _deliver(self, node: QueryNode, items: List[Any],
                 input_index: int) -> None:
        """One popped block to one node, cut where it has to be.

        Per-channel FIFO order is preserved exactly: runs of data
        tuples go to ``dispatch_batch``, control tokens are dispatched
        singly at their original positions, and an item the lineage
        tracer knows travels as a run of one with ``tracer.current``
        set, so what the node emits while handling it joins the trace.
        """
        tracer = self.tracer
        dispatch_batch = node.dispatch_batch
        run: List[tuple] = []
        for item in items:
            trace = tracer.lookup(item) if tracer is not None else None
            if trace is None and type(item) is tuple:
                run.append(item)
                continue
            if run:
                dispatch_batch(run, input_index)
                run = []
            if trace is not None:
                # A node with no output channels is a terminal
                # consumer: a sink.
                tracer.event(trace, "hfta" if node.subscribers else "sink",
                             node.name, self._stream_time)
                tracer.current = trace
            node.dispatch(item, input_index)
            if trace is not None:
                tracer.current = None
        if run:
            dispatch_batch(run, input_index)

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
        not journaled, so ``finalize`` hooks first force every pending
        retry (a node must not end the run suspended), and flush-time
        crashes keep permanent quarantine semantics.
        """
        hooks = self._hooks
        for hook in hooks["finalize"]:
            hook()
        for node in list(self._all_consumers):
            if not node.flushed and node.quarantined is None:
                node.flushed = True
                try:
                    node.flush()
                except Exception as error:
                    self._quarantine(node, error)
                else:
                    node.emit_flush()
        # Final sample + FLUSH on streams no packet consumer feeds (the
        # _gs_* ones), so their subscribers terminate like any other.
        for hook in hooks["on_stream_end"]:
            hook(self._stream_time)
        self.pump()

    # -- introspection ----------------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-node statistics; per-channel overflow accounting (exactly
        the losses the overload control plane watches) nests under each
        producing node.  Built on the canonical obs-layer snapshot, the
        same source the metrics exposition and ``engine_report`` use."""
        return engine_snapshot(self)
