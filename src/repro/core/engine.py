"""The :class:`Gigascope` facade: the public API of the reproduction.

Typical use::

    from repro import Gigascope

    gs = Gigascope()
    gs.add_query('''
        DEFINE query_name tcpdest0;
        Select destIP, destPort, time
        From eth0.tcp
        Where ipversion = 4 and protocol = 6
    ''')
    sub = gs.subscribe("tcpdest0")
    gs.start()
    gs.feed(packets)           # CapturedPacket iterable (pcap, generator, NIC sim)
    gs.flush()
    rows = sub.poll()

Queries whose plan contains an LFTA must be added before :meth:`start`
(the LFTA batch restriction of Section 3); HFTA-only queries -- those
reading other queries' streams -- can be added at any time.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional

from repro.core.params import QueryInstance
from repro.core.query_node import QueryNode
from repro.core.stream_manager import (
    DEFAULT_BATCH_SIZE,
    RegistryError,
    RuntimeSystem,
    Subscription,
)
from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import FunctionRegistry, FunctionSpec, builtin_functions
from repro.gsql.parser import parse_queries, parse_query
from repro.gsql.planner import QueryPlan, plan_query
from repro.gsql.schema import (
    ProtocolSchema,
    SchemaRegistry,
    StreamSchema,
    builtin_registry,
    parse_ddl,
)
from repro.gsql.semantic import analyze
from repro.net.packet import CapturedPacket
from repro.obs.ledger import view
from repro.operators.aggregation import AggregationNode
from repro.operators.join import JoinNode
from repro.operators.lfta import LftaNode
from repro.operators.merge import MergeNode
from repro.operators.selection import SelectionNode
from repro.options import SWITCHES, check


def _refusal(text: str):
    def refuse(self, *args, **kwargs):
        raise RegistryError(text)
    return refuse


def refuses(reasons: Dict[str, str]):
    """Class decorator: an engine facade declares, once and next to its
    class, the planes it cannot run and why (kept as ``cls.refusals``).

    The facade's switch for each raises :class:`RegistryError` with the
    reason, and ``gsq`` makes the same entry a usage error before it
    builds the engine.  (A plane that refuses others declares its own
    ``refusals``, which ``attach_plane`` checks.)
    """
    def declare(cls):
        cls.refusals = reasons
        for plane, reason in reasons.items():
            setattr(cls, SWITCHES[plane][0], _refusal(
                f"{cls.__name__} refuses {plane}: {reason}"))
        return cls
    return declare


class Gigascope:
    """A complete Gigascope instance: schemas, functions, queries, RTS."""

    #: planes this facade refuses (see :func:`refuses`): none
    refusals: Dict[str, str] = {}

    def __init__(
        self,
        heartbeat_interval: Optional[float] = 1.0,
        on_demand_heartbeats: bool = True,
        default_interface: str = "eth0",
        lfta_table_size: int = 4096,
        merge_buffer_capacity: Optional[int] = None,
        channel_capacity: Optional[int] = None,
        schema_registry: Optional[SchemaRegistry] = None,
        functions: Optional[FunctionRegistry] = None,
        metrics: bool = True,
        seed: int = 0,
        batch_size: Optional[int] = None,
    ) -> None:
        check("Gigascope", heartbeat_interval=heartbeat_interval,
              lfta_table_size=lfta_table_size,
              merge_buffer_capacity=merge_buffer_capacity,
              channel_capacity=channel_capacity, seed=seed,
              batch_size=batch_size)
        #: root of the seeded RNG registry (repro.stable): every
        #: data-path consumer of randomness (DEFINE-sample gates, shed
        #: gates) derives its own named stream from this, so a run
        #: replays exactly for a given (queries, packets, seed) triple
        self.seed = seed
        self.default_interface = default_interface
        self.lfta_table_size = lfta_table_size
        self.merge_buffer_capacity = merge_buffer_capacity
        #: bound on inter-node channels; overflow drops tuples (and is
        #: what the overload control plane watches and reacts to)
        self.channel_capacity = channel_capacity
        self.schema_registry = schema_registry or builtin_registry()
        self.functions = functions or builtin_functions()
        self.rts = RuntimeSystem(heartbeat_interval=heartbeat_interval,
                                 on_demand_heartbeats=on_demand_heartbeats,
                                 metrics=metrics,
                                 batch_size=batch_size or DEFAULT_BATCH_SIZE)
        self._streams: Dict[str, StreamSchema] = {}
        self._instances: Dict[str, QueryInstance] = {}
        self._observed_nics: List = []
        self._anonymous = itertools.count()

    # -- schema & function extension points ---------------------------------
    def add_protocol(self, schema: ProtocolSchema) -> None:
        """Register a new Protocol (packet interpretation schema)."""
        self.schema_registry.add(schema)

    def define_protocols(self, ddl_text: str) -> List[str]:
        """Run DDL text; returns the names of the protocols defined."""
        schemas = parse_ddl(ddl_text)
        for schema in schemas:
            self.schema_registry.add(schema)
        return [schema.name for schema in schemas]

    def register_function(self, spec: FunctionSpec) -> None:
        """Add a user function to the function registry."""
        self.functions.register(spec)

    # -- queries --------------------------------------------------------------
    def add_query(self, text: str, params: Optional[Dict[str, Any]] = None,
                  name: Optional[str] = None) -> str:
        """Compile, plan, and instantiate one GSQL query; returns its name."""
        ast = parse_query(text)
        return self._instantiate(ast, params, name)

    def add_queries(self, text: str,
                    params: Optional[Dict[str, Dict[str, Any]]] = None
                    ) -> List[str]:
        """Add a ``;``-separated batch of queries, in order.

        ``params`` maps query names to their parameter dicts.
        """
        names = []
        for ast in parse_queries(text):
            query_params = (params or {}).get(ast.defines.get("query_name"))
            names.append(self._instantiate(ast, query_params, None))
        return names

    def _instantiate(self, ast, params, name) -> str:
        self._lift_subqueries(ast, params, name)
        analyzed = analyze(
            ast,
            self.schema_registry,
            self.functions,
            stream_resolver=self._streams.get,
            default_interface=self.default_interface,
        )
        query_name = name or analyzed.name or f"q{next(self._anonymous)}"
        if query_name in self._instances:
            raise RegistryError(f"query {query_name!r} already exists")
        plan = plan_query(analyzed, self.functions, query_name)
        instance = QueryInstance(
            name=query_name, plan=plan, analyzed=analyzed,
            compiler=ExprCompiler(analyzed, self.functions, params))
        instance.nodes = self._link_nodes(instance, self.rts)
        replication = self.rts.planes.get("replication")
        if replication is not None:
            replication.copy(instance)
        self._instances[query_name] = instance
        self.rts.checkpoint()
        return query_name

    def _link_nodes(self, instance: QueryInstance,
                    rts: RuntimeSystem) -> List[QueryNode]:
        """Build ``instance``'s nodes -- its LFTAs, then its HFTA --
        from its plan and compiler, registered and wired in ``rts``."""
        plan, analyzed, compiler = (instance.plan, instance.analyzed,
                                    instance.compiler)
        nodes: List[QueryNode] = []
        for lfta_plan in plan.lftas:
            lfta = LftaNode(lfta_plan, analyzed, compiler,
                            table_size=self.lfta_table_size, seed=self.seed)
            rts.register_node(lfta, packet_interface=lfta_plan.interface)
            self._streams[lfta.name] = lfta_plan.output_schema
            nodes.append(lfta)

        if plan.hfta is not None:
            hfta_plan = plan.hfta
            if hfta_plan.kind == "selection":
                node: QueryNode = SelectionNode(hfta_plan, analyzed, compiler,
                                                seed=self.seed)
            elif hfta_plan.kind == "aggregation":
                node = AggregationNode(hfta_plan, analyzed, compiler,
                                       seed=self.seed)
            elif hfta_plan.kind == "join":
                node = JoinNode(hfta_plan, analyzed, compiler)
            elif hfta_plan.kind == "merge":
                node = MergeNode(hfta_plan, analyzed,
                                 buffer_capacity=self.merge_buffer_capacity)
            else:
                raise RegistryError(f"unknown HFTA kind {hfta_plan.kind!r}")
            rts.register_node(node)
            rts.connect(node, hfta_plan.inputs,
                        capacity=self.channel_capacity)
            self._streams[instance.name] = plan.output_schema
            nodes.append(node)
        return nodes

    def _lift_subqueries(self, ast, params, name) -> None:
        """Rewrite FROM-clause subqueries into named queries.

        "GSQL currently supports nested subqueries through this
        [composition] mechanism only, but supporting subqueries in the
        FROM clause requires only an update of the parser" -- here is
        that update: each ``(SELECT ...) alias`` is instantiated as its
        own query, and the outer query reads its stream.
        """
        from repro.gsql.ast_nodes import TableRef
        outer = name or ast.defines.get("query_name") or f"q{next(self._anonymous)}"
        if name is None and "query_name" not in ast.defines:
            ast.defines["query_name"] = outer
        for position, ref in enumerate(ast.sources):
            if ref.subquery is None:
                continue
            sub_ast = ref.subquery
            sub_name = sub_ast.defines.get("query_name") or f"_sub_{outer}_{position}"
            sub_ast.defines["query_name"] = sub_name
            actual = self._instantiate(sub_ast, params, sub_name)
            ast.sources[position] = TableRef(name=actual,
                                             alias=ref.alias or ref.name)

    def add_node(self, node: QueryNode,
                 interface: Optional[str] = None) -> str:
        """Register a user-written query node (packet consumer if bound)."""
        if "replication" in self.rts.planes:
            raise RegistryError(f"replication cannot copy the user-written "
                                f"node {node.name!r} onto its standby")
        self.rts.register_node(node, packet_interface=interface)
        self._streams[node.name] = node.output_schema
        self.rts.checkpoint()
        return node.name

    def remove_query(self, name: str) -> None:
        """Tear down a query and its nodes.

        Other queries reading this one's streams block removal; LFTA-
        bearing queries require a stopped RTS (the batch restriction).
        Application subscriptions to the removed streams simply stop
        receiving.
        """
        instance = self._instance(name)
        produced = {node.name for node in instance.nodes}
        for other_name, other in self._instances.items():
            if other_name == name or other.plan.hfta is None:
                continue
            used = produced.intersection(other.plan.hfta.inputs)
            if used:
                raise RegistryError(
                    f"query {other_name!r} reads {sorted(used)}; "
                    "remove it first"
                )
        replication = self.rts.planes.get("replication")
        runtimes = [self.rts] if replication is None else replication.runtimes
        # HFTA before its LFTAs, so no node ever has a dangling reader.
        for node in reversed(instance.nodes):
            for rts in runtimes:
                rts.remove_node(node.name, force=True)
            self._streams.pop(node.name, None)
        self._streams.pop(name, None)
        del self._instances[name]
        self.rts.checkpoint()

    # -- overload control (repro.control) -----------------------------------------
    def enable_shedding(self, policy: Any = "adaptive", cost_model=None,
                        nics: Iterable = ()) -> "OverloadController":
        """Switch on the overload control plane.

        ``policy`` is a :class:`~repro.control.shedding.SheddingPolicy`
        or a spec string (``"none"``, ``"static:RATE"``, ``"adaptive"``).
        The controller samples pressure every pump cycle and installs a
        packet-sampling gate on the LFTAs; additive aggregates are scaled
        by 1/rate so COUNT/SUM stay statistically correct.  Pass
        simulated NICs via ``nics`` to include card-side ring drops in
        the pressure signal.
        """
        from repro.control.controller import OverloadController
        controller = OverloadController(self.rts, policy=policy,
                                        cost_model=cost_model)
        for nic in nics:
            controller.watch_nic(nic)
        return controller

    def overload_report(self) -> Dict[str, Any]:
        """End-to-end drop accounting: shed, overflowed, and lost where.

        With shedding enabled this is the controller's full ledger
        (policy state, shed fractions, channel watermarks, utilization);
        without it, a raw snapshot of what overflowed, uncorrected.
        """
        from repro.control.controller import overload_snapshot
        return self._plane_report("shed") or overload_snapshot(self.rts)

    # -- durability (repro.recovery.supervisor) ----------------------------
    def _durability(self) -> "RecoverySupervisor":
        """The one durability plane both switches configure."""
        planes = self.rts.planes
        plane = planes.get("recovery") or planes.get("replication")
        if plane is None:
            from repro.recovery.supervisor import RecoverySupervisor
            plane = RecoverySupervisor(self)
        return plane

    def enable_recovery(self, checkpoint_interval: float = 1.0,
                        max_restarts: int = 3, backoff_base: float = 0.25,
                        backoff_factor: float = 2.0) -> "RecoverySupervisor":
        """Switch on checkpoint/restore and supervised node recovery.

        The durability plane cuts a crash-consistent snapshot of every
        operator's state each ``checkpoint_interval`` seconds of
        virtual time (at pump boundaries, where channels are
        quiescent), journals the RTS's inputs between checkpoints, and
        upgrades permanent quarantine into bounded-retry restart: roll
        the whole RTS back to the last checkpoint, re-feed the journal,
        skip re-delivering rows the application has.  After
        ``max_restarts`` failed attempts (retried with exponential
        backoff in virtual time) the node degrades to the permanent
        quarantine of :meth:`overload_report`'s containment ledger.
        """
        return self._durability().recover(checkpoint_interval, max_restarts,
                                          backoff_base, backoff_factor)

    def recovery_report(self) -> Optional[Dict[str, Any]]:
        """The supervisor's ledger (checkpoints, restarts, replay),
        or None when recovery is not enabled."""
        return self._plane_report("recovery")

    # -- alerting (repro.alerts) ---------------------------------------------
    def enable_alerts(self, triggers: Iterable[Any] = (),
                      bus_name: str = "alerts") -> "AlertEngine":
        """Switch on the alert evaluation plane (DESIGN section 12).

        ``triggers`` mixes :class:`~repro.alerts.spec.TriggerSpec`
        instances and spec strings
        (``"synflood:on=syn_watch,key=destIP,when=sum(syns) > 1000"``;
        see :func:`repro.alerts.parse_alert_spec`).  Each trigger
        watches one query's output stream and fires typed RAISE/CLEAR
        alerts, unioned onto the ``bus_name`` stream -- subscribe to it
        or attach a sink like any other query output.  More triggers
        can be added later via the returned engine's ``add_trigger``,
        as long as the watched queries exist.
        """
        from repro.alerts.engine import AlertEngine
        alert_engine = AlertEngine(self, bus_name=bus_name)
        for trigger in triggers:
            alert_engine.add_trigger(trigger)
        return alert_engine

    def alert_report(self) -> Optional[Dict[str, Any]]:
        """The alert plane's ledger (triggers, raised/cleared/suppressed
        counts), or None when alerting is not enabled."""
        return self._plane_report("alerts")

    # -- self-telemetry (repro.obs.telemetry) --------------------------------
    def enable_telemetry(self, interval: float = 1.0,
                         streams: Optional[Iterable[str]] = None,
                         profile_every: int = 1) -> "TelemetryHub":
        """Publish engine internals as first-class ``_gs_*`` GSQL streams.

        Registers the typed telemetry streams (``_gs_channel``,
        ``_gs_operator``, ``_gs_shed``, ``_gs_recovery``, ``_gs_alert``,
        or the subset named in ``streams``) in the schema, so GSQL
        queries and alert triggers subscribe to them exactly like packet
        streams.  Samples are cut at pump boundaries every ``interval``
        seconds of virtual time and carry only deterministic values, so
        they replay byte-identically (``replay verify --scenario
        telemetry_meta``).
        ``profile_every`` sets the sampling pump profiler's period (1 =
        profile every cycle).  Enable *before* adding queries that read
        the ``_gs_*`` streams.
        """
        from repro.obs.telemetry import TelemetryHub
        return TelemetryHub(self, interval=interval, streams=streams,
                            profile_every=profile_every)

    def telemetry_report(self) -> Optional[Dict[str, Any]]:
        """The telemetry hub's ledger (samples, per-stream row counts,
        profiler attribution), or None when telemetry is not enabled."""
        return self._plane_report("telemetry")

    def enable_replication(self, cadence: float = 1.0,
                           promote_after: Optional[float] = None,
                           crash: Optional[str] = None,
                           log_path: Optional[str] = None
                           ) -> "RecoverySupervisor":
        """Keep a warm standby runtime of this engine's queries, sent
        a state-log frame every ``cadence`` virtual seconds (or the
        recovery interval, if tighter), and promote it on an injected
        ``crash`` or ``promote_after`` seconds of heartbeat silence
        (DESIGN section 16).  ``log_path`` also gets the frames.
        Enable before the first packet, and on an engine without a
        user-written node (``add_node``): the standby could not copy
        it."""
        return self._durability().replicate(cadence, promote_after, crash,
                                            log_path)

    def replication_report(self) -> Optional[Dict[str, Any]]:
        """The durability plane's standby ledger (frames, promotion,
        recovery point), or None when replication is not enabled."""
        return self._plane_report("replication")

    # -- fault injection (repro.faults) --------------------------------------
    def inject_faults(self, faults: Iterable[Any],
                      nics: Iterable = ()) -> List[Any]:
        """Arm fault injectors on the running system.

        ``faults`` mixes :class:`~repro.faults.injectors.FaultInjector`
        instances and spec strings (``"ring_burst:at=0.5,duration=0.2"``;
        see :func:`repro.faults.parse_fault_spec`).  ``nics`` are the
        simulated cards a ring-loss burst should blind; every injector
        keeps a ledger, collected by :meth:`fault_report`.  Arm operator
        faults after the target query has been added.
        """
        from repro.faults import parse_fault_spec
        armed = []
        nics = list(nics)
        for fault in faults:
            if isinstance(fault, str):
                fault = parse_fault_spec(fault, seed=self.seed)
            fault.arm(self.rts, nics=nics)
            armed.append(fault)
        return armed

    def fault_report(self) -> List[Dict[str, Any]]:
        """Every armed injector's ledger (drops, triggers, windows)."""
        return [fault.report() for fault in self.rts.faults]

    # -- observability (repro.obs) ------------------------------------------------
    @property
    def planes(self) -> Dict[str, Any]:
        """The enabled control planes by name, in the order they were
        enabled (each carries its ``ledger`` and a ``report()``)."""
        return self.rts.planes

    def _plane_report(self, name: str) -> Optional[Dict[str, Any]]:
        plane = self.rts.planes.get(name)
        return view(name, plane)[1]() if plane is not None else None

    @property
    def metrics(self):
        """The engine's :class:`~repro.obs.registry.MetricsRegistry`
        (None when constructed with ``metrics=False``).  Exposition:
        ``gs.metrics.to_prometheus()`` / ``gs.metrics.to_json()``."""
        return self.rts.metrics

    def enable_tracing(self, sample_rate: float, max_traces: int = 1024):
        """Switch on sampled tuple-lineage tracing.

        A content-deterministic gate stamps roughly ``sample_rate`` of
        packets with a trace id; span events are recorded at every stage
        (NIC -> LFTA -> channel -> HFTA -> sink/app) with virtual-time
        timestamps.  Returns the :class:`~repro.obs.tracing.Tracer`;
        dump with ``tracer.to_json()``.
        """
        from repro.obs.tracing import Tracer
        tracer = Tracer(sample_rate, max_traces=max_traces)
        self.rts.attach_plane(tracer)
        self.rts.tracer = tracer
        for nic in self._observed_nics:
            nic.tracer = tracer
        return tracer

    def observe_nic(self, nic, name: Optional[str] = None) -> None:
        """Export a simulated NIC's ring/drop statistics as metrics and
        include it in the lineage tracer's span chain (the ``nic`` and
        ``nic_drop`` stages)."""
        label = name or f"nic{len(self._observed_nics)}"
        self._observed_nics.append(nic)
        if self.rts.metrics is not None:
            from repro.obs.collectors import bind_nic
            bind_nic(self.rts.metrics, nic, label)
        nic.tracer = self.rts.tracer

    # -- introspection ------------------------------------------------------------
    def _instance(self, name: str) -> QueryInstance:
        instance = self._instances.get(name)
        if instance is None:
            raise RegistryError(f"no query named {name!r}")
        return instance

    def plan_of(self, name: str) -> QueryPlan:
        return self._instance(name).plan

    def explain(self, name: str) -> str:
        """The plan plus its static cost estimate (EXPLAIN-style)."""
        from repro.gsql.costing import estimate_plan_cost
        plan = self._instance(name).plan
        estimate = estimate_plan_cost(plan, self.functions)
        text = plan.describe()
        for lfta in plan.lftas:
            group = self.rts.describe_decode_group(lfta.name)
            if group is not None:
                text += f"\n  {lfta.name} shares its decode: {group}"
            placement = getattr(self.rts.node(lfta.name), "placement", None)
            if placement is not None:
                text += f"\n  {lfta.name} places groups {placement}"
        return text + "\n" + estimate.describe()

    def schema_of(self, name: str) -> StreamSchema:
        schema = self._streams.get(name)
        if schema is None:
            raise RegistryError(f"no stream named {name!r}")
        return schema

    def stats(self) -> Dict[str, Dict[str, int]]:
        return self.rts.stats()

    def generated_code(self, name: str) -> str:
        """The Python the code generator produced for this query."""
        return "\n".join(self._instance(name).compiler.generated_sources)

    # -- parameters ------------------------------------------------------------------
    def set_param(self, query_name: str, param: str, value: Any) -> None:
        """Change a query parameter on the fly (Section 3)."""
        self._params(query_name, param)[param] = value
        self.rts.checkpoint()

    def get_param(self, query_name: str, param: str) -> Any:
        return self._params(query_name, param)[param]

    def _params(self, query_name: str, param: str) -> Dict[str, Any]:
        """The parameter dict of ``query_name``, which has ``param``."""
        params = self._instance(query_name).compiler.params
        if param not in params:
            raise RegistryError(
                f"query {query_name!r} has no parameter {param!r}"
            )
        return params

    # -- run-time delegation -----------------------------------------------------------
    def subscribe(self, name: str, capacity: Optional[int] = None) -> Subscription:
        return self.rts.subscribe(name, capacity=capacity)

    def start(self) -> None:
        self.rts.start()

    def stop(self) -> None:
        self.rts.stop()

    def feed_packet(self, packet: CapturedPacket) -> None:
        self.rts.feed_packet(packet)

    def feed(self, packets: Iterable[CapturedPacket], pump_every: int = 256) -> None:
        self.rts.feed(packets, pump_every=pump_every)

    def pump(self) -> int:
        return self.rts.pump()

    def advance_time(self, stream_time: float) -> None:
        self.rts.advance_time(stream_time)

    def flush(self) -> None:
        """End all streams and drain everything downstream."""
        self.rts.flush_all()
