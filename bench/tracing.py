"""Timing wrappers around the engine's entry points, installed from outside.

Nothing in ``src/`` knows about this: for the traced run only, methods
are replaced *on their classes* (and three parser/planner functions on
the module that calls them) by wrappers that report to one
:class:`Recorder`, and restored afterwards.

Three kinds of wrapper, by how often the call happens:

* ``span`` -- once per block or cycle: a record
  ``[name, start, end, parent, chunk]`` is kept;
* ``fold`` -- once per item on some operators (``QueryNode.dispatch``):
  nests like a span, but only ``(calls, seconds)`` per name survive;
* ``leaf`` -- once per row (``DirectMappedTable.upsert``): two clock
  reads and an add onto the enclosing call; must not contain wrapped
  calls.

A call's *self time* is its duration minus the wrapped calls inside it,
so self times of all names add up to the root spans.  A target that no
longer exists is skipped and counted (``trace.wraps_missing``): later
PRs may rename what is wrapped here but may not edit this file.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Union


class Recorder:
    def __init__(self) -> None:
        #: [name, start, end, parent index, chunk id]
        self.spans: List[list] = []
        #: open calls: [name, start, seconds in wrapped children,
        #: index of the innermost recorded span, recorded?]
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: sums of whatever a wrapper's ``count`` function returned
        self.counted: Dict[str, int] = defaultdict(int)
        self.chunk = -1

    def begin(self, name: str, record: bool = True) -> None:
        # a folded call's children hang off the enclosing recorded span
        index = self._stack[-1][3] if self._stack else -1
        if record:
            self.spans.append([name, 0.0, 0.0, index, self.chunk])
            index = len(self.spans) - 1
        self._stack.append([name, perf_counter(), 0.0, index, record])

    def end(self) -> None:
        end = perf_counter()
        name, start, inside, index, recorded = self._stack.pop()
        elapsed = end - start
        self.self_s[name] += elapsed - inside
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += elapsed
        if recorded:
            span = self.spans[index]
            span[1], span[2] = start, end

    def leaf(self, name: str, elapsed: float) -> None:
        if self._stack:
            self.self_s[name] += elapsed
            self.calls[name] += 1
            self._stack[-1][2] += elapsed


_HFTA_KINDS = {"MergeNode": "hfta.merge", "AggregationNode": "hfta.agg",
               "JoinNode": "hfta.join", "SelectionNode": "hfta.select"}


def _node_layer(node) -> str:
    """The layer an operator's dispatch time belongs to."""
    cls = type(node)
    module = cls.__module__
    if module.startswith("repro.alerts"):
        return "planes.alerts"
    if module.startswith("repro.obs.telemetry"):
        return "planes.telemetry"
    return _HFTA_KINDS.get(cls.__name__, "hfta.other")


class Target(NamedTuple):
    module: str
    cls: Optional[str]  # None: a function bound in ``module``
    attr: str
    kind: str           # span | fold | leaf | leafgen
    #: the layer, or a function of the call's first argument giving it
    name: Union[str, Callable[[object], str]]
    #: optional ``(args, result) -> int`` summed into ``Recorder.counted``
    count: Optional[Callable] = None


_ENGINE = "repro.core.engine"
SETUP_TARGETS = [
    Target(_ENGINE, None, "parse_queries", "span", "gsql.parse"),
    Target(_ENGINE, None, "analyze", "span", "gsql.analyze"),
    Target(_ENGINE, None, "plan_query", "span", "gsql.plan"),
] + [
    Target("repro.gsql.codegen", "ExprCompiler", method, "span", "gsql.codegen")
    for method in ("__init__", "tuple_fn", "predicate_fn", "scalar_fn",
                   "batch_select_fn", "batch_key_fn", "columnar_select_fn",
                   "columnar_key_fn", "post_tuple_fn", "post_predicate_fn")
]

_RTS = ("repro.core.stream_manager", "RuntimeSystem")
_LFTA = ("repro.operators.lfta", "LftaNode")
_TABLE = ("repro.operators.lfta_table", "DirectMappedTable")
_NODE = ("repro.core.query_node", "QueryNode")
_RECOVERY = ("repro.recovery.supervisor", "RecoverySupervisor")
_TELEMETRY = ("repro.obs.telemetry", "TelemetryHub")
_SHARD = ("repro.shard.runtime", "ShardedGigascope")

RUN_TARGETS = [
    Target(*_RTS, "feed", "span", "core.feed"),
    Target(*_RTS, "pump", "span", "core.pump"),
    Target(*_RTS, "advance_time", "span", "core.feed"),
    Target(*_RTS, "flush_all", "span", "core.flush"),
    Target(*_LFTA, "accept_batch", "span", "lfta.accept"),
    Target(*_LFTA, "on_heartbeat", "span", "lfta.accept"),
    Target(*_LFTA, "flush", "span", "lfta.accept"),
    Target(*_TABLE, "upsert", "leaf", "lfta.table"),
    Target(*_TABLE, "upsert_slices", "leafgen", "lfta.table"),
    Target(*_TABLE, "evict_if", "leaf", "lfta.table"),
    Target(*_TABLE, "evict_all", "leaf", "lfta.table"),
    Target(*_NODE, "dispatch", "fold", _node_layer),
    Target(*_NODE, "dispatch_batch", "span", _node_layer),
    Target("repro.alerts.engine", "TriggerNode", "dispatch", "fold",
           "planes.alerts"),
    Target("repro.operators.join", "JoinNode", "_window_candidates", "leaf",
           "hfta.join_probe", lambda args, found: len(found)),
    Target("repro.core.stream_manager", "Subscription", "poll", "span",
           "sinks.poll"),
    Target("repro.control.controller", "OverloadController", "on_cycle",
           "span", "planes.shed"),
    Target(*_TELEMETRY, "on_cycle", "span", "planes.telemetry"),
    Target(*_TELEMETRY, "on_stream_end", "span", "planes.telemetry"),
    Target("repro.alerts.engine", "AlertEngine", "on_cycle", "span",
           "planes.alerts"),
    Target(*_RECOVERY, "journal_packets", "span", "planes.recovery",
           lambda args, _: len(args[1])),
    Target(*_RECOVERY, "journal_items", "fold", "planes.recovery",
           lambda args, _: len(args[2])),
    Target(*_RECOVERY, "journal_heartbeat", "fold", "planes.recovery"),
    Target(*_RECOVERY, "on_pump_begin", "span", "planes.recovery"),
    Target(*_RECOVERY, "on_pump_end", "span", "planes.recovery"),
    Target(*_RECOVERY, "finalize", "span", "planes.recovery"),
    Target(*_SHARD, "feed", "span", "shard.feed"),
    Target(*_SHARD, "flush", "span", "shard.flush"),
]


def _wrapper(original, kind: str, name, count, recorder: Recorder):
    if kind == "leaf":

        def leaf(*args, **kwargs):
            begin = perf_counter()
            result = original(*args, **kwargs)
            recorder.leaf(name, perf_counter() - begin)
            if count is not None:
                recorder.counted[name] += count(args, result)
            return result
        return leaf
    if kind == "leafgen":

        def leafgen(*args, **kwargs):
            # a generator's work happens while it is pulled
            pull = original(*args, **kwargs).__next__
            while True:
                begin = perf_counter()
                try:
                    item = pull()
                except StopIteration:
                    return
                finally:
                    recorder.leaf(name, perf_counter() - begin)
                yield item
        return leafgen
    record = kind == "span"
    namer = name if callable(name) else None

    def nested(*args, **kwargs):
        layer = namer(args[0]) if namer else name
        recorder.begin(layer, record)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end()
        if count is not None:
            recorder.counted[layer] += count(args, result)
        return result
    return nested


class Wraps:
    """Install ``targets`` for the length of a ``with`` block."""

    def __init__(self, targets: List[Target], recorder: Recorder) -> None:
        self._targets = targets
        self._recorder = recorder
        self._saved: List[tuple] = []
        self.missing = 0

    def __enter__(self) -> "Wraps":
        for target in self._targets:
            try:
                owner = importlib.import_module(target.module)
                if target.cls is not None:
                    owner = getattr(owner, target.cls)
                original = getattr(owner, target.attr)
            except (ImportError, AttributeError):
                self.missing += 1
                continue
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr,
                    _wrapper(original, target.kind, target.name,
                             target.count, self._recorder))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def wrap_decoders(engine, recorder: Recorder) -> None:
    """Route every protocol's block decoder through a ``net.decode`` span.

    LFTAs copy ``protocol.columnar_decoder`` when they are built, so this
    runs on a fresh engine's own schema registry before ``add_queries``.
    """
    registry = engine.schema_registry
    for name in registry.names():
        schema = registry.get(name)
        if schema.columnar_decoder is not None:
            schema.columnar_decoder = _wrapper(
                schema.columnar_decoder, "span", "net.decode",
                lambda args, block: block.n, recorder)
