"""Alert evaluation: epoch clock, trigger nodes, and the alert bus.

Evaluation is *periodic in virtual time at pump boundaries*: every
:meth:`~repro.core.stream_manager.RuntimeSystem.pump` cycle the
:class:`AlertEngine` pushes one :class:`EpochTick` carrying the current
stream time into each trigger's dedicated clock channel.  A
:class:`TriggerNode` is an ordinary HFTA node with two inputs -- the
watched query's output (index 0) and the clock (index 1) -- so both
rows and ticks flow through channels: the evaluation is a pure function
of its input items, and a recovery rollback restores the clock with the
engine, which is what makes a crash/restore byte-identical to the clean
run (``replay verify --scenario alerts_syn_flood alerts_port_scan``).

A tick at stream time ``t`` closes every epoch with index below
``floor(t / epoch)``, oldest first; epochs a quiet period skipped
entirely are evaluated as empty (that is what ``absent(N)`` and
hysteresis decay observe).  Alert rows -- RAISE/CLEAR with severity,
firing epoch, and the triggering tuple as context -- fan into one
:class:`AlertBusNode` (stream name ``"alerts"`` by default) so a single
subscription or sink sees every trigger's stream.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.alerts.spec import AlertSpecError, TriggerSpec, parse_alert_spec
from repro.alerts.spec import EpochContext
from repro.core.channels import Channel
from repro.core.query_node import QueryNode
from repro.core.stream_manager import RegistryError
from repro.gsql.ordering import Ordering
from repro.gsql.schema import Attribute, StreamSchema
from repro.gsql.types import FLOAT, IP, STRING, UINT
from repro.net.packet import int_to_ip
from repro.obs.plane_ledgers import ALERTS


class EpochTick:
    """Control token: the epoch clock observed stream time ``time``.

    Flows through a trigger's clock channel (never dropped -- bounded
    channels only shed data tuples); a recovery rollback's replayed
    pump cycles push it again and re-drive epoch evaluation.
    """

    __slots__ = ("time",)

    def __init__(self, time: float) -> None:
        self.time = time

    def __repr__(self) -> str:
        return f"EpochTick({self.time!r})"


def alert_schema(name: str, increasing: bool = True) -> StreamSchema:
    """The typed alert stream schema (one per trigger, one for the bus).

    A single trigger emits in nondecreasing alert time; the bus
    interleaves several triggers within a pump cycle, so it makes no
    ordering claim.
    """
    time_ordering = Ordering.increasing() if increasing else Ordering.none()
    return StreamSchema(name, [
        Attribute("time", FLOAT, time_ordering),
        Attribute("epoch", UINT, time_ordering),
        Attribute("trigger", STRING),
        Attribute("kind", STRING),
        Attribute("severity", STRING),
        Attribute("key", STRING),
        Attribute("value", FLOAT),
        Attribute("context", STRING),
    ])


class TriggerNode(QueryNode):
    """Evaluates one :class:`TriggerSpec` against a query's output.

    State is bounded by construction (DESIGN section 12): per retained
    key there is one open-epoch accumulator, delta histories capped at
    their lookback, the hysteresis streaks, and one context row; keys
    idle for ``spec.retention_epochs`` consecutive epochs with no
    raised alert are evicted outright.
    """

    def __init__(self, spec: TriggerSpec, schema: StreamSchema) -> None:
        super().__init__(f"alert_{spec.name}", alert_schema(spec.name))
        self.spec = spec
        self.watched_schema = schema
        self._key_index = (schema.index_of(spec.key)
                           if spec.key is not None else None)
        key_type = (schema.attribute(spec.key).gsql_type
                    if spec.key is not None else None)
        self._key_is_ip = key_type is IP
        #: (lowercased field name, tuple position) for every field the
        #: condition aggregates over
        seen = set()
        self._agg_fields = []
        for field_name in spec.referenced_fields():
            lower = field_name.lower()
            if field_name != spec.key and lower not in seen:
                seen.add(lower)
                self._agg_fields.append((lower, schema.index_of(field_name)))
        self._delta_keys = [(delta.key, delta.agg, delta.lookback)
                            for delta in spec.condition.deltas()]
        #: the clock channel, filled by AlertEngine.on_cycle
        self.tick_channel: Optional[Channel] = None
        # -- evaluation state (all snapshot/restore-covered) ---------------
        self._open_epoch: Optional[int] = None
        self._rows: Dict[Any, int] = {}          # key -> rows this epoch
        self._acc: Dict[Any, Dict[str, list]] = {}  # key -> field -> acc
        self._context: Dict[Any, tuple] = {}     # key -> last row seen
        self._history: Dict[Any, Dict[str, list]] = {}  # key -> delta hist
        self._true_streak: Dict[Any, int] = {}
        self._false_streak: Dict[Any, int] = {}
        self._raised: Dict[Any, bool] = {}
        self._last_raise: Dict[Any, float] = {}
        self._idle: Dict[Any, int] = {}
        # -- counters (surfaced as node extras and gs_alert* metrics) ------
        self.alerts_raised = 0
        self.alerts_cleared = 0
        self.alerts_suppressed = 0
        self.epochs_evaluated = 0

    @property
    def alerts_active(self) -> int:
        return len(self._raised)

    # -- input handling ------------------------------------------------------
    def dispatch(self, item: Any, input_index: int) -> None:
        if type(item) is EpochTick:
            self.on_tick(item.time)
        else:
            super().dispatch(item, input_index)

    def on_tuple(self, row: tuple, input_index: int) -> None:
        key = row[self._key_index] if self._key_index is not None else None
        self._rows[key] = self._rows.get(key, 0) + 1
        self._context[key] = row
        if self._agg_fields:
            accs = self._acc.get(key)
            if accs is None:
                accs = self._acc[key] = {}
            for field_name, position in self._agg_fields:
                value = row[position]
                if not isinstance(value, (int, float)):
                    continue  # non-numeric fields cannot be aggregated
                acc = accs.get(field_name)
                if acc is None:
                    accs[field_name] = [1, value, value, value]
                else:
                    acc[0] += 1
                    acc[1] += value
                    if value < acc[2]:
                        acc[2] = value
                    if value > acc[3]:
                        acc[3] = value

    def on_tick(self, stream_time: float) -> None:
        target = math.floor(stream_time / self.spec.epoch)
        if self._open_epoch is None:
            # The first tick opens the epoch containing it; rows that
            # arrived earlier belong to this first epoch.
            self._open_epoch = target
            return
        while self._open_epoch < target:
            self._close_epoch(self._open_epoch)
            self._open_epoch += 1

    def flush(self) -> None:
        # End of stream: evaluate the partially filled open epoch so a
        # condition met in the final epoch still fires.
        if self._open_epoch is not None:
            self._close_epoch(self._open_epoch)
            self._open_epoch += 1

    # -- epoch evaluation -----------------------------------------------------
    def _ordered_keys(self) -> List[Any]:
        """Every key with live state, in deterministic (insertion) order.

        Never iterate a set union here: set order depends on
        PYTHONHASHSEED for bytes/str keys and would break replay.
        """
        if self._key_index is None:
            return [None]
        ordered: List[Any] = []
        seen = set()
        for mapping in (self._rows, self._raised, self._true_streak,
                        self._false_streak, self._history, self._idle):
            for key in mapping:
                if key not in seen:
                    seen.add(key)
                    ordered.append(key)
        return ordered

    def _close_epoch(self, index: int) -> None:
        spec = self.spec
        close_time = (index + 1) * spec.epoch
        self.epochs_evaluated += 1
        for key in self._ordered_keys():
            rows = self._rows.get(key, 0)
            idle = 0 if rows else self._idle.get(key, 0) + 1
            self._idle[key] = idle
            history = self._history.get(key, {})
            ctx = EpochContext(rows, self._acc.get(key, {}), history, idle)
            result = spec.condition.evaluate(ctx)
            observed = spec.condition.observed(ctx)
            self._push_history(key, ctx)
            self._hysteresis(key, result, observed, index, close_time)
            self._maybe_evict(key, idle)
        self._rows.clear()
        self._acc.clear()

    def _push_history(self, key: Any, ctx: EpochContext) -> None:
        if not self._delta_keys:
            return
        history = self._history.get(key)
        if history is None:
            history = self._history[key] = {}
        for delta_key, agg, lookback in self._delta_keys:
            values = history.get(delta_key)
            if values is None:
                values = history[delta_key] = []
            values.append(agg.value(ctx))
            if len(values) > lookback:
                del values[:len(values) - lookback]

    def _hysteresis(self, key: Any, result: bool,
                    observed: Optional[float], index: int,
                    close_time: float) -> None:
        spec = self.spec
        raised = key in self._raised
        if result:
            streak = self._true_streak.get(key, 0) + 1
            self._true_streak[key] = streak
            self._false_streak.pop(key, None)
            if raised or streak < spec.raise_for:
                return
            last = self._last_raise.get(key)
            if (spec.min_interval > 0 and last is not None
                    and close_time - last < spec.min_interval):
                self.alerts_suppressed += 1
                return
            self._raised[key] = True
            self._last_raise[key] = close_time
            self.alerts_raised += 1
            self.emit(self._alert_row("RAISE", key, observed, index,
                                      close_time))
        else:
            streak = self._false_streak.get(key, 0) + 1
            self._false_streak[key] = streak
            self._true_streak.pop(key, None)
            if raised and streak >= spec.clear_for:
                del self._raised[key]
                self.alerts_cleared += 1
                self.emit(self._alert_row("CLEAR", key, observed, index,
                                          close_time))

    def _maybe_evict(self, key: Any, idle: int) -> None:
        """Drop all state for a long-idle, un-raised key.

        This is the bounded-memory guarantee in action: retention is
        the finite epoch count validated at parse time, so per-key
        state is O(active alerts + recently seen keys).
        """
        if key is None or key in self._raised:
            return
        if idle < self.spec.retention_epochs:
            return
        for mapping in (self._rows, self._acc, self._context, self._history,
                        self._true_streak, self._false_streak,
                        self._last_raise, self._idle):
            mapping.pop(key, None)

    def _render_key(self, key: Any) -> bytes:
        if key is None:
            return b""
        if self._key_is_ip and isinstance(key, int):
            return int_to_ip(key).encode("ascii")
        if isinstance(key, bytes):
            return key
        return str(key).encode("utf-8", "backslashreplace")

    def _alert_row(self, kind: str, key: Any, observed: Optional[float],
                   index: int, close_time: float) -> tuple:
        context = self._context.get(key)
        return (
            float(close_time),
            int(index),
            self.spec.name.encode("ascii"),
            kind.encode("ascii"),
            self.spec.severity.encode("ascii"),
            self._render_key(key),
            float(observed) if observed is not None else 0.0,
            repr(context).encode("utf-8", "backslashreplace")
            if context is not None else b"",
        )

    # -- checkpoint/restore (DESIGN sections 11 & 12) -------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["alerts"] = {
            "open_epoch": self._open_epoch,
            "rows": self._rows,
            "acc": self._acc,
            "context": self._context,
            "history": self._history,
            "true_streak": self._true_streak,
            "false_streak": self._false_streak,
            "raised": self._raised,
            "last_raise": self._last_raise,
            "idle": self._idle,
            "counters": (self.alerts_raised, self.alerts_cleared,
                         self.alerts_suppressed, self.epochs_evaluated),
        }
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        alerts = state["alerts"]
        self._open_epoch = alerts["open_epoch"]
        self._rows = dict(alerts["rows"])
        self._acc = {key: {f: list(acc) for f, acc in accs.items()}
                     for key, accs in alerts["acc"].items()}
        self._context = {key: tuple(row)
                         for key, row in alerts["context"].items()}
        self._history = {key: {f: list(vals) for f, vals in hist.items()}
                         for key, hist in alerts["history"].items()}
        self._true_streak = dict(alerts["true_streak"])
        self._false_streak = dict(alerts["false_streak"])
        self._raised = dict(alerts["raised"])
        self._last_raise = dict(alerts["last_raise"])
        self._idle = dict(alerts["idle"])
        (self.alerts_raised, self.alerts_cleared,
         self.alerts_suppressed, self.epochs_evaluated) = alerts["counters"]


class AlertBusNode(QueryNode):
    """Unions every trigger's alert stream into one subscribable stream.

    Unlike the default one-flush-flushes-all policy, the bus waits for
    *all* trigger inputs to flush before ending the alert stream, so a
    late trigger's final-epoch alerts still reach subscribers.
    """

    def __init__(self, name: str = "alerts") -> None:
        super().__init__(name, alert_schema(name, increasing=False))
        self._flushed_inputs: List[int] = []

    def on_tuple(self, row: tuple, input_index: int) -> None:
        self.emit(row)

    def on_flush(self, input_index: int) -> None:
        if input_index not in self._flushed_inputs:
            self._flushed_inputs.append(input_index)
        if len(self._flushed_inputs) >= len(self.inputs) and not self.flushed:
            self.flushed = True
            self.flush()
            self.emit_flush()

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["flushed_inputs"] = list(self._flushed_inputs)
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._flushed_inputs = list(state["flushed_inputs"])


class AlertEngine:
    """Owns the triggers, the bus, and the epoch clock.

    Created via :meth:`repro.core.engine.Gigascope.enable_alerts`; the
    RTS calls :meth:`on_cycle` at every pump boundary.
    """

    #: in repro.obs.plane_ledgers, which telemetry reads without this plane
    ledger = ALERTS

    def __init__(self, engine, bus_name: str = "alerts") -> None:
        self.engine = engine
        self.rts = engine.rts
        self.bus = AlertBusNode(bus_name)
        self.triggers: Dict[str, TriggerNode] = {}
        self._last_tick = -math.inf
        self.ticks_sent = 0
        self.rts.attach_plane(self)
        engine.add_node(self.bus)

    def add_trigger(self, spec) -> TriggerNode:
        """Attach a trigger (a :class:`TriggerSpec` or a spec string)."""
        if isinstance(spec, str):
            spec = parse_alert_spec(spec)
        if spec.name in self.triggers:
            raise AlertSpecError(
                "name", f"trigger {spec.name!r} already exists")
        try:
            schema = self.engine.schema_of(spec.on)
        except RegistryError:
            raise AlertSpecError(
                "on", f"unknown query or stream {spec.on!r}") from None
        spec.validate_fields(schema)
        node = TriggerNode(spec, schema)
        self.rts.register_node(node)
        self.rts.connect(node, [spec.on])          # input 0: watched rows
        clock = Channel(name=f"epoch->{node.name}")
        node.tick_channel = clock
        node.attach_input(clock)                   # input 1: the clock
        bus_channel = self.rts.open_channel(node.name, self.bus.name)
        self.bus.attach_input(bus_channel)
        self.bus.input_links.append((node, bus_channel))
        self.triggers[spec.name] = node
        return node

    def on_cycle(self, stream_time: float) -> None:
        """Pump-boundary hook: advance the epoch clock in virtual time."""
        if math.isinf(stream_time) or stream_time <= self._last_tick:
            return
        self._last_tick = stream_time
        if not self.triggers:
            return
        tick = EpochTick(stream_time)
        self.ticks_sent += 1
        for node in self.triggers.values():
            # Push unconditionally: a supervisor-suspended node's
            # retry rolls back and re-feeds, keeping the crash arm's
            # tick sequence identical to the clean arm's.
            node.tick_channel.push(tick)

    def snapshot_state(self) -> tuple:
        """The epoch clock: its last tick and the ticks sent."""
        return self._last_tick, self.ticks_sent

    def restore_state(self, state: tuple) -> None:
        self._last_tick, self.ticks_sent = state

    def shed_exempt_nodes(self) -> set:
        """Node names pinned exempt from adaptive shedding.

        A raised alert is exactly when the evidence feeding it must not
        be thinned: every shed-capable node upstream of a trigger with
        at least one raised key (walked transitively through
        ``input_links``, so merge/join plans exempt all their feeder
        LFTAs) is reported here until the alert CLEARs.  The
        OverloadController re-reads this set each cycle and holds these
        nodes at keep-rate 1.0.
        """
        exempt: set = set()
        for trigger in self.triggers.values():
            if not trigger.alerts_active:
                continue
            stack: List[Any] = [trigger]
            seen: set = set()
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if hasattr(node, "set_shed_rate"):
                    exempt.add(node.name)
                for producer, _channel in getattr(node, "input_links", ()):
                    stack.append(producer)
        return exempt

    def report(self) -> Dict[str, Any]:
        """The alert plane's ledger (the ``# alert report`` source)."""
        triggers = {}
        for name, node in self.triggers.items():
            triggers[name] = {
                "on": node.spec.on,
                "key": node.spec.key,
                "severity": node.spec.severity,
                "epoch": node.spec.epoch,
                "condition": str(node.spec.condition),
                "retention_epochs": node.spec.retention_epochs,
                "active": node.alerts_active,
                "raised": node.alerts_raised,
                "cleared": node.alerts_cleared,
                "suppressed": node.alerts_suppressed,
                "epochs_evaluated": node.epochs_evaluated,
            }
        return {
            "bus": self.bus.name,
            "ticks_sent": self.ticks_sent,
            "active_total": sum(t["active"] for t in triggers.values()),
            "raised_total": sum(t["raised"] for t in triggers.values()),
            "cleared_total": sum(t["cleared"] for t in triggers.values()),
            "suppressed_total": sum(t["suppressed"]
                                    for t in triggers.values()),
            "triggers": triggers,
        }
