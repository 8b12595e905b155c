"""Both levels of a split aggregation, a row at a time: the reference.

The paper splits an aggregation in two (Section 3): an LFTA folds
packets into *partial* aggregates in a small direct-mapped table, and
ejects a group as a ``key + partials`` row when another key takes its
slot or its window closes; the HFTA *combines* those rows into the
final groups, or aggregates raw tuples itself.  The engine runs each
level as one generated loop per plan.  This module says what those
loops must compute, in the plainest order there is: one packet, then
one row, then one group at a time --

* a packet is decoded by ``ProtocolSchema.interpret`` (the
  ``PacketView`` path, not the block kernel);
* predicates, group keys, aggregate arguments, HAVING and the select
  list are walked by :class:`~tests.reference.evaluator.ReferenceEvaluator`;
* every aggregate folds, combines and finishes through the evaluator's
  one fold table, :data:`~tests.reference.evaluator.AGGREGATES`;
* the LFTA's groups are placed by the direct-mapped table the test
  hands in, through its per-key ``upsert`` (the table's definition),
  with the placement function of the node under test;
* the shed gate and the ``DEFINE sample`` gate draw from the same
  ``rng_for`` streams as the node, one draw per packet and one per
  row, in the order ``LftaNode.accept_batch`` states.

A group's state is a list with one tuple of partial slots per
aggregate; the partial encoding is those tuples laid end to end.
Nothing here imports the code generator or the operators.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.heartbeat import FLUSH, FlushToken, Punctuation
from repro.core.query_node import NodeStats
from repro.determinism import rng_for
from repro.gsql.semantic import KeyRef

from tests.reference.evaluator import AGGREGATES, NoResult, ReferenceEvaluator


class _Unbounded(Exception):
    """A window key reads a column no bound covers."""


class _Bounds:
    """A row whose every slot is a promised lower bound: evaluating a
    window key over it gives the key's own bound (the planner picks
    window keys that are monotone in what they read)."""

    def __init__(self, bounds: Dict[int, Any]) -> None:
        self.bounds = bounds

    def __getitem__(self, slot: int) -> Any:
        if slot not in self.bounds:
            raise _Unbounded(slot)
        return self.bounds[slot]


#: rows by (protocol, packet fields): interpretation is a pure function
#: of the packet, and a test runs one corpus through many plans
_ROWS: Dict[tuple, list] = {}


def interpret(protocol, packet) -> list:
    """``protocol.interpret(packet)``, memoised."""
    key = (protocol, packet.timestamp, packet.data, packet.orig_len,
           packet.interface)
    rows = _ROWS.get(key)
    if rows is None:
        if len(_ROWS) >= 1 << 14:
            _ROWS.clear()
        rows = _ROWS[key] = protocol.interpret(packet)
    return rows


def partials(state: List[tuple]) -> tuple:
    """A group's state as the slots an LFTA emits."""
    return tuple(value for slots in state for value in slots)


class _Aggregates:
    """One plan's aggregate list over group states."""

    def __init__(self, aggregates, evaluator: ReferenceEvaluator,
                 slot_maps) -> None:
        self.meanings = [AGGREGATES[agg.name] for agg in aggregates]
        self.args = [agg.arg for agg in aggregates]
        self.evaluator = evaluator
        self.slot_maps = slot_maps

    def new(self) -> List[tuple]:
        return [meaning.start for meaning in self.meanings]

    def values(self, row: tuple) -> list:
        """Every argument, before any state is touched: no result from
        one drops the row whole."""
        return [None if arg is None
                else self.evaluator.value(arg, row, slot_maps=self.slot_maps)
                for arg in self.args]

    def fold(self, state: List[tuple], values: list, weight) -> None:
        for index, (meaning, value) in enumerate(zip(self.meanings, values)):
            state[index] = meaning.fold(state[index], value, weight)

    def combine(self, state: List[tuple], encoded: tuple) -> None:
        cursor = 0
        for index, meaning in enumerate(self.meanings):
            width = len(meaning.start)
            state[index] = meaning.combine(state[index],
                                           encoded[cursor:cursor + width])
            cursor += width

    def finals(self, state: List[tuple]) -> tuple:
        return tuple(meaning.finish(slots)
                     for meaning, slots in zip(self.meanings, state))


class _Output:
    """What a node emits, in order, and the counters that go with it."""

    def __init__(self) -> None:
        self.stats = NodeStats()
        self.items: list = []

    def emit(self, row: tuple) -> None:
        self.stats.tuples_out += 1
        self.items.append(row)

    def emit_punctuation(self, punctuation: Punctuation) -> None:
        self.stats.punctuations_out += 1
        self.items.append(punctuation)

    def drain(self) -> list:
        items, self.items = self.items, []
        return items


class RowLfta(_Output):
    """An LFTA plan (``LftaPlan``) a packet at a time.

    ``table`` is an empty direct-mapped table without a layout, placing
    keys as the node under test does; its state per slot is a group
    state of this module.  ``params`` is read live, as the engine's
    compiled code reads its own dict.
    """

    def __init__(self, plan, analyzed, functions, table=None,
                 params: Optional[dict] = None, seed: int = 0) -> None:
        super().__init__()
        self.plan = plan
        self.evaluator = ReferenceEvaluator(analyzed, functions, params)
        self.table = table
        self.packets_seen = self.shed_packets = self.sampled_out = 0
        self.shed_rate = 1.0
        self.shed_rng = rng_for(seed, "lfta.shed", plan.name)
        self.sample_rng = (None if plan.sample_rate is None
                           else rng_for(seed, "lfta.sample", plan.name))
        self.aggregates = _Aggregates(plan.aggregates, self.evaluator,
                                      (None, None))
        self.window = plan.window_key_index
        self.band = plan.window_key_band
        self.high_water = None

    def _value(self, expr, row):
        return self.evaluator.value(expr, row, slot_maps=(None, None))

    def accept_batch(self, packets) -> None:
        for packet in packets:
            self.accept(packet)

    def accept(self, packet) -> None:
        """The shed draw, the protocol's rows, then per row the sample
        draw, the conjuncts in order, and the projection or the fold."""
        self.packets_seen += 1
        weight = 1
        if self.shed_rate < 1.0:
            if self.shed_rng.random() >= self.shed_rate:
                self.shed_packets += 1
                return
            weight = 1.0 / self.shed_rate
        plan = self.plan
        for row in interpret(plan.protocol, packet):
            self.stats.tuples_in += 1
            if (self.sample_rng is not None
                    and self.sample_rng.random() >= plan.sample_rate):
                self.sampled_out += 1
                continue
            try:
                if not all(self._value(conjunct, row)
                           for conjunct in plan.predicates):
                    self.stats.discarded += 1
                    continue
                if plan.mode == "projection":
                    self.emit(tuple(self._value(expr, row)
                                    for expr in plan.project_exprs))
                    continue
                key = tuple(self._value(expr, row)
                            for expr in plan.group_exprs)
                values = self.aggregates.values(row)
            except NoResult:
                self.stats.discarded += 1
                continue
            self._fold(key, values, weight)

    def _fold(self, key: tuple, values: list, weight) -> None:
        if self.window >= 0:
            x = key[self.window]
            if self.high_water is None or x > self.high_water:
                self.high_water = x
                self._close_below(x - self.band)
            elif x < self.high_water - self.band:
                self.stats.discarded += 1   # late: its window closed
                return
        state, ejected = self.table.upsert(key, self.aggregates.new)
        if ejected is not None:
            self.emit(ejected[0] + partials(ejected[1]))
        self.aggregates.fold(state, values, weight)

    def _close_below(self, low_water) -> None:
        index = self.window
        closed = self.table.evict_if(lambda key: key[index] < low_water)
        closed.sort(key=lambda group: group[0][index])
        for key, state in closed:
            self.emit(key + partials(state))
        if closed or self.high_water is not None:
            self.emit_punctuation(Punctuation({index: low_water}))

    def on_heartbeat(self, stream_time: float) -> None:
        """The protocol's clock bound closes the windows below the
        window key's bound (partial aggregation only)."""
        assert self.plan.mode == "partial_aggregation"
        bounds = self.plan.protocol.clock_bounds(stream_time)
        if not bounds or self.window < 0:
            return
        try:
            low_water = self._value(self.plan.group_exprs[self.window],
                                    _Bounds(bounds))
        except _Unbounded:
            return
        self._close_below(low_water)

    def flush(self) -> None:
        if self.plan.mode != "partial_aggregation":
            return
        groups = self.table.evict_all()
        if self.window >= 0:
            groups.sort(key=lambda group: group[0][self.window])
        for key, state in groups:
            self.emit(key + partials(state))


class RowAggregation(_Output):
    """An HFTA aggregation plan (``HftaPlan``) a row at a time, over
    raw tuples or over an LFTA's partials; fed channel items."""

    def __init__(self, plan, analyzed, functions,
                 params: Optional[dict] = None, seed: int = 0) -> None:
        super().__init__()
        self.plan = plan
        self.evaluator = ReferenceEvaluator(analyzed, functions, params)
        self.from_partials = plan.final_from_partials
        self.slot_maps = tuple(plan.slot_maps)
        self.key_width = len(analyzed.group_exprs)
        self.aggregates = _Aggregates(
            plan.aggregates, self.evaluator,
            None if self.from_partials else self.slot_maps)
        self.sample_rng = (
            rng_for(seed, "hfta.sample", plan.name)
            if plan.sample_rate is not None and not self.from_partials
            else None)
        self.window = plan.window_key_index
        self.band = plan.window_key_band
        self.high_water = None
        #: the output slot that carries the window key (-1: none)
        self.window_out = next(
            (slot for slot, expr in enumerate(plan.post_select_exprs)
             if isinstance(expr, KeyRef) and expr.index == self.window), -1)
        self.groups: Dict[tuple, List[tuple]] = {}
        self.groups_emitted = 0
        self.flushed = False
        self.emits_partials = False

    def emit_partials(self) -> None:
        """Closed groups leave as ``key + partials`` rows, punctuated
        on the window key's place in the key."""
        self.emits_partials = True
        if self.window >= 0:
            self.window_out = self.window

    def _value(self, expr, row):
        return self.evaluator.value(expr, row, slot_maps=self.slot_maps)

    # -- channel items -------------------------------------------------------
    def dispatch(self, item, input_index: int = 0) -> None:
        if type(item) is tuple:
            self.dispatch_batch((item,))
        elif isinstance(item, Punctuation):
            self.stats.punctuations_in += 1
            self.on_punctuation(item)
        elif isinstance(item, FlushToken) and not self.flushed:
            self.flushed = True
            self.flush()
            self.items.append(FLUSH)

    def dispatch_batch(self, rows, input_index: int = 0) -> None:
        self.stats.tuples_in += len(rows)
        for row in rows:
            self.accept(row)

    def accept(self, row: tuple) -> None:
        plan = self.plan
        if (self.sample_rng is not None
                and self.sample_rng.random() >= plan.sample_rate):
            self.stats.discarded += 1
            return
        try:
            if not all(self._value(conjunct, row)
                       for conjunct in plan.predicates):
                self.stats.discarded += 1
                return
            if self.from_partials:
                key = row[:self.key_width]
            else:
                key = tuple(self._value(expr, row)
                            for expr in plan.group_exprs)
                values = self.aggregates.values(row)
        except NoResult:
            self.stats.discarded += 1
            return
        if self.window >= 0:
            x = key[self.window]
            if self.high_water is None or x > self.high_water:
                self.high_water = x
                self._close_below(x - self.band)
            elif x < self.high_water - self.band and not self.from_partials:
                # late: its window closed.  (An LFTA drops its own late
                # rows, and a group it ejects is of a window open here.)
                self.stats.discarded += 1
                return
        state = self.groups.get(key)
        if state is None:
            state = self.groups[key] = self.aggregates.new()
        if self.from_partials:
            self.aggregates.combine(state, row[self.key_width:])
        else:
            self.aggregates.fold(state, values, 1)

    def on_punctuation(self, punctuation: Punctuation) -> None:
        if self.window < 0:
            return
        if self.from_partials:
            low_water = punctuation.bound_for(self.window)
            if low_water is None:
                return
        else:
            try:
                low_water = self._value(self.plan.group_exprs[self.window],
                                        _Bounds(punctuation.bounds))
            except _Unbounded:
                return
        if (self.high_water is None
                or low_water > self.high_water - self.band):
            self._close_below(low_water)

    # -- closing groups ------------------------------------------------------
    def _ordered(self, keys: list) -> list:
        """Window first, then the whole key."""
        index = self.window
        return sorted(keys, key=lambda key: (key[index], key))

    def _close_below(self, low_water) -> None:
        index = self.window
        self._close(self._ordered(
            [key for key in self.groups if key[index] < low_water]))
        if self.window_out >= 0:
            self.emit_punctuation(Punctuation({self.window_out: low_water}))

    def _close(self, keys: list) -> None:
        """Each group leaves in turn: its partials, or HAVING and the
        select list over its key and final values (no result from
        either discards it).  An error leaves the groups after it
        open."""
        plan = self.plan
        for key in keys:
            state = self.groups.pop(key)
            if self.emits_partials:
                row = key + partials(state)
            else:
                finals = self.aggregates.finals(state)
                try:
                    if plan.having is not None and not self.evaluator.value(
                            plan.having, key, finals, arity="post"):
                        self.stats.discarded += 1
                        continue
                    row = tuple(self.evaluator.value(expr, key, finals,
                                                     arity="post")
                                for expr in plan.post_select_exprs)
                except NoResult:
                    self.stats.discarded += 1
                    continue
            self.groups_emitted += 1
            self.emit(row)

    def flush(self) -> None:
        keys = list(self.groups)
        self._close(self._ordered(keys) if self.window >= 0 else keys)

    def open_groups(self) -> list:
        """(key, partials) of every open group, oldest first."""
        return [(key, partials(state)) for key, state in self.groups.items()]
