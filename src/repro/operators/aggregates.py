"""Aggregate state machinery shared by LFTA and HFTA aggregation.

Gigascope's aggregate query splitting works like sub-/super-aggregates
in data-cube computation: the LFTA maintains *partial* states that the
HFTA later *combines*.  For each GSQL aggregate this module defines

* ``init/update`` -- per-tuple accumulation,
* ``partials`` -- the flat slot encoding emitted by an LFTA,
* ``combine`` -- folding a partial encoding into a state, and
* ``final`` -- the finished value.

COUNT combines by summing counts; SUM by summing; MIN/MAX by min/max;
AVG carries a (sum, count) pair across the split.

The generic loops below are the definition, and the reference the
generated code is tested against: the engine's block loops inline
straight-line statements generated for a plan's aggregate list, over
columns of group state (``ExprCompiler.lfta_action`` /
``hfta_aggregate_fn`` / ``hfta_close_fn``; DESIGN section 18).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.gsql.ast_nodes import AggCall


def partial_layout(aggregates: Sequence[AggCall]) -> List[int]:
    """Number of partial slots each aggregate occupies (AVG needs two)."""
    return [2 if agg.name == "AVG" else 1 for agg in aggregates]


# The engine keeps group state in columns, one per partial slot (DESIGN
# section 18); snapshots keep the state-list shape of the generic loops
# below (section 11).  These two translate one group between them.

def state_list(values: Sequence[Any], layout: Sequence[int]) -> list:
    """One group's state list from its column values: an entry per
    aggregate, a list for one that takes two columns (AVG's pair)."""
    state: list = []
    cursor = 0
    for width in layout:
        state.append(values[cursor] if width == 1
                     else list(values[cursor:cursor + width]))
        cursor += width
    return state


def column_values(state: Sequence[Any], layout: Sequence[int]) -> list:
    """:func:`state_list` undone: a state list's column values."""
    values: list = []
    for width, entry in zip(layout, state, strict=True):
        if width == 1:
            values.append(entry)
        else:
            values.extend(entry)
    return values


class AggregateOps:
    """Executes a list of aggregates over group state lists.

    ``arg_fns`` holds one compiled argument-extractor per aggregate
    (``None`` for COUNT(*)), each taking the input tuple.
    """

    def __init__(self, aggregates: Sequence[AggCall],
                 arg_fns: Sequence[Optional[Callable[[tuple], Any]]]) -> None:
        if len(aggregates) != len(arg_fns):
            raise ValueError("one argument function per aggregate required")
        self.aggregates = list(aggregates)
        self.arg_fns = list(arg_fns)
        self.layout = partial_layout(aggregates)
        self.partial_width = sum(self.layout)

    # -- per-tuple accumulation ------------------------------------------
    #
    # Arguments before state: every aggregate's argument is evaluated
    # before any slot is touched, so a partial function with no result
    # (``DiscardTuple``) discards the tuple whole -- no half-folded
    # state, and in the block kernels no table slot and no ejection.

    def new_state(self) -> list:
        state = []
        for agg in self.aggregates:
            if agg.name == "COUNT":
                state.append(0)
            elif agg.name == "SUM":
                state.append(0)
            elif agg.name == "AVG":
                state.append([0.0, 0])
            else:  # MIN / MAX start undefined until the first update
                state.append(None)
        return state

    def args(self, row: tuple) -> list:
        """One argument value per aggregate (``None`` for COUNT(*))."""
        return [None if arg_fn is None else arg_fn(row)
                for arg_fn in self.arg_fns]

    def update(self, state: list, row: tuple) -> None:
        """Fold one raw input tuple into ``state``."""
        self.fold(state, self.args(row))

    def update_weighted(self, state: list, row: tuple, weight: float) -> None:
        """Fold one sampled tuple with a Horvitz-Thompson weight."""
        self.fold_weighted(state, self.args(row), weight)

    def fold(self, state: list, values: Sequence[Any]) -> None:
        """Fold one tuple's argument values (:meth:`args`) into ``state``."""
        for index, agg in enumerate(self.aggregates):
            name = agg.name
            if name == "COUNT":
                state[index] += 1
                continue
            value = values[index]
            if name == "SUM":
                state[index] += value
            elif name == "MIN":
                if state[index] is None or value < state[index]:
                    state[index] = value
            elif name == "MAX":
                if state[index] is None or value > state[index]:
                    state[index] = value
            elif name == "AVG":
                pair = state[index]
                pair[0] += value
                pair[1] += 1

    def fold_weighted(self, state: list, values: Sequence[Any],
                      weight: float) -> None:
        """:meth:`fold` with a Horvitz-Thompson weight.

        Used by the overload control plane: when an LFTA keeps a packet
        with probability ``p``, the kept tuple carries ``weight = 1/p``
        so additive aggregates stay unbiased under shedding.  COUNT adds
        ``weight``, SUM adds ``value * weight``, AVG accumulates the
        weighted sum over total weight.  MIN/MAX are order statistics --
        no reweighting can correct them, so they fold unweighted (the
        sample extremum is the best available estimate).
        """
        for index, agg in enumerate(self.aggregates):
            name = agg.name
            if name == "COUNT":
                state[index] += weight
                continue
            value = values[index]
            if name == "SUM":
                state[index] += value * weight
            elif name == "MIN":
                if state[index] is None or value < state[index]:
                    state[index] = value
            elif name == "MAX":
                if state[index] is None or value > state[index]:
                    state[index] = value
            elif name == "AVG":
                pair = state[index]
                pair[0] += value * weight
                pair[1] += weight
            # No other aggregate names exist (the semantic layer
            # rejects unknown aggregates before planning).

    # -- the partial encoding (LFTA output slots) ---------------------------
    def partials(self, state: list) -> Tuple[Any, ...]:
        """Flatten ``state`` into the LFTA partial-slot encoding."""
        out: List[Any] = []
        for index, agg in enumerate(self.aggregates):
            if agg.name == "AVG":
                out.extend(state[index])
            else:
                out.append(state[index])
        return tuple(out)

    def combine(self, state: list, partial_slots: Sequence[Any]) -> None:
        """Fold one partial encoding (a superaggregate step) into ``state``."""
        cursor = 0
        for index, agg in enumerate(self.aggregates):
            name = agg.name
            if name == "AVG":
                pair = state[index]
                pair[0] += partial_slots[cursor]
                pair[1] += partial_slots[cursor + 1]
                cursor += 2
                continue
            value = partial_slots[cursor]
            cursor += 1
            if name in ("COUNT", "SUM"):
                state[index] += value
            elif name == "MIN":
                if state[index] is None or (value is not None and value < state[index]):
                    state[index] = value
            elif name == "MAX":
                if state[index] is None or (value is not None and value > state[index]):
                    state[index] = value

    # -- results ----------------------------------------------------------
    def final_values(self, state: list) -> Tuple[Any, ...]:
        """One finished value per aggregate, in declaration order."""
        out: List[Any] = []
        for index, agg in enumerate(self.aggregates):
            if agg.name == "AVG":
                total, count = state[index]
                out.append(total / count if count else 0.0)
            else:
                out.append(state[index])
        return tuple(out)
