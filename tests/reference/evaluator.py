"""A tree-walking evaluator of bound GSQL expressions: the reference.

The engine compiles every expression to Python source
(``repro.gsql.codegen.ExprCompiler``).  This module defines what that
source must compute, by walking the analysed AST directly, one value
at a time -- a second, independent implementation.  A test evaluates
the same expression both ways on the same tuples and compares.

The calling conventions mirror the compiler's so the two can be swapped
in a test: a tuple builder returns ``None`` when a partial function has
no result, a predicate returns ``False``; ``slot_maps`` and ``arity``
(1, 2 for a join's ``(l, r)``, ``"post"`` for a ``(key, aggregates)``
pair) mean what they mean there.  :meth:`ReferenceEvaluator.aggregate`
evaluates a whole one-source aggregation query the same way: rows in,
rows out, one dict of groups.  What each aggregate means -- its empty
state, its fold (with the shed gate's Horvitz-Thompson weight), the
partial encoding an LFTA emits, the combine of two of them and the
finished value -- is :data:`AGGREGATES`, the one fold table every
reference reads (``tests/reference/aggregation.py`` runs both levels
of a split plan on it).
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence)

from repro.gsql.ast_nodes import (
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    Literal,
    Param,
    UnaryOp,
)
from repro.gsql.semantic import AggRef, AnalyzedQuery, KeyRef
from repro.gsql.types import FLOAT


class NoResult(Exception):
    """A partial function had no result: the tuple is discarded."""


class Aggregate(NamedTuple):
    """What one aggregate means, over its partial encoding: the tuple of
    slots an LFTA emits for it and an HFTA combines (AVG's is ``(sum,
    count)``; every other aggregate's is one slot)."""

    #: an empty group's slots
    start: tuple
    #: ``fold(slots, value, w)``: one value folded in with the
    #: Horvitz-Thompson weight ``w`` (1 when nothing is shed); MIN and
    #: MAX are order statistics and fold unweighted
    fold: Callable[[tuple, Any, Any], tuple]
    #: ``combine(slots, partial)``: another group's slots folded in
    combine: Callable[[tuple, tuple], tuple]
    #: ``finish(slots)``: the finished value
    finish: Callable[[tuple], Any]


def _first(slots):
    return slots[0]


def _least(state, value):
    """MIN: the first of equal values stays; None is no value yet."""
    return value if state is None or value < state else state


def _greatest(state, value):
    return value if state is None or value > state else state


def _order(better):
    return Aggregate(
        (None,),
        lambda slots, value, _: (better(slots[0], value),),
        lambda slots, partial: (slots[0] if partial[0] is None
                                else better(slots[0], partial[0]),),
        _first)


def _additive(folded):
    return Aggregate(
        (0,),
        lambda slots, value, w: (slots[0] + folded(value, w),),
        lambda slots, partial: (slots[0] + partial[0],),
        _first)


#: the one fold table: every aggregate GSQL has, by name
AGGREGATES: Dict[str, Aggregate] = {
    "COUNT": _additive(lambda _, w: w),
    "SUM": _additive(lambda value, w: value * w),
    "MIN": _order(_least),
    "MAX": _order(_greatest),
    "AVG": Aggregate(
        (0.0, 0),
        lambda slots, value, w: (slots[0] + value * w, slots[1] + w),
        lambda slots, partial: (slots[0] + partial[0], slots[1] + partial[1]),
        lambda slots: slots[0] / slots[1] if slots[1] else 0.0),
}


class ReferenceEvaluator:
    """Evaluates one analysed query's expressions by walking the tree.

    ``params`` is read at evaluation time, so changing it changes the
    next evaluation, as ``set_param`` does for generated code.
    """

    def __init__(self, analyzed: AnalyzedQuery, functions,
                 params: Optional[Dict[str, Any]] = None) -> None:
        self.analyzed = analyzed
        self.functions = functions
        self.params: Dict[str, Any] = dict(params or {})
        self._handles: Dict[int, Any] = {}

    # -- entry points, shaped like the compiler's --------------------------
    def value(self, expr: Expr, *tuples: tuple,
              slot_maps: Sequence = (None,), arity=1) -> Any:
        """The value of ``expr``; :class:`NoResult` propagates."""
        return self._evaluate(expr, tuples, slot_maps, arity)

    def tuple_fn(self, exprs: Sequence[Expr], slot_maps: Sequence = (None,),
                 arity=1) -> Callable[..., Optional[tuple]]:
        def build(*tuples) -> Optional[tuple]:
            try:
                return tuple(self._evaluate(e, tuples, slot_maps, arity)
                             for e in exprs)
            except NoResult:
                return None
        return build

    def predicate_fn(self, conjuncts: Sequence[Expr],
                     slot_maps: Sequence = (None,),
                     arity=1) -> Callable[..., bool]:
        def check(*tuples) -> bool:
            try:
                return all(bool(self._evaluate(c, tuples, slot_maps, arity))
                           for c in conjuncts)
            except NoResult:
                return False
        return check

    def post_tuple_fn(self, exprs: Sequence[Expr]):
        return self.tuple_fn(exprs, arity="post")

    def post_predicate_fn(self, expr: Optional[Expr]):
        return self.predicate_fn(() if expr is None else (expr,),
                                 arity="post")

    # -- a whole query -----------------------------------------------------
    def aggregate(self, rows: Iterable[tuple]) -> List[tuple]:
        """The analysed aggregation query over the rows of its one
        source, list in, list out: per row the WHERE conjuncts, the
        group key and every aggregate argument (no result from any of
        them drops the row whole) folded into one dict of groups; then
        per group, in order of first appearance, HAVING and the select
        list.  Windows are not modelled: every group closes at the end
        of the input, which is what the engine emits for input that
        arrives in window order."""
        analyzed = self.analyzed
        where = self.predicate_fn(analyzed.where_conjuncts)
        key_of = self.tuple_fn(analyzed.group_exprs)
        aggregates = [(AGGREGATES[agg.name], agg.arg)
                      for agg in analyzed.aggregates]
        groups: Dict[tuple, list] = {}
        for row in rows:
            if not where(row):
                continue
            key = key_of(row)
            if key is None:
                continue
            try:
                values = [None if arg is None else self.value(arg, row)
                          for _, arg in aggregates]
            except NoResult:
                continue
            state = groups.get(key)
            if state is None:
                state = groups[key] = [meaning.start
                                       for meaning, _ in aggregates]
            for index, ((meaning, _), value) in enumerate(zip(aggregates,
                                                              values)):
                state[index] = meaning.fold(state[index], value, 1)
        having = self.post_predicate_fn(analyzed.having)
        select = self.post_tuple_fn(
            [column.expr for column in analyzed.output_columns])
        out = []
        for key, state in groups.items():
            finals = tuple(meaning.finish(slots)
                           for (meaning, _), slots in zip(aggregates, state))
            if having(key, finals):
                built = select(key, finals)
                if built is not None:
                    out.append(built)
        return out

    # -- the walk ---------------------------------------------------------
    def _evaluate(self, expr: Expr, tuples, slot_maps, arity) -> Any:
        if isinstance(expr, Literal):
            # GSQL STRING values are bytes at run time
            if isinstance(expr.value, str):
                return expr.value.encode("latin-1")
            return expr.value
        if isinstance(expr, Param):
            return self.params[expr.name]
        if isinstance(expr, KeyRef):
            return tuples[0][expr.index]
        if isinstance(expr, AggRef):
            return tuples[1][expr.index]
        if isinstance(expr, Column):
            bound = self.analyzed.binding_of(expr)
            slot_map = (slot_maps[bound.source_index]
                        if bound.source_index < len(slot_maps) else None)
            slot = (bound.attr_index if slot_map is None
                    else slot_map[bound.attr_index])
            row = tuples[bound.source_index] if arity == 2 else tuples[0]
            return row[slot]
        if isinstance(expr, UnaryOp):
            value = self._evaluate(expr.operand, tuples, slot_maps, arity)
            return (not value) if expr.op == "NOT" else -value
        if isinstance(expr, BinaryOp):
            left = self._evaluate(expr.left, tuples, slot_maps, arity)
            if expr.op == "AND":
                return bool(left) and bool(
                    self._evaluate(expr.right, tuples, slot_maps, arity))
            if expr.op == "OR":
                return bool(left) or bool(
                    self._evaluate(expr.right, tuples, slot_maps, arity))
            right = self._evaluate(expr.right, tuples, slot_maps, arity)
            return self._binop(expr, left, right)
        if isinstance(expr, FuncCall):
            spec = self.functions.get(expr.name)
            args = [self._handle(spec, arg) if position in spec.handle_params
                    else self._evaluate(arg, tuples, slot_maps, arity)
                    for position, arg in enumerate(expr.args)]
            result = spec.implementation(*args)
            if spec.partial and result is None:
                raise NoResult()
            return result
        raise TypeError(f"cannot evaluate {expr!r}")

    def _handle(self, spec, arg: Expr) -> Any:
        """A pass-by-handle argument, loaded once per AST node."""
        if id(arg) not in self._handles:
            if isinstance(arg, Literal):
                raw = arg.value
            elif isinstance(arg, Param):
                raw = self.params[arg.name]
            else:
                raise TypeError(f"bad handle argument for {spec.name}")
            self._handles[id(arg)] = spec.handle_loader(raw)
        return self._handles[id(arg)]

    def _binop(self, expr: BinaryOp, left: Any, right: Any) -> Any:
        op = expr.op
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            types = self.analyzed.types
            floats = (types.get(id(expr.left)) is FLOAT
                      or types.get(id(expr.right)) is FLOAT)
            return left / right if floats else left // right
        if op == "%":
            return left % right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
        raise TypeError(f"unknown operator {op!r}")
