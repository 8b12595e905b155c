"""GSQL code generation.

The paper's GSQL processor "is actually a code generator": queries are
translated to C/C++, compiled, and linked into the run-time system.
This module is the Python analog: expressions are translated to Python
source, compiled with :func:`compile`, and the resulting closures are
linked into the operator objects.  The generated source is retained on
the compiler (``generated_sources``) for inspection and tests.

A tree-walking *interpreted* mode is kept alongside so the benefit of
code generation is measurable (benchmark E6).

Conventions in generated code:

* ``t`` -- the input tuple (or ``l``/``r`` for join inputs)
* ``k`` / ``a`` -- group key tuple / aggregate values tuple (post-agg)
* ``P`` -- the query-parameter dict (mutable; on-the-fly changes)
* ``_fN`` / ``_hN`` -- resolved function implementations and handles

Partial functions signal "no result" by raising :class:`DiscardTuple`;
the wrappers installed here convert a ``None`` return into that raise,
and every generated entry point catches it and discards the tuple --
"the processing is the same as if there is no result from a join".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.gsql.ast_nodes import (
    AggCall,
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    Literal,
    Param,
    UnaryOp,
)
from repro.gsql.functions import FunctionRegistry, FunctionSpec
from repro.gsql.semantic import AggRef, AnalyzedQuery, KeyRef
from repro.gsql.types import BOOL, FLOAT, GSQLType


class DiscardTuple(Exception):
    """Raised by a partial function with no result: drop the tuple."""


class CodegenError(ValueError):
    """Raised when an expression cannot be compiled."""


# Tuple-argument names by arity: 1 input, 2 join inputs, post-agg pair.
_ARG_NAMES = {1: ("t",), 2: ("l", "r"), "post": ("k", "a")}

_BINOPS = {
    "=": "==",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
    "%": "%",
    "&": "&",
    "|": "|",
    "^": "^",
    "<<": "<<",
    ">>": ">>",
    "AND": "and",
    "OR": "or",
}

SlotMap = Optional[Dict[int, int]]


class ExprCompiler:
    """Compiles bound GSQL expressions into Python callables.

    One compiler instance serves one query instantiation: it owns the
    parameter dict, the resolved pass-by-handle objects, and the
    environment the generated code runs in.
    """

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        functions: FunctionRegistry,
        params: Optional[Dict[str, Any]] = None,
        mode: str = "compiled",
    ) -> None:
        if mode not in ("compiled", "interpreted"):
            raise CodegenError(f"unknown codegen mode {mode!r}")
        self.analyzed = analyzed
        self.functions = functions
        self.params: Dict[str, Any] = dict(params or {})
        self.mode = mode
        self.generated_sources: List[str] = []
        self._env: Dict[str, Any] = {"P": self.params, "DiscardTuple": DiscardTuple}
        self._counter = 0
        #: when set, column references compile to columnar array reads
        #: instead of tuple indexing: (template, used-slot set)
        self._column_ref: Optional[Tuple[str, set]] = None
        self._handle_cache: Dict[Tuple[str, Any], str] = {}
        missing = [name for name in analyzed.params if name not in self.params]
        if missing:
            raise CodegenError(
                f"query requires parameter(s) {', '.join(missing)}; "
                "pass them at instantiation"
            )

    # -- public API ---------------------------------------------------------
    def tuple_fn(
        self,
        exprs: Sequence[Expr],
        slot_maps: Sequence[SlotMap] = (None,),
        arity: int = 1,
    ) -> Callable[..., Optional[tuple]]:
        """A callable building the output tuple; ``None`` means discard."""
        if self.mode == "interpreted":
            return self._interp_tuple_fn(exprs, slot_maps, arity)
        parts = [self._compile(e, slot_maps, arity) for e in exprs]
        body = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        return self._finalize(body, arity, on_discard="None")

    def predicate_fn(
        self,
        conjuncts: Sequence[Expr],
        slot_maps: Sequence[SlotMap] = (None,),
        arity: int = 1,
    ) -> Callable[..., bool]:
        """A callable evaluating the conjunction; DiscardTuple => False."""
        if not conjuncts:
            if arity == 1:
                return lambda t: True
            return lambda l, r: True
        if self.mode == "interpreted":
            return self._interp_predicate_fn(conjuncts, slot_maps, arity)
        body = " and ".join(
            "(" + self._compile(c, slot_maps, arity) + ")" for c in conjuncts
        )
        return self._finalize(body, arity, on_discard="False")

    def scalar_fn(
        self,
        expr: Expr,
        slot_maps: Sequence[SlotMap] = (None,),
        arity: int = 1,
    ) -> Callable[..., Any]:
        """A callable computing one value; DiscardTuple propagates."""
        if self.mode == "interpreted":
            evaluator = self._interp_evaluator(slot_maps, arity)
            return lambda *tuples: evaluator(expr, tuples)
        body = self._compile(expr, slot_maps, arity)
        return self._finalize(body, arity, on_discard=None)

    # -- batched (fused) entry points ---------------------------------------
    #
    # The scalar API compiles the predicate and the tuple builder into
    # *separate* callables and the operator chains them per tuple; the
    # fused variants emit ONE generated function that runs the whole
    # interpret->predicate->project (or ->key) pipeline over a list of
    # rows, hoisting the call chain out of the inner loop (MonetDB/X100
    # style vectorized execution; DESIGN section 10).  Per-row semantics
    # are byte-identical to the scalar chain: conjuncts short-circuit in
    # the same order and DiscardTuple counts the row as discarded.

    def batch_select_fn(
        self,
        conjuncts: Sequence[Expr],
        exprs: Sequence[Expr],
        slot_maps: Sequence[SlotMap] = (None,),
    ) -> Callable[[Sequence[tuple], Callable[[tuple], None]], int]:
        """One fused ``f(rows, append) -> discarded`` for select plans.

        For each row that passes the predicate, the built output tuple
        is handed to ``append``; the return value counts rows dropped
        by the predicate or by a partial function with no result.
        """
        if self.mode == "interpreted":
            predicate = self.predicate_fn(conjuncts, slot_maps)
            project = self.tuple_fn(exprs, slot_maps)
            return _chained_batch_select(predicate, project)
        pred_src = " and ".join(
            "(" + self._compile(c, slot_maps, 1) + ")" for c in conjuncts
        )
        parts = [self._compile(e, slot_maps, 1) for e in exprs]
        build = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        return self._finalize_batch(pred_src, f"append({build})")

    def batch_key_fn(
        self,
        conjuncts: Sequence[Expr],
        group_exprs: Sequence[Expr],
        slot_maps: Sequence[SlotMap] = (None,),
    ) -> Callable[[Sequence[tuple], Callable[[tuple], None]], int]:
        """One fused ``f(rows, append) -> discarded`` for aggregation.

        ``append`` receives ``(key, row)`` pairs for rows that pass the
        predicate and build a key; the aggregate update stays in the
        operator (it mutates shared group state).
        """
        if self.mode == "interpreted":
            predicate = self.predicate_fn(conjuncts, slot_maps)
            key_fn = self.tuple_fn(group_exprs, slot_maps)
            return _chained_batch_key(predicate, key_fn)
        pred_src = " and ".join(
            "(" + self._compile(c, slot_maps, 1) + ")" for c in conjuncts
        )
        parts = [self._compile(e, slot_maps, 1) for e in group_exprs]
        key = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        return self._finalize_batch(pred_src, f"append(({key}, t))")

    # -- columnar (block) entry points --------------------------------------
    #
    # The batched entry points above still loop tuple-at-a-time over a
    # list of row tuples.  The columnar variants run over a decoded
    # ColumnarBlock (repro.net.columnar) instead: predicate conjuncts
    # are evaluated column-wise over a shrinking survivor index list
    # (short-circuiting across conjuncts exactly like the scalar `and`
    # chain), and only the final survivors' output columns are gathered
    # -- the lazy-decode rule of DESIGN section 14.  Per-row semantics
    # stay byte-identical: a row evaluates conjunct k iff it passed
    # conjuncts 1..k-1, DiscardTuple counts the row discarded once, and
    # expressions are pure so regrouping the evaluation order per
    # conjunct is unobservable.

    def columnar_select_fn(
        self,
        conjuncts: Sequence[Expr],
        exprs: Sequence[Expr],
        slot_maps: Sequence[SlotMap] = (None,),
    ) -> Optional[Callable]:
        """One fused ``f(block, rows, append) -> discarded`` for select
        plans over a ColumnarBlock; ``rows`` is the initial survivor
        index list.  Returns None in interpreted mode (no columnar
        fallback chain -- the caller keeps the row-based path)."""
        if self.mode == "interpreted":
            return None
        filter_src = self._columnar_filter_src(conjuncts, slot_maps)
        build_slots: set = set()
        parts = [
            self._compile_columnar(e, slot_maps, "_o{slot}[j]", build_slots)
            for e in exprs
        ]
        build = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        gathers = "".join(
            f"    _o{slot} = B.gather({slot}, rows)\n"
            for slot in sorted(build_slots)
        )
        name = f"_g{self._counter}"
        self._counter += 1
        source = (
            f"def {name}(B, rows, append):\n"
            f"    d = 0\n"
            f"{filter_src}"
            f"{gathers}"
            f"    for j in range(len(rows)):\n"
            f"        try:\n"
            f"            append({build})\n"
            f"        except DiscardTuple:\n"
            f"            d += 1\n"
            f"    return d\n"
        )
        return self._finalize_source(name, source)

    def columnar_key_fn(
        self,
        conjuncts: Sequence[Expr],
        group_exprs: Sequence[Expr],
        row_slots: Sequence[int],
        width: int,
        slot_maps: Sequence[SlotMap] = (None,),
    ) -> Optional[Callable]:
        """One fused ``f(block, rows) -> (discarded, keys, rows_out)``
        for partial aggregation over a ColumnarBlock.

        ``keys`` are the group-key tuples of the surviving rows and
        ``rows_out`` their schema-width row tuples with only
        ``row_slots`` (the slots the aggregate argument expressions
        read) materialized -- the aggregate update keeps evaluating its
        arguments per row, preserving partial-function semantics.
        """
        if self.mode == "interpreted":
            return None
        filter_src = self._columnar_filter_src(conjuncts, slot_maps)
        gather_slots: set = set(row_slots)
        key_parts = [
            self._compile_columnar(e, slot_maps, "_o{slot}[j]", gather_slots)
            for e in group_exprs
        ]
        key = "(" + ", ".join(key_parts) + ("," if len(key_parts) == 1 else "") + ")"
        row_set = set(row_slots)
        row_parts = [
            (f"_o{slot}[j]" if slot in row_set else "None")
            for slot in range(width)
        ]
        row = "(" + ", ".join(row_parts) + ("," if width == 1 else "") + ")"
        gathers = "".join(
            f"    _o{slot} = B.gather({slot}, rows)\n"
            for slot in sorted(gather_slots)
        )
        name = f"_g{self._counter}"
        self._counter += 1
        source = (
            f"def {name}(B, rows):\n"
            f"    d = 0\n"
            f"{filter_src}"
            f"{gathers}"
            f"    keys = []\n"
            f"    out = []\n"
            f"    _ka = keys.append\n"
            f"    _oa = out.append\n"
            f"    for j in range(len(rows)):\n"
            f"        try:\n"
            f"            _k = {key}\n"
            f"        except DiscardTuple:\n"
            f"            d += 1\n"
            f"            continue\n"
            f"        _ka(_k)\n"
            f"        _oa({row})\n"
            f"    return d, keys, out\n"
        )
        return self._finalize_source(name, source)

    def _columnar_filter_src(
        self, conjuncts: Sequence[Expr], slot_maps: Sequence[SlotMap]
    ) -> str:
        """Per-conjunct survivor-list filter loops (shared preamble)."""
        lines: List[str] = []
        declared: set = set()
        for conjunct in conjuncts:
            used: set = set()
            src = self._compile_columnar(conjunct, slot_maps, "_c{slot}[i]", used)
            for slot in sorted(used - declared):
                lines.append(f"    _c{slot} = B.col({slot})\n")
            declared |= used
            lines.append(
                "    keep = []\n"
                "    _ka = keep.append\n"
                "    for i in rows:\n"
                "        try:\n"
                f"            if ({src}):\n"
                "                _ka(i)\n"
                "            else:\n"
                "                d += 1\n"
                "        except DiscardTuple:\n"
                "            d += 1\n"
                "    rows = keep\n"
            )
        return "".join(lines)

    def _compile_columnar(
        self, expr: Expr, slot_maps: Sequence[SlotMap],
        template: str, used: set,
    ) -> str:
        """Compile ``expr`` with column references rewritten to columnar
        array reads (``template`` formats the slot); collects slots."""
        self._column_ref = (template, used)
        try:
            return self._compile(expr, slot_maps, 1)
        finally:
            self._column_ref = None

    def _finalize_source(self, name: str, source: str) -> Callable:
        self.generated_sources.append(source)
        code = compile(source, f"<gsql:{self.analyzed.name or 'anonymous'}>", "exec")
        exec(code, self._env)
        return self._env[name]

    # -- aggregate kernels --------------------------------------------------
    #
    # The generic loops in repro.operators.aggregates walk the aggregate
    # list per tuple and compare names; a plan's list is fixed, so the
    # loop unrolls into one straight-line function per entry point with
    # the argument expressions inlined.  Statement order follows the
    # generic loops exactly (one aggregate after another, argument
    # evaluated before its slot is touched), so a DiscardTuple or an
    # error raised half-way leaves the same partial update behind.

    def aggregate_kernels(
        self,
        aggregates: Sequence[AggCall],
        slot_maps: Optional[Sequence[SlotMap]] = (None,),
    ) -> Optional[Tuple[Optional[Callable], Optional[Callable], Callable]]:
        """Generated ``(update, update_weighted, combine)`` for a plan.

        ``update(s, t)`` folds input tuple ``t`` into state list ``s``,
        ``update_weighted(s, t, w)`` does so with Horvitz-Thompson
        weight ``w``, ``combine(s, p)`` folds the partial encoding
        ``p``.  ``slot_maps=None`` means the input carries partials,
        not the aggregates' arguments: the two update kernels are then
        ``None``.  Returns ``None`` in interpreted mode, whose
        interpreter is the generic loop.
        """
        if self.mode == "interpreted":
            return None
        update: List[str] = []
        weighted: List[str] = []
        combine: List[str] = []
        cursor = 0
        for index, agg in enumerate(aggregates):
            name = agg.name
            state = f"s[{index}]"
            partial = f"p[{cursor}]"
            cursor += 2 if name == "AVG" else 1
            if name in ("COUNT", "SUM"):
                combine.append(f"{state} += {partial}")
            elif name in ("MIN", "MAX"):
                better = "<" if name == "MIN" else ">"
                combine += [
                    f"v = {partial}",
                    f"if {state} is None or (v is not None and v {better} {state}):",
                    f"    {state} = v",
                ]
            elif name == "AVG":
                combine += [f"a = {state}", f"a[0] += {partial}",
                            f"a[1] += p[{cursor - 1}]"]
            else:
                raise CodegenError(f"cannot compile aggregate {name!r}")
            if name == "COUNT":
                update.append(f"{state} += 1")
                weighted.append(f"{state} += w")
                continue
            if slot_maps is None:
                continue
            arg = self._compile(agg.arg, slot_maps, 1)
            if name == "SUM":
                update.append(f"{state} += {arg}")
                weighted.append(f"{state} += {arg} * w")
            elif name == "AVG":
                update += [f"v = {arg}", f"a = {state}", "a[0] += v", "a[1] += 1"]
                weighted += [f"v = {arg}", f"a = {state}", "a[0] += v * w",
                             "a[1] += w"]
            else:  # order statistics fold unweighted either way
                fold = [f"v = {arg}",
                        f"if {state} is None or v {better} {state}:",
                        f"    {state} = v"]
                update += fold
                weighted += fold

        def link(args: str, body: List[str]) -> Callable:
            name = f"_g{self._counter}"
            self._counter += 1
            lines = "".join(f"    {line}\n" for line in body or ["pass"])
            return self._finalize_source(name, f"def {name}({args}):\n{lines}")

        if slot_maps is None:
            return None, None, link("s, p", combine)
        return (link("s, t", update), link("s, t, w", weighted),
                link("s, p", combine))

    def _finalize_batch(self, pred_src: str, action: str) -> Callable:
        name = f"_g{self._counter}"
        self._counter += 1
        guard = (f"            if not ({pred_src}):\n"
                 f"                d += 1\n"
                 f"                continue\n") if pred_src else ""
        source = (
            f"def {name}(rows, append):\n"
            f"    d = 0\n"
            f"    for t in rows:\n"
            f"        try:\n"
            f"{guard}"
            f"            {action}\n"
            f"        except DiscardTuple:\n"
            f"            d += 1\n"
            f"    return d\n"
        )
        self.generated_sources.append(source)
        code = compile(source, f"<gsql:{self.analyzed.name or 'anonymous'}>", "exec")
        exec(code, self._env)
        return self._env[name]

    def post_tuple_fn(self, exprs: Sequence[Expr]) -> Callable[[tuple, tuple], Optional[tuple]]:
        """Post-aggregation tuple builder over (key, agg-values)."""
        if self.mode == "interpreted":
            evaluator = self._interp_evaluator((None,), "post")
            def build(k: tuple, a: tuple) -> Optional[tuple]:
                try:
                    return tuple(evaluator(e, (k, a)) for e in exprs)
                except DiscardTuple:
                    return None
            return build
        parts = [self._compile(e, (None,), "post") for e in exprs]
        body = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        return self._finalize(body, "post", on_discard="None")

    def post_predicate_fn(self, expr: Optional[Expr]) -> Callable[[tuple, tuple], bool]:
        """Post-aggregation (HAVING) predicate over (key, agg-values)."""
        if expr is None:
            return lambda k, a: True
        if self.mode == "interpreted":
            evaluator = self._interp_evaluator((None,), "post")
            def check(k: tuple, a: tuple) -> bool:
                try:
                    return bool(evaluator(expr, (k, a)))
                except DiscardTuple:
                    return False
            return check
        body = self._compile(expr, (None,), "post")
        return self._finalize(body, "post", on_discard="False")

    # -- compiled mode --------------------------------------------------------
    def _finalize(self, body: str, arity, on_discard: Optional[str]) -> Callable:
        args = ", ".join(_ARG_NAMES[arity])
        name = f"_g{self._counter}"
        self._counter += 1
        if on_discard is None:
            source = f"def {name}({args}):\n    return {body}\n"
        else:
            source = (
                f"def {name}({args}):\n"
                f"    try:\n"
                f"        return {body}\n"
                f"    except DiscardTuple:\n"
                f"        return {on_discard}\n"
            )
        self.generated_sources.append(source)
        code = compile(source, f"<gsql:{self.analyzed.name or 'anonymous'}>", "exec")
        exec(code, self._env)
        return self._env[name]

    def _compile(self, expr: Expr, slot_maps: Sequence[SlotMap], arity) -> str:
        if isinstance(expr, Literal):
            # GSQL STRING values are bytes at run time (payloads, names);
            # encode str literals so 'GET' compares equal to b'GET'.
            if isinstance(expr.value, str):
                return repr(expr.value.encode("latin-1"))
            return repr(expr.value)
        if isinstance(expr, Param):
            return f"P[{expr.name!r}]"
        if isinstance(expr, KeyRef):
            return f"k[{expr.index}]"
        if isinstance(expr, AggRef):
            return f"a[{expr.index}]"
        if isinstance(expr, Column):
            return self._compile_column(expr, slot_maps, arity)
        if isinstance(expr, UnaryOp):
            inner = self._compile(expr.operand, slot_maps, arity)
            return f"(not {inner})" if expr.op == "NOT" else f"(-{inner})"
        if isinstance(expr, BinaryOp):
            left = self._compile(expr.left, slot_maps, arity)
            right = self._compile(expr.right, slot_maps, arity)
            if expr.op == "/":
                op = "/" if self._is_float_division(expr) else "//"
            else:
                op = _BINOPS.get(expr.op)
                if op is None:
                    raise CodegenError(f"cannot compile operator {expr.op!r}")
            return f"({left} {op} {right})"
        if isinstance(expr, FuncCall):
            return self._compile_call(expr, slot_maps, arity)
        if isinstance(expr, AggCall):
            raise CodegenError(f"bare aggregate {expr} reached codegen")
        raise CodegenError(f"cannot compile {expr!r}")

    def _compile_column(self, expr: Column, slot_maps, arity) -> str:
        bound = self.analyzed.binding_of(expr)
        if bound is None:
            raise CodegenError(f"unbound column {expr}")
        slot_map = slot_maps[bound.source_index] if bound.source_index < len(slot_maps) else None
        slot = bound.attr_index if slot_map is None else slot_map[bound.attr_index]
        if self._column_ref is not None:
            template, used = self._column_ref
            used.add(slot)
            return template.format(slot=slot)
        names = _ARG_NAMES[arity]
        var = names[bound.source_index] if arity == 2 else names[0]
        return f"{var}[{slot}]"

    def _is_float_division(self, expr: BinaryOp) -> bool:
        left_type = self.analyzed.types.get(id(expr.left))
        right_type = self.analyzed.types.get(id(expr.right))
        return left_type is FLOAT or right_type is FLOAT

    def _compile_call(self, expr: FuncCall, slot_maps, arity) -> str:
        spec = self.functions.get(expr.name)
        fn_name = self._bind_function(spec)
        parts = []
        for position, arg in enumerate(expr.args):
            if position in spec.handle_params:
                parts.append(self._bind_handle(spec, arg))
            else:
                parts.append(self._compile(arg, slot_maps, arity))
        return f"{fn_name}({', '.join(parts)})"

    def _bind_function(self, spec: FunctionSpec) -> str:
        name = f"_f_{spec.name.lower()}"
        if name not in self._env:
            implementation = spec.implementation
            if spec.partial:
                def wrapped(*args, _impl=implementation):
                    result = _impl(*args)
                    if result is None:
                        raise DiscardTuple()
                    return result
                self._env[name] = wrapped
            else:
                self._env[name] = implementation
        return name

    def _bind_handle(self, spec: FunctionSpec, arg: Expr) -> str:
        """Resolve a pass-by-handle argument at instantiation time."""
        if isinstance(arg, Literal):
            raw = arg.value
        elif isinstance(arg, Param):
            if arg.name not in self.params:
                raise CodegenError(f"handle parameter ${arg.name} not supplied")
            raw = self.params[arg.name]
        else:
            raise CodegenError(
                f"pass-by-handle argument of {spec.name} must be a literal "
                "or query parameter"
            )
        cache_key = (spec.name.lower(), raw if isinstance(raw, (str, bytes, int, float)) else id(raw))
        if cache_key in self._handle_cache:
            return self._handle_cache[cache_key]
        handle = spec.handle_loader(raw)
        name = f"_h{len(self._handle_cache)}"
        self._env[name] = handle
        self._handle_cache[cache_key] = name
        return name

    # -- interpreted mode -------------------------------------------------------
    def _interp_evaluator(self, slot_maps, arity):
        analyzed = self.analyzed
        functions = self.functions
        params = self.params
        handle_memo: Dict[int, Any] = {}

        def evaluate(expr: Expr, tuples: Tuple[tuple, ...]) -> Any:
            if isinstance(expr, Literal):
                if isinstance(expr.value, str):
                    return expr.value.encode("latin-1")
                return expr.value
            if isinstance(expr, Param):
                return params[expr.name]
            if isinstance(expr, KeyRef):
                return tuples[0][expr.index]
            if isinstance(expr, AggRef):
                return tuples[1][expr.index]
            if isinstance(expr, Column):
                bound = analyzed.binding_of(expr)
                slot_map = (
                    slot_maps[bound.source_index]
                    if bound.source_index < len(slot_maps) else None
                )
                slot = bound.attr_index if slot_map is None else slot_map[bound.attr_index]
                row = tuples[bound.source_index] if arity == 2 else tuples[0]
                return row[slot]
            if isinstance(expr, UnaryOp):
                value = evaluate(expr.operand, tuples)
                return (not value) if expr.op == "NOT" else -value
            if isinstance(expr, BinaryOp):
                if expr.op == "AND":
                    return bool(evaluate(expr.left, tuples)) and bool(
                        evaluate(expr.right, tuples)
                    )
                if expr.op == "OR":
                    return bool(evaluate(expr.left, tuples)) or bool(
                        evaluate(expr.right, tuples)
                    )
                left = evaluate(expr.left, tuples)
                right = evaluate(expr.right, tuples)
                return _apply_binop(expr, left, right, self._is_float_division)
            if isinstance(expr, FuncCall):
                spec = functions.get(expr.name)
                args = []
                for position, arg in enumerate(expr.args):
                    if position in spec.handle_params:
                        key = id(arg)
                        if key not in handle_memo:
                            if isinstance(arg, Literal):
                                raw = arg.value
                            elif isinstance(arg, Param):
                                raw = params[arg.name]
                            else:
                                raise CodegenError(
                                    f"bad handle argument for {spec.name}"
                                )
                            handle_memo[key] = spec.handle_loader(raw)
                        args.append(handle_memo[key])
                    else:
                        args.append(evaluate(arg, tuples))
                result = spec.implementation(*args)
                if spec.partial and result is None:
                    raise DiscardTuple()
                return result
            raise CodegenError(f"cannot evaluate {expr!r}")

        return evaluate

    def _interp_tuple_fn(self, exprs, slot_maps, arity):
        evaluator = self._interp_evaluator(slot_maps, arity)
        def build(*tuples) -> Optional[tuple]:
            try:
                return tuple(evaluator(e, tuples) for e in exprs)
            except DiscardTuple:
                return None
        return build

    def _interp_predicate_fn(self, conjuncts, slot_maps, arity):
        evaluator = self._interp_evaluator(slot_maps, arity)
        def check(*tuples) -> bool:
            try:
                return all(bool(evaluator(c, tuples)) for c in conjuncts)
            except DiscardTuple:
                return False
        return check


def _chained_batch_select(predicate, project):
    """Interpreted-mode batch select: loop the scalar call chain."""
    def run(rows, append):
        d = 0
        for t in rows:
            if not predicate(t):
                d += 1
                continue
            out = project(t)
            if out is None:
                d += 1
                continue
            append(out)
        return d
    return run


def _chained_batch_key(predicate, key_fn):
    """Interpreted-mode batch keying: loop the scalar call chain."""
    def run(rows, append):
        d = 0
        for t in rows:
            if not predicate(t):
                d += 1
                continue
            key = key_fn(t)
            if key is None:
                d += 1
                continue
            append((key, t))
        return d
    return run


def _apply_binop(expr: BinaryOp, left: Any, right: Any, is_float_division) -> Any:
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
        return left / right if is_float_division(expr) else left // right
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
    raise CodegenError(f"unknown operator {op!r}")


# -- shard partition kernels (DESIGN section 15) -----------------------------
#
# The sharded runtime hash-partitions raw packets by flow key before any
# LFTA sees them.  Like the fused batch kernels above, the hot loop is
# generated and exec-compiled once per configuration: the shard count
# and shard index are baked in as constants and the IPv4/TCP-or-UDP
# fast-path guard is inlined, so the per-packet cost is one slice, one
# crc32, and one modulo.  The generated sources are recorded in
# :data:`PARTITION_SOURCES` for inspection, mirroring
# ``ExprCompiler.generated_sources``.

#: generated partition-kernel sources, for inspection and tests
PARTITION_SOURCES: List[str] = []

_PARTITION_TEMPLATE = '''\
def {name}(packets, append):
    crc = _crc32
    slow = _slow_hash
    for p in packets:
        d = p.data
        if (len(d) >= 38 and d[12] == 8 and d[13] == 0 and d[14] == 69
                and (d[20] & 31) == 0 and d[21] == 0
                and (d[23] == 6 or d[23] == 17)):
            h = crc(d[26:38]) ^ d[23]
        else:
            h = slow(d)
        if h % {nshards} == {shard}:
            append(p)
'''


def make_partition_filter(nshards: int, shard: int,
                          slow_hash: Callable[[bytes], int]) -> Callable:
    """A fused ``f(packets, append)`` keeping one shard's packets.

    ``append`` receives every packet whose flow hash lands on ``shard``
    under ``nshards``-way partitioning.  The inlined fast path must
    compute exactly :func:`repro.shard.partition.flow_hash` (the
    property test in ``tests/test_shard.py`` holds the two together);
    everything off the fast path defers to ``slow_hash``, which is that
    same canonical function.
    """
    import zlib as _zlib
    name = f"_partition_{nshards}_{shard}"
    source = _PARTITION_TEMPLATE.format(
        name=name, nshards=nshards, shard=shard)
    PARTITION_SOURCES.append(source)
    env = {"_crc32": _zlib.crc32, "_slow_hash": slow_hash}
    code = compile(source, f"<gsql:partition/{nshards}:{shard}>", "exec")
    exec(code, env)
    return env[name]
