"""GSQL code generation.

The paper's GSQL processor "is actually a code generator": queries are
translated to C/C++, compiled, and linked into the run-time system.
This module is the Python analog: expressions are translated to Python
source, compiled with :func:`compile`, and the resulting closures are
linked into the operator objects.  The generated source is retained on
the compiler (``generated_sources``) for inspection and tests.

Conventions in generated code:

* ``t`` -- the input tuple (or ``l``/``r`` for join inputs)
* ``k`` / ``aN`` -- a closing group's key tuple / final aggregate values
* ``P`` -- the query-parameter dict (mutable; on-the-fly changes)
* ``_fN`` / ``_hN`` -- resolved function implementations and handles
* ``_index`` -- ``operator.index``: an LFTA's probe checks with it that
  a key part which is not an integer by construction is one before the
  key reaches ``hash()`` (the tuple hash, :func:`_place_key`)

Partial functions signal "no result" by raising :class:`DiscardTuple`;
the wrappers installed here convert a ``None`` return into that raise,
and every generated entry point catches it and discards the tuple --
"the processing is the same as if there is no result from a join".
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappush
from itertools import groupby
from operator import index, itemgetter, length_hint
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

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
from repro.gsql.planner import column_slots
from repro.gsql.semantic import AggRef, AnalyzedQuery, KeyRef
from repro.gsql.types import FLOAT
from repro.gsql.unparse import conjunction_to_gsql, expr_to_gsql
from repro.net.columnar import ActionSource, Prefilter, RowAction, shed_gate


class DiscardTuple(Exception):
    """Raised by a partial function with no result: drop the tuple."""


class CodegenError(ValueError):
    """Raised when an expression cannot be compiled."""


# Tuple-argument names by arity: 1 input, 2 join inputs.
_ARG_NAMES = {1: ("t",), 2: ("l", "r")}

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

#: operators that take two integers to an integer (``/`` compiles to
#: ``//`` between integers)
_INTEGER_OPS = frozenset("+ - * / % & | ^ << >>".split())

#: the shortest block, and the shortest run, an aggregation's run loop
#: folds: a shorter block (a block of one row above all) takes the row
#: loop, and a shorter run hands it the rest of its block -- about where
#: a run's fixed cost (``groupby``, ``[*run]``, ``map``) stops paying
RUNS_FROM = 16


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
    ) -> None:
        self.analyzed = analyzed
        self.functions = functions
        self.params: Dict[str, Any] = dict(params or {})
        self.generated_sources: List[str] = []
        self._env: Dict[str, Any] = {"P": self.params, "_index": index,
                                     "_heappush": heappush,
                                     "groupby": groupby,
                                     "itemgetter": itemgetter,
                                     "DiscardTuple": DiscardTuple}
        self._counter = 0
        #: when set, column references compile to something other than
        #: tuple indexing: slot -> source (see :meth:`_reading`)
        self._column_ref: Optional[Callable[[int], str]] = None
        #: the name generated code reads the parameter dict under
        self._params_ref = "P"
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
        parts = [self._compile(e, slot_maps, arity) for e in exprs]
        body = _tuple_src(parts)
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
        body = " and ".join(
            "(" + self._compile(c, slot_maps, arity) + ")" for c in conjuncts
        )
        return self._finalize(body, arity, on_discard="False")

    # -- batched (fused) entry points ---------------------------------------
    #
    # The scalar API compiles the predicate and the tuple builder into
    # *separate* callables and the operator chains them per tuple; the
    # fused variants emit ONE generated function that runs the whole
    # predicate->project (or ->key->fold) pipeline over a block of rows,
    # hoisting the call chain out of the inner loop (MonetDB/X100 style
    # vectorized execution; DESIGN section 10).  Per-row semantics are
    # byte-identical to the scalar chain: conjuncts short-circuit in the
    # same order and DiscardTuple counts the row as discarded
    # (_row_source).

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
        row = self._row_source(conjuncts, exprs, slot_maps)
        return self._link("rows, append", [
            "dropped = 0",
            "for t in rows:",
        ] + _indent(row.lines + [f"append({row.key})"]) + [
            "return dropped",
        ])

    # -- the capture front end (DESIGN section 14) ---------------------------
    #
    # A plan's per-row work is rendered once, as a RowAction, and spliced
    # under whichever loop header owns its rows: a block kernel
    # (repro.net.columnar.block_kernel -- the run-time system's, or the
    # LFTA's own with itself as the one member; either source joins this
    # compiler's through record_source) or the row adapter's tuples
    # (lfta_adapter_fn).  Nothing is materialized between decode and
    # operator state, so the semantics are row-at-a-time by construction:
    # conjuncts short-circuit in order, DiscardTuple discards the row
    # whole, and an error at row k leaves counters, state and output as k
    # single-row steps would.

    def record_source(self, source: str) -> None:
        """Keep ``source`` -- code generated outside this compiler that
        runs this plan's row action, a block kernel -- with the rest,
        once however often it is regenerated."""
        if source not in self.generated_sources:
            self.generated_sources.append(source)

    def prefilter(self, conjuncts: Sequence[Expr]) -> Optional[Prefilter]:
        """``conjuncts`` (a plan's pushed prefix, ``LftaPlan.prefix``)
        as a block-decoder generator takes them; None when empty.

        The generator decides where each attribute sits in its unpack
        tuple and calls ``render`` back with that, so the same prefix
        serves this plan's own decoder, its lean form and the block
        kernel's section it shares with other plans.  ``$params``
        compile to reads of this compiler's dict, so ``set_param``
        bites on the next block.
        """
        if not conjuncts:
            return None

        def render(columns, params: str) -> str:
            with self._reading(columns, params):
                return self._conjunction(conjuncts, (None,))

        reads_params = any(isinstance(node, Param) for conjunct in conjuncts
                           for node in conjunct.walk())
        return Prefilter(frozenset(column_slots(self.analyzed, conjuncts)),
                         render,
                         self.params if reads_params else None,
                         conjunction_to_gsql(conjuncts))

    def lfta_action(self, plan, node, skip: int = 0) -> RowAction:
        """What the LFTA ``node`` of ``plan`` (an ``LftaPlan``) does
        with a row once a loop header has it, after the first ``skip``
        conjuncts (the pushed prefix, when the header's loop tested
        it): the ``DEFINE sample`` draw, the remaining conjuncts in
        order, then

        * projection: build the output tuple onto a block-local list;
        * partial aggregation: evaluate the group key's parts and the
          aggregate arguments (no result => the row is discarded,
          nothing touched), then the HFTA's *key-run cache*
          (:meth:`hfta_aggregate_fn`): a key equal to the previous
          row's counts its lookup and folds into the slot ``i`` in
          hand.  Only a changed key builds the key tuple, checks the
          window high-water mark, places the key (``hash(k) % size``
          where :meth:`stable_hash_reason` is None, :func:`_place_key`)
          and probes the table's key array.  The fold writes the
          table's columns (``c0[i]``, ...) and carries the shed gate's
          Horvitz-Thompson weight.  An ejected group's ``key +
          partials`` row, read out of the columns before the new group
          overwrites them, joins the block-local list, which leaves
          ahead of any window flush.

        The cache cannot go stale: its group leaves the slot only by a
        probe of another key or ``_flush_below`` (the changed path,
        ahead of its own probe) or between blocks (``evict_if``,
        ``evict_all``, ``restore_state``, ``set_param``), and every
        block starts it empty.

        The ``finally`` of the loop the lines are spliced under moves
        the node's counters and emits the list, so an exception at row
        *k* leaves table, counters and output as *k* single-row blocks
        would.
        """
        conjuncts = plan.predicates[skip:]
        maps = (None, None)
        sampled = plan.sample_rate is not None
        projection = plan.mode == "projection"
        exprs = plan.project_exprs if projection else plan.group_exprs
        arguments = [agg.arg for agg in plan.aggregates
                     if agg.arg is not None]

        def render(columns=None) -> ActionSource:
            setup = ["dropped = 0"]
            body: List[str] = []
            finish = ["node.stats.discarded += dropped"]
            if sampled:
                setup += ["sampled = 0"] + _SAMPLE_SETUP
                body += _sample_gate("sampled")
                finish.append("node.sampled_out += sampled")
            with self._reading(columns):
                if projection:
                    row = self._row_source(conjuncts, exprs, maps)
                    setup += ["out = []", "emit = out.append"]
                    body += row.lines + [f"emit({row.key})"]
                else:
                    src = self._aggregate_source(plan.aggregates, maps, "i")
                    row = self._row_source(conjuncts, exprs, maps, src.args,
                                           target="g", parts=True)
                    empty, changed, rekey = _key_run(row, "i")
                    setup += _TABLE_SETUP + _columns(
                        "table.columns", len(src.columns)) + [empty]
                    if plan.window_key_index >= 0:
                        setup += _WINDOW_SETUP
                        rekey += _window_check("k[index]", [
                            "i = None", "dropped += 1", "continue"],
                            _EMIT_EJECTED)
                    rekey += _place_key(self._checked_parts(
                        exprs, row.parts, columns is not None))
                    probe, fold = _table_probe(src)
                    body += row.lines + [changed] + _indent(rekey + probe) + [
                        "else:", "    lookups += 1"] + fold
                    finish.append(
                        "table.close_block(lookups, occupied, collisions)")
            finish.append("node.emit_many(out)")
            return ActionSource(setup, body, finish,
                                dict(self._env, node=node))

        return RowAction(frozenset(column_slots(
            self.analyzed, conjuncts + exprs + arguments)), render)

    def lfta_adapter_fn(self, action: RowAction,
                        sheds: bool = False) -> Callable:
        """``f(packets)``: the row adapter's loop header around
        ``action`` -- every tuple the node's sparse interpreter makes
        of a packet (``node._interpret``; an expander may make several)
        goes through the action before the next packet is touched.
        With ``sheds`` the shed gate (:func:`~repro.net.columnar.shed_gate`)
        draws per packet ahead of the interpreter.  The loop's
        ``finally`` moves ``packets_seen`` by the packets it took: all
        of them, or those up to the one that raised."""
        spliced = action.render()
        gate = shed_gate(sheds)
        return self._link("packets", [
            "interpret = node._interpret",
            "it = iter(packets)",
            "m = 0",
        ] + gate.setup + spliced.setup + [
            "try:",
            "    for p in it:",
        ] + _indent(gate.body, 2) + [
            "        for t in interpret(p):",
            "            m += 1",
        ] + _indent(spliced.body, 3) + [
            "finally:",
            "    node.packets_seen += len(packets) - length_hint(it)",
            "    node.stats.tuples_in += m",
        ] + _indent(gate.finish + spliced.finish),
            dict(spliced.env, length_hint=length_hint))

    # -- row sources ----------------------------------------------------------

    @contextmanager
    def _reading(self, columns=None, params: str = "P"):
        """Compile column references as ``columns[slot]`` (None: tuple
        indexing, ``t[slot]``) and ``$param`` reads off the dict named
        ``params`` for the length of the block."""
        previous = self._column_ref, self._params_ref
        self._column_ref = None if columns is None else columns.__getitem__
        self._params_ref = params
        try:
            yield
        finally:
            self._column_ref, self._params_ref = previous

    def _conjunction(self, conjuncts: Sequence[Expr],
                     slot_maps: Sequence[SlotMap]) -> str:
        return " and ".join(
            "(" + self._compile(c, slot_maps, 1) + ")" for c in conjuncts)

    def _row_source(
        self,
        conjuncts: Sequence[Expr],
        exprs: Sequence[Expr],
        slot_maps: Sequence[SlotMap],
        then: Sequence[str] = (),
        target: Optional[str] = "x",
        parts: bool = False,
    ) -> "_RowSource":
        """The lines that test ``conjuncts`` in order, build ``exprs``
        into the tuple ``target`` (``parts``: into one local per
        element instead, ``target0`` ...; no ``exprs`` bind the empty
        tuple, the one group of an aggregate without GROUP BY; a None
        ``target`` builds nothing) and run ``then`` (aggregate
        arguments) -- everything about a row that can have no result,
        ahead of anything that touches state.  No result counts the row
        into ``dropped`` and ``continue``s.
        """
        drop = ["    dropped += 1", "    continue"]
        inner: List[str] = []
        if conjuncts:
            inner += [f"if not ({self._conjunction(conjuncts, slot_maps)}):"] + drop
        built = [self._compile(e, slot_maps, 1) for e in exprs]
        names = None
        if parts:
            names = [f"{target}{i}" for i in range(len(built))]
            inner += [f"{name} = {src}" for name, src in zip(names, built)]
            target = _tuple_src(names)
        elif target is not None:
            inner.append(f"{target} = {_tuple_src(built)}")
        inner += then
        if inner:
            inner = (["try:"] + _indent(inner)
                     + ["except DiscardTuple:"] + drop)
        return _RowSource(inner, target, names)

    def _finalize_source(self, name: str, source: str,
                         env: Optional[Dict[str, Any]] = None) -> Callable:
        """Record ``source`` and link it against ``env`` (default: this
        compiler's own globals)."""
        env = self._env if env is None else env
        self.generated_sources.append(source)
        code = compile(source, f"<gsql:{self.analyzed.name or 'anonymous'}>", "exec")
        exec(code, env)
        return env[name]

    # -- aggregate kernels --------------------------------------------------
    #
    # A plan's aggregate list is fixed, so its fold is straight-line
    # statements with the argument expressions inlined
    # (_aggregate_source), over the group's row of the state columns,
    # inside the per-plan loops that probe, fold, eject and close
    # (lfta_action, hfta_aggregate_fn, hfta_close_fn; DESIGN section
    # 18).  Every argument is evaluated before any state is touched, so
    # a DiscardTuple discards the tuple whole; an error raised by a fold
    # leaves the slots before it folded, as a fold one aggregate at a
    # time does (tests/reference/aggregation.py).

    def stable_hash_reason(self, group_exprs: Sequence[Expr]
                           ) -> Optional[str]:
        """Why this plan's group keys are placed by
        :func:`~repro.stable.stable_hash`, or None when they take
        the tuple hash (:func:`~repro.stable.tuple_hash`).

        Decided from static types, never from values, so every run
        places a given key identically: every group expression must
        have an integer GSQL type (UINT, INT, ULLONG, IP, IP6 -- not
        BOOL) and read no query parameter (a ``$param`` is typed UINT
        but carries whatever the caller binds).
        """
        types = self.analyzed.types
        for expr in group_exprs:
            gsql_type = types.get(id(expr))
            if gsql_type is None or gsql_type.python_type is not int:
                kind = "untyped" if gsql_type is None else gsql_type.name
                return f"group key {expr_to_gsql(expr)} is {kind}"
            params = [node.name for node in expr.walk()
                      if isinstance(node, Param)]
            if params:
                return f"group key {expr_to_gsql(expr)} reads ${params[0]}"
        return None

    def _checked_parts(self, exprs: Sequence[Expr], parts: Sequence[str],
                       decoded: bool) -> Optional[List[str]]:
        """The parts (named ``parts``) of a group key the tuple hash
        must check on each row, or None when the plan's keys take
        :func:`~repro.stable.stable_hash`.  A part is an integer by
        construction -- no check -- when it is an integer literal, a
        column a block kernel decodes (``decoded``: header fields,
        ``time`` and ``len``; a row adapter's fields are whatever its
        protocol's functions return) or integer arithmetic over those;
        anything else, a function's result above all, is checked."""
        if self.stable_hash_reason(exprs) is not None:
            return None
        return [part for part, expr in zip(parts, exprs)
                if not self._integral(expr, decoded)]

    def _integral(self, expr: Expr, decoded: bool) -> bool:
        """Whether ``expr`` evaluates to an ``int`` on every row."""
        if isinstance(expr, Literal):
            return type(expr.value) is int
        if isinstance(expr, Column):
            gsql_type = self.analyzed.types.get(id(expr))
            return (decoded and gsql_type is not None
                    and gsql_type.python_type is int)
        if isinstance(expr, UnaryOp):
            return expr.op == "-" and self._integral(expr.operand, decoded)
        if isinstance(expr, BinaryOp):
            return (expr.op in _INTEGER_OPS
                    and self._integral(expr.left, decoded)
                    and self._integral(expr.right, decoded))
        return False

    def _aggregate_source(
        self,
        aggregates: Sequence[AggCall],
        slot_maps: Optional[Sequence[SlotMap]],
        row: str,
        partial_base: int = 0,
    ) -> "_AggregateSource":
        """The statements ``aggregates`` unroll into (see
        :class:`_AggregateSource`), over the group's row ``row`` of the
        columns ``c0, c1, ...`` -- one per partial slot.

        ``slot_maps=None`` means the input carries partials, not the
        aggregates' arguments: ``args`` and the folds are then empty.
        ``combine`` reads the partial encoding from slot
        ``partial_base`` of the input tuple ``t`` on.
        """
        args: List[str] = []
        initial: List[str] = []
        fold: List[str] = []
        weighted: List[str] = []
        combine: List[str] = []
        partials: List[str] = []
        finals: List[str] = []
        cursor = 0
        for index, agg in enumerate(aggregates):
            name = agg.name
            value = f"v{index}"
            width = 2 if name == "AVG" else 1
            state = [f"c{cursor + i}[{row}]" for i in range(width)]
            encoded = [f"t[{partial_base + cursor + i}]"
                       for i in range(width)]
            cursor += width
            partials += state
            if name != "COUNT" and slot_maps is not None:
                args.append(f"{value} = {self._compile(agg.arg, slot_maps, 1)}")
            if name in ("COUNT", "SUM"):
                slot, = state
                initial.append(0)
                finals.append(slot)
                combine.append(f"{slot} += {encoded[0]}")
                if name == "COUNT":
                    fold.append(f"{slot} += 1")
                    weighted.append(f"{slot} += w")
                else:
                    fold.append(f"{slot} += {value}")
                    weighted.append(f"{slot} += {value} * w")
            elif name in ("MIN", "MAX"):
                slot, = state
                better = "<" if name == "MIN" else ">"
                initial.append(None)
                finals.append(slot)
                combine += [
                    f"c = {encoded[0]}",
                    f"if {slot} is None or (c is not None and c {better} {slot}):",
                    f"    {slot} = c",
                ]
                # order statistics fold unweighted either way
                order = [f"if {slot} is None or {value} {better} {slot}:",
                         f"    {slot} = {value}"]
                fold += order
                weighted += order
            elif name == "AVG":
                total, count = state
                initial.append([0.0, 0])
                finals.append(f"({total} / {count} if {count} else 0.0)")
                combine += [f"{total} += {encoded[0]}",
                            f"{count} += {encoded[1]}"]
                fold += [f"{total} += {value}", f"{count} += 1"]
                weighted += [f"{total} += {value} * w", f"{count} += w"]
            else:
                raise CodegenError(f"cannot compile aggregate {name!r}")
        if slot_maps is None:
            fold, weighted = [], []
        return _AggregateSource(
            args=args, initial=initial, fold=fold, fold_weighted=weighted,
            combine=combine, partials=_tuple_src(partials), finals=finals)

    def _link(self, signature: str, body: Sequence[str],
              env: Optional[Dict[str, Any]] = None) -> Callable:
        """Compile ``def _gN(signature):`` over ``body`` lines."""
        name = f"_g{self._counter}"
        self._counter += 1
        return self._finalize_source(
            name, f"def {name}({signature}):\n" + "".join(
                line + "\n" for line in _indent(body or ["pass"])), env)

    # The block kernels are linked against the operator that runs them:
    # they read and write the node's own attributes (``node.table``,
    # ``node._groups``, ``node._columns``, ``node._high_water``,
    # ``node._window_index`` / ``_window_band``, ``node.stats``) and call
    # back into it for what stays per window, not per row
    # (``node._flush_below``, ``node._compact``, ``node.emit_many``).
    # Group state is in columns on both levels (DESIGN section 18):
    # ``c0, c1, ...`` at the group's slot ``i`` or row ``r``.  The LFTA's
    # is its row action (:meth:`lfta_action`); the HFTA's follows.

    def hfta_aggregate_fn(self, plan) -> Callable:
        """The HFTA's ``f(node, rows)`` for ``plan`` (an aggregation
        ``HftaPlan``): one block into the group dict, one loop.

        Raw tuples: per row the ``DEFINE sample`` draw, the predicate,
        the group expressions into locals and the aggregate arguments
        (no result from any of them discards the row, nothing
        touched); then the *key-run cache*: the key's parts are
        compared with the previous row's, and an unchanged key folds
        straight into the state already in hand -- no key tuple, no
        window check, no dict probe -- which is what an ordered group
        key makes the common case (paper Section 2.1).  A changed key
        builds the tuple, checks the window high-water mark and
        probes.  The cache lives for one block and is refilled by the
        probe that follows any ``_flush_below``, which only a changed
        key can reach.  Equality is the dict's own: parts that compare
        equal (``1``, ``1.0``, ``True``) share a group there too, and a
        NaN part never equals itself, so it probes every row.

        Partial aggregates (``plan.final_from_partials``): the key is
        the first slots of the row and the rest is combined into the
        group, after the predicate; no cache (an LFTA emits a group
        once per window).

        The dict maps a key to its row ``r`` in the node's columns
        (``c0[r]``, ...; a new group appends a row, numbered
        ``len(groups)``), and the cache holds that row.  A close that
        compacts the columns (``AggregationNode._compact``) renumbers
        rows, but it runs only inside ``_flush_below`` -- ahead of the
        changed path's own probe -- or between blocks.
        """
        partials = plan.final_from_partials
        slot_maps = tuple(plan.slot_maps)
        setup = ["groups = node._groups", "dropped = 0"]
        loop: List[str] = []
        if partials:
            key_width = len(self.analyzed.group_exprs)
            src = self._aggregate_source(plan.aggregates, None, "r",
                                         key_width)
            row = self._row_source(plan.predicates, (), slot_maps,
                                   target=None)
            loop += row.lines + [f"k = t[:{key_width}]"]
            window = "k[index]"
        else:
            src = self._aggregate_source(plan.aggregates, slot_maps, "r")
            row = self._row_source(plan.predicates, plan.group_exprs,
                                   slot_maps, src.args, target="g",
                                   parts=True)
            if plan.sample_rate is not None:
                setup += _SAMPLE_SETUP
                loop += _sample_gate("dropped")
            loop += row.lines
            empty, changed, commit = _key_run(row, "r")
            window = f"g{plan.window_key_index}"
            setup.append(empty)
        setup += _columns("node._columns", len(src.columns))
        probe = [
            "r = groups.get(k)",
            "if r is None:",
            "    r = groups[k] = len(groups)",
        ] + [f"    c{j}.append({value!r})"
             for j, value in enumerate(src.columns)]
        checked = probe
        if plan.window_key_index >= 0:
            setup += _WINDOW_SETUP
            # Partials need no late branch: their one LFTA dropped its
            # late rows, and a group it ejects is of a window open here.
            checked = _window_check(window, () if partials else [
                "r = None", "dropped += 1", "continue"]) + probe
        if partials:
            loop += checked + src.combine
        else:
            loop += [changed] + _indent(commit + checked) + src.fold
        row_loop = self._link("node, rows", setup + [
            "try:",
            "    for t in rows:",
        ] + _indent(loop, 2) + [
            "finally:",
            "    node.stats.discarded += dropped",
        ])
        if plan.run_slot is None:
            return row_loop
        return self._hfta_runs_fn(plan, row_loop.__name__, window, probe,
                                  len(src.columns))

    def _hfta_runs_fn(self, plan, row_loop: str, window: str,
                      probe: List[str], width: int) -> Callable:
        """The run loop of an aggregation the planner marked
        (``plan.run_slot``, :func:`repro.gsql.planner._mark_runs`): the
        same fold as the row loop ``row_loop``, a run at a time.

        ``groupby`` cuts the block into runs of rows whose window
        column ``s`` is equal.  Equal values give equal keys, so per
        run the key is evaluated once, on the run's first value, and
        the key-run test, the window check and the probe run once; the
        folds become ``c0[r] += n`` (COUNT), ``sum``, ``min`` and
        ``max`` over the run's column.  Everything that can raise runs
        before the run touches a column: a ``DiscardTuple`` from the
        key drops the whole run, as it would each of its rows, and so
        does a window key that is late (every row counts); any
        other exception -- from the key, a fold (a ``None`` summed),
        a MIN/MAX compare or ``groupby`` itself (a short row) -- hands
        the block, from the run's first row, to ``row_loop``, which
        raises at the same row with the same state.  The window check
        and probe the run made are the ones ``row_loop`` makes at that
        row, and repeat as no-ops; an exception from a window close
        propagates as the row loop's would.  A block shorter than
        ``RUNS_FROM`` rows takes the row loop, and a shorter run hands
        the rest of its block to it the same way.
        """
        slot_maps = tuple(plan.slot_maps)
        with self._reading({plan.run_slot: "s"}):
            keys = [self._compile(expr, slot_maps, 1)
                    for expr in plan.group_exprs]
        parts = [f"g{i}" for i in range(len(keys))]
        empty, changed, commit = _key_run(
            _RowSource([], _tuple_src(parts), parts), "r")
        getters = {plan.run_slot}
        values = [f"{part} = {key}" for part, key in zip(parts, keys)]
        merges: List[str] = []
        writes: List[str] = []
        for j, agg in enumerate(plan.aggregates):
            if agg.name == "COUNT":
                writes.append(f"c{j}[r] += n")
                continue
            slot = self._column_slot(agg.arg, slot_maps)
            getters.add(slot)
            if agg.name == "SUM":
                values.append(f"v{j} = sum(map(get{slot}, run))")
                writes.append(f"c{j}[r] += v{j}")
            else:
                better = "<" if agg.name == "MIN" else ">"
                values.append(f"v{j} = {agg.name.lower()}(map(get{slot}, run))")
                merges += [f"m{j} = c{j}[r]",
                           f"if m{j} is None or v{j} {better} m{j}:",
                           f"    m{j} = v{j}"]
                writes.append(f"c{j}[r] = m{j}")
        if merges:
            merges = ["try:"] + _indent(merges) + [
                "except Exception:", "    break"]
        setup = ["groups = node._groups", "dropped = 0", empty] + [
            f"get{slot} = itemgetter({slot})" for slot in sorted(getters)
        ] + _columns("node._columns", width) + _WINDOW_SETUP + ["at = 0"]
        if plan.window_key_index >= 0:
            probe = _window_check(window, [
                "r = None", "dropped += n", "at += n", "continue"]) + probe
        return self._link("node, rows", [
            f"if len(rows) < {RUNS_FROM}:",
            f"    return {row_loop}(node, rows)",
        ] + setup + [
            "try:",
            f"    for s, run in groupby(rows, get{plan.run_slot}):",
            "        try:",
            "            run = [*run]",
            "            n = len(run)",
            f"            if n < {RUNS_FROM}:",
            "                break",
        ] + _indent(values, 3) + [
            "        except DiscardTuple:",
            "            dropped += n",
            "            at += n",
            "            continue",
            "        except Exception:",
            "            break",
        ] + _indent([changed] + _indent(commit + probe) + merges + writes
                    + ["at += n"], 2) + [
            "    else:",
            "        return",
            "finally:",
            "    node.stats.discarded += dropped",
            f"return {row_loop}(node, rows[at:])",
        ])

    def hfta_join_fn(self, plan, side: int,
                     sort_slot: Optional[int]) -> Callable:
        """The join's ``f(node, rows)`` for a block arriving on input
        ``side`` of ``plan`` (a join ``HftaPlan``; DESIGN section 17).

        Per arrival, in order: an ordered value below the side's
        low-water mark is late (discarded: it neither probes nor is
        buffered); one past it advances the mark and purges the other
        side; the key tuple (bare columns: cannot raise) selects the
        other side's bucket through ``node._window_candidates``, the
        one probe entry, bound once per block; each candidate runs the
        full predicate (no result: not a pair) and the projection (no
        result: discarded); the arrival is buffered, keyed, unless the
        other input has ended.  Pairs gather in one list, emitted
        before any output punctuation and at the end of the block --
        or, with a ``sort_slot``, pushed on the reorder heap.  The
        ``finally`` moves the counters and emits the list, so an
        exception at row *k* leaves output, buffers and counters as *k*
        single-row blocks would.
        """
        other = 1 - side
        slot_maps = tuple(plan.slot_maps)
        arrival, candidate = _ARG_NAMES[2][side], _ARG_NAMES[2][other]
        slot = plan.join_slots[side][1]
        band = plan.input_schemas[side].attributes[slot].ordering.effective_band
        low, high = plan.join_window.low, plan.join_window.high
        # left - right in [low, high]: a left value v probes right in
        # [v - high, v - low], a right value v left in [v + low, v + high]
        window = (f"v - {high!r}, v - {low!r}" if side == 0
                  else f"v + {low!r}, v + {high!r}")
        key = _tuple_src([self._compile(pair[side], slot_maps, 2)
                          for pair in plan.join_keys])
        setup = [
            "low_water = node._low_water",
            f"w = low_water[{side}]",
            f"buffer = node._buffers[{side}]",
            f"keys = node._keys[{side}]",
            f"index = node._index[{side}]",
            "done = node._done",
            "depth = node._suspect_depth",
            "probe = node._window_candidates",
            "stale = node._bounds_stale",
            "dropped = pairs = 0",
        ]
        # v - band, also when band is 0.0: the mark is snapshotted
        advance = [f"w = low_water[{side}] = v - {band!r}",
                   "stale = node._bounds_stale = True",
                   f"node._purge({other})"]
        pair: List[str] = []
        if plan.predicates:
            pair = [
                "try:",
                "    if not (" + " and ".join(
                    "(" + self._compile(c, slot_maps, 2) + ")"
                    for c in plan.predicates) + "):",
                "        continue",
                "except DiscardTuple:",
                "    continue",
            ]
        pair += [
            "try:",
            "    x = " + _tuple_src([self._compile(e, slot_maps, 2)
                                     for e in plan.select_exprs]),
            "except DiscardTuple:",
            "    dropped += 1",
            "    continue",
            "pairs += 1",
        ]
        tail: List[str] = []
        finish = ["node.stats.discarded += dropped",
                  "node.pairs_emitted += pairs"]
        if sort_slot is None:
            setup += ["out = []", "emit = out.append"]
            pair.append("emit(x)")
            flush = ["if out:", "    node.emit_many(out)", "    out = []",
                     "    emit = out.append"]
            finish.append("node.emit_many(out)")
        else:
            setup.append("reorder = node._reorder")
            pair += [
                f"_heappush(reorder, (x[{sort_slot}], node._reorder_seq, x))",
                "node._reorder_seq += 1",
                "if len(reorder) > node.reorder_peak:",
                "    node.reorder_peak = len(reorder)",
            ]
            tail = ["if reorder:", "    node._release_sorted()"]
            flush = []
        tail += ["if stale:", "    stale = False"] + _indent(
            flush + ["node._emit_output_punctuation()"])
        loop = [
            f"v = {arrival}[{slot}]",
            "if v < w:",
            "    dropped += 1",
            "    continue",
            f"if v - {band!r} > w:",
        ] + _indent(advance) + [
            f"k = {key}",
            f"for {candidate} in probe({other}, k, {window}):",
        ] + _indent(pair) + [
            f"if not done[{other}]:",
        ] + _indent([
            f"buffer.append({arrival})",
            "keys.append(k)",
            "b = index.get(k)",
            "if b is None:",
            f"    index[k] = ([v], [{arrival}])",
            "else:",
            "    b[0].append(v)",
            f"    b[1].append({arrival})",
            f"if len(buffer) > depth and not node._buffers[{other}]:",
            "    node.request_heartbeat()",
        ]) + tail
        return self._link("node, rows", setup + [
            "try:",
            f"    for {arrival} in rows:",
        ] + _indent(loop, 2) + ["finally:"] + _indent(finish))

    def hfta_close_fn(self, plan, partials: bool = False) -> Callable:
        """The HFTA's ``f(node, keys)`` for ``plan`` (an aggregation
        ``HftaPlan``): close the groups of ``keys`` in that order, one
        loop.  Per key the group leaves ``node._groups`` (its row
        ``r``), its final values go into locals ``a0, a1, ...`` in
        aggregate order, read off the columns, then HAVING (when there
        is one) and the select list -- ``k + (...)`` when it is the key
        then every aggregate; no result from either counts the group
        into ``discarded``.  With ``partials`` (a shard worker,
        ``AggregationNode.enable_partial_output``) the row is ``key +
        partials`` instead, for whoever combines them.  The ``finally``
        moves ``discarded`` and ``groups_emitted``, compacts the
        columns down to the groups still open (``node._compact``) and
        emits the rows, so an exception at group *k* leaves the groups
        before it emitted and those after it open.
        """
        src = self._aggregate_source(plan.aggregates, None, "r")
        if partials:
            close = [f"emit(k + {src.partials})"]
        else:
            values = [f"a{i}" for i in range(len(src.finals))]
            close = [f"{value} = {final}"
                     for value, final in zip(values, src.finals)]
            test = [] if plan.having is None else [
                f"if not ({self._compile(plan.having, (None,), 1)}):",
                "    dropped += 1", "    continue"]
            exprs = plan.post_select_exprs
            width = len(self.analyzed.group_exprs)
            if exprs == [KeyRef(i) for i in range(width)] + [
                    AggRef(i) for i in range(len(values))]:
                row = "k + " + _tuple_src(values)
            else:
                row = _tuple_src([self._compile(e, (None,), 1)
                                  for e in exprs])
            close += ["try:"] + _indent(test + [f"emit({row})"]) + [
                "except DiscardTuple:", "    dropped += 1"]
        return self._link("node, keys", [
            "pop = node._groups.pop",
        ] + _columns("node._columns", len(src.columns)) + [
            "out = []",
            "emit = out.append",
            "dropped = 0",
            "try:",
            "    for k in keys:",
            "        r = pop(k)",
        ] + _indent(close, 2) + [
            "finally:",
            "    node.stats.discarded += dropped",
            "    node.groups_emitted += len(out)",
            "    node._compact()",
            "    node.emit_many(out)",
        ])

    # -- expressions ----------------------------------------------------------
    def _finalize(self, body: str, arity, on_discard: str) -> Callable:
        """``def _gN(args): return body``, ``on_discard`` on no result."""
        return self._link(", ".join(_ARG_NAMES[arity]), [
            "try:",
            f"    return {body}",
            "except DiscardTuple:",
            f"    return {on_discard}",
        ])

    def _compile(self, expr: Expr, slot_maps: Sequence[SlotMap], arity) -> str:
        if isinstance(expr, Literal):
            # GSQL STRING values are bytes at run time (payloads, names);
            # encode str literals so 'GET' compares equal to b'GET'.
            if isinstance(expr.value, str):
                return repr(expr.value.encode("latin-1"))
            return repr(expr.value)
        if isinstance(expr, Param):
            return f"{self._params_ref}[{expr.name!r}]"
        if isinstance(expr, KeyRef):
            return f"k[{expr.index}]"
        if isinstance(expr, AggRef):
            return f"a{expr.index}"
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

    def _column_slot(self, expr: Column, slot_maps) -> int:
        """Where ``expr`` sits in its input's tuples."""
        bound = self.analyzed.binding_of(expr)
        if bound is None:
            raise CodegenError(f"unbound column {expr}")
        slot_map = slot_maps[bound.source_index] if bound.source_index < len(slot_maps) else None
        return bound.attr_index if slot_map is None else slot_map[bound.attr_index]

    def _compile_column(self, expr: Column, slot_maps, arity) -> str:
        slot = self._column_slot(expr, slot_maps)
        if self._column_ref is not None:
            return self._column_ref(slot)
        bound = self.analyzed.binding_of(expr)
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


class _AggregateSource(NamedTuple):
    """One plan's aggregate list as source text, for the block kernels.
    Statements read the group's state -- one row of the columns ``c0,
    c1, ...`` -- the input tuple ``t`` and the weight ``w``."""

    #: evaluate every aggregate argument; may raise DiscardTuple
    args: List[str]
    #: an untouched group's state list (AVG's entry the list of its
    #: two columns' values)
    initial: List[Any]
    #: fold the evaluated arguments into the state (plain / weighted by
    #: ``w``)
    fold: List[str]
    fold_weighted: List[str]
    #: fold one partial encoding into the state
    combine: List[str]
    #: expressions over the state: the partial encoding, and each
    #: aggregate's final value
    partials: str
    finals: List[str]

    @property
    def columns(self) -> List[Any]:
        """Each column's value in an untouched group."""
        return [value for entry in self.initial
                for value in (entry if type(entry) is list else (entry,))]


def _indent(lines: Sequence[str], levels: int = 1) -> List[str]:
    return ["    " * levels + line for line in lines]


class _RowSource(NamedTuple):
    """What :meth:`ExprCompiler._row_source` rendered."""

    #: per row; no result => ``dropped += 1`` and ``continue``
    lines: List[str]
    #: expression: the tuple the expressions built
    key: str
    #: its elements as locals when asked for by parts; None otherwise
    parts: Optional[List[str]]


_SAMPLE_SETUP = [
    "rate = node._sample_rate",
    "draw = node._sample_rng.random",
]


def _sample_gate(counter: str) -> List[str]:
    """The ``DEFINE sample`` draw, once per row in arrival order."""
    return ["if draw() >= rate:", f"    {counter} += 1", "    continue"]


_WINDOW_SETUP = [
    "index = node._window_index",
    "band = node._window_band",
    "high = node._high_water",
]


def _window_check(value: str, late: Sequence[str],
                  before_flush: Sequence[str] = ()) -> List[str]:
    """A window key (``value``) past the high-water mark closes the
    groups below it -- after ``before_flush``, what must leave the node
    first.  One below the mark by more than the band is late: its
    window closed already, so ``late`` (if any) drops it -- counts it
    into ``dropped``, empties the key-run cache and ends the row or
    run -- instead of re-opening the window."""
    return [
        f"x = {value}",
        "if high is None or x > high:",
        "    high = node._high_water = x",
    ] + _indent(before_flush) + [
        "    node._flush_below(x - band)",
    ] + (["elif x < high - band:"] + _indent(late) if late else [])


# The LFTA's direct-mapped table, probed in place: the key array and the
# columns stay valid across ``evict_if`` (a window flush clears slots in
# place), and the counters move once per block (``close_block``).
_TABLE_SETUP = [
    "table = node.table",
    "keys = table.keys",
    "size = table.size",
    "hash_key = table._hash",
    "shed = node.shed_rate",
    "weighted = shed < 1.0",
    "w = 1.0 / shed",
    "out = []",
    "eject = out.append",
    "lookups = occupied = collisions = 0",
]

#: ejected groups leave ahead of the groups a window flush closes
_EMIT_EJECTED = [
    "if out:",
    "    closed, out = out, []",
    "    eject = out.append",
    "    node.emit_many(closed)",
]


def _place_key(checks: Optional[Sequence[str]]) -> List[str]:
    """``i``: the slot of key ``k``, ``hash_key(k) % size`` -- the
    table's own placement (:attr:`DirectMappedTable._hash`).  For a
    plan on the tuple hash (``checks`` not None) that is ``hash(k) %
    size`` once every part in ``checks``, those that are not integers
    by construction, passed ``_index`` (``operator.index``); one that
    does not (``None``, ``bytes``, ``str``, ``float``) sends the key to
    ``hash_key``, which places it by ``stable_hash``.  A key no hash
    covers raises here, before the probe is counted."""
    if checks is None:
        return ["i = hash_key(k) % size"]
    if not checks:
        return ["i = hash(k) % size"]
    return [
        "try:",
        "    " + ", ".join(f"_index({part})" for part in checks),
        "    i = hash(k) % size",
        "except TypeError:",
        "    i = hash_key(k) % size",
    ]


def _columns(columns: str, width: int) -> List[str]:
    """Bind the ``width`` state columns of ``columns`` to ``c0, c1,
    ...``."""
    return [f"c{j} = {columns}[{j}]" for j in range(width)]


def _key_run(row: _RowSource, index: str) -> Tuple[str, List[str], List[str]]:
    """The key-run cache of ``row``'s parts in ``k0``, ... beside the
    group's row or slot ``index`` (DESIGN section 18): the setup line
    that empties it, the ``if`` of a changed key and, under it, the
    commit of the parts and the key tuple ``k``."""
    cached = [f"k{i}" for i in range(len(row.parts))]
    changed = " or ".join([f"{index} is None"] + [
        f"{new} != {old}" for new, old in zip(row.parts, cached)])
    commit = [f"{old} = {new}" for new, old in zip(row.parts, cached)]
    return (" = ".join([index] + cached + ["None"]), f"if {changed}:",
            commit + [f"k = {row.key}"])


def _table_probe(src: _AggregateSource) -> Tuple[List[str], List[str]]:
    """Probe slot ``i`` for ``k``: a stranger there is ejected -- its
    partials read out of the columns -- and the slot's key and columns
    are overwritten with the new group's; and fold the evaluated
    arguments into the slot with the shed gate's weight."""
    return [
        "lookups += 1",
        "e = keys[i]",
        "if e != k:",
        "    if e is None:",
        "        occupied += 1",
        "    else:",
        "        collisions += 1",
        f"        eject(e + {src.partials})",
        "    keys[i] = k",
    ] + [f"    c{j}[i] = {value!r}" for j, value in enumerate(src.columns)], [
        "if weighted:",
    ] + _indent(src.fold_weighted or ["pass"]) + [
        "else:",
    ] + _indent(src.fold or ["pass"])


def _tuple_src(parts: Sequence[str]) -> str:
    """Source of the tuple display over ``parts`` (any length)."""
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

