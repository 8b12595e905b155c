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

from contextlib import contextmanager
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)
from zlib import crc32

from repro.determinism import int_key_format
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
from repro.gsql.types import BOOL, FLOAT, GSQLType
from repro.gsql.unparse import conjunction_to_gsql
from repro.net.columnar import ActionSource, Prefilter, RowAction


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
        self._env: Dict[str, Any] = {"P": self.params, "_crc32": crc32,
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
        if self.mode == "interpreted":
            return self._interp_tuple_fn(exprs, slot_maps, arity)
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
    # predicate->project (or ->key->fold) pipeline over a block of rows,
    # hoisting the call chain out of the inner loop (MonetDB/X100 style
    # vectorized execution; DESIGN section 10).  Per-row semantics are
    # byte-identical to the scalar chain: conjuncts short-circuit in the
    # same order and DiscardTuple counts the row as discarded
    # (_row_source).  Interpreted mode runs the same loops, calling its
    # tree-walking closures per row.

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
    # under whichever loop header owns its rows: the run-time system's
    # block kernel (repro.net.columnar.block_kernel; its source joins
    # this compiler's through record_source), the plan's own generated
    # decode loop (block_decoder_fn) or the row adapter's tuples
    # (lfta_adapter_fn).  Nothing is materialized between decode and
    # operator state, so the semantics are row-at-a-time by construction:
    # conjuncts short-circuit in order, DiscardTuple discards the row
    # whole, and an error at row k leaves counters, state and output as k
    # single-row steps would.

    def block_decoder_fn(self, protocol, needed: Sequence[int],
                         pushed: Optional[Prefilter] = None,
                         lean: bool = False,
                         action: Optional[RowAction] = None
                         ) -> Optional[Callable]:
        """The generated block decoder ``f(packets)`` covering attribute
        positions ``needed`` of ``protocol`` (:mod:`repro.net.columnar`:
        the protocol guard plus one struct over only the bytes those
        attributes and the guard read), with the prefix ``pushed``
        (:meth:`prefilter`) tested inside its loop -- a packet it kills
        never becomes a row -- and ``action`` (:meth:`lfta_action`) run
        on every row that does; without one the rows come back as a
        ``ColumnarBlock``.  ``lean`` asks for the form that unpacks the
        fields only survivors need after the test.

        None in interpreted mode, for a protocol without a layout --
        the caller keeps the row adapter -- and for a lean form that
        does not exist.  The compiled loop is cached by source across
        compilers and bound to this compiler's parameter dict; its
        source is recorded here like every other kernel's.
        """
        if self.mode == "interpreted":
            return None
        decoder = protocol.block_decoder(
            needed, () if pushed is None else (pushed,), lean, action)
        if decoder is None:
            return None
        self.generated_sources.append(decoder.source)
        return decoder.decode

    def record_source(self, source: str) -> None:
        """Keep ``source`` -- code generated outside this compiler that
        runs this plan's row action, a block kernel -- with the rest,
        once however often it is regenerated."""
        if source not in self.generated_sources:
            self.generated_sources.append(source)

    def prefilter(self, conjuncts: Sequence[Expr]) -> Optional[Prefilter]:
        """``conjuncts`` (a plan's pushed prefix, ``LftaPlan.prefix``)
        as a block-decoder generator takes them; None when empty, and
        in interpreted mode, which has no block decoder to take them.

        The generator decides where each attribute sits in its unpack
        tuple and calls ``render`` back with that, so the same prefix
        serves this plan's own decoder, its lean form and the block
        kernel's section it shares with other plans.  ``$params``
        compile to reads of this compiler's dict, so ``set_param``
        bites on the next block.
        """
        if not conjuncts or self.mode == "interpreted":
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
        * partial aggregation: build the group key, evaluate the
          aggregate arguments (no result => the row is discarded,
          nothing touched), check the window high-water mark, place
          the key (``crc32(fmt % k) % size``, :meth:`key_hash_format`),
          probe the direct-mapped table and fold with the shed gate's
          Horvitz-Thompson weight.  An ejected group's
          ``key + partials`` row joins the block-local list, which
          leaves ahead of any window flush.

        The ``finally`` of the loop the lines are spliced under moves
        the node's counters and emits the list, so an exception at row
        *k* leaves table, counters and output as *k* single-row blocks
        would.  In interpreted mode the lines call the tree-walking
        closures instead; there the only header is the row adapter's.
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
                    src = self._aggregate_source(plan.aggregates, maps)
                    row = self._row_source(conjuncts, exprs, maps, src.args,
                                           target="k")
                    setup += src.bind + _TABLE_SETUP
                    body += row.lines
                    if plan.window_key_index >= 0:
                        setup += _WINDOW_SETUP
                        body += _window_check("k[index]", _EMIT_EJECTED)
                    body += _place_key(self.key_hash_format(exprs))
                    body += _table_probe(src)
                    finish.append(
                        "table.close_block(lookups, occupied, collisions)")
            finish.append("node.emit_many(out)")
            return ActionSource(setup, body, finish,
                                dict(self._env, node=node))

        return RowAction(frozenset(column_slots(
            self.analyzed, conjuncts + exprs + arguments)), render)

    def lfta_adapter_fn(self, action: RowAction) -> Callable:
        """``f(packets, views)``: the row adapter's loop header around
        ``action`` -- every tuple the node's sparse interpreter makes
        of a packet (``node._interpret``; an expander may make several)
        goes through the action before the next packet is touched."""
        spliced = action.render()
        return self._link("packets, views", [
            "interpret = node._interpret",
            "m = 0",
        ] + spliced.setup + [
            "try:",
            "    for p, view in zip(packets, views):",
            "        for t in interpret(p, view):",
            "            m += 1",
        ] + _indent(spliced.body, 3) + [
            "finally:",
            "    node.stats.tuples_in += m",
        ] + _indent(spliced.finish), spliced.env)

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

    def _bind_value(self, value: Any) -> str:
        """``value`` under a fresh name in the generated code's globals."""
        name = f"_i{self._counter}"
        self._counter += 1
        self._env[name] = value
        return name

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
        into ``dropped`` and ``continue``s.  In interpreted mode the
        lines call the tree-walking closures.
        """
        drop = ["    dropped += 1", "    continue"]
        if self.mode == "interpreted":
            lines: List[str] = []
            if conjuncts:
                test = self._bind_value(self.predicate_fn(conjuncts, slot_maps))
                lines += [f"if not {test}(t):"] + drop
            if exprs:
                build = self._bind_value(self.tuple_fn(exprs, slot_maps))
                lines += [f"{target} = {build}(t)", f"if {target} is None:"] + drop
            elif target is not None:
                lines.append(f"{target} = ()")
            if then:
                lines += ["try:"] + _indent(then) + ["except DiscardTuple:"] + drop
            return _RowSource(lines, target, None)
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
    # The generic loops in repro.operators.aggregates walk the aggregate
    # list per tuple and compare names; a plan's list is fixed, so the
    # loop unrolls into straight-line statements with the argument
    # expressions inlined (_aggregate_source).  Those statements are
    # linked twice: as the stand-alone AggregateOps methods
    # (aggregate_kernels) and inside the per-plan loops that probe, fold
    # and eject per row (lfta_action, hfta_aggregate_fn; DESIGN section
    # 18).  Every argument is evaluated before any state is touched, so
    # a DiscardTuple discards the tuple whole; an error raised by a fold
    # leaves the slots before it folded, exactly as the generic loop
    # does.

    def key_hash_format(self, group_exprs: Sequence[Expr]) -> Optional[bytes]:
        """The ``%d`` format that hashes this plan's group keys
        (:func:`repro.determinism.int_key_format`), or ``None`` when
        :func:`~repro.determinism.stable_hash` must render them.

        Decided from static types, never from the codegen mode, so
        compiled and interpreted runs place groups identically: every
        group expression must have an integer GSQL type (UINT, INT,
        ULLONG, IP, IP6 -- not BOOL, whose values print as
        ``True``/``False``) and read no query parameter (a ``$param``
        is typed UINT but carries whatever the caller binds).
        """
        types = self.analyzed.types
        for expr in group_exprs:
            gsql_type = types.get(id(expr))
            if gsql_type is None or gsql_type.python_type is not int:
                return None
            if any(isinstance(node, Param) for node in expr.walk()):
                return None
        return int_key_format(len(group_exprs))

    def _aggregate_source(
        self,
        aggregates: Sequence[AggCall],
        slot_maps: Optional[Sequence[SlotMap]],
        partial_base: Optional[int] = None,
    ) -> "_AggregateSource":
        """The statements ``aggregates`` unroll into (see
        :class:`_AggregateSource`).

        ``slot_maps=None`` means the input carries partials, not the
        aggregates' arguments: ``args`` and the folds are then empty.
        ``partial_base`` says where ``combine`` reads the partial
        encoding: ``None`` for a sequence ``p``, else from slot
        ``partial_base`` of the input tuple ``t``.

        In interpreted mode the statements call the generic
        ``AggregateOps`` interpreter bound off ``node.aggregate_ops``
        instead: the block kernels are the same loop in both modes.
        """
        if self.mode == "interpreted":
            encoded = "p" if partial_base is None else f"t[{partial_base}:]"
            return _AggregateSource(
                bind=["ops = node.aggregate_ops", "_args = ops.args",
                      "_new = ops.new_state", "_fold = ops.fold",
                      "_foldw = ops.fold_weighted", "_combine = ops.combine",
                      "_partials = ops.partials"],
                args=[] if slot_maps is None else ["v = _args(t)"],
                new_state="_new()",
                fold=["_fold(s, v)"],
                fold_weighted=["_foldw(s, v, w)"],
                combine=[f"_combine(s, {encoded})"],
                partials="_partials({s})",
                final_values="ops.final_values({s})",
            )
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
            state = f"s[{index}]"
            slot = "{s}[%d]" % index
            value = f"v{index}"
            width = 2 if name == "AVG" else 1
            if partial_base is None:
                encoded = [f"p[{cursor + i}]" for i in range(width)]
            else:
                encoded = [f"t[{partial_base + cursor + i}]"
                           for i in range(width)]
            cursor += width
            if name != "COUNT" and slot_maps is not None:
                args.append(f"{value} = {self._compile(agg.arg, slot_maps, 1)}")
            if name in ("COUNT", "SUM"):
                initial.append("0")
                partials.append(slot)
                finals.append(slot)
                combine.append(f"{state} += {encoded[0]}")
                if name == "COUNT":
                    fold.append(f"{state} += 1")
                    weighted.append(f"{state} += w")
                else:
                    fold.append(f"{state} += {value}")
                    weighted.append(f"{state} += {value} * w")
            elif name in ("MIN", "MAX"):
                better = "<" if name == "MIN" else ">"
                initial.append("None")
                partials.append(slot)
                finals.append(slot)
                combine += [
                    f"c = {encoded[0]}",
                    f"if {state} is None or (c is not None and c {better} {state}):",
                    f"    {state} = c",
                ]
                # order statistics fold unweighted either way
                order = [f"if {state} is None or {value} {better} {state}:",
                         f"    {state} = {value}"]
                fold += order
                weighted += order
            elif name == "AVG":
                initial.append("[0.0, 0]")
                partials += [slot + "[0]", slot + "[1]"]
                finals.append(f"({slot}[0] / {slot}[1] if {slot}[1] else 0.0)")
                combine += [f"a = {state}", f"a[0] += {encoded[0]}",
                            f"a[1] += {encoded[1]}"]
                fold += [f"a = {state}", f"a[0] += {value}", "a[1] += 1"]
                weighted += [f"a = {state}", f"a[0] += {value} * w",
                             "a[1] += w"]
            else:
                raise CodegenError(f"cannot compile aggregate {name!r}")
        if slot_maps is None:
            fold, weighted = [], []
        return _AggregateSource(
            bind=[], args=args, new_state="[" + ", ".join(initial) + "]",
            fold=fold, fold_weighted=weighted, combine=combine,
            partials=_tuple_src(partials), final_values=_tuple_src(finals))

    def _link(self, signature: str, body: Sequence[str],
              env: Optional[Dict[str, Any]] = None) -> Callable:
        """Compile ``def _gN(signature):`` over ``body`` lines."""
        name = f"_g{self._counter}"
        self._counter += 1
        return self._finalize_source(
            name, f"def {name}({signature}):\n" + "".join(
                line + "\n" for line in _indent(body or ["pass"])), env)

    def aggregate_kernels(
        self,
        aggregates: Sequence[AggCall],
        slot_maps: Optional[Sequence[SlotMap]] = (None,),
    ) -> Optional[Tuple[Callable, Optional[Callable], Optional[Callable],
                        Callable, Callable, Callable]]:
        """Generated ``(new_state, update, update_weighted, combine,
        partials, final_values)`` for a plan.

        ``new_state()`` is the list literal of an untouched group,
        ``update(s, t)`` folds input tuple ``t`` into state list ``s``,
        ``update_weighted(s, t, w)`` does so with Horvitz-Thompson
        weight ``w``, ``combine(s, p)`` folds the partial encoding
        ``p``, ``partials(s)`` / ``final_values(s)`` are the tuple
        displays of the encoding and of the finished values.
        ``slot_maps=None`` means the input carries partials, not the
        aggregates' arguments: the two update kernels are then
        ``None``.  Returns ``None`` in interpreted mode, whose
        interpreter is the generic loop.
        """
        if self.mode == "interpreted":
            return None
        src = self._aggregate_source(aggregates, slot_maps)
        update = weighted = None
        if slot_maps is not None:
            update = self._link("s, t", src.args + src.fold)
            weighted = self._link("s, t, w", src.args + src.fold_weighted)
        return (self._link("", [f"return {src.new_state}"]),
                update, weighted,
                self._link("s, p", src.combine),
                self._link("s", ["return " + src.partials.format(s="s")]),
                self._link("s", ["return " + src.final_values.format(s="s")]))

    # The block kernels are linked against the operator that runs them:
    # they read and write the node's own attributes (``node.table``,
    # ``node._groups``, ``node._high_water``, ``node._window_index`` /
    # ``_window_band``, ``node.stats``) and call back into it for what
    # stays per window, not per row (``node._flush_below``,
    # ``node.emit_many``).  The LFTA's is its row action
    # (:meth:`lfta_action`); the HFTA's follows.

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
        """
        partials = plan.final_from_partials
        slot_maps = tuple(plan.slot_maps)
        setup = ["groups = node._groups", "dropped = 0"]
        loop: List[str] = []
        if partials:
            key_width = len(self.analyzed.group_exprs)
            src = self._aggregate_source(plan.aggregates, None, key_width)
            row = self._row_source(plan.predicates, (), slot_maps,
                                   target=None)
            loop += row.lines + [f"k = t[:{key_width}]"]
            window = "k[index]"
        else:
            src = self._aggregate_source(plan.aggregates, slot_maps)
            row = self._row_source(plan.predicates, plan.group_exprs,
                                   slot_maps, src.args, target="g",
                                   parts=True)
            if plan.sample_rate is not None:
                setup += _SAMPLE_SETUP
                loop += _sample_gate("dropped")
            loop += row.lines
            if row.parts is None:  # interpreted: the key arrives whole
                cached = ["k"]
                window = "k[index]"
            else:
                cached = [f"k{i}" for i in range(len(row.parts))]
                window = f"g{plan.window_key_index}"
            setup.append(" = ".join(["s"] + cached + ["None"]))
        setup += src.bind
        probe = [
            "s = groups.get(k)",
            "if s is None:",
            f"    s = groups[k] = {src.new_state}",
        ]
        if plan.window_key_index >= 0:
            setup += _WINDOW_SETUP
            probe = _window_check(window) + probe
        if partials:
            loop += probe + src.combine
        else:
            parts = [row.key] if row.parts is None else row.parts
            changed = " or ".join(
                ["s is None"] + [f"{new} != {old}"
                                 for new, old in zip(parts, cached)])
            commit = [f"{old} = {new}" for new, old in zip(parts, cached)]
            if row.parts is not None:
                commit.append(f"k = {row.key}")
            loop += [f"if {changed}:"] + _indent(commit + probe) + src.fold
        return self._link("node, rows", setup + [
            "try:",
            "    for t in rows:",
        ] + _indent(loop, 2) + [
            "finally:",
            "    node.stats.discarded += dropped",
        ])

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
        body = _tuple_src(parts)
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
            return f"{self._params_ref}[{expr.name!r}]"
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
            return self._column_ref(slot)
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



class _AggregateSource(NamedTuple):
    """One plan's aggregate list as source text, for the stand-alone
    kernels and the block kernels alike.  Statements read the state
    list ``s``, the input tuple ``t`` and the weight ``w``."""

    #: names the statements below need bound first (interpreted mode)
    bind: List[str]
    #: evaluate every aggregate argument; may raise DiscardTuple
    args: List[str]
    #: expression: the state of an untouched group
    new_state: str
    #: fold the evaluated arguments into ``s`` (plain / weighted by ``w``)
    fold: List[str]
    fold_weighted: List[str]
    #: fold one partial encoding into ``s``
    combine: List[str]
    #: expression templates over the state variable ``{s}``
    partials: str
    final_values: str


def _indent(lines: Sequence[str], levels: int = 1) -> List[str]:
    return ["    " * levels + line for line in lines]


class _RowSource(NamedTuple):
    """What :meth:`ExprCompiler._row_source` rendered."""

    #: per row; no result => ``dropped += 1`` and ``continue``
    lines: List[str]
    #: expression: the tuple the expressions built
    key: str
    #: its elements as locals when asked for by parts; None when the
    #: tuple arrives whole (not asked for, or interpreted mode)
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


def _window_check(value: str, before_flush: Sequence[str] = ()) -> List[str]:
    """A window key (``value``) past the high-water mark closes the
    groups below it -- after ``before_flush``, what must leave the node
    first."""
    return [
        f"x = {value}",
        "if high is None or x > high:",
        "    high = node._high_water = x",
    ] + _indent(before_flush) + [
        "    node._flush_below(x - band)",
    ]


# The LFTA's direct-mapped table, probed in place: the slot array stays
# valid across ``evict_if`` (a window flush clears slots in place), and
# the counters move once per block (``close_block``).
_TABLE_SETUP = [
    "table = node.table",
    "slots = table._slots",
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


def _place_key(fmt: Optional[bytes]) -> List[str]:
    """``i``: the slot of key ``k``, ``stable_hash(k) % size`` -- through
    the plan's ``%d`` format when it has one, a key the format does not
    render (``None`` in it) falling back per key.  A key no hash covers
    raises here, before the probe is counted."""
    if fmt is None:
        return ["i = hash_key(k) % size"]
    return [
        "try:",
        f"    i = _crc32({fmt!r} % k) % size",
        "except TypeError:",
        "    i = hash_key(k) % size",
    ]


def _table_probe(src: _AggregateSource) -> List[str]:
    """Probe slot ``i`` for ``k``, ejecting a resident stranger, and
    fold the evaluated arguments with the shed gate's weight."""
    return [
        "lookups += 1",
        "e = slots[i]",
        "if e is not None and e[0] == k:",
        "    s = e[1]",
        "else:",
        f"    s = {src.new_state}",
        "    slots[i] = (k, s)",
        "    if e is None:",
        "        occupied += 1",
        "    else:",
        "        collisions += 1",
        "        q = e[1]",
        "        eject(e[0] + " + src.partials.format(s="q") + ")",
        "if weighted:",
    ] + _indent(src.fold_weighted or ["pass"]) + [
        "else:",
    ] + _indent(src.fold or ["pass"])


def _tuple_src(parts: Sequence[str]) -> str:
    """Source of the tuple display over ``parts`` (any length)."""
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


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
