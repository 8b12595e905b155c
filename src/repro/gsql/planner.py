"""The GSQL query planner: the LFTA/HFTA split (paper Section 3).

Gigascope pushes each query as far down the processing stack as it can:

* **LFTA** (low-level FTA): lightweight selection, projection, and
  *partial* aggregation, linked into the run-time system (or even run
  on the NIC).  Only predicates whose functions are ``lfta_safe`` may
  run here -- "Regular expression finding is too expensive for an LFTA".
* **HFTA** (high-level FTA): everything else -- expensive predicates,
  final aggregation (the sub/superaggregate split), joins, and merges.

The planner also marks what a capture card may do on an LFTA's behalf:
the leading conjuncts its generated decode loop tests before a row
exists (``LftaPlan.prefix`` -- the card runs that same loop,
``LftaNode.card_filter``) and the snap length the fields it reads allow
(``LftaPlan.snaplen``).

"To an application LFTAs and HFTAs look identical"; the split is
invisible except that the LFTA stream carries a mangled name.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gsql.ast_nodes import (
    AggCall,
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    Literal,
    MergeQuery,
    Param,
    UnaryOp,
)
from repro.gsql.functions import FunctionRegistry
from repro.gsql.ordering import Ordering
from repro.gsql.semantic import (
    AnalyzedQuery,
    BoundColumn,
    JoinWindow,
    SourceInfo,
)
from repro.gsql.schema import Attribute, ProtocolSchema, StreamSchema
from repro.gsql.types import FLOAT, ULLONG
from repro.gsql.unparse import conjunction_to_gsql, expr_to_gsql
from repro.net.columnar import HEADER_REACH, describe_formats

# Snap lengths: headers-only when the protocol has a header layout and
# the plan reads nothing behind it -- as many bytes as the longest
# header stack a block kernel's guard can ask for, so a snapping NIC
# drops no frame the unsnapped run keeps.
SNAPLEN_HEADERS = HEADER_REACH
SNAPLEN_FULL = 65535


class PlanError(ValueError):
    """Raised when no valid plan exists for a query."""


@dataclass
class LftaPlan:
    """A low-level FTA: runs inside the RTS (or on the NIC)."""

    name: str
    interface: str
    protocol: ProtocolSchema
    predicates: List[Expr]
    mode: str  # 'projection' | 'partial_aggregation'
    output_schema: StreamSchema
    # projection mode
    project_exprs: List[Expr] = field(default_factory=list)
    # partial_aggregation mode
    group_exprs: List[Expr] = field(default_factory=list)
    aggregates: List[AggCall] = field(default_factory=list)
    window_key_index: int = -1
    window_key_band: float = 0.0
    #: protocol attr_index -> output slot, for rebinding HFTA expressions
    field_map: Dict[int, int] = field(default_factory=dict)
    #: Bernoulli sampling rate (DEFINE sample p); None = keep everything
    sample_rate: Optional[float] = None
    #: how many leading ``predicates`` a generated block kernel tests
    #: inside its own loop, so a packet they kill never becomes a row
    #: (:func:`_mark_prefix`); the row adapter ignores it
    prefix: int = 0
    #: why ``prefix`` is 0, for EXPLAIN
    prefix_note: str = ""
    #: bytes of each frame a capture card has to keep for this LFTA
    snaplen: int = SNAPLEN_FULL

    def needed_fields(self, analyzed: AnalyzedQuery) -> List[int]:
        """Sorted protocol attribute positions this LFTA reads: what
        its block kernel (or row adapter) has to produce."""
        exprs = self.predicates + self.project_exprs + self.group_exprs
        exprs += [agg.arg for agg in self.aggregates if agg.arg is not None]
        return column_slots(analyzed, exprs)

    def kernel_stages(self, decoded: bool) -> List[str]:
        """What this LFTA's one generated loop does to a packet, in
        order, for EXPLAIN: the protocol guard and the pushed prefix of
        a block kernel (``decoded``) or the row adapter's interpreter,
        then the row action -- sample draw, the conjuncts left over,
        and the projection or the key and the table update."""
        pushed = self.prefix if decoded else 0
        stages = ["guard"] if decoded else ["adapter"]
        if pushed:
            stages.append("prefix")
        if self.sample_rate is not None:
            stages.append("sample")
        if len(self.predicates) > pushed:
            stages.append("filter")
        return stages + (["select"] if self.mode == "projection"
                         else ["key", "table"])


def column_slots(analyzed: AnalyzedQuery, exprs: Sequence[Expr]) -> List[int]:
    """Sorted attribute positions the expressions read."""
    indices = set()
    for expr in exprs:
        for node in expr.walk():
            if isinstance(node, Column):
                bound = analyzed.binding_of(node)
                if bound is not None:
                    indices.add(bound.attr_index)
    return sorted(indices)


@dataclass
class HftaPlan:
    """A high-level FTA: a separate query node reading Stream input."""

    name: str
    kind: str  # 'selection' | 'aggregation' | 'join' | 'merge'
    inputs: List[str]
    input_schemas: List[StreamSchema]
    output_schema: StreamSchema
    #: per input: attr_index-in-original-source -> input slot (None = identity)
    slot_maps: List[Optional[Dict[int, int]]]
    predicates: List[Expr] = field(default_factory=list)
    select_exprs: List[Expr] = field(default_factory=list)
    # aggregation
    group_exprs: List[Expr] = field(default_factory=list)
    aggregates: List[AggCall] = field(default_factory=list)
    post_select_exprs: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    window_key_index: int = -1
    window_key_band: float = 0.0
    #: True when inputs are LFTA partial aggregates to be combined
    final_from_partials: bool = False
    # join
    join_window: Optional[JoinWindow] = None
    #: (input_index, slot) of each side's ordered attribute
    join_slots: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None
    #: re-sort join output on its window column (DEFINE join_output sorted)
    join_sorted_output: bool = False
    #: (left column, right column) of every ``colL = colR`` conjunct the
    #: join indexes its window on; empty = the whole window is one bucket
    join_keys: List[Tuple[Column, Column]] = field(default_factory=list)
    # merge: (input_index, slot) per input
    merge_slots: List[Tuple[int, int]] = field(default_factory=list)
    #: Bernoulli sampling rate for stream-input queries with no LFTA
    sample_rate: Optional[float] = None
    #: an aggregation over raw tuples that folds runs of rows sharing
    #: its window column's value: that column's input slot
    #: (:func:`_mark_runs`); None folds row by row
    run_slot: Optional[int] = None
    #: why ``run_slot`` is None, for EXPLAIN
    run_note: str = ""


@dataclass
class QueryPlan:
    """The complete plan: zero or more LFTAs feeding at most one HFTA."""

    name: str
    analyzed: AnalyzedQuery
    lftas: List[LftaPlan]
    hfta: Optional[HftaPlan]
    output_schema: StreamSchema

    @property
    def is_lfta_only(self) -> bool:
        """A simple query can execute entirely as an LFTA."""
        return self.hfta is None

    def describe(self) -> str:
        """A human-readable plan summary (for EXPLAIN-style output)."""
        lines = [f"plan {self.name}:"]
        for lfta in self.lftas:
            needed = lfta.needed_fields(self.analyzed)
            formats = lfta.protocol.struct_formats(needed)
            if formats is None:
                front_end = "decode=row-adapter"
            else:
                names = ",".join(lfta.protocol.attributes[index].name
                                 for index in needed)
                front_end = (f"decode=[{names}] "
                             f"struct={struct.calcsize(formats[0])}B")
            prefix = lfta.predicates[:lfta.prefix]
            if prefix:
                front_end += f" prefilter=[{conjunction_to_gsql(prefix)}]"
                lean = lfta.protocol.lean_formats(
                    needed, column_slots(self.analyzed, prefix))
                if lean:
                    front_end += f" lean=[{describe_formats(lean)}]"
            else:
                front_end += f" prefilter=none ({lfta.prefix_note})"
            stages = lfta.kernel_stages(formats is not None)
            front_end += f" kernel=[{', '.join(stages)}]"
            if lfta.mode == "partial_aggregation":
                front_end += _run_cache(lfta.group_exprs)
            lines.append(
                f"  LFTA {lfta.name} on {lfta.interface}.{lfta.protocol.name} "
                f"[{lfta.mode}] preds={len(lfta.predicates)} "
                f"snaplen={lfta.snaplen} "
                f"{front_end}"
            )
        if self.hfta is not None:
            hfta = self.hfta
            line = f"  HFTA {hfta.name} [{hfta.kind}] inputs={hfta.inputs}"
            if hfta.kind == "join":
                window = hfta.join_window
                keys = ", ".join(f"{left}={right}"
                                 for left, right in hfta.join_keys)
                # "+ 0" prints a negated zero offset as 0, not -0
                line += (
                    f" window=[{window.low + 0:g},{window.high + 0:g}]"
                    f" keys={'[' + keys + ']' if keys else 'none (window scan)'}"
                    f" residual={len(hfta.predicates) - len(hfta.join_keys)}"
                )
            elif hfta.final_from_partials:
                line += " run-cache=none (combines partials)"
            elif hfta.run_slot is not None:
                column = hfta.input_schemas[0].attributes[hfta.run_slot]
                line += f" fold=runs({column.name})"
            elif hfta.kind == "aggregation":
                line += (_run_cache(hfta.group_exprs)
                         + f" fold=rows ({hfta.run_note})")
            lines.append(line)
        return "\n".join(lines)


def _run_cache(group_exprs: Sequence[Expr]) -> str:
    """The parts a fold loop's key-run cache compares (DESIGN 18)."""
    return " run-cache=[" + ", ".join(map(expr_to_gsql, group_exprs)) + "]"


def plan_query(analyzed: AnalyzedQuery, functions: FunctionRegistry,
               name: Optional[str] = None) -> QueryPlan:
    """Plan an analyzed query; raises :class:`PlanError` when impossible."""
    planner = _Planner(analyzed, functions, name or analyzed.name or "anonymous")
    plan = planner.plan()
    # Sampling happens at the query's first operator: in the LFTA when
    # there is one (earliest possible reduction), else at the HFTA.
    if analyzed.sample_rate is not None:
        if plan.lftas:
            plan.lftas[0].sample_rate = analyzed.sample_rate
        elif plan.hfta is not None:
            plan.hfta.sample_rate = analyzed.sample_rate
    if plan.hfta is not None and plan.hfta.kind == "aggregation":
        _mark_runs(plan.hfta, analyzed)
    for lfta in plan.lftas:
        _mark_prefix(lfta, analyzed)
        # Header fields and scalar capture metadata are what a prefix
        # may read: exactly what survives a header-only snap.
        header_only = lfta.protocol.prefix_fields()
        if header_only and header_only.issuperset(
                lfta.needed_fields(analyzed)):
            lfta.snaplen = SNAPLEN_HEADERS
    return plan


def _mark_runs(hfta: HftaPlan, analyzed: AnalyzedQuery) -> None:
    """Decide, from static types only, whether the aggregation ``hfta``
    folds a run of rows that share its window column's value at once
    (``ExprCompiler.hfta_aggregate_fn``; DESIGN section 18): set
    ``run_slot`` or say in ``run_note`` why not.

    Equal values of that column give equal keys, so a run is one group,
    and the run's folds regroup exactly where the aggregates are COUNT
    or SUM/MIN/MAX of an integer-typed column (integer addition is
    associative; AVG's total is a float).  A predicate or a ``DEFINE
    sample`` decides per row, so it keeps the row loop.
    """
    if hfta.final_from_partials:
        return
    if hfta.predicates:
        hfta.run_note = "a predicate"
        return
    if hfta.sample_rate is not None:
        hfta.run_note = "a sample"
        return
    if hfta.window_key_index < 0:
        hfta.run_note = "no window"
        return
    read = {(bound.source_index, bound.attr_index): node
            for expr in hfta.group_exprs for node in expr.walk()
            if isinstance(node, Column)
            and (bound := analyzed.binding_of(node)) is not None}
    if len(read) != 1:
        hfta.run_note = "a second column"
        return
    column, = read.values()
    if not _integer_column(column, analyzed):
        hfta.run_note = "a non-integer window column"
        return
    for agg in hfta.aggregates:
        if agg.name == "AVG":
            hfta.run_note = "a float total"
            return
        if agg.name != "COUNT" and not _integer_column(agg.arg, analyzed):
            what = ("a non-integer column" if isinstance(agg.arg, Column)
                    else "an expression")
            hfta.run_note = f"{agg.name.lower()} of {what}"
            return
    attr_index = analyzed.binding_of(column).attr_index
    slot_map = hfta.slot_maps[0]
    hfta.run_slot = attr_index if slot_map is None else slot_map[attr_index]


def _integer_column(expr: Expr, analyzed: AnalyzedQuery) -> bool:
    """``expr`` is a bare column of an integer GSQL type."""
    gsql_type = analyzed.types.get(id(expr))
    return (isinstance(expr, Column) and gsql_type is not None
            and gsql_type.python_type is int)


class _Planner:
    def __init__(self, analyzed: AnalyzedQuery, functions: FunctionRegistry,
                 name: str) -> None:
        self.analyzed = analyzed
        self.functions = functions
        self.name = name

    # -- helpers ------------------------------------------------------------
    def _is_lfta_safe(self, expr: Expr) -> bool:
        """Cheap enough for the low-level FTA: no expensive functions."""
        for node in expr.walk():
            if isinstance(node, FuncCall):
                if not self.functions.get(node.name).lfta_safe:
                    return False
            if isinstance(node, AggCall):
                return False
        return True

    def _columns_of(self, exprs: Sequence[Expr], source_index: int) -> List[BoundColumn]:
        """Distinct bound columns of ``source_index`` used by ``exprs``."""
        seen: Dict[int, BoundColumn] = {}
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, Column):
                    bound = self.analyzed.binding_of(node)
                    if bound is not None and bound.source_index == source_index:
                        seen.setdefault(bound.attr_index, bound)
        return [seen[index] for index in sorted(seen)]

    def _mangled(self, index: int) -> str:
        return f"_fta_{self.name}_{index}"

    # -- entry point ----------------------------------------------------------
    def plan(self) -> QueryPlan:
        kind = self.analyzed.kind
        if kind == "selection":
            return self._plan_selection()
        if kind == "aggregation":
            return self._plan_aggregation()
        if kind == "join":
            return self._plan_join()
        if kind == "merge":
            return self._plan_merge()
        raise PlanError(f"unknown query kind {kind!r}")

    # -- selection ---------------------------------------------------------------
    def _plan_selection(self) -> QueryPlan:
        analyzed = self.analyzed
        source = analyzed.sources[0]
        select_exprs = [col.expr for col in analyzed.output_columns]
        if not source.is_protocol:
            hfta = HftaPlan(
                name=self.name,
                kind="selection",
                inputs=[source.ref.name],
                input_schemas=[source.schema],
                output_schema=analyzed.output_schema,
                slot_maps=[None],
                predicates=list(analyzed.where_conjuncts),
                select_exprs=select_exprs,
            )
            return QueryPlan(self.name, analyzed, [], hfta, analyzed.output_schema)

        safe = [c for c in analyzed.where_conjuncts if self._is_lfta_safe(c)]
        unsafe = [c for c in analyzed.where_conjuncts if not self._is_lfta_safe(c)]
        select_safe = all(self._is_lfta_safe(e) for e in select_exprs)

        if not unsafe and select_safe:
            # The whole query executes as a single LFTA.
            lfta = LftaPlan(
                name=self.name,
                interface=source.interface,
                protocol=source.schema,
                predicates=safe,
                mode="projection",
                project_exprs=select_exprs,
                output_schema=analyzed.output_schema,
            )
            return QueryPlan(self.name, analyzed, [lfta], None, analyzed.output_schema)

        # Split: LFTA does the safe filtering and projects the raw fields
        # the HFTA needs; the HFTA finishes.
        needed = self._columns_of(unsafe + select_exprs, 0)
        lfta, slot_map = self._projection_lfta(source, safe, needed, 0)
        hfta = HftaPlan(
            name=self.name,
            kind="selection",
            inputs=[lfta.name],
            input_schemas=[lfta.output_schema],
            output_schema=analyzed.output_schema,
            slot_maps=[slot_map],
            predicates=unsafe,
            select_exprs=select_exprs,
        )
        return QueryPlan(self.name, analyzed, [lfta], hfta, analyzed.output_schema)

    def _projection_lfta(self, source: SourceInfo, predicates: List[Expr],
                         needed: List[BoundColumn],
                         index: int) -> Tuple[LftaPlan, Dict[int, int]]:
        """An LFTA that filters and forwards raw protocol fields."""
        if not needed:
            # Degenerate but legal: project a constant placeholder.
            raise PlanError("internal: projection LFTA with no fields")
        slot_map = {bound.attr_index: slot for slot, bound in enumerate(needed)}
        attributes = [bound.attribute for bound in needed]
        schema = StreamSchema(self._mangled(index), attributes)
        project_exprs = [
            _raw_column(self.analyzed, source, bound) for bound in needed
        ]
        lfta = LftaPlan(
            name=self._mangled(index),
            interface=source.interface,
            protocol=source.schema,
            predicates=predicates,
            mode="projection",
            project_exprs=project_exprs,
            output_schema=schema,
            field_map=slot_map,
        )
        return lfta, slot_map

    # -- aggregation ----------------------------------------------------------------
    def _plan_aggregation(self) -> QueryPlan:
        analyzed = self.analyzed
        source = analyzed.sources[0]
        post_select = [col.expr for col in analyzed.output_columns]

        if not source.is_protocol:
            hfta = HftaPlan(
                name=self.name,
                kind="aggregation",
                inputs=[source.ref.name],
                input_schemas=[source.schema],
                output_schema=analyzed.output_schema,
                slot_maps=[None],
                predicates=list(analyzed.where_conjuncts),
                group_exprs=list(analyzed.group_exprs),
                aggregates=list(analyzed.aggregates),
                post_select_exprs=post_select,
                having=analyzed.having,
                window_key_index=analyzed.window_key_index,
                window_key_band=analyzed.window_key_band,
            )
            return QueryPlan(self.name, analyzed, [], hfta, analyzed.output_schema)

        safe_where = [c for c in analyzed.where_conjuncts if self._is_lfta_safe(c)]
        unsafe_where = [c for c in analyzed.where_conjuncts if not self._is_lfta_safe(c)]
        groups_safe = all(self._is_lfta_safe(e) for e in analyzed.group_exprs)
        aggs_safe = all(
            agg.arg is None or self._is_lfta_safe(agg.arg)
            for agg in analyzed.aggregates
        )

        if not unsafe_where and groups_safe and aggs_safe:
            return self._plan_two_level_aggregation(source, safe_where, post_select)

        # Fall back: LFTA filters + projects raw fields, HFTA aggregates fully.
        needed_exprs = (
            unsafe_where + list(analyzed.group_exprs)
            + [agg.arg for agg in analyzed.aggregates if agg.arg is not None]
        )
        needed = self._columns_of(needed_exprs, 0)
        lfta, slot_map = self._projection_lfta(source, safe_where, needed, 0)
        hfta = HftaPlan(
            name=self.name,
            kind="aggregation",
            inputs=[lfta.name],
            input_schemas=[lfta.output_schema],
            output_schema=analyzed.output_schema,
            slot_maps=[slot_map],
            predicates=unsafe_where,
            group_exprs=list(analyzed.group_exprs),
            aggregates=list(analyzed.aggregates),
            post_select_exprs=post_select,
            having=analyzed.having,
            window_key_index=analyzed.window_key_index,
            window_key_band=analyzed.window_key_band,
        )
        return QueryPlan(self.name, analyzed, [lfta], hfta, analyzed.output_schema)

    def _plan_two_level_aggregation(self, source: SourceInfo,
                                    safe_where: List[Expr],
                                    post_select: List[Expr]) -> QueryPlan:
        """The sub/superaggregate split: LFTA partials, HFTA finishes.

        The LFTA output carries the group key values followed by the
        partial-aggregate slots; evictions from the direct-mapped table
        emit partials for the *same* group more than once, and the HFTA
        re-combines them.
        """
        analyzed = self.analyzed
        key_attrs = [
            Attribute(name, gsql_type, ordering)
            for name, gsql_type, ordering in zip(
                analyzed.group_names, analyzed.group_types, analyzed.group_orderings
            )
        ]
        partial_attrs = []
        for agg, agg_type in zip(analyzed.aggregates, analyzed.aggregate_types):
            base = f"p_{agg.name.lower()}{len(partial_attrs)}"
            if agg.name == "AVG":
                partial_attrs.append(Attribute(base + "_sum", FLOAT))
                partial_attrs.append(Attribute(base + "_cnt", ULLONG))
            else:
                partial_attrs.append(Attribute(base, agg_type))
        lfta_name = self._mangled(0)
        lfta_schema = StreamSchema(lfta_name, key_attrs + partial_attrs)
        lfta = LftaPlan(
            name=lfta_name,
            interface=source.interface,
            protocol=source.schema,
            predicates=safe_where,
            mode="partial_aggregation",
            group_exprs=list(analyzed.group_exprs),
            aggregates=list(analyzed.aggregates),
            output_schema=lfta_schema,
            window_key_index=analyzed.window_key_index,
            window_key_band=analyzed.window_key_band,
        )
        hfta = HftaPlan(
            name=self.name,
            kind="aggregation",
            inputs=[lfta_name],
            input_schemas=[lfta_schema],
            output_schema=analyzed.output_schema,
            slot_maps=[None],
            aggregates=list(analyzed.aggregates),
            post_select_exprs=post_select,
            having=analyzed.having,
            window_key_index=analyzed.window_key_index,
            window_key_band=analyzed.window_key_band,
            final_from_partials=True,
        )
        return QueryPlan(self.name, analyzed, [lfta], hfta, analyzed.output_schema)

    # -- join -------------------------------------------------------------------------
    def _plan_join(self) -> QueryPlan:
        analyzed = self.analyzed
        window = analyzed.join_window
        if window is None:
            raise PlanError("join without a window reached the planner")
        select_exprs = [col.expr for col in analyzed.output_columns]

        # Partition conjuncts: single-source & lfta-safe go to that LFTA;
        # everything else is evaluated at the join.
        lfta_preds: List[List[Expr]] = [[], []]
        hfta_preds: List[Expr] = []
        for conjunct in analyzed.where_conjuncts:
            side = _single_source(conjunct, analyzed)
            if (side is not None and analyzed.sources[side].is_protocol
                    and self._is_lfta_safe(conjunct)):
                lfta_preds[side].append(conjunct)
            else:
                hfta_preds.append(conjunct)

        lftas: List[LftaPlan] = []
        inputs: List[str] = []
        input_schemas: List[StreamSchema] = []
        slot_maps: List[Optional[Dict[int, int]]] = []
        for side, source in enumerate(analyzed.sources):
            if source.is_protocol:
                needed = self._columns_of(hfta_preds + select_exprs, side)
                # The window columns must flow through as well.
                for bound in (window.left, window.right):
                    if bound.source_index == side and not any(
                        b.attr_index == bound.attr_index for b in needed
                    ):
                        needed.append(bound)
                        needed.sort(key=lambda b: b.attr_index)
                lfta, slot_map = self._projection_lfta(
                    source, lfta_preds[side], needed, side)
                lftas.append(lfta)
                inputs.append(lfta.name)
                input_schemas.append(lfta.output_schema)
                slot_maps.append(slot_map)
            else:
                inputs.append(source.ref.name)
                input_schemas.append(source.schema)
                slot_maps.append(None)

        def slot_of(bound: BoundColumn) -> Tuple[int, int]:
            slot_map = slot_maps[bound.source_index]
            slot = bound.attr_index if slot_map is None else slot_map[bound.attr_index]
            return (bound.source_index, slot)

        hfta = HftaPlan(
            name=self.name,
            kind="join",
            inputs=inputs,
            input_schemas=input_schemas,
            output_schema=analyzed.output_schema,
            slot_maps=slot_maps,
            predicates=hfta_preds,
            select_exprs=select_exprs,
            join_window=window,
            join_slots=(slot_of(window.left), slot_of(window.right)),
            join_sorted_output=analyzed.join_sorted_output,
            join_keys=_join_keys(hfta_preds, analyzed),
        )
        return QueryPlan(self.name, analyzed, lftas, hfta, analyzed.output_schema)

    # -- merge -------------------------------------------------------------------------
    def _plan_merge(self) -> QueryPlan:
        analyzed = self.analyzed
        inputs = []
        input_schemas = []
        merge_slots = []
        for position, source in enumerate(analyzed.sources):
            if source.is_protocol:
                raise PlanError(
                    "MERGE sources must be streams; wrap the protocol in a "
                    "selection query first"
                )
            inputs.append(source.ref.name)
            input_schemas.append(source.schema)
            bound = analyzed.merge_columns[position]
            merge_slots.append((position, bound.attr_index))
        hfta = HftaPlan(
            name=self.name,
            kind="merge",
            inputs=inputs,
            input_schemas=input_schemas,
            output_schema=analyzed.output_schema,
            slot_maps=[None] * len(inputs),
            merge_slots=merge_slots,
        )
        return QueryPlan(self.name, analyzed, [], hfta, analyzed.output_schema)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _raw_column(analyzed: AnalyzedQuery, source: SourceInfo,
                bound: BoundColumn) -> Column:
    """A fresh Column node for a raw field, bound into the side tables."""
    column = Column(name=bound.attribute.name, table=source.binding)
    analyzed.bindings[id(column)] = bound
    analyzed.types[id(column)] = bound.attribute.gsql_type
    return column


def _single_source(expr: Expr, analyzed: AnalyzedQuery) -> Optional[int]:
    """The one source index ``expr`` references, or None if 0 or 2 sources."""
    sources = set()
    for node in expr.walk():
        if isinstance(node, Column):
            bound = analyzed.binding_of(node)
            if bound is not None:
                sources.add(bound.source_index)
    if len(sources) == 1:
        return sources.pop()
    return None


def _join_keys(conjuncts: Sequence[Expr],
               analyzed: AnalyzedQuery) -> List[Tuple[Column, Column]]:
    """The ``colL = colR`` conjuncts a join can index its window on.

    Only bare columns bound to opposite sources qualify: reading a slot
    cannot raise, so building a row's key can never discard a tuple the
    predicate would have seen (an expression or a partial function call
    could).  The window's own equality (``B.ts = C.ts``) is left to the
    window.  Pairs come back oriented (source 0 column, source 1 column).
    """
    window = analyzed.join_window
    keys = []
    for conjunct in conjuncts:
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="
                and isinstance(conjunct.left, Column)
                and isinstance(conjunct.right, Column)):
            continue
        left_column, right_column = conjunct.left, conjunct.right
        left = analyzed.binding_of(left_column)
        right = analyzed.binding_of(right_column)
        if left is None or right is None:
            continue
        if left.source_index > right.source_index:
            left, right = right, left
            left_column, right_column = right_column, left_column
        if left.source_index == right.source_index:
            continue
        if (left.attr_index == window.left.attr_index
                and right.attr_index == window.right.attr_index):
            continue
        keys.append((left_column, right_column))
    return keys


#: operators a pushed prefix may use: total over the integers and
#: floats that header fields, capture metadata and literals carry
#: (``/`` and ``%`` can divide by zero)
_TOTAL_OPS = frozenset({"=", "<>", "<", "<=", ">", ">=", "+", "-", "*",
                        "&", "|", "^", "AND", "OR"})


def _mark_prefix(lfta: LftaPlan, analyzed: AnalyzedQuery) -> None:
    """Mark the leading run of ``lfta``'s conjuncts that its generated
    block kernel can test inside the decode loop, before a row exists
    (DESIGN section 14).

    Only a *leading* run: conjuncts short-circuit in order, so one that
    sits behind a conjunct the loop cannot take (a function call may
    discard the tuple or raise) must keep seeing exactly the rows that
    conjunct passes.  A sampled plan pushes nothing: its draw has to
    see every guard-passing packet first.
    """
    readable = lfta.protocol.prefix_fields()
    if not readable:
        lfta.prefix_note = "row adapter"
    elif lfta.sample_rate is not None:
        lfta.prefix_note = "sampled"
    elif not lfta.predicates:
        lfta.prefix_note = "no predicate"
    else:
        for conjunct in lfta.predicates:
            obstacle = _prefix_obstacle(conjunct, analyzed, readable)
            if obstacle is not None:
                if not lfta.prefix:
                    lfta.prefix_note = f"first conjunct {obstacle}"
                break
            lfta.prefix += 1


def _prefix_obstacle(conjunct: Expr, analyzed: AnalyzedQuery,
                     readable) -> Optional[str]:
    """What keeps ``conjunct`` out of the decode loop, or None: it must
    read only ``readable`` attributes through operators that cannot
    raise."""
    for node in conjunct.walk():
        if isinstance(node, (FuncCall, AggCall)):
            return f"calls {node.name}"
        if isinstance(node, Column):
            bound = analyzed.binding_of(node)
            if bound is None or bound.attr_index not in readable:
                return f"reads {node.name}"
        elif isinstance(node, BinaryOp):
            if node.op in ("<<", ">>"):
                count = node.right
                if not (isinstance(count, Literal)
                        and type(count.value) is int
                        and 0 <= count.value <= 64):
                    return "shifts by other than a small literal"
            elif node.op not in _TOTAL_OPS:
                return f"uses {node.op}"
        elif isinstance(node, Literal):
            if not isinstance(node.value, (int, float)):
                return "compares a string"
        elif not isinstance(node, (Param, UnaryOp)):
            return f"holds {type(node).__name__}"
    return None

