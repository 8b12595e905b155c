"""Static cost estimation for query plans.

The planner's LFTA/HFTA split and the Section 4 simulation both reason
about how expensive a query's pieces are.  This module derives those
numbers *from the plan itself* -- predicate shapes, function costs
(:attr:`FunctionSpec.cost`), and the cost model's unit price -- so the
two stay consistent and EXPLAIN can show where the cycles go.

Costs are expressed in "operations" (1.0 = one comparison) and
converted to microseconds with :attr:`CostEstimate.us_per_operation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.gsql.ast_nodes import AggCall, BinaryOp, Column, Expr, FuncCall, UnaryOp
from repro.gsql.functions import FunctionRegistry
from repro.gsql.planner import LftaPlan, QueryPlan

#: microseconds per abstract operation on the modeled 733 MHz host
DEFAULT_US_PER_OPERATION = 0.02

#: rows assumed to sit in a join window when an arrival probes it (the
#: plan knows the window's width, not the rate); a keyed probe is taken
#: to find one of them in its bucket
NOMINAL_WINDOW_ROWS = 16.0


def expr_operations(expr: Expr, functions: FunctionRegistry) -> float:
    """Abstract operation count to evaluate ``expr`` once."""
    total = 0.0
    for node in expr.walk():
        if isinstance(node, (BinaryOp, UnaryOp)):
            total += 1.0
        elif isinstance(node, Column):
            total += 0.5  # a slot load
        elif isinstance(node, FuncCall):
            total += functions.get(node.name).cost
        elif isinstance(node, AggCall):
            total += 2.0  # state load + update
    return total


@dataclass
class StageCost:
    """Estimated per-input-item cost of one plan stage."""

    name: str
    operations: float
    detail: Dict[str, float] = field(default_factory=dict)

    def us(self, us_per_operation: float = DEFAULT_US_PER_OPERATION) -> float:
        return self.operations * us_per_operation


@dataclass
class CostEstimate:
    """Per-packet LFTA costs and per-tuple HFTA cost for one plan."""

    lfta_stages: List[StageCost]
    hfta_stage: Optional[StageCost]
    us_per_operation: float = DEFAULT_US_PER_OPERATION

    @property
    def lfta_us_per_packet(self) -> float:
        return sum(stage.us(self.us_per_operation)
                   for stage in self.lfta_stages)

    @property
    def hfta_us_per_tuple(self) -> float:
        if self.hfta_stage is None:
            return 0.0
        return self.hfta_stage.us(self.us_per_operation)

    def describe(self) -> str:
        lines = []
        for stage in self.lfta_stages:
            lines.append(
                f"  LFTA {stage.name}: {stage.operations:.1f} ops/packet "
                f"(~{stage.us(self.us_per_operation):.2f} us)"
            )
        if self.hfta_stage is not None:
            stage = self.hfta_stage
            lines.append(
                f"  HFTA {stage.name}: {stage.operations:.1f} ops/tuple "
                f"(~{stage.us(self.us_per_operation):.2f} us)"
            )
        return "\n".join(lines)


def _lfta_cost(plan: LftaPlan, functions: FunctionRegistry) -> StageCost:
    detail: Dict[str, float] = {}
    detail["interpretation"] = 2.0 + 0.5 * len(plan.field_map or {})
    detail["predicates"] = sum(
        expr_operations(conjunct, functions) for conjunct in plan.predicates
    )
    if plan.mode == "projection":
        detail["projection"] = sum(
            expr_operations(expr, functions) for expr in plan.project_exprs
        )
    else:
        detail["group_keys"] = sum(
            expr_operations(expr, functions) for expr in plan.group_exprs
        )
        detail["hash_update"] = 3.0 + 2.0 * len(plan.aggregates)
    return StageCost(plan.name, sum(detail.values()), detail)


def estimate_plan_cost(plan: QueryPlan, functions: FunctionRegistry,
                       us_per_operation: float = DEFAULT_US_PER_OPERATION
                       ) -> CostEstimate:
    """Estimate per-item costs for every stage of ``plan``."""
    lfta_stages = [_lfta_cost(lfta, functions) for lfta in plan.lftas]
    hfta_stage = None
    if plan.hfta is not None:
        hfta = plan.hfta
        detail: Dict[str, float] = {}
        detail["predicates"] = sum(
            expr_operations(conjunct, functions) for conjunct in hfta.predicates
        )
        if hfta.kind == "selection":
            detail["projection"] = sum(
                expr_operations(expr, functions) for expr in hfta.select_exprs
            )
        elif hfta.kind == "aggregation":
            if hfta.final_from_partials:
                detail["combine"] = 2.0 + 2.0 * len(hfta.aggregates)
            else:
                detail["group_keys"] = sum(
                    expr_operations(expr, functions)
                    for expr in hfta.group_exprs
                )
                detail["update"] = 2.0 * len(hfta.aggregates)
            detail["hash"] = 3.0
        elif hfta.kind == "join":
            # "predicates" above prices one candidate; bisection is 2.0.
            if hfta.join_keys:
                # hash the key columns, bisect that one bucket
                detail["keyed_probe"] = 3.0 + 0.5 * len(hfta.join_keys) + 2.0
            else:
                # bisect the window; the predicate runs on every row in it
                detail["window_scan"] = (
                    2.0 + (NOMINAL_WINDOW_ROWS - 1.0) * detail["predicates"])
            detail["projection"] = sum(
                expr_operations(expr, functions) for expr in hfta.select_exprs
            )
        elif hfta.kind == "merge":
            detail["heap"] = 3.0
        hfta_stage = StageCost(hfta.name, sum(detail.values()), detail)
    return CostEstimate(lfta_stages, hfta_stage, us_per_operation)
