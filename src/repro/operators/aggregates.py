"""The partial encoding shared by LFTA and HFTA aggregation.

Gigascope's aggregate query splitting works like sub-/super-aggregates
in data-cube computation: the LFTA maintains *partial* states that the
HFTA later *combines*.  A group's state is held as one column per
partial slot on both levels: COUNT, SUM, MIN and MAX take one slot
each, AVG a ``(sum, count)`` pair, which is what an LFTA emits and an
HFTA folds in.

The folds themselves are straight-line statements generated for a
plan's aggregate list (``ExprCompiler.lfta_action`` /
``hfta_aggregate_fn`` / ``hfta_close_fn``; DESIGN section 18).  What
they must compute is stated once, a row at a time, by the tests'
reference (``tests/reference/evaluator.py``'s fold table, which
``tests/reference/aggregation.py`` runs on both levels).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.gsql.ast_nodes import AggCall


def partial_layout(aggregates: Sequence[AggCall]) -> List[int]:
    """Number of partial slots each aggregate occupies (AVG needs two)."""
    return [2 if agg.name == "AVG" else 1 for agg in aggregates]
