"""The HFTA selection/projection operator.

Stateless but for a ``DEFINE sample`` gate's RNG: evaluates the
residual predicates (the ones too expensive for the LFTA, e.g. regex
matching) and builds the output tuple.
Punctuation passes through, translated onto the output attributes that
carry a monotone function of the promised input attribute.
"""

from __future__ import annotations

from repro.core.heartbeat import Punctuation
from repro.core.query_node import QueryNode
from repro.determinism import rng_for
from repro.gsql.codegen import ExprCompiler
from repro.gsql.planner import HftaPlan
from repro.gsql.semantic import AnalyzedQuery
from repro.operators.base import apply_transforms, output_bound_transforms


class SelectionNode(QueryNode):
    """Selection and projection over one input stream."""

    def __init__(self, plan: HftaPlan, analyzed: AnalyzedQuery,
                 compiler: ExprCompiler, seed: int = 0) -> None:
        super().__init__(plan.name, plan.output_schema)
        self.plan = plan
        slot_maps = tuple(plan.slot_maps)
        if plan.sample_rate is not None:
            # Seeded registry stream, not hash(name): str hash() is
            # process-randomized and breaks deterministic replay.
            self._sample_rate = plan.sample_rate
            self._sample_rng = rng_for(seed, "hfta.sample", plan.name)
        else:
            self._sample_rate = None
            self._sample_rng = None
        self._batch_select = compiler.batch_select_fn(
            plan.predicates, plan.select_exprs, slot_maps)
        self._transforms = output_bound_transforms(
            plan.select_exprs, analyzed, plan.output_schema, slot_maps,
            functions=compiler.functions,
        )

    def on_tuple(self, row: tuple, input_index: int) -> None:
        self.on_tuple_batch((row,), input_index)

    def on_tuple_batch(self, rows, input_index: int) -> None:
        if self._sample_rate is not None:
            rate = self._sample_rate
            rng = self._sample_rng.random
            kept = [row for row in rows if rng() < rate]
            self.stats.discarded += len(rows) - len(kept)
            rows = kept
        out = []
        dropped = self._batch_select(rows, out.append)
        if dropped:
            self.stats.discarded += dropped
        self.emit_many(out)

    def on_punctuation(self, punctuation: Punctuation, input_index: int) -> None:
        out = apply_transforms(self._transforms, 0, punctuation.bounds)
        if out:
            self.emit_punctuation(Punctuation(out))

    # -- checkpoint/restore (DESIGN section 11) ----------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        if self._sample_rng is not None:
            state["sample_rng"] = self._sample_rng.getstate()
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        if self._sample_rng is not None:
            self._sample_rng.setstate(state["sample_rng"])
