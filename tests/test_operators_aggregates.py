"""Tests for the aggregate state machinery (sub/super-aggregate split)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gsql.ast_nodes import AggCall, Column
from repro.gsql.codegen import DiscardTuple
from repro.operators.aggregates import AggregateOps, partial_layout
from tests.reference.evaluator import NoResult, ReferenceEvaluator


def generic_ops(analyzed, functions, aggregates):
    """The generic loops, over argument values the reference evaluator
    computes from the input tuple."""
    reference = ReferenceEvaluator(analyzed, functions)
    return AggregateOps(aggregates, [
        None if agg.arg is None
        else (lambda row, arg=agg.arg:
              reference.value(arg, row, slot_maps=(None, None)))
        for agg in aggregates])


def make_ops(*names):
    """AggregateOps over rows that are (value,) 1-tuples."""
    aggregates = [
        AggCall(name, None if name == "COUNT" else Column("v"))
        for name in names
    ]
    arg_fns = [None if name == "COUNT" else (lambda row: row[0])
               for name in names]
    return AggregateOps(aggregates, arg_fns)


class TestLayout:
    def test_avg_takes_two_slots(self):
        aggregates = [AggCall("COUNT", None), AggCall("AVG", Column("v")),
                      AggCall("SUM", Column("v"))]
        assert partial_layout(aggregates) == [1, 2, 1]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AggregateOps([AggCall("COUNT", None)], [])


class TestDirectAccumulation:
    def test_all_aggregates(self):
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        state = ops.new_state()
        for value in (5, 1, 9, 3):
            ops.update(state, (value,))
        assert ops.final_values(state) == (4, 18, 1, 9, 4.5)

    def test_avg_of_nothing_is_zero(self):
        ops = make_ops("AVG")
        assert ops.final_values(ops.new_state()) == (0.0,)

    def test_min_max_single_value(self):
        ops = make_ops("MIN", "MAX")
        state = ops.new_state()
        ops.update(state, (7,))
        assert ops.final_values(state) == (7, 7)


class TestPartialCombine:
    def test_partials_round_trip(self):
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        state = ops.new_state()
        for value in (2, 8, 4):
            ops.update(state, (value,))
        partials = ops.partials(state)
        assert len(partials) == ops.partial_width == 6
        combined = ops.new_state()
        ops.combine(combined, partials)
        assert ops.final_values(combined) == ops.final_values(state)

    def test_combining_two_partials(self):
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        left, right = ops.new_state(), ops.new_state()
        for value in (1, 2, 3):
            ops.update(left, (value,))
        for value in (10, 20):
            ops.update(right, (value,))
        total = ops.new_state()
        ops.combine(total, ops.partials(left))
        ops.combine(total, ops.partials(right))
        assert ops.final_values(total) == (5, 36, 1, 20, 7.2)

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=60),
           st.data())
    def test_any_split_equals_direct(self, values, data):
        """Splitting the stream at arbitrary points (LFTA evictions) and
        recombining (HFTA) must equal direct aggregation -- the core
        correctness property of the aggregate query splitting."""
        ops = make_ops("COUNT", "SUM", "MIN", "MAX", "AVG")
        direct = ops.new_state()
        for value in values:
            ops.update(direct, (value,))

        combined = ops.new_state()
        cursor = 0
        while cursor < len(values):
            size = data.draw(st.integers(1, len(values) - cursor))
            chunk = ops.new_state()
            for value in values[cursor:cursor + size]:
                ops.update(chunk, (value,))
            ops.combine(combined, ops.partials(chunk))
            cursor += size

        direct_final = ops.final_values(direct)
        combined_final = ops.final_values(combined)
        assert direct_final[:4] == combined_final[:4]
        assert direct_final[4] == pytest.approx(combined_final[4])


class TestGeneratedKernels:
    """The per-plan straight-line kernels (``AggregateOps.for_plan`` over
    ``ExprCompiler.aggregate_kernels``) against the generic loops."""

    QUERY = ("DEFINE query_name q; "
             "Select tb, count(*), sum(len), min(len), max(len), avg(len), "
             "min(destPort), sum(destPort) "
             "From tcp Group by time/10 as tb")

    @staticmethod
    def rows(count=40, seed=5):
        import random
        rng = random.Random(seed)
        width = 19  # tcp protocol schema
        out = []
        for _ in range(count):
            row = [rng.randrange(1, 2000) for _ in range(width)]
            out.append(tuple(row))
        return out

    def both(self, compile_plan, functions):
        """(generated ops, generic ops, compiler)."""
        analyzed, plan, compiler = compile_plan(self.QUERY)
        lfta = plan.lftas[0]
        built = AggregateOps.for_plan(compiler, lfta.aggregates, (None, None))
        generic = generic_ops(analyzed, functions, lfta.aggregates)
        return built, generic, compiler

    def test_every_aggregate_name_is_covered(self, compile_plan, functions):
        built, _generic, _compiler = self.both(compile_plan, functions)
        assert {agg.name for agg in built.aggregates} == {
            "COUNT", "SUM", "MIN", "MAX", "AVG"}

    def test_kernels_are_generated_sources(self, compile_plan, functions):
        built, generic, compiler = self.both(compile_plan, functions)
        for kernel in (built.update, built.update_weighted, built.combine):
            assert kernel.__name__.startswith("_g")
            assert any(source.startswith(f"def {kernel.__name__}(")
                       for source in compiler.generated_sources)
        # Straight-line: no loop, no name dispatch.
        update_source = next(
            source for source in compiler.generated_sources
            if source.startswith(f"def {built.update.__name__}("))
        assert "for " not in update_source and "COUNT" not in update_source
        assert "s[0] += 1" in update_source
        # The plain constructor keeps the generic loops.
        assert generic.update.__func__ is AggregateOps.update

    @pytest.mark.parametrize("weight", [1.0, 2.5, 1 / 0.3])
    def test_update_matches_generic(self, compile_plan, functions, weight):
        built, generic, _ = self.both(compile_plan, functions)
        states = [ops.new_state() for ops in (built, generic, built, generic)]
        assert states[0][2] is None and states[0][3] is None  # MIN/MAX unset
        for step, row in enumerate(self.rows()):
            built.update(states[0], row)
            generic.update(states[1], row)
            built.update_weighted(states[2], row, weight)
            generic.update_weighted(states[3], row, weight)
            assert states[0] == states[1], step
            assert states[2] == states[3], step
        assert built.partials(states[0]) == generic.partials(states[1])
        assert built.final_values(states[2]) == generic.final_values(states[3])

    def test_combine_matches_generic(self, compile_plan, functions):
        built, generic, _ = self.both(compile_plan, functions)
        rows = self.rows(60)
        partials = []
        for start in range(0, 60, 7):
            chunk = generic.new_state()
            for row in rows[start:start + 7]:
                generic.update(chunk, row)
            partials.append(generic.partials(chunk))
        # An untouched group's partial carries None for MIN/MAX: it must
        # neither raise nor clobber a value already combined.
        empty = generic.partials(generic.new_state())
        assert None in empty
        sequences = [partials, [empty] + partials, partials[:3] + [empty]
                     + partials[3:], [empty, empty]]
        for sequence in sequences:
            a, b = built.new_state(), generic.new_state()
            for partial in sequence:
                built.combine(a, partial)
                generic.combine(b, partial)
                assert a == b
        # AVG folds its two partial slots (sum, count), not one.
        width = built.partial_width
        assert width == len(built.aggregates) + 1
        state = built.new_state()
        built.combine(state, tuple(range(1, width + 1)))
        avg_index = [agg.name for agg in built.aggregates].index("AVG")
        assert state[avg_index] == [5.0, 6]

    def test_superaggregate_plan_generates_only_combine(self, compile_plan):
        _analyzed, plan, compiler = compile_plan(self.QUERY)
        ops = AggregateOps.for_plan(compiler, plan.hfta.aggregates, None)
        assert ops.update is None and ops.update_weighted is None
        assert ops.combine.__name__.startswith("_g")

    def test_discard_in_an_argument_touches_no_state(self, compile_plan,
                                                     functions):
        """Arguments before state: a partial function with no result
        raises before any slot is folded -- ``count(*)``, which comes
        first in the list, must not have been bumped."""
        # An inline one-prefix table: no row's destIP (< 2000) is in it.
        analyzed, plan, compiler = compile_plan(
            "DEFINE query_name q; Select tb, count(*), "
            "sum(getlpmid(destIP, '10.0.0.0/8 1')), max(len) From tcp "
            "Group by time/10 as tb")
        lfta = plan.lftas[0]
        built = AggregateOps.for_plan(compiler, lfta.aggregates, (None, None))
        generic = generic_ops(analyzed, functions, lfta.aggregates)
        row = self.rows(1)[0]
        for ops, no_result in ((built, DiscardTuple), (generic, NoResult)):
            for fold in (ops.update,
                         lambda s, t: ops.update_weighted(s, t, 2.5)):
                state = ops.new_state()
                with pytest.raises(no_result):
                    fold(state, row)
                assert state == [0, 0, None]
