"""Tests for channels and control tokens."""

import pytest

from repro.core.channels import Channel
from repro.core.heartbeat import FLUSH, FlushToken, Punctuation


class TestChannel:
    def test_fifo_order(self):
        channel = Channel()
        for i in range(5):
            channel.push((i,))
        assert [channel.pop() for _ in range(5)] == [(i,) for i in range(5)]

    def test_capacity_drops_newest_tuples(self):
        channel = Channel(capacity=2)
        assert channel.push((1,))
        assert channel.push((2,))
        assert not channel.push((3,))
        assert channel.stats.dropped == 1
        assert len(channel) == 2

    def test_control_tokens_never_dropped(self):
        channel = Channel(capacity=1)
        channel.push((1,))
        assert channel.push(Punctuation({0: 5}))
        assert channel.push(FLUSH)
        assert len(channel) == 3

    def test_stats(self):
        channel = Channel()
        channel.push((1,))
        channel.push((2,))
        channel.pop()
        assert channel.stats.pushed == 2
        assert channel.stats.popped == 1
        assert channel.stats.max_depth == 2

    def test_drain(self):
        channel = Channel()
        channel.push((1,))
        channel.push((2,))
        assert channel.drain() == [(1,), (2,)]
        assert len(channel) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Channel(capacity=0)

    def test_bool_and_iter(self):
        channel = Channel()
        assert not channel
        channel.push((1,))
        assert channel
        assert list(channel) == [(1,)]


class TestOverflowAccounting:
    """Bounded buffers under bursty input: drop data, never control."""

    def test_burst_drops_data_but_keeps_all_control_tokens(self):
        channel = Channel(capacity=4)
        survivors = []
        # A bursty interleaving: tuples overflow, tokens always land.
        for i in range(10):
            if channel.push((i,)):
                survivors.append(i)
            if i % 3 == 2:
                assert channel.push(Punctuation({0: float(i)}))
        assert channel.push(FLUSH)
        assert channel.stats.dropped == 10 - len(survivors)
        assert channel.stats.control_pushed == 4  # 3 punctuation + flush
        # Every control token is still in the queue, in order.
        items = channel.drain()
        controls = [x for x in items if not isinstance(x, tuple)]
        assert len(controls) == 4
        assert isinstance(controls[-1], FlushToken)
        assert [x[0] for x in items if isinstance(x, tuple)] == survivors

    def test_max_depth_bounded_by_capacity_plus_control(self):
        channel = Channel(capacity=2)
        for i in range(20):
            channel.push((i,))
        channel.push(Punctuation({0: 1.0}))
        channel.push(FLUSH)
        assert channel.stats.max_depth <= 2 + channel.stats.control_pushed
        assert channel.stats.dropped == 18

    def test_drops_counted_but_not_pushed(self):
        channel = Channel(capacity=1)
        channel.push((1,))
        channel.push((2,))
        channel.push((3,))
        assert channel.stats.pushed == 1
        assert channel.stats.dropped == 2
        assert channel.stats.control_pushed == 0


class TestBatchTransport:
    """push_many/pop_many must match a per-item push/pop sequence."""

    def test_push_many_unbounded_counts_like_push(self):
        batched, scalar = Channel(), Channel()
        items = [(0,), Punctuation({0: 1.0}), (1,), (2,), FLUSH]
        assert batched.push_many(items) == 5
        for item in items:
            scalar.push(item)
        assert batched.stats == scalar.stats
        assert batched.drain() == scalar.drain()

    def test_push_many_bounded_drops_per_item(self):
        batched, scalar = Channel(capacity=3), Channel(capacity=3)
        items = [(i,) for i in range(6)]
        accepted = batched.push_many(items)
        scalar_accepted = sum(scalar.push(item) for item in items)
        assert accepted == scalar_accepted == 3
        assert batched.stats == scalar.stats
        assert batched.stats.dropped == 3

    def test_push_many_straddling_block_keeps_control_tokens(self):
        channel = Channel(capacity=2)
        items = [(0,), (1,), (2,), Punctuation({0: 1.0}), (3,), FLUSH]
        assert channel.push_many(items) == 4  # 2 tuples + 2 control
        assert channel.stats.dropped == 2
        assert channel.stats.control_pushed == 2
        drained = channel.drain()
        assert [x for x in drained if isinstance(x, tuple)] == [(0,), (1,)]
        assert isinstance(drained[-1], FlushToken)

    def test_push_many_respects_fault_capacity(self):
        channel = Channel(capacity=10)
        channel.fault_capacity = 2
        assert channel.push_many([(i,) for i in range(5)]) == 2
        assert channel.stats.dropped == 3

    def test_push_many_max_depth_matches_scalar_high_water(self):
        batched, scalar = Channel(), Channel()
        for block in ([(0,), (1,)], [(2,)], [(3,), (4,), (5,)]):
            batched.push_many(block)
            for item in block:
                scalar.push(item)
        batched.pop_many()
        for _ in range(6):
            scalar.pop()
        assert batched.stats == scalar.stats

    def test_push_many_accepts_a_generator(self):
        channel = Channel()
        assert channel.push_many((i,) for i in range(4)) == 4
        assert channel.stats.pushed == 4
        assert channel.stats.max_depth == 4

    def test_pop_many_all_and_limited(self):
        channel = Channel()
        channel.push_many([(i,) for i in range(5)])
        assert channel.pop_many(2) == [(0,), (1,)]
        assert channel.stats.popped == 2
        assert channel.pop_many() == [(2,), (3,), (4,)]
        assert channel.stats.popped == 5
        assert not channel

    def test_pop_many_limit_beyond_depth(self):
        channel = Channel()
        channel.push((1,))
        assert channel.pop_many(10) == [(1,)]
        assert channel.pop_many() == []
        assert channel.stats.popped == 1

    def test_pop_many_preserves_token_positions(self):
        channel = Channel()
        channel.push_many([(0,), Punctuation({0: 1.0}), (1,), FLUSH])
        items = channel.pop_many()
        assert isinstance(items[1], Punctuation)
        assert isinstance(items[3], FlushToken)
        assert [x for x in items if isinstance(x, tuple)] == [(0,), (1,)]


class TestPushManyCapacityReread:
    """push_many must observe capacity changes mid-block, like push.

    Pin for the bug where push_many read ``_effective_capacity()``
    once per block: a fault injector installing ``fault_capacity``
    from a generator's body (i.e. between items of the same block)
    was ignored for the rest of the block, so the batched path kept
    items a per-push sequence would have dropped.
    """

    @staticmethod
    def _faulting_items(channel, items, trip_at, bound):
        for position, item in enumerate(items):
            if position == trip_at:
                channel.fault_capacity = bound
            yield item

    def test_fault_capacity_installed_mid_block_drops_like_push(self):
        items = [(i,) for i in range(8)]
        batched = Channel()
        batched.push_many(self._faulting_items(batched, items, 4, 2))
        scalar = Channel()
        for position, item in enumerate(items):
            if position == 4:
                scalar.fault_capacity = 2
            scalar.push(item)
        assert batched.stats == scalar.stats
        assert batched.drain() == scalar.drain()
        assert batched.stats.dropped == 4  # items 4..7 hit the new bound

    def test_fault_capacity_lifted_mid_block_accepts_like_push(self):
        items = [(i,) for i in range(8)]
        batched = Channel(capacity=100)
        batched.fault_capacity = 2
        batched.push_many(self._faulting_items(batched, items, 5, None))
        scalar = Channel(capacity=100)
        scalar.fault_capacity = 2
        for position, item in enumerate(items):
            if position == 5:
                scalar.fault_capacity = None
            scalar.push(item)
        assert batched.stats == scalar.stats
        assert batched.drain() == scalar.drain()

    def test_control_tokens_still_pass_a_mid_block_bound(self):
        items = [(0,), (1,), Punctuation({0: 1.0}), (2,), FLUSH]
        batched = Channel()
        batched.push_many(self._faulting_items(batched, items, 1, 1))
        scalar = Channel()
        for position, item in enumerate(items):
            if position == 1:
                scalar.fault_capacity = 1
            scalar.push(item)
        assert batched.stats == scalar.stats
        assert [type(x) for x in batched.drain()] == [type(x) for x in scalar.drain()]


class TestBatchScalarEquivalence:
    """Property-style sweep: push_many/pop_many == push/pop replay.

    Randomized (seeded) mixed blocks of data tuples and control
    tokens, cut into blocks of varying size, pushed through bounded
    and unbounded channels as lists and as generators; the batched
    channel must end with identical contents and identical stats
    (pushed/popped/dropped/max_depth/control_pushed) to a per-item
    replay of the same sequence.
    """

    @staticmethod
    def _mixed_sequence(rng, length):
        sequence = []
        for i in range(length):
            roll = rng.random()
            if roll < 0.70:
                sequence.append((i, rng.randrange(100)))
            elif roll < 0.90:
                sequence.append(Punctuation({0: float(i)}))
            else:
                sequence.append(FLUSH)
        return sequence

    @staticmethod
    def _blocks(rng, sequence):
        blocks = []
        position = 0
        while position < len(sequence):
            size = rng.randrange(1, 7)
            blocks.append(sequence[position:position + size])
            position += size
        return blocks

    @pytest.mark.parametrize("capacity", [None, 1, 3, 5, 8])
    @pytest.mark.parametrize("as_generator", [False, True])
    def test_push_pop_many_matches_scalar_replay(self, capacity, as_generator):
        import random

        rng = random.Random(1337 + (capacity or 0))
        for trial in range(20):
            sequence = self._mixed_sequence(rng, rng.randrange(0, 30))
            blocks = self._blocks(rng, sequence)
            pops = [rng.choice([None, 1, 2, 4]) for _ in blocks]

            batched = Channel(capacity=capacity)
            scalar = Channel(capacity=capacity)
            batched_out = []
            scalar_out = []
            for block, limit in zip(blocks, pops):
                source = iter(block) if as_generator else block
                batched.push_many(source)
                for item in block:
                    scalar.push(item)
                batched_out.extend(batched.pop_many(limit))
                budget = limit if limit is not None else len(scalar)
                while budget and scalar:
                    scalar_out.append(scalar.pop())
                    budget -= 1
            batched_out.extend(batched.pop_many())
            while scalar:
                scalar_out.append(scalar.pop())

            assert batched.stats == scalar.stats
            assert batched_out == scalar_out

    @pytest.mark.parametrize("capacity", [None, 3])
    def test_push_rows_is_push_many_for_data_blocks(self, capacity):
        """emit_many's entry point: same contents, same ledger."""
        rows_channel = Channel(capacity=capacity)
        many_channel = Channel(capacity=capacity)
        for block in ([(1,), (2,)], [], [(3,), (4,), (5,)]):
            assert rows_channel.push_rows(block) == many_channel.push_many(block)
            assert rows_channel.stats == many_channel.stats
        rows_channel.fault_capacity = many_channel.fault_capacity = 1
        assert rows_channel.push_rows([(6,)]) == many_channel.push_many([(6,)])
        assert rows_channel.stats == many_channel.stats
        assert rows_channel.drain() == many_channel.drain()

    def test_control_queued_follows_every_push_and_pop(self):
        """The scheduler trusts ``control_queued == 0`` to mean a popped
        block is one run of data tuples, so no entry or exit may miss."""
        import random

        rng = random.Random(99)
        for trial in range(30):
            channel = Channel(capacity=rng.choice([None, 4]))
            for _ in range(40):
                block = self._mixed_sequence(rng, rng.randrange(0, 6))
                action = rng.randrange(7)
                if action == 0:
                    for item in block:
                        channel.push(item)
                elif action == 1:
                    channel.push_many(block)
                elif action == 2:
                    channel.push_many(iter(block))
                elif action == 3:
                    channel.push_rows([i for i in block if type(i) is tuple])
                elif action == 4 and channel:
                    channel.pop()
                elif action == 5:
                    channel.pop_many(rng.choice([None, 1, 3]))
                elif rng.random() < 0.2:
                    channel.drain()
                assert channel.control_queued == sum(
                    1 for item in channel if type(item) is not tuple)

    def test_capacity_boundary_exact(self):
        """Blocks that land exactly on the bound drop the same suffix."""
        for capacity in (1, 2, 3, 4):
            for block_len in range(0, 9):
                batched = Channel(capacity=capacity)
                scalar = Channel(capacity=capacity)
                block = [(i,) for i in range(block_len)]
                accepted = batched.push_many(block)
                scalar_accepted = sum(scalar.push(item) for item in block)
                assert accepted == scalar_accepted
                assert batched.stats == scalar.stats
                assert batched.drain() == scalar.drain()


class TestPunctuation:
    def test_bound_lookup(self):
        punct = Punctuation({0: 5.0, 3: 9.0})
        assert punct.bound_for(0) == 5.0
        assert punct.bound_for(1) is None

    def test_merged_with_takes_max(self):
        a = Punctuation({0: 5.0, 1: 2.0})
        b = Punctuation({0: 3.0, 2: 7.0})
        merged = a.merged_with(b)
        assert merged.bounds == {0: 5.0, 1: 2.0, 2: 7.0}

    def test_truthiness(self):
        assert not Punctuation({})
        assert Punctuation({0: 1})


class TestFlushToken:
    def test_singleton(self):
        assert FlushToken() is FLUSH
        assert repr(FLUSH) == "FLUSH"
