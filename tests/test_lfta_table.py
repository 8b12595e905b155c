"""Tests for the LFTA's direct-mapped aggregation table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.operators.lfta_table import DirectMappedTable


def residents(table):
    """``{slot: (key, *column values)}`` read off the table's snapshot."""
    state = table.snapshot_state()
    return dict(zip(state["slots"], zip(state["keys"], *state["columns"])))


class TestBasics:
    def test_insert_and_find(self):
        table = DirectMappedTable(16)
        assert table.insert("a", 1) is None
        assert table.find("a") == 1
        assert table.find("b") is None
        assert len(table) == 1

    def test_update_in_place(self):
        table = DirectMappedTable(16)
        table.insert("a", 1)
        assert table.insert("a", 2) is None
        assert table.find("a") == 2
        assert len(table) == 1

    def test_collision_ejects_resident(self):
        table = DirectMappedTable(1)  # everything collides
        table.insert("a", 1)
        ejected = table.insert("b", 2)
        assert ejected == ("a", 1)
        assert table.find("b") == 2
        assert table.find("a") is None
        assert table.collisions == 1

    def test_upsert_creates_then_reuses(self):
        table = DirectMappedTable(8)
        state, ejected = table.upsert("k", list)
        assert state == [] and ejected is None
        state.append(1)
        again, ejected = table.upsert("k", list)
        assert again == [1] and ejected is None

    def test_upsert_reports_ejection(self):
        table = DirectMappedTable(1)
        table.upsert("a", lambda: "A")
        state, ejected = table.upsert("b", lambda: "B")
        assert state == "B"
        assert ejected == ("a", "A")

    def test_evict_all(self):
        table = DirectMappedTable(64)
        for i in range(10):
            table.insert(i, i * i)
        groups = dict(table.evict_all())
        assert len(groups) == 10
        assert len(table) == 0
        assert groups[3] == 9

    def test_evict_if(self):
        table = DirectMappedTable(64)
        for i in range(10):
            table.insert((i,), i)
        old = table.evict_if(lambda key: key[0] < 5)
        assert sorted(state for _, state in old) == [0, 1, 2, 3, 4]
        assert len(table) == 5

    def test_size_validation(self):
        with pytest.raises(ValueError):
            DirectMappedTable(0)

    def test_collision_rate(self):
        table = DirectMappedTable(1)
        table.upsert("a", list)
        table.upsert("b", list)
        assert table.collision_rate == 0.5

    def test_insert_counts_lookups_like_upsert(self):
        # collision_rate = collisions / lookups must not depend on
        # which entry point filled the table.
        table = DirectMappedTable(1)
        table.insert("a", 1)
        table.insert("b", 2)
        assert table.lookups == 2
        assert table.collision_rate == 0.5

    def test_slot_placement_is_stable_hash(self):
        from repro.determinism import stable_hash
        table = DirectMappedTable(8)
        key = (12, 0x0A000001)
        table.insert(key, "state")
        assert residents(table) == {stable_hash(key) % 8: (key, "state")}

    def test_an_all_integer_plan_places_by_the_tuple_hash(self):
        from repro.determinism import stable_hash, tuple_hash
        table = DirectMappedTable(64, tuple_hash)
        key, stray = (12, 0x0A000001), (12, None)
        table.insert(key, "state")
        table.insert(stray, "other")
        assert residents(table) == {
            hash(key) % 64: (key, "state"),
            stable_hash(stray) % 64: (stray, "other")}

    def test_a_snapshot_is_the_columns_at_the_occupied_slots(self):
        """Slot order, one list per array; a restore writes the values
        back into the arrays the generated kernel holds."""
        table = DirectMappedTable(8, lambda key: key, layout=[1, 2])
        table.insert(6, (1, 2.5, 3))
        table.insert(3, (4, -0.0, 5))
        state = table.snapshot_state()
        assert (state["slots"], state["keys"], state["columns"]) == (
            [3, 6], [3, 6], [[4, 1], [-0.0, 2.5], [5, 3]])
        restored = DirectMappedTable(8, lambda key: key, layout=[1, 2])
        arrays = (restored.keys,) + restored.columns
        restored.insert(5, (7, 7.0, 7))
        restored.restore_state(state)
        assert all(held is was for held, was in
                   zip((restored.keys,) + restored.columns, arrays))
        assert list(restored) == list(table) == [(3, (4, -0.0, 5)),
                                                 (6, (1, 2.5, 3))]
        assert restored.snapshot_state() == state


class TestConservation:
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=300),
           st.sampled_from([1, 2, 8, 64]))
    def test_no_update_lost(self, keys, size):
        """Counts across residents + ejections equal total updates --
        the LFTA never loses data, it just emits partials early."""
        table = DirectMappedTable(size)
        ejected_counts = {}
        for key in keys:
            state, ejected = table.upsert(key, lambda: [0])
            if ejected is not None:
                k, s = ejected
                ejected_counts[k] = ejected_counts.get(k, 0) + s[0]
            state[0] += 1
        for key, state in table.evict_all():
            ejected_counts[key] = ejected_counts.get(key, 0) + state[0]
        from collections import Counter
        assert ejected_counts == dict(Counter(keys))
