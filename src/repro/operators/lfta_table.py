"""The LFTA's direct-mapped aggregation hash table (paper Section 3).

"An LFTA can perform aggregation, but it uses a small direct-mapped
hash table.  Hash table collisions result in a tuple computed from the
ejected group being written to the output stream.  Because of temporal
locality, aggregation even with a small hash table is effective in
early data reduction."

The table is an array of slots; each group hashes to exactly one slot
and a collision *ejects* the resident group as a partial aggregate.
Benchmark E4 sweeps the table size against workload locality.

A slot is a position in parallel arrays (DESIGN section 18): ``keys``
(None where the slot is empty) and ``columns``, one array per state
slot.  The LFTA's table has one column per partial slot of its plan
(``layout``: AVG's ``(sum, count)`` takes two), so a group is its key
plus ``width`` plain values and costs the collector nothing per group:
``size * (1 + width)`` array entries, allocated once.  An ejection
reads ``key + partials`` out of the columns and the new group
overwrites the slot in place.  Without a ``layout`` the table has one
column holding an opaque state object per slot.

Two ways in.  The per-key methods (:meth:`DirectMappedTable.upsert`
and friends) are the table's definition and what its unit tests and
the tracing wraps hold on to: a state is the opaque object, or on a
columnar table the tuple of the slot's column values (reads copy it
out, writes copy it in).  The engine's is the LFTA's generated row
action (``ExprCompiler.lfta_action``): linked against the table, it
places each row's key, probes the key array and folds into the columns
inline, and hands the counter deltas back once per block
(:meth:`DirectMappedTable.close_block`).  Both place a key in the same
slot -- ``stable_hash(key) % size`` -- and a plan whose group key is
statically all-integer computes that number through a ``%d`` format
instead of ``repr`` (``key_format``; see
:func:`repro.determinism.int_key_format`).
"""

from __future__ import annotations

from typing import (Any, Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.determinism import key_hasher
from repro.operators.aggregates import column_values, state_list


class DirectMappedTable:
    """A fixed-size direct-mapped map from group keys to states.

    Slots are placed with :func:`repro.determinism.stable_hash`, not
    builtin ``hash()``: slot choice decides which groups collide and
    get ejected, so with a process-randomized hash two runs of the same
    workload emit different partials (and different E4 numbers).
    ``key_format`` is the plan's :func:`~repro.determinism.int_key_format`
    when its keys are all-integer: the same number, computed faster.
    ``layout`` (:func:`~repro.operators.aggregates.partial_layout`)
    makes the table columnar.  ``None`` is not a key: it marks an
    empty slot.
    """

    __slots__ = ("size", "keys", "columns", "layout", "occupied",
                 "collisions", "lookups", "_hash")

    def __init__(self, size: int = 4096,
                 key_format: Optional[bytes] = None,
                 layout: Optional[Sequence[int]] = None) -> None:
        if size <= 0:
            raise ValueError("table size must be positive")
        self.size = size
        self._hash = key_hasher(key_format)
        self.layout = None if layout is None else tuple(layout)
        width = 1 if layout is None else sum(layout)
        #: the resident group's key per slot; None: empty
        self.keys: List[Any] = [None] * size
        #: one array per state slot, parallel to ``keys``
        self.columns: Tuple[List[Any], ...] = tuple(
            [None] * size for _ in range(width))
        self.occupied = 0
        self.collisions = 0
        self.lookups = 0

    def _state(self, index: int) -> Any:
        if self.layout is None:
            return self.columns[0][index]
        return tuple(column[index] for column in self.columns)

    def _put(self, index: int, key: Any, state: Any) -> None:
        self.keys[index] = key
        if self.layout is None:
            self.columns[0][index] = state
        else:
            for column, value in zip(self.columns, state, strict=True):
                column[index] = value

    def _place(self, key: Any) -> Tuple[int, Optional[Tuple[Any, Any]]]:
        """Count a lookup; the slot of ``key`` and the resident group
        there as ``(key, state)``, None when the slot is empty."""
        self.lookups += 1
        index = self._hash(key) % self.size
        resident = self.keys[index]
        if resident is None:
            return index, None
        return index, (resident, self._state(index))

    def _install(self, index: int, key: Any, state: Any,
                 resident: Optional[Tuple[Any, Any]]) -> None:
        self._put(index, key, state)
        if resident is None:
            self.occupied += 1
        else:
            self.collisions += 1

    def find(self, key: Any) -> Optional[Any]:
        """The state for ``key`` if resident, else None."""
        _, resident = self._place(key)
        if resident is not None and resident[0] == key:
            return resident[1]
        return None

    def insert(self, key: Any, state: Any) -> Optional[Tuple[Any, Any]]:
        """Install ``key``; returns the ejected ``(key, state)`` if any."""
        index, resident = self._place(key)
        if resident is not None and resident[0] == key:
            self._put(index, key, state)
            return None
        self._install(index, key, state, resident)
        return resident

    def upsert(self, key: Any, make_state: Callable[[], Any]
               ) -> Tuple[Any, Optional[Tuple[Any, Any]]]:
        """Find-or-create the state for ``key``.

        Returns ``(state, ejected)`` where ``ejected`` is the group the
        new key displaced (or None).
        """
        index, resident = self._place(key)
        if resident is not None and resident[0] == key:
            return resident[1], None
        self._install(index, key, make_state(), resident)
        return self._state(index), resident

    #: :meth:`upsert` as defined here, whatever wraps the class attribute
    _upsert = upsert

    def upsert_slices(self, keys: Iterable[Any],
                      make_state: Callable[[], Any]
                      ) -> Iterator[Tuple[Any, Optional[Tuple[Any, Any]]]]:
        """Upsert a block of group keys, lazily.

        A generator yielding ``(state, ejected)`` per key, in order.
        Consumption drives the table mutation: each key's lookup,
        insertion, and accounting happen exactly when its result is
        pulled, so a consumer interleaving ejection emission with state
        updates observes the same table trajectory as per-row
        :meth:`upsert` calls.
        """
        for key in keys:
            yield self._upsert(key, make_state)

    # -- block access (the generated LFTA kernel, DESIGN section 18) ------
    def close_block(self, lookups: int, occupied: int, collisions: int) -> None:
        """Add a block's counter deltas: probes made, empty slots
        filled, resident groups ejected.  The kernel reads ``keys``,
        ``columns`` (both valid across :meth:`evict_if`, which clears
        slots in place) and the key hash (``_hash``) once per block,
        probes and installs groups itself in row order, and reports
        what it did here."""
        self.lookups += lookups
        self.occupied += occupied
        self.collisions += collisions

    def _evict(self, indices: List[int]) -> List[Tuple[Any, Any]]:
        """Empty the slots ``indices`` in place; their ``(key, state)``
        groups, in slot order."""
        keys = self.keys
        picked = [[column[index] for index in indices]
                  for column in self.columns]
        if self.layout is None:
            states = picked[0]
        else:
            states = list(zip(*picked)) if picked else [()] * len(indices)
        groups = list(zip([keys[index] for index in indices], states))
        for column in (keys,) + self.columns:
            for index in indices:
                column[index] = None
        self.occupied -= len(indices)
        return groups

    def evict_all(self) -> List[Tuple[Any, Any]]:
        """Remove and return every resident group (epoch flush)."""
        return self._evict([index for index, key in enumerate(self.keys)
                            if key is not None])

    def evict_if(self, should_evict: Callable[[Any], bool]) -> List[Tuple[Any, Any]]:
        """Remove and return groups whose *key* satisfies the predicate."""
        return self._evict([index for index, key in enumerate(self.keys)
                            if key is not None and should_evict(key)])

    # -- checkpoint/restore (DESIGN section 11) --------------------------
    def snapshot_state(self) -> dict:
        """Table contents and accounting as snapshot primitives.

        Slots are stored sparsely (``{index: (key, state)}``): the
        table is direct-mapped and mostly empty, and replication
        re-encodes it every delta frame, so empty slots must cost
        nothing on the wire.  A columnar table renders each state as
        the state list of the generic aggregate loops
        (:func:`~repro.operators.aggregates.state_list`), the shape
        snapshots have always had.  The caller encodes the result
        immediately (an opaque state aliases the live object until
        then).
        """
        render = self._state if self.layout is None else (
            lambda index: state_list(self._state(index), self.layout))
        return {
            "size": self.size,
            "slots": {index: (key, render(index))
                      for index, key in enumerate(self.keys)
                      if key is not None},
            "occupied": self.occupied,
            "collisions": self.collisions,
            "lookups": self.lookups,
        }

    def restore_state(self, state: dict) -> None:
        if state["size"] != self.size:
            raise ValueError(
                f"snapshot is for a table of size {state['size']}, "
                f"this table has size {self.size}")
        self.keys[:] = [None] * self.size
        for column in self.columns:
            column[:] = [None] * self.size
        for index, (key, slot_state) in state["slots"].items():
            self._put(index, key, slot_state if self.layout is None
                      else column_values(slot_state, self.layout))
        self.occupied = state["occupied"]
        self.collisions = state["collisions"]
        self.lookups = state["lookups"]

    def __len__(self) -> int:
        return self.occupied

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        return ((key, self._state(index))
                for index, key in enumerate(self.keys) if key is not None)

    @property
    def collision_rate(self) -> float:
        """Collisions per lookup; high values mean poor early reduction."""
        return self.collisions / self.lookups if self.lookups else 0.0
