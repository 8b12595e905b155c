"""The LFTA's direct-mapped aggregation hash table (paper Section 3).

"An LFTA can perform aggregation, but it uses a small direct-mapped
hash table.  Hash table collisions result in a tuple computed from the
ejected group being written to the output stream.  Because of temporal
locality, aggregation even with a small hash table is effective in
early data reduction."

The table is an array of slots; each group hashes to exactly one slot
and a collision *ejects* the resident group as a partial aggregate.
Benchmark E4 sweeps the table size against workload locality.

Two ways in.  The per-key methods (:meth:`DirectMappedTable.upsert`
and friends) are the table's definition and what its unit tests and
the tracing wraps hold on to.  The engine's is the LFTA's generated row
action (``ExprCompiler.lfta_action``, DESIGN section 18): linked
against the table, it places each row's key, probes and replaces
entries in the slot array inline, and hands the counter deltas back
once per block (:meth:`DirectMappedTable.close_block`).  Both place a
key in the same slot -- ``stable_hash(key) % size`` -- and a plan whose
group key is statically all-integer computes that number through a
``%d`` format instead of ``repr`` (``key_format``; see
:func:`repro.determinism.int_key_format`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.determinism import key_hasher


class DirectMappedTable:
    """A fixed-size direct-mapped map from group keys to states.

    Slots are placed with :func:`repro.determinism.stable_hash`, not
    builtin ``hash()``: slot choice decides which groups collide and
    get ejected, so with a process-randomized hash two runs of the same
    workload emit different partials (and different E4 numbers).
    ``key_format`` is the plan's :func:`~repro.determinism.int_key_format`
    when its keys are all-integer: the same number, computed faster.
    """

    __slots__ = ("size", "_slots", "occupied", "collisions", "lookups",
                 "_hash")

    def __init__(self, size: int = 4096,
                 key_format: Optional[bytes] = None) -> None:
        if size <= 0:
            raise ValueError("table size must be positive")
        self.size = size
        self._hash = key_hasher(key_format)
        self._slots: List[Optional[Tuple[Any, Any]]] = [None] * size
        self.occupied = 0
        self.collisions = 0
        self.lookups = 0

    def find(self, key: Any) -> Optional[Any]:
        """The state for ``key`` if resident, else None."""
        self.lookups += 1
        entry = self._slots[self._hash(key) % self.size]
        if entry is not None and entry[0] == key:
            return entry[1]
        return None

    def insert(self, key: Any, state: Any) -> Optional[Tuple[Any, Any]]:
        """Install ``key``; returns the ejected ``(key, state)`` if any."""
        self.lookups += 1
        index = self._hash(key) % self.size
        ejected = self._slots[index]
        if ejected is not None and ejected[0] == key:
            self._slots[index] = (key, state)
            return None
        self._slots[index] = (key, state)
        if ejected is None:
            self.occupied += 1
        else:
            self.collisions += 1
        return ejected

    def upsert(self, key: Any, make_state: Callable[[], Any]
               ) -> Tuple[Any, Optional[Tuple[Any, Any]]]:
        """Find-or-create the state for ``key``.

        Returns ``(state, ejected)`` where ``ejected`` is the group the
        new key displaced (or None).
        """
        self.lookups += 1
        index = self._hash(key) % self.size
        entry = self._slots[index]
        if entry is not None and entry[0] == key:
            return entry[1], None
        state = make_state()
        self._slots[index] = (key, state)
        if entry is None:
            self.occupied += 1
        else:
            self.collisions += 1
        return state, entry

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
        size = self.size
        hash_key = self._hash
        for key in keys:
            # self._slots is re-read per key: an evict between pulls
            # must not leave this generator mutating a stale slot array.
            self.lookups += 1
            index = hash_key(key) % size
            slots = self._slots
            entry = slots[index]
            if entry is not None and entry[0] == key:
                yield entry[1], None
                continue
            state = make_state()
            slots[index] = (key, state)
            if entry is None:
                self.occupied += 1
            else:
                self.collisions += 1
            yield state, entry

    # -- block access (the generated LFTA kernel, DESIGN section 18) ------
    def close_block(self, lookups: int, occupied: int, collisions: int) -> None:
        """Add a block's counter deltas: probes made, empty slots
        filled, resident groups ejected.  The kernel reads the slot
        array (``_slots``, valid across :meth:`evict_if`, which clears
        slots in place) and the key hash (``_hash``) once per block,
        probes and installs ``(key, state)`` entries itself in row
        order, and reports what it did here."""
        self.lookups += lookups
        self.occupied += occupied
        self.collisions += collisions

    def evict_all(self) -> List[Tuple[Any, Any]]:
        """Remove and return every resident group (epoch flush)."""
        groups = [entry for entry in self._slots if entry is not None]
        self._slots = [None] * self.size
        self.occupied = 0
        return groups

    def evict_if(self, should_evict: Callable[[Any], bool]) -> List[Tuple[Any, Any]]:
        """Remove and return groups whose *key* satisfies the predicate."""
        evicted = []
        for index, entry in enumerate(self._slots):
            if entry is not None and should_evict(entry[0]):
                evicted.append(entry)
                self._slots[index] = None
                self.occupied -= 1
        return evicted

    # -- checkpoint/restore (DESIGN section 11) --------------------------
    def snapshot_state(self) -> dict:
        """Table contents and accounting as snapshot primitives.

        Slots are stored sparsely (``{index: entry}``): the table is
        direct-mapped and mostly empty, and replication re-encodes it
        every delta frame, so empty slots must cost nothing on the
        wire.  The caller encodes the result immediately (slot entries
        alias live group-state lists until then).
        """
        return {
            "size": self.size,
            "slots": {index: entry
                      for index, entry in enumerate(self._slots)
                      if entry is not None},
            "occupied": self.occupied,
            "collisions": self.collisions,
            "lookups": self.lookups,
        }

    def restore_state(self, state: dict) -> None:
        if state["size"] != self.size:
            raise ValueError(
                f"snapshot is for a table of size {state['size']}, "
                f"this table has size {self.size}")
        self._slots = [None] * self.size
        for index, entry in state["slots"].items():
            self._slots[index] = entry
        self.occupied = state["occupied"]
        self.collisions = state["collisions"]
        self.lookups = state["lookups"]

    def __len__(self) -> int:
        return self.occupied

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        return (entry for entry in self._slots if entry is not None)

    @property
    def collision_rate(self) -> float:
        """Collisions per lookup; high values mean poor early reduction."""
        return self.collisions / self.lookups if self.lookups else 0.0
