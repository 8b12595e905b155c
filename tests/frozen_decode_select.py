"""The decode-then-select/key path, frozen at 355ece7 as the oracle for
the row-fused kernels (DESIGN sections 14 and 18).

Before the fused kernels a block went through four to six passes:
decode into parallel arrays, one ``gather`` comprehension per column,
``columnar_select_fn`` / ``columnar_key_fn`` building row and key
tuples, ``stable_slots`` placing the block's keys, then
``lfta_aggregate_fn`` zipping three lists -- and in the HFTA
``batch_key_fn`` ahead of ``hfta_aggregate_fn``.  The engine now runs
one generated loop per plan instead; the select/key passes and the
aggregation live on here, verbatim but for where they hang (a compiler
subclass, two node subclasses, module functions for what
``DirectMappedTable`` lost), so ``tests/test_fused_kernels.py`` and
``tests/test_key_run_cache.py`` can hold the new loops to them row for
row and counter for counter.  The decode pass itself is the engine's
one loop emitter: a one-member block kernel recording each row as the
loop holds it (``tests/kernel_rows.py``), off which the passes read
one column at a time (:class:`Block`).  Group state stays where it was
at 28f7b08: a ``[count, sum]`` list per group, in a ``(key, state)``
entry per table slot (:class:`FrozenTable`) and in the HFTA's group
dict, rendered by the aggregate source of that commit
(``FrozenCompiler._list_aggregate_source``) -- the reference the
engine's columns are held to.  Snapshots render it as the engine's are
held, one column per partial slot (:func:`state_columns`), so the
twins' encoded snapshots equal the engine's byte for byte.  Nothing
under ``src/`` imports this.
"""

from itertools import compress
from typing import List, NamedTuple, Sequence

from repro.gsql.codegen import CodegenError, ExprCompiler, _indent, _tuple_src
from repro.gsql.planner import column_slots
from repro.gsql.semantic import AggRef, KeyRef
from repro.operators.aggregates import AggregateOps
from repro.operators.aggregation import AggregationNode
from repro.operators.lfta import LftaNode

from tests.kernel_rows import KernelRows


class Block:
    """A decoded block as the frozen passes' source reads it --
    ``B.col(slot)`` a whole column, ``B.gather(slot, rows)`` the column
    at ``rows`` -- read off the rows a :class:`KernelRows` recorded."""

    __slots__ = ("tap",)

    def __init__(self, tap) -> None:
        self.tap = tap

    def col(self, index):
        return self.tap.column(index)

    def gather(self, index, rows):
        return self.tap.column(index, rows)


# -- the table of (key, state) entries ---------------------------------------------

def state_columns(states, ops):
    """Group state lists as a snapshot holds the engine's groups: one
    column per partial slot (``ops.partials``: AVG's pair takes two)."""
    columns = [[] for _ in range(ops.partial_width)]
    for state in states:
        for column, value in zip(columns, ops.partials(state), strict=True):
            column.append(value)
    return columns


def column_states(columns, ops, count):
    """:func:`state_columns` undone: ``count`` state lists."""
    states = []
    for values in (zip(*columns, strict=True) if columns else [()] * count):
        state, cursor = [], 0
        for width in ops.layout:
            state.append(values[cursor] if width == 1
                         else list(values[cursor:cursor + width]))
            cursor += width
        states.append(state)
    return states


class FrozenTable:
    """``DirectMappedTable`` as it stood at 28f7b08, for what the frozen
    kernels and ``LftaNode``'s window close use of it: a slot array of
    ``(key, state)`` entries, placed by the engine's placement function
    for the plan (``hash_key``, the ``DirectMappedTable``'s own)."""

    def __init__(self, size, hash_key, ops):
        self.size = size
        self._hash = hash_key
        self._ops = ops
        self._slots = [None] * size
        self.occupied = 0
        self.collisions = 0
        self.lookups = 0

    def close_block(self, lookups, occupied, collisions):
        self.lookups += lookups
        self.occupied += occupied
        self.collisions += collisions

    def evict_all(self):
        groups = [entry for entry in self._slots if entry is not None]
        self._slots = [None] * self.size
        self.occupied = 0
        return groups

    def evict_if(self, should_evict):
        evicted = []
        for index, entry in enumerate(self._slots):
            if entry is not None and should_evict(entry[0]):
                evicted.append(entry)
                self._slots[index] = None
                self.occupied -= 1
        return evicted

    def snapshot_state(self):
        slots = [index for index, entry in enumerate(self._slots)
                 if entry is not None]
        entries = [self._slots[index] for index in slots]
        return {
            "size": self.size,
            "slots": slots,
            "keys": [key for key, _ in entries],
            "columns": state_columns([state for _, state in entries],
                                     self._ops),
            "occupied": self.occupied,
            "collisions": self.collisions,
            "lookups": self.lookups,
        }

    def restore_state(self, state):
        self._slots = [None] * self.size
        states = column_states(state["columns"], self._ops,
                               len(state["keys"]))
        for index, key, slot_state in zip(state["slots"], state["keys"],
                                          states, strict=True):
            self._slots[index] = (key, slot_state)
        self.occupied = state["occupied"]
        self.collisions = state["collisions"]
        self.lookups = state["lookups"]

    def __len__(self):
        return self.occupied

    def __iter__(self):
        return (entry for entry in self._slots if entry is not None)


# -- determinism.stable_slots / DirectMappedTable.open_block ------------------------

def stable_slots(keys, size, hash_key):
    """``hash_key(key) % size`` for a block of keys, in one pass:
    ``(slots, error)``, ``slots`` stopping before the first key
    ``hash_key`` does not cover and ``error`` its ``TypeError``."""
    slots: List[int] = []
    try:
        for key in keys:
            slots.append(hash_key(key) % size)
    except TypeError as error:
        return slots, error
    return slots, None


def open_block(node, keys):
    table = node.table
    indices, error = stable_slots(keys, table.size, table._hash)
    return table._slots, indices, error


# -- the kernels -------------------------------------------------------------------

class ListSource(NamedTuple):
    """An aggregate list as source text over the state list ``s``:
    ``ExprCompiler._aggregate_source``'s result at 28f7b08."""

    args: List[str]
    new_state: str
    fold: List[str]
    fold_weighted: List[str]
    combine: List[str]
    #: templates over the state variable ``{s}``
    partials: str
    finals: List[str]


def _guarded_args(src) -> List[str]:
    if not src.args:
        return []
    return ["try:"] + _indent(src.args) + [
        "except DiscardTuple:",
        "    discarded += 1",
        "    continue",
    ]


_WINDOW_SETUP = [
    "index = node._window_index",
    "band = node._window_band",
    "high = node._high_water",
]


def _window_check(before_flush: Sequence[str] = (),
                  late: bool = True) -> List[str]:
    # Frozen but for the late branch the engine has since gained (not
    # on partials): a key below the band drops its row, so both loops
    # agree on a closed window.
    return [
        "x = k[index]",
        "if high is None or x > high:",
        "    high = node._high_water = x",
    ] + _indent(before_flush) + [
        "    node._flush_below(x - band)",
    ] + (["elif x < high - band:", "    discarded += 1", "    continue"]
         if late else [])


class FrozenCompiler(ExprCompiler):
    """``ExprCompiler`` with the kernel generators it had at 355ece7,
    over the state lists of 28f7b08."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._env["open_block"] = open_block

    def _list_aggregate_source(self, aggregates, slot_maps,
                               partial_base=None):
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
        return ListSource(
            args=args, new_state="[" + ", ".join(initial) + "]",
            fold=fold, fold_weighted=weighted, combine=combine,
            partials=_tuple_src(partials), finals=finals)

    def hfta_close_fn(self, plan, partials=False):
        src = self._list_aggregate_source(plan.aggregates, None)
        if partials:
            close = [f"emit(k + {src.partials.format(s='s')})"]
        else:
            values = [f"a{i}" for i in range(len(src.finals))]
            close = [f"{value} = {final.format(s='s')}"
                     for value, final in zip(values, src.finals)]
            test = [] if plan.having is None else [
                f"if not ({self._compile(plan.having, (None,), 1)}):",
                "    dropped += 1", "    continue"]
            exprs = plan.post_select_exprs
            width = len(self.analyzed.group_exprs)
            if exprs == [KeyRef(i) for i in range(width)] + [
                    AggRef(i) for i in range(len(values))]:
                row = "k + " + _tuple_src(values)
            else:
                row = _tuple_src([self._compile(e, (None,), 1)
                                  for e in exprs])
            close += ["try:"] + _indent(test + [f"emit({row})"]) + [
                "except DiscardTuple:", "    dropped += 1"]
        return self._link("node, keys", [
            "pop = node._groups.pop",
            "out = []",
            "emit = out.append",
            "dropped = 0",
            "try:",
            "    for k in keys:",
            "        s = pop(k)",
        ] + _indent(close, 2) + [
            "finally:",
            "    node.stats.discarded += dropped",
            "    node.groups_emitted += len(out)",
            "    node.emit_many(out)",
        ])

    def _compile_columnar(self, expr, slot_maps, ref, used):
        def read(slot):
            used.add(slot)
            return ref(slot)
        previous = self._column_ref
        self._column_ref = read
        try:
            return self._compile(expr, slot_maps, 1)
        finally:
            self._column_ref = previous

    def batch_key_fn(self, conjuncts, group_exprs, slot_maps=(None,)):
        pred_src = " and ".join(
            "(" + self._compile(c, slot_maps, 1) + ")" for c in conjuncts
        )
        guard = [f"if not ({pred_src}):",
                 "    d += 1",
                 "    continue"] if pred_src else []
        parts = [self._compile(e, slot_maps, 1) for e in group_exprs]
        return self._link("rows", [
            "d = 0",
            "keys = []",
            "out = []",
            "_ka = keys.append",
            "_oa = out.append",
            "for t in rows:",
            "    try:",
        ] + _indent(guard + [f"_k = {_tuple_src(parts)}"], 2) + [
            "    except DiscardTuple:",
            "        d += 1",
            "        continue",
            "    _ka(_k)",
            "    _oa(t)",
            "return d, keys, out",
        ])

    def columnar_select_fn(self, conjuncts, exprs, slot_maps=(None,)):
        filter_src = self._columnar_filter_src(conjuncts, slot_maps)
        build_slots: set = set()
        parts = [
            self._compile_columnar(e, slot_maps, "_o{}[j]".format, build_slots)
            for e in exprs
        ]
        build = _tuple_src(parts)
        gathers = "".join(
            f"    _o{slot} = B.gather({slot}, rows)\n"
            for slot in sorted(build_slots)
        )
        name = f"_g{self._counter}"
        self._counter += 1
        source = (
            f"def {name}(B, rows, append):\n"
            f"    d = 0\n"
            f"{filter_src}"
            f"{gathers}"
            f"    for j in range(len(rows)):\n"
            f"        try:\n"
            f"            append({build})\n"
            f"        except DiscardTuple:\n"
            f"            d += 1\n"
            f"    return d\n"
        )
        return self._finalize_source(name, source)

    def columnar_key_fn(self, conjuncts, group_exprs, row_slots, width,
                        slot_maps=(None,)):
        filter_src = self._columnar_filter_src(conjuncts, slot_maps)
        gather_slots: set = set(row_slots)
        key_parts = [
            self._compile_columnar(e, slot_maps, "_o{}[j]".format, gather_slots)
            for e in group_exprs
        ]
        key = _tuple_src(key_parts)
        row_set = set(row_slots)
        row_parts = [
            (f"_o{slot}[j]" if slot in row_set else "None")
            for slot in range(width)
        ]
        row = _tuple_src(row_parts)
        gathers = "".join(
            f"    _o{slot} = B.gather({slot}, rows)\n"
            for slot in sorted(gather_slots)
        )
        name = f"_g{self._counter}"
        self._counter += 1
        source = (
            f"def {name}(B, rows):\n"
            f"    d = 0\n"
            f"{filter_src}"
            f"{gathers}"
            f"    keys = []\n"
            f"    out = []\n"
            f"    _ka = keys.append\n"
            f"    _oa = out.append\n"
            f"    for j in range(len(rows)):\n"
            f"        try:\n"
            f"            _k = {key}\n"
            f"        except DiscardTuple:\n"
            f"            d += 1\n"
            f"            continue\n"
            f"        _ka(_k)\n"
            f"        _oa({row})\n"
            f"    return d, keys, out\n"
        )
        return self._finalize_source(name, source)

    def _columnar_filter_src(self, conjuncts, slot_maps) -> str:
        lines: List[str] = []
        declared: set = set()
        for conjunct in conjuncts:
            used: set = set()
            src = self._compile_columnar(
                conjunct, slot_maps, "_c{}[i]".format, used)
            for slot in sorted(used - declared):
                lines.append(f"    _c{slot} = B.col({slot})\n")
            declared |= used
            lines.append(
                "    keep = []\n"
                "    _ka = keep.append\n"
                "    for i in rows:\n"
                "        try:\n"
                f"            if ({src}):\n"
                "                _ka(i)\n"
                "            else:\n"
                "                d += 1\n"
                "        except DiscardTuple:\n"
                "            d += 1\n"
                "    rows = keep\n"
            )
        return "".join(lines)

    def lfta_aggregate_fn(self, aggregates, slot_maps, windowed):
        src = self._list_aggregate_source(aggregates, slot_maps)
        setup = [
            "table = node.table",
            "slots, indices, error = open_block(node, keys)",
            "weighted = w != 1.0",
            "out = []",
            "eject = out.append",
            "lookups = occupied = collisions = discarded = 0",
        ]
        loop = _guarded_args(src)
        if windowed:
            setup += _WINDOW_SETUP
            loop += _window_check([
                "if out:",
                "    closed, out = out, []",
                "    eject = out.append",
                "    node.emit_many(closed)",
            ])
        loop += [
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
        return self._link("node, keys, rows, w", setup + [
            "try:",
            "    for i, k, t in zip(indices, keys, rows):",
        ] + _indent(loop, 2) + [
            "finally:",
            "    table.close_block(lookups, occupied, collisions)",
            "    node.stats.discarded += discarded",
            "    node.emit_many(out)",
            "if error is not None:",
            "    raise error",
        ])

    def frozen_hfta_aggregate_fn(self, aggregates, slot_maps, windowed,
                                 key_width, filtered=False):
        partials = slot_maps is None
        src = self._list_aggregate_source(
            aggregates, slot_maps, key_width if partials else None)
        setup = ["groups = node._groups", "discarded = 0"]
        if partials:
            header = "for t in rows:"
            loop = [f"k = t[:{key_width}]"]
            if filtered:
                setup.append("predicate = node._predicate")
                loop = ["if not predicate(t):",
                        "    discarded += 1",
                        "    continue"] + loop
        else:
            header = "for k, t in zip(keys, rows):"
            loop = _guarded_args(src)
        if windowed:
            setup += _WINDOW_SETUP
            loop += _window_check(late=not partials)
        loop += [
            "s = groups.get(k)",
            "if s is None:",
            f"    s = groups[k] = {src.new_state}",
        ] + (src.combine if partials else src.fold)
        return self._link("node, keys, rows", setup + [
            "try:",
            "    " + header,
        ] + _indent(loop, 2) + [
            "finally:",
            "    node.stats.discarded += discarded",
        ])


# -- the nodes ---------------------------------------------------------------------

class FrozenLfta(LftaNode):
    """The LFTA whose ``accept_batch`` decodes a block, then selects or
    keys it, then aggregates -- 355ece7's, pass for pass.  Build it
    with a :class:`FrozenCompiler`."""

    def __init__(self, plan, analyzed, compiler, **kwargs):
        super().__init__(plan, analyzed, compiler, **kwargs)
        needed = plan.needed_fields(analyzed)
        predicates = plan.predicates
        #: decodes blocks, where the protocol has a layout: the full
        #: form's tap and the lean form's
        self._decoding = self.protocol.columnar_decoder is not None
        if self._decoding:
            self._taps = tuple(
                KernelRows(self.protocol, needed, self.prefilter, lean)
                for lean in (False, True))
            if self.prefilter is not None:
                predicates = predicates[plan.prefix:]
        if plan.mode == "projection":
            select_fn = (compiler.columnar_select_fn if self._decoding
                         else compiler.batch_select_fn)
            self._select = select_fn(
                predicates, plan.project_exprs, (None, None))
        else:
            if not self._decoding:
                self._key = compiler.batch_key_fn(
                    predicates, plan.group_exprs, (None, None))
            else:
                arg_slots = column_slots(
                    analyzed,
                    [agg.arg for agg in plan.aggregates if agg.arg is not None])
                self._key = compiler.columnar_key_fn(
                    predicates, plan.group_exprs, arg_slots,
                    len(self.protocol.attributes), (None, None))
            self._aggregate = compiler.lfta_aggregate_fn(
                plan.aggregates, (None, None), plan.window_key_index >= 0)
            ops = AggregateOps(plan.aggregates, [None] * len(plan.aggregates))
            self.table = FrozenTable(self.table.size, self.table._hash, ops)
            self._partials = ops.partials

    def _emit_groups(self, groups):
        partials = self._partials
        self.emit_many([key + partials(state) for key, state in groups])

    def accept_batch(self, packets) -> None:
        self.packets_seen += len(packets)
        weight = 1.0
        if self.shed_rate < 1.0:
            rate = self.shed_rate
            rng = self._shed_rng.random
            weight = 1.0 / rate
            keep = [rng() < rate for _ in packets]
            self.shed_packets += keep.count(False)
            packets = list(compress(packets, keep))
        stats = self.stats
        if self._decoding:
            # Rows are indices into the decoded block.
            tap = self._taps[self.prefers_lean]
            passed = tap.run(packets)
            self.columnar_blocks += 1
            rows = range(len(tap.packets))
            stats.tuples_in += passed
            stats.discarded += passed - len(rows)
            block = Block(tap)
        else:
            block = None
            rows = []
            extend = rows.extend
            interpret = self._interpret
            for packet in packets:
                extend(interpret(packet))
            stats.tuples_in += len(rows)
        if self._sample_rate is not None and rows:
            rate = self._sample_rate
            rng = self._sample_rng.random
            kept = [row for row in rows if rng() < rate]
            self.sampled_out += len(rows) - len(kept)
            rows = kept
        if not rows:
            return
        if self.mode == "projection":
            out: List[tuple] = []
            if block is not None:
                dropped = self._select(block, rows, out.append)
            else:
                dropped = self._select(rows, out.append)
            stats.discarded += dropped
            self.emit_many(out)
        else:
            if block is not None:
                dropped, keys, key_rows = self._key(block, rows)
            else:
                dropped, keys, key_rows = self._key(rows)
            stats.discarded += dropped
            if keys:
                self._aggregate(self, keys, key_rows, weight)


class FrozenAggregation(AggregationNode):
    """The HFTA aggregation whose ``on_tuple_batch`` keys a block with
    ``batch_key_fn``, then probes the group dict once per row."""

    def __init__(self, plan, analyzed, compiler, **kwargs):
        super().__init__(plan, analyzed, compiler, **kwargs)
        slot_maps = tuple(plan.slot_maps)
        if self.from_partials:
            key_width = len(analyzed.group_exprs)
            self._predicate = compiler.predicate_fn(plan.predicates, slot_maps)
        else:
            key_width = len(plan.group_exprs)
            self._batch_key = compiler.batch_key_fn(
                plan.predicates, plan.group_exprs, slot_maps)
        self._aggregate = compiler.frozen_hfta_aggregate_fn(
            plan.aggregates, None if self.from_partials else slot_maps,
            plan.window_key_index >= 0, key_width,
            filtered=bool(plan.predicates))
        self._ops = AggregateOps(plan.aggregates,
                                 [None] * len(plan.aggregates))

    def _snapshot_groups(self):
        return list(self._groups), state_columns(self._groups.values(),
                                                 self._ops)

    def _restore_groups(self, keys, columns):
        self._groups = dict(zip(
            keys, column_states(columns, self._ops, len(keys)), strict=True))

    def on_tuple_batch(self, rows, input_index: int) -> None:
        if self._sample_rate is not None:
            rate = self._sample_rate
            rng = self._sample_rng.random
            kept = [row for row in rows if rng() < rate]
            self.stats.discarded += len(rows) - len(kept)
            rows = kept
        keys = None
        if not self.from_partials:
            dropped, keys, rows = self._batch_key(rows)
            self.stats.discarded += dropped
        self._aggregate(self, keys, rows)


__all__ = ["Block", "FrozenAggregation", "FrozenCompiler", "FrozenLfta",
           "FrozenTable", "column_states", "open_block", "stable_slots",
           "state_columns"]
