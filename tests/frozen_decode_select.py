"""The decode-then-select/key path, frozen at 355ece7 as the oracle for
the row-fused kernels (DESIGN sections 14 and 18).

Until PR 19 a block went through four to six passes: ``decode`` into a
``ColumnarBlock`` (``vals``/``pkts``), one ``gather`` comprehension per
column, ``columnar_select_fn`` / ``columnar_key_fn`` building row and
key tuples, ``stable_slots`` placing the block's keys, then
``lfta_aggregate_fn`` zipping three lists -- and in the HFTA
``batch_key_fn`` ahead of ``hfta_aggregate_fn``.  The engine now runs
one generated loop per plan instead; those passes live on here,
verbatim but for where they hang (a compiler subclass, two node
subclasses, module functions for what ``ColumnarBlock`` and
``DirectMappedTable`` lost), so ``tests/test_fused_kernels.py`` and
``tests/test_key_run_cache.py`` can hold the new loops to them row for
row and counter for counter.  Nothing under ``src/`` imports this.
"""

from functools import lru_cache
from itertools import compress, repeat
from typing import List, Sequence
from zlib import crc32

from repro.determinism import key_hasher
from repro.gsql.codegen import ExprCompiler, _indent, _tuple_src
from repro.gsql.planner import column_slots
from repro.operators.aggregation import AggregationNode
from repro.operators.lfta import LftaNode


# -- ColumnarBlock.col / .gather -------------------------------------------------
#
# ``ColumnarBlock._materialize`` built a column with one list
# comprehension picked by the attribute's kind (a header field as
# unpacked, a bit field of one, a piece of capture metadata, the
# payload).  The kinds are gone with it; the same comprehensions are
# regenerated here from how the decoder says a row action reads the
# attribute (``Decoder.columns``, over the row's names ``v``/``p``/
# ``d``/``n``/``o``), so the frozen path costs what it cost.

def _comprehensions(source: str):
    """``(whole column, by rows)`` comprehension sources reading one
    attribute off ``vals``/``pkts``/``pay``."""
    if source == "d[o:]":
        return ("[p.data[o:] for p, o in zip(pkts, pay)]",
                "[pkts[i].data[pay[i]:] for i in rows]")
    if source == "n":
        return ("[len(p.data) for p in pkts]",
                "[len(pkts[i].data) for i in rows]")
    if "p." in source:
        return (f"[{source} for p in pkts]",
                "[" + source.replace("p.", "pkts[i].") + " for i in rows]")
    return (f"[{source} for v in vals]",
            "[" + source.replace("v[", "vals[i][") + " for i in rows]")


@lru_cache(maxsize=None)
def _materializers(source: str):
    whole, by_rows = _comprehensions(source)
    return (eval(f"lambda vals, pkts, pay: {whole}"),
            eval(f"lambda vals, pkts, pay, rows: {by_rows}"))


def gather(decoder, block, index, rows) -> list:
    """Attribute ``index`` for just ``rows`` of a block ``decoder``
    produced, aligned with ``rows``."""
    return _materializers(decoder.columns[index])[1](
        block.vals, block.pkts, block.pay, rows)


def col(decoder, block, index) -> list:
    """The full column for attribute ``index``."""
    return _materializers(decoder.columns[index])[0](
        block.vals, block.pkts, block.pay)


class Columns:
    """A block with the column accessors ``ColumnarBlock`` used to have
    (``B.col(slot)`` / ``B.gather(slot, rows)`` in the frozen kernels'
    source), caching full columns as it did."""

    __slots__ = ("decoder", "block", "columns")

    def __init__(self, decoder, block) -> None:
        self.decoder = decoder
        self.block = block
        self.columns = {}

    def col(self, index):
        column = self.columns.get(index)
        if column is None:
            column = self.columns[index] = col(self.decoder, self.block, index)
        return column

    def gather(self, index, rows):
        column = self.columns.get(index)
        if column is not None:
            return [column[i] for i in rows]
        return gather(self.decoder, self.block, index, rows)


# -- determinism.stable_slots / DirectMappedTable.open_block ------------------------

def stable_slots(keys, size, fmt=None):
    """``stable_hash(key) % size`` for a block of keys, in one pass:
    ``(slots, error)``, ``slots`` stopping before the first key
    ``stable_hash`` does not cover and ``error`` its ``TypeError``."""
    if fmt is not None:
        try:
            return [crc32(fmt % key) % size for key in keys], None
        except TypeError:
            pass  # some key needs the fallback: place the block per key
    hash_key = key_hasher(fmt)
    slots: List[int] = []
    try:
        for key in keys:
            slots.append(hash_key(key) % size)
    except TypeError as error:
        return slots, error
    return slots, None


def open_block(node, keys):
    table = node.table
    indices, error = stable_slots(keys, table.size, node.key_format)
    return table._slots, indices, error


# -- the kernels -------------------------------------------------------------------

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


def _window_check(before_flush: Sequence[str] = ()) -> List[str]:
    return [
        "x = k[index]",
        "if high is None or x > high:",
        "    high = node._high_water = x",
    ] + _indent(before_flush) + [
        "    node._flush_below(x - band)",
    ]


def _chained_batch_key(predicate, key_fn):
    def run(rows):
        d = 0
        keys = []
        out = []
        for t in rows:
            if not predicate(t):
                d += 1
                continue
            key = key_fn(t)
            if key is None:
                d += 1
                continue
            keys.append(key)
            out.append(t)
        return d, keys, out
    return run


class FrozenCompiler(ExprCompiler):
    """``ExprCompiler`` with the kernel generators it had at 355ece7."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._env["open_block"] = open_block

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
        if self.mode == "interpreted":
            predicate = self.predicate_fn(conjuncts, slot_maps)
            key_fn = self.tuple_fn(group_exprs, slot_maps)
            return _chained_batch_key(predicate, key_fn)
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
        src = self._aggregate_source(aggregates, slot_maps)
        setup = [
            "table = node.table",
            "slots, indices, error = open_block(node, keys)",
            "weighted = w != 1.0",
            "out = []",
            "eject = out.append",
            "lookups = occupied = collisions = discarded = 0",
        ] + src.bind
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
        src = self._aggregate_source(
            aggregates, slot_maps, key_width if partials else None)
        setup = ["groups = node._groups", "discarded = 0"] + src.bind
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
            loop += _window_check()
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
        self._plain = self._plain_lean = None
        if self._decoder is not None:
            pushed = () if self.prefilter is None else (self.prefilter,)
            self._plain = self.protocol.block_decoder(needed, pushed)
            if self.prefilter is not None:
                self._plain_lean = self.protocol.block_decoder(
                    needed, pushed, lean=True)
                predicates = predicates[plan.prefix:]
        if plan.mode == "projection":
            select_fn = (compiler.batch_select_fn if self._decoder is None
                         else compiler.columnar_select_fn)
            self._select = select_fn(
                predicates, plan.project_exprs, (None, None))
        else:
            if self._decoder is None:
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
            #: the format ``open_block`` places this plan's keys with
            self.key_format = compiler.key_hash_format(plan.group_exprs)

    @property
    def prefers_lean(self) -> bool:
        stats = self.stats
        return (self._plain_lean is not None
                and 2 * stats.discarded > stats.tuples_in)

    def accept_batch(self, packets, views=None) -> None:
        self.packets_seen += len(packets)
        weight = 1.0
        if self.shed_rate < 1.0:
            rate = self.shed_rate
            rng = self._shed_rng.random
            weight = 1.0 / rate
            keep = [rng() < rate for _ in packets]
            self.shed_packets += keep.count(False)
            packets = list(compress(packets, keep))
            if views is not None:
                views = list(compress(views, keep))
        stats = self.stats
        if self._decoder is not None:
            # Rows are indices into the decoded block.
            decoder = self._plain_lean if self.prefers_lean else self._plain
            block = self._decode_block(packets, decoder.decode)
            self.columnar_blocks += 1
            rows = range(block.n)
            stats.tuples_in += block.passed
            stats.discarded += block.passed - block.n
            block = Columns(decoder, block)
        else:
            block = None
            rows = []
            extend = rows.extend
            interpret = self._interpret
            for packet, view in zip(
                    packets, repeat(None) if views is None else views):
                extend(interpret(packet, view))
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


__all__ = ["Columns", "FrozenAggregation", "FrozenCompiler", "FrozenLfta",
           "col", "gather", "open_block", "stable_slots"]
