"""The generated front end's rows, for tests to compare.

The engine has one loop emitter for packets,
:func:`repro.net.columnar.block_kernel`; a test reads what its guard
and prefix keep by running a kernel whose members' row actions record
each row.  Nothing under ``src/`` imports this.
"""

import ast
from functools import lru_cache
from math import trunc

from repro.core.query_node import NodeStats
from repro.net.columnar import (ActionSource, Branch, Member, RowAction,
                                block_kernel)


class KernelRows:
    """A kernel member of ``schema`` covering the attribute positions
    ``fields``, with ``prefilter`` pushed (None: the guard alone), whose
    row action records each row as the loop holds it -- the unpack
    tuple, the packet and, when a field is the payload, its offset --
    in parallel lists (``vals``, ``packets``, ``offsets``), as a decoded
    block did.  :meth:`column` reads an attribute off them the way a row
    action reads it, ``columns[i]``, when it is asked for.

    The object is the member's node, so a kernel moves ``packets_seen``
    and ``stats`` on it as on an LFTA.  ``kernel`` / ``source`` are its
    own one-member kernel, in the lean form when ``lean`` asks for it;
    :func:`group_kernel` puts several in one section."""

    def __init__(self, schema, fields, prefilter=None, lean=False) -> None:
        self.stats = NodeStats()
        self.packets_seen = self.columnar_blocks = 0
        #: the covered positions, ascending
        self.fields = sorted(set(fields))
        self.prefilter = prefilter
        self.vals, self.packets, self.offsets = [], [], []
        self.kernel, self.source = group_kernel(schema, [self], lean)

    def member(self) -> Member:
        def render(columns):
            self.columns = dict(columns)
            reads = {name.id for index in self.fields
                     for name in ast.walk(ast.parse(columns[index]))
                     if isinstance(name, ast.Name)}
            return ActionSource(
                [], ["rv(v)", "rp(p)"] + (["ro(o)"] if "o" in reads else []),
                [], {"node": self, "rv": self.vals.append,
                     "rp": self.packets.append, "ro": self.offsets.append})
        needed = frozenset(self.fields)
        return Member(needed, self.prefilter, RowAction(needed, render))

    def column(self, index, rows=None) -> list:
        """Attribute ``index`` of the recorded rows, or of those at the
        positions ``rows``."""
        if rows is None:
            rows = range(len(self.packets))
        return _reader(self.columns[index])(
            self.vals, self.packets, self.offsets, rows)

    def clear(self) -> None:
        for recorded in (self.vals, self.packets, self.offsets):
            recorded.clear()

    def take(self):
        """The rows recorded since the last take, each ``(p, *values)``
        in the order of ``fields``."""
        rows = list(zip(self.packets, *map(self.column, self.fields)))
        self.clear()
        return rows

    def run(self, packets) -> int:
        """One block through the own kernel, what was recorded before
        dropped: how many packets passed the guard."""
        self.clear()
        before = self.stats.tuples_in
        self.kernel(packets)
        return self.stats.tuples_in - before

    def rows(self, packets):
        """One block's ``(rows, passed)``: :meth:`take` after :meth:`run`."""
        passed = self.run(packets)
        return self.take(), passed


#: each name a row action reads (``columnar.ROW_NAMES``), at recorded
#: row ``i``
_RECORDED = {"v": "V[i]", "p": "P[i]", "o": "O[i]", "d": "P[i].data",
             "n": "len(P[i].data)"}


class _AtRecordedRow(ast.NodeTransformer):
    def visit_Name(self, node):
        if node.id in _RECORDED:
            return ast.parse(_RECORDED[node.id], mode="eval").body
        return node


@lru_cache(maxsize=None)
def _reader(source: str):
    """``reader(V, P, O, rows)``: the attribute a row action reads as
    ``source``, for the recorded rows at ``rows`` -- with ``trunc``
    bound, as the kernel binds it for ``time``."""
    expr = ast.unparse(_AtRecordedRow().visit(ast.parse(source, mode="eval")))
    return eval(f"lambda V, P, O, rows: [{expr} for i in rows]",
                {"trunc": trunc})


def group_kernel(schema, taps, lean=False):
    """``(kernel, source)``: one section of ``schema`` over every packet
    of a block, whose members are the :class:`KernelRows` ``taps``."""
    section = schema.kernel_section([tap.member() for tap in taps], lean)
    return block_kernel([Branch(None, (section,), False)])


def kernel_rows(schema, packets, fields=None):
    """The rows a one-member kernel over ``fields`` (every attribute
    when None) keeps of ``packets``, schema-wide with None outside
    ``fields`` -- the shape ``ProtocolSchema.sparse_interpreter``
    produces."""
    width = len(schema.attributes)
    tap = KernelRows(schema, range(width) if fields is None else fields)
    wide = [None] * width
    out = []
    for row in tap.rows(packets)[0]:
        for index, value in zip(tap.fields, row[1:]):
            wide[index] = value
        out.append(tuple(wide))
    return out
