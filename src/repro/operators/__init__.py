"""Gigascope operators.

LFTA-side (linked into the RTS):

* :mod:`repro.operators.lfta` -- the low-level FTA node: filtering,
  projection, and partial aggregation over a direct-mapped hash table

HFTA-side (separate query nodes):

* :mod:`repro.operators.selection` -- selection/projection
* :mod:`repro.operators.aggregation` -- ordered-flush aggregation,
  either full or combining LFTA partials
* :mod:`repro.operators.join` -- the two-stream window join
* :mod:`repro.operators.merge` -- the order-preserving union

User-written nodes (the paper's escape hatch):

* :mod:`repro.operators.defrag` -- IP defragmentation
* :mod:`repro.operators.tcp_reassembly` -- TCP stream reassembly

The names below are imported on first access (:mod:`repro._lazy`), so
the user-written nodes load only for a query set that uses them.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(globals(), {
    "repro.operators.aggregates": ("partial_layout",),
    "repro.operators.lfta_table": ("DirectMappedTable",),
    "repro.operators.lfta": ("LftaNode",),
    "repro.operators.selection": ("SelectionNode",),
    "repro.operators.aggregation": ("AggregationNode",),
    "repro.operators.join": ("JoinNode",),
    "repro.operators.merge": ("MergeNode",),
    "repro.operators.defrag": ("DefragNode",),
    "repro.operators.tcp_reassembly": ("TcpReassemblyNode",),
})
