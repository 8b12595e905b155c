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
"""

from repro.operators.aggregates import partial_layout
from repro.operators.lfta_table import DirectMappedTable
from repro.operators.lfta import LftaNode
from repro.operators.selection import SelectionNode
from repro.operators.aggregation import AggregationNode
from repro.operators.join import JoinNode
from repro.operators.merge import MergeNode
from repro.operators.defrag import DefragNode
from repro.operators.tcp_reassembly import TcpReassemblyNode

__all__ = [
    "partial_layout",
    "DirectMappedTable",
    "LftaNode",
    "SelectionNode",
    "AggregationNode",
    "JoinNode",
    "MergeNode",
    "DefragNode",
    "TcpReassemblyNode",
]
