"""The positional stripe partitioner (DESIGN section 15).

Shard *i* of *N* owns stripes *i, i+N, i+2N, ...* of the materialized
packet list, a stripe being :data:`STRIPE` consecutive packets.  The
partition is therefore a function of packet *position* alone:

* assembled from C-level list slices, in stream order -- no per-packet
  Python work, no hash;
* balanced to within one stripe by construction;
* the same in every process under every ``PYTHONHASHSEED``, because
  nothing is hashed.

Position suffices because nothing downstream needs affinity: shard
partials combine per *group key* in the parent, and selections,
projections and merges are per tuple.  The operators that would need
their inputs co-located (joins, an aggregation read by another query)
are refused at ``ShardedGigascope.subscribe``.
"""

from __future__ import annotations

from typing import List

from repro.core.stream_manager import DEFAULT_BATCH_SIZE

#: packets per stripe: one default block, so a 2 000-packet input
#: already spreads over eight stripes
STRIPE = DEFAULT_BATCH_SIZE


def shard_size(npackets: int, nshards: int, shard: int) -> int:
    """How many of ``npackets`` land on ``shard``: whole rounds of
    ``nshards`` stripes, plus this shard's cut of the last, partial
    round."""
    rounds, rest = divmod(npackets, STRIPE * nshards)
    return rounds * STRIPE + min(max(rest - shard * STRIPE, 0), STRIPE)


def shard_packets(packets: List, nshards: int, shard: int) -> List:
    """``shard``'s stripes of ``packets``, concatenated in stream order.

    A shard that owns every stripe gets the list itself, not a copy.
    """
    if nshards == 1 or (shard == 0 and len(packets) <= STRIPE):
        return packets
    kept: List = []
    for start in range(shard * STRIPE, len(packets), STRIPE * nshards):
        kept += packets[start:start + STRIPE]
    return kept
