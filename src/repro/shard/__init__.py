"""Sharded multi-process runtime (DESIGN section 15).

Gigascope's headline deployment split the LFTA receive path and the
HFTA query work across CPUs; this package reproduces that split with
real processes.  The packet list is striped by position across N
worker processes (:mod:`repro.shard.partition`) -- each running a
complete single-process engine on the columnar block path -- and the
workers' superaggregate partials
travel back over pipes to the parent, where one combine operator per
subscribed aggregation merges them in a fixed, deterministic shard
order (the D4M shape: many small independent engines plus hierarchical
combine).

Public surface: :class:`~repro.shard.runtime.ShardedGigascope`, the
parent-side facade, mirroring :class:`~repro.core.engine.Gigascope`.
"""

from repro.shard.runtime import ShardedGigascope

__all__ = ["ShardedGigascope"]
