"""The low-level FTA node (paper Section 3).

LFTAs accept only Protocol input and are linked into the run-time
system: the RTS hands each block of captured packets directly to every
LFTA bound to that interface (:meth:`LftaNode.accept_batch`), with no
intermediate channel.  An LFTA performs preliminary filtering,
projection, and (optionally) partial aggregation over a small
direct-mapped hash table, greatly reducing the data traffic to the
HFTAs.

``accept_batch`` is the only packet entry; one packet is a block of one
(:meth:`LftaNode.accept_packet`).  Inside it a block is decoded either
column-wise (built-in ip/tcp/udp protocols under compiled codegen,
DESIGN section 14) or row by row (every other protocol, and
``interpreted`` mode) -- the two decodes are held byte-identical by
``tests/test_columnar.py``.

Partial aggregation is one loop whichever decode ran: both hand the
surviving rows and their group keys to the plan's generated kernel
(``ExprCompiler.lfta_aggregate_fn``, DESIGN section 18), which places
the whole block's keys, then per row evaluates the aggregate arguments,
checks the window high-water mark, probes the direct-mapped table and
folds -- ejected groups leave as one block ahead of any window flush.
What stays here is what happens per window, not per row: closing the
groups below a bound (:meth:`LftaNode._flush_below`) and the end-of-
stream flush, each one ``emit_many``.  ``tests/test_lfta_block_kernel.py``
holds the kernel to the row-at-a-time loop it replaced.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import List, Optional

from repro.core.heartbeat import Punctuation
from repro.determinism import rng_for
from repro.core.query_node import QueryNode
from repro.gsql.ast_nodes import Column
from repro.gsql.codegen import DiscardTuple, ExprCompiler
from repro.gsql.planner import LftaPlan
from repro.gsql.semantic import AnalyzedQuery
from repro.net.packet import CapturedPacket
from repro.operators.aggregates import AggregateOps
from repro.operators.base import apply_transforms, key_bound_fn, output_bound_transforms
from repro.operators.lfta_table import DirectMappedTable

DEFAULT_TABLE_SIZE = 4096


class LftaNode(QueryNode):
    """Filtering, Transformation, and Aggregation -- the low level."""

    def __init__(
        self,
        plan: LftaPlan,
        analyzed: AnalyzedQuery,
        compiler: ExprCompiler,
        table_size: int = DEFAULT_TABLE_SIZE,
        seed: int = 0,
        columnar: bool = True,
    ) -> None:
        super().__init__(plan.name, plan.output_schema)
        self.plan = plan
        self.interface = plan.interface
        self.protocol = plan.protocol
        self.packets_seen = 0
        self.sampled_out = 0
        # Every RNG on the packet path comes from the seeded registry
        # (repro.determinism): str hash() is randomized per process and
        # would make runs unreplayable.
        if plan.sample_rate is not None:
            self._sample_rate = plan.sample_rate
            self._sample_rng = rng_for(seed, "lfta.sample", plan.name)
        else:
            self._sample_rate = None
            self._sample_rng = None
        # Overload-control sampling gate (repro.control): a keep-rate the
        # controller moves at run time, distinct from the analyst's
        # ``DEFINE sample p``.  Packets shed here are accounted, and
        # additive aggregates are scaled by 1/rate at update time
        # (Horvitz-Thompson) so COUNT/SUM stay unbiased.
        self.shed_rate = 1.0
        self.shed_packets = 0
        self._shed_rng = rng_for(seed, "lfta.shed", plan.name)
        # The freshly seeded Twister state, kept so snapshots can elide
        # the ~2.5KB RNG tuple while no shedding draw has happened yet
        # (replication re-ships this node's state every delta frame).
        self._shed_rng_initial = self._shed_rng.getstate()
        needed = self._needed_attr_indices(analyzed)
        self._interpret = self.protocol.sparse_interpreter(needed)
        self._clock_bounds = self.protocol.clock_bounds
        # Columnar block execution (DESIGN section 14): available only
        # for protocols with a block decoder (built-in ip/tcp/udp) and
        # compiled codegen; everything else keeps the row-based path.
        wants_columnar = columnar and self.protocol.columnar_decoder is not None
        self._columnar_decode = None
        self._columnar_select = None
        self._columnar_key = None
        self.columnar_blocks = 0

        if plan.mode == "projection":
            self._batch_select = compiler.batch_select_fn(
                plan.predicates, plan.project_exprs, (None, None))
            self._transforms = output_bound_transforms(
                plan.project_exprs, analyzed, plan.output_schema, (None, None),
                functions=compiler.functions,
            )
            self.table: Optional[DirectMappedTable] = None
            if wants_columnar:
                self._columnar_select = compiler.columnar_select_fn(
                    plan.predicates, plan.project_exprs, (None, None))
                if self._columnar_select is not None:
                    self._columnar_decode = self.protocol.columnar_decoder
        elif plan.mode == "partial_aggregation":
            self._batch_key = compiler.batch_key_fn(
                plan.predicates, plan.group_exprs, (None, None))
            self.aggregate_ops = AggregateOps.for_plan(
                compiler, plan.aggregates, (None, None))
            # The one aggregation loop (DESIGN section 18): generated
            # per plan, fed (keys, rows) by either decode.
            self._aggregate = compiler.lfta_aggregate_fn(
                plan.aggregates, (None, None), plan.window_key_index >= 0)
            self.table = DirectMappedTable(
                table_size, compiler.key_hash_format(plan.group_exprs))
            self._window_index = plan.window_key_index
            self._window_band = plan.window_key_band
            self._high_water = None
            self._key_bound = key_bound_fn(
                plan.group_exprs, plan.window_key_index, analyzed, (None, None),
                functions=compiler.functions,
            )
            if wants_columnar:
                arg_slots = self._column_slots(
                    analyzed,
                    [agg.arg for agg in plan.aggregates if agg.arg is not None])
                self._columnar_key = compiler.columnar_key_fn(
                    plan.predicates, plan.group_exprs, arg_slots,
                    len(self.protocol.attributes), (None, None))
                if self._columnar_key is not None:
                    self._columnar_decode = self.protocol.columnar_decoder
        else:
            raise ValueError(f"unknown LFTA mode {plan.mode!r}")
        self.mode = plan.mode
        if self._columnar_decode is not None:
            # The block decoder reads raw bytes; a shared PacketView
            # would go untouched, so tell the RTS not to build one.
            self.accepts_view = False

    def _needed_attr_indices(self, analyzed: AnalyzedQuery) -> List[int]:
        exprs = list(self.plan.predicates)
        exprs.extend(self.plan.project_exprs)
        exprs.extend(self.plan.group_exprs)
        exprs.extend(agg.arg for agg in self.plan.aggregates if agg.arg is not None)
        return self._column_slots(analyzed, exprs)

    @staticmethod
    def _column_slots(analyzed: AnalyzedQuery, exprs) -> List[int]:
        """Sorted attribute positions the expressions read."""
        indices = set()
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, Column):
                    bound = analyzed.binding_of(node)
                    if bound is not None:
                        indices.add(bound.attr_index)
        return sorted(indices)

    #: the RTS may pass a shared, pre-parsed PacketView
    accepts_view = True

    # -- overload-control hook (installed by repro.control) ----------------
    def set_shed_rate(self, rate: float) -> None:
        """Install the controller's packet-sampling gate (1.0 = off)."""
        self.shed_rate = min(1.0, max(1e-3, rate))

    # -- packet path (called by the RTS, no channel in between) -----------
    def accept_packet(self, packet: CapturedPacket, view=None) -> None:
        """A block of one (journal replay and the NIC-resident runtime
        hand packets over singly)."""
        self.accept_batch([packet], None if view is None else [view])

    def accept_batch(self, packets, views=None) -> None:
        """One block of packets through the LFTA (DESIGN section 10).

        The result does not depend on how the packet stream was cut
        into blocks, nor on which decode runs: the shed gate draws once
        per packet in arrival order *before* decoding, both decodes keep
        exactly the guard-passing packets in order (so ``tuples_in``
        and the per-row sample draws line up), the fused select/key
        function runs the predicate conjuncts in order per row, and
        every counter advances by the per-packet amounts.
        """
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
        block = None
        if self._columnar_decode is not None:
            # Columnar block execution (DESIGN section 14): rows are
            # indices into the decoded block.
            block = self._columnar_decode(packets)
            self.columnar_blocks += 1
            rows = range(block.n)
        else:
            rows = []
            extend = rows.extend
            interpret = self._interpret
            for packet, view in zip(
                    packets, repeat(None) if views is None else views):
                extend(interpret(packet, view))
        self.stats.tuples_in += len(rows)
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
                dropped = self._columnar_select(block, rows, out.append)
            else:
                dropped = self._batch_select(rows, out.append)
            self.stats.discarded += dropped
            self.emit_many(out)
        else:
            if block is not None:
                dropped, keys, key_rows = self._columnar_key(block, rows)
            else:
                dropped, keys, key_rows = self._batch_key(rows)
            self.stats.discarded += dropped
            if keys:
                self._aggregate(self, keys, key_rows, weight)

    def _flush_below(self, low_water) -> None:
        """Close every group whose window key is below ``low_water``."""
        index = self._window_index
        closed = self.table.evict_if(lambda key: key[index] < low_water)
        closed.sort(key=lambda entry: entry[0][index])
        self._emit_groups(closed)
        if closed or self._high_water is not None:
            self.emit_punctuation(Punctuation({index: low_water}))

    def _emit_groups(self, groups) -> None:
        """Closed ``(key, state)`` groups leave as one block of
        ``key + partials`` rows."""
        partials = self.aggregate_ops.partials
        self.emit_many([key + partials(state) for key, state in groups])

    # -- heartbeats from the RTS -------------------------------------------
    def on_heartbeat(self, stream_time: float) -> None:
        """Translate an interface-time heartbeat into output punctuation."""
        bounds = self._clock_bounds(stream_time)
        if not bounds:
            return
        if self.mode == "projection":
            out = apply_transforms(self._transforms, 0, bounds)
            if out:
                self.emit_punctuation(Punctuation(out))
            return
        if self._key_bound is None:
            return
        _source, slot, bound_fn = self._key_bound
        if slot in bounds:
            low_water = bound_fn(bounds[slot])
            if self._window_index >= 0:
                self._flush_below(low_water)

    # -- checkpoint/restore (DESIGN section 11) ----------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["packets_seen"] = self.packets_seen
        state["sampled_out"] = self.sampled_out
        state["shed_rate"] = self.shed_rate
        state["shed_packets"] = self.shed_packets
        shed_rng = self._shed_rng.getstate()
        state["shed_rng"] = (None if shed_rng == self._shed_rng_initial
                             else shed_rng)
        state["sample_rng"] = (self._sample_rng.getstate()
                               if self._sample_rng is not None else None)
        if self.mode == "partial_aggregation":
            state["table"] = self.table.snapshot_state()
            state["high_water"] = self._high_water
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.packets_seen = state["packets_seen"]
        self.sampled_out = state["sampled_out"]
        self.shed_rate = state["shed_rate"]
        self.shed_packets = state["shed_packets"]
        self._shed_rng.setstate(self._shed_rng_initial
                                if state["shed_rng"] is None
                                else state["shed_rng"])
        if self._sample_rng is not None and state["sample_rng"] is not None:
            self._sample_rng.setstate(state["sample_rng"])
        if self.mode == "partial_aggregation":
            self.table.restore_state(state["table"])
            self._high_water = state["high_water"]

    # -- end of stream --------------------------------------------------------
    def flush(self) -> None:
        if self.mode == "partial_aggregation" and self.table is not None:
            index = self._window_index
            groups = self.table.evict_all()
            if index >= 0:
                groups.sort(key=lambda entry: entry[0][index])
            self._emit_groups(groups)

    # LFTAs have no channel inputs; the RTS drives them directly.
    def on_tuple(self, row: tuple, input_index: int) -> None:
        raise TypeError("LFTA nodes accept packets, not tuples")
