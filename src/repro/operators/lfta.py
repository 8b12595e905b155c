"""The low-level FTA node (paper Section 3).

LFTAs accept only Protocol input and are linked into the run-time
system: the RTS hands each block of captured packets directly to every
LFTA bound to that interface (:meth:`LftaNode.accept_batch`), with no
intermediate channel.  An LFTA performs preliminary filtering,
projection, and (optionally) partial aggregation over a small
direct-mapped hash table, greatly reducing the data traffic to the
HFTAs.

``accept_batch`` is the only packet entry; one packet is a block of one
(:meth:`LftaNode.accept_packet`).  Inside it a block is decoded once,
one of two ways fixed when the node is built (DESIGN section 14):

* a built-in ip/tcp/udp protocol under compiled codegen gets a
  *generated block decoder* covering exactly the attributes this plan
  reads (``ExprCompiler.block_decoder_fn``), with the plan's pushed
  prefix (``LftaPlan.prefix``: the leading conjuncts that are total
  over header fields) tested inside its loop -- a packet they kill is
  counted into ``tuples_in`` and ``discarded`` but never becomes a row
  -- and, when most tuples die there, its lean form
  (:attr:`LftaNode.prefers_lean`).  The RTS may hand the block
  over already decoded -- LFTAs on one interface share one decode of the
  union of their fields, with each member's own rows of it -- and the
  node uses it only when it is about to
  decode that very list (``block.packets is packets``); whenever its own
  list differs (the shed gate kept a subset, an injected fault delivered
  a prefix, journal replay or the NIC runtime handed packets over
  directly) it runs its own decoder on its own list, through the same
  call site;
* every other protocol, and ``interpreted`` mode, goes through the
  generic row adapter (``ProtocolSchema.sparse_interpreter``).

Partial aggregation is one loop whichever front end ran: both hand the
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
from repro.gsql.codegen import DiscardTuple, ExprCompiler
from repro.gsql.planner import LftaPlan, column_slots
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
        self._clock_bounds = self.protocol.clock_bounds
        # The front end (DESIGN section 14): a generated block decoder
        # where the protocol has a layout and codegen is compiled, the
        # row adapter everywhere else.
        needed = plan.needed_fields(analyzed)
        #: the conjuncts this node's decoder tests in its own loop, as a
        #: shared decoder must be generated with them (None: this node
        #: keeps every guard-passing packet, or is on the row adapter)
        self.prefilter = compiler.prefilter(plan.predicates[:plan.prefix])
        self._decoder = compiler.block_decoder_fn(
            self.protocol, needed, self.prefilter)
        #: attribute positions a shared decode must cover for this node
        #: (read by the RTS when it groups an interface's LFTAs); None
        #: on the row adapter
        self.decode_fields: Optional[List[int]] = (
            needed if self._decoder is not None else None)
        self._lean_decoder = None
        self.columnar_blocks = 0
        #: what the select/key kernel still has to test
        predicates = plan.predicates
        if self._decoder is not None:
            self._decode_block = self.protocol.columnar_decoder
            # The block decoder reads raw bytes; a shared PacketView
            # would go untouched, so tell the RTS not to build one.
            self.accepts_view = False
            if self.prefilter is not None:
                self._lean_decoder = compiler.block_decoder_fn(
                    self.protocol, needed, self.prefilter, lean=True)
                predicates = predicates[plan.prefix:]
        else:
            self._interpret = self.protocol.sparse_interpreter(needed)

        if plan.mode == "projection":
            select_fn = (compiler.batch_select_fn if self._decoder is None
                         else compiler.columnar_select_fn)
            self._select = select_fn(
                predicates, plan.project_exprs, (None, None))
            self._transforms = output_bound_transforms(
                plan.project_exprs, analyzed, plan.output_schema, (None, None),
                functions=compiler.functions,
            )
            self.table: Optional[DirectMappedTable] = None
        elif plan.mode == "partial_aggregation":
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
            self.aggregate_ops = AggregateOps.for_plan(
                compiler, plan.aggregates, (None, None))
            # The one aggregation loop (DESIGN section 18): generated
            # per plan, fed (keys, rows) by either front end.
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
        else:
            raise ValueError(f"unknown LFTA mode {plan.mode!r}")
        self.mode = plan.mode

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

    @property
    def prefers_lean(self) -> bool:
        """Whether the next block should go through the lean decoder:
        most tuples so far died in this node, so unpacking the fields
        only survivors need after the prefix test saves more than the
        second unpack costs.  Read off the checkpointed counters -- a
        property of the input, restored with the node -- and
        unobservable in the output: both forms decode the same block.
        """
        stats = self.stats
        return (self._lean_decoder is not None
                and 2 * stats.discarded > stats.tuples_in)

    def accept_batch(self, packets, views=None, block=None, rows=None) -> None:
        """One block of packets through the LFTA (DESIGN section 10).

        ``block`` is the RTS's shared decode of ``packets`` when this
        node's interface has one, and ``rows`` the indices of the rows
        in it that passed this node's pushed prefix (None: all of
        them); they are used only if the block decoded the very list
        this node is about to decode.

        The result does not depend on how the packet stream was cut
        into blocks, nor on which front end runs, nor on who decoded:
        the shed gate draws once per packet in arrival order *before*
        decoding; every decode sees exactly the guard-passing packets,
        in order, counts them into ``tuples_in`` and hands on the rows
        that pass the pushed prefix (all of them for a sampled plan, so
        the per-row sample draws line up), counting the others
        ``discarded``; the fused select/key function runs the remaining
        conjuncts in order per row; and every counter advances by the
        per-packet amounts.
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
        stats = self.stats
        if self._decoder is not None:
            # Rows are indices into the decoded block.
            if block is None or block.packets is not packets:
                block = self._decode_block(
                    packets, self._lean_decoder if self.prefers_lean
                    else self._decoder)
                rows = None
            self.columnar_blocks += 1
            if rows is None:
                rows = range(block.n)
            stats.tuples_in += block.passed
            stats.discarded += block.passed - len(rows)
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
