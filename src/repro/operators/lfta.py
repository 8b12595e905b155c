"""The low-level FTA node (paper Section 3).

LFTAs accept only Protocol input and are linked into the run-time
system: the RTS hands each block of captured packets directly to every
LFTA bound to that interface (:meth:`LftaNode.accept_batch`), with no
intermediate channel.  An LFTA performs preliminary filtering,
projection, and (optionally) partial aggregation over a small
direct-mapped hash table, greatly reducing the data traffic to the
HFTAs.

``accept_batch`` is the only packet entry; one packet is a block of one
(:meth:`LftaNode.accept_packet`).  Inside it *one generated loop* takes
each packet from its bytes to this node's state -- the shed gate's draw
when the controller sheds (``repro.net.columnar.shed_gate``), then one
of two headers (DESIGN section 14):

* a built-in ip/tcp/udp protocol runs a *block kernel*
  (``repro.net.columnar.block_kernel``) covering exactly the attributes
  this plan reads, with the plan's pushed prefix (``LftaPlan.prefix``:
  the leading conjuncts that are total over header fields) tested on
  the unpacked values -- a packet they kill is counted into
  ``tuples_in`` and ``discarded`` and goes no further -- and the plan's
  *row action* (``ExprCompiler.lfta_action``) spliced in right behind:
  sample draw, remaining conjuncts, then the projection or key, window
  check, table probe and fold.  When most tuples die on the prefix the
  lean form of the same loop runs (:attr:`LftaNode.prefers_lean`).  On
  the RTS's packet path the node is a member of the RTS's kernel
  (:meth:`LftaNode.kernel_member`), one loop over the whole block in
  which every covered LFTA's gate, guard, prefix and action sit;
  ``accept_batch`` -- for a fault's wrap, journal replay, the NIC
  runtime -- runs a kernel with this node as its one member, and the
  test the node pushes into a capture card (:class:`CardFilter`) is its
  guard and prefix as one more such kernel, with an empty row action;
* every other protocol runs the action under the generic row adapter's
  header (``ExprCompiler.lfta_adapter_fn``
  around ``ProtocolSchema.sparse_interpreter``).

The action's lines are the same whichever header they sit under, so
partial aggregation is one loop body (DESIGN section 18): per row the
aggregate arguments, the window high-water check, the slot of the key,
the probe of the direct-mapped table and the fold -- ejected groups
leave as one block ahead of any window flush.  What stays here is what
happens per window, not per row: closing the groups below a bound
(:meth:`LftaNode._flush_below`) and the end-of-stream flush, each one
``emit_many``.  ``tests/test_fused_kernels.py`` holds the loops to the
decode-then-select/key passes they replaced, ``tests/test_lfta_block_kernel.py``
to the row-at-a-time aggregation before those.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.heartbeat import Punctuation
from repro.determinism import rng_for
from repro.core.query_node import NodeStats, QueryNode
from repro.gsql.codegen import ExprCompiler
from repro.gsql.planner import LftaPlan
from repro.gsql.semantic import AnalyzedQuery
from repro.net.columnar import (ActionSource, Branch, Member, Prefilter,
                                RowAction, block_kernel)
from repro.net.packet import CapturedPacket
from repro.operators.aggregates import partial_layout
from repro.operators.base import apply_transforms, key_bound_fn, output_bound_transforms
from repro.operators.lfta_table import DirectMappedTable

DEFAULT_TABLE_SIZE = 4096


class CardFilter:
    """What a capture card runs on behalf of one LFTA (paper Section 3:
    "a simple selection/projection operator [pushed] into the NIC"):
    the LFTA's own front end -- protocol guard, then the plan's prefix
    -- as a block kernel whose one member reads only the fields the
    prefix reads and has an empty row action.  The card rejects exactly
    the packets that kernel gives no row, which the LFTA re-checking on
    the host would count and drop, so it loses no row.  The filter is
    the member's node: the kernel moves its ``packets_seen`` and
    ``stats`` as it would an LFTA's."""

    def __init__(self, protocol, prefilter: Optional[Prefilter]) -> None:
        #: the prefix as GSQL ("" when only the guard is tested)
        self.description = "" if prefilter is None else prefilter.text
        self.evaluated = 0
        self.matched = 0
        self.packets_seen = self.columnar_blocks = 0
        self.stats = NodeStats()
        needed = frozenset() if prefilter is None else prefilter.slots
        section = protocol.kernel_section([Member(
            needed, prefilter, RowAction(frozenset(), lambda columns:
                                         ActionSource([], [], [],
                                                      {"node": self})))])
        self._kernel, _ = block_kernel([Branch(None, (section,), False)])

    def matches(self, packet: CapturedPacket) -> bool:
        self.evaluated += 1
        if not self._kernel((packet,)).n:
            return False
        self.matched += 1
        return True


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
        # The front end (DESIGN section 14): a block kernel where the
        # protocol has a layout, the row adapter everywhere else --
        # either way one loop with this plan's row action inside it.
        needed = plan.needed_fields(analyzed)
        #: the conjuncts a block kernel tests for this node ahead of its
        #: row action (None: this node keeps every guard-passing packet,
        #: or is on the row adapter)
        self.prefilter = compiler.prefilter(plan.predicates[:plan.prefix])
        #: what this node does with a row that passed the prefix
        self._action = compiler.lfta_action(
            plan, self, plan.prefix if self.prefilter is not None else 0)
        #: attribute positions a block kernel must cover for this node;
        #: None on the row adapter
        self.decode_fields: Optional[List[int]] = (
            needed if self.protocol.columnar_decoder is not None else None)
        #: the prefix leaves two or more header fields for survivors
        #: only, so the loop has a lean form
        self._has_lean = self.prefilter is not None and bool(
            self.protocol.lean_formats(needed, self.prefilter.slots))
        #: keeps the source of a block kernel this node runs in with
        #: the code generated for its query (once)
        self.record_source = compiler.record_source
        self._compiler = compiler
        self.columnar_blocks = 0
        if self.decode_fields is not None:
            self._decode_block = self.protocol.columnar_decoder
            # The block kernel reads raw bytes; a shared PacketView
            # would go untouched, so tell the RTS not to build one.
            self.accepts_view = False
        else:
            self._interpret = self.protocol.sparse_interpreter(needed)
        #: this node's own loops by ``(sheds, lean)`` (:meth:`_loop`);
        #: the starting form is built now, so the query's generated code
        #: shows it before the first block
        self._loops: Dict[Tuple[bool, bool], Callable] = {}
        self._loop(False, False)

        if plan.mode == "projection":
            self._transforms = output_bound_transforms(
                plan.project_exprs, analyzed, plan.output_schema, (None, None),
                functions=compiler.functions,
            )
            self.table: Optional[DirectMappedTable] = None
        elif plan.mode == "partial_aggregation":
            self.table = DirectMappedTable(
                table_size, compiler.key_hash_format(plan.group_exprs),
                partial_layout(plan.aggregates))
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
        """Whether the next block should run the lean form of this
        node's loop: most tuples so far died in this node, so unpacking
        the fields only survivors need after the prefix test saves more
        than the second unpack costs.  Read off the checkpointed
        counters -- a property of the input, restored with the node --
        and unobservable in the output: both forms hand the action the
        same rows.
        """
        stats = self.stats
        return self._has_lean and 2 * stats.discarded > stats.tuples_in

    def card_filter(self) -> Optional[CardFilter]:
        """This node's guard and prefix as a card-side packet test
        (``Nic(bpf=...)``): a one-member block kernel out of the emitter
        the node's own loop came from, reading the same parameter dict.
        None on the row adapter, whose protocol says nothing about
        where in a frame its fields sit: such a node pushes nothing."""
        if self.decode_fields is None:
            return None
        return CardFilter(self.protocol, self.prefilter)

    def kernel_member(self, sheds: bool = False) -> Optional[Member]:
        """This node as a block kernel takes it: the fields it reads,
        its pushed prefix and its row action, which the RTS's kernel
        runs in place of :meth:`accept_batch` -- with its shed gate
        ahead of the guard when it ``sheds`` -- or None when the RTS's
        kernel cannot: the node is on the row adapter, or its
        ``accept_batch`` is not this class's own (an injected fault's
        wrap, a subclass's)."""
        if (self.decode_fields is None or "accept_batch" in vars(self)
                or type(self).accept_batch is not LftaNode.accept_batch):
            return None
        return Member(frozenset(self.decode_fields), self.prefilter,
                      self._action, sheds)

    def _loop(self, sheds: bool, lean: bool) -> Callable:
        """This node's own loop in the form ``(sheds, lean)``, generated
        on first use: a block kernel with this node as its one member
        where the protocol has a layout, the row adapter's header
        everywhere else."""
        loop = self._loops.get((sheds, lean))
        if loop is None:
            if self.decode_fields is None:
                loop = self._compiler.lfta_adapter_fn(self._action, sheds)
            else:
                section = self.protocol.kernel_section([Member(
                    frozenset(self.decode_fields), self.prefilter,
                    self._action, sheds)], lean)
                loop, source = block_kernel([Branch(None, (section,), False)])
                self.record_source(source)
            self._loops[sheds, lean] = loop
        return loop

    def accept_batch(self, packets, views=None) -> None:
        """One block of packets through the LFTA (DESIGN section 10).

        The result does not depend on how the packet stream was cut
        into blocks, nor on which front end runs, nor on whether this
        node's own kernel or the RTS's runs it: one generated loop takes
        each packet from its bytes to this node's state -- the shed
        gate's draw (one per packet in arrival order, while the
        controller sheds), the protocol guard (counted into
        ``tuples_in``), the pushed prefix (a kill is counted
        ``discarded``; none for a sampled plan, so the per-row sample
        draws line up), the sample draw, the remaining conjuncts in
        order, and the projection or the table update -- before it
        touches the next, and moves every counter in its ``finally``.
        An exception at packet *k* therefore leaves counters, draws,
        table and emitted rows as *k* blocks of one would, and is
        raised here.
        """
        loop = self._loop(self.shed_rate < 1.0, self.prefers_lean)
        if self.decode_fields is None:
            loop(packets, repeat(None) if views is None else views)
            return
        failed = self._decode_block(packets, loop).failed
        if failed:
            raise failed[0][1]

    def _flush_below(self, low_water) -> None:
        """Close every group whose window key is below ``low_water``."""
        index = self._window_index
        closed = self.table.evict_if(lambda key: key[index] < low_water)
        closed.sort(key=lambda entry: entry[0][index])
        self._emit_groups(closed)
        if closed or self._high_water is not None:
            self.emit_punctuation(Punctuation({index: low_water}))

    def _emit_groups(self, groups) -> None:
        """Closed ``(key, partials)`` groups leave as one block of
        ``key + partials`` rows."""
        self.emit_many([key + partials for key, partials in groups])

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
