"""A raising expression may not make the output depend on the block size.

``LftaNode.accept_batch`` promises that its result "does not depend on
how the packet stream was cut into blocks".  Until PR 19 that held only
while nothing raised: the select/key pass ran over the whole decoded
block before a row was emitted or folded, so a UDF raising on its 40th
call delivered 39 rows at ``batch_size=1``, 35 at 7 and **none** at 256
(``tuples_in`` 40 / 42 / 64).  The fused kernels are row-at-a-time by
construction -- one loop from packet bytes to operator state, counters
and output moved in its ``finally`` -- so every block size must now
give the block-of-one answer, down to the quarantine reason.  That
holds for a decode-group member too (``TestDecodeGroupMember``): in the
RTS's block kernel its guard, prefix and action run packet by packet
like its own loop, and a raising member stops at its row while its
sibling finishes the block.  And it holds for a shedding LFTA
(``TestShedDrawsStopAtTheRaisingPacket``): its gate draws inside the
same loop, so its draws, ``shed_packets`` and ``packets_seen`` stop at
the raising packet too.
"""

from collections import Counter

import pytest

from repro import Gigascope
from repro.gsql.functions import FunctionSpec
from repro.gsql.types import UINT
from repro.net.build import build_tcp6_frame, build_tcp_frame
from repro.net.packet import CapturedPacket
from repro.recovery.wire import encode_snapshot

BLOCK_SIZES = (1, 7, 256)
RAISES_AT = 40


def boom():
    """A UDF that raises on its ``RAISES_AT``-th call."""
    calls = [0]

    def call(value):
        calls[0] += 1
        if calls[0] == RAISES_AT:
            raise RuntimeError("boom")
        return value
    return FunctionSpec("boom", call, (UINT,), UINT)


def packets(count=100, protocol="tcp"):
    # ten packets a second over three ports: window tb=0 closes at
    # packet 20, well before the 40th call
    build, src, dst = ((build_tcp_frame, "10.0.0.1", "10.0.0.2")
                       if protocol == "tcp" else
                       (build_tcp6_frame, "2001:db8::1", "2001:db8::2"))
    return [CapturedPacket(timestamp=0.1 * i, interface="eth0",
                           data=build(src, dst, 1000 + i, 80 + i % 3))
            for i in range(count)]


def run(text, node, batch_size, pump_every=64, protocol="tcp"):
    """``text`` over ``protocol``: tcp has a layout, so its LFTAs run
    generated decode loops; tcp6 has none and takes the row adapter."""
    gs = Gigascope(batch_size=batch_size, heartbeat_interval=None)
    gs.functions.register(boom())
    gs.add_queries(text.replace("eth0.tcp", f"eth0.{protocol}"))
    lftas = [lfta for _, lfta in gs.rts.iter_nodes()
             if hasattr(lfta, "decode_fields")]
    assert lftas and all((lfta.decode_fields is None) == (protocol == "tcp6")
                         for lfta in lftas)
    sub = gs.subscribe("q")
    gs.start()
    gs.feed(packets(protocol=protocol), pump_every=pump_every)
    gs.flush()
    stats = gs.rts.node(node).stats
    return (sub.poll(), stats.tuples_in, stats.tuples_out, stats.discarded,
            dict(gs.rts.quarantined))


PROJECTION = "DEFINE query_name q; Select time, boom(destPort) From eth0.tcp"
PARTIAL = ("DEFINE query_name q; Select tb, p, count(*) From eth0.tcp "
           "Group by time/2 as tb, boom(destPort) as p")
HFTA = ("DEFINE query_name s; Select time, destPort From eth0.tcp; "
        "DEFINE query_name q; Select tb, p, count(*) From s "
        "Group by time/2 as tb, boom(destPort) as p")


@pytest.mark.parametrize("protocol", ["tcp", "tcp6"])
class TestRaisingExpression:
    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_lfta_projection(self, batch_size, protocol):
        rows, tuples_in, tuples_out, discarded, quarantined = run(
            PROJECTION, "q", batch_size, protocol=protocol)
        assert rows == [(i // 10, 80 + i % 3) for i in range(RAISES_AT - 1)]
        assert (tuples_in, tuples_out, discarded) == (
            RAISES_AT, RAISES_AT - 1, 0)
        assert quarantined == {"q": "RuntimeError: boom"}

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_lfta_partial_aggregation(self, batch_size, protocol):
        rows, tuples_in, tuples_out, _, quarantined = run(
            PARTIAL, "_fta_q_0", batch_size, protocol=protocol)
        # the three tb=0 groups closed when packet 20 opened tb=1; the
        # LFTA died holding tb=1, which never reaches the HFTA's output
        assert sorted(rows) == [(0, 80, 7), (0, 81, 7), (0, 82, 6)]
        assert (tuples_in, tuples_out) == (RAISES_AT, 3)
        assert quarantined == {"_fta_q_0": "RuntimeError: boom"}

    def test_hfta_aggregation_differs_only_by_the_legitimate_cut(
            self, protocol):
        """The HFTA's block is the pump chunk: ``tuples_in`` counts the
        chunk the scheduler popped, everything the node *did* is the
        39 rows before the raise."""
        results = {}
        for pump_every in (16, 64):
            for batch_size in BLOCK_SIZES:
                results[pump_every, batch_size] = run(
                    HFTA, "q", batch_size, pump_every, protocol)
        for (pump_every, _), result in results.items():
            rows, tuples_in, tuples_out, discarded, quarantined = result
            # rows 0..19 built tb=0; row 20 closed it
            assert rows == [(0, 80, 7), (0, 81, 7), (0, 82, 6)]
            assert (tuples_out, discarded) == (3, 0)
            assert quarantined == {"q": "RuntimeError: boom"}
            # the chunk holding the 40th row, counted in whole
            assert tuples_in == -(-RAISES_AT // pump_every) * pump_every
        assert len({result[:1] + result[2:]
                    for result in map(_hashable, results.values())}) == 1


def _hashable(result):
    rows, tuples_in, tuples_out, discarded, quarantined = result
    return (tuple(rows), tuples_in, tuples_out, discarded,
            tuple(sorted(quarantined.items())))


class TestCountersAtTheRaisingRow:
    """What the fused loop's ``finally`` leaves behind, read off the
    node: the raising row is counted in, nothing after it is."""

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_prefix_kills_before_the_raise_are_counted(self, batch_size):
        gs = Gigascope(batch_size=batch_size, heartbeat_interval=None)
        gs.functions.register(boom())
        gs.add_query("DEFINE query_name q; Select time, boom(srcPort) "
                     "From eth0.tcp Where destPort = 80")
        sub = gs.subscribe("q")
        gs.start()
        gs.feed(packets(200), pump_every=64)
        node = gs.rts.node("q")
        # every third packet passes destPort = 80: the 40th call is
        # packet 117, the 118th tuple; 78 died on the pushed prefix
        assert len(sub.poll()) == RAISES_AT - 1
        assert node.stats.tuples_in == 118
        assert node.stats.discarded == 78
        assert node.stats.tuples_out == RAISES_AT - 1

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_table_counters_stop_at_the_raising_row(self, batch_size):
        gs = Gigascope(batch_size=batch_size, heartbeat_interval=None)
        gs.functions.register(boom())
        gs.add_query(PARTIAL)
        gs.start()
        gs.feed(packets(), pump_every=64)
        table = gs.rts.node("_fta_q_0").table
        # 39 rows probed; tb=1's three groups were resident when the
        # key expression raised (the window flush emptied tb=0's slots)
        assert table.lookups == RAISES_AT - 1
        assert len(table) == 3


class TestDecodeGroupMember:
    """A decode-group member in the block kernel is row-exact: the
    raising member's ``tuples_in`` and its prefix's ``discarded`` stop
    at the raising row, exactly as in its own loop at blocks of one, and
    everything about its sibling is the block-of-one answer too."""

    RAISING_PACKET = 117  # the 40th with destPort = 80
    PUMP_EVERY = 64

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_only_the_blocks_tallies_depend_on_the_cut(self, batch_size):
        gs = Gigascope(batch_size=batch_size, heartbeat_interval=None)
        gs.functions.register(boom())
        gs.add_queries(
            "DEFINE query_name q; Select time, boom(srcPort) From eth0.tcp "
            "Where destPort = 80; "
            "DEFINE query_name r; Select time, len From eth0.tcp")
        raising, sibling = gs.subscribe("q"), gs.subscribe("r")
        gs.start()
        assert gs.rts.describe_decode_group("q").startswith(
            "decode group [q,r]")
        gs.feed(packets(200), pump_every=self.PUMP_EVERY)
        gs.flush()
        stats = gs.rts.node("q").stats
        assert raising.poll() == [
            (i // 10, 1000 + i) for i in range(0, self.RAISING_PACKET, 3)]
        assert stats.tuples_out == RAISES_AT - 1
        assert gs.rts.quarantined == {"q": "RuntimeError: boom"}
        assert len(sibling.poll()) == gs.rts.node("r").stats.tuples_in == 200
        # the raising packet is the 118th tuple; 78 died on the prefix
        # before it -- at every block size
        assert (stats.tuples_in, stats.discarded) == (118, 78)


@pytest.mark.parametrize("protocol", ["tcp", "tcp6"])
class TestShedDrawsStopAtTheRaisingPacket:
    """A shedding LFTA draws its gate packet by packet inside its loop,
    ahead of the guard, so a member raising at packet *k* has drawn
    for, and counted into ``packets_seen``, exactly the packets up to
    *k* -- the shed counters, the shed RNG and the whole snapshot of the
    quarantined node are the block-of-one answer at every block size."""

    #: a draw at or above it sheds the packet
    RATE = 0.5

    @staticmethod
    def web(count=600, protocol="tcp"):
        build, src, dst = ((build_tcp_frame, "10.0.0.1", "10.0.0.2")
                           if protocol == "tcp" else
                           (build_tcp6_frame, "2001:db8::1", "2001:db8::2"))
        return [CapturedPacket(timestamp=0.1 * i, interface="eth0",
                               data=build(src, dst, 1000 + i, 80))
                for i in range(count)]

    def quarantined(self, batch_size, protocol):
        gs = Gigascope(batch_size=batch_size, heartbeat_interval=None)
        gs.functions.register(boom())
        gs.add_queries(PROJECTION.replace("eth0.tcp", f"eth0.{protocol}"))
        sub = gs.subscribe("q")
        node = gs.rts.node("q")
        node.set_shed_rate(self.RATE)
        gs.start()
        gs.feed(self.web(protocol=protocol), pump_every=64)
        gs.flush()
        assert gs.rts.quarantined == {"q": "RuntimeError: boom"}
        return (len(sub.poll()), node.stats.tuples_in, node.shed_packets,
                node.packets_seen, node._shed_rng.random(),
                encode_snapshot(node.snapshot_state()))

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_counters_and_draws_are_those_of_blocks_of_one(
            self, batch_size, protocol):
        rows, tuples_in, shed, seen, draw, snapshot = self.quarantined(
            batch_size, protocol)
        assert (rows, tuples_in) == (RAISES_AT - 1, RAISES_AT)
        # every packet is a tuple: the raising one is the 40th kept
        assert seen == shed + RAISES_AT
        assert (shed, seen, round(draw, 3)) == (34, 74, 0.472)
        assert (seen, draw, snapshot) == self.quarantined(1, protocol)[3:]


class TestRaisingJoinProjection:
    """The join's generated loop is row-exact too: its pairs gather in
    one block-local list that the loop's ``finally`` emits, so a select
    list raising at its 40th pair delivers the 39 pairs before it --
    including the one its own arrival made first -- and leaves the
    buffers, ``pairs_emitted`` and the snapshot as blocks of one would.
    Only ``tuples_in`` counts the popped block the raise was in."""

    JOIN = ("DEFINE query_name q; Select A.time, boom(A.destPort), "
            "B.destPort From eth0.tcp A, eth1.tcp B Where A.time = B.time")
    SECONDS = 30
    #: the 20th eth1 packet, after every eth0 one
    RAISING_PACKET = 2 * SECONDS + 20

    @classmethod
    def links(cls):
        # eth0 first, two packets a second, so every block size delivers
        # all of its rows before any eth1 row; each eth1 row then pairs
        # with two of them, and the 40th call is the second pair of the
        # 20th eth1 row
        def packet(second, interface, port):
            return CapturedPacket(
                timestamp=float(second), interface=interface,
                data=build_tcp_frame("10.0.0.1", "10.0.0.2", 1000, port))
        return ([packet(second, "eth0", port)
                 for second in range(cls.SECONDS) for port in (80, 81)]
                + [packet(second, "eth1", 443)
                   for second in range(cls.SECONDS)])

    def quarantined(self, block_size):
        gs = Gigascope(batch_size=block_size, heartbeat_interval=None)
        gs.functions.register(boom())
        gs.add_query(self.JOIN)
        sub = gs.subscribe("q")
        gs.start()
        gs.feed(self.links(), pump_every=block_size)
        gs.flush()
        node = gs.rts.node("q")
        stats = gs.stats()["q"]
        tuples_in = stats.pop("tuples_in")
        state = node.snapshot_state()
        assert state["stats"][0] == tuples_in
        state["stats"] = state["stats"][1:]
        return tuples_in, (sub.poll(), stats, node.pairs_emitted,
                           dict(gs.rts.quarantined), encode_snapshot(state))

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_the_block_of_one_answer(self, block_size):
        tuples_in, result = self.quarantined(block_size)
        rows, stats, pairs, quarantined, _ = result
        assert rows == [(second, port, 443) for second in range(20)
                        for port in (80, 81)][:RAISES_AT - 1]
        assert pairs == stats["tuples_out"] == RAISES_AT - 1
        assert quarantined == {"q": "RuntimeError: boom"}
        # the popped blocks up to the one holding the raising packet
        assert tuples_in == min(
            -(-self.RAISING_PACKET // block_size) * block_size,
            3 * self.SECONDS)
        assert result == self.quarantined(1)[1]


class TestRaisingWindowClose:
    """The aggregation's window close is one generated loop too: closed
    groups gather in one list that its ``finally`` emits, so a HAVING
    raising at its 40th closed group delivers what the 39 groups before
    it made -- less those the select list has no result for, counted
    into ``discarded`` -- and leaves the open groups, ``groups_emitted``
    and the snapshot as blocks of one would.  Only ``tuples_in`` counts
    the popped block the raise was in."""

    QUERY = ("DEFINE query_name q; Select tb, p, hole(p), count(*) "
             "From eth0.tcp Group by time as tb, destPort as p "
             "Having boom(count(*)) > 0")
    PORTS = 6
    #: ports whose group the select list has no result for
    HOLE = 81

    @classmethod
    def hole(cls):
        return FunctionSpec(
            "hole", lambda port: None if port == cls.HOLE else port,
            (UINT,), UINT, partial=True)

    @classmethod
    def web(cls):
        # ten packets a second, every port in every one-second window:
        # six groups close per window, the 40th is window 6's fourth
        return [CapturedPacket(
            timestamp=0.1 * i, interface="eth0",
            data=build_tcp_frame("10.0.0.1", "10.0.0.2", 1000,
                                 80 + i % cls.PORTS))
            for i in range(300)]

    def quarantined(self, block_size):
        gs = Gigascope(batch_size=block_size)
        gs.functions.register(boom())
        gs.functions.register(self.hole())
        gs.add_query(self.QUERY)
        sub = gs.subscribe("q")
        gs.start()
        gs.feed(self.web(), pump_every=block_size)
        gs.flush()
        node = gs.rts.node("q")
        stats = gs.stats()["q"]
        tuples_in = stats.pop("tuples_in")
        state = node.snapshot_state()
        assert state["stats"][0] == tuples_in
        state["stats"] = state["stats"][1:]
        return tuples_in, (sub.poll(), stats, node.groups_emitted,
                           node.open_groups, dict(gs.rts.quarantined),
                           encode_snapshot(state))

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_the_block_of_one_answer(self, block_size):
        _, result = self.quarantined(block_size)
        rows, stats, emitted, open_groups, quarantined, _ = result
        counts = Counter((int(packet.timestamp), 80 + i % self.PORTS)
                         for i, packet in enumerate(self.web()))
        closed = sorted(counts)[:RAISES_AT - 1]
        assert closed[-1] == (6, 82)
        assert rows == [(tb, p, p, counts[tb, p]) for tb, p in closed
                        if p != self.HOLE]
        assert emitted == stats["tuples_out"] == len(rows) == 32
        assert stats["discarded"] == RAISES_AT - 1 - len(rows)
        # the raising group has left, its window's last two have not
        assert open_groups == 2
        assert quarantined == {"q": "RuntimeError: boom"}
        assert result == self.quarantined(1)[1]
