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
sibling finishes the block.
"""

import pytest

from repro import Gigascope
from repro.gsql.functions import FunctionSpec
from repro.gsql.types import UINT
from repro.net.build import build_tcp_frame
from repro.net.packet import CapturedPacket

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


def packets(count=100):
    # ten packets a second over three ports: window tb=0 closes at
    # packet 20, well before the 40th call
    return [CapturedPacket(
        timestamp=0.1 * i, interface="eth0",
        data=build_tcp_frame("10.0.0.1", "10.0.0.2", 1000 + i, 80 + i % 3))
        for i in range(count)]


def run(text, node, batch_size, pump_every=64, mode="compiled"):
    gs = Gigascope(batch_size=batch_size, heartbeat_interval=None, mode=mode)
    gs.functions.register(boom())
    gs.add_queries(text)
    sub = gs.subscribe("q")
    gs.start()
    gs.feed(packets(), pump_every=pump_every)
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


@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
class TestRaisingExpression:
    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_lfta_projection(self, batch_size, mode):
        rows, tuples_in, tuples_out, discarded, quarantined = run(
            PROJECTION, "q", batch_size, mode=mode)
        assert rows == [(i // 10, 80 + i % 3) for i in range(RAISES_AT - 1)]
        assert (tuples_in, tuples_out, discarded) == (
            RAISES_AT, RAISES_AT - 1, 0)
        assert quarantined == {"q": "RuntimeError: boom"}

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_lfta_partial_aggregation(self, batch_size, mode):
        rows, tuples_in, tuples_out, _, quarantined = run(
            PARTIAL, "_fta_q_0", batch_size, mode=mode)
        # the three tb=0 groups closed when packet 20 opened tb=1; the
        # LFTA died holding tb=1, which never reaches the HFTA's output
        assert sorted(rows) == [(0, 80, 7), (0, 81, 7), (0, 82, 6)]
        assert (tuples_in, tuples_out) == (RAISES_AT, 3)
        assert quarantined == {"_fta_q_0": "RuntimeError: boom"}

    def test_hfta_aggregation_differs_only_by_the_legitimate_cut(self, mode):
        """The HFTA's block is the pump chunk: ``tuples_in`` counts the
        chunk the scheduler popped, everything the node *did* is the
        39 rows before the raise."""
        results = {}
        for pump_every in (16, 64):
            for batch_size in BLOCK_SIZES:
                results[pump_every, batch_size] = run(
                    HFTA, "q", batch_size, pump_every, mode)
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
