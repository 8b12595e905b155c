"""Tests for query removal and deeper engine integration paths."""

import pytest

from repro import Gigascope
from repro.core.heartbeat import Punctuation
from repro.core.stream_manager import RegistryError
from tests.conftest import tcp_packet


class TestRemoveQuery:
    def _engine(self):
        gs = Gigascope()
        gs.add_queries("""
            DEFINE query_name base;
            Select time, destPort, len From tcp;

            DEFINE query_name derived;
            Select tb, count(*) From base Group by time/10 as tb
        """)
        return gs

    def test_remove_hfta_only_query(self):
        gs = self._engine()
        gs.start()
        gs.remove_query("derived")
        assert "derived" not in gs.rts.names()
        # the producer keeps flowing with no dangling channels
        sub = gs.subscribe("base")
        gs.feed_packet(tcp_packet(ts=1.0))
        gs.pump()
        assert len(sub.poll()) == 1
        base_node = gs.rts.node("base")
        assert all(len(ch.name) for ch in base_node.subscribers)

    def test_dependent_blocks_removal(self):
        gs = self._engine()
        with pytest.raises(RegistryError):
            gs.remove_query("base")
        gs.remove_query("derived")
        gs.remove_query("base")  # now fine (RTS not started)
        assert gs.rts.names() == []

    def test_lfta_removal_requires_stop(self):
        gs = self._engine()
        gs.start()
        gs.remove_query("derived")
        with pytest.raises(RegistryError):
            gs.remove_query("base")
        gs.stop()
        gs.remove_query("base")

    def test_removed_name_reusable(self):
        gs = self._engine()
        gs.remove_query("derived")
        gs.add_query("DEFINE query_name derived; Select time From base")
        assert "derived" in gs.rts.names()

    def test_unknown_query(self):
        gs = self._engine()
        with pytest.raises(RegistryError):
            gs.remove_query("ghost")

    def test_remove_query_ends_app_subscriptions(self):
        """Removal emits a flush token: Subscription.ended flips True
        instead of the handle dangling forever."""
        gs = self._engine()
        sub = gs.subscribe("derived")
        gs.remove_query("derived")
        assert sub.poll() == []
        assert sub.ended

    def test_remove_query_flush_arrives_after_final_rows(self):
        gs = self._engine()
        base_sub = gs.subscribe("base")
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0))
        gs.pump()
        gs.stop()
        gs.remove_query("derived")
        gs.remove_query("base")
        rows = base_sub.poll()
        assert len(rows) == 1  # the pre-removal tuple was not lost
        assert base_sub.ended

    def test_remove_node_detaches_manager(self):
        """A removed node's on-demand heartbeat requests must no longer
        mutate the RTS it used to belong to."""
        gs = self._engine()
        node = gs.rts.node("derived")
        assert node.manager is gs.rts
        gs.remove_query("derived")
        assert node.manager is None
        node.request_heartbeat()  # must be a harmless no-op now
        assert gs.rts._heartbeat_wanted is False

    def test_subscription_of_removed_query_goes_quiet(self):
        gs = self._engine()
        sub = gs.subscribe("derived")
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0))
        gs.pump()
        gs.remove_query("derived")
        gs.feed_packet(tcp_packet(ts=2.0))
        gs.pump()
        gs.rts.flush_all()
        assert sub.poll() == []  # nothing ever reached the removed node


class TestPunctuationThroughSplitQueries:
    def test_split_selection_forwards_time_bounds(self):
        """Heartbeats survive the LFTA -> HFTA selection hop."""
        gs = Gigascope(heartbeat_interval=1.0)
        gs.add_query("DEFINE query_name q; Select time, srcIP From tcp "
                     "Where destPort = 80 and str_find_substr(data, 'x')")
        sub = gs.subscribe("q")
        gs.start()
        gs.feed_packet(tcp_packet(ts=0.0, dport=80, payload=b"x"))
        gs.feed_packet(tcp_packet(ts=5.0, dport=80, payload=b"x"))
        gs.pump()
        items = sub.poll_raw()
        bounds = [item.bound_for(0) for item in items
                  if isinstance(item, Punctuation)]
        assert bounds and max(b for b in bounds if b is not None) >= 4

    def test_agg_over_merge_flushes_via_punctuation(self):
        """A 3-stage chain: two LFTAs -> merge -> aggregation; heartbeats
        keep the final aggregation flushing even when one interface is
        quiet."""
        gs = Gigascope(heartbeat_interval=0.5)
        gs.add_queries("""
            DEFINE query_name a; Select time, len From eth0.tcp;
            DEFINE query_name b; Select time, len From eth1.tcp;
            DEFINE query_name ab; Merge a.time : b.time From a, b;
            DEFINE query_name vol;
            Select tb, count(*) From ab Group by time/2 as tb
        """)
        sub = gs.subscribe("vol")
        gs.start()
        # only eth0 traffic; eth1 stays silent throughout
        for i in range(100):
            gs.feed_packet(tcp_packet(ts=i * 0.1, interface="eth0"))
        gs.pump()
        live = sub.poll()
        assert len(live) >= 3  # buckets closed while running
        gs.flush()
        total = live + sub.poll()
        assert sum(count for _tb, count in total) == 100


class TestPartialFunctionsEndToEnd:
    def test_no_result_discards_the_tuple(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; "
                     "Select getlpmid(srcIP, '10.0.0.0/8 1') From tcp")
        sub = gs.subscribe("q")
        gs.start()
        gs.feed_packet(tcp_packet(ts=0.0, src="10.1.1.1"))
        gs.feed_packet(tcp_packet(ts=1.0, src="11.1.1.1"))  # discarded
        gs.flush()
        assert sub.poll() == [(1,)]


class TestStatsSurface:
    def test_stats_include_operator_extras(self):
        gs = Gigascope()
        gs.add_queries("""
            DEFINE query_name a; Select time, destPort From eth0.tcp;
            DEFINE query_name b; Select time, destPort From eth1.tcp;
            DEFINE query_name m; Merge a.time : b.time From a, b;
            DEFINE query_name g;
            Select tb, count(*) From a Group by time/10 as tb
        """)
        gs.start()
        gs.feed_packet(tcp_packet(ts=1.0, interface="eth0"))
        gs.feed_packet(tcp_packet(ts=1.0, interface="eth1"))
        gs.flush()
        stats = gs.stats()
        assert "dropped" in stats["m"]
        assert "groups_emitted" in stats["g"]
        assert stats["a"]["packets_seen"] == 1
