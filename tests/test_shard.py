"""The sharded multi-process runtime (repro.shard, DESIGN section 15).

Three contracts under test:

* the stripe layout: every packet position belongs to exactly one
  shard, a shard's packets keep stream order, sizes differ by at most
  one stripe, and the ledger's arithmetic (``shard_size``) equals a
  direct count -- nothing is hashed, so nothing can move with
  ``PYTHONHASHSEED`` (CI runs the tier-1 suite under two seeds anyway);
* the runtime: sharded output is byte-identical to single-process --
  clean, for any input length and shard count, across a worker
  crash/restart (checkpoint resume and restart-from-scratch), and with
  sibling shards unaffected by a quarantined one; a barrier cut found
  a chunk at a time lands where the per-packet walk put it;
* the accounting: worker-side channel overflow and quarantine packet
  loss survive the process boundary into the parent's ledgers.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Gigascope
from repro.core.stream_manager import RegistryError
from repro.determinism import derive_seed
from repro.gsql.functions import FunctionSpec, builtin_functions
from repro.gsql.schema import builtin_registry
from repro.gsql.types import UINT
from repro.shard import ShardedGigascope
from repro.shard.partition import STRIPE, shard_packets, shard_size
from repro.shard.worker import barrier_cuts
from repro.workloads.flows import ZipfFlowWorkload
from repro.workloads.generators import (http_port80_pool, merge_streams,
                                        packet_stream)

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")

FLOWS_QUERY = """
    DEFINE query_name flows;
    Select tb, srcIP, srcPort, count(*), sum(len)
    From tcp
    Group by time/5 as tb, srcIP, srcPort
"""

#: the E2 deployment shape: two links, a merge, a terminal aggregation
APPMON_QUERIES = """
    DEFINE query_name link0;
    Select time, destIP, len From eth0.tcp Where destPort = 80;

    DEFINE query_name link1;
    Select time, destIP, len From eth1.tcp Where destPort = 80;

    DEFINE query_name both;
    Merge link0.time : link1.time From link0, link1;

    DEFINE query_name appmon;
    Select tb, destIP, count(*), sum(len)
    From both Group by time/2 as tb, destIP
"""


def zipf_packets(count=3000, seed=7):
    workload = ZipfFlowWorkload(num_flows=300, alpha=1.1,
                                seed=derive_seed(seed, "workload.zipf"))
    return list(workload.packets(count, pps=2000.0))


def two_link_packets(count=1500):
    links = [packet_stream(http_port80_pool(seed=1 + link), rate_mbps=2.0,
                           duration_s=10.0, interface=f"eth{link}",
                           seed=11 + link) for link in (0, 1)]
    return list(itertools.islice(merge_streams(*links), count))


def run_single(packets, query=FLOWS_QUERY, name="flows", **kwargs):
    gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False, **kwargs)
    gs.add_queries(query)
    sub = gs.subscribe(name)
    gs.start()
    gs.feed(packets, pump_every=128)
    gs.flush()
    return sub.poll()


def run_sharded(packets, shards, query=FLOWS_QUERY, name="flows",
                engine_kwargs=None, **kwargs):
    gs = ShardedGigascope(shards, seed=7, heartbeat_interval=0.5,
                          metrics=False, **(engine_kwargs or {}), **kwargs)
    gs.add_queries(query)
    sub = gs.subscribe(name)
    gs.start()
    gs.feed(packets, pump_every=128)
    gs.flush()
    return sub.poll(), gs


# ---------------------------------------------------------------------------
# The stripe layout
# ---------------------------------------------------------------------------

LENGTHS = (0, 1, STRIPE - 1, STRIPE, STRIPE + 1, 2000, 3000,
           4 * STRIPE, 4 * STRIPE + 1)


class TestStripeLayout:
    @pytest.mark.parametrize("nshards", (1, 2, 3, 4, 7))
    def test_partition_is_exact_ordered_and_balanced(self, nshards):
        for length in LENGTHS:
            positions = list(range(length))
            parts = [shard_packets(positions, nshards, shard)
                     for shard in range(nshards)]
            # Every position belongs to exactly one shard ...
            assert sorted(itertools.chain(*parts)) == positions
            for shard, part in enumerate(parts):
                # ... each shard keeps stream order ...
                assert part == sorted(part)
                # ... whole stripes, dealt round-robin ...
                assert all(p // STRIPE % nshards == shard for p in part)
                # ... and the ledger's arithmetic is a direct count.
                assert shard_size(length, nshards, shard) == len(part)
            sizes = [len(part) for part in parts]
            assert max(sizes) - min(sizes) <= STRIPE

    def test_enough_stripes_give_every_shard_work(self):
        for nshards in (2, 3, 4):
            shortest = (nshards - 1) * STRIPE + 1
            assert all(shard_size(shortest, nshards, shard) > 0
                       for shard in range(nshards))
            assert shard_size(shortest - 1, nshards, nshards - 1) == 0
        # The smoke-test size still reaches every one of four shards.
        assert [shard_size(2000, 4, shard) for shard in range(4)] == [
            512, 512, 512, 464]

    def test_sole_owner_takes_the_list_itself(self):
        packets = list(range(3 * STRIPE))
        assert shard_packets(packets, 1, 0) is packets
        one_stripe = packets[:STRIPE]
        assert shard_packets(one_stripe, 4, 0) is one_stripe
        assert shard_packets(one_stripe, 4, 1) == []
        assert shard_packets(packets, 2, 0) is not packets

    def test_one_shard_equals_single_process(self):
        packets = zipf_packets()
        rows, gs = run_sharded(packets, 1)
        assert rows == run_single(packets)
        assert gs.shard_report()["packets"] == [len(packets)]

    def test_short_input_leaves_trailing_shards_idle(self):
        packets = zipf_packets(STRIPE + 44)
        rows, gs = run_sharded(packets, 4)
        assert rows == run_single(packets)
        report = gs.shard_report()
        # The idle shards ran, delivered their end frame and were
        # neither restarted nor quarantined.
        assert report["packets"] == [STRIPE, 44, 0, 0]
        assert report["restarts"] == [0, 0, 0, 0]
        assert not report["quarantined"]
        assert any(name.startswith("shard3/") for name in gs.stats())

    def test_one_packet_input_runs(self):
        packets = zipf_packets(1)
        rows, gs = run_sharded(packets, 2)
        assert rows == run_single(packets)
        assert gs.shard_report()["packets"] == [1, 0]

    @pytest.mark.parametrize("empty", ([], iter(())), ids=("list", "iter"))
    def test_empty_feed_forks_nothing(self, empty, monkeypatch):
        def no_fork(*args, **kwargs):
            raise AssertionError("an empty feed must not fork a worker")

        monkeypatch.setattr(ShardedGigascope, "_spawn", no_fork)
        gs = ShardedGigascope(2, metrics=False)
        gs.add_query(FLOWS_QUERY)
        sub = gs.subscribe("flows")
        gs.start()
        gs.feed(empty)
        gs.flush()
        assert gs.generations == 0
        assert sub.poll() == []


def reference_cuts(packets, start, stop, interval, next_barrier):
    """The per-packet walk ``run_worker`` made before ``barrier_cuts``."""
    cuts = []
    for index in range(start, stop):
        stamp = packets[index].timestamp
        if next_barrier is None:
            next_barrier = (math.floor(stamp / interval) + 1) * interval
        elif stamp >= next_barrier:
            while stamp >= next_barrier:
                next_barrier += interval
            cuts.append((index, next_barrier))
    return cuts


class TestBarrierCuts:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.floats(-0.3, 0.9), max_size=3 * STRIPE),
           origin=st.floats(0.0, 1e6),
           interval=st.sampled_from((0.2, 0.25, 1.0, 3.0)),
           pinned=st.booleans(), data=st.data())
    def test_chunkwise_cuts_land_where_the_walk_put_them(
            self, steps, origin, interval, pinned, data):
        # Mostly-forward virtual time with out-of-order packets mixed
        # in, long enough to span several chunks.
        stamps = list(itertools.accumulate(steps, initial=origin))
        packets = [SimpleNamespace(timestamp=stamp) for stamp in stamps]
        start = data.draw(st.integers(0, len(packets)))
        stop = data.draw(st.integers(start, len(packets)))
        # A resumed worker arrives with its barrier already pinned.
        barrier = ((math.floor(origin / interval) + 1) * interval
                   if pinned else None)
        assert (list(barrier_cuts(packets, start, stop, interval, barrier))
                == reference_cuts(packets, start, stop, interval, barrier))

    def test_a_gap_advances_past_every_skipped_barrier(self):
        packets = [SimpleNamespace(timestamp=stamp)
                   for stamp in (0.1, 0.2, 5.3, 5.4, 6.0)]
        assert list(barrier_cuts(packets, 0, 5, 1.0, None)) == [
            (2, 6.0), (4, 7.0)]


# ---------------------------------------------------------------------------
# The runtime: merge identity
# ---------------------------------------------------------------------------

ZIPF_POOL = zipf_packets(1500)
TWO_LINK_POOL = two_link_packets(1500)


class TestShardedRuntime:
    def test_sharded_output_is_byte_identical(self):
        packets = zipf_packets()
        base = run_single(packets)
        assert base
        for shards in (1, 2, 3):
            rows, gs = run_sharded(packets, shards)
            assert rows == base
            report = gs.shard_report()
            assert sum(report["packets"]) == len(packets)

    @settings(max_examples=30, deadline=None)
    @given(shards=st.integers(1, 4), length=st.integers(0, 1500),
           shape=st.sampled_from(("flows", "appmon")))
    def test_any_length_any_shard_count_is_byte_identical(
            self, shards, length, shape):
        if shape == "flows":
            packets, query = ZIPF_POOL[:length], FLOWS_QUERY
        else:
            packets, query = TWO_LINK_POOL[:length], APPMON_QUERIES
        rows, gs = run_sharded(packets, shards, query=query, name=shape,
                               barrier_interval=0.25)
        assert rows == run_single(packets, query=query, name=shape)
        assert gs.shard_report()["packets"] == [
            shard_size(length, shards, shard) for shard in range(shards)]

    def test_engine_arguments_reach_the_workers(self):
        """``Gigascope``'s own arguments are forwarded, registries
        included: workers are forked, so a user-registered function
        runs in each of them without being pickled."""
        functions = builtin_functions()
        functions.register(FunctionSpec(
            "port_class", lambda port: port % 3, (UINT,), UINT))
        query = """
            DEFINE query_name flows;
            Select tb, cls, count(*), sum(len) From tcp
            Group by time/5 as tb, port_class(srcPort) as cls
        """
        packets = zipf_packets()
        base = run_single(packets, query=query, functions=functions)
        assert len({row[1] for row in base}) == 3
        rows, _ = run_sharded(packets, 2, query=query,
                              engine_kwargs=dict(functions=functions))
        assert rows == base
        ShardedGigascope(2, metrics=False, schema_registry=builtin_registry(),
                         merge_buffer_capacity=8, on_demand_heartbeats=False)
        with pytest.raises(TypeError, match="no_such_argument"):
            ShardedGigascope(2, no_such_argument=1)

    def test_selection_concat_matches_single_process_multiset(self):
        query = """
            DEFINE query_name picks;
            Select time, srcIP, srcPort From tcp Where destPort = 80
        """
        packets = zipf_packets(1500)
        base = run_single(packets, query=query, name="picks")
        rows, _ = run_sharded(packets, 2, query=query, name="picks")
        # Concatenation is shard-ordered, not globally ordered: the
        # same rows, shard 0's stripes in stream order and then shard
        # 1's.
        assert sorted(rows) == sorted(base)
        assert rows == [row for shard in (0, 1) for row in run_single(
            shard_packets(packets, 2, shard), query=query, name="picks")]

    def test_multiple_generations_accumulate(self):
        packets = zipf_packets()
        half = len(packets) // 2
        base = run_single(packets)
        gs = ShardedGigascope(2, seed=7, heartbeat_interval=0.5,
                              metrics=False)
        gs.add_query(FLOWS_QUERY)
        sub = gs.subscribe("flows")
        gs.start()
        gs.feed(packets[:half], pump_every=128)
        gs.feed(packets[half:], pump_every=128)
        gs.flush()
        assert sub.poll() == base
        assert gs.generations == 2

    def test_crash_restart_resumes_from_snapshot(self, monkeypatch):
        packets = zipf_packets()
        base = run_single(packets)
        # What the parent had folded when the worker died: the full
        # epoch plus at least one delta, so the respawn is from a fold
        # and not from a single frame.
        folded_at_kill = []
        recover = ShardedGigascope._recover

        def spy(self, ctx, state, spec, packets):
            folded_at_kill.append(state.log.seq)
            return recover(self, ctx, state, spec, packets)

        monkeypatch.setattr(ShardedGigascope, "_recover", spy)
        rows, gs = run_sharded(packets, 2, barrier_interval=0.2,
                               crash="1:700")
        assert rows == base
        report = gs.shard_report()
        assert report["restarts"] == [0, 1]
        assert len(folded_at_kill) == 1 and folded_at_kill[0] >= 1
        assert gs.shard_delta_frames[1] > 0
        assert report["snapshots"][1] == report["delta_frames"][1] + 1
        assert sum(report["dropped_packets"]) == 0
        assert not report["quarantined"]

    def test_crash_before_first_barrier_restarts_from_scratch(self):
        packets = zipf_packets()
        base = run_single(packets)
        rows, gs = run_sharded(packets, 2, crash="0:3")
        assert rows == base
        assert gs.shard_report()["restarts"] == [1, 0]

    def test_quarantine_leaves_siblings_untouched(self):
        packets = zipf_packets()
        rows, gs = run_sharded(packets, 2, max_restarts=0, crash="1:700")
        report = gs.shard_report()
        assert report["quarantined"] == {
            "1": "worker exited with code 3 before its end frame"}
        # Shard 0's groups are complete and exact: identical to running
        # shard 0's partition through a single-process engine.
        assert rows == run_single(shard_packets(packets, 2, 0))
        # The lost packets are accounted, not silent: the ledger's
        # arithmetic on the layout equals a direct count.
        lost = len(shard_packets(packets, 2, 1))
        assert lost > 700
        assert report["dropped_packets"] == [0, lost]
        assert report["packets"] == [len(packets) - lost, 0]

    def test_quarantined_shard_stays_dead_across_generations(self):
        packets = zipf_packets()
        gs = ShardedGigascope(2, seed=7, heartbeat_interval=0.5,
                              metrics=False, max_restarts=0, crash="1:700")
        gs.add_query(FLOWS_QUERY)
        gs.subscribe("flows")
        gs.start()
        gs.feed(packets, pump_every=128)
        lost = len(shard_packets(packets, 2, 1))
        assert gs.shard_report()["dropped_packets"] == [0, lost]
        # The next generation is a different length, so a different
        # layout: the dead shard's share of *it* is what is added.
        gs.feed(packets[:1000], pump_every=128)
        report = gs.shard_report()
        assert report["dropped_packets"] == [
            0, lost + len(shard_packets(packets[:1000], 2, 1))]
        assert report["packets"] == [
            len(packets) - lost + shard_size(1000, 2, 0), 0]
        assert report["restarts"] == [0, 0]

    def test_worker_channel_drops_reach_the_parent_ledger(self):
        # A tiny inter-node channel capacity inside the workers forces
        # overflow drops there; the counts must surface in the parent's
        # overload report (satellite: cross-process backpressure).
        packets = zipf_packets()
        rows, gs = run_sharded(packets, 2,
                               engine_kwargs={"channel_capacity": 2})
        report = gs.overload_report()
        assert report["channel_dropped"] > 0
        assert sum(gs.shard_channel_dropped) == report["channel_dropped"]
        dropped_channels = {name: info for name, info
                            in report["channels"].items() if info["dropped"]}
        assert dropped_channels
        assert all(name.startswith("shard") for name in dropped_channels)

    def test_stats_namespaces_workers_and_merge(self):
        packets = zipf_packets(800)
        rows, gs = run_sharded(packets, 2)
        stats = gs.stats()
        assert "merge/flows" in stats
        assert any(name.startswith("shard0/") for name in stats)
        assert any(name.startswith("shard1/") for name in stats)
        assert stats["merge/flows"]["tuples_out"] == len(rows)


# ---------------------------------------------------------------------------
# Validation and configuration
# ---------------------------------------------------------------------------

class TestValidation:
    def test_shards_must_be_positive(self):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                ShardedGigascope(bad)

    @pytest.mark.parametrize("bad", ["nonsense", "1", "x:3", "1:y",
                                     "9:10", "-1:10"])
    def test_malformed_crash_spec_refused_at_construction(self, bad):
        """Not on the first feed(): a typo fails before any worker
        forks, naming the offender."""
        with pytest.raises(ValueError, match=bad):
            ShardedGigascope(2, metrics=False, crash=bad)

    def test_feed_requires_start(self):
        gs = ShardedGigascope(2, metrics=False)
        gs.add_query(FLOWS_QUERY)
        with pytest.raises(RegistryError):
            gs.feed(zipf_packets(10))

    def test_subscribe_unknown_name_raises(self):
        gs = ShardedGigascope(2, metrics=False)
        gs.add_query(FLOWS_QUERY)
        with pytest.raises(RegistryError):
            gs.subscribe("nope")

    def test_subscribing_aggregation_with_downstream_reader_refused(self):
        gs = ShardedGigascope(2, metrics=False)
        gs.add_query(FLOWS_QUERY)
        gs.add_query("""
            DEFINE query_name heavy;
            Select tb, srcIP From flows Where cnt > 10
        """)
        # Workers would flip 'flows' into partial output, feeding
        # 'heavy' superaggregates instead of finalized rows.
        with pytest.raises(RegistryError, match="'heavy' reads"):
            gs.subscribe("flows")

    def test_reader_of_an_aggregation_refused(self):
        # Each worker would threshold its *own* partition's counts,
        # and say nothing.
        gs = ShardedGigascope(2, metrics=False)
        gs.add_queries("""
            DEFINE query_name per_dst;
            Select tb, destIP, count(*) as cnt From eth0.tcp
            Group by time/5 as tb, destIP;

            DEFINE query_name busy;
            Select tb, destIP, cnt From per_dst Where cnt > 20
        """)
        with pytest.raises(RegistryError) as refusal:
            gs.subscribe("busy")
        assert "'busy'" in str(refusal.value)
        assert "aggregation 'per_dst'" in str(refusal.value)

    def test_join_refused_wherever_it_sits_in_the_plan(self):
        # A SYN and its SYN-ACK land on different stripes: each worker
        # would pair only what it holds (about half of the handshakes).
        gs = ShardedGigascope(2, metrics=False)
        gs.add_queries("""
            DEFINE query_name syn;
            Select time, timestamp, srcIP, destIP, srcPort, destPort
            From eth0.tcp Where tcpflags & 18 = 2;

            DEFINE query_name synack;
            Select time, timestamp, srcIP, destIP, srcPort, destPort
            From eth1.tcp Where tcpflags & 18 = 18;

            DEFINE query_name rtt;
            Select S.time, S.destIP, A.timestamp - S.timestamp as rtt
            From syn S, synack A
            Where A.time >= S.time and A.time <= S.time + 1
              and S.srcIP = A.destIP and S.destIP = A.srcIP
              and S.srcPort = A.destPort and S.destPort = A.srcPort;

            DEFINE query_name rtt_stats;
            Select tb, destIP, count(*), max(rtt) From rtt
            Group by time/5 as tb, destIP
        """)
        for name in ("rtt", "rtt_stats"):
            with pytest.raises(RegistryError) as refusal:
                gs.subscribe(name)
            assert repr(name) in str(refusal.value)
            assert "join 'rtt'" in str(refusal.value)
        # Its per-tuple inputs stay subscribable.
        gs.subscribe("syn")
        gs.subscribe("synack")

    def test_per_tuple_plans_and_a_terminal_aggregation_accepted(self):
        gs = ShardedGigascope(2, metrics=False)
        gs.add_queries(APPMON_QUERIES)
        # selection/projection, merge, and the terminal aggregation
        for name in ("link0", "both", "appmon"):
            gs.subscribe(name)

    def test_schema_and_explain_delegate_to_template(self):
        gs = ShardedGigascope(2, metrics=False)
        gs.add_query(FLOWS_QUERY)
        assert gs.schema_of("flows").names[0] == "tb"
        assert "flows" in gs.explain("flows")


class TestCliValidation:
    def run_cli(self, argv):
        env = dict(os.environ, PYTHONPATH=SRC_ROOT)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env=env, capture_output=True, text=True)

    BASE = ["--query", "Select destIP From tcp", "--synthetic", "1x1"]

    def test_non_positive_shards_exits_2(self):
        for bad in ("0", "-2"):
            result = self.run_cli(["--shards", bad, *self.BASE])
            assert result.returncode == 2
            assert "--shards" in result.stderr

    def test_scalar_forcing_flags_refused(self):
        for extra in (["--fault", "ring_burst:at=0.1,duration=0.1"],
                      ["--shed", "adaptive"],
                      ["--recover"],
                      ["--telemetry"],
                      ["--trace-sample", "0.5"]):
            result = self.run_cli(["--shards", "2", *extra, *self.BASE])
            assert result.returncode == 2, extra
            assert "--shards" in result.stderr

    def test_refused_plan_is_a_query_error(self):
        query = ("DEFINE query_name per_dst; Select tb, destIP, count(*) "
                 "as cnt From tcp Group by time/1 as tb, destIP; "
                 "DEFINE query_name busy; "
                 "Select tb, destIP From per_dst Where cnt > 2")
        result = self.run_cli(["--shards", "2", "--subscribe", "busy",
                               "--query", query, "--synthetic", "1x1"])
        assert result.returncode == 1
        assert "query error" in result.stderr
        assert "aggregation 'per_dst'" in result.stderr
        assert "Traceback" not in result.stderr

    def test_sharded_cli_run_matches_single(self):
        query = ("DEFINE query_name c; Select tb, destPort, count(*) "
                 "From tcp Group by time/1 as tb, destPort")
        argv = ["--query", query, "--synthetic", "5x1"]
        single = self.run_cli(argv)
        sharded = self.run_cli(["--shards", "2", *argv])
        assert single.returncode == 0 and sharded.returncode == 0
        assert sharded.stdout == single.stdout
        assert "# shard report" in sharded.stderr
