"""The sharded multi-process runtime (repro.shard, DESIGN section 15).

Three contracts under test:

* the flow partitioner: process-stable (PYTHONHASHSEED-independent),
  balanced (chi-square over realistic packet pools), and the generated
  fused kernel agrees with the reference ``flow_hash`` on every packet
  shape, including the ugly ones;
* the runtime: sharded output is byte-identical to single-process --
  clean, across a worker crash/restart (checkpoint resume and
  restart-from-scratch), and with sibling shards unaffected by a
  quarantined one;
* the accounting: worker-side channel overflow and quarantine packet
  loss survive the process boundary into the parent's ledgers.
"""

import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import Gigascope
from repro.core.stream_manager import RegistryError
from repro.determinism import derive_seed
from repro.net.build import build_tcp_frame, build_udp_frame, capture
from repro.shard import ShardedGigascope, flow_hash, shard_of
from repro.shard.partition import assign_shards, partition_filter
from repro.workloads.flows import ZipfFlowWorkload
from repro.workloads.generators import (background_pool, http_port80_pool,
                                        packet_stream)
from tests.conftest import tcp_packet, udp_packet

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")

FLOWS_QUERY = """
    DEFINE query_name flows;
    Select tb, srcIP, srcPort, count(*), sum(len)
    From tcp
    Group by time/5 as tb, srcIP, srcPort
"""


def zipf_packets(count=3000, seed=7):
    workload = ZipfFlowWorkload(num_flows=300, alpha=1.1,
                                seed=derive_seed(seed, "workload.zipf"))
    return list(workload.packets(count, pps=2000.0))


def run_single(packets, query=FLOWS_QUERY, name="flows", **kwargs):
    gs = Gigascope(seed=7, heartbeat_interval=0.5, metrics=False, **kwargs)
    gs.add_query(query)
    sub = gs.subscribe(name)
    gs.start()
    gs.feed(packets, pump_every=128)
    gs.flush()
    return sub.poll()


def run_sharded(packets, shards, query=FLOWS_QUERY, name="flows",
                engine_kwargs=None, **kwargs):
    gs = ShardedGigascope(shards, seed=7, heartbeat_interval=0.5,
                          metrics=False, **(engine_kwargs or {}), **kwargs)
    gs.add_query(query)
    sub = gs.subscribe(name)
    gs.start()
    gs.feed(packets, pump_every=128)
    gs.flush()
    return sub.poll(), gs


# ---------------------------------------------------------------------------
# The flow partitioner
# ---------------------------------------------------------------------------

class TestFlowHash:
    def test_fast_path_uses_the_five_tuple(self):
        # Same 5-tuple, different payload/seq -> same hash (flow
        # affinity); different port -> different shard assignment
        # possible (the key actually covers the tuple).
        a = build_tcp_frame("10.0.0.1", "192.168.1.1", 1234, 80,
                            payload=b"x", seq=1)
        b = build_tcp_frame("10.0.0.1", "192.168.1.1", 1234, 80,
                            payload=b"yyyy", seq=999)
        assert flow_hash(a) == flow_hash(b)
        c = build_tcp_frame("10.0.0.1", "192.168.1.1", 1235, 80)
        assert flow_hash(a) != flow_hash(c)

    def test_tcp_and_udp_with_same_ports_differ(self):
        t = build_tcp_frame("10.0.0.1", "192.168.1.1", 53, 5353)
        u = build_udp_frame("10.0.0.1", "192.168.1.1", 53, 5353)
        assert flow_hash(t) != flow_hash(u)

    def test_fragment_falls_back_to_addresses(self):
        frame = bytearray(build_tcp_frame("10.0.0.1", "192.168.1.1",
                                          1234, 80))
        # Set a nonzero fragment offset: ports are no longer trustworthy.
        frame[20] = 0x00
        frame[21] = 0x10
        whole = build_tcp_frame("10.0.0.1", "192.168.1.1", 9999, 443)
        fragged = bytearray(whole)
        fragged[20] = 0x00
        fragged[21] = 0x10
        # Different ports, same addresses+protocol: fragments collapse
        # onto the address key, so both land on one shard.
        assert flow_hash(bytes(frame)) == flow_hash(bytes(fragged))

    def test_non_ip_and_short_frames_hash_whole_frame(self):
        arp = b"\x02" * 12 + b"\x08\x06" + b"\x00" * 28
        assert isinstance(flow_hash(arp), int)
        assert flow_hash(arp) != flow_hash(arp[:-1])
        assert isinstance(flow_hash(b""), int)
        assert isinstance(flow_hash(b"\x08"), int)

    def test_shard_of_is_mod_nshards(self):
        frame = build_tcp_frame("10.0.0.1", "192.168.1.1", 1234, 80)
        for nshards in (1, 2, 4, 7):
            assert shard_of(frame, nshards) == flow_hash(frame) % nshards

    def test_cross_process_stability(self):
        # The partitioner must not move with PYTHONHASHSEED: same
        # packets, same assignments, in any process.
        script = (
            "from repro.shard import flow_hash\n"
            "from repro.net.build import build_tcp_frame\n"
            "frames = [build_tcp_frame('10.0.0.%d' % i, '192.168.1.1',"
            " 1000 + i, 80) for i in range(32)]\n"
            "print([flow_hash(f) % 4 for f in frames])\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=SRC_ROOT)
            result = subprocess.run([sys.executable, "-c", script],
                                    env=env, capture_output=True,
                                    text=True, check=True)
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1

    def test_generated_kernel_agrees_with_reference(self):
        # The fused worker kernel and the reference implementation must
        # partition identically -- fast path, options, fragments,
        # non-IP, truncated, everything.
        packets = zipf_packets(800)
        packets.append(udp_packet(ts=0.1))
        packets.append(tcp_packet(ts=0.2, payload=b"z" * 64))
        # IPv4 with options (IHL=6): 4 extra header bytes after byte 33.
        with_options = bytearray(
            build_tcp_frame("10.0.0.9", "192.168.1.9", 4321, 80))
        with_options[14] = 0x46
        packets.append(capture(bytes(with_options), 0.3))
        # A fragment.
        frag = bytearray(build_tcp_frame("10.0.0.8", "192.168.1.8",
                                         1111, 80))
        frag[21] = 0x08
        packets.append(capture(bytes(frag), 0.4))
        # Non-IP and short frames.
        packets.append(capture(b"\x02" * 12 + b"\x08\x06" + b"\x00" * 28,
                               0.5))
        packets.append(capture(b"\x01\x02\x03", 0.6))
        nshards = 4
        reference = assign_shards(packets, nshards)
        for shard in range(nshards):
            kept = []
            partition_filter(nshards, shard)(packets, kept.append)
            expected = [p for p, s in zip(packets, reference) if s == shard]
            assert kept == expected
        # Partitions are disjoint and exhaustive by construction of the
        # comparison above; spot-check total coverage anyway.
        assert sum(reference.count(s) for s in range(nshards)) == len(packets)

    def test_balance_chi_square(self):
        # Hash balance over realistic traffic: chi-square against the
        # uniform hypothesis across 4 shards, df=3; 16.27 is the 99.9th
        # percentile, so an unbalanced partitioner fails loudly.
        packets = list(packet_stream(http_port80_pool(seed=1),
                                     rate_mbps=20.0, duration_s=3.0,
                                     seed=5))
        packets += list(packet_stream(background_pool(seed=2),
                                      rate_mbps=20.0, duration_s=3.0,
                                      seed=6))
        nshards = 4
        assignments = assign_shards(packets, nshards)
        assert len(packets) > 2000
        # Chi-square applies to the independent trials -- the distinct
        # flows, not the packets (pools repeat a finite flow set, so
        # per-packet counts are not i.i.d. and would inflate chi2).
        flow_shards = {flow_hash(p.data): s
                       for p, s in zip(packets, assignments)}
        flow_counts = [0] * nshards
        for shard in flow_shards.values():
            flow_counts[shard] += 1
        expected = len(flow_shards) / nshards
        chi2 = sum((c - expected) ** 2 / expected for c in flow_counts)
        assert len(flow_shards) > 200
        assert chi2 < 16.27, (
            f"unbalanced flows: {flow_counts} (chi2={chi2:.1f})")
        # Packet-level load stays within 25% of even despite skewed
        # per-flow packet counts.
        packet_counts = [assignments.count(s) for s in range(nshards)]
        per_shard = len(packets) / nshards
        assert max(packet_counts) < 1.25 * per_shard, packet_counts
        assert min(packet_counts) > 0.75 * per_shard, packet_counts


# ---------------------------------------------------------------------------
# The runtime: merge identity
# ---------------------------------------------------------------------------

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

    def test_selection_concat_matches_single_process_multiset(self):
        query = """
            DEFINE query_name picks;
            Select time, srcIP, srcPort From tcp Where destPort = 80
        """
        packets = zipf_packets(1500)
        base = run_single(packets, query=query, name="picks")
        rows, _ = run_sharded(packets, 2, query=query, name="picks")
        # Concatenation is shard-ordered, not globally ordered: same
        # rows, possibly different order.
        assert sorted(rows) == sorted(base)
        assert len(rows) == len(base)

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
        assignments = assign_shards(packets, 2)
        rows, gs = run_sharded(packets, 2, max_restarts=0, crash="1:700")
        report = gs.shard_report()
        assert report["quarantined"] == {
            "1": "worker exited with code 3 before its end frame"}
        # Shard 0's groups are complete and exact: identical to running
        # shard 0's partition through a single-process engine.
        shard0_packets = [p for p, s in zip(packets, assignments) if s == 0]
        assert rows == run_single(shard0_packets)
        # The lost packets are accounted, not silent.
        assert report["dropped_packets"][1] == assignments.count(1)
        assert report["packets"] == [assignments.count(0), 0]

    def test_quarantined_shard_stays_dead_across_generations(self):
        packets = zipf_packets()
        gs = ShardedGigascope(2, seed=7, heartbeat_interval=0.5,
                              metrics=False, max_restarts=0, crash="1:700")
        gs.add_query(FLOWS_QUERY)
        gs.subscribe("flows")
        gs.start()
        gs.feed(packets, pump_every=128)
        dropped_first = gs.shard_report()["dropped_packets"][1]
        gs.feed(packets, pump_every=128)
        report = gs.shard_report()
        assert report["dropped_packets"][1] == 2 * dropped_first
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
        with pytest.raises(RegistryError):
            gs.subscribe("flows")
        gs.subscribe("heavy")  # the downstream query itself is fine

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

    def test_sharded_cli_run_matches_single(self):
        query = ("DEFINE query_name c; Select tb, destPort, count(*) "
                 "From tcp Group by time/1 as tb, destPort")
        argv = ["--query", query, "--synthetic", "5x1"]
        single = self.run_cli(argv)
        sharded = self.run_cli(["--shards", "2", *argv])
        assert single.returncode == 0 and sharded.returncode == 0
        assert sharded.stdout == single.stdout
        assert "# shard report" in sharded.stderr
