"""E16 -- sharded scale-out of the E2 headline workload.

The paper's headline rate (1.2 M packets/s, Section 5) came from
generated C; E2 measures what one Python process sustains on the same
query shape.  E16 measures how that number scales when the packet list
is striped by position across N forked workers whose partial
aggregates are merged by an HFTA combine in the parent
(:class:`repro.shard.ShardedGigascope`).

The sweep runs the identical E2 query set and packet trace at 1, 2 and
4 shards.  The trace is sized the way ``BENCH_RECOVERY.json``'s is:
calibrated on this box so the single-process arm takes at least a
second (a 40 000-packet run is 30 ms of engine time; its ratio reads
the fork, not the scale-out), the arms run turn and turn about, and
the medians land in ``BENCH_E16.json`` with the box and the run
length.  Recorded per shard count: packets/second, speedup over the
single-process arm, scaling efficiency (speedup / N); and the merge
overhead (the single-process arm against the 1-shard run: fork + pipe
+ combine cost with zero parallelism to hide it).

The floors (``FLOORS``) only mean anything with cores to run on: 2
shards must reach 1.15x the single-process rate where there are two
cores, 4 shards 2x where there are four (recorded, not failed, on a
smaller box).  The merge-identity contract (sharded rows
== single-process rows, byte for byte) is asserted unconditionally.
"""

import gc
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

from repro import Gigascope
from repro.shard import ShardedGigascope

from test_e2_headline_throughput import QUERIES
from test_e2_recovery_overhead import sized_packets

REPO_ROOT = Path(__file__).resolve().parent.parent

SHARD_SWEEP = (1, 2, 4)
#: interleaved rounds behind every median
ROUNDS = 5
#: the single-process arm must take at least this long
MIN_SINGLE_S = 1.0
#: shards -> speedup over single-process it must reach, gated where
#: cpu_count >= shards
FLOORS = {2: 1.15, 4: 2.0}


def run_once(shards, packets):
    """``(seconds, rows)`` for one feed+flush; ``shards=0`` is the
    single-process engine."""
    if shards:
        gs = ShardedGigascope(shards, heartbeat_interval=1.0, metrics=False)
    else:
        gs = Gigascope(heartbeat_interval=1.0, metrics=False)
    gs.add_queries(QUERIES)
    sub = gs.subscribe("appmon")
    gs.start()
    start = time.perf_counter()
    gs.feed(packets, pump_every=1024)
    gs.flush()
    elapsed = time.perf_counter() - start
    rows = sub.poll()
    if shards:
        assert gs.stats()["merge/appmon"]["tuples_out"] == len(rows)
        assert gs.shard_report()["restarts"] == [0] * shards
    return elapsed, rows


def commit():
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def test_e16_sharded_throughput():
    cores = os.cpu_count() or 1
    # Calibrated on the metrics-on engine and a box that drifts: aim
    # half again over the second the run must last.
    packets = sized_packets(headroom=1.5)
    # The trace goes to the permanent generation: no collection walks
    # it, in the parent or (copy-on-write) in any worker.
    gc.collect()
    gc.freeze()
    try:
        times = {arm: [] for arm in (0, *SHARD_SWEEP)}
        single_rows = None
        for _ in range(ROUNDS):
            for arm in times:
                elapsed, rows = run_once(arm, packets)
                times[arm].append(elapsed)
                if arm == 0:
                    single_rows = rows
                else:
                    # Byte-identity is what makes the speedup count.
                    assert rows == single_rows, f"{arm}-shard rows diverged"
    finally:
        gc.unfreeze()

    single_s = statistics.median(times[0])
    single_pps = len(packets) / single_s
    results = {}
    for shards in SHARD_SWEEP:
        run_s = statistics.median(times[shards])
        results[shards] = {
            "run_s": run_s,
            "pps": len(packets) / run_s,
            "speedup": single_s / run_s,
            "scaling_efficiency": single_s / run_s / shards,
        }
    merge_overhead = results[1]["run_s"] / single_s
    gated = {shards: cores >= shards for shards in FLOORS}

    print(f"\nE16 sharded scale-out ({cores} cores, {len(packets):,} "
          f"packets, medians of {ROUNDS} interleaved rounds): "
          f"single-process {single_pps:,.0f} pps in {single_s:.2f} s")
    for shards in SHARD_SWEEP:
        entry = results[shards]
        print(f"   {shards} shard(s): {entry['pps']:,.0f} pps "
              f"({entry['speedup']:.2f}x, "
              f"efficiency {entry['scaling_efficiency']:.2f})")
    print(f"   merge overhead (1-shard vs in-process): "
          f"{merge_overhead:.2f}x")
    for shards, floor in FLOORS.items():
        if not gated[shards]:
            print(f"   ({cores} cores < {shards}: {floor}x floor recorded, "
                  "not enforced)")

    (REPO_ROOT / "BENCH_E16.json").write_text(json.dumps({
        "experiment": "E16 sharded scale-out",
        "packets": len(packets),
        "rounds": ROUNDS,
        "statistic": "median of interleaved rounds",
        "single_process_run_s": single_s,
        "single_process_pps": single_pps,
        "shards": {str(s): results[s] for s in SHARD_SWEEP},
        "merge_overhead": merge_overhead,
        "floors": FLOORS,
        "floors_gated": gated,
        "box": {"cpu_count": cores, "machine": platform.machine(),
                "python": platform.python_version(), "commit": commit()},
    }, indent=2) + "\n")

    assert single_s >= MIN_SINGLE_S, (
        f"the single-process arm took {single_s:.2f} s: too short to "
        "read a speedup off")
    for shards, floor in FLOORS.items():
        if gated[shards]:
            assert results[shards]["speedup"] >= floor, (
                f"{shards}-shard run only {results[shards]['speedup']:.2f}x "
                f"of single-process ({results[shards]['pps']:,.0f} vs "
                f"{single_pps:,.0f} pps; floor {floor}x)")
