"""Recovery-plane cost on the E2 headline workload.

Two numbers gate the checkpoint/restore layer (recorded in
BENCH_RECOVERY.json next to BENCH_E2.json):

* **Checkpoint overhead**: the E2 workload with the supervisor cutting
  checkpoints at the default interval must stay within 5% of the
  unsupervised run.  Snapshots are small (group tables and window
  buffers of reduced data) and cut only at quiescent pump boundaries,
  so the cost is a handful of encodes per stream-second.
* **Recovery under load**: after a mid-stream crash and restart, the
  post-restart feed throughput must be within 10% of pre-crash -- the
  restore+replay repairs state without leaving the engine degraded
  (no lingering suspension, no fallback path left switched on).
"""

import json
import time
from pathlib import Path

from repro.core.stream_manager import DEFAULT_BATCH_SIZE
from repro.faults import OperatorFault

from test_e2_headline_throughput import build_engine, make_packets

REPO_ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 8


def _feed_time(recover, packets, batch_size=DEFAULT_BATCH_SIZE):
    gs = build_engine(batch_size=batch_size)
    if recover:
        # The engine is already started: enable_recovery cuts the
        # baseline checkpoint itself.
        gs.enable_recovery(checkpoint_interval=1.0)
    start = time.perf_counter()
    gs.feed(packets, pump_every=1024)
    elapsed = time.perf_counter() - start
    return elapsed, gs


def test_e2_recovery_checkpoint_overhead():
    packets = make_packets()
    # Interleave the two configurations so background-load drift hits
    # both equally, and compare minima (the standard throughput read).
    plain = []
    supervised_times = []
    checkpoints = 0
    for _ in range(ROUNDS):
        plain.append(_feed_time(False, packets)[0])
        elapsed, gs = _feed_time(True, packets)
        supervised_times.append(elapsed)
        checkpoints = gs.recovery_report()["checkpoints_taken"]
    overhead = min(supervised_times) / min(plain) - 1.0
    print(f"\nE2 checkpoint overhead: {overhead * 100:+.2f}% "
          f"({checkpoints} checkpoints at the default 1.0 s interval; "
          f"{len(packets) / min(supervised_times):,.0f} pps supervised vs "
          f"{len(packets) / min(plain):,.0f} pps plain)")

    (REPO_ROOT / "BENCH_RECOVERY.json").write_text(json.dumps({
        "experiment": "recovery plane overhead on E2",
        "packets": len(packets),
        "rounds": ROUNDS,
        "checkpoint_interval": 1.0,
        "checkpoints_taken": checkpoints,
        "pps_plain": len(packets) / min(plain),
        "pps_supervised": len(packets) / min(supervised_times),
        "checkpoint_overhead_pct": overhead * 100,
    }, indent=2))

    assert checkpoints >= 2  # the supervisor actually ran
    assert overhead < 0.05, (
        f"checkpointing costs {overhead * 100:.1f}% of E2 throughput "
        f"(budget: 5%)")


def test_e2_recovery_throughput_after_restart():
    # The armed fault cuts one block at the failing tuple; everything
    # before and after it runs at the default block size.
    packets = make_packets()
    chunk_size = 5_000
    chunks = [packets[i:i + chunk_size]
              for i in range(0, len(packets), chunk_size)]

    gs = build_engine()
    supervisor = gs.enable_recovery(checkpoint_interval=1.0)
    gs.inject_faults([OperatorFault("both", at_tuple=15_000, times=1)])

    times = []
    crash_chunk = None
    for index, chunk in enumerate(chunks):
        start = time.perf_counter()
        gs.feed(chunk, pump_every=1024)
        times.append(time.perf_counter() - start)
        if crash_chunk is None and supervisor.restarts_total:
            crash_chunk = index
    gs.flush()

    assert supervisor.restarts_total == 1
    assert gs.rts.quarantined == {}
    assert crash_chunk is not None
    pre = [t for t in times[:crash_chunk]]
    post = [t for t in times[crash_chunk + 1:]]
    assert pre and post, f"crash chunk {crash_chunk} leaves no clean window"
    pre_pps = chunk_size / min(pre)
    post_pps = chunk_size / min(post)
    ratio = post_pps / pre_pps
    print(f"\nE2 recovery under load: {pre_pps:,.0f} pps pre-crash, "
          f"{post_pps:,.0f} pps post-restart ({ratio:.3f}x, "
          f"crash in chunk {crash_chunk}, "
          f"{supervisor.replayed_items} items replayed)")

    data = json.loads((REPO_ROOT / "BENCH_RECOVERY.json").read_text())
    data.update({
        "pps_pre_crash": pre_pps,
        "pps_post_restart": post_pps,
        "post_restart_ratio": ratio,
        "replayed_items": supervisor.replayed_items,
    })
    (REPO_ROOT / "BENCH_RECOVERY.json").write_text(json.dumps(data, indent=2))

    assert ratio > 0.9, (
        f"post-restart throughput {post_pps:,.0f} pps is more than 10% "
        f"below pre-crash {pre_pps:,.0f} pps")
