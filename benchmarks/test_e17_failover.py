"""E17 -- replication cadence vs RPO/RTO, and what steady state costs.

The warm-standby pair (:class:`repro.replication.ReplicatedGigascope`,
DESIGN section 16) trades a per-cadence frame-shipping cost for a
bounded recovery point: crash anywhere and the standby replays only
the packets since the last applied frame.  E17 sweeps the cadence and
records both sides of that trade on the flow-aggregation workload:

* **shipping overhead** -- what replication costs the serving path:
  a primary cutting and encoding frames into a log (no standby
  attached) against a plain engine on the identical trace.  This is
  the production number -- the standby applies frames on its own
  hardware -- and carries the <= 5% acceptance bar at the default
  cadence.  Rounds interleave the plain and replicated arms and take
  per-arm minima so machine drift cannot masquerade as overhead.
* **pair overhead** -- the same ratio for the full in-process pair
  (shipping *plus* the standby's decode/restore), recorded for
  context: it is what the test harness and the ``--standby`` CLI pay.
* **RPO** -- packets and virtual seconds rolled back when the primary
  is killed mid delta-interval (``packet:K``), straight from the
  replication report: tighter cadence, smaller window.
* **RTO** -- the promotion wall time (final drain + skip-gate arming
  + cursor rewind), excluding the replay itself, which is work the
  primary would have done anyway.

Every crash arm also re-asserts the contract that makes the numbers
meaningful: the promoted standby's rows are byte-identical to an
uninterrupted run.  Results land in ``BENCH_E17.json``;
``GS_E17_SMOKE=1`` shrinks the trace and rounds for the CI gate.
"""

import json
import os
import time
from pathlib import Path

from repro import Gigascope
from repro.determinism import derive_seed
from repro.replication import ReplicatedGigascope
from repro.replication.shipper import ReplicationShipper
from repro.workloads.flows import ZipfFlowWorkload

REPO_ROOT = Path(__file__).resolve().parent.parent

SMOKE = os.environ.get("GS_E17_SMOKE") == "1"
PACKET_COUNT = 16_000 if SMOKE else 40_000
ROUNDS = 3 if SMOKE else 5
CADENCES = (0.25, 0.5, 1.0) if SMOKE else (0.25, 0.5, 1.0, 2.0)
DEFAULT_CADENCE = 1.0
OVERHEAD_CEILING = 0.05

QUERY = """
    DEFINE query_name flows;
    Select tb, srcIP, count(*), sum(len)
    From tcp
    Group by time/5 as tb, srcIP
"""


def make_packets():
    workload = ZipfFlowWorkload(num_flows=400, alpha=1.1,
                                seed=derive_seed(7, "workload.zipf"))
    return list(workload.packets(PACKET_COUNT, pps=10_000.0))


def time_plain(packets):
    gs = Gigascope(seed=7, heartbeat_interval=1.0, metrics=False)
    gs.add_query(QUERY)
    sub = gs.subscribe("flows")
    gs.start()
    start = time.perf_counter()
    gs.feed(packets, pump_every=1024)
    gs.flush()
    elapsed = time.perf_counter() - start
    return elapsed, sub.poll()


def time_shipping(packets, cadence):
    """A primary cutting frames into a log, no standby attached."""
    gs = Gigascope(seed=7, heartbeat_interval=1.0, metrics=False)
    gs.add_query(QUERY)
    gs.subscribe("flows")
    log = []
    ReplicationShipper(gs.rts, cadence, log.append)
    gs.start()
    start = time.perf_counter()
    gs.feed(packets, pump_every=1024)
    gs.flush()
    return time.perf_counter() - start


def time_pair(packets, cadence):
    gs = ReplicatedGigascope(cadence=cadence, seed=7,
                             heartbeat_interval=1.0, metrics=False)
    gs.add_query(QUERY)
    sub = gs.subscribe("flows")
    gs.start()
    start = time.perf_counter()
    gs.feed(packets, pump_every=1024)
    gs.flush()
    return time.perf_counter() - start, sub.poll(), gs.replication_report()


def run_crash(packets, cadence, crash):
    gs = ReplicatedGigascope(cadence=cadence, crash=crash, seed=7,
                             heartbeat_interval=1.0, metrics=False)
    gs.add_query(QUERY)
    sub = gs.subscribe("flows")
    gs.start()
    gs.feed(packets, pump_every=1024)
    gs.flush()
    return sub.poll(), gs.replication_report()


def test_e17_failover():
    packets = make_packets()
    # Off the pump grid, mid delta-interval: the worst-case cut point.
    crash = f"packet:{int(len(packets) * 0.6) + 13}"
    span = packets[-1].timestamp - packets[0].timestamp

    # Interleaved timing rounds: every arm sees the same drift.
    plain_times, ship_times, pair_times = [], {c: [] for c in CADENCES}, \
        {c: [] for c in CADENCES}
    plain_rows, steady = None, {}
    for _ in range(ROUNDS):
        elapsed, plain_rows = time_plain(packets)
        plain_times.append(elapsed)
        for cadence in CADENCES:
            ship_times[cadence].append(time_shipping(packets, cadence))
            elapsed, rows, report = time_pair(packets, cadence)
            pair_times[cadence].append(elapsed)
            assert rows == plain_rows, \
                f"cadence {cadence}: steady-state replication changed output"
            assert not report["promoted"]
            steady[cadence] = report
    plain_s = min(plain_times)

    results = {}
    for cadence in CADENCES:
        crash_rows, failed = run_crash(packets, cadence, crash)
        assert crash_rows == plain_rows, \
            f"cadence {cadence}: promoted standby diverged"
        assert failed["promoted"] and failed["apply_errors"] == 0
        report = steady[cadence]
        results[cadence] = {
            "shipping_overhead": min(ship_times[cadence]) / plain_s - 1.0,
            "pair_overhead": min(pair_times[cadence]) / plain_s - 1.0,
            "frames_full": report["frames_full"],
            "frames_delta": report["frames_delta"],
            "bytes_total": report["bytes_total"],
            "bytes_per_virtual_s": report["bytes_total"] / span,
            "rpo_packets": failed["rpo_packets"],
            "rpo_virtual_s": failed["rpo_virtual_s"],
            "rto_wall_s": failed["promote_wall_s"],
            "replayed_packets": failed["replayed_packets"],
            "suppressed_rows": failed["suppressed_rows"],
        }

    print(f"\nE17 failover ({'smoke' if SMOKE else 'full'} trace, "
          f"{len(packets)} packets over {span:.1f}s virtual, "
          f"crash {crash}): plain {len(packets) / plain_s:,.0f} pps")
    for cadence in CADENCES:
        entry = results[cadence]
        print(f"   cadence {cadence:>4}s: "
              f"shipping {entry['shipping_overhead']:+.1%} / "
              f"pair {entry['pair_overhead']:+.1%} "
              f"({entry['frames_delta']} deltas, "
              f"{entry['bytes_total']:,} B), "
              f"RPO {entry['rpo_packets']} pkts / "
              f"{entry['rpo_virtual_s']:.3f}s, "
              f"RTO {entry['rto_wall_s'] * 1e3:.2f}ms")

    (REPO_ROOT / "BENCH_E17.json").write_text(json.dumps({
        "experiment": "E17 replication cadence vs RPO/RTO",
        "smoke": SMOKE,
        "packets": len(packets),
        "virtual_span_s": span,
        "rounds": ROUNDS,
        "crash": crash,
        "plain_pps": len(packets) / plain_s,
        "default_cadence": DEFAULT_CADENCE,
        "overhead_ceiling": OVERHEAD_CEILING,
        "cadences": {str(c): results[c] for c in CADENCES},
    }, indent=2))

    # The trade must actually trade: a tighter cadence cannot widen
    # the recovery point.
    loosest = results[max(CADENCES)]["rpo_packets"]
    for cadence in CADENCES:
        assert results[cadence]["rpo_packets"] <= loosest, (
            f"cadence {cadence} rolled back more packets "
            f"({results[cadence]['rpo_packets']}) than cadence "
            f"{max(CADENCES)} ({loosest})")

    overhead = results[DEFAULT_CADENCE]["shipping_overhead"]
    assert overhead <= OVERHEAD_CEILING, (
        f"frame shipping at the default cadence costs the primary "
        f"{overhead:.1%} > {OVERHEAD_CEILING:.0%}")
