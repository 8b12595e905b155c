"""E11 (new) -- overload control: adaptive shedding vs. raw overflow.

Section 4 frames sampling as the pressure valve when "a sufficiently
complex query workload" outruns the host; Section 5 insists the
approximation be principled.  E10 covered the analyst-controlled
``DEFINE sample p`` knob; this experiment covers the *runtime's* side
of the same trade: an overload controller that watches channel
backpressure and sheds packets in front of the LFTAs, scaling additive
aggregates by 1/rate so COUNT/SUM stay statistically correct.

Setup: a burst of packets through (a) a split query whose bounded
LFTA->HFTA channel is the pressure point and (b) a per-second
COUNT/SUM rollup used to measure estimate accuracy.  Three policies:

  none       -- controller observes but never sheds; the bounded
                channel silently drops tuples (the failure mode).
  static:p   -- fixed-rate gate, the DEFINE-sample analogue.
  adaptive   -- AIMD: halve the keep-rate under pressure, creep back
                up (+0.05) after sustained relief.

Shape: "none" reports large raw channel drops; adaptive keeps the
channel near its capacity watermark, drops (far) less, reports a
nonzero shed fraction, and its 1/rate-corrected COUNT/SUM land within
10% of ground truth.

Cost: shedding is only a pressure valve if a shed packet is cheaper
than a kept one.  The shed gate draws inside the LFTA's generated loop,
ahead of its guard, so a shedding LFTA stays in the run-time system's
block kernel and a packet it sheds costs a draw: on the committed
benchmark's ``e2_merge`` (Section 5's two-link plan) the CPU per packet
falls with the keep-rate.
"""

import gc
import statistics
import time

import pytest

from repro import Gigascope
from tests.conftest import tcp_packet

QUERIES = """
    DEFINE query_name heavy;
    Select time, len From tcp Where str_match_regex(data, '.*');

    DEFINE query_name totals;
    Select tb, count(*), sum(len) From tcp Group by time/1 as tb
"""
N_PACKETS = 8000
CAPACITY = 64


@pytest.fixture(scope="module")
def packets():
    return [tcp_packet(ts=i * 0.001, payload=b"x" * 100)
            for i in range(N_PACKETS)]


def run(policy, packets):
    gs = Gigascope(channel_capacity=CAPACITY)
    gs.add_queries(QUERIES)
    gs.enable_shedding(policy)
    sub = gs.subscribe("totals")
    gs.subscribe("heavy")
    gs.start()
    gs.feed(packets)
    gs.flush()
    rows = sub.poll()
    count = sum(row[1] for row in rows)
    total = sum(row[2] for row in rows)
    return count, total, gs.overload_report()


def test_e11_overload_shedding(packets):
    # Ground truth: the rollup's own channel never overflows (one group
    # per second), so the unshedded "none" run reports exact totals.
    true_count, true_sum, _ = run("none", packets)
    assert true_count == len(packets)

    print(f"\nE11 overload control over {true_count} packets, "
          f"channel capacity {CAPACITY}")
    print(f"{'policy':>12}{'shed frac':>11}{'chan drops':>12}"
          f"{'max depth':>11}{'count err':>11}{'sum err':>10}")
    results = {}
    for policy in ("none", "static:0.25", "adaptive"):
        count, total, report = run(policy, packets)
        depth = max(c["max_depth"] for c in report["channels"].values()
                    if c["capacity"] is not None)
        count_err = abs(count - true_count) / true_count
        sum_err = abs(total - true_sum) / true_sum
        results[policy] = (report, depth, count_err, sum_err)
        print(f"{policy:>12}{report['shed_fraction']:>11.1%}"
              f"{report['channel_dropped']:>12}{depth:>11}"
              f"{count_err:>10.2%}{sum_err:>9.2%}")

    none_report, _, none_count_err, _ = results["none"]
    adaptive_report, adaptive_depth, *_ = results["adaptive"]

    # Without shedding the bounded channel overflows and the loss is
    # only visible as raw drop counters; the rollup itself stays exact
    # (its one-group-per-second channel never fills).
    assert none_report["shed_fraction"] == 0.0
    assert none_report["channel_dropped"] > 0
    assert none_count_err == 0.0

    # Adaptive shedding engages, relieves the channel, and drops less.
    assert adaptive_report["shed_fraction"] > 0.1
    assert adaptive_report["min_shed_rate"] < 1.0
    assert adaptive_report["channel_dropped"] < none_report["channel_dropped"]
    assert adaptive_depth <= CAPACITY + 8  # + in-flight control tokens

    # 1/rate correction holds COUNT and SUM within 10% of ground truth
    # for both the static gate and the adaptive controller.
    for policy in ("static:0.25", "adaptive"):
        _, _, count_err, sum_err = results[policy]
        assert count_err < 0.10
        assert sum_err < 0.10


def test_e11_static_gate_matches_configured_rate(packets):
    """The static policy is the runtime twin of ``DEFINE sample p``:
    the realized shed fraction tracks 1-p within binomial noise."""
    _, _, report = run("static:0.25", packets)
    assert report["shed_fraction"] == pytest.approx(0.75, abs=0.03)
    assert report["shed_rate"] == 0.25


#: keep-rates of the cost arms; the first is the unshed reference
COST_RATES = (1.0, 0.9, 0.5, 0.25)
COST_ROUNDS = 5
#: CPU seconds each arm takes per round, at least
ARM_SECONDS = 1.0


def cpu_seconds(workload, packets, rate):
    """CPU seconds of one fresh engine (built off the clock) running
    ``workload``'s queries under ``static:rate`` over ``packets``."""
    from bench.workloads import run_once

    engine, subscriptions = workload.build(
        lambda fresh: fresh.enable_shedding(f"static:{rate}"))
    began = time.process_time()
    run_once(engine, subscriptions, packets)
    spent = time.process_time() - began
    report = engine.overload_report()
    assert report["channel_dropped"] == 0
    assert not report.get("quarantined")
    assert (report["packets_shed"] > 0) == (rate < 1.0)
    return spent


def cost_round(workload, packets):
    """CPU microseconds per packet of each arm: the arms take the whole
    packet list in turn, each until it has taken ``ARM_SECONDS``."""
    spent = dict.fromkeys(COST_RATES, 0.0)
    fed = dict.fromkeys(COST_RATES, 0)
    while min(spent.values()) < ARM_SECONDS:
        for rate in COST_RATES:
            if spent[rate] < ARM_SECONDS:
                spent[rate] += cpu_seconds(workload, packets, rate)
                fed[rate] += len(packets)
    return {rate: spent[rate] / fed[rate] * 1e6 for rate in COST_RATES}


def test_e11_shed_cost_falls_with_rate():
    """``e2_merge``'s packets and queries under ``static:R``: the arms
    interleave inside each round, and the statistic is the median over
    the rounds -- of each arm's CPU per packet, and of its ratio to the
    unshed arm of the same round (the box's speed drifts between
    rounds)."""
    from bench import loadgen
    from bench.workloads import WORKLOADS

    workload = WORKLOADS["e2_merge"]
    packets = workload.generate(1, 1.0).packets
    # as the committed benchmark does: the collector never walks the
    # packet list inside a timed region
    gc.collect()
    gc.freeze()
    try:
        rounds = [cost_round(workload, packets) for _ in range(COST_ROUNDS)]
    finally:
        gc.unfreeze()
    samples = {rate: [each[rate] for each in rounds] for rate in COST_RATES}
    median = {rate: statistics.median(runs) for rate, runs in samples.items()}
    ratio = {rate: statistics.median(
        run / unshed for run, unshed in zip(runs, samples[1.0]))
        for rate, runs in samples.items()}
    print(f"\nE11 shed cost over e2_merge's {len(packets):,} packets "
          f"(loadgen digest {loadgen.digest(packets)[:12]}), CPU us/pkt, "
          f"median of {COST_ROUNDS} interleaved rounds of >= "
          f"{ARM_SECONDS:.0f} s per arm")
    print(f"{'static:R':>10}{'us/pkt':>9}{'vs R=1':>9}")
    for rate in COST_RATES:
        print(f"{rate:>10}{median[rate]:>9.3f}{ratio[rate]:>8.2f}x")
    # Shedding a tenth of the packets may not make the rest dearer, and
    # shedding half saves at least a fifth.
    assert ratio[0.9] <= 1.05
    assert ratio[0.5] <= 0.80
