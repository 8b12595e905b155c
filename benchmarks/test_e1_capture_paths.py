"""E1 -- the Section 4 performance experiment (the paper's evaluation).

"We tried four approaches: 1) dumping the data to disk ... 2) reading
data from the ethernet card using libpcap, then discarding the packet
... 3) running Gigascope with the LFTAs executing in the host ...
4) running Gigascope with the LFTAs executing on the Tigon gigabit
ethernet card.  We chose a 2% packet drop rate as the maximum
acceptable loss."

Paper's reported knees:  disk 180 / libpcap 480 / host 480 / NIC <2%
at 610 Mbit/s (source-limited).  This module regenerates both the loss
curve (the figure) and the knee table, and asserts the shape:

* disk is by far the worst;
* libpcap and gigascope-host are similar (interrupt livelock is the
  bottleneck, not query processing);
* the NIC configuration is the best and sails through 610 Mbit/s.
"""

import pytest

from repro.sim.capture import CaptureConfig, CaptureSimulation, find_loss_knee
from repro.workloads.generators import section4_stream

DURATION_S = 0.7
THRESHOLD = 0.02

PAPER_KNEES = {
    CaptureConfig.DISK_DUMP: 180.0,
    CaptureConfig.LIBPCAP_DISCARD: 480.0,
    CaptureConfig.GIGASCOPE_HOST: 480.0,
    CaptureConfig.GIGASCOPE_NIC: 610.0,  # lower bound: source-limited
}


def loss_at(config, mbps, pools, qualifier):
    stream = section4_stream(background_mbps=max(0.0, mbps - 60.0),
                             duration_s=DURATION_S, pools=pools)
    sim = CaptureSimulation(config, qualifier=qualifier)
    return sim.run(stream).loss_rate


@pytest.fixture(scope="module")
def knees(section4_pools, port80_qualifier):
    result = {}
    for config in CaptureConfig:
        result[config] = find_loss_knee(
            lambda mbps: loss_at(config, mbps, section4_pools,
                                 port80_qualifier),
            low=80.0, high=900.0, threshold=THRESHOLD, tolerance=10.0)
    return result


def test_e1_loss_curve(section4_pools, port80_qualifier):
    """The figure: loss rate vs offered load for all four stacks."""
    rates = [120, 180, 240, 330, 420, 480, 540, 610, 700]
    print("\nE1 loss rate vs offered Mbit/s (paper Section 4)")
    header = "config           " + "".join(f"{r:>8}" for r in rates)
    print(header)
    series = {}
    for config in CaptureConfig:
        losses = [loss_at(config, r, section4_pools, port80_qualifier)
                  for r in rates]
        series[config] = dict(zip(rates, losses))
        print(f"{config.value:<17}" + "".join(f"{l:>8.3f}" for l in losses))
    # Shape assertions on the curve itself.
    assert series[CaptureConfig.DISK_DUMP][240] > THRESHOLD
    assert series[CaptureConfig.LIBPCAP_DISCARD][240] <= THRESHOLD
    assert series[CaptureConfig.GIGASCOPE_HOST][330] <= THRESHOLD
    assert series[CaptureConfig.GIGASCOPE_NIC][610] <= THRESHOLD
    # Past the livelock point the host paths collapse hard.
    assert series[CaptureConfig.LIBPCAP_DISCARD][610] > 0.5
    assert series[CaptureConfig.GIGASCOPE_HOST][610] > 0.5


def test_e1_knee_table(knees):
    """The table: max sustainable rate at <=2% loss per configuration."""
    print("\nE1 2%-loss knees (Mbit/s): paper vs measured")
    print(f"{'config':<18}{'paper':>8}{'measured':>10}")
    for config in CaptureConfig:
        paper = PAPER_KNEES[config]
        print(f"{config.value:<18}{paper:>8.0f}{knees[config]:>10.0f}")

    disk = knees[CaptureConfig.DISK_DUMP]
    libpcap = knees[CaptureConfig.LIBPCAP_DISCARD]
    host = knees[CaptureConfig.GIGASCOPE_HOST]
    nic = knees[CaptureConfig.GIGASCOPE_NIC]

    # Ordering: disk << libpcap ~ host < nic
    assert disk < libpcap * 0.6
    assert disk < host * 0.6
    # "Options 2) and 3) had similar performance"
    assert abs(libpcap - host) / libpcap < 0.15
    # NIC wins and clears the paper's 610 Mbit/s
    assert nic > host
    assert nic >= 610.0
    # Rough factor fidelity: paper has libpcap/disk ~ 2.7, nic/disk ~ 3.4
    assert 1.8 < libpcap / disk < 3.8
    assert nic / disk > 2.5


def test_e1_query_answer_correct_under_load(section4_pools):
    """At a sustainable rate, the actual Gigascope query over the same
    stream produces the right HTTP fraction (the analysis the whole
    experiment exists to run)."""
    import re
    from repro import Gigascope
    from repro.gsql.schema import PacketView

    gs = Gigascope()
    gs.add_queries(r"""
        DEFINE query_name p80;
        Select tb, count(*) From tcp Where destPort = 80
        Group by time/10 as tb;

        DEFINE query_name p80http;
        Select tb, count(*) From tcp
        Where destPort = 80 and str_match_regex(data, '^[^\n]*HTTP/1.')
        Group by time/10 as tb
    """)
    all_sub = gs.subscribe("p80")
    http_sub = gs.subscribe("p80http")
    gs.start()
    packets = list(section4_stream(background_mbps=60.0, duration_s=1.0,
                                   pools=section4_pools))
    gs.feed(packets)
    gs.flush()
    total = sum(count for _tb, count in all_sub.poll())
    http = sum(count for _tb, count in http_sub.poll())

    pattern = re.compile(rb"^[^\n]*HTTP/1.")
    expected_total = 0
    expected_http = 0
    for packet in packets:
        view = PacketView(packet)
        if view.tcp is not None and view.tcp.dst_port == 80:
            expected_total += 1
            if pattern.search(view.payload or b""):
                expected_http += 1
    assert total == expected_total
    assert http == expected_http
    print(f"\nE1 sanity: HTTP fraction = {http}/{total} = {http/total:.1%}")


def test_e1_nic_model_cross_validation(section4_pools, port80_qualifier):
    """The cost-model NIC path and the *real* on-NIC LFTA machinery make
    identical qualifying decisions: the sweep's qualifier callable is a
    faithful stand-in for running the LFTA on the card."""
    from repro.gsql.codegen import ExprCompiler
    from repro.gsql.functions import builtin_functions
    from repro.gsql.parser import parse_query
    from repro.gsql.planner import plan_query
    from repro.gsql.schema import builtin_registry
    from repro.gsql.semantic import analyze
    from repro.nic.nic import Nic
    from repro.nic.nic_rts import NicRts
    from repro.operators.lfta import LftaNode

    functions = builtin_functions()
    analyzed = analyze(
        parse_query("DEFINE query_name f80; Select time, srcIP, data "
                    "From tcp Where destPort = 80"),
        builtin_registry(), functions)
    plan = plan_query(analyzed, functions)
    lfta = LftaNode(plan.lftas[0], analyzed, ExprCompiler(analyzed, functions))
    nic = Nic(
        service_us=1.0,
        ring_slots=1 << 20,  # capacity out of the way: semantics only
        bpf=lfta.card_filter(),
        rts=NicRts([lfta]),
    )
    packets = list(section4_stream(background_mbps=40.0, duration_s=0.2,
                                   pools=section4_pools))
    expected = sum(1 for p in packets if port80_qualifier(p) is not None)
    for index, packet in enumerate(packets):
        nic.receive(packet, float(index))
    assert nic.stats.delivered_tuples == expected
    assert nic.stats.ring_dropped == 0
    print(f"\nE1 cross-validation: real on-NIC LFTA delivered "
          f"{nic.stats.delivered_tuples} tuples == qualifier count")
