"""E8 -- join windows bound operator state (Sections 2.1-2.2).

"The join predicate must contain a constraint on an ordered attribute
from each table which can be used to define a join window" -- that
window is what makes the blocking join a stream operator: buffered
state is bounded by the window width times the rate, independent of
stream length.

We sweep the window width and measure peak buffered tuples (output
volume grows quadratically with the window, so the sweep counts emitted
pairs rather than collecting them), and check the ordering-imputation
claim: an equality join emits monotone output, a band join banded
output.

The keyed arm adds an equality conjunct to the same packets: the join
indexes its window on it, so an arrival examines its key's bucket, not
the window -- while the state it holds is the window either way.
"""

import time

import pytest

from repro import Gigascope
from tests.conftest import tcp_packet

RATE_PPS = 100
DURATION_S = 40.0


PORTS = 64


def run_join(width, rate_pps=RATE_PPS, duration_s=DURATION_S,
             collect=False, keyed=False):
    gs = Gigascope(heartbeat_interval=1.0)
    if width == 0:
        where = "B.time = C.time"
    else:
        where = (f"B.time >= C.time - {width} and B.time <= C.time + {width}")
    if keyed:
        where += " and B.srcPort = C.srcPort"
    gs.add_query(f"""
        DEFINE query_name j;
        Select B.time, B.srcIP, C.srcIP
        From eth0.tcp B, eth1.tcp C
        Where {where}
    """)
    sub = gs.subscribe("j") if collect else None
    gs.start()
    node = gs.rts.node("j")
    # Exact candidates examined per arrival, counted from outside: no
    # stats() key (the golden digests hash stats()).
    probes = {"arrivals": 0, "candidates": 0}
    probe = node._window_candidates

    def counted(*args):
        found = probe(*args)
        probes["arrivals"] += 1
        probes["candidates"] += len(found)
        return found

    node._window_candidates = counted
    peak = 0
    count = int(rate_pps * duration_s)
    start = time.perf_counter()
    for i in range(count):
        ts = i / rate_pps
        interface = "eth0" if i % 2 else "eth1"
        # consecutive packets (one per link) share a source port
        gs.feed_packet(tcp_packet(ts=ts, sport=1024 + (i // 2) % PORTS,
                                  interface=interface))
        if i % 128 == 0:
            gs.pump()
            peak = max(peak, node.buffered)
    gs.flush()
    elapsed = time.perf_counter() - start
    rows = sub.poll() if collect else None
    per_arrival = probes["candidates"] / max(probes["arrivals"], 1)
    return (rows, node.pairs_emitted, peak, elapsed, gs, per_arrival,
            probes["arrivals"])


def test_e8_state_scales_with_window():
    print("\nE8 join state vs window width "
          f"({RATE_PPS // 2} pkt/s per side, {DURATION_S:.0f} s)")
    print(f"{'window (s)':>10}{'output pairs':>13}{'peak buffered':>14}"
          f"{'seconds':>9}")
    peaks = {}
    pairs = {}
    for width in (0, 1, 2, 4):
        _, emitted, peak, elapsed, _, _, _ = run_join(width)
        peaks[width] = peak
        pairs[width] = emitted
        print(f"{width:>10}{emitted:>13}{peak:>14}{elapsed:>9.2f}")
    # State and output grow with the window but state stays bounded
    # (never the whole stream).
    assert peaks[0] < peaks[2] < peaks[4]
    assert pairs[0] < pairs[1] < pairs[4]
    assert peaks[4] < RATE_PPS * DURATION_S / 4


def test_e8_keys_cut_candidates_not_state():
    """An equality conjunct shrinks what each arrival examines; the
    index never holds more than the window."""
    print(f"\nE8c keyed vs keyless probe ({PORTS} source ports): "
          "candidates examined per arriving tuple")
    print(f"{'window (s)':>10}{'keyless':>10}{'keyed':>9}"
          f"{'peak buffered':>15}{'keyless pairs':>15}{'keyed pairs':>13}")
    for width in (1, 2, 4):
        _, pairs, peak, _, gs, scanned, arrivals = run_join(width)
        _, keyed_pairs, keyed_peak, _, keyed_gs, probed, keyed_arrivals = \
            run_join(width, keyed=True)
        print(f"{width:>10}{scanned:>10.2f}{probed:>9.2f}{peak:>15}"
              f"{pairs:>15}{keyed_pairs:>13}")
        # Every arrival went through the probe entry the counter
        # patched: a loop that bypassed it would read 0 candidates here.
        assert arrivals == gs.rts.node("j").stats.tuples_in
        assert keyed_arrivals == keyed_gs.rts.node("j").stats.tuples_in
        assert keyed_peak == peak
        assert probed <= scanned
        assert 0 < keyed_pairs < pairs


def test_e8_output_ordering_matches_imputation():
    """Equality join output is monotone; band join output is banded by
    the window width -- the Section 2.1 imputation, observed."""
    rows_eq, _, _, _, gs_eq, _, _ = run_join(0, rate_pps=100, duration_s=20,
                                             collect=True)
    ordering_eq = gs_eq.schema_of("j").attributes[0].ordering
    times = [r[0] for r in rows_eq]
    assert ordering_eq.is_increasing and ordering_eq.effective_band == 0
    assert times == sorted(times)

    rows_band, _, _, _, gs_band, _, _ = run_join(2, rate_pps=100,
                                                 duration_s=20, collect=True)
    ordering_band = gs_band.schema_of("j").attributes[0].ordering
    assert ordering_band.effective_band == 4  # banded_increasing(2*2)
    times = [r[0] for r in rows_band]
    high = float("-inf")
    for value in times:
        high = max(high, value)
        assert value >= high - 4
    # and the band is real: the output is NOT fully sorted
    assert times != sorted(times)


def test_e8_sorted_join_buys_monotone_with_buffer_space():
    """Section 2.1's algorithm choice, measured: the sorted band join
    produces fully ordered output at the cost of a reorder buffer whose
    peak grows with the window width."""
    from repro import Gigascope
    print("\nE8b sorted band join: reorder buffer vs window width")
    print(f"{'window (s)':>10}{'reorder peak':>13}{'output sorted':>15}")
    peaks = {}
    for width in (1, 2, 4):
        gs = Gigascope(heartbeat_interval=1.0)
        gs.add_query(f"""
            DEFINE {{ query_name j; join_output sorted; }}
            Select B.time, B.srcIP, C.srcIP
            From eth0.tcp B, eth1.tcp C
            Where B.time >= C.time - {width} and B.time <= C.time + {width}
        """)
        sub = gs.subscribe("j")
        gs.start()
        for i in range(2000):
            ts = i / 100.0
            gs.feed_packet(tcp_packet(ts=ts, sport=i % 50_000,
                                      interface="eth0" if i % 2 else "eth1"))
        gs.flush()
        times = [r[0] for r in sub.poll()]
        node = gs.rts.node("j")
        peaks[width] = node.reorder_peak
        print(f"{width:>10}{node.reorder_peak:>13}{str(times == sorted(times)):>15}")
        assert times == sorted(times)
    assert peaks[1] < peaks[4]


def test_e8_benchmark_equality_join(benchmark):
    benchmark.pedantic(
        lambda: run_join(0, rate_pps=100, duration_s=20),
        rounds=2, iterations=1)
