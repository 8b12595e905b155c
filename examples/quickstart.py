#!/usr/bin/env python
"""Quickstart: compile a GSQL query and run it over synthetic traffic.

This is the smallest useful Gigascope program: one selection query over
the built-in ``tcp`` Protocol, fed from a synthetic packet stream.

Run:  python examples/quickstart.py
"""

from repro import Gigascope
from repro.net.packet import int_to_ip
from repro.workloads.generators import http_port80_pool, packet_stream


def main() -> None:
    gs = Gigascope()

    # The paper's first example query (Section 2.2): destination IP and
    # port plus a timestamp for TCP packets on eth0.
    gs.add_query("""
        DEFINE query_name tcpdest0;
        Select destIP, destPort, time
        From eth0.tcp
        Where ipversion = 4 and protocol = 6
    """)

    # Show what the compiler did with it: a simple query executes
    # entirely as an LFTA, and a capture card can run that LFTA's own
    # guard and prefix (the same generated test the host re-checks).
    print(gs.explain("tcpdest0"))
    print("NIC prefilter:", gs.rts.node("tcpdest0").card_filter().description)
    print("snap length:", gs.plan_of("tcpdest0").lftas[0].snaplen, "bytes")
    print()

    subscription = gs.subscribe("tcpdest0")
    gs.start()

    # 2 seconds of 20 Mbit/s port-80 traffic.
    pool = http_port80_pool(seed=1)
    gs.feed(packet_stream(pool, rate_mbps=20.0, duration_s=2.0))
    gs.flush()

    rows = subscription.poll()
    print(f"received {len(rows)} tuples; first five:")
    for dest_ip, dest_port, time in rows[:5]:
        print(f"  t={time:>3}  {int_to_ip(dest_ip)}:{dest_port}")

    stats = gs.stats()["tcpdest0"]
    print(f"\nLFTA stats: {stats['packets_seen']} packets seen, "
          f"{stats['tuples_out']} tuples out, {stats['discarded']} discarded")


if __name__ == "__main__":
    main()
