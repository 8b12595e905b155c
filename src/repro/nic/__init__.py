"""Simulated network interface cards.

The paper's testbed used a Tigon gigabit Ethernet card -- a programmable
NIC with its own run-time system.  Gigascope exploits whatever the NIC
offers (Section 3):

* a **bpf-style prefilter** plus a **snap length**, pushing a simple
  selection/projection into the card: the test is the re-checking
  LFTA's own generated guard and prefix, run as a one-member block
  kernel with an empty row action
  (:meth:`repro.operators.lfta.LftaNode.card_filter`), and the length
  is its plan's ``LftaPlan.snaplen``;
* a full **on-NIC RTS** executing LFTAs on the card itself
  (:mod:`repro.nic.nic_rts`), so the host only sees reduced tuples.

:mod:`repro.nic.nic` models the card: wire-side ring buffer, per-packet
processing cost, filtering, truncation, and delivery to the host.
"""

from repro.nic.nic import Nic, NicStats
from repro.nic.nic_rts import NicRts

__all__ = [
    "Nic",
    "NicStats",
    "NicRts",
]
