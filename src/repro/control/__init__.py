"""The overload control plane.

Gigascope must survive overload: the Tigon ring drops packets when the
host falls behind, merge buffers overflow on bursty streams (Section 3),
and the paper's answer is sampling plus careful accounting of what was
lost.  This package observes the reproduction's own loss model and
reacts to it:

* :mod:`repro.control.signals` -- a bus that samples pressure
  indicators (channel depth and drop counters, per-node tuple rates,
  NIC ring drops, estimated host utilization) each pump cycle;
* :mod:`repro.control.shedding` -- pluggable policies (none / static /
  adaptive AIMD) that turn a pressure sample into a keep-rate;
* :mod:`repro.control.controller` -- the loop that collects, decides,
  and installs the packet-sampling gate on every LFTA, with end-to-end
  drop accounting via :meth:`OverloadController.report`.
"""

from repro.control.controller import OverloadController, overload_snapshot
from repro.control.shedding import (
    AimdShedding,
    NoShedding,
    SheddingPolicy,
    StaticShedding,
    make_policy,
)
from repro.control.signals import PressureSample, SignalsBus

__all__ = [
    "AimdShedding",
    "NoShedding",
    "OverloadController",
    "PressureSample",
    "SheddingPolicy",
    "SignalsBus",
    "StaticShedding",
    "make_policy",
    "overload_snapshot",
]
