"""Gigascope reproduction: a stream database for network applications.

A from-scratch Python reproduction of Cranor, Johnson, Spatscheck &
Shkapenyuk, *Gigascope: A Stream Database for Network Applications*
(SIGMOD 2003): the GSQL language, the two-level LFTA/HFTA query
compiler, the stream-manager run-time, and the simulated capture
substrate (NIC, host, disk) used to reproduce the paper's evaluation.

Quick start::

    from repro import Gigascope
    gs = Gigascope()
    gs.add_query("DEFINE query_name q; Select destIP, time From eth0.tcp "
                 "Where destPort = 80")
    sub = gs.subscribe("q")
    gs.start()
    gs.feed(packets)
    gs.flush()
    rows = sub.poll()

``import repro`` loads the engine -- :class:`Gigascope` and the modules
a plain build runs -- and nothing else: every other public name is
imported on first access (:mod:`repro._lazy`), and a plane's modules
load in the ``enable_*`` call that switches it on.
"""

from repro._lazy import exports
from repro.core.engine import Gigascope

__version__ = "1.3.0"

__all__, __getattr__, __dir__ = exports(globals(), {
    "repro.alerts": ("AlertEngine", "AlertSpecError", "TriggerSpec",
                     "parse_alert_spec"),
    "repro.core.stream_manager": ("RuntimeSystem", "Subscription"),
    "repro.core.query_node": ("QueryNode", "UserNode"),
    "repro.gsql.functions": ("FunctionSpec",),
    "repro.gsql.schema": ("Attribute", "ProtocolSchema", "StreamSchema"),
    "repro.net.packet": ("CapturedPacket",),
    "repro.obs": ("MetricsRegistry", "Tracer"),
    "repro.control": ("OverloadController", "AimdShedding", "NoShedding",
                      "StaticShedding"),
    "repro.stable": ("stable_hash", "rng_for"),
    "repro.determinism": ("verify_replay",),
    "repro.faults": ("RingLossBurst", "ChannelOverflowStorm", "ClockSkew",
                     "HeartbeatSilence", "OperatorFault"),
})
__all__ += ["Gigascope", "__version__"]
