"""The six workloads: packets, queries, engine variant, oracle.

``BENCHMARK.json`` carries each workload's one-line *why*; README.md has
the long form.  Sizes put one timed round at 1-1.3 reference seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import Gigascope
from repro.queries import http_fraction
from repro.shard import ShardedGigascope

from bench import loadgen, oracle

E2_GSQL = """
    DEFINE query_name link0;
    Select time, destIP, len From eth0.tcp Where destPort = 80;

    DEFINE query_name link1;
    Select time, destIP, len From eth1.tcp Where destPort = 80;

    DEFINE query_name both;
    Merge link0.time : link1.time From link0, link1;

    DEFINE query_name appmon;
    Select tb, count(*), sum(len) From both Group by time/10 as tb
"""

FLOWS_GSQL = """
    DEFINE query_name flows;
    Select tb, srcIP, destIP, srcPort, destPort, protocol, count(*), sum(len)
    From tcp
    Group by time/2 as tb, srcIP, destIP, srcPort, destPort, protocol
"""

JOIN_GSQL = """
    DEFINE query_name syn;
    Select time, timestamp, srcIP, destIP, srcPort, destPort
    From eth0.tcp Where tcpflags & 18 = 2;

    DEFINE query_name synack;
    Select time, timestamp, srcIP, destIP, srcPort, destPort
    From eth1.tcp Where tcpflags & 18 = 18;

    DEFINE query_name rtt;
    Select S.time, S.destIP, A.timestamp - S.timestamp as rtt
    From syn S, synack A
    Where A.time >= S.time and A.time <= S.time + 1
      and S.srcIP = A.destIP and S.destIP = A.srcIP
      and S.srcPort = A.destPort and S.destPort = A.srcPort;

    DEFINE query_name rtt_stats;
    Select tb, destIP, count(*), max(rtt) From rtt
    Group by time/5 as tb, destIP
"""

#: a trigger that is evaluated every epoch and can never fire
NEVER_FIRES = "never:on=appmon,when=count(*) > 1000000000000,epoch=5"


def _plain() -> Gigascope:
    return Gigascope(heartbeat_interval=1.0)


def _sharded() -> ShardedGigascope:
    return ShardedGigascope(2, heartbeat_interval=1.0)


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int, float], loadgen.Generated]
    gsql: str
    #: subscribed output -> seconds per window of its leading ``tb`` column
    outputs: Dict[str, int]
    oracle: Callable[[list, dict], Dict[str, oracle.Rows]]
    engine: Callable[[], object] = _plain
    #: every control plane switched on around the queries (planes_on)
    planes: bool = False
    #: the single-process workload this one is read against
    baseline: str = ""

    @property
    def sharded(self) -> bool:
        """Forks workers per ``feed()``; the parent has no ``rts``."""
        return self.engine is _sharded

    def build(self, prepare: Optional[Callable] = None
              ) -> Tuple[object, Dict[str, object]]:
        """A started engine and its subscriptions: what ``setup_s`` times
        and what every timed round runs on (built outside the region).
        ``prepare`` sees the bare engine before any query is added."""
        engine = self.engine()
        if prepare is not None:
            prepare(engine)
        outputs = list(self.outputs)
        if self.planes:
            engine.enable_telemetry(interval=1.0)
        engine.add_queries(self.gsql)
        if self.planes:
            engine.enable_alerts([NEVER_FIRES])
            engine.enable_shedding("adaptive")
            engine.enable_recovery(checkpoint_interval=1.0)
            outputs.append("alerts")
        subscriptions = {name: engine.subscribe(name) for name in outputs}
        engine.start()
        return engine, subscriptions


_E2 = dict(generate=loadgen.e2_links, gsql=E2_GSQL, outputs={"appmon": 10},
           oracle=oracle.e2_merge)

WORKLOADS: Dict[str, Workload] = {
    "e2_merge": Workload(**_E2),
    "lfta_reduce": Workload(
        generate=loadgen.section4_mix, gsql=http_fraction(bucket_seconds=5),
        outputs={"http_port80": 5, "http_genuine": 5},
        oracle=oracle.lfta_reduce),
    "flows_highcard": Workload(
        generate=loadgen.zipf_flows, gsql=FLOWS_GSQL, outputs={"flows": 2},
        oracle=oracle.flows_highcard),
    "join_rtt": Workload(
        generate=loadgen.handshakes, gsql=JOIN_GSQL, outputs={"rtt_stats": 5},
        oracle=oracle.join_rtt),
    "planes_on": Workload(**_E2, planes=True, baseline="e2_merge"),
    "e2_shard2": Workload(**_E2, engine=_sharded, baseline="e2_merge"),
}


def run_once(engine, subscriptions, packets) -> Dict[str, List[tuple]]:
    """The timed region's body: feed, flush, poll every subscription."""
    engine.feed(packets, pump_every=1024)
    engine.flush()
    return {name: sub.poll() for name, sub in subscriptions.items()}


def losses(engine) -> int:
    """Packets or tuples the engine reports it dropped, shed or lost to a
    quarantined node; any of them fails the whole run."""
    report = engine.overload_report()
    lost = report.get("channel_dropped", 0) + report.get("packets_shed", 0)
    lost += len(report.get("quarantined", ()))
    shards = report.get("shards")
    if shards:
        lost += sum(shards["dropped_packets"]) + len(shards["quarantined"])
    return lost
