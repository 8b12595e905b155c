"""The plane protocol (DESIGN, "The plane protocol").

``RuntimeSystem.attach_plane`` is the only way anything hooks the
run-time: an object's methods named like an event fire when the event
does, ordered by one declared phase order.  These tests hold the
protocol from the outside -- a plane written here, with no edit to
``stream_manager.py`` -- and the property the fixed order buys: the
order planes are *enabled* in is unobservable.
"""

import itertools

import pytest

from repro import Gigascope
from repro.core.stream_manager import RegistryError, RuntimeSystem
from repro.faults import ClockSkew, OperatorFault, RingLossBurst
from repro.obs.ledger import Field, Ledger
from repro.report import engine_report
from repro.workloads.generators import (http_port80_pool, merge_streams,
                                        packet_stream)
from tests.conftest import tcp_packet

FLOWS = """
    DEFINE query_name flows;
    Select tb, count(*) as pkts From tcp Group by time/2 as tb
"""


def packets(count=64):
    return [tcp_packet(ts=0.1 * i, sport=1000 + i % 7) for i in range(count)]


class Toy:
    """A control plane nobody told the scheduler about."""

    def __init__(self, rts, name="toy", log=None):
        self.ledger = Ledger(name, (
            Field("cycles", f"gs_{name}_cycles_total", "counter",
                  "pump cycles this plane saw"),))
        self.log = log if log is not None else []
        self.cycles = self.ends = self.items = 0
        rts.attach_plane(self)

    def on_cycle(self, stream_time):
        self.cycles += 1
        self.log.append(self.ledger.name)

    def journal_items(self, node, items, input_index):
        assert self.cycles == self.ends + 1, "outside a pump cycle"
        self.items += len(items)

    def on_pump_end(self, stream_time):
        self.ends += 1

    def report(self):
        return {"cycles": self.cycles, "items": self.items}


class TestToyPlane:
    def test_fires_once_per_pump_cycle(self):
        gs = Gigascope(heartbeat_interval=0.5)
        gs.add_query(FLOWS)
        toy = Toy(gs.rts)
        assert gs.planes["toy"] is toy
        gs.start()
        for expected in (1, 2, 3):
            gs.pump()
            assert (toy.cycles, toy.ends) == (expected, expected)
        sub = gs.subscribe("flows")
        gs.feed(packets(), pump_every=8)
        gs.flush()
        assert sub.poll()
        assert toy.cycles == toy.ends > 3
        # every item the HFTA was handed went past the plane first
        hfta = gs.rts.node("flows").stats
        assert toy.items >= hfta.tuples_in > 0
        # and it is a plane like the built-in ones: families, report
        assert f"gs_toy_cycles_total {toy.cycles}" in \
            gs.metrics.to_prometheus()
        assert "toy" in engine_report(gs)

    def test_phase_order_is_declared_not_attach_order(self):
        rts = RuntimeSystem(metrics=False)
        log = []

        class Squeeze:  # no ledger: a hook object states its phase
            phase = "faults"

            def on_cycle(self, stream_time):
                log.append("faults")

        for name in ("later", "replication", "recovery", "alerts",
                     "telemetry", "shed", "latest"):
            Toy(rts, name, log)
        rts.attach_plane(Squeeze())
        rts.start()
        rts.pump()
        assert log == ["faults", "shed", "telemetry", "alerts", "recovery",
                       "replication", "later", "latest"]
        # listed by name in attach order; the hook object is not listed
        assert list(rts.planes) == ["later", "replication", "recovery",
                                    "alerts", "telemetry", "shed", "latest"]

    def test_a_refused_plane_leaves_no_hook_behind(self):
        gs = Gigascope()
        log = []
        first = Toy(gs.rts, log=log)
        families = [family.name for family in gs.metrics.families()]

        class Intruder(Toy):
            def on_cycle(self, stream_time):
                log.append("intruder")

        with pytest.raises(RegistryError, match="toy already enabled"):
            Intruder(gs.rts, log=log)
        gs.start()
        gs.pump()
        assert log == ["toy"]
        assert gs.planes["toy"] is first
        assert [f.name for f in gs.metrics.families()] == families


E2 = """
    DEFINE query_name link0;
    Select time, destIP, len From eth0.tcp Where destPort = 80;
    DEFINE query_name link1;
    Select time, destIP, len From eth1.tcp Where destPort = 80;
    DEFINE query_name both;
    Merge link0.time : link1.time From link0, link1;
    DEFINE query_name appmon;
    Select tb, count(*) as cnt, sum(len) From both Group by time/2 as tb;
    DEFINE query_name depth;
    Select tb, max(max_depth), sum(dropped_delta) From _gs_channel
    Group by time/2 as tb
"""

ENABLE = {
    "alerts": lambda gs: gs.enable_alerts(
        ["busy:on=appmon,when=sum(cnt) > 100,epoch=2"]),
    "shed": lambda gs: gs.enable_shedding("adaptive"),
    "recovery": lambda gs: gs.enable_recovery(checkpoint_interval=1.0),
}


@pytest.fixture(scope="module")
def two_links():
    """Two 1.25 Mbit/s links of port-80 traffic, about six seconds."""
    link0 = packet_stream(http_port80_pool(seed=1), 1.25, 20.0,
                          interface="eth0", seed=3)
    link1 = packet_stream(http_port80_pool(seed=2), 1.25, 20.0,
                          interface="eth1", seed=4)
    return list(itertools.islice(merge_streams(link0, link1), 6000))


def run_planes(order, packets):
    gs = Gigascope(heartbeat_interval=1.0, channel_capacity=64, seed=7)
    gs.enable_telemetry(interval=1.0)
    gs.add_queries(E2)
    for name in order:
        ENABLE[name](gs)
    subs = {name: gs.subscribe(name)
            for name in ("appmon", "depth", "alerts", "_gs_channel",
                         "_gs_shed", "_gs_recovery", "_gs_alert")}
    gs.start()
    gs.feed(packets, pump_every=256)
    gs.flush()
    return ({name: sub.poll() for name, sub in subs.items()},
            gs.overload_report())


class TestEnableOrder:
    def test_enable_order_is_unobservable(self, two_links):
        """Under channel pressure the planes feed each other (shed rate
        -> drops -> _gs_* rows -> alerts -> shed exemption), so any
        dependence on who was enabled first would show."""
        orders = list(itertools.permutations(ENABLE))
        rows, report = reference = run_planes(orders[0], two_links)
        assert report["packets_shed"] > 0 and report["channel_dropped"] > 0
        assert rows["alerts"] and rows["depth"] and rows["_gs_recovery"]
        for order in orders[1:]:
            assert repr(run_planes(order, two_links)) == repr(reference), \
                order


class CountingRts(RuntimeSystem):
    admitted = 0

    def _admit(self, packet):
        self.admitted += 1
        return super()._admit(packet)


def counting_engine():
    gs = Gigascope(heartbeat_interval=0.5)
    gs.rts.__class__ = CountingRts
    gs.add_query(FLOWS)
    return gs


class TestFaultHooks:
    def test_operator_fault_costs_nothing_per_packet(self):
        gs = counting_engine()
        fault = OperatorFault("flows", at_tuple=2, times=1)
        gs.inject_faults([fault])
        gs.start()
        gs.feed(packets(), pump_every=8)
        gs.flush()
        assert gs.rts.faults == [fault] and fault.triggered == 1
        assert "flows" in gs.rts.quarantined
        assert gs.rts.admitted == 0

    @pytest.mark.parametrize("kind,args", [
        (ClockSkew, ("eth0", 0.25)),
        (RingLossBurst, (1.0, 2.0)),
    ])
    def test_packet_faults_still_see_every_packet(self, kind, args):
        class Counting(kind):
            seen = 0

            def on_packet(self, packet):
                Counting.seen += 1
                return super().on_packet(packet)

        gs = counting_engine()
        gs.inject_faults([Counting(*args)])
        gs.start()
        gs.feed(packets(), pump_every=8)
        gs.flush()
        assert Counting.seen == gs.rts.admitted == 64
