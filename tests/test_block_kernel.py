"""The block kernel: one generated loop per block runs every LFTA.

DESIGN sections 10 and 14.  The RTS hands each block to one loop that
counts its captured bytes, branches on each packet's interface and runs
every LFTA it covers in place -- shed gate, guard, pushed prefix, row
action -- and collects a run for every consumer it does not cover (the
row adapter, a user-written packet operator, an LFTA an injected fault
wraps).  A stream query is a function of its input sequence, so which
loop routes a packet to an LFTA may not show: every node of an engine
running all the queries below must end exactly as the same query in an
engine of its own whose LFTA runs its own one-member kernel over its
interface's run -- rows, ``NodeStats``,
``packets_seen``, ``columnar_blocks`` and the encoded snapshot -- while
Hypothesis moves the traffic (eth0, eth1, an interface nobody reads,
``any`` consumers), the block size, the pump cadence, which LFTA sheds,
which one an injected fault wraps, and whether a UDF raising mid-block
gets its LFTA quarantined or recovered.  Derandomized; the tier-1
suite runs under two hash seeds in CI.
"""

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Gigascope
from repro.faults import OperatorFault
from repro.gsql.functions import FunctionSpec
from repro.gsql.types import UINT
from repro.net.build import capture
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetHeader
from repro.net.ip import PROTO_UDP, IPv4Header, fragment_ipv4
from repro.net.packet import ip_to_int
from repro.net.udp import UDPHeader
from repro.operators.defrag import DefragNode
from repro.operators.lfta import LftaNode
from repro.recovery.wire import encode_snapshot

from tests.conftest import tcp_packet, udp_packet

SEED = 7

#: every consumer of the combined engine, by name
QUERIES = {
    # tcp, udp and ip LFTAs on eth0; the tcp ones are a decode group
    # with equal (t0, t1) and differing (t2, syn) prefixes
    "t0": "Select time, srcIP, destPort, len From eth0.tcp "
          "Where destPort = 80",
    "t1": "Select time, destIP From eth0.tcp "
          "Where destPort = 80 and str_len(data) > 3",
    "t2": "Select tb, destIP, count(*), sum(len) From eth0.tcp "
          "Where tcpflags & 18 = 2 Group by time/2 as tb, destIP",
    "syn": "Select time, timestamp, srcIP, destIP, srcPort, destPort "
           "From eth0.tcp Where tcpflags & 18 = 2",
    "u0": "Select time, destPort, udplen From eth0.udp Where destPort = 53",
    "i0": "Select time, srcIP, id, ttl From eth0.ip Where protocol = 17",
    # the row adapter, beside the generated ones
    "frames": "Select time, ethertype, len From eth0.ethernet",
    # eth1's group: a $param, a raising UDF, and a lean form both
    # members go for when most packets miss port 80
    "p0": "Select time, srcIP, destIP, srcPort, destPort From eth1.tcp "
          "Where destPort = $port",
    "boom": "Select time, srcIP, destIP, boom(srcPort) From eth1.tcp "
            "Where destPort = 80",
    "everywhere": "Select timestamp, destPort From any.tcp",
    "volume": "Select tb, count(*), sum(len) From any.udp "
              "Group by time/2 as tb",
}
#: a user-written packet operator on eth0
DEFRAG = "defrag"
NAMES = list(QUERIES) + [DEFRAG]
#: the LFTAs a case may shed or wrap in a fault (t0 stays covered, so
#: every block goes through the kernel's entry)
TARGETS = ["t1", "t2", "syn", "u0", "i0", "p0", "everywhere", "volume"]


def boom(raises_at, once):
    """A UDF raising on its ``raises_at``-th call -- only then, or from
    then on."""
    calls = [0]

    def call(value):
        calls[0] += 1
        if calls[0] == raises_at or (not once and calls[0] > raises_at):
            raise RuntimeError("boom")
        return value
    return FunctionSpec("boom", call, (UINT,), UINT)


def fragments(ts, ident, interface):
    """One UDP datagram in IPv4 fragments."""
    src, dst = ip_to_int("10.0.0.1"), ip_to_int("10.0.0.2")
    payload = bytes(range(200)) * 4
    datagram = UDPHeader(src_port=5000, dst_port=53).pack(
        src, dst, payload) + payload
    ip = IPv4Header(src=src, dst=dst, protocol=PROTO_UDP,
                    identification=ident)
    eth = EthernetHeader(ethertype=ETHERTYPE_IPV4).pack()
    return [capture(eth + wire, ts + 0.001 * i, interface)
            for i, wire in enumerate(fragment_ipv4(ip, datagram, 300))]


def traffic(seed, web_shares, per_segment=60):
    """Segments of mixed traffic over eth0, eth1 and eth9 (which nobody
    reads); in each, ``web_share`` of the TCP packets go to port 80."""
    rng = random.Random(seed)
    packets = []
    for web_share in web_shares:
        for _ in range(per_segment):
            ts = 0.01 * len(packets)
            interface = rng.choice(("eth0", "eth0", "eth1", "eth1", "eth9"))
            kind = rng.random()
            if kind < 0.15:
                packets.append(udp_packet(
                    ts=ts, dport=rng.choice((53, 123)),
                    payload=b"x" * rng.randrange(40), interface=interface))
            elif kind < 0.19:
                packets += fragments(ts, len(packets), interface)
            else:
                port = (80 if rng.random() < web_share
                        else rng.choice((443, 22, 8080)))
                packets.append(tcp_packet(
                    ts=ts, src=f"10.0.0.{rng.randrange(1, 9)}",
                    dst=f"192.168.1.{rng.randrange(1, 5)}",
                    sport=rng.randrange(1024, 1100), dport=port,
                    payload=rng.choice((b"", b"GET / HTTP/1.1\r\n")),
                    flags=rng.choice((0x02, 0x12, 0x10, 0x18)),
                    interface=interface))
    return packets


def lfta_of(gs, name):
    if name == DEFRAG:
        return DEFRAG
    return gs.plan_of(name).lftas[0].name


def engine(names, case, calls=None, own_loops=False):
    """A started engine over the consumers ``names`` set up as ``case``
    says; ``calls`` collects the loop of every call through a decode
    entry, and ``gs.blocks`` every block the RTS dispatches (a
    rollback re-feeds some).  ``own_loops``: every LFTA's
    ``accept_batch`` is rebound on the node, which keeps it out of the
    block kernel -- each is handed its interface's run and runs its own
    loop, the reference the kernel's members are held to."""
    gs = Gigascope(seed=SEED, batch_size=case["batch_size"],
                   heartbeat_interval=0.5)
    if calls is not None:
        for schema in map(gs.schema_registry.get, gs.schema_registry.names()):
            entry = schema.columnar_decoder
            if entry is not None:
                def counted(packets, decode, entry=entry):
                    calls.append(decode)
                    return entry(packets, decode)
                schema.columnar_decoder = counted
        gs.blocks, feed_batch = [], gs.rts._feed_batch

        def dispatched(packets, newest):
            gs.blocks.append(len(packets))
            feed_batch(packets, newest)
        gs.rts._feed_batch = dispatched
    gs.functions.register(boom(case["raises_at"], case["recover"]))
    subs = {}
    for name in names:
        if name == DEFRAG:
            gs.rts.register_node(
                DefragNode(DEFRAG, gs.schema_registry.get("udp")),
                packet_interface="eth0")
        else:
            gs.add_query(f"DEFINE query_name {name}; {QUERIES[name]}",
                         params={"port": 80} if name == "p0" else None)
        subs[name] = gs.subscribe(name)
    if own_loops:
        for _, node in gs.rts.iter_nodes():
            if isinstance(node, LftaNode):
                node.accept_batch = node.accept_batch
    if case["recover"]:
        gs.enable_recovery(checkpoint_interval=0.5)
    if case["shed"] in names:
        gs.rts.node(lfta_of(gs, case["shed"])).set_shed_rate(0.5)
    if case["fault"] in names:
        gs.inject_faults([OperatorFault(
            lfta_of(gs, case["fault"]), at_tuple=case["fault_at"],
            times=1 if case["recover"] else None)])
    gs.start()
    return gs, subs


def observe(gs, subs):
    """Rows by output; by node, what it counted and what it holds."""
    stats = gs.stats()
    nodes = {name: (stats[name], getattr(node, "packets_seen", None),
                    getattr(node, "columnar_blocks", None),
                    encode_snapshot(node.snapshot_state()))
             for name, node in gs.rts.iter_nodes()}
    return nodes, {name: sub.poll() for name, sub in subs.items()}


def run(names, case, packets, calls=None, own_loops=False):
    """Feed in two parts, with ``p0``'s ``$port`` moved between them."""
    gs, subs = engine(names, case, calls, own_loops)
    half = len(packets) // 2
    gs.feed(packets[:half], pump_every=case["pump_every"])
    if "p0" in names:
        gs.set_param("p0", "port", 443)
    gs.feed(packets[half:], pump_every=case["pump_every"])
    mid = observe(gs, subs)
    gs.flush()
    return gs, mid, observe(gs, subs)


CASES = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "web_shares": st.lists(st.sampled_from([0.05, 0.2, 0.6, 0.95]),
                           min_size=2, max_size=6),
    "batch_size": st.sampled_from([1, 7, 64, 256]),
    "pump_every": st.sampled_from([16, 96, 256]),
    "shed": st.sampled_from(TARGETS),
    "fault": st.sampled_from(TARGETS),
    "fault_at": st.integers(1, 150),
    "raises_at": st.integers(1, 25),
    "recover": st.booleans(),
})


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
def test_every_node_ends_as_it_does_alone(case):
    packets = traffic(case["seed"], case["web_shares"])
    calls = []
    together, together_mid, together_end = run(NAMES, case, packets, calls)
    rts = together.rts
    # the feed counters are the block arithmetic's ...
    assert rts.packets_fed == len(packets)
    assert rts.bytes_fed == sum(len(p.data) for p in packets)
    # ... and the RTS's kernel ran once per block, through the decode
    # entry -- beside it only the one-member kernels of nodes handed a
    # run (a fault's wrap); a rollback re-feeds the blocks since its
    # checkpoint, and each runs the kernel once more
    own = {loop for _, node in rts.iter_nodes() if isinstance(node, LftaNode)
           for loop in node._loops.values()}
    assert sum(decode not in own for decode in calls) == len(together.blocks)
    if not (case["recover"] and together.recovery_report()["restarts_total"]):
        assert len(together.blocks) == rts.batches_fed
    # the shedding LFTA stays covered, unless a fault wraps it
    shedding = lfta_of(together, case["shed"])
    if case["shed"] != case["fault"] and shedding not in rts.quarantined:
        assert shedding in {node.name for node in rts._block_plan().members}
    raising = lfta_of(together, "boom")
    stats = rts.node(raising).stats
    if case["recover"]:
        assert raising not in rts.quarantined
    elif stats.tuples_in - stats.discarded >= case["raises_at"]:
        # every row past the prefix called the UDF once
        assert rts.quarantined[raising] == "RuntimeError: boom"
    for name in NAMES:
        alone, alone_mid, alone_end = run([name], case, packets,
                                          own_loops=True)
        assert not alone.rts._block_plan().members
        assert alone.rts.batches_fed == rts.batches_fed
        assert alone.rts.bytes_fed == rts.bytes_fed
        for solo, both in ((alone_mid, together_mid),
                           (alone_end, together_end)):
            assert solo[1][name] == both[1][name], name
            for node, seen in solo[0].items():
                assert both[0][node] == seen, (name, node)
        for node, reason in alone.rts.quarantined.items():
            assert rts.quarantined[node] == reason


def test_feed_counters_are_the_block_arithmetic():
    """Without heartbeats a block ends at ``batch_size`` and at every
    pump boundary, and nowhere else: the counters ``feed()`` keeps are
    that arithmetic, with the bytes counted by the kernel."""
    packets = traffic(3, [0.2, 0.6, 0.95])
    for batch_size, pump_every in ((7, 96), (64, 16), (256, 100)):
        gs = Gigascope(seed=SEED, batch_size=batch_size,
                       heartbeat_interval=None)
        gs.add_query("DEFINE query_name q; " + QUERIES["t0"])
        gs.start()
        gs.feed(packets, pump_every=pump_every)
        chunks = [len(packets[i:i + pump_every])
                  for i in range(0, len(packets), pump_every)]
        assert gs.rts.batches_fed == sum(
            math.ceil(chunk / batch_size) for chunk in chunks)
        assert gs.rts.packets_fed == len(packets)
        assert gs.rts.bytes_fed == sum(len(p.data) for p in packets)


def test_a_group_flips_to_its_lean_form_mid_run():
    """eth1's group goes lean once both members kill most packets, and
    back once port 80 is most of the traffic: the kernel changes form
    between blocks without showing."""
    packets = traffic(5, [0.95, 0.05, 0.05, 0.95, 0.95])
    case = {"batch_size": 32, "pump_every": 96, "shed": None,
            "fault": None, "raises_at": 10 ** 9, "recover": True}
    calls = []
    gs, _, end = run(["p0", "boom"], case, packets, calls)
    forms = []
    for decode in calls:
        plan = next(plan for plan in gs.rts._batch_plans.values()
                    if plan.kernel is decode)
        lean = plan.branches[0].sections[0].lean
        if not forms or forms[-1] != lean:
            forms.append(lean)
    assert forms == [False, True, False]
    for name in ("p0", "boom"):
        _, _, alone = run([name], case, packets, own_loops=True)
        assert alone[1][name] == end[1][name]
        assert alone[0][name] == end[0][name]


def test_a_traced_run_stays_in_the_kernel():
    """A lineage-sampled packet is a block of one through the same
    cached kernel as any other block: at sample rate 1.0 every block is
    one traced packet, and the RTS's kernel still takes each of them
    through the decode entry, from one plan, to the untraced run's
    rows -- the trace observes the run without changing it."""
    packets = [packet for packet in traffic(11, [0.3, 0.7, 0.5])
               if packet.interface == "eth0"]
    queries = {
        "web": "Select time, srcIP From eth0.tcp Where destPort = 80",
        "talkers": "Select tb, srcIP, count(*) From eth0.tcp "
                   "Group by time as tb, srcIP",
    }

    def run(sample_rate):
        calls = []
        gs = Gigascope(seed=SEED, batch_size=64, heartbeat_interval=0.5)
        entry = gs.schema_registry.get("tcp").columnar_decoder

        def counted(packets, decode):
            calls.append(decode)
            return entry(packets, decode)

        gs.schema_registry.get("tcp").columnar_decoder = counted
        for name, text in queries.items():
            gs.add_query(f"DEFINE query_name {name}; {text}")
        subs = {name: gs.subscribe(name) for name in queries}
        tracer = (gs.enable_tracing(sample_rate, max_traces=len(packets))
                  if sample_rate else None)
        gs.start()
        gs.feed(packets, pump_every=96)
        gs.flush()
        return gs, tracer, calls, {name: sub.poll()
                                   for name, sub in subs.items()}

    gs, tracer, calls, rows = run(1.0)
    rts = gs.rts
    assert rts.batches_fed == len(packets) == tracer.started
    kernels = {plan.kernel for plan in rts._batch_plans.values()}
    assert len(rts._batch_plans) == 1
    assert sum(decode in kernels for decode in calls) == rts.batches_fed
    assert len(calls) == rts.batches_fed
    assert all(tracer.stage_chain(trace)[:2] == ["feed", "lfta"]
               for trace in tracer.traces)
    assert tracer.complete_chains()
    _, _, _, untraced = run(None)
    assert rows == untraced
    assert all(untraced.values())
