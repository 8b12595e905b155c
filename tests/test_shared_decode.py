"""One guard per block: LFTAs on one interface share it in the block kernel.

DESIGN sections 10 and 14.  The RTS runs one generated loop per block,
its *block kernel*: per interface it groups the LFTAs by protocol, and
each group (a *decode group* when it has two or more members) gets one
section -- the guard over the union of their fields once, each distinct
pushed prefix once, then each member's row action on the rows it keeps.
A consumer the kernel does not cover (a shedding LFTA, one wrapped by an
injected fault, the row adapter) is handed its interface's run and runs
its own loop.  None of that may show: every query's rows, ``stats()``
entry and encoded ``snapshot_state`` must equal the same query run
alone in its own engine.
"""

import random

import pytest

from repro import Gigascope
from repro.faults import OperatorFault
from repro.recovery.wire import encode_snapshot

from tests.conftest import tcp_packet, udp_packet

SEED = 7

PROJECTION = """
    DEFINE query_name proj;
    Select time, srcIP, destPort From tcp Where destPort = 80
"""
AGGREGATION = """
    DEFINE query_name agg;
    Select tb, destIP, count(*), sum(len) From tcp
    Group by time/2 as tb, destIP
"""
SAMPLED = """
    DEFINE { query_name syns; sample 0.5; }
    Select time, srcPort, tcpflags From tcp Where tcpflags & 2 = 2
"""
PAYLOAD = """
    DEFINE query_name gets;
    Select time, destIP From tcp
    Where destPort = 80 and str_len(data) > 3
"""
DATAGRAMS = """
    DEFINE query_name dgrams;
    Select time, destPort, udplen From udp
"""
#: a row-adapter LFTA: no kernel covers it
FRAMES = """
    DEFINE query_name frames;
    Select time, ethertype, len From eth0.ethernet
"""
#: attribute positions of the tcp schema each query reads
FIELDS = {
    "proj": {0, 4, 13},
    "agg": {0, 5, 6},
    "syns": {0, 12, 14},
    "gets": {0, 5, 13, 18},
}


def traffic(count=1500, interfaces=("eth0",)):
    rng = random.Random(11)
    packets = []
    for i in range(count):
        interface = interfaces[rng.randrange(len(interfaces))]
        ts = i * 0.004
        if rng.random() < 0.15:
            packets.append(udp_packet(ts=ts, dport=rng.choice((53, 123)),
                                      payload=b"x" * rng.randrange(40),
                                      interface=interface))
            continue
        packets.append(tcp_packet(
            ts=ts, src=f"10.0.0.{rng.randrange(1, 20)}",
            dst=f"192.168.1.{rng.randrange(1, 8)}",
            sport=rng.randrange(1024, 1100),
            dport=rng.choice((80, 80, 443, 8080)),
            payload=rng.choice((b"", b"GET / HTTP/1.1\r\n", b"\x16\x03\x01")),
            flags=rng.choice((0x02, 0x10, 0x18, 0x12)),
            interface=interface))
    return packets


def engine(queries, prepare=None, batch_size=64, **kwargs):
    """A started engine over ``queries`` with every output subscribed;
    ``prepare`` sees it before any query exists (decode-entry wraps go
    on then, exactly as the benchmark's do)."""
    gs = Gigascope(seed=SEED, batch_size=batch_size, heartbeat_interval=0.5,
                   **kwargs)
    if prepare is not None:
        prepare(gs)
    names = [name for text in queries for name in gs.add_queries(text)]
    subs = {name: gs.subscribe(name) for name in names}
    gs.start()
    return gs, subs


def count_decodes(calls):
    """A ``prepare`` hook recording ``(loop, packets)`` of every call of
    a generated loop through the decode entry: the block kernel's and
    an LFTA's own.  ``loop`` is the loop's code object: compiled once
    per distinct source, bound afresh for every engine or consumer, so
    it is what names a loop here."""
    def prepare(gs):
        registry = gs.schema_registry
        for name in registry.names():
            schema = registry.get(name)
            entry = schema.columnar_decoder
            if entry is None:
                continue

            def counted(packets, decode, entry=entry):
                calls.append((decode.__code__, packets))
                return entry(packets, decode)
            schema.columnar_decoder = counted
    return prepare


def observe(gs, subs):
    """Everything a query leaves behind, by node and by output."""
    stats = gs.stats()
    nodes = {name: (stats[name], encode_snapshot(node.snapshot_state()))
             for name, node in gs.rts.iter_nodes()}
    rows = {name: sub.poll() for name, sub in subs.items()}
    return nodes, rows


def run(queries, packets, setup=None, prepare=None, pump_every=96,
        **kwargs):
    gs, subs = engine(queries, prepare, **kwargs)
    if setup is not None:
        setup(gs)
    gs.feed(packets, pump_every=pump_every)
    mid = observe(gs, subs)
    gs.flush()
    return gs, mid, observe(gs, subs)


def assert_same_as_alone(queries, packets, setup=None, **kwargs):
    """Run ``queries`` in one engine and each in an engine of its own;
    every node and output of a solo run must reappear unchanged."""
    shared, shared_mid, shared_end = run(queries, packets, setup, **kwargs)
    for text in queries:
        _, solo_mid, solo_end = run([text], packets, setup, **kwargs)
        for solo, together in ((solo_mid, shared_mid), (solo_end, shared_end)):
            for part in (0, 1):
                assert solo[part]  # a solo run has nodes and outputs
                for name, seen in solo[part].items():
                    assert together[part][name] == seen, name
    return shared


def shed(name, rate=0.5):
    def setup(gs):
        if name in gs.rts.names():
            gs.rts.node(name).set_shed_rate(rate)
    return setup


#: the LFTA node each query runs as
NODES = {"proj": "proj", "agg": "_fta_agg_0", "syns": "syns", "gets": "gets"}


def own_decoder(gs, query):
    return gs.rts.node(NODES[query])._decoder.__code__


def kernel(gs):
    """The block kernel the next block would run through."""
    return gs.rts._block_plan().kernel.__code__


def sections(gs):
    """``{interface: [[member names] per section]}`` of that kernel."""
    plan = gs.rts._block_plan()
    names = iter(node.name for node in plan.members)
    return {branch.interface: [[next(names) for _ in section.members]
                               for section in branch.sections]
            for branch in plan.branches if branch.sections}


def struct_of(gs, section=0):
    """The fast-path struct a kernel section's guard unpacks."""
    unpack = gs.rts._block_plan().kernel.__globals__[f"unpack_s{section}"]
    return unpack.__self__.format


def union_struct(*queries):
    """The struct of one decode over the union of ``queries``' fields."""
    from repro.gsql.schema import builtin_registry
    return builtin_registry().get("tcp").block_decoder(
        set().union(*(FIELDS[q] for q in queries))).struct_format


class TestSameAsRunningAlone:
    def test_two_lftas_projection_and_partial_aggregation(self):
        assert_same_as_alone([PROJECTION, AGGREGATION], traffic())

    def test_three_lftas_one_sampling(self):
        shared = assert_same_as_alone(
            [PROJECTION, AGGREGATION, SAMPLED], traffic())
        assert shared.rts.node("syns").sampled_out > 0

    def test_one_sibling_shedding(self):
        shared = assert_same_as_alone(
            [PROJECTION, AGGREGATION, PAYLOAD], traffic(),
            setup=shed("_fta_agg_0"))
        assert shared.rts.node("_fta_agg_0").shed_packets > 0
        assert shared.rts.node("proj").shed_packets == 0

    def test_every_sibling_shedding(self):
        def setup(gs):
            for name in ("proj", "gets"):
                shed(name, 0.3)(gs)
        assert_same_as_alone([PROJECTION, PAYLOAD], traffic(), setup=setup)

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_block_size_does_not_show(self, batch_size):
        packets = traffic(600)
        queries = [PROJECTION, AGGREGATION, SAMPLED]
        assert (run(queries, packets, batch_size=batch_size)[1:]
                == run(queries, packets)[1:])

    def test_row_adapter_lftas_share_nothing_and_agree(self):
        # interpreted codegen: no block decoder, so no kernel member
        shared = assert_same_as_alone(
            [PROJECTION, AGGREGATION], traffic(400), mode="interpreted")
        assert not shared.rts._block_plan().members


class TestDecodeOncePerBlock:
    def test_one_decode_per_block_when_nobody_sheds(self):
        calls = []
        gs, _, _ = run([PROJECTION, AGGREGATION, PAYLOAD], traffic(),
                       prepare=count_decodes(calls))
        assert len(calls) == gs.rts.batches_fed > 10
        assert {decode for decode, _ in calls} == {kernel(gs)}
        assert sections(gs) == {"eth0": [["proj", "_fta_agg_0", "gets"]]}
        # every LFTA still counts every block it ran column-wise
        for name in ("proj", "_fta_agg_0", "gets"):
            assert gs.rts.node(name).columnar_blocks == gs.rts.batches_fed

    def test_a_lone_lfta_decodes_for_itself(self):
        calls = []
        gs, _, _ = run([PROJECTION, DATAGRAMS], traffic(),
                       prepare=count_decodes(calls))
        # tcp and udp are different families: two lone sections, one
        # kernel call per block, no decode group
        assert sections(gs) == {"eth0": [["proj"], ["dgrams"]]}
        assert gs.rts.describe_decode_group("proj") is None
        assert len(calls) == gs.rts.batches_fed
        assert {decode for decode, _ in calls} == {kernel(gs)}

    def test_the_shedding_lfta_alone_decodes_again(self):
        calls = []
        gs, _, _ = run([PROJECTION, AGGREGATION, PAYLOAD], traffic(),
                       setup=shed("gets"), prepare=count_decodes(calls))
        own = own_decoder(gs, "gets")
        assert sections(gs) == {"eth0": [["proj", "_fta_agg_0"]]}
        by_decoder = {}
        for decode, packets in calls:
            by_decoder.setdefault(decode, []).append(packets)
        assert set(by_decoder) == {kernel(gs), own}
        assert len(by_decoder[kernel(gs)]) == len(by_decoder[own]) \
            == gs.rts.batches_fed
        # the gate's survivors, never the whole run
        assert (sum(map(len, by_decoder[own]))
                == gs.rts.packets_fed - gs.rts.node("gets").shed_packets)

    def test_no_shared_decode_when_every_member_sheds(self):
        calls = []

        def setup(gs):
            for name in ("proj", "gets"):
                shed(name)(gs)
        gs, _, _ = run([PROJECTION, PAYLOAD], traffic(), setup=setup,
                       prepare=count_decodes(calls))
        # a kernel with no member counts bytes and hands out runs; it
        # has no decode entry to go through
        assert not gs.rts._block_plan().members
        assert len(calls) == 2 * gs.rts.batches_fed
        assert kernel(gs) not in {decode for decode, _ in calls}

    def test_generated_union_source_is_lean(self):
        gs, _ = engine([PROJECTION, AGGREGATION])
        gs.feed(traffic(10))
        assert sections(gs) == {"eth0": [["proj", "_fta_agg_0"]]}
        # time, srcIP, destIP, len, destPort + the guard's fields
        assert struct_of(gs) == union_struct("proj", "agg") \
            == "!12xHB5xHxB2xII2xH8xB"


class TestUnionFollowsThePlan:
    def test_add_widens_and_remove_narrows_on_the_next_block(self):
        calls = []
        packets = traffic(900)
        gs, subs = engine([PROJECTION, AGGREGATION], count_decodes(calls))
        gs.feed(packets[:300])
        assert {d for d, _ in calls} == {kernel(gs)}
        assert struct_of(gs) == union_struct("proj", "agg")
        del calls[:]
        gs.stop()
        gs.add_queries(PAYLOAD)
        gs.start()
        gs.feed(packets[300:600])
        assert {d for d, _ in calls} == {kernel(gs)}
        assert struct_of(gs) == union_struct("proj", "agg", "gets")
        del calls[:]
        gs.stop()
        gs.remove_query("agg")
        gs.start()
        gs.feed(packets[600:])
        assert {d for d, _ in calls} == {kernel(gs)}
        assert struct_of(gs) == union_struct("proj", "gets")

    def test_quarantine_narrows_the_group(self):
        calls = []
        packets = traffic(900)

        def setup(gs):
            gs.inject_faults([OperatorFault("gets", at_tuple=333)])
        gs, _, _ = run([PROJECTION, AGGREGATION, PAYLOAD], packets,
                       setup=setup, prepare=count_decodes(calls))
        assert list(gs.rts.quarantined) == ["gets"]
        assert sections(gs) == {"eth0": [["proj", "_fta_agg_0"]]}
        narrow, own = kernel(gs), own_decoder(gs, "gets")
        decoders = [decode for decode, _ in calls]
        switch = decoders.index(narrow)
        # the wrapped LFTA is handed its run until it fails (its own
        # decode of what the fault lets through) ...
        before = set(decoders[:switch])
        assert own in before and len(before) == 2
        # ... and every block after it runs one kernel, without a run
        assert set(decoders[switch:]) == {narrow}


class TestFaultOnOneSibling:
    @pytest.mark.parametrize("at", [1, 64, 65, 100, 333])
    def test_operator_fault_mid_block_leaves_the_others_intact(self, at):
        """The faulted LFTA takes a prefix of its run (its own list, its
        own decode) and stops on exactly the Nth packet; its siblings
        run in the kernel over the whole block."""
        def setup(gs):
            if "gets" in gs.rts.names():
                gs.inject_faults([OperatorFault("gets", at_tuple=at)])
        shared = assert_same_as_alone(
            [PROJECTION, AGGREGATION, PAYLOAD], traffic(), setup=setup)
        assert list(shared.rts.quarantined) == ["gets"]
        assert shared.rts.node("gets").packets_seen == at - 1

    def test_recovered_sibling_keeps_its_own_loop(self):
        def setup(gs):
            gs.enable_recovery(checkpoint_interval=0.5)
            if "gets" in gs.rts.names():
                gs.inject_faults(
                    [OperatorFault("gets", at_tuple=333, times=1)])
        shared = assert_same_as_alone(
            [PROJECTION, AGGREGATION, PAYLOAD], traffic(), setup=setup)
        assert not shared.rts.quarantined
        assert shared.recovery_report()["restarts_total"] == 1
        # the spent injector's wrap stays, so the kernel still hands
        # "gets" its run; the other two share the section
        assert sections(shared) == {"eth0": [["proj", "_fta_agg_0"]]}


class TestSharedDecodeFailureIsContained:
    """The kernel's members each run under their own ``try``; the decode
    entry it goes through does not: an entry that raises takes down
    every member -- not ``feed()``, and not the consumers the kernel
    only hands runs to."""

    @staticmethod
    def failing(from_call, until_call=None):
        def prepare(gs):
            tcp = gs.schema_registry.get("tcp")
            entry = tcp.columnar_decoder
            seen = [0]

            def decode(packets, decoder):
                seen[0] += 1
                if seen[0] >= from_call and (until_call is None
                                             or seen[0] < until_call):
                    raise RuntimeError("decoder fell over")
                return entry(packets, decoder)
            tcp.columnar_decoder = decode
        return prepare

    def test_every_member_is_quarantined_and_siblings_run_on(self):
        packets = traffic()
        gs, _, end = run([PROJECTION, AGGREGATION, FRAMES], packets,
                         prepare=self.failing(from_call=5))
        assert sorted(gs.rts.quarantined) == ["_fta_agg_0", "proj"]
        assert all("decoder fell over" in reason
                   for reason in gs.rts.quarantined.values())
        assert gs.rts.packets_fed == len(packets)
        assert gs.rts.bytes_fed == sum(len(p.data) for p in packets)
        # both members stopped after the same four blocks
        seen = gs.rts.node("proj").packets_seen
        assert 0 < seen == gs.rts.node("_fta_agg_0").packets_seen < 300
        # the row-adapter LFTA is no member: it never noticed
        _, _, alone = run([FRAMES], packets)
        assert end[1]["frames"] == alone[1]["frames"]
        assert end[0]["frames"] == alone[0]["frames"]

    def test_a_transient_failure_is_recovered_for_every_member(self):
        packets = traffic()

        def recover(gs):
            gs.enable_recovery(checkpoint_interval=0.5)
        clean = run([PROJECTION, AGGREGATION], packets, setup=recover)[2]
        gs, _, end = run([PROJECTION, AGGREGATION], packets, setup=recover,
                         prepare=self.failing(from_call=5, until_call=6))
        assert not gs.rts.quarantined
        assert gs.recovery_report()["restarts_total"] == 2
        assert end[1] == clean[1]


class TestEthAndAnyConsumers:
    QUERIES = [
        PROJECTION.replace("From tcp", "From eth0.tcp"),
        AGGREGATION.replace("From tcp", "From eth0.tcp"),
        """DEFINE query_name everywhere;
           Select timestamp, destPort From any.tcp""",
        """DEFINE query_name volume;
           Select tb, count(*), sum(len) From any.tcp Group by time/2 as tb""",
    ]

    def test_each_sees_its_own_order(self):
        packets = traffic(1200, interfaces=("eth0", "eth1", "eth2"))
        shared = assert_same_as_alone(self.QUERIES, packets)
        assert sections(shared) == {None: [["everywhere", "_fta_volume_0"]],
                                    "eth0": [["proj", "_fta_agg_0"]]}

    def test_one_kernel_per_block(self):
        calls = []
        packets = traffic(1200, interfaces=("eth0", "eth1", "eth2"))
        gs, mid, end = run(self.QUERIES, packets,
                           prepare=count_decodes(calls))
        # one loop over every block, in arrival order: the "any" group
        # and the eth0 group both sit inside it
        assert len(calls) == gs.rts.batches_fed
        assert {decode for decode, _ in calls} == {kernel(gs)}
        assert [p for _, block in calls for p in block] == packets
        eth0 = [p for p in packets if p.interface == "eth0"]
        assert gs.rts.node("proj").packets_seen == len(eth0)
        assert gs.rts.node("everywhere").packets_seen == len(packets)
        stamps = [row[0] for part in (mid, end)
                  for row in part[1]["everywhere"]]
        assert stamps == sorted(stamps) and len(stamps) > 900

    def test_a_single_interface_block_is_handed_on_as_the_same_list(self):
        calls, runs = [], []

        def setup(gs):
            node = gs.rts.node("frames")
            accept = node.accept_batch

            def watched(packets, views=None):
                runs.append(packets)
                return accept(packets, views)
            node.accept_batch = watched
            gs.rts._replan()
        packets = traffic(300)
        run(self.QUERIES + [FRAMES], packets, setup=setup,
            prepare=count_decodes(calls))
        # eth0's run *is* the block: the consumer the kernel does not
        # cover gets the very list the kernel ran over
        assert len(runs) == len(calls)
        assert all(a is b for a, (_, b) in zip(runs, calls))
