"""Decode once per block: LFTAs on one interface share one union decode.

DESIGN section 14's sharing rule.  The RTS groups an interface's LFTAs
by protocol, generates one decoder for the union of their fields, runs
it once per run and hands the block to each ``accept_batch``; an LFTA
uses it only when it is about to decode that very list, and decodes
its own list otherwise.  None of that may show: every query's rows,
``stats()`` entry and encoded ``snapshot_state`` must equal the same
query run alone in its own engine.
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
    """A ``prepare`` hook recording ``(loop, packets)`` of every block
    decode the engine makes, shared or own.  ``loop`` is the generated
    decoder's code object: compiled once per distinct source, bound
    afresh for every consumer, so it is what names a decoder here."""
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


def union_decoder(gs, *queries):
    """The loop a decode group of ``queries``' LFTAs shares: the union
    of their fields, each member's pushed prefix tested inside it."""
    tcp = gs.schema_registry.get("tcp")
    return tcp.block_decoder(
        set().union(*(FIELDS[q] for q in queries)),
        [gs.rts.node(NODES[q]).prefilter for q in queries]).decode.__code__


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
        # interpreted codegen: no block decoder, so no decode group
        shared = assert_same_as_alone(
            [PROJECTION, AGGREGATION], traffic(400), mode="interpreted")
        assert not shared.rts._plan_for("eth0").decoders


class TestDecodeOncePerBlock:
    def test_one_decode_per_block_when_nobody_sheds(self):
        calls = []
        gs, _, _ = run([PROJECTION, AGGREGATION, PAYLOAD], traffic(),
                       prepare=count_decodes(calls))
        assert len(calls) == gs.rts.batches_fed > 10
        union = union_decoder(gs, "proj", "agg", "gets")
        assert {decode for decode, _ in calls} == {union}
        # every LFTA still counts every block it ran column-wise
        for name in ("proj", "_fta_agg_0", "gets"):
            assert gs.rts.node(name).columnar_blocks == gs.rts.batches_fed

    def test_a_lone_lfta_decodes_for_itself(self):
        calls = []
        gs, _, _ = run([PROJECTION, DATAGRAMS], traffic(),
                       prepare=count_decodes(calls))
        # tcp and udp are different families: two singletons, no group
        assert not gs.rts._plan_for("eth0").decoders
        assert len(calls) == 2 * gs.rts.batches_fed
        assert {decode for decode, _ in calls} == {
            own_decoder(gs, "proj"), gs.rts.node("dgrams")._decoder.__code__}

    def test_the_shedding_lfta_alone_decodes_again(self):
        calls = []
        gs, _, _ = run([PROJECTION, AGGREGATION, PAYLOAD], traffic(),
                       setup=shed("gets"), prepare=count_decodes(calls))
        union = union_decoder(gs, "proj", "agg", "gets")
        own = own_decoder(gs, "gets")
        assert own is not union
        by_decoder = {}
        for decode, packets in calls:
            by_decoder.setdefault(decode, []).append(packets)
        assert set(by_decoder) == {union, own}
        assert len(by_decoder[union]) == len(by_decoder[own]) \
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
        assert len(calls) == 2 * gs.rts.batches_fed
        assert union_decoder(gs, "proj", "gets") not in {
            decode for decode, _ in calls}

    def test_generated_union_source_is_lean(self):
        gs, _ = engine([PROJECTION, AGGREGATION])
        gs.feed(traffic(10))
        group, = gs.rts._plan_for("eth0").decoders
        assert group.decoder.decode.__code__ is union_decoder(
            gs, "proj", "agg")
        assert [node.name for node in group.members] == [
            "proj", "_fta_agg_0"]
        # time, srcIP, destIP, len, destPort + the guard's fields
        tcp = gs.schema_registry.get("tcp")
        assert tcp.block_decoder({0, 4, 5, 6, 13}).struct_format \
            == "!12xHB5xHxB2xII2xH8xB"


class TestUnionFollowsThePlan:
    def test_add_widens_and_remove_narrows_on_the_next_block(self):
        calls = []
        packets = traffic(900)
        gs, subs = engine([PROJECTION, AGGREGATION], count_decodes(calls))
        gs.feed(packets[:300])
        assert {d for d, _ in calls} == {union_decoder(gs, "proj", "agg")}
        del calls[:]
        gs.stop()
        gs.add_queries(PAYLOAD)
        gs.start()
        gs.feed(packets[300:600])
        assert {d for d, _ in calls} == {
            union_decoder(gs, "proj", "agg", "gets")}
        del calls[:]
        gs.stop()
        gs.remove_query("agg")
        gs.start()
        gs.feed(packets[600:])
        assert {d for d, _ in calls} == {union_decoder(gs, "proj", "gets")}

    def test_quarantine_narrows_the_group(self):
        calls = []
        packets = traffic(900)

        def setup(gs):
            gs.inject_faults([OperatorFault("gets", at_tuple=333)])
        gs, _, _ = run([PROJECTION, AGGREGATION, PAYLOAD], packets,
                       setup=setup, prepare=count_decodes(calls))
        assert list(gs.rts.quarantined) == ["gets"]
        wide = union_decoder(gs, "proj", "agg", "gets")
        narrow = union_decoder(gs, "proj", "agg")
        decoders = [decode for decode, _ in calls]
        switch = decoders.index(narrow)
        # the block the fault lands in is still decoded for all three
        # (plus the faulted node's own decode of its prefix) ...
        assert set(decoders[:switch]) == {wide, own_decoder(gs, "gets")}
        # ... and every block after it for the two survivors only
        assert set(decoders[switch:]) == {narrow}


class TestFaultOnOneSibling:
    @pytest.mark.parametrize("at", [1, 64, 65, 100, 333])
    def test_operator_fault_mid_block_leaves_the_others_intact(self, at):
        """The faulted LFTA takes a prefix of the block (its own list,
        its own decode) and stops on exactly the Nth packet; siblings
        keep using the shared block of the whole run."""
        def setup(gs):
            if "gets" in gs.rts.names():
                gs.inject_faults([OperatorFault("gets", at_tuple=at)])
        shared = assert_same_as_alone(
            [PROJECTION, AGGREGATION, PAYLOAD], traffic(), setup=setup)
        assert list(shared.rts.quarantined) == ["gets"]
        assert shared.rts.node("gets").packets_seen == at - 1

    def test_recovered_sibling_rejoins_the_group(self):
        def setup(gs):
            gs.enable_recovery(checkpoint_interval=0.5)
            if "gets" in gs.rts.names():
                gs.inject_faults(
                    [OperatorFault("gets", at_tuple=333, times=1)])
        shared = assert_same_as_alone(
            [PROJECTION, AGGREGATION, PAYLOAD], traffic(), setup=setup)
        assert not shared.rts.quarantined
        assert shared.recovery_report()["restarts_total"] == 1
        assert len(shared.rts._plan_for("eth0").decoders[0].members) == 3


class TestSharedDecodeFailureIsContained:
    """The shared decode runs outside any one node's ``try``: a decoder
    that raises must take down exactly its group, not ``feed()``."""

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
        gs, _, end = run([PROJECTION, AGGREGATION, DATAGRAMS], packets,
                         prepare=self.failing(from_call=5))
        assert sorted(gs.rts.quarantined) == ["_fta_agg_0", "proj"]
        assert all("decoder fell over" in reason
                   for reason in gs.rts.quarantined.values())
        assert gs.rts.packets_fed == len(packets)
        # both members stopped after the same four blocks
        seen = gs.rts.node("proj").packets_seen
        assert 0 < seen == gs.rts.node("_fta_agg_0").packets_seen < 300
        # udp is another family: its LFTA never noticed
        _, _, alone = run([DATAGRAMS], packets)
        assert end[1]["dgrams"] == alone[1]["dgrams"]
        assert end[0]["dgrams"] == alone[0]["dgrams"]

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
        assert len(shared.rts._plan_for("eth0").decoders) == 1
        assert len(shared.rts._plan_for("any").decoders) == 1

    def test_one_decode_per_run(self):
        calls = []
        packets = traffic(1200, interfaces=("eth0", "eth1", "eth2"))
        gs, mid, end = run(self.QUERIES, packets,
                           prepare=count_decodes(calls))
        tcp = gs.schema_registry.get("tcp")
        everywhere = tcp.block_decoder({0, 1, 6, 13}).decode.__code__
        runs = {everywhere: [], union_decoder(gs, "proj", "agg"): []}
        for decode, run_ in calls:
            runs[decode].extend(run_)
        # the "any" group decodes whole blocks in arrival order, the
        # eth0 group only its own interface's runs, in theirs
        assert runs.pop(everywhere) == packets
        assert runs.popitem()[1] == [
            p for p in packets if p.interface == "eth0"]
        assert (sum(decode is everywhere for decode, _ in calls)
                == gs.rts.batches_fed)
        stamps = [row[0] for part in (mid, end)
                  for row in part[1]["everywhere"]]
        assert stamps == sorted(stamps) and len(stamps) > 900

    def test_a_single_interface_block_is_handed_on_as_the_same_list(self):
        calls = []
        packets = traffic(300)
        run(self.QUERIES, packets, prepare=count_decodes(calls))
        # eth0's run *is* the block, so both groups decode the very
        # list feed() cut -- once each
        lists = [run_ for _, run_ in calls]
        assert all(a is b for a, b in zip(lists[0::2], lists[1::2]))
