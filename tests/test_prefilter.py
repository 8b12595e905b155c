"""The prefilter inside the generated decode loop (DESIGN section 14).

A plan's leading run of total conjuncts is tested by its block kernel
before a row exists.  None of that may show.  Three arms run the same
packets:

* *pushed* -- the default: prefix in the decode loop ahead of the row,
  the rest in the row's action;
* *unpushed* (``decode_then_filter``) -- the planner marks no prefix,
  so the loop is the plain guard and every conjunct sits in the row's
  action (until PR 19 fused the action into the loop this was the
  decode-then-filter path, pass for pass; that one is frozen in
  ``tests/frozen_decode_select.py`` now);
* *adapter* -- the same query text over the protocol stripped of its
  layout (:func:`without_layouts`): no decode loop, the row adapter.

Rows in emit order, ``tuples_in``, ``discarded``, ``tuples_out`` and
``sampled_out`` must agree, at block sizes 1/7/256, over
``tests/test_columnar.py``'s truncation corpus widened with TCP options
and enough header variety for every conjunct shape to both keep and
kill.  CI's ``columnar-smoke`` job runs this file under two hash seeds.
"""

import copy
import random
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Gigascope
from repro.faults import OperatorFault
from repro.gsql import planner
from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.gsql.parser import parse_query
from repro.gsql.planner import SNAPLEN_HEADERS, plan_query
from repro.gsql.schema import SchemaRegistry, builtin_registry
from repro.gsql.semantic import analyze
from repro.net.build import build_tcp_frame, build_udp_frame
from repro.net.columnar import distinct_tests
from repro.net.packet import CapturedPacket
from repro.nic import Nic
from repro.operators.lfta import LftaNode
from repro.recovery.wire import decode_snapshot, encode_snapshot

from tests.kernel_rows import KernelRows, group_kernel
from tests.test_columnar import _corpus, _with_ip_options
from tests.test_shared_decode import assert_same_as_alone, shed

SEED = 7
BLOCK_SIZES = (1, 7, 256)
REGISTRY = builtin_registry()


# -- the corpus -----------------------------------------------------------------

def _with_tcp_options(frame: bytes, words: int) -> bytes:
    """An IHL-5 TCP frame with ``words`` NOP option groups after the
    fixed TCP header (data offset > 5)."""
    out = frame[:54] + b"\x01\x01\x01\x01" * words + frame[54:]
    out = out[:46] + bytes([(5 + words) << 4]) + out[47:]
    total_len = int.from_bytes(frame[16:18], "big") + 4 * words
    return out[:16] + total_len.to_bytes(2, "big") + out[18:]


def _varied_frames():
    """Header variety: every conjunct shape below keeps some of these
    and kills others."""
    rng = random.Random(17)
    frames = []
    for _ in range(260):
        src = f"10.0.{rng.randrange(2)}.{rng.randrange(1, 6)}"
        dst = f"192.168.{rng.randrange(2)}.{rng.randrange(1, 6)}"
        if rng.random() < 0.2:
            frames.append(build_udp_frame(
                src, dst, rng.choice((53, 5353, 40000)),
                rng.choice((53, 123, 80)), payload=b"q" * rng.randrange(30),
                ttl=rng.choice((1, 64, 255))))
            continue
        frame = build_tcp_frame(
            src, dst, rng.choice((80, 1024, 1234, 40000)),
            rng.choice((80, 80, 443, 8080, 22)),
            payload=rng.choice((b"", b"GET / HTTP/1.1\r\n", b"\x16\x03")),
            flags=rng.choice((0x02, 0x12, 0x10, 0x18, 0x11, 0x04)),
            seq=rng.randrange(1 << 32), ttl=rng.choice((1, 64, 255)))
        kind = rng.random()
        if kind < 0.15:
            frame = _with_ip_options(frame, rng.randrange(1, 11))
        elif kind < 0.3:
            frame = _with_tcp_options(frame, rng.randrange(1, 11))
        elif kind < 0.35:
            frame = _with_ip_options(
                _with_tcp_options(frame, rng.randrange(1, 11)),
                rng.randrange(1, 11))
        frames.append(frame)
    return frames


def corpus(interface="eth0"):
    """``test_columnar``'s corpus (runts, non-IPv4, later fragments, IP
    options, snapped frames) interleaved with the varied frames, some
    of those snapped too, on one ascending clock."""
    rng = random.Random(23)
    packets = [(p.data, p.orig_len) for p in _corpus()]
    for frame in _varied_frames():
        cut = (len(frame) if rng.random() < 0.85
               else rng.randrange(30, len(frame) + 1))
        packets.append((frame[:cut], len(frame)))
    rng.shuffle(packets)
    return [CapturedPacket(timestamp=0.01 * i, data=data, orig_len=orig_len,
                           interface=interface)
            for i, (data, orig_len) in enumerate(packets)]


CORPUS = corpus()


def blocks(packets, size):
    return [packets[i:i + size] for i in range(0, len(packets), size)]


# -- the three arms -------------------------------------------------------------

@contextmanager
def decode_then_filter():
    """Plan without a prefix: the frozen reference arm."""
    marked = planner._mark_prefix
    planner._mark_prefix = lambda lfta, analyzed: None
    try:
        yield
    finally:
        planner._mark_prefix = marked


def without_layouts():
    """The built-in protocols with ip/tcp/udp stripped of their layouts:
    same names, fields and guards, so the same query text runs through
    the row adapter instead of a generated decode loop."""
    builtin = builtin_registry()
    registry = SchemaRegistry()
    for name in builtin.names():
        schema = builtin.get(name)
        if schema.columnar_decoder is not None:
            schema = copy.copy(schema)
            schema._layout = None
            schema.columnar_decoder = None
        registry.add(schema)
    return registry


def run(text, packets, batch_size=256, params=None, setup=None,
        registry=None):
    """Rows in emit order plus what every LFTA counted."""
    gs = Gigascope(seed=SEED, batch_size=batch_size, heartbeat_interval=0.5,
                   schema_registry=registry)
    name = gs.add_query(text, params=params)
    sub = gs.subscribe(name)
    if setup is not None:
        setup(gs)
    gs.start()
    gs.feed(packets, pump_every=64)
    gs.flush()
    counted = {}
    for lfta in gs.plan_of(name).lftas:
        node = gs.rts.node(lfta.name)
        stats = node.stats
        counted[lfta.name] = (stats.tuples_in, stats.discarded,
                              stats.tuples_out, node.sampled_out,
                              node.packets_seen)
    return gs, sub.poll(), counted


def three_arms(text, packets, batch_size=256, params=None):
    pushed = run(text, packets, batch_size, params)
    with decode_then_filter():
        frozen = run(text, packets, batch_size, params)
    adapter = run(text, packets, batch_size, params,
                  registry=without_layouts())
    assert "killed" not in frozen[0].generated_code(text_name(text))
    assert all(lfta.decode_fields is None for _, lfta in
               adapter[0].rts.iter_nodes() if hasattr(lfta, "decode_fields"))
    assert pushed[1:] == frozen[1:]
    assert pushed[1:] == adapter[1:]
    return pushed


def text_name(text):
    return text.split("query_name")[1].split(";")[0].strip(" }")


#: (protocol, WHERE clause, conjuncts pushed, parameters)
SHAPES = {
    "eq": ("tcp", "destPort = 80", 1, None),
    "range": ("tcp", "destPort >= 80 and destPort < 1024", 2, None),
    "flags": ("tcp", "tcpflags & 18 = 2", 1, None),
    "or": ("tcp", "destPort = 443 or srcPort = 80", 1, None),
    "not": ("tcp", "not (destPort = 80) and not tcpflags & 16 = 16", 2, None),
    "ip_literal": ("tcp", "srcIP = 167772161 or destIP >= 3232235777 "
                          "and destIP <= 3232235779", 1, None),
    "param": ("tcp", "destPort = $port and srcPort <> $port", 2,
              {"port": 80}),
    "metadata": ("tcp", "len > 60 and caplen >= 58 and time >= 1 "
                        "and timestamp < 4.25", 4, None),
    "arithmetic": ("tcp", "srcPort + 1 > destPort * 2 - 5 "
                          "and (tcpflags >> 1) & 1 = 1 "
                          "and (ttl | 1) ^ 1 < 255 and -ttl < 0", 4, None),
    "bit_fields": ("ip", "frag_offset > 0 or more_fragments = 1", 1, None),
    "ip_family": ("ip", "protocol = 6 and ttl > 10 and ipversion = 4", 3,
                  None),
    "udp": ("udp", "destPort = 53 and udplen > 8", 2, None),
    # the loop takes only the *leading* run
    "then_udf": ("tcp", "destPort = 80 and str_len(data) > 3 "
                        "and srcPort > 1024", 1, None),
    "udf_first": ("tcp", "str_len(data) >= 0 and destPort = 80", 0, None),
    "division": ("tcp", "destPort / 2 = 40 and srcPort = 80", 0, None),
    "modulo_second": ("tcp", "srcPort = 80 and destPort % 2 = 0", 1, None),
    "everything_passes": ("tcp", "destPort >= 0", 1, None),
    "nothing_passes": ("tcp", "destPort > 70000", 1, None),
}
FIELDS = {"tcp": "time, srcIP, destIP, srcPort, destPort, tcpflags, len",
          "ip": "time, srcIP, destIP, ttl, id, frag_offset",
          "udp": "time, srcIP, destPort, udplen"}


def queries(shape):
    protocol, where, _, _ = SHAPES[shape]
    return (
        f"DEFINE query_name sel; Select {FIELDS[protocol]} "
        f"From {protocol} Where {where}",
        f"DEFINE query_name agg; Select tb, destIP, count(*), sum(len) "
        f"From {protocol} Where {where} Group by time/2 as tb, destIP",
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestPushedEqualsDecodeThenFilter:
    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_rows_counters_and_order(self, shape, batch_size):
        _, _, pushed, params = SHAPES[shape]
        for text in queries(shape):
            gs, rows, counted = three_arms(text, CORPUS, batch_size, params)
            lfta, = gs.plan_of(text_name(text)).lftas
            assert lfta.prefix == pushed
            if shape != "nothing_passes":
                assert rows
            if shape != "everything_passes":
                (tuples_in, discarded, *_), = counted.values()
                assert 0 < discarded <= tuples_in

    def test_block_size_does_not_show(self, shape):
        _, _, _, params = SHAPES[shape]
        for text in queries(shape):
            results = [run(text, CORPUS, size, params)[1:]
                       for size in BLOCK_SIZES]
            assert results[0] == results[1] == results[2]


class TestWhatIsPushed:
    def plan(self, where, protocol="tcp", define="query_name q"):
        return compiled(f"DEFINE {{ {define}; }} Select time "
                        f"From {protocol} Where {where}")[1]

    def test_a_header_conjunct_after_a_udf_is_not_hoisted(self):
        plan = self.plan("destPort = 80 and str_len(data) > 3 "
                         "and srcPort > 1024 and tcpflags & 2 = 2")
        lfta, = plan.lftas
        assert lfta.prefix == 1
        assert "prefilter=[destPort = 80]" in plan.describe()
        gs = Gigascope()
        gs.add_query("DEFINE query_name q; Select time From tcp Where "
                     "destPort = 80 and str_len(data) > 3 and srcPort > 1024")
        loop, action = gs.generated_code("q").split("m_0 += 1\n")
        # one test ahead of the row; srcPort stays behind str_len in
        # the row's action
        assert loop.count("killed_0 += 1") == 1 and "1024" not in loop
        assert action.index("_f_str_len") < action.index("1024")

    @pytest.mark.parametrize("where, reason", [
        ("str_match_regex(data, 'x') and destPort = 80", None),  # HFTA's
        ("str_len(data) > 1 and destPort = 80",
         "first conjunct calls str_len"),
        ("data = 'GET' and destPort = 80", "first conjunct reads data"),
        ("destPort / 2 = 40", "first conjunct uses /"),
        ("destPort % 2 = 0", "first conjunct uses %"),
        ("1 << destPort > 5",
         "first conjunct shifts by other than a small literal"),
    ])
    def test_explain_says_why_nothing_is_pushed(self, where, reason):
        plan = self.plan(where)
        lfta, = plan.lftas
        if reason is None:
            # the regex went to the HFTA: destPort = 80 leads the LFTA
            assert lfta.prefix == 1
        else:
            assert lfta.prefix == 0
            assert f"prefilter=none ({reason})" in plan.describe()

    def test_explain_names_the_other_reasons(self):
        assert "prefilter=none (sampled)" in self.plan(
            "destPort = 80", define="query_name q; sample 0.5").describe()
        assert "prefilter=none (row adapter)" in self.plan(
            "icmp_type = 8", protocol="icmp").describe()
        bare = compiled("DEFINE query_name q; Select time From tcp")[1]
        assert "prefilter=none (no predicate)" in bare.describe()

    def test_explain_shows_both_structs_of_a_lean_form(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name syn; "
                     "Select time, srcIP, destIP, srcPort, destPort "
                     "From tcp Where tcpflags & 18 = 2")
        text = gs.explain("syn")
        assert "struct=48B prefilter=[tcpflags & 18 = 2]" in text
        assert "lean=[!12xHB5xHxB22xBB 48B + !26xIIHH 38B]" in text
        # one field left for survivors: a second unpack would not pay
        gs.add_query("DEFINE query_name one; Select time, srcIP "
                     "From udp Where destPort = 53")
        assert "lean=" not in gs.explain("one")

    def test_explain_lists_a_decode_groups_tests_once_each(self):
        gs = Gigascope()
        gs.add_query("DEFINE query_name a; Select time From tcp "
                     "Where destPort = 80")
        gs.add_query("DEFINE query_name b; Select time, data From tcp "
                     "Where destPort = 80 and str_len(data) > 3")
        gs.add_query("DEFINE query_name c; Select time, srcIP From tcp "
                     "Where tcpflags & 2 = 2")
        assert ("c shares its decode: decode group [a,b,c] struct=48B "
                "prefilters=[destPort = 80; tcpflags & 2 = 2]"
                in gs.explain("c"))
        # the card's list is the prefilter list: no second count
        assert "prefilter=[destPort = 80]" in gs.explain("a")
        assert "pushed" not in gs.explain("a")

    def test_layoutless_sources_are_untouched(self):
        for registry, protocol, where in (
                (without_layouts, "tcp", "destPort = 80"),
                (builtin_registry, "icmp", "icmp_type = 8"),
                (builtin_registry, "tcp6", "destPort = 80")):
            text = (f"DEFINE query_name q; Select time From {protocol} "
                    f"Where {where}")
            gs = Gigascope(schema_registry=registry())
            gs.add_query(text)
            with decode_then_filter():
                frozen = Gigascope(schema_registry=registry())
                frozen.add_query(text)
            assert gs.generated_code("q") == frozen.generated_code("q")
            assert "killed" not in gs.generated_code("q")


class TestSampledPlanPushesNothing:
    QUERY = ("DEFINE { query_name syns; sample 0.5; } "
             "Select time, srcPort, tcpflags From tcp "
             "Where tcpflags & 2 = 2")

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_same_draws_same_rows(self, batch_size):
        gs, rows, counted = three_arms(self.QUERY, CORPUS, batch_size)
        assert gs.plan_of("syns").lftas[0].prefix == 0
        assert "killed" not in gs.generated_code("syns")
        (tuples_in, _, _, sampled_out, _), = counted.values()
        # the draw saw every guard-passing packet, not the SYNs only
        assert 0.3 * tuples_in < sampled_out < 0.7 * tuples_in
        assert rows

    def test_rng_state_after_the_run_is_the_frozen_one(self):
        states = []
        for arm in (lambda: run(self.QUERY, CORPUS, 7), None):
            if arm is None:
                with decode_then_filter():
                    gs = run(self.QUERY, CORPUS, 7)[0]
            else:
                gs = arm()[0]
            states.append(gs.rts.node("syns")._sample_rng.getstate())
        assert states[0] == states[1]


# -- decode groups ----------------------------------------------------------------

def compiled(text, params=None):
    functions = builtin_functions()
    analyzed = analyze(parse_query(text), REGISTRY, functions)
    plan = plan_query(analyzed, functions)
    return analyzed, plan, ExprCompiler(analyzed, functions, params)


def member(where, params=None, fields="time, srcIP, destPort"):
    """One would-be group member: (its fields, its Prefilter)."""
    analyzed, plan, compiler = compiled(
        f"DEFINE query_name q; Select {fields} From tcp"
        + (f" Where {where}" if where else ""), params)
    lfta, = plan.lftas
    return (lfta.needed_fields(analyzed),
            compiler.prefilter(lfta.predicates[:lfta.prefix]))


def taps(parts):
    """A :class:`KernelRows` on ``tcp`` per would-be member."""
    tcp = REGISTRY.get("tcp")
    return [KernelRows(tcp, fields, prefilter) for fields, prefilter in parts]


class TestGroupMembersSeeOnlyTheirRows:
    MEMBERS = [
        ("destPort = 80", None),
        ("tcpflags & 18 = 2", None),
        ("destPort = 80", None),                 # same test as the first
        ("destPort = $port", {"port": 443}),
        ("destPort = $port", {"port": 22}),      # same source, other dict
    ]

    def group(self, members):
        tcp = REGISTRY.get("tcp")
        parts = [member(where, params) for where, params in members]
        union = set().union(*(fields for fields, _ in parts))
        prefilters = [prefilter for _, prefilter in parts]
        return tcp, parts, union, prefilters

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("keeps_all", [False, True])
    def test_each_member_gets_what_its_own_decoder_keeps(self, size,
                                                         keeps_all):
        members = self.MEMBERS + ([(None, None)] if keeps_all else [])
        tcp, parts, union, prefilters = self.group(members)
        tests, test_of = distinct_tests(prefilters)
        assert [test.text for test in tests] == [
            "destPort = 80", "tcpflags & 18 = 2",
            "destPort = $port", "destPort = $port"]
        assert test_of == [0, 1, 0, 2, 3] + ([None] if keeps_all else [])
        nodes = taps(parts)
        run, source = group_kernel(tcp, nodes)
        # five members with a prefix, four distinct tests, each once
        assert [f"keep{j} = " in source for j in range(5)] == [True] * 4 + [
            False]
        alone = taps(parts)
        for packets in blocks(CORPUS, size):
            before = [(node.stats.tuples_in, node.stats.discarded)
                      for node in nodes]
            assert run(packets).nbytes == sum(len(p.data) for p in packets)
            for node, own, (tuples_in, discarded) in zip(nodes, alone, before):
                own_rows, passed = own.rows(packets)
                assert passed == node.stats.tuples_in - tuples_in
                assert node.stats.discarded - discarded == \
                    passed - len(own_rows)
                # the same packets, not only the same values
                assert node.take() == own_rows
        # one test, one condition: the first and third member ride it
        assert "if live_0 and keep0:" in source
        assert "if live_2 and keep0:" in source

    def test_identical_prefixes_need_no_row_lists(self):
        tcp, parts, union, prefilters = self.group(
            [("destPort = 80", None), ("destPort = 80", None)])
        assert distinct_tests(prefilters)[1] == [0, 0]
        # in the kernel the one test ends the section for both members
        _, source = group_kernel(tcp, taps(parts))
        assert "keep" not in source and source.count("if not (") == 1
        assert "if live_0:" in source and "if live_1:" in source

    def test_a_prefix_may_not_read_past_the_decoders_fields(self):
        tcp = REGISTRY.get("tcp")
        fields, prefilter = member("tcpflags & 2 = 2")
        with pytest.raises(ValueError, match="tcpflags & 2 = 2"):
            KernelRows(tcp, [0, 13], prefilter)

    @pytest.mark.parametrize("batch_size", BLOCK_SIZES)
    def test_engine_group_equals_each_query_alone(self, batch_size):
        shared = assert_same_as_alone([
            "DEFINE query_name a; Select time, srcIP From tcp "
            "Where destPort = 80",
            "DEFINE query_name b; Select tb, count(*) From tcp "
            "Where tcpflags & 18 = 2 Group by time/2 as tb",
            "DEFINE query_name c; Select time, destIP From tcp "
            "Where destPort = 80 and str_len(data) > 3",
            "DEFINE query_name d; Select time, len From tcp",
        ], CORPUS, batch_size=batch_size)
        group = shared.rts.describe_decode_group("a")
        assert group.startswith("decode group [a,_fta_b_0,c,d]")
        assert "prefilters=[destPort = 80; tcpflags & 18 = 2]" in group
        assert "lean=" not in group  # d keeps every packet


class TestOwnListOwnDecoder:
    """Whenever a member's packets are not the group's -- the shed gate
    keeps a subset (in a section of its own), a fault delivers a prefix,
    journal replay hands packets over singly -- it decodes for itself,
    prefix included, and agrees with what the shared block would have
    given it."""

    QUERIES = [
        "DEFINE query_name syn; Select time, srcIP, destIP, srcPort, "
        "destPort From tcp Where tcpflags & 18 = 2",
        "DEFINE query_name gets; Select time, destIP From tcp "
        "Where destPort = 80 and str_len(data) > 3",
        "DEFINE query_name web; Select tb, count(*) From tcp "
        "Where destPort = 80 Group by time/2 as tb",
    ]

    def test_shed_subset(self):
        shared = assert_same_as_alone(self.QUERIES, CORPUS,
                                      setup=shed("gets"))
        assert shared.rts.node("gets").shed_packets > 0

    @pytest.mark.parametrize("at", [1, 65, 333])
    def test_fault_prefix(self, at):
        def setup(gs):
            if "gets" in gs.rts.names():
                gs.inject_faults([OperatorFault("gets", at_tuple=at)])
        shared = assert_same_as_alone(self.QUERIES, CORPUS, setup=setup)
        assert list(shared.rts.quarantined) == ["gets"]

    def test_journal_replay(self):
        def setup(gs):
            gs.enable_recovery(checkpoint_interval=0.5)
            if "gets" in gs.rts.names():
                gs.inject_faults(
                    [OperatorFault("gets", at_tuple=333, times=1)])
        shared = assert_same_as_alone(self.QUERIES, CORPUS, setup=setup)
        assert shared.recovery_report()["restarts_total"] == 1
        assert not shared.rts.quarantined


# -- one closure per consumer -------------------------------------------------------

class TestDecoderCacheIsKeyedOnItsSource:
    QUERY = ("DEFINE query_name {name}; Select time, srcPort, destPort "
             "From tcp Where destPort = $port")

    def traffic(self):
        return [CapturedPacket(
            timestamp=0.001 * i, interface="eth0",
            data=build_tcp_frame("10.0.0.1", "10.0.0.2", 1000 + i,
                                 (80, 443)[i % 2]))
            for i in range(64)]

    def test_two_instances_one_source_two_dicts(self):
        gs = Gigascope(seed=SEED, batch_size=8)
        for name, port in (("p80", 80), ("p443", 443)):
            gs.add_query(self.QUERY.format(name=name), params={"port": port})
        subs = {name: gs.subscribe(name) for name in ("p80", "p443")}
        own = [gs.rts.node(name)._loop(False, False) for name in subs]
        assert own[0].__code__ is own[1].__code__  # compiled once
        assert own[0] is not own[1]                # bound twice
        gs.start()
        packets = self.traffic()
        gs.feed(packets)
        gs.flush()
        for name, port in (("p80", 80), ("p443", 443)):
            rows = subs[name].poll()
            assert len(rows) == 32 and {row[2] for row in rows} == {port}
        # ... and the nodes' own kernels hold their own dict as well: a
        # second pass through each delivers its own port's rows again
        for name, kernel, port in zip(subs, own, (80, 443)):
            node = gs.rts.node(name)
            passed = node.stats.tuples_in
            assert kernel(packets).n == 32
            assert node.stats.tuples_in - passed == 64  # passed the guard
            assert {row[2] for row in subs[name].poll()} == {port}

    @pytest.mark.parametrize("grouped", [False, True])
    def test_set_param_between_two_blocks_of_one_feed(self, grouped):
        gs = Gigascope(seed=SEED, batch_size=8, heartbeat_interval=None)
        gs.add_query(self.QUERY.format(name="q"), params={"port": 80})
        if grouped:
            gs.add_query(self.QUERY.format(name="other"),
                         params={"port": 443})
        sub = gs.subscribe("q")
        gs.start()
        packets = self.traffic()

        def source():
            for i, packet in enumerate(packets):
                if i == 16:
                    # pulled with the third block, after the second
                    # was dispatched
                    gs.set_param("q", "port", 443)
                yield packet
        gs.feed(source())
        gs.flush()
        assert [(row[1] - 1000, row[2]) for row in sub.poll()] == (
            [(i, 80) for i in range(0, 16, 2)]
            + [(i, 443) for i in range(17, 64, 2)])


# -- the lean form ---------------------------------------------------------------------

SYN = ("DEFINE query_name syn; Select time, timestamp, srcIP, destIP, "
       "srcPort, destPort From tcp Where tcpflags & 18 = 2")


class TestLeanEqualsFull:
    CASES = [
        ("tcp", "time, srcIP, destIP, srcPort, destPort",
         "tcpflags & 18 = 2"),
        ("tcp", "time, srcIP, destIP, data", "destPort = 80 and len > 60"),
        ("tcp", "seqno, ackno, tcpwindow, ttl, id", "srcIP = 167772161"),
        ("udp", "time, srcIP, destIP, udplen, data", "destPort = 53"),
        ("ip", "time, srcIP, destIP, id, ttl", "protocol = 6"),
        ("ip", "srcIP, destIP", "frag_offset > 0 or more_fragments = 1"),
    ]

    @pytest.mark.parametrize("protocol, fields, where", CASES)
    def test_on_every_corpus_block(self, protocol, fields, where):
        analyzed, plan, compiler = compiled(
            f"DEFINE query_name q; Select {fields} From {protocol} "
            f"Where {where}")
        lfta, = plan.lftas
        needed = lfta.needed_fields(analyzed)
        prefilter = compiler.prefilter(lfta.predicates[:lfta.prefix])
        schema = REGISTRY.get(protocol)
        full = KernelRows(schema, needed, prefilter)
        lean = KernelRows(schema, needed, prefilter, lean=True)
        assert "unpack_b_s0(d)" in lean.source
        assert "unpack_b_s0" not in full.source
        # EXPLAIN's lean=[...] names the two structs this kernel unpacks
        unpacks = lean.kernel.__globals__
        assert tuple(unpacks[f"unpack_{half}_s0"].__self__.format
                     for half in "ab") == \
            schema.lean_formats(needed, prefilter.slots)
        plain = KernelRows(schema, needed)
        kept = 0
        for size in BLOCK_SIZES:
            for packets in blocks(CORPUS, size):
                one = full.rows(packets)
                assert one == lean.rows(packets)
                assert one[1] == plain.rows(packets)[1]
                kept += len(one[0])
        assert kept

    def test_lean_form_of_a_group(self):
        tcp = REGISTRY.get("tcp")
        parts = [member("tcpflags & 18 = 2",
                        fields="time, srcIP, destIP, srcPort"),
                 member("destPort = $port", {"port": 80},
                        fields="time, srcIP, destIP, seqno")]
        full_nodes, lean_nodes = taps(parts), taps(parts)
        full, _ = group_kernel(tcp, full_nodes)
        lean, lean_source = group_kernel(tcp, lean_nodes, lean=True)
        assert "unpack_b_s0(d)" in lean_source
        for packets in blocks(CORPUS, 7):
            full(packets)
            lean(packets)
        for one, other in zip(full_nodes, lean_nodes):
            assert one.take() == other.take()
            assert (one.stats.tuples_in, one.stats.discarded) == (
                other.stats.tuples_in, other.stats.discarded)
        # a member that keeps everything leaves nothing to defer
        keeps_all = parts + [member(None)]
        assert group_kernel(tcp, taps(keeps_all), lean=True)[1] == \
            group_kernel(tcp, taps(keeps_all))[1]

    def test_fewer_than_two_deferred_fields_has_no_lean_form(self):
        tcp = REGISTRY.get("tcp")
        fields, prefilter = member("destPort = 80", fields="time, srcIP")
        assert KernelRows(tcp, fields, prefilter, lean=True).source == \
            KernelRows(tcp, fields, prefilter).source
        assert tcp.lean_formats(fields, prefilter.slots) == ()


def syn_node():
    analyzed, plan, compiler = compiled(SYN)
    node = LftaNode(plan.lftas[0], analyzed, compiler, seed=SEED)
    return node, node.subscribe()


def syn_traffic(ratios, per_segment=96):
    """Segments of TCP packets, a ``ratio`` share of each SYNs."""
    rng = random.Random(str(ratios))
    packets = []
    for ratio in ratios:
        for _ in range(per_segment):
            flags = 0x02 if rng.random() < ratio else 0x10
            packets.append(CapturedPacket(
                timestamp=0.001 * len(packets), interface="eth0",
                data=build_tcp_frame("10.0.0.1", "10.0.0.2",
                                     1000 + len(packets) % 5000, 80,
                                     flags=flags)))
    return packets


class TestTheNodePicksTheFormFromItsCounters:
    def decoders_used(self, node, packets, size=32, checkpoint_at=None):
        """Feed ``packets``; which form decoded each block.  With
        ``checkpoint_at``, the node is replaced at that block by a
        fresh one restored from its snapshot."""
        tap = node.subscribe()
        used = []
        entry = node._decode_block
        for number, block in enumerate(blocks(packets, size)):
            if number == checkpoint_at:
                blob = encode_snapshot(node.snapshot_state())
                drained = tap.drain()
                node, tap = syn_node()
                node.restore_state(decode_snapshot(blob))
                assert encode_snapshot(node.snapshot_state()) == blob
                for item in drained:
                    tap.push(item)

            def watch(packets_, decode, node=node):
                used.append("lean" if decode is node._loop(False, True)
                            else "full")
                return entry(packets_, decode)
            node._decode_block = watch
            node.accept_batch(block)
        return used, tap.drain(), node

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ratios=st.lists(st.sampled_from([0.0, 0.03, 0.3, 0.7, 1.0]),
                           min_size=2, max_size=8),
           checkpoint_at=st.integers(min_value=1, max_value=20))
    def test_switching_mid_run_and_across_a_restore_never_shows(
            self, ratios, checkpoint_at):
        packets = syn_traffic(ratios)
        with decode_then_filter():
            frozen, frozen_tap = syn_node()
        for block in blocks(packets, 32):
            frozen.accept_batch(block)
        expected = frozen_tap.drain()

        used, rows, node = self.decoders_used(syn_node()[0], packets)
        assert rows == expected
        stats, reference = node.stats, frozen.stats
        assert (stats.tuples_in, stats.discarded, stats.tuples_out) == (
            reference.tuples_in, reference.discarded, reference.tuples_out)
        # the choice follows the counters block by block
        replay, _ = syn_node()
        for block, form in zip(blocks(packets, 32), used):
            assert form == ("lean" if replay.prefers_lean else "full")
            replay.accept_batch(block)

        again, rows_again, _ = self.decoders_used(
            syn_node()[0], packets, checkpoint_at=checkpoint_at)
        assert (again, rows_again) == (used, rows)

    def test_a_mostly_killing_input_goes_lean_and_back(self):
        used, _, _ = self.decoders_used(
            syn_node()[0], syn_traffic([0.03] * 3 + [1.0] * 8))
        assert used[0] == "full"           # nothing counted yet
        assert set(used[1:9]) == {"lean"}  # 97 % die on the prefix
        assert used[-1] == "full"          # most tuples pass by now

    def test_an_input_that_passes_everything_never_pays_twice(self):
        used, _, _ = self.decoders_used(syn_node()[0], syn_traffic([1.0] * 4))
        assert set(used) == {"full"}

    def test_a_group_goes_lean_only_when_every_member_would(self):
        queries = [SYN, SYN.replace("syn;", "ack;").replace("= 2", "= 16")]
        packets = syn_traffic([0.03] * 6)  # syn kills 97 %, ack keeps 97 %
        gs = Gigascope(seed=SEED, batch_size=32)
        forms = []
        tcp = gs.schema_registry.get("tcp")
        entry = tcp.columnar_decoder

        def watch(packets_, decode):
            forms.append(decode)
            return entry(packets_, decode)
        tcp.columnar_decoder = watch
        for text in queries:
            gs.add_query(text)
        gs.start()
        gs.feed(packets)

        def lean(kernel):
            """Whether that block kernel ran the group's lean form."""
            plan = next(plan for plan in gs.rts._batch_plans.values()
                        if plan.kernel is kernel)
            section, = plan.branches[0].sections
            return section.lean
        assert "lean=[" in gs.rts.describe_decode_group("syn")
        assert not any(map(lean, forms))
        assert gs.rts.node("syn").prefers_lean
        assert not gs.rts.node("ack").prefers_lean
        # both members killing: the group's section switches
        del forms[:]
        gs.feed([CapturedPacket(
            timestamp=10 + 0.001 * i, interface="eth0",
            data=build_tcp_frame("10.0.0.1", "10.0.0.2", 1, 80, flags=0x04))
            for i in range(1600)])
        assert lean(forms[-1])
        assert not lean(forms[0])


# -- the snap length covers the guard's reach ---------------------------------------------

class TestHeaderSnapLengthCoversTheLongestHeaders:
    def test_a_syn_with_full_ip_and_tcp_options_survives_the_nic(self):
        """60 + 60 header bytes: the TCP guard wants all 134 captured."""
        syn = _with_ip_options(_with_tcp_options(
            build_tcp_frame("10.0.0.1", "10.0.0.2", 1234, 80, flags=0x02,
                            payload=b"x" * 40), 10), 10)
        assert len(syn) == 14 + 60 + 60 + 40 and SNAPLEN_HEADERS == 134
        packets = [CapturedPacket(timestamp=0.1 * i, data=frame)
                   for i, frame in enumerate(
                       [syn, build_tcp_frame("10.0.0.1", "10.0.0.2", 1, 80,
                                             flags=0x02), syn])]
        results = []
        for snapping in (False, True):
            gs = Gigascope(seed=SEED)
            gs.add_query("DEFINE query_name q; Select time, srcPort, len, "
                         "caplen From tcp Where tcpflags & 2 = 2")
            snaplen = gs.plan_of("q").lftas[0].snaplen
            assert snaplen == SNAPLEN_HEADERS
            sub = gs.subscribe("q")
            gs.start()
            nic = Nic(service_us=1.0,
                      snaplen=snaplen if snapping else None)
            for packet in packets:
                nic.receive(packet, packet.timestamp * 1e6)
            gs.feed([packet for _, packet in nic.take_deliveries()])
            gs.flush()
            rows = sub.poll()
            results.append(([row[:3] for row in rows],
                            gs.stats()["q"]["tuples_in"]))
            assert [row[3] for row in rows] == (
                [134, 54, 134] if snapping else [174, 54, 174])
        assert results[0] == results[1]
        assert results[0][1] == 3
