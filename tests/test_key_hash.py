"""Slot placement of LFTA group keys (DESIGN section 18).

Placement decides which groups collide and which partials an LFTA
ejects, and with them every ``schedule`` golden digest.  The contract:
a key's slot is a function of the key's value alone -- the same in
every process, under every ``PYTHONHASHSEED`` -- and the LFTA's
generated probe (``codegen._place_key``, spliced into its loop) and
``DirectMappedTable``'s per-key methods agree on it.

A plan whose group key is statically all-integer places by the tuple
hash, builtin ``hash(k)``; its probe checks on each row every part that
is not an integer by construction (a function's result, a row
adapter's field), and a key with a stray there -- ``None``, ``bytes``,
``str``, ``float`` -- takes ``stable_hash``, so none of them reaches
``hash()`` (address-based for ``None`` on 3.11, seeded for ``bytes``
and ``str``).  Keys are drawn per declared GSQL type list, strays
arrive through a function-derived part, and each key's slot is read
off the real node -- on the row adapter and on a block kernel -- and
off a table placed by the node's own placement function; a second and
a third interpreter, under ``PYTHONHASHSEED`` 1 and 2, must place a
fixed corpus where this one does.
"""

import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.determinism import stable_hash, tuple_hash
from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import FunctionSpec, builtin_functions
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import Attribute, ProtocolSchema, builtin_registry
from repro.gsql.semantic import analyze
from repro.gsql.types import BOOL, FLOAT, INT, IP, IP6, STRING, UINT, ULLONG
from repro.net.packet import CapturedPacket
from repro.operators.lfta import LftaNode
from repro.operators.lfta_table import DirectMappedTable

from tests.conftest import tcp_packet

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
#: the package and ``tests``, for the script run below
PYTHONPATH = os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT])

#: what ``launder`` returns for these integers: every value a function
#: typed UINT could hand the probe that is not an integer (``True`` is
#: one, and hashes as 1)
STRAYS = {1: None, 2: b"x", 3: "x", 4: 2.75, 5: True, 6: math.nan,
          7: -0.0, 8: b"caf\xc3\xa9", 9: 1e22}

#: column name -> (declared type, run-time values of that type)
COLUMNS = {
    "u": (UINT, st.integers(0, 2**32 - 1)),
    "i": (INT, st.integers(-2**31, 2**31 - 1)),
    "l": (ULLONG, st.one_of(st.integers(0, 2**64 - 1),
                            st.sampled_from([0, 2**63, 2**63 + 1, 2**64 - 1]))),
    "a": (IP, st.integers(0, 2**32 - 1)),
    "a6": (IP6, st.one_of(st.integers(0, 2**128 - 1),
                          st.sampled_from([2**127, 2**128 - 1]))),
    "b": (BOOL, st.booleans()),
    "f": (FLOAT, st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1e22, 1e-7, math.nan, math.inf, -math.inf]))),
    "s": (STRING, st.one_of(
        st.binary(max_size=12),
        st.sampled_from([b"", b"caf\xc3\xa9", b"\xff\x00", b"it's"]))),
    # read only through ``launder``: the function-derived part
    "x": (UINT, st.one_of(st.sampled_from(sorted(STRAYS)),
                          st.integers(0, 2**32 - 1))),
}
#: group items: a column, or ``fx``, ``launder(x)``
ITEMS = sorted(set(COLUMNS) - {"x"}) + ["fx"]
TUPLE_HASHED = {"u", "i", "l", "a", "a6", "fx"}

#: the rows the probe protocol's expander hands out, by packet
ROWS = []


def functions():
    registry = builtin_functions()
    registry.register(FunctionSpec(
        "launder", lambda value: STRAYS.get(value, value), (UINT,), UINT))
    return registry


def probe_registry():
    """tcp, and one row-adapter protocol with a column of every GSQL
    type whose rows are :data:`ROWS`."""
    registry = builtin_registry()
    registry.add(ProtocolSchema(
        "probe",
        [Attribute("time", UINT)]
        + [Attribute(name, gsql_type) for name, (gsql_type, _) in COLUMNS.items()],
        {}, expander=lambda packet: [ROWS[int(packet.data)]]))
    return registry


#: a function-keyed 5-tuple on tcp, whose block kernel decodes the rest
TCP_KEY = ["time / 2 as tb", "srcIP", "srcPort", "launder(destPort) as d"]


def lfta(items, protocol="probe", size=4096):
    """The LFTA of ``Select items, count(*) From protocol Group by
    items``: each item a column, ``fx`` (``launder(x)``) or ``expr as
    name``."""
    group = ", ".join("launder(x) as fx" if item == "fx" else item
                      for item in items)
    names = ", ".join(item.split(" as ")[-1] for item in items)
    registry = functions()
    analyzed = analyze(
        parse_query(f"DEFINE query_name q; Select {names}, count(*) "
                    f"From {protocol} Group by {group}"),
        probe_registry(), registry)
    plan = plan_query(analyzed, registry)
    return LftaNode(plan.lftas[0], analyzed, ExprCompiler(analyzed, registry),
                    table_size=size)


def resident(table):
    """``(slot, key)`` of the one group ``table`` holds."""
    (slot, key), = [(slot, key) for slot, key in enumerate(table.keys)
                    if key is not None]
    return slot, key


def kernel_slots(node, packets):
    """Where ``node``'s generated loop places each packet's key, one
    block per packet on an emptied table: ``[(key, slot)]``."""
    placed = []
    for packet in packets:
        node.table.evict_all()
        node.accept_batch([packet])
        slot, key = resident(node.table)
        placed.append((key, slot))
    return placed


def table_slot(hash_key, size, key):
    """Where ``DirectMappedTable.upsert`` places ``key``."""
    table = DirectMappedTable(size, hash_key)
    table.upsert(key, list)
    slot, resident_key = resident(table)
    assert resident_key is key
    return slot


def value_slot(key, size):
    """The placement as a function of the value: the tuple hash of an
    all-integer key, ``stable_hash`` of any other."""
    if all(isinstance(part, int) for part in key):
        return hash(key) % size
    return stable_hash(key) % size


def probe_packets(items, rows):
    """Packets carrying ``rows`` (values of ``items``) in probe rows."""
    columns = ["time"] + list(COLUMNS)
    packets = []
    for values in rows:
        row = [None] * len(columns)
        row[0] = 0
        for item, value in zip(items, values):
            row[columns.index("x" if item == "fx" else item)] = value
        packets.append(CapturedPacket(timestamp=0.0,
                                      data=str(len(ROWS)).encode()))
        ROWS.append(tuple(row))
    return packets


def assert_agree(node, packets):
    """Kernel, table and value agree on every packet's key."""
    size = node.table.size
    for key, slot in kernel_slots(node, packets):
        assert table_slot(node.table._hash, size, key) == slot, key
        if node.table._hash is tuple_hash:
            assert value_slot(key, size) == slot, key
        else:
            assert stable_hash(key) % size == slot, key


@st.composite
def typed_keys(draw, choices=ITEMS, including=()):
    """(group items out of ``choices`` with every one of ``including``,
    rows of values drawn from their run-time domains)."""
    items = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=6,
                          unique=True))
    items += [item for item in including if item not in items]
    row = st.tuples(*(COLUMNS["x" if item == "fx" else item][1]
                      for item in items))
    return items, draw(st.lists(row, min_size=1, max_size=8))


class TestKernelAndTableAgree:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(typed_keys(), st.sampled_from([1, 2, 7, 4096]))
    def test_keys_of_every_declared_type_list(self, drawn, size):
        items, rows = drawn
        node = lfta(items, size=size)
        assert node.decode_fields is None          # the row adapter
        # The tuple hash is only ever picked for all-integer keys.
        assert (node.table._hash is tuple_hash) == set(items).issubset(
            TUPLE_HASHED)
        assert_agree(node, probe_packets(items, rows))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(typed_keys(sorted(TUPLE_HASHED), ["fx"]),
           st.sampled_from([7, 4096]))
    def test_integer_keys_with_a_function_part(self, drawn, size):
        items, rows = drawn
        node = lfta(items, size=size)
        assert node.table._hash is tuple_hash
        assert_agree(node, probe_packets(items, rows))

    @pytest.mark.parametrize("stray", sorted(STRAYS))
    def test_a_stray_in_a_function_part_takes_stable_hash(self, stray):
        """On a block kernel, where the header fields go unchecked."""
        node = lfta(TCP_KEY, protocol="tcp")
        assert node.decode_fields is not None      # a block kernel
        packets = [tcp_packet(ts=3.0, sport=sport, dport=dport)
                   for sport, dport in ((1000, 80), (1001, stray),
                                        (1002, 443))]
        assert kernel_slots(node, packets)[1][0][3] is STRAYS[stray]
        assert_agree(node, packets)

    def test_an_unhashable_part_stops_the_block_before_it(self):
        node = lfta(["fx"], size=7)
        STRAYS[10] = {"no": "primitive"}
        try:
            packets = probe_packets(["fx"], [(11,), (12,), (10,), (13,)])
            with pytest.raises(TypeError, match="stable_hash only covers"):
                node.accept_batch(packets)
        finally:
            del STRAYS[10]
        assert node.table.lookups == 2 and len(node.table) == 2


class TestWhichPlansTakeTheTupleHash:
    def reason(self, items, extra=""):
        registry = functions()
        analyzed = analyze(
            parse_query(f"DEFINE query_name q; Select count(*) From probe "
                        f"Group by {', '.join(items)}{extra}"),
            probe_registry(), registry)
        plan = plan_query(analyzed, registry)
        return ExprCompiler(analyzed, registry, {"p": 1}).stable_hash_reason(
            plan.lftas[0].group_exprs)

    def test_integer_keys_qualify(self):
        assert self.reason(["u", "i", "l", "a", "a6"]) is None
        assert self.reason(["i"], ", u / 2 as e, launder(x) as fx") is None

    def test_bool_float_and_string_do_not(self):
        assert self.reason(["u", "b"]) == "group key b is BOOL"
        assert self.reason(["u"], ", i = 3 as e") == "group key i = 3 is BOOL"
        assert self.reason(["f"]) == "group key f is FLOAT"
        assert self.reason(["u", "s"]) == "group key s is STRING"

    def test_a_query_parameter_does_not(self):
        """``$p`` is typed UINT but carries whatever the caller binds."""
        assert self.reason(["i"], ", u / $p as e") == (
            "group key u / $p reads $p")

    def test_only_parts_not_integral_by_construction_are_checked(self):
        kernel = lfta(["time / 2 as tb", "srcIP", "srcPort + 1 as p",
                       "launder(destPort) as d"], protocol="tcp")
        source, = (source for source in kernel._compiler.generated_sources
                   if source.startswith("def kernel("))
        assert source.count("_index_0(") == 1
        assert "_index_0(g3_0)" in source
        adapter = lfta(["u", "fx"])
        source = "\n".join(adapter._compiler.generated_sources)
        assert "_index(g0), _index(g1)" in source


def placement_corpus():
    """Slots of a fixed key corpus, every column mix and every stray,
    on the row adapter and on a block kernel."""
    corpus = {
        ("u", "a"): [(index * 2654435761 % 2**32, index) for index in range(64)],
        ("i", "fx"): [(index - 32, index % 12) for index in range(64)],
        ("a6", "l"): [(index << 100, 2**63 + index) for index in range(64)],
        ("u", "s"): [(index, bytes([index, 255 - index])) for index in range(64)],
        ("f", "b"): [(index / 7, index % 2 == 0) for index in range(64)],
    }
    out = {}
    for items, rows in corpus.items():
        for size in (7, 4096):
            node = lfta(list(items), size=size)
            out[f"{items} {size}"] = [
                slot for _, slot in kernel_slots(node, probe_packets(items, rows))]
    node = lfta(TCP_KEY, protocol="tcp")
    out["tcp"] = [slot for _, slot in kernel_slots(node, [
        tcp_packet(ts=float(index), sport=1000 + index, dport=index % 12)
        for index in range(64)])]
    return out


def test_placement_is_identical_in_two_fresh_interpreters():
    here = placement_corpus()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=PYTHONPATH)
        out = subprocess.run([sys.executable, __file__], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == here, hash_seed


if __name__ == "__main__":
    print(json.dumps(placement_corpus()))
