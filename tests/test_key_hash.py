"""The per-plan key-hash format against ``stable_hash`` (DESIGN section 18).

Slot placement decides which groups collide, which partials an LFTA
ejects and therefore every golden digest, so the generated hasher may
never disagree with ``stable_hash`` on a key its plan can produce.
Keys are drawn per declared GSQL type list: the compiler decides the
format from the types, the values come from each type's run-time
domain, and the hasher the table would use is held to ``stable_hash``.
"""

import hashlib
import math
import os
import subprocess
import sys
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.determinism import (
    _canonical,
    int_key_format,
    key_hasher,
    stable_hash,
)
from repro.gsql.codegen import ExprCompiler, _place_key
from repro.gsql.functions import builtin_functions
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import Attribute, ProtocolSchema, SchemaRegistry
from repro.gsql.semantic import analyze
from repro.gsql.types import BOOL, FLOAT, INT, IP, IP6, STRING, UINT, ULLONG
from repro.operators.lfta_table import DirectMappedTable
from tests.reference.evaluator import ReferenceEvaluator

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
#: the package and ``tests.reference``, for the script run below
PYTHONPATH = os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT])


def stable_slots(keys, size, fmt=None):
    """``(slots, error)``: where the LFTA's generated probe places
    ``keys`` -- the very lines ``ExprCompiler.lfta_action`` splices in
    (``_place_key``), run key by key as its loop runs them -- stopping
    before the first key ``stable_hash`` does not cover, with its
    ``TypeError``."""
    env = {"_crc32": zlib.crc32}
    exec("def place(k, size, hash_key):\n"
         + "".join(f"    {line}\n" for line in _place_key(fmt))
         + "    return i\n", env)
    hash_key = key_hasher(fmt)
    slots = []
    try:
        for key in keys:
            slots.append(env["place"](key, size, hash_key))
    except TypeError as error:
        return slots, error
    return slots, None

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
        st.sampled_from([b"", b"caf\xc3\xa9", b"\xff\x00", b"it's", b'say "hi"',
                         b"back\\slash", b"'", b"\n"]))),
}
INT_COLUMNS = {"u", "i", "l", "a", "a6"}


def probe_registry():
    """One protocol with a column of every GSQL type."""
    registry = SchemaRegistry()
    registry.add(ProtocolSchema(
        "probe",
        [Attribute(name, gsql_type) for name, (gsql_type, _) in COLUMNS.items()],
        {}, expander=lambda packet: []))
    return registry


def plan_key(columns, extra=""):
    """``(fmt, key_of)`` for ``Group by columns``: the key-hash format
    the compiler picks, and ``key_of(values)``, the group key its
    generated code builds from a probe row carrying ``values`` in those
    columns -- held to the reference evaluator's key for the row."""
    functions = builtin_functions()
    group = ", ".join(columns)
    registry = probe_registry()
    analyzed = analyze(
        parse_query(f"DEFINE query_name q; Select {group}, count(*) "
                    f"From probe Group by {group}{extra}"),
        registry, functions)
    exprs = plan_query(analyzed, functions).lftas[0].group_exprs
    compiler = ExprCompiler(analyzed, functions, {"p": 1})
    generated = compiler.tuple_fn(exprs)
    reference = ReferenceEvaluator(analyzed, functions, {"p": 1}).tuple_fn(
        exprs)
    probe = registry.get("probe")

    def key_of(values):
        row = [None] * len(probe)
        for name, value in zip(columns, values):
            row[probe.index_of(name)] = value
        key = generated(tuple(row))
        assert key == reference(tuple(row))
        return key

    return compiler.key_hash_format(exprs), key_of


def plan_format(columns, extra=""):
    """The key-hash format the compiler picks for ``Group by columns``."""
    return plan_key(columns, extra)[0]


@st.composite
def typed_keys(draw):
    """(column list, keys drawn from the columns' run-time domains)."""
    columns = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1,
                            max_size=6, unique=True))
    row = st.tuples(*(COLUMNS[name][1] for name in columns))
    return columns, draw(st.lists(row, min_size=1, max_size=8))


class TestGeneratedHasherIsStableHash:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(typed_keys(), st.sampled_from([1, 2, 7, 4096]))
    def test_keys_of_every_declared_type_list(self, drawn, size):
        columns, values = drawn
        fmt, key_of = plan_key(columns)
        # the key the generated group expressions build, value for value
        keys = [key_of(row) for row in values]
        assert keys == values
        # The %d format is only ever picked for all-integer keys.
        assert (fmt is not None) == set(columns).issubset(INT_COLUMNS)
        if fmt is not None:
            assert fmt == int_key_format(len(columns))
        hash_key = key_hasher(fmt)
        expected = [stable_hash(key) for key in keys]
        assert [hash_key(key) for key in keys] == expected
        assert stable_slots(keys, size, fmt) == (
            [value % size for value in expected], None)
        table = DirectMappedTable(size, fmt)
        for key in keys:
            table.upsert(key, list)
            slots = table.snapshot_state()["slots"]
            assert slots[stable_hash(key) % size][0] == key

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-2**70, 2**130), min_size=0, max_size=8))
    @example([0])
    @example([-1, 0, 2**63, 2**64, 2**128 - 1])
    def test_int_format_is_the_canonical_encoding(self, values):
        key = tuple(values)
        fmt = int_key_format(len(key))
        assert fmt % key == _canonical(key)
        assert key_hasher(fmt)(key) == stable_hash(key)

    def test_one_column_key_has_no_trailing_comma(self):
        assert int_key_format(1) % (5,) == _canonical((5,)) == b"(5)"
        assert int_key_format(0) % () == _canonical(()) == b"()"

    def test_bool_does_not_qualify(self):
        """``%d`` prints True as 1; ``stable_hash`` prints ``True``."""
        assert plan_format(["u", "b"]) is None
        assert stable_hash((1, True)) != stable_hash((1, 1))
        # A boolean *expression* over integer columns is BOOL too.
        assert plan_format(["u"], ", i = 3 as e") is None

    def test_float_and_string_do_not_qualify(self):
        assert plan_format(["f"]) is None
        assert plan_format(["u", "s"]) is None
        assert stable_hash((-0.0,)) != stable_hash((0.0,))
        assert stable_hash((1e22,)) != stable_hash((10**22,))

    def test_a_query_parameter_does_not_qualify(self):
        """``$p`` is typed UINT but carries whatever the caller binds."""
        assert plan_format(["i"], ", u / $p as e") is None
        assert plan_format(["i"], ", u / 2 as e") == int_key_format(2)


class TestRuntimeFallback:
    """A declared-integer slot carrying something else at run time."""

    @pytest.mark.parametrize("stray", [None, b"x", "x", b"caf\xc3\xa9"])
    def test_unrenderable_value_takes_stable_hash(self, stray):
        fmt = int_key_format(3)
        keys = [(1, 2, 3), (4, stray, 6), (7, 8, 9)]
        expected = [stable_hash(key) for key in keys]
        assert [key_hasher(fmt)(key) for key in keys] == expected
        # The stray key falls back to ``stable_hash`` on its own; the
        # integer keys around it keep their slots.
        assert stable_slots(keys, 4096, fmt) == (
            [value % 4096 for value in expected], None)

    def test_wrong_width_key_takes_stable_hash(self):
        fmt = int_key_format(2)
        assert key_hasher(fmt)((1, 2, 3)) == stable_hash((1, 2, 3))
        assert key_hasher(fmt)((1,)) == stable_hash((1,))

    @pytest.mark.parametrize("stray", [2.75, True, -0.0])
    def test_value_the_format_renders_still_places_deterministically(
            self, stray):
        """A float or bool in a declared-integer slot is outside the
        identity contract (``%d`` renders it as an integer) but its
        slot depends on the value alone, never on the process."""
        fmt = int_key_format(2)
        key = (5, stray)
        assert key_hasher(fmt)(key) == stable_hash((5, int(stray)))
        assert stable_slots([key], 4096, fmt)[0] == [
            stable_hash((5, int(stray))) % 4096]

    def test_unhashable_key_stops_the_block_before_it(self):
        fmt = int_key_format(1)
        keys = [(1,), (2,), ({"no": "primitive"},), (4,)]
        for each in (fmt, None):
            slots, error = stable_slots(keys, 7, each)
            assert slots == [stable_hash((1,)) % 7, stable_hash((2,)) % 7]
            assert isinstance(error, TypeError)
            assert "stable_hash only covers" in str(error)


def placement_digest():
    """Slots of a fixed key corpus, every column mix: must not depend
    on ``PYTHONHASHSEED``."""
    digest = hashlib.sha256()
    corpus = {
        ("u", "a"): [(index * 2654435761 % 2**32, index) for index in range(64)],
        ("i",): [(index - 32,) for index in range(64)],
        ("a6", "l"): [(index << 100, 2**63 + index) for index in range(64)],
        ("u", "s"): [(index, bytes([index, 255 - index])) for index in range(64)],
        ("f", "b"): [(index / 7, index % 2 == 0) for index in range(64)],
    }
    for columns, keys in corpus.items():
        fmt = plan_format(list(columns))
        digest.update(repr(stable_slots(keys, 4096, fmt)[0]).encode())
        digest.update(repr(stable_slots(
            keys + [(None,) * len(columns)], 7, fmt)[0]).encode())
    return digest.hexdigest()


def test_placement_is_identical_under_two_hash_seeds():
    digests = set()
    for hash_seed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=PYTHONPATH)
        out = subprocess.run([sys.executable, __file__], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1 and all(digests)


if __name__ == "__main__":
    print(placement_digest())
