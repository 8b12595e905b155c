"""No generated loop calls a builtin type per item.

Calling ``int``, ``float``, ``str``, ``bytes``, ``bool``, ``tuple`` or
``list`` goes through the type's constructor, several times the cost of
a function call; inside a loop over packets, rows or groups it is paid
per item.  The generated code has none: ``time`` reads
``trunc(p.timestamp)``, tuples are displays, and a window close inlines
its final values.  This walks every loop the code generator wrote for
the GSQL corpus and for the benchmark's queries -- each query's own
sources (``Gigascope.generated_code``) and the run-time system's block
kernel, which joins them once a block has been fed.
"""

import ast

import pytest

from bench.workloads import WORKLOADS
from repro import Gigascope
from tests.conftest import tcp_packet, udp_packet
from tests.test_gsql_corpus import CORPUS, PARAMS

BUILTIN_TYPES = {"int", "float", "str", "bytes", "bool", "tuple", "list"}

CORPUS_QUERIES = [text for text, lftas, _, _ in CORPUS if lftas is not None]
BENCH_QUERIES = sorted({workload.gsql for workload in WORKLOADS.values()})


def type_calls_in_loops(source):
    """``(line, name)`` of each builtin-type call inside a ``for`` body."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            for statement in loop.body:
                for node in ast.walk(statement):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id in BUILTIN_TYPES):
                        found.add((node.lineno, node.func.id))
    return sorted(found)


def generated(text):
    """Every source generated for ``text``'s queries, a block fed."""
    gs = Gigascope()
    if "query_name" in text:
        names = gs.add_queries(text)
    else:
        names = [gs.add_query(text, params=PARAMS, name="q")]
    gs.start()
    gs.feed([tcp_packet(ts=1.0 + i, dport=80, interface=f"eth{i % 2}")
             for i in range(4)]
            + [udp_packet(ts=5.0, dport=53)])
    gs.flush()
    return {name: gs.generated_code(name) for name in names}


@pytest.mark.parametrize("text", CORPUS_QUERIES + BENCH_QUERIES,
                         ids=[f"corpus{i:02d}" for i in range(
                             len(CORPUS_QUERIES))]
                         + [f"bench{i}" for i in range(len(BENCH_QUERIES))])
def test_no_loop_calls_a_builtin_type(text):
    for name, source in generated(text).items():
        assert type_calls_in_loops(source) == [], (name, source)


def test_the_walk_sees_the_kernels_and_the_close():
    """The sources walked above include the RTS's kernel, its ``time``
    read and the aggregation's window close."""
    sources = "\n".join(generated(
        "DEFINE query_name q; Select tb, count(*) From eth0.tcp "
        "Group by time/10 as tb").values())
    assert "def kernel(packets):" in sources
    assert "(trunc(p.timestamp) // 10" in sources
    assert "def _g" in sources and "r = pop(k)" in sources
    assert type_calls_in_loops(
        "for p in it:\n    t = int(p.timestamp)\n") == [(2, "int")]
