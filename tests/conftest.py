"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.gsql.parser import parse_query
from repro.gsql.planner import plan_query
from repro.gsql.schema import builtin_registry
from repro.gsql.semantic import analyze
from repro.net.build import build_tcp_frame, build_udp_frame, capture


@pytest.fixture(scope="session")
def registry():
    return builtin_registry()


@pytest.fixture(scope="session")
def functions():
    return builtin_functions()


@pytest.fixture
def compile_plan(registry, functions):
    """compile_plan(text, streams=None, params=None) ->
    (analyzed, plan, compiler)"""

    def build(text, streams=None, params=None):
        analyzed = analyze(parse_query(text), registry, functions,
                           stream_resolver=(streams or {}).get)
        plan = plan_query(analyzed, functions)
        compiler = ExprCompiler(analyzed, functions, params)
        return analyzed, plan, compiler

    return build


def tcp_packet(ts=0.0, src="10.0.0.1", dst="192.168.1.1", sport=1234,
               dport=80, payload=b"", interface="eth0", **kw):
    frame = build_tcp_frame(src, dst, sport, dport, payload=payload, **kw)
    return capture(frame, ts, interface)


def udp_packet(ts=0.0, src="10.0.0.1", dst="192.168.1.1", sport=53,
               dport=5353, payload=b"", interface="eth0"):
    frame = build_udp_frame(src, dst, sport, dport, payload=payload)
    return capture(frame, ts, interface)
