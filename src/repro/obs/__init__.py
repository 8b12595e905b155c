"""``repro.obs``: the unified observability layer.

* :mod:`repro.obs.registry` -- typed metrics (counters, gauges,
  fixed-bucket histograms) with Prometheus-text and JSON exposition.
* :mod:`repro.obs.collectors` -- the canonical node/channel/NIC
  statistics snapshot every reporting surface is built on.
* :mod:`repro.obs.ledger` -- one declared ledger per control plane,
  rendered as metric families, ``_gs_*`` rows and report text.
* :mod:`repro.obs.tracing` -- sampled tuple-lineage tracing through the
  NIC -> LFTA -> channel -> HFTA -> sink path.
* :mod:`repro.obs.telemetry` -- self-telemetry: the engine's internals
  published as first-class ``_gs_*`` GSQL streams, plus the sampling
  pump profiler.
"""

from repro.obs.collectors import (
    NODE_EXTRA_ATTRS,
    bind_nic,
    engine_snapshot,
    install_engine_metrics,
    node_snapshot,
)
from repro.obs.telemetry import (
    TELEMETRY_STREAMS,
    PumpProfiler,
    TelemetryHub,
    TelemetryStreamNode,
    telemetry_schema,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.tracing import Tracer, trace_key

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Tracer",
    "trace_key",
    "NODE_EXTRA_ATTRS",
    "TELEMETRY_STREAMS",
    "PumpProfiler",
    "TelemetryHub",
    "TelemetryStreamNode",
    "bind_nic",
    "engine_snapshot",
    "install_engine_metrics",
    "node_snapshot",
    "telemetry_schema",
]
