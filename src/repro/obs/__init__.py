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

The names below are imported on first access (:mod:`repro._lazy`): the
engine loads the registry, the collectors and the ledger; tracing and
telemetry load in ``enable_tracing`` and ``enable_telemetry``.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(globals(), {
    "repro.obs.registry": ("Counter", "Gauge", "Histogram", "MetricError",
                           "MetricsRegistry"),
    "repro.obs.tracing": ("Tracer", "trace_key"),
    "repro.obs.collectors": ("NODE_EXTRA_ATTRS", "bind_nic",
                             "engine_snapshot", "install_engine_metrics",
                             "node_snapshot"),
    "repro.obs.telemetry": ("TELEMETRY_STREAMS", "PumpProfiler",
                            "TelemetryHub", "TelemetryStreamNode",
                            "telemetry_schema"),
})
