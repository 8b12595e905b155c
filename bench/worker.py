"""One workload, measured inside its own fresh interpreter.

``python3 -m bench _worker`` is started by :mod:`bench.runner` with a
scrubbed environment; it prints one JSON object.  ``--trace 0`` runs the
timed rounds (tracing off) and checks the output against the oracle;
``--trace 1`` runs a few untraced rounds for reference and then the
chunked, wrapped run that yields the per-layer numbers.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

_IMPORT_BEGAN = time.perf_counter()
import repro  # noqa: E402,F401  (timed: gsql.import_s)
IMPORT_S = time.perf_counter() - _IMPORT_BEGAN

from bench import loadgen, oracle, tracing  # noqa: E402
from bench.calibrate import SEGMENT, Pacer  # noqa: E402
from bench.spec import PER_LAYER  # noqa: E402
from bench.workloads import WORKLOADS, Workload, losses, run_once  # noqa: E402

MIN_ROUNDS = 5
#: packets per feed() call of the traced run, and per pump cycle everywhere
CHUNK = 1024
#: untraced rounds of the traced run (reference for trace.overhead_ratio,
#: planes.tax and shard.speedup)
REFERENCE_ROUNDS = 5
#: chunks between kernel samples of the traced run
TRACED_SAMPLE_EVERY = 16

median = statistics.median


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Round:
    raw_s: float
    reference_s: float
    #: this process and its reaped shard workers, raw CPU seconds
    cpu_s: float
    #: what the engine says it dropped, shed or quarantined
    lost: int

    @property
    def scaled_cpu_s(self) -> float:
        """CPU time slows with the box exactly as wall time does."""
        return self.cpu_s * self.reference_s / self.raw_s


def run_round(workload: Workload, segments: List[list]):
    """One pass over the timed region: fresh engine (built outside it),
    feed, flush, poll -- with the kernel sampled between segments.
    Returns the round's times and, separately, its rows: holding every
    round's rows would make peak RSS grow with the number of rounds."""
    gc.collect()  # the last round's engine: peak RSS must not depend on luck
    engine, subscriptions = workload.build()
    pacer = Pacer(segments)
    children = _children_cpu()
    pacer.sample(3)
    rows = run_once(engine, subscriptions, pacer)
    pacer.sample(3)
    raw_s, reference_s, cpu_s = pacer.elapsed()
    return Round(raw_s, reference_s, cpu_s + _children_cpu() - children,
                 losses(engine)), rows


def _generate(workload: Workload, seed: int, smoke: bool):
    began = time.perf_counter()
    generated = workload.generate(seed, loadgen.SMOKE_SCALE if smoke else 1.0)
    gen_s = time.perf_counter() - began
    # the packets are immortal for this process: keep the collector off them
    gc.collect()
    gc.freeze()
    packets = generated.packets
    segments = [packets[i:i + SEGMENT] for i in range(0, len(packets), SEGMENT)]
    return generated, segments, gen_s


def timed(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """``--trace 0``: rounds until ``seconds`` of timed region have run
    (at least MIN_ROUNDS; two in smoke), then the oracle."""
    workload = WORKLOADS[name]
    generated, segments, _ = _generate(workload, seed, smoke)
    packets = generated.packets
    # warm-up: caches, allocator, generated code
    warm_up, first_rows = run_round(workload, segments)
    rounds: List[Round] = []
    least, budget_s = (2, 0.0) if smoke else (MIN_ROUNDS, seconds)
    while len(rounds) < least or sum(r.raw_s for r in rounds) < budget_s:
        timing, rows = run_round(workload, segments)
        if rows != first_rows:
            raise AssertionError(f"{name}: rows differ between rounds")
        rounds.append(timing)
    expected = workload.oracle(packets, generated.truth)
    oracle.selftest(expected, first_rows)
    failed, attempted = oracle.failed_rows(expected, first_rows)
    if any(r.lost for r in [warm_up] + rounds):
        failed = attempted
    return {
        "packets": len(packets),
        "virtual_span_s": generated.virtual_span_s,
        "digest": loadgen.digest(packets),
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "round_raw_s": [r.raw_s for r in rounds],
        "samples": {
            "throughput_pps": [len(packets) / r.reference_s for r in rounds],
            "cpu_us_per_pkt": [r.scaled_cpu_s / len(packets) * 1e6
                               for r in rounds],
            "rss_peak_mb": [resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024],
        },
    }


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def _reference(workload: Workload, segments, packets, smoke: bool) -> dict:
    """Untraced rounds: what the traced run is compared with, and -- for
    a workload read against a baseline -- the baseline's rounds,
    interleaved with its own so both see the same box."""
    run_round(workload, segments)  # warm-up
    baseline = WORKLOADS.get(workload.baseline)
    own: List[Round] = []
    base: List[Round] = []
    for _ in range(2 if smoke else REFERENCE_ROUNDS):
        if baseline is not None:
            base.append(run_round(baseline, segments)[0])
        own.append(run_round(workload, segments)[0])
    out = {
        "reference_s": median(r.reference_s for r in own),
        "box.raw_pps": median(len(packets) / r.raw_s for r in own),
        "box.speed": median(r.reference_s / r.raw_s for r in own),
    }
    if base:
        speedup = median(r.reference_s for r in base) / out["reference_s"]
        if workload.planes:
            out["planes.tax"] = 1.0 - speedup
        else:
            out["shard.speedup"] = speedup
            out["shard.cpu_ratio"] = (median(r.scaled_cpu_s for r in own)
                                      / median(r.scaled_cpu_s for r in base))
    return out


def _setup_breakdown(workload: Workload) -> Dict[str, float]:
    """Where ``setup_s`` goes: one wrapped engine build."""
    recorder = tracing.Recorder()
    with tracing.Wraps(tracing.SETUP_TARGETS, recorder):
        workload.build()
    return {f"gsql.{layer}_s": recorder.self_s[f"gsql.{layer}"]
            for layer in ("parse", "analyze", "plan", "codegen")}


def _tail(values: List[float], beyond: int = 10):
    """The highest order statistic with ``beyond`` samples above it and
    the percentile it stands for (the maximum, as 100, of a small sample)."""
    ordered = sorted(values)
    index = len(ordered) - 1 - (beyond if len(ordered) > beyond else 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@dataclass
class TracedRun:
    """What the wrapped, chunked run observed."""
    recorder: tracing.Recorder
    engine: object
    wraps_missing: int
    rows: Dict[str, List[tuple]]
    #: per row of a closed window: virtual seconds from close to poll()
    lags: List[float]
    #: duration of every root span (the last one is the flush)
    chunk_ms: List[float]
    #: high-water marks of operator state, sampled between chunks
    peaks: Dict[str, int]
    raw_s: float
    reference_s: float
    own_cpu_s: float
    children_cpu_s: float


def _run_traced(workload: Workload, packets: list) -> TracedRun:
    """CHUNK packets per ``feed()``, a ``poll()`` of every output after
    each: every chunk is a root span whose id its descendants share."""
    recorder = tracing.Recorder()
    rows: Dict[str, List[tuple]] = defaultdict(list)
    lags: List[float] = []
    chunk_ms: List[float] = []
    peaks: Dict[str, int] = defaultdict(int)
    pacer = Pacer(())
    end_of_stream = packets[-1].timestamp

    def root(body, now: float) -> None:
        recorder.chunk += 1
        began = time.perf_counter()
        recorder.begin("chunk")
        body()
        polled = {output: sub.poll() for output, sub in subscriptions.items()}
        recorder.end()
        chunk_ms.append((time.perf_counter() - began) * 1e3)
        for output, new in polled.items():
            rows[output].extend(new)
            bucket = workload.outputs.get(output)
            if bucket:
                lags.extend(now - (row[0] + 1) * bucket for row in new
                            if (row[0] + 1) * bucket <= end_of_stream)

    with tracing.Wraps(tracing.RUN_TARGETS, recorder) as wraps:
        # a sharded parent decodes nothing, and its feed() forks the
        # workers: one call, not one per chunk
        engine, subscriptions = workload.build(
            None if workload.sharded else
            lambda fresh: tracing.wrap_decoders(fresh, recorder))
        step = len(packets) if workload.sharded else CHUNK
        own_cpu, children_cpu = time.process_time(), _children_cpu()
        for position in range(0, len(packets), step):
            if position % (step * TRACED_SAMPLE_EVERY) == 0:
                pacer.sample()
            chunk = packets[position:position + step]
            root(lambda: engine.feed(chunk, pump_every=CHUNK),
                 chunk[-1].timestamp)
            for entry in engine.stats().values():
                held = "join" if "pairs_emitted" in entry else "merge"
                peaks[held] = max(peaks[held], entry.get("buffered", 0))
                peaks["groups"] = max(peaks["groups"],
                                      entry.get("open_groups", 0))
        pacer.sample()
        root(engine.flush, end_of_stream)
        pacer.sample()
        own_cpu = time.process_time() - own_cpu
        children_cpu = _children_cpu() - children_cpu
    raw_s, reference_s, _ = pacer.elapsed()
    return TracedRun(recorder, engine, wraps.missing, dict(rows), lags,
                     chunk_ms, peaks, raw_s, reference_s, own_cpu,
                     children_cpu)


def traced(name: str, seed: int, smoke: bool, out_dir: Path) -> dict:
    """``--trace 1``: every per-layer metric of one workload."""
    workload = WORKLOADS[name]
    generated, segments, gen_s = _generate(workload, seed, smoke)
    packets = generated.packets
    metrics: Dict[str, float] = defaultdict(float)
    digest = loadgen.digest(packets)
    metrics.update({
        "loadgen.gen_s": gen_s,
        "loadgen.packets": len(packets),
        "loadgen.bytes": generated.nbytes,
        "loadgen.virtual_span_s": generated.virtual_span_s,
        "loadgen.digest": int(digest[:12], 16),
        "gsql.import_s": IMPORT_S,
    })
    reference = _reference(workload, segments, packets, smoke)
    untraced_s = reference.pop("reference_s")
    metrics.update(reference)
    metrics.update(_setup_breakdown(workload))

    run = _run_traced(workload, packets)
    region_s = sum(run.chunk_ms) / 1e3
    layers = dict(run.recorder.self_s)
    layers.pop("chunk")  # the roots' own self time is this file's loop
    calls, counted = run.recorder.calls, run.recorder.counted

    def layer(metric: str, *names: str, share: str = "") -> None:
        seconds = sum(layers.get(n, 0.0) for n in names)
        metrics[f"{metric}_s"] = seconds
        if share:
            metrics[share] = seconds / region_s

    layer("core.feed_self", "core.feed", "core.flush", "shard.feed",
          "shard.flush", share="core.feed_share")
    layer("core.pump_self", "core.pump", share="core.pump_share")
    layer("net.decode", "net.decode", share="net.decode_share")
    layer("lfta.accept_self", "lfta.accept", share="lfta.accept_share")
    layer("lfta.table", "lfta.table", share="lfta.table_share")
    layer("hfta.merge", "hfta.merge", share="hfta.merge_share")
    layer("hfta.agg", "hfta.agg", share="hfta.agg_share")
    layer("hfta.join", "hfta.join", "hfta.join_probe", share="hfta.join_share")
    layer("sinks.poll", "sinks.poll")
    for plane in ("shed", "telemetry", "alerts", "recovery"):
        layer(f"planes.{plane}", f"planes.{plane}")
    tail_ms, tail_pct = _tail(run.chunk_ms)
    metrics.update({
        "core.pump_cycles": calls["core.pump"],
        "core.chunk_ms_p50": median(run.chunk_ms),
        "core.chunk_ms_tail": tail_ms,
        "core.chunk_tail_pct": tail_pct,
        "net.decode_blocks": calls["net.decode"],
        "net.decode_pkts": counted["net.decode"],
        "net.decode_ns_per_pkt": (layers.get("net.decode", 0.0) * 1e9
                                  / max(counted["net.decode"], 1)),
        "hfta.open_groups_peak": run.peaks["groups"],
        "hfta.merge_buffered_peak": run.peaks["merge"],
        "hfta.join_buffered_peak": run.peaks["join"],
        "hfta.join_probes_per_tuple": (counted["hfta.join_probe"]
                                       / max(calls["hfta.join_probe"], 1)),
        "sinks.rows": sum(len(out) for out in run.rows.values()),
        "planes.journal_items": counted["planes.recovery"],
        "result_lag_vs_p50": median(run.lags) if run.lags else 0.0,
        "result_lag_vs_max": max(run.lags, default=0.0),
        "trace.spans": len(run.recorder.spans),
        "trace.wraps_missing": run.wraps_missing,
        "trace.coverage": sum(layers.values()) / region_s,
        "trace.overhead_ratio": (region_s * run.reference_s / run.raw_s
                                 / untraced_s),
    })
    metrics.update(_counts(run.engine, workload.sharded, len(packets)))
    if workload.sharded:
        metrics["shard.parent_cpu_s"] = run.own_cpu_s
        metrics["shard.worker_cpu_s"] = run.children_cpu_s

    expected = workload.oracle(packets, generated.truth)
    failed, attempted = oracle.failed_rows(expected, run.rows)
    if losses(run.engine):
        failed = attempted
    metrics["oracle.failed_share"] = failed / attempted
    unlisted = set(metrics) - set(PER_LAYER)
    if unlisted:
        raise AssertionError(f"not in BENCHMARK.json: {sorted(unlisted)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"trace-{name}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "packets": len(packets),
        "span_fields": ["name", "start", "end", "parent", "chunk"],
        "spans": run.recorder.spans,
        "self_s": run.recorder.self_s, "calls": calls,
    }))
    return {"packets": len(packets), "attempted": attempted,
            "failed": failed, "digest": digest,
            "virtual_span_s": generated.virtual_span_s,
            # a layer this workload does not run reports 0
            "metrics": {name: metrics[name] for name in PER_LAYER}}


def _counts(engine, sharded: bool, packets: int) -> Dict[str, float]:
    """Counts the engine keeps itself; they repeat exactly."""
    out: Dict[str, float] = defaultdict(float)
    for name, entry in engine.stats().items():
        if "packets_seen" in entry:
            side = "lfta"
            out["lfta.discarded"] += entry["discarded"]
            out["lfta.table_collisions"] += entry.get("hash_collisions", 0)
        elif name.startswith("_gs_") or "epochs_evaluated" in entry:
            continue  # telemetry sources and triggers are planes, not HFTAs
        else:
            side = "hfta"
            out["hfta.join_pairs"] += entry.get("pairs_emitted", 0)
        out[f"{side}.tuples_in"] += entry["tuples_in"]
        out[f"{side}.tuples_out"] += entry["tuples_out"]
        for channel in entry.get("channels", {}).values():
            out["channels.pushed"] += channel["pushed"]
            out["channels.dropped"] += channel["dropped"]
            out["channels.max_depth"] = max(out["channels.max_depth"],
                                            channel["max_depth"])
    out["lfta.reduction_ratio"] = out["lfta.tuples_out"] / packets
    if sharded:
        report = engine.shard_report()
        out["shard.skew"] = (max(report["packets"]) * len(report["packets"])
                             / sum(report["packets"]))
        out["shard.rows_shipped"] = sum(report["rows"])
        out["shard.restarts"] = sum(report["restarts"])
        out["shard.merge_rows"] = sum(
            entry["tuples_in"] for name, entry in engine.stats().items()
            if name.startswith("merge/"))
        return out
    rts = engine.rts
    out["core.heartbeats_sent"] = rts.heartbeats_sent
    out["core.blocks_fed"] = rts.batches_fed
    for _, node in rts.iter_nodes():
        table = getattr(node, "table", None)
        if table is not None:
            out["lfta.table_lookups"] += table.lookups
    out["lfta.table_collision_rate"] = (
        out["lfta.table_collisions"] / max(out["lfta.table_lookups"], 1))
    recovery = engine.recovery_report()
    if recovery is not None:
        out["planes.checkpoints"] = recovery["checkpoints_taken"]
        out["planes.checkpoint_bytes"] = recovery["checkpoint_bytes"]
    telemetry = engine.telemetry_report()
    if telemetry is not None:
        out["planes.telemetry_rows"] = sum(telemetry["rows"].values())
    return out
