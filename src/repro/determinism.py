"""Deterministic replay: stable hashing, seeded RNGs, and the verifier.

The paper's argument is *accountable* loss -- tuples are dropped only
where the system says they are (NIC ring, prefilter, shedding), and the
numbers stay interpretable under overload.  That argument is only
checkable if the system can replay itself: the same scenario and seed
must produce the same samples, the same shed packets, the same
direct-mapped-table ejections, and therefore the same sink rows and
drop ledger -- in *any* process, regardless of ``PYTHONHASHSEED``.

Three tools enforce that contract:

* :func:`stable_hash` -- a crc32 over a canonical encoding of (nested)
  primitive values.  Python's builtin ``hash()`` of str/bytes is
  randomized per process; every data-path placement decision (the
  LFTA's direct-mapped table slots) routes through this instead.
  :func:`int_key_format` / :func:`key_hasher` compute the same number
  for all-integer group keys without the ``repr`` walk.
* :func:`rng_for` / :func:`derive_seed` -- the seeded RNG registry.
  Every data-path consumer of randomness (``DEFINE sample`` gates, the
  overload-control shed gate, workload generators) derives its own
  named, independent ``random.Random`` stream from one engine seed, so
  adding a consumer never perturbs the draws of another.
* :func:`verify_replay` -- runs a scenario twice in subprocesses with
  *different* ``PYTHONHASHSEED`` values and diffs the sink rows, the
  drop ledger, the node statistics, and the metrics snapshot.  Any
  surviving use of process-randomized ``hash()`` on the data path shows
  up as a diff.

Command line (via the :mod:`repro.replay` shim)::

    python -m repro.replay run    --scenario mixed --seed 7
    python -m repro.replay verify --scenario mixed --seed 7
    python -m repro.replay verify-recovery --scenario recovery_agg
    python -m repro.replay verify-alerts
    python -m repro.replay verify-telemetry
    python -m repro.replay verify-shard --shards 4
    python -m repro.replay verify-failover

``verify-recovery`` is the recovery plane's acceptance gate: a run
that crashes an operator mid-stream and recovers it (checkpoint
restore + journal replay, see :mod:`repro.recovery`) must be
byte-identical to the run without the crash.  ``verify-alerts`` is the
alert plane's: the SYN-flood and port-scan alert streams must be
byte-identical across ``PYTHONHASHSEED`` values *and* across a
crash/restore of the trigger node itself.  ``verify-telemetry`` is the
self-telemetry plane's: the ``_gs_*`` streams (and the meta-query and
meta-alert outputs computed from them) must be byte-identical across
``PYTHONHASHSEED`` values and across a mid-run crash/restore of the
meta-query node.  ``verify-shard`` is the sharded runtime's: the
hash-partitioned multi-process run (``repro.shard``) must match the
single-process run byte-for-byte, per hash seed, including an arm
where one worker is killed mid-stream and respawned from the parent's
fold of its state frames.  ``verify-failover`` is the replication
plane's (DESIGN section 16): a primary killed at a snapshot epoch,
after a delta frame, mid-frame (torn write), or mid-delta-interval
must -- after the warm standby is promoted, replays its journal tail,
and resumes the feed from the recorded cursor -- produce output
byte-identical to the uninterrupted run, per hash seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_NAMESPACE = zlib.crc32(b"repro.determinism")

#: value types :func:`stable_hash` accepts; their ``repr`` is defined by
#: the language, not by the process (no addresses, no hash ordering)
_STABLE_TYPES = (type(None), bool, int, float, str, bytes)


def _canonical(obj: Any) -> bytes:
    """A process-stable byte encoding of a nested primitive value."""
    if isinstance(obj, _STABLE_TYPES):
        return repr(obj).encode("utf-8", "backslashreplace")
    if isinstance(obj, (tuple, list)):
        return b"(" + b",".join(_canonical(item) for item in obj) + b")"
    raise TypeError(
        f"stable_hash only covers primitives and tuples of them, "
        f"got {type(obj).__name__}"
    )


def stable_hash(obj: Any) -> int:
    """Process-stable 32-bit hash of a group key (or any primitive nest).

    Unlike builtin ``hash()``, the result does not depend on
    ``PYTHONHASHSEED``, so hash-table placement -- and therefore
    collision/ejection behavior -- replays identically across runs.
    """
    return zlib.crc32(_canonical(obj))


def int_key_format(width: int) -> bytes:
    """The ``%``-format that renders a ``width``-tuple of ints exactly
    as :func:`_canonical` does: ``fmt % key == _canonical(key)``.

    ``repr`` of an ``int`` is its decimal digits, which is what ``%d``
    prints, so for such keys ``crc32(fmt % key)`` *is*
    ``stable_hash(key)`` at a fifth of the cost.  The identity holds
    for ``int`` only: ``%d`` prints ``True`` as ``1`` and truncates a
    ``float``, so a plan may use the format only when every key slot
    is statically an integer (``ExprCompiler.key_hash_format``);
    ``None``/``bytes``/``str`` make ``%d`` raise ``TypeError``, which
    :func:`key_hasher` (and the LFTA's generated probe) turns into
    the :func:`stable_hash` fallback.
    """
    return b"(" + b",".join([b"%d"] * width) + b")"


def key_hasher(fmt: Optional[bytes]) -> Callable[[Any], int]:
    """:func:`stable_hash` for the keys of one plan: through ``fmt``
    (an :func:`int_key_format`) where it renders the key, through
    :func:`_canonical` otherwise.  ``fmt=None`` is ``stable_hash``."""
    if fmt is None:
        return stable_hash
    crc32 = zlib.crc32

    def hash_key(key: Any) -> int:
        try:
            return crc32(fmt % key)
        except TypeError:
            return stable_hash(key)
    return hash_key


def derive_seed(seed: int, *names: Any) -> int:
    """Derive an independent 32-bit stream seed from ``seed`` and names.

    Chained crc32 over the engine seed and the consumer's name path,
    e.g. ``derive_seed(7, "lfta.sample", "_fta_q_eth0")``.  Stable
    across processes and insensitive to registration order.
    """
    acc = _NAMESPACE ^ (seed & 0xFFFFFFFF)
    for name in names:
        acc = zlib.crc32(str(name).encode("utf-8"), acc)
    return acc


def rng_for(seed: int, *names: Any) -> random.Random:
    """A named, independent RNG stream from the seeded registry."""
    return random.Random(derive_seed(seed, *names))


# ---------------------------------------------------------------------------
# Replay scenarios
# ---------------------------------------------------------------------------

#: name -> callable(seed) returning a JSON-serializable snapshot dict
SCENARIOS: Dict[str, Callable[[int], Dict[str, Any]]] = {}


def scenario(name: str):
    """Register a replay scenario under ``name``."""
    def register(fn):
        SCENARIOS[name] = fn
        return fn
    return register


def snapshot_engine(gs, subscriptions: Dict[str, Any]) -> Dict[str, Any]:
    """Everything replay must reproduce byte-for-byte, as one dict.

    ``rows`` uses ``repr`` so float formatting and bytes content are
    compared exactly; ``drops`` is the end-to-end overload ledger;
    ``stats`` carries per-node counters including hash-table collision
    (= group ejection) counts; ``metrics`` is the full registry
    exposition.
    """
    snapshot: Dict[str, Any] = {
        "rows": {name: [repr(row) for row in sub.poll()]
                 for name, sub in sorted(subscriptions.items())},
        "drops": gs.overload_report(),
        "stats": gs.stats(),
    }
    if gs.metrics is not None:
        snapshot["metrics"] = json.loads(gs.metrics.to_json())
    return snapshot


@scenario("mixed")
def _mixed_scenario(seed: int) -> Dict[str, Any]:
    """Sampling + shedding + LFTA aggregation, all drawing randomness.

    A deliberately hostile replay target: a ``DEFINE sample`` query
    (sample RNG), a static shed gate (shed RNG), an LFTA partial
    aggregation over an undersized direct-mapped table (slot placement
    and ejections), bounded channels (overflow drops), over a Zipf flow
    workload (generator RNG).
    """
    from repro.core.engine import Gigascope
    from repro.workloads.flows import ZipfFlowWorkload

    gs = Gigascope(seed=seed, lfta_table_size=64, channel_capacity=256,
                   heartbeat_interval=0.5)
    gs.add_query("""
        DEFINE query_name flows;
        Select tb, srcIP, srcPort, count(*), sum(len)
        From tcp
        Group by time/5 as tb, srcIP, srcPort
    """)
    gs.add_query("""
        DEFINE { query_name sampled; sample 0.25; }
        Select srcIP, destIP, destPort, time
        From tcp
        Where protocol = 6
    """)
    gs.enable_shedding("static:0.6")
    subs = {name: gs.subscribe(name) for name in ("flows", "sampled")}
    gs.start()
    workload = ZipfFlowWorkload(num_flows=400, alpha=1.1,
                                seed=derive_seed(seed, "workload.zipf"))
    gs.feed(workload.packets(4000, pps=2000.0), pump_every=128)
    gs.flush()
    return snapshot_engine(gs, subs)


@scenario("e4")
def _e4_scenario(seed: int) -> Dict[str, Any]:
    """E4-style aggregation sweep step: small table, skewed flows.

    Group ejections from the direct-mapped table dominate the output,
    so any instability in slot placement is immediately visible.
    """
    from repro.core.engine import Gigascope
    from repro.workloads.flows import ZipfFlowWorkload

    gs = Gigascope(seed=seed, lfta_table_size=128)
    gs.add_query("""
        DEFINE query_name flows;
        Select tb, srcIP, srcPort, count(*), sum(len)
        From tcp
        Group by time/30 as tb, srcIP, srcPort
    """)
    subs = {"flows": gs.subscribe("flows")}
    gs.start()
    workload = ZipfFlowWorkload(num_flows=2000, alpha=0.8,
                                seed=derive_seed(seed, "workload.zipf"))
    gs.feed(workload.packets(6000, pps=2000.0))
    gs.flush()
    return snapshot_engine(gs, subs)


# -- recovery scenarios ------------------------------------------------------
#
# Each runs in two arms, selected by the GS_RECOVERY_CRASH environment
# variable: "1" arms a transient OperatorFault (raises once, then
# heals) against the named node; anything else runs clean.  Both arms
# enable the recovery supervisor with identical settings, so the
# checkpoint cadence -- and therefore everything the supervisor does on
# the clean path -- is the same; the only difference is the crash and
# the restore/replay that repairs it.  ``verify_recovery`` diffs the
# two arms: recovery is correct exactly when they are byte-identical.
# Both run at the engine's default block size, so the crash lands
# inside a block on the path production runs.

_RECOVERY_CRASH_ENV = "GS_RECOVERY_CRASH"

# The most recent recovery scenario's supervisor, kept for post-mortem
# artifact dumps (CI writes its checkpoint blobs on a verify failure).
_LAST_SUPERVISOR: Dict[str, Any] = {}


def _crash_arm() -> bool:
    return os.environ.get(_RECOVERY_CRASH_ENV) == "1"


def _arm_transient_crash(gs, node: str, at_tuple: int) -> None:
    from repro.faults.injectors import OperatorFault
    gs.inject_faults([OperatorFault(node, at_tuple=at_tuple, times=1)])


@scenario("recovery_agg")
def _recovery_agg_scenario(seed: int) -> Dict[str, Any]:
    """Aggregation crash mid-stream: HFTA group state restored+replayed."""
    from repro.core.engine import Gigascope
    from repro.workloads.flows import ZipfFlowWorkload

    gs = Gigascope(seed=seed, lfta_table_size=64, channel_capacity=256,
                   heartbeat_interval=0.5)
    gs.add_query("""
        DEFINE query_name flows;
        Select tb, srcIP, srcPort, count(*), sum(len)
        From tcp
        Group by time/5 as tb, srcIP, srcPort
    """)
    subs = {"flows": gs.subscribe("flows")}
    _LAST_SUPERVISOR["supervisor"] = gs.enable_recovery(
        checkpoint_interval=0.4)
    gs.start()
    if _crash_arm():
        _arm_transient_crash(gs, "flows", at_tuple=400)
    workload = ZipfFlowWorkload(num_flows=400, alpha=1.1,
                                seed=derive_seed(seed, "workload.zipf"))
    gs.feed(workload.packets(4000, pps=2000.0), pump_every=64)
    gs.flush()
    return snapshot_engine(gs, subs)


@scenario("recovery_join")
def _recovery_join_scenario(seed: int) -> Dict[str, Any]:
    """Join crash mid-stream: window buffers restored, pairs replayed."""
    from repro.core.engine import Gigascope
    from repro.net.build import build_tcp_frame, capture

    gs = Gigascope(seed=seed, channel_capacity=512,
                   heartbeat_interval=0.5)
    gs.add_query("""
        DEFINE query_name j;
        Select B.time, B.destPort From eth0.tcp B, eth1.tcp C
        Where B.time = C.time and B.destPort = C.destPort
    """)
    subs = {"j": gs.subscribe("j")}
    _LAST_SUPERVISOR["supervisor"] = gs.enable_recovery(
        checkpoint_interval=0.5)
    gs.start()
    if _crash_arm():
        _arm_transient_crash(gs, "j", at_tuple=150)
    rng = rng_for(seed, "recovery_join.workload")
    ports = (25, 80, 443, 8080)
    packets = []
    for i in range(600):
        t = i * 0.005
        packets.append(capture(build_tcp_frame(
            "10.0.0.1", "10.0.0.2", 1000 + i % 50, rng.choice(ports)),
            t, "eth0"))
        packets.append(capture(build_tcp_frame(
            "10.1.0.1", "10.1.0.2", 2000 + i % 50, rng.choice(ports)),
            t, "eth1"))
    gs.feed(packets, pump_every=32)
    gs.flush()
    return snapshot_engine(gs, subs)


@scenario("recovery_tcp")
def _recovery_tcp_scenario(seed: int) -> Dict[str, Any]:
    """TCP-reassembly crash: flow tables and out-of-order buffers survive.

    A packet consumer, so the repair replays the *global packet
    journal* -- the path exercised when the crashing node sits on the
    card side of the split rather than behind a channel.
    """
    from repro.core.engine import Gigascope
    from repro.net.build import build_tcp_frame, capture
    from repro.net.tcp import FLAG_ACK, FLAG_SYN
    from repro.operators.tcp_reassembly import TcpReassemblyNode

    gs = Gigascope(seed=seed, heartbeat_interval=0.5)
    gs.add_node(TcpReassemblyNode("tcpre0"), interface="eth0")
    subs = {"tcpre0": gs.subscribe("tcpre0")}
    _LAST_SUPERVISOR["supervisor"] = gs.enable_recovery(
        checkpoint_interval=0.5)
    gs.start()
    if _crash_arm():
        _arm_transient_crash(gs, "tcpre0", at_tuple=300)
    rng = rng_for(seed, "recovery_tcp.workload")
    packets = []
    t = 0.0
    seqs = {}
    for i in range(700):
        t += 0.004
        sport = 1000 + rng.randrange(8)
        if sport not in seqs:
            packets.append(capture(build_tcp_frame(
                "10.0.0.1", "10.0.0.9", sport, 80,
                seq=100, flags=FLAG_SYN), t, "eth0"))
            seqs[sport] = 101
            continue
        payload = bytes([65 + rng.randrange(26)]) * (1 + rng.randrange(8))
        segment = capture(build_tcp_frame(
            "10.0.0.1", "10.0.0.9", sport, 80, payload=payload,
            seq=seqs[sport], flags=FLAG_ACK), t, "eth0")
        seqs[sport] += len(payload)
        # One packet in eight arrives before its predecessor: swap them
        # so the out-of-order buffer is live state at the crash.
        if packets and rng.random() < 0.125:
            packets.insert(len(packets) - 1, segment)
        else:
            packets.append(segment)
    gs.feed(packets, pump_every=32)
    gs.flush()
    return snapshot_engine(gs, subs)


# -- alert scenarios ---------------------------------------------------------
#
# The alert plane's determinism contract (DESIGN section 12): trigger
# evaluation is a pure function of journaled channel items (query rows
# and EpochTicks both travel through the trigger's input channels), so
# the emitted alert stream must be byte-identical across hash seeds
# (verify) and across a crash/restore of the trigger node itself
# (verify-recovery, crashing ``alert_<trigger>``).

@scenario("alerts_syn_flood")
def _alerts_syn_flood_scenario(seed: int) -> Dict[str, Any]:
    """SYN-flood detection through the trigger layer, crash-restartable."""
    from repro.core.engine import Gigascope
    from repro.workloads.scenarios import syn_flood

    gs = Gigascope(seed=seed, heartbeat_interval=0.5, channel_capacity=512)
    gs.add_query("""
        DEFINE query_name syn_watch;
        Select tb, destIP, count(*) as syns
        From tcp Where tcpflags & 18 = 2
        Group by time/5 as tb, destIP
    """)
    # 8s between checkpoints puts the first RAISE (stream time ~25)
    # inside the journal gap of a crash at the second row (~30), so the
    # repair must re-evaluate the raising epoch and the emit gate must
    # suppress the already-delivered alert row (exactly-once).
    _LAST_SUPERVISOR["supervisor"] = gs.enable_recovery(
        checkpoint_interval=8.0)
    gs.enable_alerts([
        "synflood:on=syn_watch,key=destIP,when=sum(syns) > 400,epoch=5,"
        "raise_for=1,clear_for=2,severity=critical",
    ])
    subs = {"syn_watch": gs.subscribe("syn_watch"),
            "alerts": gs.subscribe("alerts")}
    gs.start()
    if _crash_arm():
        # The second row the trigger sees: after the first RAISE-able
        # epoch closed, with live hysteresis/raised state to restore.
        _arm_transient_crash(gs, "alert_synflood", at_tuple=2)
    attack = syn_flood(seed=derive_seed(seed, "alerts.synflood"),
                       duration_s=40.0, background_mbps=6.0, pps=800.0)
    gs.feed(attack.packets, pump_every=64)
    gs.flush()
    return snapshot_engine(gs, subs)


@scenario("alerts_port_scan")
def _alerts_port_scan_scenario(seed: int) -> Dict[str, Any]:
    """Port-scan detection through the trigger layer, crash-restartable."""
    from repro.core.engine import Gigascope
    from repro.workloads.scenarios import port_scan

    gs = Gigascope(seed=seed, heartbeat_interval=0.5, channel_capacity=512)
    gs.add_query("""
        DEFINE query_name scan_watch;
        Select tb, srcIP, count(*) as probes
        From tcp Where tcpflags & 18 = 2
        Group by time/5 as tb, srcIP
    """)
    _LAST_SUPERVISOR["supervisor"] = gs.enable_recovery(
        checkpoint_interval=8.0)
    gs.enable_alerts([
        "portscan:on=scan_watch,key=srcIP,when=sum(probes) > 150,epoch=5,"
        "raise_for=1,clear_for=2,severity=warning",
    ])
    subs = {"scan_watch": gs.subscribe("scan_watch"),
            "alerts": gs.subscribe("alerts")}
    gs.start()
    if _crash_arm():
        _arm_transient_crash(gs, "alert_portscan", at_tuple=2)
    attack = port_scan(seed=derive_seed(seed, "alerts.portscan"),
                       duration_s=40.0, background_mbps=6.0)
    gs.feed(attack.packets, pump_every=64)
    gs.flush()
    return snapshot_engine(gs, subs)


#: the scenarios ``verify-alerts`` gates on
ALERT_SCENARIOS = ("alerts_syn_flood", "alerts_port_scan")


# -- telemetry scenarios -----------------------------------------------------
#
# The self-telemetry contract (DESIGN section 13): ``_gs_*`` rows carry
# only deterministic values (virtual time, cumulative counters,
# per-sample deltas) and travel through the same journaled channels as
# every other stream item, so the streams -- and any GSQL meta-query or
# meta-alert computed from them -- replay byte-identically across hash
# seeds and across a crash/restore, with zero telemetry-specific
# recovery code.  Wall-clock cost lives only in the profiler report and
# the ``gs_telemetry_profile_wall*`` metric family, which
# :func:`strip_wall_clock_metrics` removes before diffing.

def _drop_metric_families(snapshot: Dict[str, Any],
                          prefix: str) -> Dict[str, Any]:
    """Remove the metric families named ``prefix*`` from a snapshot."""
    metrics = snapshot.get("metrics")
    if isinstance(metrics, dict) and isinstance(metrics.get("metrics"), list):
        metrics["metrics"] = [
            family for family in metrics["metrics"]
            if not str(family.get("name", "")).startswith(prefix)
        ]
    return snapshot


def strip_wall_clock_metrics(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Drop wall-clock profiler families from a scenario snapshot.

    ``gs_telemetry_profile_wall*`` accumulates ``perf_counter`` spans
    and so differs between any two runs *by nature*; every other
    telemetry surface is virtual-time-deterministic and must not.
    """
    return _drop_metric_families(snapshot, "gs_telemetry_profile_wall")


def _telemetry_engine(seed: int, subscribe_streams: Tuple[str, ...]):
    """The shared telemetry-scenario topology.

    A selection query keeps per-packet pressure on its subscription
    channel (so the injected storm produces real overflow drops), a
    GSQL meta-query and a meta-alert trigger both read ``_gs_channel``
    unmodified, and the recovery supervisor runs so ``_gs_recovery``
    carries live counters.  Returns ``(gs, subs)`` ready to feed.
    """
    from repro.core.engine import Gigascope

    gs = Gigascope(seed=seed, heartbeat_interval=0.5, channel_capacity=256)
    gs.enable_telemetry(interval=0.5)
    gs.add_query("""
        DEFINE query_name pkts;
        Select time, len
        From tcp
    """)
    gs.add_query("""
        Select floor(time/2) as tb, sum(dropped_delta) as drops
        From _gs_channel
        Group by floor(time/2) as tb
    """, name="chan_drops")
    _LAST_SUPERVISOR["supervisor"] = gs.enable_recovery(
        checkpoint_interval=8.0)
    gs.enable_alerts([
        "chanstorm:on=_gs_channel,key=channel,when=sum(dropped_delta) > 40,"
        "epoch=2,raise_for=1,clear_for=2,severity=warning",
    ])
    subs = {name: gs.subscribe(name)
            for name in ("pkts", "chan_drops", "alerts")}
    for stream in subscribe_streams:
        subs[stream] = gs.subscribe(stream)
    gs.start()
    return gs, subs


def _feed_telemetry(gs, seed: int) -> None:
    from repro.workloads.generators import http_port80_pool, packet_stream
    pool = http_port80_pool(seed=derive_seed(seed, "telemetry.pool") & 0xFFFF)
    gs.feed(packet_stream(pool, rate_mbps=2.0, duration_s=10.0,
                          seed=derive_seed(seed, "telemetry.stream")),
            pump_every=64)
    gs.flush()


@scenario("telemetry_meta")
def _telemetry_meta_scenario(seed: int) -> Dict[str, Any]:
    """Every ``_gs_*`` stream plus meta-query and meta-alert, under an
    injected channel storm.  The hash-seed replay target: all five
    telemetry streams are subscribed and snapshotted byte-for-byte."""
    from repro.obs.telemetry import TELEMETRY_STREAMS

    gs, subs = _telemetry_engine(seed, TELEMETRY_STREAMS)
    gs.inject_faults(["channel_storm:at=3.0,duration=2.0,capacity=4"])
    _feed_telemetry(gs, seed)
    return strip_wall_clock_metrics(snapshot_engine(gs, subs))


@scenario("telemetry_crash")
def _telemetry_crash_scenario(seed: int) -> Dict[str, Any]:
    """Meta-query crash mid-stream: telemetry rows are journaled channel
    items like any other, so restore + replay must reconstruct the
    clean run.  ``_gs_recovery`` is left unsubscribed -- its rows count
    the repair itself, the one stream that differs across arms by
    design (the same exclusion :func:`strip_recovery_artifacts` makes
    for the ``gs_recovery*`` metric families)."""
    gs, subs = _telemetry_engine(
        seed, ("_gs_channel", "_gs_operator", "_gs_shed", "_gs_alert"))
    if _crash_arm():
        # Mid-run: chan_drops has seen ~half the telemetry rows and
        # holds an open epoch of drop sums at the crash.
        _arm_transient_crash(gs, "chan_drops", at_tuple=40)
    _feed_telemetry(gs, seed)
    return strip_wall_clock_metrics(snapshot_engine(gs, subs))


#: the scenarios ``verify-telemetry`` gates on
TELEMETRY_SCENARIOS = ("telemetry_meta", "telemetry_crash")


# -- sharded-runtime scenarios -----------------------------------------------
#
# Each builds the engine from the GS_SHARDS environment variable: 0 (or
# unset) runs the ordinary single-process Gigascope, N >= 1 runs the
# multi-process ShardedGigascope.  ``verify_shard`` diffs the two arms'
# sink rows -- the sharded runtime's whole contract is that flow-hash
# partitioning plus superaggregate shard-merge is *invisible* in the
# output.  Snapshots carry rows only: per-node statistics and metrics
# families differ structurally between the runtimes by construction
# (shardN/-prefixed names, gs_shard_* families), while the rows must
# not differ at all.  A worker crash is armed through GS_SHARD_CRASH
# ("SHARD:PACKET_INDEX"), which the parent runtime consumes on its own.

def _shard_engine(seed: int, **kwargs):
    shards = int(os.environ.get("GS_SHARDS", "0") or "0")
    if shards:
        from repro.shard import ShardedGigascope
        return ShardedGigascope(shards, seed=seed, metrics=False,
                                barrier_interval=0.25, **kwargs)
    from repro.core.engine import Gigascope
    return Gigascope(seed=seed, metrics=False, **kwargs)


@scenario("shard_flows")
def _shard_flows_scenario(seed: int) -> Dict[str, Any]:
    """Zipf flow aggregation, single-process vs hash-partitioned shards.

    Many groups (three-part key), several barrier crossings, skewed
    flow sizes -- the canonical workload for checking that shard-merge
    reproduces the global (window, key)-ordered output byte-for-byte.
    """
    from repro.workloads.flows import ZipfFlowWorkload

    gs = _shard_engine(seed, heartbeat_interval=0.5)
    gs.add_query("""
        DEFINE query_name flows;
        Select tb, srcIP, srcPort, count(*), sum(len)
        From tcp
        Group by time/5 as tb, srcIP, srcPort
    """)
    sub = gs.subscribe("flows")
    gs.start()
    workload = ZipfFlowWorkload(num_flows=400, alpha=1.1,
                                seed=derive_seed(seed, "workload.zipf"))
    gs.feed(list(workload.packets(4000, pps=2000.0)), pump_every=128)
    gs.flush()
    return {"rows": {"flows": [repr(row) for row in sub.poll()]}}


@scenario("shard_e2")
def _shard_e2_scenario(seed: int) -> Dict[str, Any]:
    """The E2 deployment shape: two merged links feeding an aggregation.

    Exercises the full worker pipeline -- per-interface LFTAs, the
    merge operator, then the terminal aggregation flipped to partials --
    so verify-shard gates exactly what the E16 benchmark measures.
    """
    from repro.workloads.generators import (http_port80_pool, merge_streams,
                                            packet_stream)

    gs = _shard_engine(seed, heartbeat_interval=1.0)
    gs.add_queries("""
        DEFINE query_name link0;
        Select time, destIP, len From eth0.tcp Where destPort = 80;

        DEFINE query_name link1;
        Select time, destIP, len From eth1.tcp Where destPort = 80;

        DEFINE query_name both;
        Merge link0.time : link1.time From link0, link1;

        DEFINE query_name appmon;
        Select tb, destIP, count(*), sum(len)
        From both Group by time/10 as tb, destIP
    """)
    sub = gs.subscribe("appmon")
    gs.start()
    a = packet_stream(http_port80_pool(seed=1), rate_mbps=25.0,
                      duration_s=10.0, interface="eth0",
                      seed=derive_seed(seed, "shard_e2.eth0"))
    b = packet_stream(http_port80_pool(seed=2), rate_mbps=25.0,
                      duration_s=10.0, interface="eth1",
                      seed=derive_seed(seed, "shard_e2.eth1"))
    packets = []
    for packet in merge_streams(a, b):
        packets.append(packet)
        if len(packets) >= 4000:
            break
    gs.feed(packets, pump_every=256)
    gs.flush()
    return {"rows": {"appmon": [repr(row) for row in sub.poll()]}}


SHARD_SCENARIOS = ("shard_flows", "shard_e2")


# -- failover scenarios ------------------------------------------------------
#
# The replication plane's contract (DESIGN section 16): a warm standby
# promoted after the primary dies -- at any of the crash points the
# GS_FAILOVER_CRASH grammar can name -- must produce output
# byte-identical to the uninterrupted run.  GS_FAILOVER=1 builds the
# primary+standby pair (ReplicatedGigascope); 0 (or unset) runs the
# plain single engine the crashed arm is diffed against.  Snapshots
# carry rows plus a ``failover`` metadata block (promotion flags, RPO
# counters, the frame ledger) that the verifier strips before diffing
# and then asserts on separately: the crash arms must actually have
# promoted, the clean arm must not.

_FAILOVER_ENV = "GS_FAILOVER"
_FAILOVER_CRASH_ENV = "GS_FAILOVER_CRASH"
_FAILOVER_CADENCE_ENV = "GS_FAILOVER_CADENCE"

#: the crash points ``verify-failover`` gates on: mid-delta-interval
#: (hard death between frames), at the snapshot epoch, after a delta
#: frame, and a torn write truncating a delta frame mid-stream (the
#: standby must refuse the torn frame and promote from the one before)
FAILOVER_CRASHES = ("packet:700", "frame:0", "frame:2", "frame:2:torn")

#: the most recent replicated pair a failover scenario built in this
#: process, kept for post-mortem artifact dumps (CI writes its frame
#: log on a verify failure, as it does the supervisor's above)
_LAST_FAILOVER: Dict[str, Any] = {}


def _failover_engine(seed: int, **kwargs):
    if os.environ.get(_FAILOVER_ENV) == "1":
        from repro.replication import ReplicatedGigascope
        cadence = float(os.environ.get(_FAILOVER_CADENCE_ENV, "0.5"))
        crash = os.environ.get(_FAILOVER_CRASH_ENV) or None
        pair = _LAST_FAILOVER["pair"] = ReplicatedGigascope(
            cadence=cadence, crash=crash, seed=seed, metrics=False, **kwargs)
        return pair
    from repro.core.engine import Gigascope
    return Gigascope(seed=seed, metrics=False, **kwargs)


@scenario("failover_agg")
def _failover_agg_scenario(seed: int) -> Dict[str, Any]:
    """Flow aggregation plus a per-packet selection, primary vs promoted
    standby.  The aggregation carries open-group state across every
    crash point; the selection keeps per-packet pressure on the
    exactly-once skip gate (hundreds of delivered rows to suppress on
    replay)."""
    from repro.workloads.flows import ZipfFlowWorkload

    gs = _failover_engine(seed, heartbeat_interval=0.5, lfta_table_size=64)
    gs.add_query("""
        DEFINE query_name flows;
        Select tb, srcIP, srcPort, count(*), sum(len)
        From tcp
        Group by time/5 as tb, srcIP, srcPort
    """)
    gs.add_query("""
        DEFINE query_name web;
        Select time, srcIP, destPort From tcp Where destPort = 80
    """)
    subs = {name: gs.subscribe(name) for name in ("flows", "web")}
    gs.start()
    workload = ZipfFlowWorkload(num_flows=400, alpha=1.1,
                                seed=derive_seed(seed, "workload.zipf"))
    gs.feed(list(workload.packets(4000, pps=2000.0)), pump_every=128)
    gs.flush()
    snapshot: Dict[str, Any] = {
        "rows": {name: [repr(row) for row in sub.poll()]
                 for name, sub in sorted(subs.items())},
    }
    if hasattr(gs, "replication_report"):
        snapshot["failover"] = gs.replication_report()
    return snapshot


def resolve_scenario(name: str) -> Callable[[int], Dict[str, Any]]:
    """A registered scenario, or a ``module:callable`` dotted path."""
    if name in SCENARIOS:
        return SCENARIOS[name]
    if ":" in name:
        module_name, _, attr = name.partition(":")
        import importlib
        module = importlib.import_module(module_name)
        return getattr(module, attr)
    raise KeyError(
        f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)} "
        f"(or use a 'module:callable' path)"
    )


def run_scenario(name: str, seed: int = 0) -> Dict[str, Any]:
    """Run a scenario in this process and return its snapshot."""
    return resolve_scenario(name)(seed)


# ---------------------------------------------------------------------------
# The replay verifier
# ---------------------------------------------------------------------------

@dataclass
class ReplayReport:
    """The verdict of one :func:`verify_replay` run."""

    scenario: str
    seed: int
    hash_seeds: Tuple[str, str]
    ok: bool
    diffs: List[str] = field(default_factory=list)
    snapshots: Optional[Tuple[Dict[str, Any], Dict[str, Any]]] = None
    #: what varied between the two runs (for the report text)
    axis: str = "PYTHONHASHSEED"

    def describe(self) -> str:
        if self.ok:
            return (f"replay OK: scenario {self.scenario!r} seed "
                    f"{self.seed} identical under {self.axis} "
                    f"{self.hash_seeds[0]} and {self.hash_seeds[1]}")
        lines = [f"replay FAILED: scenario {self.scenario!r} seed "
                 f"{self.seed} diverges between {self.axis} "
                 f"{self.hash_seeds[0]} and {self.hash_seeds[1]}:"]
        lines.extend(f"  - {diff}" for diff in self.diffs)
        return "\n".join(lines)


def _subprocess_snapshot(name: str, seed: int, hash_seed: str,
                         extra_env: Optional[Dict[str, str]] = None
                         ) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    if extra_env:
        env.update(extra_env)
    src_root = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro.replay", "run",
         "--scenario", name, "--seed", str(seed)],
        env=env, capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"scenario {name!r} failed under PYTHONHASHSEED={hash_seed} "
            f"{extra_env or {}}:\n" + result.stderr
        )
    return json.loads(result.stdout)


def strip_batch_metrics(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Drop ``gs_batch*`` metric families from a scenario snapshot.

    The block counters (blocks fed, configured block size) differ
    between block sizes *by construction*; everything else in the
    snapshot must not.
    """
    return _drop_metric_families(snapshot, "gs_batch")


def strip_recovery_artifacts(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Drop the crash arm's instrumentation from a scenario snapshot.

    ``gs_recovery*`` metric families count checkpoints, restarts, and
    replay work -- the crash arm restarts a node and the clean arm does
    not, so they differ *by design*.  The ``faults`` entry of the drop
    ledger describes the injected crash itself (the experiment's
    instrument, absent from the clean arm).  Everything else -- rows,
    drop ledger, statistics, metrics -- must be byte-identical.
    """
    _drop_metric_families(snapshot, "gs_recovery")
    drops = snapshot.get("drops")
    if isinstance(drops, dict):
        drops.pop("faults", None)
    return snapshot


def verify_recovery(scenario_name: str, seed: int = 0,
                    hash_seeds: Tuple[str, ...] = ("1", "2")
                    ) -> List[ReplayReport]:
    """Crash-vs-clean differential: run a recovery scenario with and
    without its transient crash (in subprocesses) and diff everything
    but the recovery instrumentation, under each ``PYTHONHASHSEED``.

    A passing report means restore + journal replay + exactly-once
    re-emission reconstructed the uninterrupted run byte-for-byte:
    same sink rows, same drop ledger, same per-node statistics, same
    channel counters, same metrics.
    """
    reports = []
    for hash_seed in hash_seeds:
        clean = strip_recovery_artifacts(
            _subprocess_snapshot(scenario_name, seed, hash_seed,
                                 {_RECOVERY_CRASH_ENV: "0"}))
        crashed = strip_recovery_artifacts(
            _subprocess_snapshot(scenario_name, seed, hash_seed,
                                 {_RECOVERY_CRASH_ENV: "1"}))
        diffs: List[str] = []
        _diff_paths(clean, crashed, "$", diffs)
        reports.append(ReplayReport(
            scenario=scenario_name, seed=seed,
            hash_seeds=(f"clean (PYTHONHASHSEED={hash_seed})",
                        f"crash+recover (PYTHONHASHSEED={hash_seed})"),
            ok=not diffs, diffs=diffs, snapshots=(clean, crashed),
            axis="crash recovery",
        ))
    return reports


def verify_batch_equivalence(scenario_name: str, seed: int = 0,
                             batch_size: Optional[int] = None,
                             hash_seed: str = "0") -> ReplayReport:
    """Run a scenario in blocks of one (``GS_BATCH_SIZE=1``) and at
    ``batch_size`` (None: the engine default) in subprocesses and diff
    the snapshots after stripping the ``gs_batch*`` counters: where the
    stream is cut into blocks must not show in rows, drop ledger,
    statistics, or any other metric.

    Both arms run under the same ``hash_seed`` so the diff isolates
    the block size -- CI sweeps it to cross the differential with the
    hash-seed matrix.
    """
    blocked_env: Dict[str, str] = {}
    blocked_label = "the default block size"
    if batch_size is not None:
        blocked_env["GS_BATCH_SIZE"] = str(batch_size)
        blocked_label = f"GS_BATCH_SIZE={batch_size}"
    ones = strip_batch_metrics(_subprocess_snapshot(
        scenario_name, seed, hash_seed, {"GS_BATCH_SIZE": "1"}))
    blocked = strip_batch_metrics(
        _subprocess_snapshot(scenario_name, seed, hash_seed, blocked_env))
    diffs: List[str] = []
    _diff_paths(ones, blocked, "$", diffs)
    return ReplayReport(
        scenario=scenario_name, seed=seed,
        hash_seeds=("GS_BATCH_SIZE=1", blocked_label),
        ok=not diffs, diffs=diffs, snapshots=(ones, blocked),
        axis="block size",
    )


def _diff_paths(a: Any, b: Any, path: str, out: List[str],
                limit: int = 20) -> None:
    """Record the paths where two JSON-shaped values differ."""
    if len(out) >= limit:
        return
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
    elif isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{path}.{key}: present in only one run")
            else:
                _diff_paths(a[key], b[key], f"{path}.{key}", out, limit)
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        for index, (x, y) in enumerate(zip(a, b)):
            _diff_paths(x, y, f"{path}[{index}]", out, limit)
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def verify_alerts(seed: int = 0, hash_seeds: Tuple[str, ...] = ("1", "2"),
                  scenarios: Tuple[str, ...] = ALERT_SCENARIOS
                  ) -> List[ReplayReport]:
    """The alert plane's acceptance gate.

    For each alert scenario, check the emitted alert stream (and the
    whole engine snapshot around it) is byte-identical (a) across two
    ``PYTHONHASHSEED`` values and (b) across a crash/restore of the
    trigger node under the RecoverySupervisor, per hash seed.
    """
    reports: List[ReplayReport] = []
    for name in scenarios:
        reports.append(verify_replay(name, seed, hash_seeds=hash_seeds[:2]))
        reports.extend(verify_recovery(name, seed, hash_seeds=hash_seeds))
    return reports


def verify_telemetry(seed: int = 0, hash_seeds: Tuple[str, ...] = ("1", "2")
                     ) -> List[ReplayReport]:
    """The self-telemetry plane's acceptance gate.

    (a) ``telemetry_meta``: all five ``_gs_*`` streams, the meta-query,
    and the meta-alert stream are byte-identical across two
    ``PYTHONHASHSEED`` values, storm included.  (b) ``telemetry_crash``:
    the crash-invariant telemetry streams and everything computed from
    them are byte-identical across a mid-run crash/restore of the
    meta-query node, per hash seed.
    """
    reports: List[ReplayReport] = [
        verify_replay("telemetry_meta", seed, hash_seeds=hash_seeds[:2])]
    reports.extend(verify_recovery("telemetry_crash", seed,
                                   hash_seeds=hash_seeds))
    return reports


def verify_shard(scenario_name: str, seed: int = 0, shards: int = 4,
                 hash_seeds: Tuple[str, ...] = ("1", "2"),
                 crash: Optional[str] = "1:600") -> List[ReplayReport]:
    """The sharded runtime's acceptance gate.

    Per ``PYTHONHASHSEED``: (a) the single-process run (``GS_SHARDS=0``)
    and the ``shards``-way sharded run must produce byte-identical sink
    rows, and (b) so must a sharded run whose worker ``crash`` names
    ("SHARD:PACKET_INDEX") is killed mid-stream and respawned from the
    parent's fold of its state frames.  Finally the sharded arms from
    the two hash seeds are diffed against each other, pinning the flow
    partitioner itself (not just each arm's engine) as hash-seed
    independent.
    """
    reports: List[ReplayReport] = []
    sharded_arms: List[Dict[str, Any]] = []
    for hash_seed in hash_seeds:
        single = _subprocess_snapshot(scenario_name, seed, hash_seed,
                                      {"GS_SHARDS": "0"})
        sharded = _subprocess_snapshot(scenario_name, seed, hash_seed,
                                       {"GS_SHARDS": str(shards)})
        sharded_arms.append(sharded)
        diffs: List[str] = []
        _diff_paths(single, sharded, "$", diffs)
        reports.append(ReplayReport(
            scenario=scenario_name, seed=seed,
            hash_seeds=(f"GS_SHARDS=0 (PYTHONHASHSEED={hash_seed})",
                        f"GS_SHARDS={shards} (PYTHONHASHSEED={hash_seed})"),
            ok=not diffs, diffs=diffs, snapshots=(single, sharded),
            axis="sharded runtime",
        ))
        if crash:
            crashed = _subprocess_snapshot(
                scenario_name, seed, hash_seed,
                {"GS_SHARDS": str(shards), "GS_SHARD_CRASH": crash})
            diffs = []
            _diff_paths(single, crashed, "$", diffs)
            reports.append(ReplayReport(
                scenario=scenario_name, seed=seed,
                hash_seeds=(
                    f"GS_SHARDS=0 (PYTHONHASHSEED={hash_seed})",
                    f"GS_SHARDS={shards} crash@{crash} "
                    f"(PYTHONHASHSEED={hash_seed})"),
                ok=not diffs, diffs=diffs, snapshots=(single, crashed),
                axis="shard crash recovery",
            ))
    if len(sharded_arms) >= 2:
        diffs = []
        _diff_paths(sharded_arms[0], sharded_arms[1], "$", diffs)
        reports.append(ReplayReport(
            scenario=scenario_name, seed=seed,
            hash_seeds=(f"GS_SHARDS={shards} "
                        f"(PYTHONHASHSEED={hash_seeds[0]})",
                        f"GS_SHARDS={shards} "
                        f"(PYTHONHASHSEED={hash_seeds[1]})"),
            ok=not diffs, diffs=diffs,
            snapshots=(sharded_arms[0], sharded_arms[1]),
        ))
    return reports


def _strip_failover(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The diffable part of a failover snapshot: everything but the
    ``failover`` metadata block (promotion flags, RPO/RTO counters,
    wall-clock latencies -- asserted on separately, never diffed)."""
    return {key: value for key, value in snapshot.items()
            if key != "failover"}


def verify_failover(seed: int = 0,
                    hash_seeds: Tuple[str, ...] = ("1", "2"),
                    cadence: float = 0.5,
                    crashes: Tuple[str, ...] = FAILOVER_CRASHES
                    ) -> List[ReplayReport]:
    """The replication plane's acceptance gate.

    Per ``PYTHONHASHSEED``: (a) the replicated pair running clean must
    match the plain single engine byte-for-byte (replication is
    invisible in steady state, and must not have promoted); (b) for
    each crash point -- mid-delta-interval, at the snapshot epoch,
    after a delta frame, and a torn mid-frame write -- the promoted
    standby's output must match the uninterrupted run byte-for-byte,
    and the metadata must show the promotion actually happened.
    """
    reports: List[ReplayReport] = []
    for hash_seed in hash_seeds:
        plain = _subprocess_snapshot("failover_agg", seed, hash_seed,
                                     {_FAILOVER_ENV: "0"})
        base_env = {_FAILOVER_ENV: "1",
                    _FAILOVER_CADENCE_ENV: str(cadence),
                    _FAILOVER_CRASH_ENV: ""}
        clean = _subprocess_snapshot("failover_agg", seed, hash_seed,
                                     base_env)
        diffs: List[str] = []
        _diff_paths(plain, _strip_failover(clean), "$", diffs)
        if clean.get("failover", {}).get("promoted"):
            diffs.append("$.failover.promoted: clean replicated arm "
                         "promoted its standby")
        reports.append(ReplayReport(
            scenario="failover_agg", seed=seed,
            hash_seeds=(f"plain (PYTHONHASHSEED={hash_seed})",
                        f"replicated cadence={cadence} "
                        f"(PYTHONHASHSEED={hash_seed})"),
            ok=not diffs, diffs=diffs, snapshots=(plain, clean),
            axis="steady-state replication",
        ))
        for crash in crashes:
            env = dict(base_env)
            env[_FAILOVER_CRASH_ENV] = crash
            crashed = _subprocess_snapshot("failover_agg", seed,
                                           hash_seed, env)
            diffs = []
            _diff_paths(plain, _strip_failover(crashed), "$", diffs)
            if not crashed.get("failover", {}).get("promoted"):
                diffs.append("$.failover.promoted: crash arm never "
                             "promoted the standby")
            reports.append(ReplayReport(
                scenario="failover_agg", seed=seed,
                hash_seeds=(f"plain (PYTHONHASHSEED={hash_seed})",
                            f"promoted standby crash@{crash} "
                            f"(PYTHONHASHSEED={hash_seed})"),
                ok=not diffs, diffs=diffs, snapshots=(plain, crashed),
                axis="warm-standby failover",
            ))
    return reports


def verify_replay(scenario_name: str, seed: int = 0,
                  hash_seeds: Tuple[str, str] = ("1", "2")) -> ReplayReport:
    """Run ``scenario_name`` twice under different ``PYTHONHASHSEED``
    values (in subprocesses) and diff everything replay must preserve:
    sink rows, drop ledger, node statistics, metrics snapshot.
    """
    first = _subprocess_snapshot(scenario_name, seed, hash_seeds[0])
    second = _subprocess_snapshot(scenario_name, seed, hash_seeds[1])
    diffs: List[str] = []
    _diff_paths(first, second, "$", diffs)
    return ReplayReport(
        scenario=scenario_name, seed=seed, hash_seeds=hash_seeds,
        ok=not diffs, diffs=diffs, snapshots=(first, second),
    )


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.replay",
        description="Deterministic-replay tools.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run_cmd = commands.add_parser(
        "run", help="run a scenario, print its snapshot as JSON")
    verify_cmd = commands.add_parser(
        "verify", help="run a scenario under two PYTHONHASHSEEDs and diff")
    batch_cmd = commands.add_parser(
        "verify-batch",
        help="run a scenario in blocks of one and at the default (or "
             "--batch-size) block size and diff")
    recovery_cmd = commands.add_parser(
        "verify-recovery",
        help="run a recovery scenario clean and crashed+recovered and diff")
    alerts_cmd = commands.add_parser(
        "verify-alerts",
        help="verify alert streams across hash seeds and across a "
             "crash/restore of the trigger node")
    alerts_cmd.add_argument("--seed", type=int, default=0)
    alerts_cmd.add_argument("--hash-seeds", nargs=2, default=("1", "2"),
                            metavar=("A", "B"))
    alerts_cmd.add_argument("--scenarios", nargs="+",
                            default=list(ALERT_SCENARIOS),
                            help=f"alert scenarios to gate on "
                                 f"(default: {' '.join(ALERT_SCENARIOS)})")
    telemetry_cmd = commands.add_parser(
        "verify-telemetry",
        help="verify the _gs_* telemetry streams (and meta-query/"
             "meta-alert outputs) across hash seeds and across a "
             "crash/restore of the meta-query node")
    telemetry_cmd.add_argument("--seed", type=int, default=0)
    telemetry_cmd.add_argument("--hash-seeds", nargs=2, default=("1", "2"),
                               metavar=("A", "B"))
    shard_cmd = commands.add_parser(
        "verify-shard",
        help="verify the sharded runtime: single-process vs N-way "
             "hash-partitioned output (including a mid-run worker "
             "crash/restart) must be byte-identical per hash seed")
    shard_cmd.add_argument("--seed", type=int, default=0)
    shard_cmd.add_argument("--shards", type=int, default=4)
    shard_cmd.add_argument("--hash-seeds", nargs=2, default=("1", "2"),
                           metavar=("A", "B"))
    shard_cmd.add_argument("--scenarios", nargs="+",
                           default=list(SHARD_SCENARIOS),
                           help=f"shard scenarios to gate on "
                                f"(default: {' '.join(SHARD_SCENARIOS)})")
    shard_cmd.add_argument("--crash", default="1:600",
                           metavar="SHARD:PACKET_INDEX",
                           help="worker to kill mid-run in the crash arm "
                                "('none' disables; default 1:600)")
    failover_cmd = commands.add_parser(
        "verify-failover",
        help="verify warm-standby failover: the promoted standby's "
             "output must be byte-identical to the uninterrupted run, "
             "per hash seed, across snapshot/delta/torn-frame/"
             "mid-interval crash points")
    failover_cmd.add_argument("--seed", type=int, default=0)
    failover_cmd.add_argument("--hash-seeds", nargs=2, default=("1", "2"),
                              metavar=("A", "B"))
    failover_cmd.add_argument("--cadence", type=float, default=0.5,
                              help="replication cadence in virtual "
                                   "seconds (default 0.5)")
    failover_cmd.add_argument("--crashes", nargs="+",
                              default=list(FAILOVER_CRASHES),
                              metavar="SPEC",
                              help="crash specs (packet:K | frame:N | "
                                   "frame:N:torn) for the failover arms "
                                   f"(default: {' '.join(FAILOVER_CRASHES)})")
    for sub in (run_cmd, verify_cmd, batch_cmd, recovery_cmd):
        sub.add_argument("--scenario", default="mixed",
                         help=f"one of {sorted(SCENARIOS)} or module:callable")
        sub.add_argument("--seed", type=int, default=0)
    for sub in (verify_cmd, recovery_cmd):
        sub.add_argument("--hash-seeds", nargs=2, default=("1", "2"),
                         metavar=("A", "B"))
    recovery_cmd.set_defaults(scenario="recovery_agg")
    batch_cmd.add_argument("--batch-size", type=int, default=None,
                           help="block size for the second arm "
                                "(default: engine default)")
    batch_cmd.add_argument("--hash-seed", default="0", metavar="S",
                           help="PYTHONHASHSEED for both arms (default 0)")
    args = parser.parse_args(argv)
    if args.command == "run":
        snapshot = run_scenario(args.scenario, args.seed)
        json.dump(snapshot, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    if args.command == "verify-recovery":
        reports = verify_recovery(args.scenario, args.seed,
                                  hash_seeds=tuple(args.hash_seeds))
    elif args.command == "verify-alerts":
        reports = verify_alerts(args.seed,
                                hash_seeds=tuple(args.hash_seeds),
                                scenarios=tuple(args.scenarios))
    elif args.command == "verify-telemetry":
        reports = verify_telemetry(args.seed,
                                   hash_seeds=tuple(args.hash_seeds))
    elif args.command == "verify-shard":
        reports = []
        for name in args.scenarios:
            reports.extend(verify_shard(
                name, args.seed, shards=args.shards,
                hash_seeds=tuple(args.hash_seeds),
                crash=(None if args.crash == "none" else args.crash)))
    elif args.command == "verify-failover":
        reports = verify_failover(
            args.seed, hash_seeds=tuple(args.hash_seeds),
            cadence=args.cadence, crashes=tuple(args.crashes))
    elif args.command == "verify-batch":
        reports = [verify_batch_equivalence(
            args.scenario, args.seed, batch_size=args.batch_size,
            hash_seed=args.hash_seed)]
    else:
        reports = [verify_replay(args.scenario, args.seed,
                                 hash_seeds=tuple(args.hash_seeds))]
    for report in reports:
        print(report.describe())
    return 0 if all(report.ok for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
