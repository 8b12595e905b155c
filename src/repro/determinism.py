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
* :func:`verify` (public name ``repro.verify_replay``) -- runs a
  scenario in subprocesses, once per *arm*, and diffs the snapshots.
  An :class:`Arm` is one way of executing the same query over the same
  packets: a ``PYTHONHASHSEED``, a block size, a topology (``single``,
  ``shards:N``, ``standby:CADENCE``) and a crash point.  A stream query
  is a function of its input sequence, so every arm must agree with the
  reference arm (default block size, single process, no crash) on
  everything :func:`comparable` keeps for the fields they differ in --
  DESIGN section 9 has the table.  Each ``@scenario`` declares the axes
  it really has; asking for any other is an :class:`ArmError`, never a
  pass.

Command line (via the :mod:`repro.replay` shim)::

    python -m repro.replay run --scenario shard_e2 --arm topology=shards:4
    python -m repro.replay verify --scenario mixed e4 --seed 7
    python -m repro.replay verify --scenario e4 --arm block=1 block=7

``verify`` without ``--arm`` diffs the arms each scenario declares.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import zlib
from dataclasses import dataclass, replace
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
# Arms: the ways one scenario can be executed
# ---------------------------------------------------------------------------

class ArmError(ValueError):
    """A malformed arm, or an axis the scenario does not declare."""


#: ``--arm`` key -> :class:`Arm` field (``hash_seed`` has no key: it is
#: the child's ``PYTHONHASHSEED``, fixed before the interpreter starts)
_ARM_KEYS = {"block": "block_size", "topology": "topology", "crash": "crash"}


@dataclass(frozen=True)
class Arm:
    """One way of executing a scenario; the default is the reference.

    Written ``block=7,topology=shards:4,crash=1:600`` (the ``key=value``
    grammar of ``--fault``).  ``crash`` is the spec its topology already
    understands: for ``single`` the node the scenario declares a
    transient ``at_tuple`` fault for, for ``shards:N`` a
    ``SHARD:PACKET_INDEX`` (``ShardedGigascope(crash=)``), for
    ``standby:CADENCE`` a ``packet:K | frame:N[:torn]``
    (``ReplicatedGigascope(crash=)``).  Every field is validated here,
    by the validator of the constructor it ends up in, so a malformed
    arm never reaches a child process.
    """

    hash_seed: Optional[str] = None
    block_size: Optional[int] = None
    topology: str = "single"
    crash: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.core.engine import resolve_batch_size
        from repro.replication import (parse_crash_spec,
                                       resolve_replicate_cadence)
        from repro.shard.runtime import parse_crash
        kind, _, param = self.topology.partition(":")
        try:
            resolve_batch_size(self.block_size)
            if kind == "shards":
                if not param.isdigit() or int(param) < 1:
                    raise ValueError("shards:N needs an integer N >= 1")
                parse_crash(self.crash, int(param))
            elif kind == "standby":
                resolve_replicate_cadence(param)
                if self.crash:
                    parse_crash_spec(self.crash)
            elif self.topology != "single":
                raise ValueError("use single, shards:N or standby:CADENCE")
            elif self.crash is not None and not self.crash.isidentifier():
                raise ValueError(f"crash {self.crash!r} does not fit "
                                 f"topology=single (a node name)")
        except ValueError as error:
            raise ArmError(f"bad arm {self.spec()!r}: {error}") from None

    @classmethod
    def parse(cls, spec: str) -> "Arm":
        fields: Dict[str, Any] = {}
        for part in filter(None, spec.split(",")):
            key, _, value = (text.strip() for text in part.partition("="))
            if key not in _ARM_KEYS or not value:
                raise ArmError(
                    f"bad arm {spec!r}: {part!r} is not one of block=N, "
                    f"topology=single|shards:N|standby:CADENCE, crash=SPEC")
            fields[_ARM_KEYS[key]] = value
        if "block_size" in fields:
            try:
                fields["block_size"] = int(fields["block_size"])
            except ValueError:
                raise ArmError(f"bad arm {spec!r}: block must be an "
                               f"integer") from None
        return cls(**fields)

    def spec(self) -> str:
        """The ``--arm`` text that parses back to this arm."""
        parts = [f"{key}={getattr(self, name)}"
                 for key, name in _ARM_KEYS.items()
                 if getattr(self, name) not in (None, "single")]
        return ",".join(parts) or "topology=single"

    def describe(self) -> str:
        seed = f"PYTHONHASHSEED={self.hash_seed} " if self.hash_seed else ""
        return f"{seed}--arm {self.spec()}"

    def differs(self, other: "Arm") -> Tuple[str, ...]:
        """The fields (``hash`` or an ``--arm`` key) two arms differ in."""
        names = dict(_ARM_KEYS, hash="hash_seed")
        return tuple(sorted(key for key, name in names.items()
                            if getattr(self, name) != getattr(other, name)))


@dataclass(frozen=True)
class Axes:
    """What a scenario declares it can vary (see :func:`scenario`)."""

    #: ``(node, at_tuple)``: the transient crash ``crash=NODE`` arms
    #: under ``topology=single``; None: no crash to ask for
    crash: Optional[Tuple[str, int]] = None
    #: topology kinds the scenario builds (``single``/``shards``/``standby``)
    topologies: Tuple[str, ...] = ("single",)
    #: what ``verify`` diffs against the reference when given no ``--arm``
    arms: Tuple[str, ...] = ()

    def check(self, name: str, arm: Arm) -> None:
        """Refuse an arm asking for an axis ``name`` did not declare."""
        kind = arm.topology.partition(":")[0]
        asked = f"asked for --arm {arm.spec()}"
        if kind not in self.topologies:
            raise ArmError(f"scenario {name!r} declares no topology={kind} "
                           f"axis ({asked}; it builds "
                           f"{', '.join(self.topologies)})")
        if kind == "single" and arm.crash is not None:
            if self.crash is None:
                raise ArmError(f"scenario {name!r} declares no crash axis "
                               f"({asked})")
            if arm.crash != self.crash[0]:
                raise ArmError(f"scenario {name!r} declares crash="
                               f"{self.crash[0]}, not crash={arm.crash}")


class LastRun:
    """The scenario in flight and the last engine it built:
    :func:`run_scenario` sets ``axes``, :func:`engine_for` reads the
    declared crash target off it and records ``engine`` (CI's failure
    artifacts hand it to :func:`repro.report.plane_reports`)."""

    axes = Axes()
    engine = None


def engine_for(arm: Arm, seed: int, **kwargs):
    """The engine ``arm`` asks for: its topology, block size and crash."""
    kwargs.update(seed=seed, batch_size=arm.block_size)
    kind, _, param = arm.topology.partition(":")
    if kind == "shards":
        from repro.shard import ShardedGigascope
        gs = ShardedGigascope(int(param), crash=arm.crash,
                              barrier_interval=0.25, **kwargs)
    elif kind == "standby":
        from repro.replication import ReplicatedGigascope
        gs = ReplicatedGigascope(cadence=float(param), crash=arm.crash,
                                 **kwargs)
    else:
        from repro.core.engine import Gigascope
        gs = Gigascope(**kwargs)
        if arm.crash is not None:
            # An operator fault can only arm once its node exists, and
            # the engine is built before the queries are added: arm it
            # on the way out of start().
            node, at_tuple = LastRun.axes.crash or (None, 0)
            if node != arm.crash:
                raise ArmError(f"crash={arm.crash} is not what the scenario "
                               f"in flight declares; use run_scenario()")
            start = gs.start

            def start_then_crash() -> None:
                start()
                gs.inject_faults([f"operator_error:node={node},"
                                  f"at_tuple={at_tuple},times=1"])
            gs.start = start_then_crash
    LastRun.engine = gs
    return gs


# ---------------------------------------------------------------------------
# Replay scenarios
# ---------------------------------------------------------------------------

#: name -> callable(seed, arm) returning a JSON-serializable snapshot
SCENARIOS: Dict[str, Callable[[int, Arm], Dict[str, Any]]] = {}


def scenario(name: Optional[str] = None, **axes):
    """Declare a scenario callable's :class:`Axes` and register it under
    ``name`` (None: declare only, for a ``module:callable`` scenario)."""
    def declare(fn):
        fn.axes = Axes(**axes)
        if name is not None:
            SCENARIOS[name] = fn
        return fn
    return declare


def snapshot_engine(gs, subscriptions: Dict[str, Any]) -> Dict[str, Any]:
    """Everything replay must reproduce byte-for-byte, as one dict.

    ``rows`` uses ``repr`` so float formatting and bytes content are
    compared exactly; ``drops`` is the end-to-end overload ledger;
    ``stats`` carries per-node counters including hash-table collision
    (= group ejection) counts; ``metrics`` is the full registry
    exposition.
    """
    snapshot = dict(_rows(gs, subscriptions), drops=gs.overload_report(),
                    stats=gs.stats())
    if gs.metrics is not None:
        snapshot["metrics"] = json.loads(gs.metrics.to_json())
    return snapshot


def _rows(gs, subscriptions: Dict[str, Any]) -> Dict[str, Any]:
    """The rows-only snapshot of a scenario that changes topology: node
    names and metric families differ structurally between the runtimes
    (``shardN/`` prefixes, ``gs_shard_*``), the rows must not at all."""
    return {"rows": {name: [repr(row) for row in sub.poll()]
                     for name, sub in sorted(subscriptions.items())}}


_FLOWS = """
    DEFINE query_name flows;
    Select tb, srcIP, srcPort, count(*), sum(len)
    From tcp
    Group by time/5 as tb, srcIP, srcPort
"""


def _zipf(seed: int, flows: int = 400, alpha: float = 1.1,
          count: int = 4000) -> List[Any]:
    from repro.workloads.flows import ZipfFlowWorkload
    workload = ZipfFlowWorkload(num_flows=flows, alpha=alpha,
                                seed=derive_seed(seed, "workload.zipf"))
    return list(workload.packets(count, pps=2000.0))


def _drive(gs, subs, packets, pump_every: int = 256,
           snapshot=snapshot_engine) -> Dict[str, Any]:
    """Start, feed, flush, snapshot: the back half of every scenario."""
    gs.start()
    gs.feed(packets, pump_every=pump_every)
    gs.flush()
    return snapshot(gs, subs)


@scenario("mixed", arms=("block=1",))
def _mixed_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """Sampling + shedding + LFTA aggregation, all drawing randomness.

    A deliberately hostile replay target: a ``DEFINE sample`` query
    (sample RNG), a static shed gate (shed RNG), an LFTA partial
    aggregation over an undersized direct-mapped table (slot placement
    and ejections), bounded channels (overflow drops), over a Zipf flow
    workload (generator RNG).
    """
    gs = engine_for(arm, seed, lfta_table_size=64, channel_capacity=256,
                    heartbeat_interval=0.5)
    gs.add_query(_FLOWS)
    gs.add_query("""
        DEFINE { query_name sampled; sample 0.25; }
        Select srcIP, destIP, destPort, time
        From tcp
        Where protocol = 6
    """)
    gs.enable_shedding("static:0.6")
    subs = {name: gs.subscribe(name) for name in ("flows", "sampled")}
    return _drive(gs, subs, _zipf(seed), pump_every=128)


@scenario("e4", arms=("block=1", "block=7"))
def _e4_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """E4-style aggregation sweep step: small table, skewed flows.

    Group ejections from the direct-mapped table dominate the output,
    so any instability in slot placement is immediately visible.
    """
    gs = engine_for(arm, seed, lfta_table_size=128)
    gs.add_query("""
        DEFINE query_name flows;
        Select tb, srcIP, srcPort, count(*), sum(len)
        From tcp
        Group by time/30 as tb, srcIP, srcPort
    """)
    subs = {"flows": gs.subscribe("flows")}
    return _drive(gs, subs, _zipf(seed, flows=2000, alpha=0.8, count=6000))


# -- recovery scenarios ------------------------------------------------------
#
# Each declares one transient OperatorFault (raises once, then heals)
# against a named node; ``crash=NODE`` arms it.  Both arms run the
# recovery supervisor with identical settings, so the only difference
# is the crash and the restore/replay that repairs it: recovery is
# correct exactly when the two arms are byte-identical.  The reference
# runs at the default block size, so the crash lands inside a block.

@scenario("recovery_agg", crash=("flows", 400), arms=("crash=flows",))
def _recovery_agg_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """Aggregation crash mid-stream: HFTA group state restored+replayed."""
    gs = engine_for(arm, seed, lfta_table_size=64, channel_capacity=256,
                    heartbeat_interval=0.5)
    gs.add_query(_FLOWS)
    subs = {"flows": gs.subscribe("flows")}
    gs.enable_recovery(checkpoint_interval=0.4)
    return _drive(gs, subs, _zipf(seed), pump_every=64)


@scenario("recovery_join", crash=("j", 150), arms=("crash=j",))
def _recovery_join_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """Join crash mid-stream: window buffers restored, pairs replayed."""
    from repro.net.build import build_tcp_frame, capture

    gs = engine_for(arm, seed, channel_capacity=512, heartbeat_interval=0.5)
    gs.add_query("""
        DEFINE query_name j;
        Select B.time, B.destPort From eth0.tcp B, eth1.tcp C
        Where B.time = C.time and B.destPort = C.destPort
    """)
    subs = {"j": gs.subscribe("j")}
    gs.enable_recovery(checkpoint_interval=0.5)
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
    return _drive(gs, subs, packets, pump_every=32)


@scenario("recovery_tcp", crash=("tcpre0", 300), arms=("crash=tcpre0",))
def _recovery_tcp_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """TCP-reassembly crash: flow tables and out-of-order buffers survive.

    A packet consumer, so the repair replays the *global packet
    journal* -- the path exercised when the crashing node sits on the
    card side of the split rather than behind a channel.
    """
    from repro.net.build import build_tcp_frame, capture
    from repro.net.tcp import FLAG_ACK, FLAG_SYN
    from repro.operators.tcp_reassembly import TcpReassemblyNode

    gs = engine_for(arm, seed, heartbeat_interval=0.5)
    gs.add_node(TcpReassemblyNode("tcpre0"), interface="eth0")
    subs = {"tcpre0": gs.subscribe("tcpre0")}
    gs.enable_recovery(checkpoint_interval=0.5)
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
    return _drive(gs, subs, packets, pump_every=32)


# -- alert scenarios ---------------------------------------------------------
#
# The alert plane's determinism contract (DESIGN section 12): trigger
# evaluation is a pure function of journaled channel items (query rows
# and EpochTicks both travel through the trigger's input channels), so
# the emitted alert stream must be byte-identical across hash seeds and
# across a crash/restore of the trigger node itself (``alert_<trigger>``
# is each scenario's declared crash target).

def _alert_scenario(seed: int, arm: Arm, query: str, trigger: str,
                    packets) -> Dict[str, Any]:
    gs = engine_for(arm, seed, heartbeat_interval=0.5, channel_capacity=512)
    watch = gs.add_query(query)
    # 8s between checkpoints puts the first RAISE (stream time ~25)
    # inside the journal gap of a crash at the trigger's second row
    # (~30), so the repair must re-evaluate the raising epoch and the
    # emit gate must suppress the already-delivered alert row
    # (exactly-once).
    gs.enable_recovery(checkpoint_interval=8.0)
    gs.enable_alerts([trigger])
    subs = {watch: gs.subscribe(watch), "alerts": gs.subscribe("alerts")}
    return _drive(gs, subs, packets, pump_every=64)


@scenario("alerts_syn_flood", crash=("alert_synflood", 2),
          arms=("crash=alert_synflood",))
def _alerts_syn_flood_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """SYN-flood detection through the trigger layer, crash-restartable.

    The crash lands on the second row the trigger sees: after the first
    RAISE-able epoch closed, with live hysteresis/raised state to
    restore."""
    from repro.workloads.scenarios import syn_flood

    attack = syn_flood(seed=derive_seed(seed, "alerts.synflood"),
                       duration_s=40.0, background_mbps=6.0, pps=800.0)
    return _alert_scenario(seed, arm, """
        DEFINE query_name syn_watch;
        Select tb, destIP, count(*) as syns
        From tcp Where tcpflags & 18 = 2
        Group by time/5 as tb, destIP
    """, "synflood:on=syn_watch,key=destIP,when=sum(syns) > 400,epoch=5,"
         "raise_for=1,clear_for=2,severity=critical", attack.packets)


@scenario("alerts_port_scan", crash=("alert_portscan", 2),
          arms=("crash=alert_portscan",))
def _alerts_port_scan_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """Port-scan detection through the trigger layer, crash-restartable."""
    from repro.workloads.scenarios import port_scan

    attack = port_scan(seed=derive_seed(seed, "alerts.portscan"),
                       duration_s=40.0, background_mbps=6.0)
    return _alert_scenario(seed, arm, """
        DEFINE query_name scan_watch;
        Select tb, srcIP, count(*) as probes
        From tcp Where tcpflags & 18 = 2
        Group by time/5 as tb, srcIP
    """, "portscan:on=scan_watch,key=srcIP,when=sum(probes) > 150,epoch=5,"
         "raise_for=1,clear_for=2,severity=warning", attack.packets)


# -- telemetry scenarios -----------------------------------------------------
#
# The self-telemetry contract (DESIGN section 13): ``_gs_*`` rows carry
# only deterministic values (virtual time, cumulative counters,
# per-sample deltas) and travel through the same journaled channels as
# every other stream item, so the streams -- and any GSQL meta-query or
# meta-alert computed from them -- replay byte-identically across hash
# seeds and across a crash/restore.  Wall-clock cost lives only in the
# ``gs_telemetry_profile_wall*`` families, which :func:`comparable`
# always removes.

def _telemetry_scenario(seed: int, arm: Arm, streams: Tuple[str, ...],
                        faults: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """The shared telemetry topology, fed and snapshotted.

    A selection query keeps per-packet pressure on its subscription
    channel (so an injected storm produces real overflow drops), a
    GSQL meta-query and a meta-alert trigger both read ``_gs_channel``
    unmodified, and the recovery supervisor runs so ``_gs_recovery``
    carries live counters.
    """
    from repro.workloads.generators import http_port80_pool, packet_stream

    gs = engine_for(arm, seed, heartbeat_interval=0.5, channel_capacity=256)
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
    gs.enable_recovery(checkpoint_interval=8.0)
    gs.enable_alerts([
        "chanstorm:on=_gs_channel,key=channel,when=sum(dropped_delta) > 40,"
        "epoch=2,raise_for=1,clear_for=2,severity=warning",
    ])
    subs = {name: gs.subscribe(name)
            for name in ("pkts", "chan_drops", "alerts") + streams}
    gs.start()
    gs.inject_faults(faults)
    pool = http_port80_pool(seed=derive_seed(seed, "telemetry.pool") & 0xFFFF)
    gs.feed(packet_stream(pool, rate_mbps=2.0, duration_s=10.0,
                          seed=derive_seed(seed, "telemetry.stream")),
            pump_every=64)
    gs.flush()
    return comparable(snapshot_engine(gs, subs))


@scenario("telemetry_meta")
def _telemetry_meta_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """Every ``_gs_*`` stream plus meta-query and meta-alert, under an
    injected channel storm.  The hash-seed replay target: all five
    telemetry streams are subscribed and snapshotted byte-for-byte."""
    from repro.obs.telemetry import TELEMETRY_STREAMS

    return _telemetry_scenario(
        seed, arm, TELEMETRY_STREAMS,
        faults=("channel_storm:at=3.0,duration=2.0,capacity=4",))


@scenario("telemetry_crash", crash=("chan_drops", 40),
          arms=("crash=chan_drops",))
def _telemetry_crash_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """Meta-query crash mid-stream (``chan_drops`` has seen ~half the
    telemetry rows and holds an open epoch of drop sums): telemetry
    rows are journaled channel items like any other, so restore +
    replay must reconstruct the clean run.  ``_gs_recovery`` is left
    unsubscribed -- its rows count the repair itself, the one stream
    that differs across arms by design (the same exclusion
    :func:`comparable` makes for the ``gs_recovery*`` families)."""
    return _telemetry_scenario(
        seed, arm, ("_gs_channel", "_gs_operator", "_gs_shed", "_gs_alert"))


# -- sharded-runtime scenarios -----------------------------------------------
#
# ``topology=shards:N`` runs the multi-process ShardedGigascope instead
# of the single-process engine.  The sharded runtime's whole contract
# is that stripe partitioning plus superaggregate shard-merge is
# *invisible* in the output, including when ``crash=SHARD:INDEX`` kills
# a worker mid-stream and the parent respawns it from its fold of the
# worker's state frames.

_SHARD_ARMS = ("topology=shards:4", "topology=shards:4,crash=1:600")


@scenario("shard_flows", topologies=("single", "shards"), arms=_SHARD_ARMS)
def _shard_flows_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """Zipf flow aggregation, single-process vs stripe-partitioned shards.

    Many groups (three-part key), several barrier crossings, skewed
    flow sizes -- the canonical workload for checking that shard-merge
    reproduces the global (window, key)-ordered output byte-for-byte.
    """
    gs = engine_for(arm, seed, metrics=False, heartbeat_interval=0.5)
    gs.add_query(_FLOWS)
    subs = {"flows": gs.subscribe("flows")}
    return _drive(gs, subs, _zipf(seed), pump_every=128, snapshot=_rows)


@scenario("shard_e2", topologies=("single", "shards"), arms=_SHARD_ARMS)
def _shard_e2_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """The E2 deployment shape: two merged links feeding an aggregation.

    Exercises the full worker pipeline -- per-interface LFTAs, the
    merge operator, then the terminal aggregation flipped to partials --
    exactly what the E16 benchmark measures.
    """
    from repro.workloads.generators import (http_port80_pool, merge_streams,
                                            packet_stream)

    gs = engine_for(arm, seed, metrics=False, heartbeat_interval=1.0)
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
    subs = {"appmon": gs.subscribe("appmon")}
    a = packet_stream(http_port80_pool(seed=1), rate_mbps=25.0,
                      duration_s=10.0, interface="eth0",
                      seed=derive_seed(seed, "shard_e2.eth0"))
    b = packet_stream(http_port80_pool(seed=2), rate_mbps=25.0,
                      duration_s=10.0, interface="eth1",
                      seed=derive_seed(seed, "shard_e2.eth1"))
    packets = list(itertools.islice(merge_streams(a, b), 4000))
    return _drive(gs, subs, packets, snapshot=_rows)


# -- failover scenarios ------------------------------------------------------
#
# The replication plane's contract (DESIGN section 16): a warm standby
# promoted after the primary dies -- mid-delta-interval, at the
# snapshot epoch, after a delta frame, or on a torn write (the standby
# must refuse the torn frame and promote from the one before) -- must
# produce output byte-identical to the uninterrupted run.  The
# ``standby`` arms' snapshots carry a ``failover`` metadata block that
# is never diffed, only asserted on: a crash arm must actually have
# promoted, a clean arm must not.

@scenario("failover_agg", topologies=("single", "standby"),
          arms=("topology=standby:0.5",) + tuple(
              f"topology=standby:0.5,crash={crash}" for crash in
              ("packet:700", "frame:0", "frame:2", "frame:2:torn")))
def _failover_agg_scenario(seed: int, arm: Arm) -> Dict[str, Any]:
    """Flow aggregation plus a per-packet selection, primary vs promoted
    standby.  The aggregation carries open-group state across every
    crash point; the selection keeps per-packet pressure on the
    exactly-once skip gate (hundreds of delivered rows to suppress on
    replay)."""
    gs = engine_for(arm, seed, metrics=False, heartbeat_interval=0.5,
                    lfta_table_size=64)
    gs.add_query(_FLOWS)
    gs.add_query("""
        DEFINE query_name web;
        Select time, srcIP, destPort From tcp Where destPort = 80
    """)
    subs = {name: gs.subscribe(name) for name in ("flows", "web")}
    snapshot = _drive(gs, subs, _zipf(seed), pump_every=128, snapshot=_rows)
    if hasattr(gs, "replication_report"):
        snapshot["failover"] = gs.replication_report()
    return snapshot


def resolve_scenario(name: str) -> Callable[[int, Arm], Dict[str, Any]]:
    """A registered scenario, or a ``module:callable`` dotted path."""
    if name in SCENARIOS:
        return SCENARIOS[name]
    if ":" in name:
        module_name, _, attr = name.partition(":")
        import importlib
        try:
            return getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as error:
            raise KeyError(f"unknown scenario {name!r}: {error}") from None
    raise KeyError(
        f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)} "
        f"(or use a 'module:callable' path)"
    )


def axes_of(name: str) -> Axes:
    """The axes scenario ``name`` declares (none declared: none to ask)."""
    return getattr(resolve_scenario(name), "axes", Axes())


def run_scenario(name: str, seed: int = 0, arm: Optional[Arm] = None
                 ) -> Dict[str, Any]:
    """Run one arm of a scenario (None: the reference) in this process
    and return its snapshot; ``arm.hash_seed`` cannot be applied here."""
    arm = arm or Arm()
    LastRun.axes = axes_of(name)
    LastRun.axes.check(name, arm)
    return resolve_scenario(name)(seed, arm)


# ---------------------------------------------------------------------------
# The replay verifier
# ---------------------------------------------------------------------------

def comparable(snapshot: Dict[str, Any],
               differ: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """What two runs whose arms differ in the ``differ`` fields must
    agree on (DESIGN section 9's table; the snapshot is not modified).

    Always dropped: the ``gs_telemetry_profile_wall*`` families
    (``perf_counter`` spans differ between any two runs by nature) and
    the ``failover`` block (:func:`compare` asserts on it instead).
    ``block``: the ``gs_batch*`` families count blocks fed and the
    configured size.  ``crash``: the ``gs_recovery*`` families count
    restarts and replay work, and the ``faults`` entry of the drop
    ledger describes the injected crash itself.  ``topology``: only the
    rows survive.  ``hash`` excuses nothing.
    """
    if "topology" in differ:
        return {"rows": snapshot["rows"]}
    out = {key: value for key, value in snapshot.items() if key != "failover"}
    dropped = ["gs_telemetry_profile_wall"]
    if "block" in differ:
        dropped.append("gs_batch")
    if "crash" in differ:
        dropped.append("gs_recovery")
    metrics = out.get("metrics")
    if isinstance(metrics, dict) and isinstance(metrics.get("metrics"), list):
        out["metrics"] = dict(metrics, metrics=[
            family for family in metrics["metrics"]
            if not str(family.get("name", "")).startswith(tuple(dropped))])
    if "crash" in differ and isinstance(out.get("drops"), dict):
        out["drops"] = {key: value for key, value in out["drops"].items()
                        if key != "faults"}
    return out


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


def compare(left: Arm, first: Dict[str, Any],
            right: Arm, second: Dict[str, Any]) -> List[str]:
    """The paths where two arms' snapshots disagree on what they must
    agree on, plus a line for each arm whose standby promoted when it
    should not have (no crash) or did not when it should (a crash)."""
    differ = left.differs(right)
    diffs: List[str] = []
    _diff_paths(comparable(first, differ), comparable(second, differ),
                "$", diffs)
    for arm, snapshot in ((left, first), (right, second)):
        promoted = bool(snapshot.get("failover", {}).get("promoted"))
        expected = arm.topology.startswith("standby") and arm.crash is not None
        if promoted != expected:
            diffs.append(f"$.failover.promoted: {promoted} under "
                         f"{arm.describe()}, must be {expected}")
    return diffs


@dataclass
class ReplayReport:
    """One comparison of :func:`verify`: two arms and where they differ."""

    scenario: str
    seed: int
    arms: Tuple[Arm, Arm]
    diffs: List[str]
    snapshots: Optional[Tuple[Dict[str, Any], Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        return not self.diffs

    @property
    def axis(self) -> str:
        """The fields the two arms differ in, e.g. ``crash+topology``."""
        return "+".join(self.arms[0].differs(self.arms[1]))

    def describe(self) -> str:
        """One line whose pieces paste back (``replay run --scenario S
        --seed N --arm SPEC`` reruns either side), then the diverging
        paths."""
        left, right = (arm.describe() for arm in self.arms)
        head = (f"--scenario {self.scenario} --seed {self.seed} "
                f"[{self.axis}]: {left}")
        if self.ok:
            return f"replay OK: {head} == {right}"
        return "\n".join([f"replay FAILED: {head} != {right}:"]
                         + [f"  - {diff}" for diff in self.diffs])


def _subprocess_snapshot(name: str, seed: int, arm: Arm) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = arm.hash_seed
    src_root = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro.replay", "run", "--scenario", name,
         "--seed", str(seed), "--arm", arm.spec()],
        env=env, capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise RuntimeError(f"scenario {name!r} failed under "
                           f"{arm.describe()}:\n" + result.stderr)
    return json.loads(result.stdout)


def plan(scenario_name: str, hash_seeds: Tuple[str, ...] = ("1", "2"),
         arms: Optional[Tuple[Any, ...]] = None) -> List[Tuple[Arm, Arm]]:
    """The comparisons :func:`verify` makes, as ``(left, right)`` arms:
    the first hash seed's reference against every other seed's, then
    each arm (``--arm`` texts or :class:`Arm` values; None: the ones the
    scenario declares) against the reference *of its own hash seed*.
    An arm the scenario did not declare, a malformed one, or nothing to
    compare is an :class:`ArmError`."""
    axes = axes_of(scenario_name)
    arms = [Arm.parse(arm) if isinstance(arm, str) else arm
            for arm in (axes.arms if arms is None else arms)]
    for arm in arms:
        axes.check(scenario_name, arm)
        if arm == Arm():
            raise ArmError(f"arm {arm.spec()!r} is the reference arm")
    references = [Arm(hash_seed=str(hash_seed))
                  for hash_seed in dict.fromkeys(hash_seeds)]
    pairs = [(references[0], other) for other in references[1:]]
    pairs += [(reference, replace(arm, hash_seed=reference.hash_seed))
              for reference in references for arm in arms]
    if not pairs:
        raise ArmError(f"nothing to compare: scenario {scenario_name!r} "
                       f"with one hash seed and no arm")
    return pairs


def verify(scenario_name: str, seed: int = 0,
           hash_seeds: Tuple[str, ...] = ("1", "2"),
           arms: Optional[Tuple[Any, ...]] = None) -> List[ReplayReport]:
    """Run each arm of :func:`plan` once, in a subprocess, and diff the
    pairs.  A passing report means its two arms agree on everything
    :func:`comparable` keeps for the fields they differ in."""
    snapshots: Dict[Arm, Dict[str, Any]] = {}
    reports = []
    for pair in plan(scenario_name, hash_seeds, arms):
        for arm in pair:
            if arm not in snapshots:
                snapshots[arm] = _subprocess_snapshot(scenario_name, seed, arm)
        left, right = pair
        reports.append(ReplayReport(
            scenario_name, seed, pair,
            compare(left, snapshots[left], right, snapshots[right]),
            snapshots=(snapshots[left], snapshots[right])))
    return reports


#: the name ``repro`` exports
verify_replay = verify


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.replay",
        description="Deterministic-replay tools.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run_cmd = commands.add_parser(
        "run", help="run one arm of a scenario, print its snapshot as JSON")
    run_cmd.add_argument("--scenario", default="mixed",
                         help=f"one of {sorted(SCENARIOS)} or module:callable")
    run_cmd.add_argument("--arm", default="", metavar="SPEC",
                         help="block=N,topology=single|shards:N|"
                              "standby:CADENCE,crash=SPEC (default: the "
                              "reference arm)")
    verify_cmd = commands.add_parser(
        "verify", help="run each scenario's arms under each "
                       "PYTHONHASHSEED and diff them against the reference")
    verify_cmd.add_argument("--scenario", nargs="+", default=["mixed"],
                            metavar="S")
    verify_cmd.add_argument("--hash-seeds", nargs="+", default=["1", "2"],
                            metavar="H")
    verify_cmd.add_argument("--arm", nargs="+", action="extend",
                            metavar="SPEC",
                            help="arms to diff against the reference "
                                 "(default: the ones each scenario declares)")
    for sub in (run_cmd, verify_cmd):
        sub.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:  # every refusal happens here, before anything runs
        if args.command == "run":
            arm = Arm.parse(args.arm)
            axes_of(args.scenario).check(args.scenario, arm)
        else:
            for name in args.scenario:
                plan(name, args.hash_seeds, args.arm)
    except (ArmError, KeyError) as error:
        parser.error(str(error.args[0]))
    if args.command == "run":
        json.dump(run_scenario(args.scenario, args.seed, arm), sys.stdout,
                  sort_keys=True)
        sys.stdout.write("\n")
        return 0
    ok = True
    for name in args.scenario:
        for report in verify(name, args.seed, args.hash_seeds, args.arm):
            print(report.describe(), flush=True)
            ok = ok and report.ok
    return 0 if ok else 1
