"""``gsq``: run GSQL queries over pcap traces from the command line.

The workflow the paper's network analysts follow, minus the cluster:

    # one query inline, results as CSV on stdout
    python -m repro.cli --pcap trace.pcap \\
        --query "Select destIP, destPort, time From tcp Where destPort = 80"

    # a batch file of ';'-separated queries, subscribing to two of them
    python -m repro.cli --pcap trace.pcap --query-file queries.gsql \\
        --subscribe counts --subscribe alerts --output out/

    # show the compiled plans without running anything
    python -m repro.cli --query-file queries.gsql --explain

Exit status is 0 on success, 1 on query errors, 2 on bad usage (a
malformed flag value, an unreadable input file, an unwritable output
path, a plane the chosen engine refuses): one ``gsq: error:`` line
naming flag and offender, no traceback.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Iterable, List, Optional

from repro.core.engine import Gigascope
from repro.core.stream_manager import RegistryError
from repro.gsql.lexer import GSQLSyntaxError
from repro.gsql.semantic import SemanticError
from repro.net.packet import CapturedPacket, int_to_ip
from repro.net.pcap import PcapReader


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsq",
        description="Run GSQL stream queries over a pcap trace.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--pcap", action="append", default=[],
                        metavar="FILE[:IFACE]",
                        help="pcap file to replay; ':IFACE' binds it to an "
                             "interface name (default eth0, eth1, ... in "
                             "order given)")
    source.add_argument("--synthetic", metavar="MBPSxSECONDS",
                        help="generate synthetic port-80+background traffic "
                             "instead of reading a trace, e.g. 100x5")
    parser.add_argument("--query", action="append", default=[],
                        help="GSQL query text (repeatable)")
    parser.add_argument("--query-file", action="append", default=[],
                        help="file of ';'-separated GSQL queries (repeatable)")
    parser.add_argument("--subscribe", action="append", default=[],
                        metavar="NAME",
                        help="query name to print/write results for "
                             "(default: every named query)")
    parser.add_argument("--output", metavar="DIR",
                        help="write one CSV per subscription into DIR "
                             "instead of stdout")
    parser.add_argument("--param", action="append", default=[],
                        metavar="QUERY.NAME=VALUE",
                        help="set a query parameter, e.g. watch.port=80")
    parser.add_argument("--explain", action="store_true",
                        help="print the LFTA/HFTA plans and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print per-node statistics (including "
                             "per-channel overflow counters) after the run")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="root seed for every data-path RNG (DEFINE-"
                             "sample gates, shed gates, fault coin flips); "
                             "the same queries, packets, and seed replay "
                             "byte-identically regardless of "
                             "PYTHONHASHSEED (default 0)")
    parser.add_argument("--fault", action="append", default=[],
                        metavar="SPEC",
                        help="inject a seeded, virtual-time fault "
                             "(repeatable): ring_burst:at=T,duration=D"
                             "[,drop=P] | channel_storm:at=T,duration=D"
                             "[,capacity=N] | clock_skew:iface=I,skew=S | "
                             "heartbeat_silence:at=T,duration=D | "
                             "operator_error:node=NAME[,at_tuple=N]"
                             "[,times=K]; "
                             "prints each injector's ledger after the run")
    parser.add_argument("--alert", action="append", default=[],
                        metavar="SPEC",
                        help="attach a declarative trigger to a named query "
                             "(repeatable): NAME:on=QUERY,when=COND"
                             "[,key=FIELD][,severity=info|warning|critical]"
                             "[,epoch=SECS][,raise_for=N][,clear_for=N]"
                             "[,min_interval=SECS], e.g. "
                             "'flood:on=syn_watch,key=destIP,"
                             "when=sum(syns) > 400'; RAISE/CLEAR rows land "
                             "on the 'alerts' stream (--subscribe alerts) "
                             "and the alert report prints after the run")
    parser.add_argument("--alert-out", metavar="PATH",
                        help="write the merged alert stream as JSON lines "
                             "to PATH (requires --alert)")
    parser.add_argument("--recover", action="store_true",
                        help="enable checkpoint/restore recovery: crashed "
                             "operators restart from the last checkpoint "
                             "with their input-journal gap replayed instead "
                             "of being permanently quarantined")
    parser.add_argument("--checkpoint-interval", type=float, metavar="SECS",
                        help="virtual-time seconds between crash-consistent "
                             "checkpoints (implies --recover; default 1.0)")
    parser.add_argument("--max-restarts", type=int, metavar="N",
                        help="restart attempts per node before degrading to "
                             "permanent quarantine (implies --recover; "
                             "default 3)")
    parser.add_argument("--shed", metavar="POLICY",
                        help="enable the overload control plane with this "
                             "shedding policy: none | static:RATE | adaptive; "
                             "prints the overload report after the run")
    parser.add_argument("--channel-capacity", type=int, metavar="N",
                        help="bound inter-node channels at N tuples "
                             "(overflow drops data tuples, never "
                             "punctuation; drops are accounted)")
    parser.add_argument("--batch-size", type=int, metavar="N",
                        help="packets per block on the data path (1 runs "
                             "blocks of one; default 256)")
    parser.add_argument("--shards", type=int, metavar="N",
                        help="stripe the packet list by position across N "
                             "worker processes, each running an independent "
                             "engine, with superaggregate shard-merge in "
                             "the parent (default: single-process; joins "
                             "and aggregations read by another query are "
                             "refused); "
                             "prints the shard report "
                             "after the run")
    parser.add_argument("--standby", action="store_true",
                        help="run a warm-standby pair: the primary streams "
                             "checksummed snapshot/delta frames to an "
                             "in-process replica, which is promoted on "
                             "primary failure with exactly-once output; "
                             "prints the replication report after the run")
    parser.add_argument("--replicate", metavar="SECS",
                        help="virtual-time seconds between replication "
                             "delta frames (implies --standby; 0 ships a "
                             "frame at every pump boundary; default 1.0)")
    parser.add_argument("--promote-after", type=float, metavar="SECS",
                        help="promote the standby once heartbeat silence "
                             "exceeds the heartbeat interval by SECS "
                             "(implies --standby); pair with --fault "
                             "heartbeat_silence:... to rehearse a failover")
    parser.add_argument("--replicate-log", metavar="PATH",
                        help="write every replication frame to PATH as "
                             "length-prefixed GSCK bytes (implies "
                             "--standby)")
    parser.add_argument("--telemetry", action="store_true",
                        help="publish engine internals as queryable _gs_* "
                             "streams (_gs_channel, _gs_operator, _gs_shed, "
                             "_gs_recovery, _gs_alert): GSQL queries and "
                             "--alert triggers can read them like packet "
                             "streams; prints the telemetry report (samples, "
                             "per-stream rows, profiler attribution) after "
                             "the run")
    parser.add_argument("--telemetry-interval", type=float, metavar="SECS",
                        help="virtual-time seconds between telemetry samples "
                             "(implies --telemetry; default 1.0)")
    parser.add_argument("--telemetry-out", metavar="PATH",
                        help="write every telemetry stream row as JSON lines "
                             "to PATH (requires --telemetry)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write a metrics snapshot (repro.obs registry) "
                             "to PATH after the run")
    parser.add_argument("--metrics-format", choices=("prom", "json"),
                        default="prom",
                        help="metrics snapshot format: Prometheus text or "
                             "JSON (default: prom)")
    parser.add_argument("--trace-sample", type=float, metavar="RATE",
                        help="trace roughly RATE (0 < RATE <= 1) of packets "
                             "through the LFTA/HFTA split (sampled lineage "
                             "spans with virtual-time timestamps)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the sampled trace spans as JSON to PATH "
                             "(requires --trace-sample)")
    parser.add_argument("--pretty-ip", action="store_true",
                        help="render IP-typed columns as dotted quads")
    return parser


def _parse_params(entries: List[str]):
    params = {}
    for entry in entries:
        try:
            key, value = entry.split("=", 1)
            query_name, param_name = key.split(".", 1)
        except ValueError:
            raise ValueError(f"bad --param {entry!r}; use "
                             f"QUERY.NAME=VALUE") from None
        for cast in (int, float):
            try:
                value = cast(value)
                break
            except ValueError:
                continue
        params.setdefault(query_name, {})[param_name] = value
    return params


def _open_capture(path: str, interface: str):
    """Open a capture file, sniffing pcap vs pcapng by magic number."""
    from repro.net.pcapng import PcapngReader, SHB_TYPE
    handle = open(path, "rb")
    magic = handle.read(4)
    handle.seek(0)
    import struct
    if len(magic) == 4 and struct.unpack("<I", magic)[0] == SHB_TYPE:
        return PcapngReader(handle)
    return PcapReader(handle, interface=interface)


def _packets_from_pcaps(specs: List[str]) -> Iterable[CapturedPacket]:
    """Every capture opened now (a missing one is a usage error, not a
    traceback out of ``feed``), merged by timestamp as it is read."""
    import heapq
    readers = []
    for index, spec in enumerate(specs):
        path, _, interface = spec.partition(":")
        interface = interface or f"eth{index}"
        readers.append(_open_capture(path, interface))

    def merged():
        try:
            yield from heapq.merge(*readers, key=lambda p: p.timestamp)
        finally:
            for reader in readers:
                reader.close()
    return merged()


def _synthetic_packets(spec: str) -> Iterable[CapturedPacket]:
    from repro.workloads.generators import section4_stream
    try:
        mbps_text, _, seconds_text = spec.partition("x")
        mbps = float(mbps_text)
        seconds = float(seconds_text)
    except ValueError:
        raise ValueError(f"bad --synthetic {spec!r}; use "
                         f"MBPSxSECONDS") from None
    return section4_stream(background_mbps=max(0.0, mbps - 60.0),
                           duration_s=seconds)


def _formatters(engine: Gigascope, name: str, pretty_ip: bool):
    from repro.gsql.types import IP
    schema = engine.schema_of(name)
    fns = []
    for attribute in schema.attributes:
        if pretty_ip and attribute.gsql_type is IP:
            fns.append(int_to_ip)
        elif attribute.gsql_type.python_type is bytes:
            fns.append(lambda v: v.decode("latin-1", "replace")
                       if isinstance(v, bytes) else v)
        else:
            fns.append(lambda v: v)
    return schema.names, fns


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    query_texts = list(args.query)
    try:
        query_texts += [Path(path).read_text() for path in args.query_file]
        params = _parse_params(args.param)
    except OSError as error:
        parser.error(f"--query-file {error.filename!r}: {error.strerror}")
    except ValueError as error:
        parser.error(str(error))
    if not query_texts:
        parser.error("no queries given (use --query or --query-file)")
    for flag, value, least in (
            ("--channel-capacity", args.channel_capacity, "positive"),
            ("--batch-size", args.batch_size, "positive"),
            ("--shards", args.shards, "positive"),
            ("--checkpoint-interval", args.checkpoint_interval, "positive"),
            ("--max-restarts", args.max_restarts, ">= 0"),
            ("--telemetry-interval", args.telemetry_interval, ">= 0"),
            ("--promote-after", args.promote_after, ">= 0")):
        if value is not None and (value <= 0 if least == "positive"
                                  else value < 0):
            parser.error(f"{flag} must be {least}, got {value}")
    if args.trace_out and args.trace_sample is None:
        parser.error("--trace-out requires --trace-sample")
    if args.alert_out and not args.alert:
        parser.error("--alert-out requires --alert")
    telemetry = (args.telemetry or args.telemetry_interval is not None)
    if args.telemetry_out and not telemetry:
        parser.error("--telemetry-out requires --telemetry")
    # Distinct artifacts must go to distinct files: writing two streams
    # to one path silently clobbers the first, so it is a usage error.
    seen_outputs: dict = {}
    artifacts = [(flag, value) for flag, value in (
        ("--trace-out", args.trace_out),
        ("--metrics-out", args.metrics_out),
        ("--telemetry-out", args.telemetry_out),
        ("--alert-out", args.alert_out),
        ("--replicate-log", args.replicate_log)) if value]
    for flag, value in artifacts:
        resolved = Path(value).resolve()
        if resolved in seen_outputs:
            parser.error(f"{seen_outputs[resolved]} and {flag} both "
                         f"write to {value!r}; give each output its "
                         f"own path")
        seen_outputs[resolved] = flag
    recover = (args.recover or args.checkpoint_interval is not None
               or args.max_restarts is not None)
    try:
        from repro.replication import resolve_replicate_cadence
        cadence = resolve_replicate_cadence(args.replicate)
    except ValueError as error:
        # A malformed --replicate is a usage error (exit 2).
        parser.error(str(error))
    standby = (args.standby or cadence is not None
               or args.promote_after is not None
               or args.replicate_log is not None)
    # One engine facade per topology, all taking the same engine
    # configuration.  Each declares, next to its class, the planes it
    # cannot run and why (``refusals``); asking for one is a usage
    # error here, in the words the API raises.
    topology, facade, build = "", Gigascope, {}
    if args.shards:
        from repro.shard import ShardedGigascope as facade
        topology, build = "--shards", dict(shards=args.shards)
    elif standby:
        from repro.replication import DEFAULT_CADENCE
        from repro.replication import ReplicatedGigascope as facade
        topology, build = "--standby", dict(
            cadence=DEFAULT_CADENCE if cadence is None else cadence,
            promote_after=args.promote_after, log_path=args.replicate_log)
    for flag, value, plane in (
            ("--shed", args.shed, "shed"),
            ("--alert", args.alert, "alerts"),
            ("--recover", args.recover, "recovery"),
            ("--checkpoint-interval", args.checkpoint_interval, "recovery"),
            ("--max-restarts", args.max_restarts, "recovery"),
            ("--telemetry", args.telemetry, "telemetry"),
            ("--telemetry-interval", args.telemetry_interval, "telemetry"),
            ("--trace-sample", args.trace_sample, "tracing"),
            ("--fault", args.fault, "faults"),
            ("--standby", standby, "replication")):
        given = value is not None and value is not False and value != []
        if given and plane in facade.refusals:
            parser.error(f"{flag} cannot be combined with {topology}: "
                         f"{facade.refusals[plane]}")
    # Every output is opened (the directory made) before the engine is
    # built: a run whose results cannot be written is a usage error, not
    # a traceback after the last flush.  These handles are the ones
    # written -- but for the replication log, which the standby pair
    # opens itself, by path.
    outputs: dict = {}
    out_dir = Path(args.output) if args.output else None
    if not args.explain:
        try:
            if out_dir is not None:
                flag, value = "--output", args.output
                out_dir.mkdir(parents=True, exist_ok=True)
            for flag, value in artifacts:
                outputs[flag] = open(
                    value, "wb" if flag == "--replicate-log" else "w")
        except OSError as error:
            parser.error(f"{flag} {value!r}: {error.strerror}")
        if args.replicate_log:
            outputs.pop("--replicate-log").close()
    try:
        engine = facade(seed=args.seed,
                        channel_capacity=args.channel_capacity,
                        batch_size=args.batch_size, **build)
    except ValueError as error:
        # A non-positive --batch-size is a usage error (exit 2), not
        # a crash.
        parser.error(str(error))
    tracer = None
    if args.trace_sample is not None:
        try:
            tracer = engine.enable_tracing(args.trace_sample)
        except ValueError as error:
            parser.error(f"bad --trace-sample: {error}")
    if args.shed:
        try:
            engine.enable_shedding(args.shed)
        except ValueError as error:
            parser.error(f"bad --shed {args.shed!r}: {error}")
    telemetry_hub = None
    if telemetry:
        # Before the queries compile, so "From _gs_channel" resolves
        # like any packet protocol.
        telemetry_hub = engine.enable_telemetry(
            interval=(args.telemetry_interval
                      if args.telemetry_interval is not None else 1.0))
    names: List[str] = []
    try:
        for text in query_texts:
            names.extend(engine.add_queries(text, params=params))
    except (GSQLSyntaxError, SemanticError) as error:
        print(f"query error: {error}", file=sys.stderr)
        return 1

    if args.explain:
        for name in names:
            print(engine.explain(name))
        return 0

    alert_file = outputs.get("--alert-out")
    if args.alert:
        # Triggers attach after the queries exist (``on=`` names one)
        # and before faults are armed, so operator_error can target an
        # alert node too.
        from repro.alerts import AlertSpecError
        try:
            alert_engine = engine.enable_alerts(args.alert)
        except AlertSpecError as error:
            # AlertSpecError messages lead with the offending field
            # name ("when: ..."), mirroring the --fault convention.
            parser.error(f"bad --alert: {error}")
        if alert_file is not None:
            from repro.sinks import JsonlSink, attach_sink
            attach_sink(engine, alert_engine.bus.name, JsonlSink, alert_file)

    if args.fault:
        # Arm after the queries exist (operator_error names a node) and
        # before any packet flows.
        try:
            engine.inject_faults(args.fault)
        except (ValueError, KeyError, RegistryError) as error:
            parser.error(f"bad --fault: {error}")

    watched = args.subscribe or [n for n in names if not n.startswith("_")]
    try:
        subscriptions = {name: engine.subscribe(name) for name in watched}
    except RegistryError as error:
        print(f"query error: {error}", file=sys.stderr)
        return 1
    telemetry_subs = {}
    if args.telemetry_out:
        telemetry_subs = {stream: engine.subscribe(stream)
                          for stream in sorted(telemetry_hub.nodes)}

    try:
        if args.pcap:
            packets = _packets_from_pcaps(args.pcap)
        elif args.synthetic:
            packets = _synthetic_packets(args.synthetic)
        else:
            parser.error("no packet source (use --pcap or --synthetic)")
    except OSError as error:
        parser.error(f"--pcap {error.filename!r}: {error.strerror}")
    except ValueError as error:
        parser.error(str(error))

    if recover:
        engine.enable_recovery(
            checkpoint_interval=(args.checkpoint_interval
                                 if args.checkpoint_interval is not None
                                 else 1.0),
            max_restarts=(args.max_restarts
                          if args.max_restarts is not None else 3),
        )

    engine.start()
    engine.feed(packets)
    engine.flush()

    for name, subscription in subscriptions.items():
        header, fns = _formatters(engine, name, args.pretty_ip)
        rows = subscription.poll()
        if out_dir is not None:
            with open(out_dir / f"{name}.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([fn(v) for fn, v in zip(fns, row)])
            print(f"{name}: {len(rows)} rows -> {out_dir / (name + '.csv')}")
        else:
            writer = csv.writer(sys.stdout)
            print(f"# {name}")
            writer.writerow(header)
            for row in rows:
                writer.writerow([fn(v) for fn, v in zip(fns, row)])

    if args.fault:
        print("# fault ledger", file=sys.stderr)
        for entry in engine.fault_report():
            print(f"#  {entry}", file=sys.stderr)
        for node_name, reason in sorted(engine.rts.quarantined.items()):
            print(f"#  quarantined {node_name}: {reason}", file=sys.stderr)
    # One section per enabled plane: its report(), rendered by the same
    # function repro.report.engine_report uses.
    from repro.obs.ledger import text_sections
    for title, lines in text_sections(engine.planes.values()):
        print(f"# {title} report", file=sys.stderr)
        for line in lines:
            print(f"#  {line}", file=sys.stderr)
    if alert_file is not None:
        alert_file.close()
        print(f"# alert stream -> {args.alert_out}", file=sys.stderr)
    if args.telemetry_out:
        import json as json_module
        with outputs["--telemetry-out"] as handle:
            for stream, subscription in telemetry_subs.items():
                schema = engine.schema_of(stream)
                for row in subscription.poll():
                    record = {"stream": stream}
                    for key, value in zip(schema.names, row):
                        if isinstance(value, bytes):
                            value = value.decode("utf-8", "replace")
                        record[key] = value
                    json_module.dump(record, handle)
                    handle.write("\n")
        print(f"# telemetry streams -> {args.telemetry_out}",
              file=sys.stderr)
    if args.replicate_log:
        print(f"# replication log -> {args.replicate_log}", file=sys.stderr)
    if args.stats:
        # The same canonical snapshot the metrics exposition exports
        # (repro.obs.collectors), rendered one node per line.
        print("# node statistics", file=sys.stderr)
        for name, stats in sorted(engine.stats().items()):
            print(f"#  {name}: {stats}", file=sys.stderr)
    if args.metrics_out:
        registry = engine.metrics
        if args.metrics_format == "json":
            text = registry.to_json(indent=2)
        else:
            text = registry.to_prometheus()
        with outputs["--metrics-out"] as handle:
            handle.write(text)
        print(f"# metrics snapshot ({args.metrics_format}) -> "
              f"{args.metrics_out}", file=sys.stderr)
    if tracer is not None:
        if args.trace_out:
            with outputs["--trace-out"] as handle:
                handle.write(tracer.to_json(indent=2))
            print(f"# {tracer.started} sampled traces -> {args.trace_out}",
                  file=sys.stderr)
        else:
            print(f"# {tracer.started} sampled traces recorded "
                  f"(use --trace-out to dump them)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
