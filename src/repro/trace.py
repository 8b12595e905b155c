"""``gsq-trace``: filter, trim, and convert capture files with GSQL.

The data-management problem the paper opens with -- "Most network
analysis is done via ad-hoc tools on network trace dumps, often
resulting in severe data management problems" -- starts with trace
files that are too big and in the wrong format.  This tool applies a
GSQL predicate to a trace and writes the surviving packets back out,
converting between pcap and pcapng by extension:

    # keep only port-80 TCP, as pcapng
    python -m repro.trace --in big.pcap --out web.pcapng \\
        --protocol tcp --where "destPort = 80"

    # trim to a time range and truncate to headers
    python -m repro.trace --in big.pcap --out sample.pcap \\
        --time-range 100:200 --snaplen 128

The predicate runs through the real GSQL front end and code generator:
whatever a query can filter, the trace tool can too (including user
functions such as ``getlpmid``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, List, Optional

from repro.gsql.codegen import ExprCompiler
from repro.gsql.functions import builtin_functions
from repro.gsql.lexer import GSQLSyntaxError
from repro.gsql.parser import parse_query
from repro.gsql.schema import builtin_registry
from repro.gsql.semantic import SemanticError, analyze
from repro.net.packet import CapturedPacket
from repro.net.pcap import PcapReader, PcapWriter
from repro.net.pcapng import PcapngReader, PcapngWriter, SHB_TYPE


def _open_reader(path: str):
    import struct
    handle = open(path, "rb")
    magic = handle.read(4)
    handle.seek(0)
    if len(magic) == 4 and struct.unpack("<I", magic)[0] == SHB_TYPE:
        return PcapngReader(handle)
    return PcapReader(handle)


def _open_writer(path: str, snaplen: int):
    if path.endswith(".pcapng"):
        return PcapngWriter(open(path, "wb"), snaplen=snaplen)
    return PcapWriter(open(path, "wb"), snaplen=snaplen)


class UnknownProtocol(ValueError):
    """The protocol a filter is asked for is not a built-in one."""


def build_packet_filter(protocol_name: str, where: Optional[str]):
    """Compile ``where`` into a packet predicate via the GSQL front end;
    :class:`UnknownProtocol` when ``protocol_name`` names none."""
    registry = builtin_registry()
    functions = builtin_functions()
    protocol = registry.get(protocol_name)
    if protocol is None:
        raise UnknownProtocol(f"unknown protocol {protocol_name!r}; "
                              f"one of {', '.join(registry.names())}")
    if where is None:
        return lambda packet: bool(protocol.interpret(packet))
    text = f"Select * From {protocol_name} Where {where}"
    analyzed = analyze(parse_query(text), registry, functions)
    compiler = ExprCompiler(analyzed, functions)
    predicate = compiler.predicate_fn(analyzed.where_conjuncts, (None, None))

    def keep(packet: CapturedPacket) -> bool:
        return any(predicate(row) for row in protocol.interpret(packet))

    return keep


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gsq-trace",
        description="Filter/convert capture files with GSQL predicates.",
    )
    parser.add_argument("--in", dest="input", required=True, metavar="FILE",
                        help="input trace (pcap or pcapng, sniffed by magic)")
    parser.add_argument("--out", dest="output", required=True, metavar="FILE",
                        help="output trace; '.pcapng' suffix selects pcapng")
    parser.add_argument("--protocol", default="ip",
                        help="protocol whose fields --where may use "
                             "(default: ip)")
    parser.add_argument("--where", help="GSQL predicate over the protocol's "
                                        "fields; omitted = keep packets the "
                                        "protocol interprets")
    parser.add_argument("--time-range", metavar="START:END",
                        help="keep packets with START <= timestamp < END")
    parser.add_argument("--snaplen", type=int, default=65535,
                        help="truncate written packets (default: full)")
    parser.add_argument("--limit", type=int,
                        help="stop after writing this many packets")
    parser.add_argument("--invert", action="store_true",
                        help="keep packets that do NOT match")
    args = parser.parse_args(argv)

    # Every refusal is a usage error (exit 2) naming the flag, made
    # before the output file is created.
    for flag, value in (("--snaplen", args.snaplen), ("--limit", args.limit)):
        if value is not None and value < 1:
            parser.error(f"{flag} must be a positive integer, got {value}")
    time_range = None
    if args.time_range:
        try:
            start_text, _, end_text = args.time_range.partition(":")
            time_range = (float(start_text), float(end_text))
        except ValueError:
            parser.error(f"bad --time-range {args.time_range!r}")
    if Path(args.output).resolve() == Path(args.input).resolve():
        # opening the output would truncate the input before it is read
        parser.error(f"--out {args.output!r} is the --in file")

    try:
        keep = build_packet_filter(args.protocol, args.where)
    except UnknownProtocol as error:
        parser.error(f"--protocol: {error}")
    except (GSQLSyntaxError, SemanticError) as error:
        print(f"predicate error: {error}", file=sys.stderr)
        return 1

    try:
        reader = _open_reader(args.input)
    except OSError as error:
        parser.error(f"--in {args.input!r}: {error.strerror}")
    read = written = 0
    with reader:
        try:
            writer = _open_writer(args.output, args.snaplen)
        except OSError as error:
            parser.error(f"--out {args.output!r}: {error.strerror}")
        try:
            for packet in reader:
                read += 1
                if time_range is not None and not (
                        time_range[0] <= packet.timestamp < time_range[1]):
                    continue
                matched = keep(packet)
                if matched == args.invert:
                    continue
                writer.write(packet)
                written += 1
                if args.limit is not None and written >= args.limit:
                    break
        finally:
            writer.close()
    print(f"{written}/{read} packets -> {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
