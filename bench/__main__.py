"""``python3 -m bench drive|run|compare`` (see bench/README.md)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _drive(args) -> int:
    from bench.runner import contract_line, measure
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(contract_line(result))
    return 0


def _run(args) -> int:
    from bench import report
    return report.run(args.seed, args.seconds, args.smoke, Path(args.out))


def _compare(args) -> int:
    from bench import compare
    return compare.main(Path(args.a), Path(args.b))


def _worker(args) -> int:
    from bench import worker
    from bench.spec import OUT_DIR
    if args.trace:
        result = worker.traced(args.workload, args.seed, args.smoke, OUT_DIR)
    else:
        result = worker.timed(args.workload, args.seed, args.seconds,
                              args.smoke)
    print(json.dumps(result))
    return 0


def _setup(args) -> int:
    """Cold set-up as a CLI user pays it: ``import repro``, then
    construct, planes, ``add_queries``, ``subscribe``, ``start()`` -- in
    reference seconds, the kernel sampled in this very process (the
    parent may sit on the other, differently loaded vCPU)."""
    from bench.calibrate import Pacer
    importing, building = Pacer(()), Pacer(())
    importing.sample(3)
    import repro  # noqa: F401
    importing.sample(3)
    from bench.workloads import WORKLOADS  # the bench's own imports: untimed
    building.sample(3)
    WORKLOADS[args.workload].build()
    building.sample(3)
    print(json.dumps(
        {"setup_s": importing.elapsed()[1] + building.elapsed()[1]}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    def measured(name, handler, help_text):
        command = commands.add_parser(name, help=help_text)
        command.add_argument("--workload", required=True)
        command.add_argument("--seed", type=int, default=1)
        command.add_argument("--seconds", type=float, default=8.0)
        command.add_argument("--trace", type=int, choices=(0, 1), default=0)
        command.set_defaults(handler=handler)
        return command

    measured("drive", _drive, "one workload, one JSON line (the "
             "BENCHMARK.json command)")
    measured("_worker", _worker, argparse.SUPPRESS).add_argument(
        "--smoke", action="store_true")
    setup = commands.add_parser("_setup", help=argparse.SUPPRESS)
    setup.add_argument("--workload", required=True)
    setup.set_defaults(handler=_setup)

    run = commands.add_parser("run", help="all workloads, both modes")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=8.0)
    run.add_argument("--smoke", action="store_true",
                     help="1/80 of the traffic, 2 rounds: checks the "
                          "plumbing, not the speed")
    run.add_argument("--out", default="bench/out/run.json")
    run.set_defaults(handler=_run)

    compare = commands.add_parser("compare", help="judge B against A")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=_compare)

    args = parser.parse_args()
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
