"""``python3 -m bench run``: all six workloads, both modes, one result
file that never separates a number from its box, commit and run length."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

from bench.runner import measure
from bench.spec import END_TO_END, PER_LAYER, ROOT, WORKLOADS


def _git_sha() -> str:
    """The commit measured; a driver checkout is not a repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(seed: int, seconds: float, smoke: bool, out: Path) -> int:
    began = time.time()
    record = {
        "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "seed": seed, "seconds": seconds, "smoke": smoke,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(began)),
    }
    workloads = {}
    for name in WORKLOADS:
        timed = measure(name, seed, seconds, trace=False, smoke=smoke)
        traced = measure(name, seed, seconds, trace=True, smoke=smoke)
        if timed["digest"] != traced["digest"]:
            raise SystemExit(f"{name}: the two modes saw different packets")
        workloads[name] = {
            "packets": timed["packets"],
            "virtual_span_s": timed["virtual_span_s"],
            "digest": timed["digest"], "rounds": timed["rounds"],
            "attempted": timed["attempted"],
            "failed": max(timed["failed"], traced["failed"]),
            "end_to_end": timed["metrics"], "per_layer": traced["metrics"],
        }
        _print_workload(name, workloads[name])
    record["wall_s"] = time.time() - began
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"record": record, "workloads": workloads},
                              indent=1))
    print(f"\n{out}: {len(workloads)} workloads in {record['wall_s']:.0f} s "
          f"on {record['nproc']} x {record['cpu_model']}, "
          f"commit {record['git_sha'][:12]}, seed {seed}")
    return 1 if any(w["failed"] for w in workloads.values()) else 0


def _print_workload(name: str, result: dict) -> None:
    print(f"\n== {name}: {result['packets']} packets, "
          f"{result['virtual_span_s']:.1f} virtual s, "
          f"{result['rounds']} rounds, failed_share "
          f"{result['failed']}/{result['attempted']}")
    for metric in END_TO_END:
        entry = result["end_to_end"][metric]
        print(f"  {metric:<26}{entry['median']:>14.4f} {entry['unit']:<6}"
              f" q1 {entry['q1']:.4f}  q3 {entry['q3']:.4f}  n={entry['n']}")
    for metric in PER_LAYER:
        entry = result["per_layer"][metric]
        if entry["value"]:
            print(f"    {metric:<28}{entry['value']:>16.6g} {entry['unit']}")
