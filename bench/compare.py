"""``python3 -m bench compare A.json B.json``: is B worse than A?

One row per (workload, end-to-end metric).  ``worse`` means B's median
is worse than A's by more than the metric's bound in BENCHMARK.json;
``unresolved`` means it is not, but either file's quartiles are further
apart than the bound, so "unchanged" cannot be claimed either.  Counts
the engine keeps itself, and result lags in virtual time, repeat exactly
on one commit; those that differ are listed.  Exit status 1 on any ``worse`` or any rise in failed rows,
2 when the files did not measure the same packets.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench.spec import END_TO_END, PER_LAYER


def verdict(a: dict, b: dict, metric: dict) -> str:
    worsening = (b["median"] - a["median"]) / a["median"]
    if metric["better"] == "higher":
        worsening = -worsening
    if worsening > metric["bound"]:
        return "worse"
    spread = max((entry["q3"] - entry["q1"]) / entry["median"]
                 for entry in (a, b))
    return "unresolved" if spread > metric["bound"] else "ok"


def main(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(path.read_text()) for path in (path_a, path_b))
    if a["record"]["seed"] == b["record"]["seed"]:
        for name in a["workloads"].keys() & b["workloads"].keys():
            if a["workloads"][name]["digest"] != b["workloads"][name]["digest"]:
                print(f"refused: {name} has seed {a['record']['seed']} in "
                      "both files but different packets")
                return 2
    status = 0
    print(f"A {path_a} ({a['record']['git_sha'][:12]})   "
          f"B {path_b} ({b['record']['git_sha'][:12]})")
    print(f"{'workload':<16}{'metric':<18}{'A median [q1, q3]':>38}"
          f"{'B median [q1, q3]':>38}{'B/A':>8}  verdict")
    for name, in_a in a["workloads"].items():
        in_b = b["workloads"].get(name)
        if in_b is None:
            continue
        for metric_name, metric in END_TO_END.items():
            ea, eb = (side["end_to_end"][metric_name] for side in (in_a, in_b))
            result = verdict(ea, eb, metric)
            if result == "worse":
                status = 1
            cells = (f"{e['median']:.4g} [{e['q1']:.4g}, {e['q3']:.4g}]"
                     for e in (ea, eb))
            print(f"{name:<16}{metric_name:<18}" + "".join(
                f"{cell:>38}" for cell in cells)
                + f"{eb['median'] / ea['median']:>8.3f}  {result}")
        if in_b["failed"] * in_a["attempted"] > in_a["failed"] * in_b["attempted"]:
            print(f"{name:<16}failed_share rose: {in_a['failed']}/"
                  f"{in_a['attempted']} -> {in_b['failed']}/{in_b['attempted']}")
            status = 1
        for metric_name, metric in PER_LAYER.items():
            if metric["unit"] not in ("count", "virtual_s"):
                continue  # only what repeats exactly on one commit
            va, vb = (side["per_layer"][metric_name]["value"]
                      for side in (in_a, in_b))
            if va != vb:
                print(f"{name:<16}{metric_name:<28} differs: {va:g} -> {vb:g}")
    return status
