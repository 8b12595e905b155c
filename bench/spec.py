"""``BENCHMARK.json`` is the single list of workload and metric names,
units, directions and bounds; everything else reads it from here."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
