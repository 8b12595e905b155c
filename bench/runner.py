"""The parent side of a measurement: start the worker in a clean
interpreter, probe set-up cost, attach units, summarise samples.

Nothing here imports ``repro``: a checkout without ``src/`` fails in the
worker, and the failure is passed on as a non-zero exit.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

from bench.spec import END_TO_END, PER_LAYER, ROOT

#: knobs that would select a non-default engine path
SCRUBBED = ("GS_BATCH", "GS_BATCH_SIZE", "GS_COLUMNAR", "GS_SHARDS",
            "GS_SHARD_CRASH")
SETUP_PROBES = 7
#: a child that has not finished by then is killed; the contract's limit
#: for a whole run is 180 s
CHILD_TIMEOUT_S = 150


def _child(*args: str) -> dict:
    """Run ``python3 -m bench <args>`` to its end; its last line is JSON."""
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    done = subprocess.run([sys.executable, "-m", "bench", *args], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"bench {' '.join(args)}: exit {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _setup_samples(workload: str, probes: int) -> List[float]:
    """Cold set-up, in reference seconds, of ``probes`` fresh interpreters."""
    return [_child("_setup", "--workload", workload)["setup_s"]
            for _ in range(probes)]


def summarise(samples: List[float]) -> Dict[str, float]:
    """``n``, median and quartiles (the median thrice for one sample)."""
    q1 = q3 = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "median": statistics.median(samples),
            "q1": q1, "q3": q3}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """One workload, one mode.  ``metrics`` maps every end-to-end
    (``trace`` off) or per-layer (``trace`` on) name of BENCHMARK.json to
    ``{"value", "unit"}``; end-to-end entries also carry n and quartiles.
    """
    args = ["_worker", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        args.append("--smoke")
    result = _child(*args)
    if trace:
        values = result.pop("metrics")
        result["metrics"] = {
            name: {"value": values[name], "unit": metric["unit"]}
            for name, metric in PER_LAYER.items()}
        return result
    samples = result.pop("samples")
    samples["setup_s"] = _setup_samples(workload, 2 if smoke else SETUP_PROBES)
    result["metrics"] = {}
    for name, metric in END_TO_END.items():
        summary = summarise(samples[name])
        result["metrics"][name] = {"value": summary["median"],
                                   "unit": metric["unit"], **summary}
    return result


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads from the last line."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    })

