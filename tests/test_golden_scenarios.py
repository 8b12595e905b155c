"""The scalar engine's outputs, frozen.

``tests/golden_scenarios.json`` holds one sha256 per run, recorded from
scalar (tuple-at-a-time) execution -- ``GS_BATCH=0`` at commit ff26bbf,
the last one that had a scalar twin of every loop: every ``repro.determinism``
scenario (the recovery/alert/telemetry ones in both their clean and
their crash arm) and every :data:`tests.test_batch_differential.CASES`
entry -- the GSQL corpus, the five fault injectors, an ``OperatorFault``
landing first/mid/last in a popped block with and without the
supervisor, and two traced runs whose snapshot carries the tracer's
span dump.  The engine must reproduce each digest at every block size
and under every ``PYTHONHASHSEED``.

Regenerate (only when an output is *meant* to change; the reference
arm is now blocks of one)::

    PYTHONPATH=src python -m tests.test_golden_scenarios --write
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_scenarios.json")
REPO = GOLDEN.parents[1]

BLOCK_SIZES = (1, 7, 256)
HASH_SEEDS = ("1", "2")
SEED = 0

#: scenarios with a second arm behind GS_RECOVERY_CRASH=1
CRASH_SCENARIOS = ("recovery_agg", "recovery_join", "recovery_tcp",
                   "alerts_syn_flood", "alerts_port_scan", "telemetry_crash")


def _sha(snapshot) -> str:
    text = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def compute_digests(block_size: int) -> dict:
    """Every golden run at one block size, in this process."""
    from repro.determinism import (SCENARIOS, run_scenario,
                                   strip_batch_metrics,
                                   strip_recovery_artifacts)
    from tests.test_batch_differential import CASES, run_case

    os.environ["GS_BATCH_SIZE"] = str(block_size)
    for name in ("GS_SHARDS", "GS_FAILOVER"):
        os.environ.pop(name, None)
    digests = {}
    for name in sorted(SCENARIOS):
        os.environ["GS_RECOVERY_CRASH"] = "0"
        snapshot = strip_batch_metrics(run_scenario(name, SEED))
        if name in CRASH_SCENARIOS:
            # Both arms lose the recovery instrumentation, exactly as
            # ``replay verify-recovery`` diffs them.
            digests[f"scenario/{name}"] = _sha(
                strip_recovery_artifacts(snapshot))
            os.environ["GS_RECOVERY_CRASH"] = "1"
            digests[f"scenario/{name}+crash"] = _sha(strip_recovery_artifacts(
                strip_batch_metrics(run_scenario(name, SEED))))
        else:
            digests[f"scenario/{name}"] = _sha(snapshot)
    for name in CASES:
        digests[f"case/{name}"] = _sha(run_case(name, block_size)[0])
    return digests


def subprocess_digests(block_size: int) -> dict:
    """``{hash seed: digests}``, one concurrent interpreter per seed."""
    workers = {}
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = (str(REPO / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        workers[hash_seed] = subprocess.Popen(
            [sys.executable, "-m", "tests.test_golden_scenarios",
             "--block-size", str(block_size)],
            cwd=REPO, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
    digests = {}
    for hash_seed, worker in workers.items():
        stdout, stderr = worker.communicate()
        assert worker.returncode == 0, stderr
        digests[hash_seed] = json.loads(stdout)
    return digests


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_engine_reproduces_the_scalar_reference(block_size):
    golden = json.loads(GOLDEN.read_text())["digests"]
    for hash_seed, digests in subprocess_digests(block_size).items():
        assert sorted(digests) == sorted(golden)
        moved = sorted(name for name in golden
                       if digests[name] != golden[name])
        assert not moved, (
            f"block size {block_size}, PYTHONHASHSEED={hash_seed}: "
            f"{len(moved)} of {len(golden)} digests moved: {moved}")


def test_crash_arm_equals_clean_arm():
    """Recovery is invisible in the reference, so (by the test above)
    it is invisible at every block size."""
    golden = json.loads(GOLDEN.read_text())["digests"]
    for name in CRASH_SCENARIOS:
        assert (golden[f"scenario/{name}+crash"]
                == golden[f"scenario/{name}"]), name


def main(argv) -> int:
    if argv[:1] == ["--block-size"]:
        json.dump(compute_digests(int(argv[1])), sys.stdout, sort_keys=True)
        return 0
    if argv != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = subprocess_digests(1).values()
    unstable = sorted(name for name in first if first[name] != second[name])
    if unstable:
        print(f"PYTHONHASHSEED-dependent, refusing to write: {unstable}",
              file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps({
        "reference": "blocks of one (GS_BATCH_SIZE=1), seed 0, identical "
                     "under PYTHONHASHSEED=1 and 2",
        "regenerate": "PYTHONPATH=src python -m tests.test_golden_scenarios "
                      "--write",
        "digests": first,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(first)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
