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

def _sha(snapshot) -> str:
    text = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def crash_nodes() -> dict:
    """``{scenario: the node its declared crash arm kills}``."""
    from repro.determinism import SCENARIOS
    return {name: fn.axes.crash[0]
            for name, fn in SCENARIOS.items() if fn.axes.crash}


def compute_digests(block_size: int) -> dict:
    """Every golden run at one block size, in this process."""
    from repro.determinism import SCENARIOS, Arm, comparable, run_scenario
    from tests.test_batch_differential import CASES, run_case

    crashes = crash_nodes()
    digests = {}
    for name in sorted(SCENARIOS):
        # A scenario with a crash arm loses the recovery
        # instrumentation in both arms, exactly as ``replay verify``
        # diffs them.
        differ = ("block", "crash") if name in crashes else ("block",)
        digests[f"scenario/{name}"] = _sha(comparable(
            run_scenario(name, SEED, Arm(block_size=block_size)), differ))
        if name in crashes:
            arm = Arm(block_size=block_size, crash=crashes[name])
            digests[f"scenario/{name}+crash"] = _sha(comparable(
                run_scenario(name, SEED, arm), differ))
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
    crashes = crash_nodes()
    assert len(crashes) == 6
    for name in crashes:
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
        "reference": "blocks of one (--arm block=1), seed 0, identical "
                     "under PYTHONHASHSEED=1 and 2",
        "regenerate": "PYTHONPATH=src python -m tests.test_golden_scenarios "
                      "--write",
        "digests": first,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(first)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
