"""The scalar engine's outputs, frozen, in two tiers.

``tests/golden_scenarios.json`` holds two sha256 digests per run, first
recorded from scalar (tuple-at-a-time) execution -- ``GS_BATCH=0`` at
commit ff26bbf, the last one that had a scalar twin of every loop:
every ``repro.determinism`` scenario (the recovery/alert/telemetry ones
in both their clean and their crash arm) and every
:data:`tests.test_batch_differential.CASES` entry -- the GSQL corpus,
the five fault injectors, an ``OperatorFault`` landing first/mid/last
in a popped block with and without the supervisor, and two traced runs
whose snapshot carries the tracer's span dump.

* ``rows`` pins what the queries returned: the snapshot's subscribed
  rows, each ``repr``'d.  A stream query is a function of its input
  sequence, so a change to how the engine computes them -- the LFTA's
  slot placement, its table size, when it ejects a partial -- leaves
  this tier where it is.
* ``schedule`` pins everything else: the drop ledger, the metrics
  families (LFTA collisions and ejections among them), ``stats()``,
  the tracer's spans and the quarantined nodes' input ledgers -- the
  internals of the incremental plan that reached those rows.

Within one build nothing is excused: the engine must reproduce both
digests at every block size and under every ``PYTHONHASHSEED``, and a
crash arm must equal its clean arm in both.  Across builds a change may
move a ``schedule`` digest (CHANGES.md names each one and the internal
that moved it); a ``rows`` digest moves only for an entry the file
lists under ``schedule_bound``, with the reason its rows depend on the
schedule (float sums regrouped by a different ejection order, a bounded
channel that drops different partials).  ``--write`` prints every
digest it moves, by tier, and refuses to move any other ``rows``
digest.

Slot placement hashes integer tuples with builtin ``hash()``, which is
the same on every 64-bit CPython (3.11 and 3.12 alike), so the file
records the hash width it was written under (``hash_width``) and an
interpreter of another width fails here by name, not by digest.

Regenerate (only when an output is *meant* to change; the reference
arm is blocks of one)::

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
TIERS = ("rows", "schedule")


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def tiers(snapshot) -> dict:
    """The two digests of one run's snapshot."""
    return {"rows": _sha(snapshot["rows"]),
            "schedule": _sha({key: value for key, value in snapshot.items()
                              if key != "rows"})}


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
        digests[f"scenario/{name}"] = tiers(comparable(
            run_scenario(name, SEED, Arm(block_size=block_size)), differ))
        if name in crashes:
            arm = Arm(block_size=block_size, crash=crashes[name])
            digests[f"scenario/{name}+crash"] = tiers(comparable(
                run_scenario(name, SEED, arm), differ))
    for name in CASES:
        digests[f"case/{name}"] = tiers(run_case(name, block_size)[0])
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


def width_mismatch(golden: dict):
    """The one line that explains every digest on an interpreter whose
    hash width is not the file's, or None."""
    width = sys.hash_info.width
    if golden["hash_width"] == width:
        return None
    return (f"golden digests were recorded at sys.hash_info.width "
            f"{golden['hash_width']}; this interpreter's is {width}, so "
            f"every LFTA slot (the tuple hash) differs")


def load_golden() -> dict:
    golden = json.loads(GOLDEN.read_text())
    mismatch = width_mismatch(golden)
    if mismatch is not None:
        pytest.fail(mismatch, pytrace=False)
    return golden


def moved(old: dict, new: dict) -> dict:
    """``{tier: [names]}``: the entries of ``old`` whose digest in that
    tier is not ``new``'s (an entry only one side has counts in both)."""
    return {tier: sorted(name for name in set(old) | set(new)
                         if old.get(name, {}).get(tier)
                         != new.get(name, {}).get(tier))
            for tier in TIERS}


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_engine_reproduces_the_scalar_reference(block_size):
    golden = load_golden()["digests"]
    for hash_seed, digests in subprocess_digests(block_size).items():
        assert sorted(digests) == sorted(golden)
        assert moved(golden, digests) == {tier: [] for tier in TIERS}, (
            f"block size {block_size}, PYTHONHASHSEED={hash_seed}: "
            f"digests moved (of {len(golden)} per tier)")


def test_crash_arm_equals_clean_arm():
    """Recovery is invisible in the reference, in both tiers, so (by the
    test above) it is invisible at every block size."""
    golden = load_golden()["digests"]
    crashes = crash_nodes()
    assert len(crashes) == 6
    for name in crashes:
        assert (golden[f"scenario/{name}+crash"]
                == golden[f"scenario/{name}"]), name


def test_every_schedule_bound_entry_is_a_golden_with_a_reason():
    golden = load_golden()
    for name, reason in golden["schedule_bound"].items():
        assert name in golden["digests"], name
        assert isinstance(reason, str) and reason.strip(), name


def test_a_hash_width_mismatch_is_one_line():
    golden = dict(json.loads(GOLDEN.read_text()), hash_width=32)
    if sys.hash_info.width == 32:
        golden["hash_width"] = 64
    message = width_mismatch(golden)
    assert "\n" not in message and "sys.hash_info.width" in message


def write(first: dict, second: dict) -> int:
    """``--write``: the hash-seed-stable digests ``first``, over the
    file's, moving no ``rows`` digest outside ``schedule_bound``."""
    unstable = sorted(name for name in first if first[name] != second[name])
    if unstable:
        print(f"PYTHONHASHSEED-dependent, refusing to write: {unstable}",
              file=sys.stderr)
        return 1
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {
        "digests": {}, "schedule_bound": {},
        "hash_width": sys.hash_info.width}
    mismatch = width_mismatch(old)
    if mismatch is not None:
        print(f"refusing to write: {mismatch}", file=sys.stderr)
        return 1
    bound = old["schedule_bound"]
    changes = moved(old["digests"], first)
    for tier in TIERS:
        print(f"{tier}: {len(changes[tier])} moved")
        for name in changes[tier]:
            print(f"  {name}" + (" (schedule_bound)" if tier == "rows"
                                 and name in bound else ""))
    unbound = [name for name in changes["rows"]
               if name in old["digests"] and name not in bound]
    if unbound:
        print(f"rows digests moved outside schedule_bound, refusing to "
              f"write: {unbound}", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps({
        "reference": "blocks of one (--arm block=1), seed 0, identical "
                     "under PYTHONHASHSEED=1 and 2",
        "regenerate": "PYTHONPATH=src python -m tests.test_golden_scenarios "
                      "--write",
        "hash_width": sys.hash_info.width,
        "schedule_bound": bound,
        "digests": first,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(first)} entries to {GOLDEN}")
    return 0


def main(argv) -> int:
    if argv[:1] == ["--block-size"]:
        json.dump(compute_digests(int(argv[1])), sys.stdout, sort_keys=True)
        return 0
    if argv != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    return write(*subprocess_digests(1).values())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
