"""Deterministic replay: stable hashing, the RNG registry, the verifier.

The acceptance bar for this layer: a mixed scenario (DEFINE-sample
sampling + overload shedding + LFTA aggregation over an undersized
direct-mapped table) run in two subprocesses with *different*
``PYTHONHASHSEED`` values produces byte-identical sink rows, drop
ledgers, and group-ejection counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.determinism import (
    ReplayReport,
    derive_seed,
    resolve_scenario,
    rng_for,
    run_scenario,
    stable_hash,
    verify_replay,
)

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


class TestStableHash:
    def test_known_values_pinned(self):
        # Pinned so an accidental change to the canonical encoding (which
        # would silently re-place every hash-table slot) fails loudly.
        assert stable_hash(()) == 1580606521
        assert stable_hash((1, "a", 2.5)) == 4239695168
        assert stable_hash(b"\x00\x01") == 2636177908

    def test_distinguishes_types_and_nesting(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash("ab") != stable_hash(b"ab")
        assert stable_hash((1, 2)) != stable_hash(((1,), 2))
        assert stable_hash(1.0) != stable_hash(1)

    def test_accepts_the_group_key_shapes(self):
        key = (12, 0x0A000001, 443)  # (tb, srcIP, srcPort)
        assert stable_hash(key) == stable_hash((12, 0x0A000001, 443))
        assert isinstance(stable_hash((None, True, "x", 2**70)), int)

    def test_rejects_unstable_objects(self):
        with pytest.raises(TypeError):
            stable_hash(object())
        with pytest.raises(TypeError):
            stable_hash({(1, 2)})

    def test_cross_process_stability(self):
        # The whole point: the value must not move with PYTHONHASHSEED.
        script = ("from repro.determinism import stable_hash; "
                  "print(stable_hash(('flows', 7, b'x', 2.5)))")
        values = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=SRC_ROOT)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            values.add(out.stdout.strip())
        assert len(values) == 1


class TestRngRegistry:
    def test_same_name_same_stream(self):
        a = rng_for(7, "lfta.sample", "q0")
        b = rng_for(7, "lfta.sample", "q0")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        draws = {
            name: rng_for(7, *name).random()
            for name in (("lfta.sample", "q0"), ("lfta.shed", "q0"),
                         ("lfta.sample", "q1"))
        }
        assert len(set(draws.values())) == 3

    def test_seed_moves_every_stream(self):
        assert derive_seed(0, "x") != derive_seed(1, "x")
        assert rng_for(0, "x").random() != rng_for(1, "x").random()

    def test_derive_seed_is_order_sensitive(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")


class TestScenarios:
    def test_registry_and_dotted_path(self):
        assert resolve_scenario("mixed") is not None
        fn = resolve_scenario("repro.determinism:_mixed_scenario")
        assert fn is resolve_scenario("mixed")
        with pytest.raises(KeyError):
            resolve_scenario("no_such_scenario")

    def test_mixed_scenario_exercises_all_three_rngs(self):
        snapshot = run_scenario("mixed", seed=5)
        stats = snapshot["stats"]
        lfta = stats["_fta_flows_0"]
        assert lfta["shed_packets"] > 0          # shed gate drew
        assert lfta["hash_collisions"] > 0       # table ejected groups
        assert stats["sampled"]["sampled_out"] > 0  # sample gate drew
        assert snapshot["rows"]["flows"]
        assert snapshot["rows"]["sampled"]

    def test_same_seed_same_snapshot_in_process(self):
        first = run_scenario("mixed", seed=5)
        second = run_scenario("mixed", seed=5)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_different_seed_different_samples(self):
        a = run_scenario("mixed", seed=1)
        b = run_scenario("mixed", seed=2)
        assert a["rows"]["sampled"] != b["rows"]["sampled"]


class TestVerifyReplay:
    def test_mixed_scenario_replays_across_hash_seeds(self):
        # The tentpole regression: sampling + shedding + LFTA aggregation,
        # two subprocesses, different PYTHONHASHSEED, byte-identical
        # sink rows / drop ledger / ejection counts.
        report = verify_replay("mixed", seed=11, hash_seeds=("1", "101"))
        assert report.ok, report.describe()
        first, second = report.snapshots
        assert first["rows"] == second["rows"]
        assert first["drops"] == second["drops"]
        assert (first["stats"]["_fta_flows_0"]["hash_collisions"]
                == second["stats"]["_fta_flows_0"]["hash_collisions"])

    def test_diff_paths_pinpoints_divergence(self):
        report = ReplayReport("x", 0, ("1", "2"), ok=True)
        assert "OK" in report.describe()
        from repro.determinism import _diff_paths
        diffs = []
        _diff_paths({"a": [1, 2], "b": 3}, {"a": [1, 9], "b": 3},
                    "$", diffs)
        assert diffs == ["$.a[1]: 2 != 9"]


HFTA_SAMPLE_SCRIPT = """
import sys
from repro import Gigascope
from repro.workloads.flows import ZipfFlowWorkload

gs = Gigascope(seed=int(sys.argv[1]))
gs.add_queries('''
    DEFINE query_name raw; Select time, srcIP, len From tcp;
    DEFINE { query_name thin; sample 0.5; } Select time, len From raw;
''')
sub = gs.subscribe("thin")
gs.start()
gs.feed(ZipfFlowWorkload(num_flows=50, seed=3).packets(2000, pps=1000.0))
gs.flush()
print(repr(sub.poll()))
"""


class TestHftaSampling:
    """``DEFINE sample`` on a query with no LFTA (it reads another
    query) is gated in the HFTA selection; that gate's RNG must come
    from the engine seed, never from ``hash(name)``."""

    @staticmethod
    def _rows(engine_seed, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC_ROOT)
        out = subprocess.run(
            [sys.executable, "-c", HFTA_SAMPLE_SCRIPT, str(engine_seed)],
            env=env, capture_output=True, text=True, check=True)
        return out.stdout

    def test_sampled_rows_do_not_move_with_the_hash_seed(self):
        first = self._rows(5, "1")
        assert first == self._rows(5, "2")
        kept = first.count("), (") + 1
        assert 800 < kept < 1200  # about half of 2000

    def test_sampled_rows_follow_the_engine_seed(self):
        assert self._rows(5, "1") != self._rows(6, "1")


class TestModuleEntry:
    def test_run_prints_json_and_verify_passes(self):
        env = dict(os.environ, PYTHONPATH=SRC_ROOT, PYTHONHASHSEED="3")
        out = subprocess.run(
            [sys.executable, "-m", "repro.replay", "run",
             "--scenario", "e4", "--seed", "2"],
            env=env, capture_output=True, text=True, check=True)
        snapshot = json.loads(out.stdout)
        assert snapshot["rows"]["flows"]
        assert out.stderr == ""  # the shim entry avoids the runpy warning
