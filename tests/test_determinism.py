"""Deterministic replay: stable hashing, the RNG registry, the verifier.

The acceptance bar for this layer: a mixed scenario (DEFINE-sample
sampling + overload shedding + LFTA aggregation over an undersized
direct-mapped table) run in two subprocesses with *different*
``PYTHONHASHSEED`` values produces byte-identical sink rows, drop
ledgers, and group-ejection counts.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.determinism import (
    SCENARIOS,
    Arm,
    ArmError,
    ReplayReport,
    axes_of,
    comparable,
    compare,
    derive_seed,
    main,
    plan,
    resolve_scenario,
    rng_for,
    run_scenario,
    seed_for,
    stable_hash,
    verify,
    verify_replay,
)

REPO = Path(__file__).resolve().parents[1]
SRC_ROOT = str(REPO / "src")


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

    def test_reference_arm_is_the_default(self):
        assert json.dumps(run_scenario("e4", seed=5), sort_keys=True) == \
            json.dumps(run_scenario("e4", 5, Arm()), sort_keys=True)

    def test_same_seed_same_snapshot_in_process(self):
        first = run_scenario("mixed", seed=5)
        second = run_scenario("mixed", seed=5)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_different_seed_different_samples(self):
        a = run_scenario("mixed", seed=1)
        b = run_scenario("mixed", seed=2)
        assert a["rows"]["sampled"] != b["rows"]["sampled"]


class TestArm:
    def test_grammar_round_trips(self):
        arm = Arm.parse("block=7,topology=shards:4,crash=1:600")
        assert arm == Arm(block_size=7, topology="shards:4", crash="1:600")
        assert arm.spec() == "block=7,topology=shards:4,crash=1:600"
        assert Arm.parse("") == Arm.parse("topology=single") == Arm()
        assert Arm().spec() == "topology=single"
        for text in ("block=1", "crash=flows", "crash=flows@80", "crash=*",
                     "topology=standby:0.5",
                     "topology=standby:0.5,crash=frame:2:torn",
                     "block=7,topology=standby:0.5,crash=*"):
            assert Arm.parse(text).spec() == text

    def test_differs_names_the_fields(self):
        base = Arm(hash_seed="1")
        assert base.differs(Arm(hash_seed="2")) == ("hash",)
        assert base.differs(Arm(hash_seed="1", block_size=1)) == ("block",)
        assert base.differs(Arm(hash_seed="1", topology="shards:4",
                                crash="1:600")) == ("crash", "topology")

    @pytest.mark.parametrize("bad, offender", [
        ("block=0", "block=0"),
        ("block=seven", "block=seven"),
        ("blok=3", "blok=3"),
        ("hash=4", "hash=4"),
        ("block", "block"),
        ("topology=ring", "topology=ring"),
        ("topology=shards:0", "shards:0"),
        ("topology=shards:many", "shards:many"),
        ("topology=standby:soon", "soon"),
        ("topology=standby:-1", "-1"),
        ("topology=single,crash=frame:2", "frame:2"),
        ("topology=shards:4,crash=9:10", "9:10"),
        ("topology=shards:4,crash=frame:2", "frame:2"),
        ("topology=standby:0.5,crash=1:600", "1:600"),
        ("crash=flows@0", "flows@0"),
        ("crash=flows@x", "flows@x"),
        ("topology=shards:4,crash=*", "'\\*'"),
    ])
    def test_malformed_arm_is_refused_naming_the_offender(self, bad,
                                                          offender):
        with pytest.raises(ArmError, match=offender):
            Arm.parse(bad)

    def test_direct_construction_is_validated_too(self):
        with pytest.raises(ArmError, match="batch_size"):
            Arm(block_size=0)
        with pytest.raises(ArmError, match="9:10"):
            Arm(topology="shards:4", crash="9:10")

    @pytest.mark.parametrize("bad", ["abc", "-1", "+1", " 1", "4294967296",
                                     "\u0661", 1])
    def test_hash_seed_is_one_the_interpreter_takes(self, bad):
        """``PYTHONHASHSEED`` takes an integer 0..2**32-1; a child
        started with anything else dies before it prints a snapshot."""
        with pytest.raises(ArmError, match=re.escape(f"bad hash seed {bad!r}")):
            Arm(hash_seed=bad)

    def test_random_hash_seed_is_refused_with_the_reason(self):
        assert Arm(hash_seed="0") != Arm(hash_seed="4294967295")
        with pytest.raises(ArmError, match="cannot be pasted back"):
            Arm(hash_seed="random")


#: every registered scenario's declared seed and axes, literally:
#: dropping an arm (or a topology, a crash target, or moving a seed)
#: is a diff of this table -- the one ``replay verify`` runs
_SHARD_ARMS = ("topology=shards:4", "topology=shards:4,crash=1:600")
_BLOCKS = ("block=1", "block=7")
_SWEEPS = ("crash=*", "block=7,crash=*")
ARM_MATRIX = {
    "mixed": (7, None, ("single",), ("block=1",)),
    "e4": (3, None, ("single",), _BLOCKS),
    "recovery_agg": (7, ("flows", 400), ("single",),
                     ("crash=flows",) + _BLOCKS + _SWEEPS),
    "recovery_join": (7, ("j", 150), ("single",),
                      ("crash=j",) + _BLOCKS + _SWEEPS),
    "recovery_tcp": (7, ("tcpre0", 300), ("single",),
                     ("crash=tcpre0",) + _SWEEPS),
    "alerts_syn_flood": (0, ("alert_synflood", 2), ("single",),
                         ("crash=alert_synflood",) + _SWEEPS),
    "alerts_port_scan": (0, ("alert_portscan", 2), ("single",),
                         ("crash=alert_portscan",) + _SWEEPS),
    "telemetry_meta": (0, None, ("single",), ()),
    "telemetry_crash": (0, ("chan_drops", 40), ("single",),
                        ("crash=chan_drops",) + _SWEEPS),
    "shard_flows": (7, None, ("single", "shards"), _SHARD_ARMS),
    "shard_e2": (7, None, ("single", "shards"), _SHARD_ARMS),
    "failover_agg": (7, None, ("single", "standby"), (
        "topology=standby:0.5",
        "topology=standby:0.5,crash=packet:700",
        "topology=standby:0.5,crash=frame:0",
        "topology=standby:0.5,crash=frame:2",
        "topology=standby:0.5,crash=frame:2:torn",
        "topology=standby:0.5,crash=*",
        "block=7,topology=standby:0.5,crash=*")),
    "failover_recovery": (7, None, ("single", "standby"), (
        "topology=standby:0.5",
        "topology=standby:0.5,crash=packet:1500",
        "topology=standby:0.5,crash=packet:2900")),
}

#: each sweep's points: ~55 spread over the declared node's inputs (the
#: alert triggers see 3 and 4 rows), and on ``failover_agg`` 41 pump
#: boundaries plus frames 0-3, whole and torn
SWEEP_POINTS = {"recovery_agg": 55, "recovery_join": 55, "recovery_tcp": 55,
                "alerts_syn_flood": 3, "alerts_port_scan": 4,
                "telemetry_crash": 55, "failover_agg": 49}


class TestDeclaredAxes:
    def test_the_arm_matrix(self):
        assert {name: (fn.axes.seed, fn.axes.crash, fn.axes.topologies,
                       fn.axes.arms)
                for name, fn in SCENARIOS.items()} == ARM_MATRIX
        assert {name: len(fn.axes.sweep) for name, fn in SCENARIOS.items()
                if fn.axes.sweep} == SWEEP_POINTS

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_declares_a_seed_and_plannable_arms(self, name):
        """``verify`` with no ``--scenario`` runs this row: a seed, and
        every declared arm under each default hash seed."""
        axes = axes_of(name)
        assert axes.seed is not None and seed_for(name) == axes.seed
        planned = {(right.hash_seed, right.spec())
                   for _, right in plan(name)}
        assert planned >= {(hash_seed, Arm.parse(text).spec())
                           for hash_seed in ("1", "2") for text in axes.arms}

    def test_an_explicit_seed_overrides_the_declared_one(self):
        assert seed_for("e4") == 3 and seed_for("e4", 5) == 5
        assert seed_for("e4", 0) == 0
        assert seed_for("tests.leaky_scenarios:hash_in_row") == 0

    @pytest.mark.parametrize("path", [".github/workflows/ci.yml",
                                      ".claude/skills/verify/SKILL.md"])
    def test_ci_and_the_verify_recipe_pick_nothing_by_hand(self, path):
        """Tier-1 is every test file and ``replay verify`` is every
        scenario, so a change that adds either touches neither file."""
        text = (REPO / path).read_text()
        assert re.findall(r"tests/\S*\.py", text) == []
        assert "--scenario" not in text

    def test_verify_without_a_scenario_runs_the_whole_table(self,
                                                            monkeypatch):
        import repro.determinism as determinism
        calls = []
        monkeypatch.setattr(determinism, "verify",
                            lambda *args: calls.append(args) or [])
        assert main(["verify", "--hash-seeds", "1", "31337"]) == 0
        assert calls == [(name, None, ["1", "31337"], None)
                         for name in SCENARIOS]

    @pytest.mark.parametrize("name, arm, axis", [
        ("mixed", "crash=flows", "crash"),
        ("e4", "topology=shards:4", "topology=shards"),
        ("shard_e2", "topology=standby:0.5", "topology=standby"),
        ("failover_agg", "crash=flows", "crash"),
        ("recovery_agg", "crash=j", "crash=flows"),
        ("recovery_agg", "crash=j@3", "crash=flows"),
        ("e4", "crash=*", "sweep"),
    ])
    def test_an_undeclared_axis_is_refused_not_passed(self, name, arm, axis):
        """HEAD printed ``replay OK ... crash+recover`` for a scenario
        that never read the variable: a crash that did not happen."""
        for call in (lambda: run_scenario(name, 0, Arm.parse(arm)),
                     lambda: verify(name, arms=(arm,))):
            with pytest.raises(ArmError) as excinfo:
                call()
            assert repr(name) in str(excinfo.value)
            assert axis in str(excinfo.value)

    def test_a_sweep_reports_every_point_that_differs(self, monkeypatch):
        """``crash=*`` runs the uncrashed arm, then each declared point
        against it, in one process; without the rollback every crash
        quarantines its node, and each point says so."""
        from dataclasses import replace

        from repro.recovery.supervisor import RecoverySupervisor
        fn = SCENARIOS["recovery_agg"]
        points = fn.axes.sweep[20:22]
        monkeypatch.setattr(fn, "axes", replace(fn.axes, sweep=points))
        clean = run_scenario("recovery_agg")
        assert run_scenario("recovery_agg", arm=Arm(crash="*")) == clean
        monkeypatch.setattr(RecoverySupervisor, "on_failure",
                            lambda self, node, error: False)
        swept = run_scenario("recovery_agg", arm=Arm(crash="*"))
        assert sorted(swept["sweep"]) == [f"crash={point}"
                                          for point in points]
        diffs = compare(Arm(), clean, Arm(crash="*"), swept)
        assert diffs and all(line.startswith("$.sweep[crash=flows@")
                             for line in diffs)

    def test_crash_arm_needs_the_declaration_in_flight(self):
        """A scenario called past ``run_scenario`` cannot pick up the
        crash target another scenario declared."""
        run_scenario("e4", 0)
        with pytest.raises(ArmError, match="run_scenario"):
            SCENARIOS["recovery_join"](0, Arm(crash="j"))

    def test_nothing_to_compare_is_refused(self):
        with pytest.raises(ArmError, match="nothing to compare"):
            verify("telemetry_meta", hash_seeds=("5", "5"))
        with pytest.raises(ArmError, match="reference arm"):
            verify("e4", arms=("topology=single",))

    @pytest.mark.parametrize("argv, needles", [
        (["--scenario", "mixed", "--arm", "crash=flows"],
         ("'mixed'", "crash")),
        (["--scenario", "e4", "--arm", "topology=shards:4"],
         ("'e4'", "topology=shards")),
        (["--scenario", "e4", "--arm", "block=0"], ("block=0",)),
        (["--scenario", "e4", "--arm", "colour=red"], ("colour=red",)),
        (["--scenario", "shard_e2", "--arm", "topology=shards:0"],
         ("shards:0",)),
        (["--scenario", "recovery_agg", "--arm",
          "topology=single,crash=frame:2"], ("frame:2",)),
        (["--scenario", "no_such_scenario"], ("no_such_scenario",)),
        (["--scenario", "tests.leaky_scenarios:missing"], ("missing",)),
        # ``run`` has no --hash-seeds: argparse names the value there
        (["--hash-seeds", "abc", "1"], ("abc",)),
        (["--hash-seeds", "-1"], ("-1",)),
        (["--hash-seeds", "4294967296"], ("4294967296",)),
        (["--hash-seeds", "random"], ("random",)),
    ])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_cli_refusals_exit_2_naming_the_offender(self, command, argv,
                                                     needles, capsys):
        """A usage error from the parent, never a child's traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err


def _snapshot(rows=("(1, 2)",), stats=3, families=(), **extra):
    return dict({
        "rows": {"q": list(rows)},
        "drops": {"dropped": 0, "faults": []},
        "stats": {"q": {"tuples_in": stats}},
        "metrics": {"metrics": [{"name": name, "samples": [value]}
                                for name, value in families]},
    }, **extra)


class TestComparable:
    """``comparable`` strips what an axis excuses and nothing more."""

    H1, H2 = Arm(hash_seed="1"), Arm(hash_seed="2")

    def test_does_not_modify_its_argument(self):
        snapshot = _snapshot(families=[("gs_batch_size", 7)],
                             failover={"promoted": True})
        before = json.dumps(snapshot, sort_keys=True)
        stripped = comparable(snapshot, ("block", "crash"))
        assert json.dumps(snapshot, sort_keys=True) == before
        assert stripped["metrics"]["metrics"] == []
        assert "faults" not in stripped["drops"]
        assert "failover" not in stripped

    def test_wall_clock_families_never_count(self):
        a = _snapshot(families=[("gs_telemetry_profile_wall_seconds", 1)])
        b = _snapshot(families=[("gs_telemetry_profile_wall_seconds", 2)])
        assert compare(self.H1, a, self.H2, b) == []

    @pytest.mark.parametrize("family", ["gs_recovery_restarts_total",
                                        "gs_batch_size"])
    def test_two_hash_seeds_excuse_no_family(self, family):
        diffs = compare(self.H1, _snapshot(families=[(family, 1)]),
                        self.H2, _snapshot(families=[(family, 2)]))
        assert diffs and diffs[0].startswith("$.metrics.metrics[0]")

    def test_block_excuses_gs_batch_only(self):
        ones = Arm(hash_seed="1", block_size=1)
        assert compare(self.H1, _snapshot(families=[("gs_batch_size", 256)]),
                       ones, _snapshot(families=[("gs_batch_size", 1)])) == []
        diffs = compare(
            self.H1, _snapshot(families=[("gs_recovery_restarts_total", 0)]),
            ones, _snapshot(families=[("gs_recovery_restarts_total", 1)]))
        assert diffs and "$.metrics" in diffs[0]

    def test_crash_excuses_recovery_instrumentation_only(self):
        crashed = Arm(hash_seed="1", crash="q")
        clean = _snapshot(families=[("gs_recovery_restarts_total", 0)])
        repaired = _snapshot(families=[("gs_recovery_restarts_total", 1)])
        repaired["drops"]["faults"] = [{"node": "q", "triggered": 1}]
        assert compare(self.H1, clean, crashed, repaired) == []
        assert compare(self.H1, clean, crashed, _snapshot(stats=4)) == [
            "$.stats.q.tuples_in: 3 != 4"]
        diffs = compare(self.H1, _snapshot(families=[("gs_batch_size", 1)]),
                        crashed, _snapshot(families=[("gs_batch_size", 2)]))
        assert diffs and "$.metrics" in diffs[0]

    @pytest.mark.parametrize("topology", ["shards:4", "standby:0.5"])
    def test_topology_excuses_its_structural_families_only(self, topology):
        """A standby renames nothing, so its arms compare everything but
        the ``gs_repl*`` families; a sharded scenario, whose node names
        differ, snapshots its rows alone (``_rows``)."""
        other = Arm(hash_seed="1", topology=topology)
        assert compare(self.H1, _snapshot(),
                       other, _snapshot(families=[("gs_repl_bytes_total", 9),
                                                  ("gs_shard_rows_total", 9)])
                       ) == []
        assert compare(self.H1, _snapshot(stats=3),
                       other, _snapshot(stats=99)) == [
            "$.stats.q.tuples_in: 3 != 99"]
        assert compare(self.H1, _snapshot(), other,
                       _snapshot(rows=("(1, 3)",))) == [
            "$.rows.q[0]: '(1, 2)' != '(1, 3)'"]

    def test_a_standby_crash_excuses_replication_instrumentation(self):
        crashed = Arm(hash_seed="1", topology="standby:0.5", crash="frame:2")
        promoted = _snapshot(families=[("gs_repl_promotions_total", 1)],
                             failover={"promoted": True})
        assert compare(self.H1, _snapshot(), crashed, promoted) == []
        promoted["stats"]["q"]["tuples_in"] = 4
        assert compare(self.H1, _snapshot(), crashed, promoted) == [
            "$.stats.q.tuples_in: 3 != 4"]

    def test_promotion_must_equal_standby_and_crash(self):
        clean = Arm(hash_seed="1", topology="standby:0.5")
        crash = Arm(hash_seed="1", topology="standby:0.5",
                    crash="frame:2")
        promoted = _snapshot(failover={"promoted": True})
        quiet = _snapshot(failover={"promoted": False})
        assert compare(self.H1, _snapshot(), clean, quiet) == []
        assert compare(self.H1, _snapshot(), crash, promoted) == []
        for arm, snapshot in ((clean, promoted), (crash, quiet)):
            diffs = compare(self.H1, _snapshot(), arm, snapshot)
            assert len(diffs) == 1
            assert diffs[0].startswith("$.failover.promoted")
            assert arm.spec() in diffs[0]


class TestVerify:
    def test_mixed_scenario_replays_across_hash_seeds_and_block_sizes(self):
        # The tentpole regression: sampling + shedding + LFTA aggregation,
        # subprocesses with different PYTHONHASHSEED and block sizes,
        # byte-identical sink rows / drop ledger / ejection counts.
        assert verify_replay is verify
        reports = verify("mixed", seed=11, hash_seeds=("1", "101"))
        assert [report.axis for report in reports] == [
            "hash", "block", "block"]
        for report in reports:
            assert report.ok, report.describe()
        first, second = reports[0].snapshots
        assert first["rows"] == second["rows"]
        assert first["drops"] == second["drops"]
        assert (first["stats"]["_fta_flows_0"]["hash_collisions"]
                == second["stats"]["_fta_flows_0"]["hash_collisions"])
        # The block arm really ran in blocks of one.
        ones = reports[1].snapshots[1]["metrics"]["metrics"]
        sizes = [family for family in ones
                 if family["name"].startswith("gs_batch")]
        assert sizes and sizes != [
            family for family in first["metrics"]["metrics"]
            if family["name"].startswith("gs_batch")]

    @pytest.mark.parametrize("name", ["mixed", "e4"])
    def test_declared_row_replays_under_the_default_hash_seeds(self, name):
        """``verify(name)``: the declared seed and arms under hash seeds
        1 and 2, the row ``replay verify`` runs under 1 and 31337."""
        reports = verify(name)
        assert {report.seed for report in reports} == {seed_for(name)}
        assert len(reports) == 1 + 2 * len(axes_of(name).arms)
        for report in reports:
            assert report.ok, report.describe()

    def test_one_hash_seed_runs_each_arm_once(self):
        reports = verify("e4", seed=3, hash_seeds=("4", "4"),
                         arms=("block=7",))
        assert [report.axis for report in reports] == ["block"]
        assert reports[0].ok, reports[0].describe()

    def test_report_lines_paste_back(self):
        arms = (Arm(hash_seed="1"),
                Arm(hash_seed="1", topology="shards:4", crash="1:600"))
        report = ReplayReport("shard_e2", 7, arms, diffs=[])
        assert report.describe() == (
            "replay OK: --scenario shard_e2 --seed 7 [crash+topology]: "
            "PYTHONHASHSEED=1 --arm topology=single == "
            "PYTHONHASHSEED=1 --arm topology=shards:4,crash=1:600")
        failed = ReplayReport("shard_e2", 7, arms, diffs=["$.rows: x"])
        assert not failed.ok
        assert failed.describe().splitlines() == [
            "replay FAILED: --scenario shard_e2 --seed 7 [crash+topology]: "
            "PYTHONHASHSEED=1 --arm topology=single != "
            "PYTHONHASHSEED=1 --arm topology=shards:4,crash=1:600:",
            "  - $.rows: x"]

    def test_diff_paths_pinpoints_divergence(self):
        from repro.determinism import _diff_paths
        diffs = []
        _diff_paths({"a": [1, 2], "b": 3}, {"a": [1, 9], "b": 3},
                    "$", diffs)
        assert diffs == ["$.a[1]: 2 != 9"]


class TestVerifyFails:
    """A verifier nobody has seen fail proves nothing: each leaky
    scenario fails on the axis it leaks through, and only there."""

    @pytest.mark.parametrize("leak, axis, path", [
        ("hash_in_row", "hash", "$.rows.q[0]"),
        ("block_in_row", "block", "$.rows.q[0]"),
        ("row_only_in_crash_arm", "crash", "$.rows.q: length 1 != 2"),
        ("stats_differ_across_crash", "crash",
         "$.stats.q.tuples_in: 3 != 4"),
    ])
    def test_leak_fails_on_its_axis_only(self, leak, axis, path,
                                         monkeypatch):
        monkeypatch.chdir(REPO)  # the children import ``tests.``
        reports = verify(f"tests.leaky_scenarios:{leak}", seed=5)
        assert {report.axis for report in reports} >= {axis, "hash"}
        for report in reports:
            assert report.ok == (report.axis != axis), report.describe()
            if not report.ok:
                assert path in report.describe()
                assert report.describe().startswith("replay FAILED")


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


GS_VARIABLES = {"GS_BATCH_SIZE": "1", "GS_SHARDS": "2",
                "GS_SHARD_CRASH": "1:600", "GS_RECOVERY_CRASH": "1",
                "GS_FAILOVER": "1", "GS_FAILOVER_CRASH": "frame:2",
                "GS_FAILOVER_CADENCE": "0.25", "GS_REPLICATE": "0.25"}


def replay(*argv, **env_extra):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("GS_")}
    env.update(PYTHONPATH=SRC_ROOT, PYTHONHASHSEED="3", **env_extra)
    return subprocess.run([sys.executable, "-m", "repro.replay", *argv],
                          cwd=REPO, env=env, capture_output=True, text=True)


class TestModuleEntry:
    def test_run_prints_json(self):
        out = replay("run", "--scenario", "e4", "--seed", "2")
        assert out.returncode == 0
        assert json.loads(out.stdout)["rows"]["flows"]
        assert out.stderr == ""  # the shim entry avoids the runpy warning

    @pytest.mark.parametrize("name", ["mixed", "recovery_agg",
                                      "shard_flows", "failover_agg"])
    def test_caller_environment_changes_no_arm(self, name):
        """The arm is the ``--arm`` argument.  At HEAD each of these
        variables silently moved the reference arm: ``verify-batch``
        under ``GS_BATCH_SIZE=1`` diffed blocks of one against blocks of
        one and printed OK."""
        argv = ("run", "--scenario", name, "--seed", "3")
        clean = replay(*argv)
        assert clean.returncode == 0, clean.stderr
        assert replay(*argv, **GS_VARIABLES).stdout == clean.stdout

    def test_run_arm_selects_the_arm(self):
        argv = ("run", "--scenario", "recovery_agg", "--seed", "3")
        clean = json.loads(replay(*argv).stdout)
        crashed = json.loads(replay(*argv, "--arm", "crash=flows").stdout)
        assert "faults" not in clean["drops"] or not clean["drops"]["faults"]
        assert crashed["drops"]["faults"][0]["triggered"] == 1
        assert comparable(clean, ("crash",)) == comparable(crashed,
                                                           ("crash",))

    def test_verify_exit_codes_and_report_lines(self):
        passing = replay("verify", "--scenario", "e4", "--seed", "2",
                         "--hash-seeds", "1", "--arm", "block=7")
        assert passing.returncode == 0, passing.stderr
        assert passing.stdout.splitlines() == [
            "replay OK: --scenario e4 --seed 2 [block]: PYTHONHASHSEED=1 "
            "--arm topology=single == PYTHONHASHSEED=1 --arm block=7"]
        failing = replay("verify", "--scenario",
                         "tests.leaky_scenarios:block_in_row",
                         "--hash-seeds", "1")
        assert failing.returncode == 1
        lines = failing.stdout.splitlines()
        assert lines[0].startswith("replay FAILED: --scenario "
                                   "tests.leaky_scenarios:block_in_row")
        assert "$.rows.q[0]" in lines[1]

    def test_help_lists_exactly_run_and_verify(self):
        out = replay("--help")
        assert "{run,verify}" in out.stdout
        assert "verify-" not in out.stdout
