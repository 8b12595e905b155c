"""Plumbing check: ``python3 -m pytest bench -q`` (not on tier-1's
``testpaths``).  Runs ``bench run --smoke`` once -- 1/80 of the traffic,
2 rounds -- and checks shape, names and correctness, never speed."""

import copy
import json
import re
import subprocess
import sys

import pytest

from bench import compare
from bench.runner import contract_line
from bench.spec import END_TO_END, OUT_DIR, PER_LAYER, ROOT, SPEC, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke():
    out = OUT_DIR / "smoke.json"
    subprocess.run([sys.executable, "-m", "bench", "run", "--smoke",
                    "--out", str(out)], cwd=ROOT, check=True, timeout=120)
    return json.loads(out.read_text())


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < metric["bound"] <= 0.25 for metric in END_TO_END.values())
    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in END_TO_END.values())
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (SPEC["run_seconds"] + 14) < 3420, "no room for set-up"


def test_every_workload_reports_every_metric(smoke):
    assert list(smoke["workloads"]) == WORKLOADS
    for field in ("git_sha", "nproc", "cpu_model", "python", "seed",
                  "seconds", "wall_s"):
        assert field in smoke["record"]
    for name, result in smoke["workloads"].items():
        assert set(result["end_to_end"]) == set(END_TO_END), name
        assert set(result["per_layer"]) == set(PER_LAYER), name
        for metric, entry in result["end_to_end"].items():
            assert entry["value"] > 0, (name, metric)
            assert entry["q1"] <= entry["median"] <= entry["q3"]
            assert entry["unit"] == END_TO_END[metric]["unit"]
        assert result["failed"] == 0 and result["attempted"] >= 1, name
        assert result["per_layer"]["oracle.failed_share"]["value"] == 0
        assert result["per_layer"]["trace.wraps_missing"]["value"] == 0
        assert (OUT_DIR / f"trace-{name}.json").exists()


def test_variants_of_e2_see_e2s_packets(smoke):
    digests = {smoke["workloads"][name]["digest"]
               for name in ("e2_merge", "planes_on", "e2_shard2")}
    assert len(digests) == 1


def test_contract_line_has_exactly_the_four_keys(smoke):
    result = dict(smoke["workloads"]["e2_merge"])
    result["metrics"] = result["end_to_end"]
    line = json.loads(contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert all(set(entry) == {"value", "unit"}
               for entry in line["metrics"].values())


def test_compare_flags_worse_and_refuses_other_packets(smoke, tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path

    same = write("a.json", smoke)
    assert compare.main(same, same) == 0
    slower = copy.deepcopy(smoke)
    entry = slower["workloads"]["join_rtt"]["end_to_end"]["throughput_pps"]
    for key in ("value", "median", "q1", "q3"):
        entry[key] /= 2
    assert compare.main(same, write("slower.json", slower)) == 1
    failing = copy.deepcopy(smoke)
    failing["workloads"]["e2_merge"]["failed"] = 1
    assert compare.main(same, write("failing.json", failing)) == 1
    other = copy.deepcopy(smoke)
    other["workloads"]["e2_merge"]["digest"] = "0" * 64
    assert compare.main(same, write("other.json", other)) == 2
