"""Cold start loads only what it runs (DESIGN section 4, "What loads when").

``import repro`` and a plain engine's build must not compile a plane
nobody enabled, the replay harness or a user-written operator: each
loads in the ``enable_*`` call, constructor or first attribute access
that needs it.  Checked in fresh interpreters, since this one has long
imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: what neither ``import repro`` with a plain build nor ``gsq`` may load
UNUSED = ("repro.alerts", "repro.control", "repro.faults",
          "repro.determinism", "repro.recovery",
          "repro.shard", "repro.obs.telemetry", "repro.obs.tracing",
          "repro.operators.defrag", "repro.operators.tcp_reassembly")

#: ``import repro`` loaded 67 ``repro`` modules when it compiled every
#: plane; the engine alone is 49
IMPORT_BUDGET = 52

#: the packages whose exports resolve on first access
LAZY = ("repro", "repro.net", "repro.obs", "repro.operators", "repro.sim")

#: e2_merge's shape: two LFTAs, a Merge and an aggregation over it
E2_GSQL = """
    DEFINE query_name link0;
    Select time, destIP, len From eth0.tcp Where destPort = 80;
    DEFINE query_name link1;
    Select time, destIP, len From eth1.tcp Where destPort = 80;
    DEFINE query_name both;
    Merge link0.time : link1.time From link0, link1;
    DEFINE query_name appmon;
    Select tb, count(*), sum(len) From both Group by time/10 as tb
"""

PROBE = f"""
import json, sys

def loaded():
    return sorted(name for name in sys.modules
                  if name == "repro" or name.startswith("repro."))

import repro
after_import = loaded()
gs = repro.Gigascope(heartbeat_interval=1.0)
gs.add_queries({E2_GSQL!r})
gs.subscribe("appmon")
gs.start()
print(json.dumps({{"import": after_import, "build": loaded()}}))
"""


def fresh(code: str) -> str:
    """``code``'s stdout in a new interpreter that writes no bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, env=env,
                          cwd=REPO).stdout


def unused(modules, packages=UNUSED):
    """The modules of ``packages`` among ``modules``."""
    return [name for name in modules
            if any(name == prefix or name.startswith(prefix + ".")
                   for prefix in packages)]


@pytest.fixture(scope="module")
def plain():
    return json.loads(fresh(PROBE))


def test_a_plain_build_loads_no_plane(plain):
    assert unused(plain["build"]) == []


def test_import_repro_stays_within_its_budget(plain):
    assert len(plain["import"]) <= IMPORT_BUDGET, plain["import"]


def test_gsq_loads_no_plane():
    """A ``gsq`` run with no plane flag loads no plane either: its
    knobs resolve through ``repro.options``, not the planes' modules."""
    argv = ["--synthetic", "1x1", "--query",
            "DEFINE query_name q; Select tb, count(*) From tcp "
            "Group by time/1 as tb"]
    code = ("import contextlib, io, json, sys, repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert repro.cli.main({argv!r}) == 0\n"
            "print(json.dumps(sorted(name for name in sys.modules\n"
            "                        if name.startswith('repro'))))")
    loaded = json.loads(fresh(code))
    assert unused(loaded) == []
    assert "repro.workloads.generators" in loaded  # it did run


#: switch -> planes it must not load besides its own: telemetry's
#: _gs_shed/_gs_recovery/_gs_alert columns are those planes' ledgers,
#: read without the planes
OTHERS = {"enable_telemetry()": ("repro.alerts", "repro.control",
                                 "repro.recovery")}


@pytest.mark.parametrize("switch, module", [
    ("enable_alerts()", "repro.alerts"),
    ("enable_shedding()", "repro.control"),
    ("enable_recovery()", "repro.recovery"),
    ("enable_replication()", "repro.recovery"),
    ("enable_telemetry()", "repro.obs.telemetry"),
    ("enable_tracing(0.5)", "repro.obs.tracing"),
    ("inject_faults(['ring_burst:at=1.0,duration=0.5'])", "repro.faults"),
])
def test_a_plane_loads_when_it_is_switched_on(switch, module):
    code = (f"import json, sys, repro; gs = repro.Gigascope(); "
            f"before = {module!r} in sys.modules; gs.{switch}; "
            f"print(json.dumps([before, list(sys.modules)]))")
    before, loaded = json.loads(fresh(code))
    assert not before and module in loaded
    assert unused(loaded, OTHERS.get(switch, ())) == []


@pytest.mark.parametrize("package", LAZY)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        module.nonexistent


@pytest.mark.parametrize("package", LAZY)
def test_import_star(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(importlib.import_module(package).__all__) <= set(namespace)


def test_the_replay_harness_reexports_the_data_path_primitives():
    import repro.determinism as determinism
    import repro.stable as stable
    for name in ("_canonical", "stable_hash", "tuple_hash", "derive_seed",
                 "rng_for"):
        assert getattr(determinism, name) is getattr(stable, name)
    import repro
    assert repro.stable_hash is stable.stable_hash
