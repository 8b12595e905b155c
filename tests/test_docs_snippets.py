"""Docs must not rot: every ```sql block in the documentation parses,
analyzes, and plans against the real front end."""

import re
from pathlib import Path

import pytest

from repro import Gigascope
from repro.gsql.parser import parse_queries

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", ROOT / "docs" / "gsql_reference.md"]

_FENCE = re.compile(r"```sql\n(.*?)```", re.DOTALL)


def sql_blocks():
    blocks = []
    for path in DOC_FILES:
        if not path.exists():
            continue
        for match in _FENCE.finditer(path.read_text()):
            blocks.append((path.name, match.group(1)))
    return blocks


@pytest.mark.parametrize("source,block", sql_blocks(),
                         ids=[f"{name}:{i}" for i, (name, _)
                              in enumerate(sql_blocks())])
def test_sql_block_compiles(source, block):
    queries = parse_queries(block)
    assert queries, f"empty sql block in {source}"
    gs = Gigascope()
    if "_gs_" in block:
        # Meta-queries read the self-telemetry streams; enabling
        # telemetry registers their schemas, just as a user must.
        gs.enable_telemetry()
    params = {
        name: {"peers": "10.0.0.0/8 1", "minlen": 40, "port": 80}
        for name in re.findall(r"query_name\s+(\w+)", block)
    }
    gs.add_queries(block, params=params)


def test_docs_mention_every_experiment():
    """EXPERIMENTS.md covers every benchmark module."""
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for path in sorted((ROOT / "benchmarks").glob("test_e*.py")):
        assert path.name in experiments or path.stem.split("_")[1] in \
            experiments.lower(), f"{path.name} undocumented"


def test_readme_documents_every_metric_family():
    """The README metrics-family table covers every family the engine
    can register, across every plane (engine, NIC, shedding, batching,
    recovery, alerts, telemetry), and states each one's kind; every
    plane's ledger is held to its table row as well."""
    from repro.faults.injectors import OperatorFault
    from repro.nic.nic import Nic

    gs = Gigascope(seed=3, heartbeat_interval=0.5, batch_size=4)
    gs.observe_nic(Nic())
    gs.enable_shedding("adaptive")
    gs.enable_telemetry(interval=0.5)
    gs.add_query("""
        DEFINE query_name flows;
        Select tb, count(*) as pkts
        From tcp Group by time/2 as tb
    """)
    gs.enable_recovery(checkpoint_interval=1.0)
    gs.enable_alerts(["t:on=flows,when=sum(pkts) > 1,epoch=2"])
    gs.subscribe("flows")
    gs.start()
    gs.inject_faults([OperatorFault("flows", at_tuple=1, times=1)])
    from tests.conftest import tcp_packet
    for i in range(64):
        gs.feed_packet(tcp_packet(ts=0.1 * i))
        if i % 8 == 7:
            gs.rts.pump()
    gs.flush()
    families = {family.name: family.kind for family in gs.metrics.families()}
    assert families, "no metric families registered"

    # The sharded runtime registers its own plane of families.
    from repro.shard import ShardedGigascope
    sharded = ShardedGigascope(2, seed=3)
    sharded.add_query("""
        DEFINE query_name flows;
        Select tb, count(*) as pkts
        From tcp Group by time/2 as tb
    """)
    sharded.subscribe("flows")
    families.update((family.name, family.kind)
                    for family in sharded.metrics.families())

    # The replication plane registers the gs_repl_* families on both
    # runtimes' registries.
    replicated = Gigascope(seed=3)
    plane = replicated.enable_replication(cadence=0.5)
    replicated.add_query("""
        DEFINE query_name flows;
        Select tb, count(*) as pkts
        From tcp Group by time/2 as tb
    """)
    families.update((family.name, family.kind)
                    for family in replicated.metrics.families())
    ledgers = (gs.planes["shed"], gs.planes["recovery"], gs.planes["alerts"],
               gs.planes["telemetry"], sharded, plane)
    declared = {field.family: field.kind for plane in ledgers
                for field in plane.ledger.fields if field.family}
    assert declared.items() <= families.items()

    readme = (ROOT / "README.md").read_text()
    table = dict(re.findall(r"^\| `(gs_\w+)` \| (\w+) \|", readme, re.M))
    wrong = {name: (kind, table.get(name))
             for name, kind in sorted(families.items())
             if table.get(name) != kind}
    assert not wrong, (
        f"metric families missing from the README table, or listed "
        f"under the wrong kind (family: (actual, README)): {wrong}")


def test_readme_refusal_table_is_the_declaration():
    """The README's "what an engine refuses" rows are the declared
    refusals of the sharded facade and the durability plane's standby:
    same planes, same reasons, word for word."""
    from repro.recovery.supervisor import STANDBY_REFUSALS
    from repro.shard import ShardedGigascope

    readme = (ROOT / "README.md").read_text()
    table = {(topology, plane): reason for topology, plane, reason
             in re.findall(r"^\| `(--\w+)` \| [^|]+ \| `(\w+)` \| (.+) \|$",
                           readme, re.M)}
    declared = {(flag, plane): reason
                for flag, refusals in (("--shards", ShardedGigascope.refusals),
                                       ("--standby", STANDBY_REFUSALS))
                for plane, reason in refusals.items()}
    assert table == declared
