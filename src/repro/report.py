"""Operational reporting: a textual snapshot of a running Gigascope.

Seven AT&T installations ran "three months nonstop"; operators of a
long-running monitor need to see where tuples flow, where they are
discarded, and which buffers are filling.  :func:`engine_report`
renders exactly that from the canonical observability snapshot
(:func:`repro.obs.collectors.engine_snapshot` -- the same single source
of truth behind ``RuntimeSystem.stats()`` and the metrics exposition),
plus every enabled control plane's ledger.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.collectors import NODE_EXTRA_ATTRS
from repro.obs.ledger import render, text_sections


def _format_row(columns, widths) -> str:
    return "  ".join(str(value).ljust(width)
                     for value, width in zip(columns, widths))


def _node_table(stats, lines: List[str]) -> None:
    header = ("node", "in", "out", "discard", "drops", "extra")
    rows = []
    for name in sorted(stats):
        entry = stats[name]
        channels = entry.get("channels", {})
        drops = sum(ch["dropped"] for ch in channels.values())
        extras = [f"{attr}={entry[attr]}" for attr in NODE_EXTRA_ATTRS
                  if entry.get(attr)]
        if entry.get("hash_collisions"):
            extras.append(f"collisions={entry['hash_collisions']}")
        rows.append((name, entry["tuples_in"], entry["tuples_out"],
                     entry["discarded"], drops, " ".join(extras)))
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    lines.append(_format_row(header, widths))
    for row in rows:
        lines.append(_format_row(row, widths))

    # Channel depths: anything non-empty is either mid-pump or stuck.
    pending = []
    for name in sorted(stats):
        for channel_name, channel in stats[name].get("channels", {}).items():
            if channel["depth"]:
                pending.append(f"  {channel_name}: {channel['depth']} queued "
                               f"(max {channel['max_depth']})")
    if pending:
        lines.append("")
        lines.append("channels with queued items:")
        lines.extend(pending)


def engine_report(engine) -> str:
    """A multi-section plain-text report of the engine's state.

    ``engine`` is any of the three facades: the header and the node
    table, then one section per enabled control plane -- each plane's
    ``report()`` rendered by :func:`repro.obs.ledger.render`, the same
    lines the ``gsq`` epilogue prints.  A sharded engine's worker
    statistics arrive in their ``end`` frames, namespaced
    ``shardN/...``; the parent's combine operators appear as
    ``merge/...``.
    """
    lines: List[str] = []
    rts = getattr(engine, "rts", None)
    if rts is None:
        lines.append("gigascope status (sharded)")
        lines.append(f"  started: {engine.started}")
    else:
        lines.append("gigascope status")
        lines.append(f"  stream time: {rts.stream_time:.3f} s"
                     if rts.stream_time > float("-inf")
                     else "  stream time: -")
        lines.append(f"  packets fed: {rts.packets_fed}")
        lines.append(f"  heartbeats sent: {rts.heartbeats_sent}")
        lines.append(f"  started: {rts.started}")
    lines.append("")
    _node_table(engine.stats(), lines)
    planes = engine.planes
    sections = text_sections(planes.values())
    if "shed" not in planes:
        # Without a controller the uncorrected drop snapshot still
        # belongs in a status report.
        sections.insert(0, ("overload", render(engine.overload_report())))
    for title, body in sections:
        lines += ["", title] + [f"  {line}" for line in body]
    return "\n".join(lines)


def plane_reports(engine) -> Dict[str, Any]:
    """The rendered report plus every enabled plane's ``report()``:
    the one JSON-shaped dump CI's failure artifacts write."""
    return {"report": engine_report(engine).splitlines(),
            "planes": {name: plane.report()
                       for name, plane in engine.planes.items()}}
