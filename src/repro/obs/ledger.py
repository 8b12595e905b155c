"""One ledger per control plane: its counters, stated once.

A plane (shed, recovery, alerts, telemetry, replication, shard) declares
a :class:`Ledger` next to its ``report()``: one :class:`Field` per
counter, saying where the fact sits in the report, which metric family
exports it, and which ``_gs_*`` column streams it.  Everything an
operator can read is a rendering of that declaration:

* :func:`install` -- the metric families, refreshed by one lazy
  collector (runs at exposition, never on the packet path);
* :func:`columns` / :func:`row` -- the schema and the sample of the
  plane's ``_gs_*`` stream, including the row of a plane that is off;
* :func:`render` / :func:`text_sections` -- the ``key=value`` lines of
  the status report and the ``gsq`` epilogue.

Per-object streams (``_gs_channel``, ``_gs_operator``) are not ledger
projections: they carry one row per channel or operator and per-sample
deltas the sampler keeps, not one row of plane-wide counters.
"""

from __future__ import annotations

from typing import (Any, Callable, Iterable, List, Mapping, NamedTuple,
                    Optional, Tuple)


class Field(NamedTuple):
    """One counter of a plane."""

    #: the ``report()`` entry that carries this fact (None: exported
    #: only, in no report)
    key: Optional[str]
    #: metric family name (None: no family)
    family: Optional[str] = None
    kind: str = "gauge"
    help: str = ""
    #: label name; the value read is then ``{label value: number}``
    label: Optional[str] = None
    #: ``_gs_*`` column (None: not streamed); a labelled field streams
    #: the sum over its labels
    column: Optional[str] = None
    #: the column's value while the plane is off; its type (int or
    #: float) is the column's type
    off: Any = 0
    #: plane -> value, through public attributes only; default: the
    #: attribute named ``key``.  None means "no sample yet".
    read: Optional[Callable[[Any], Any]] = None

    def value(self, plane) -> Any:
        return self.read(plane) if self.read else getattr(plane, self.key)


class Ledger(NamedTuple):
    """A plane's declaration: its name and its fields.  The plane object
    carries it as ``ledger`` beside its ``report()``."""

    #: what ``attach_plane`` refuses a second one of, lists the plane
    #: under in ``rts.planes`` and orders its hooks by
    name: str
    fields: Tuple[Field, ...]
    #: heading of the text section (default: the name)
    title: Optional[str] = None
    #: the ``_gs_*`` stream projected from the fields with a column
    stream: Optional[str] = None


def install(registry, ledger: Ledger, plane) -> None:
    """Register ``ledger``'s families on ``registry`` and one collector
    that refreshes them from ``plane``."""
    families = [
        (field, getattr(registry, field.kind)(
            field.family, field.help,
            labels=(field.label,) if field.label else ()))
        for field in ledger.fields if field.family]

    def collect() -> None:
        for field, family in families:
            value = field.value(plane)
            if field.label:
                # Label sets come and go (triggers, operators): rebuild.
                family.clear()
                for label, number in value.items():
                    family.labels(**{field.label: label}).set(number)
            elif value is not None:
                family.set(value)

    registry.add_collector(collect)


def columns(ledger: Ledger) -> List[Tuple[str, type]]:
    """``(column, int | float)`` of the ledger's stream, after ``time``."""
    return [(field.column, type(field.off))
            for field in ledger.fields if field.column]


def row(ledger: Ledger, plane, time_value: float, **known: Any) -> tuple:
    """One sample of the ledger's stream, O(fields).

    ``plane`` None is the plane switched off: every column takes its
    declared ``off`` value.  ``known`` carries columns the sampler has
    already computed on its own walk (per-sample deltas, sums that
    honour the no-feedback rule); they win over both.
    """
    out = [time_value]
    for field in ledger.fields:
        if field.column is None:
            continue
        if field.column in known:
            value = known[field.column]
        elif plane is None:
            value = field.off
        else:
            value = field.value(plane)
            if field.label:
                value = sum(value.values())
        out.append(type(field.off)(value))
    return tuple(out)


def _text(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(report: Mapping[str, Any], path: str = "") -> List[str]:
    """A report dict as ``key=value`` lines: its scalars on one line,
    then one line per list and, recursively, per nested dict."""
    head = " ".join(f"{key}={_text(value)}" for key, value in report.items()
                    if not isinstance(value, (dict, list)))
    lines = [f"{path}: {head}" if path else head] if head else []
    for key, value in report.items():
        name = f"{path} {key}" if path else key
        if isinstance(value, list):
            lines.append(f"{name}: " + (" ".join(map(_text, value)) or "-"))
        elif isinstance(value, dict):
            lines.extend(render(value, name) or [f"{name}: -"])
    return lines


def text_sections(planes: Iterable) -> List[Tuple[str, List[str]]]:
    """``(title, lines)`` for every plane: its ``report()``, rendered."""
    return [(plane.ledger.title or plane.ledger.name, render(plane.report()))
            for plane in planes]
