"""Sink nodes: stream query output out of the engine.

Applications usually subscribe and poll; long-running monitors instead
attach a sink node so results land on disk continuously (the deployed
Gigascope fed downstream collectors the same way).  Sinks are ordinary
query nodes: ``engine.add_node(sink)`` + ``engine.rts.connect``.

* :class:`CsvSink` -- one CSV row per tuple.
* :class:`JsonlSink` -- one JSON object per tuple, keyed by column name.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Optional

from repro.core.query_node import QueryNode
from repro.gsql.schema import StreamSchema
from repro.gsql.types import IP
from repro.net.packet import int_to_ip


class _RecoverableSink(QueryNode):
    """Recovery support shared by the file sinks (DESIGN section 11).

    A sink's side effect (the written line) cannot be rolled back by a
    checkpoint restore, so the rows a rollback's replay hands it again
    must not be written again: ``rows_written`` is restored with the
    sink, and a row is written only once it passes the count of rows
    already in the file -- output stays exactly-once.
    """

    def __init__(self, name: str, schema: StreamSchema) -> None:
        super().__init__(name, schema)
        self.rows_written = 0
        #: rows in the file (never rolled back)
        self._in_file = 0

    def _replayed(self) -> bool:
        """Count a row in; True if it was written before a rollback."""
        self.rows_written += 1
        if self.rows_written <= self._in_file:
            return True
        self._in_file = self.rows_written
        return False

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["rows_written"] = self.rows_written
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.rows_written = state["rows_written"]


class CsvSink(_RecoverableSink):
    """Write every received tuple as a CSV row (with a header)."""

    def __init__(self, name: str, schema: StreamSchema, fileobj: IO[str],
                 pretty_ip: bool = False, flush_every: int = 1000) -> None:
        super().__init__(name, schema)
        self._file = fileobj
        self._writer = csv.writer(fileobj)
        self._writer.writerow(schema.names)
        self.flush_every = flush_every
        self._formatters = []
        for attribute in schema.attributes:
            if pretty_ip and attribute.gsql_type is IP:
                self._formatters.append(int_to_ip)
            elif attribute.gsql_type.python_type is bytes:
                self._formatters.append(
                    lambda v: v.decode("latin-1", "replace")
                    if isinstance(v, bytes) else v
                )
            else:
                self._formatters.append(None)

    def on_tuple(self, row: tuple, input_index: int) -> None:
        if self._replayed():
            return
        rendered = [
            fn(value) if fn is not None else value
            for fn, value in zip(self._formatters, row)
        ]
        self._writer.writerow(rendered)
        if self.rows_written % self.flush_every == 0:
            self._file.flush()

    def flush(self) -> None:
        self._file.flush()


class JsonlSink(_RecoverableSink):
    """Write every received tuple as one JSON object per line."""

    def __init__(self, name: str, schema: StreamSchema, fileobj: IO[str],
                 flush_every: int = 1000) -> None:
        super().__init__(name, schema)
        self._file = fileobj
        self._names = schema.names
        self.flush_every = flush_every

    def on_tuple(self, row: tuple, input_index: int) -> None:
        if self._replayed():
            return
        record = {}
        for name, value in zip(self._names, row):
            if isinstance(value, bytes):
                value = value.decode("latin-1", "replace")
            record[name] = value
        self._file.write(json.dumps(record) + "\n")
        if self.rows_written % self.flush_every == 0:
            self._file.flush()

    def flush(self) -> None:
        self._file.flush()


def attach_sink(engine, query_name: str, sink_cls, fileobj: IO[str],
                **kwargs) -> QueryNode:
    """Create a sink for ``query_name``'s output and wire it in."""
    schema = engine.schema_of(query_name)
    sink = sink_cls(f"{query_name}_sink", schema, fileobj, **kwargs)
    engine.add_node(sink)
    engine.rts.connect(sink, [query_name])
    engine.rts.checkpoint()
    return sink
