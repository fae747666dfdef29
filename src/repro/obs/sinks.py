"""Pluggable sinks for the observability layer.

A sink receives one dict per closed span and per event, plus the final
``{"kind": "summary", ...}`` snapshot when the registry closes:

* :class:`MemorySink` — keeps records in a list; the default when
  tracing is enabled without a file (``repro-haste profile``, tests).
* :class:`RingSink` — a :class:`MemorySink` that keeps only the newest
  records, for long-lived processes (the ``repro-haste serve`` daemon).
* :class:`JsonlSink` — appends one JSON object per line to a file, the
  ``repro-haste run … --trace out.jsonl`` / ``REPRO_TRACE=out.jsonl``
  format; the summary's counters let post-hoc analysis cross-check the
  per-record stream (e.g. negotiation message totals against each run's
  reported :class:`~repro.online.messaging.MessageStats`).

Records may carry numpy scalars in their fields; the JSONL encoder
coerces anything non-JSON-native through ``int``/``float``/``str``
rather than burdening every instrumentation site with conversions.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path

__all__ = ["Sink", "MemorySink", "RingSink", "JsonlSink"]


class Sink:
    """Interface: ``emit`` one record dict; ``close`` flushes resources."""

    def emit(self, record: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass


class MemorySink(Sink):
    """Collects records in memory (thread-safe append)."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._lock = threading.Lock()

    def emit(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)


class RingSink(MemorySink):
    """A :class:`MemorySink` holding only the newest ``capacity`` records.

    ``records`` is a bounded :class:`~collections.deque`: older records are
    dropped as new ones arrive, so memory stays bounded however long the
    process runs.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.records = deque(maxlen=capacity)


def _coerce(obj):
    """JSON fallback for numpy scalars and other odd field values."""
    for cast in (int, float):
        try:
            return cast(obj)
        except (TypeError, ValueError):
            continue
    return str(obj)


class JsonlSink(Sink):
    """One JSON object per line, flushed on close."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()

    def emit(self, record: dict) -> None:
        line = json.dumps(record, default=_coerce)
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()
