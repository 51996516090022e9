"""A structured event log for simulations.

Workload runs append timestamped events (sample taken, zone approached,
insufficiency detected...) that tests and analysis code can query without
re-deriving them from raw output.

Logs serialize to JSONL (one event per line) via :meth:`EventLog.to_jsonl`
/ :meth:`EventLog.from_jsonl`, and can be bounded with ``max_events`` —
long simulated flights would otherwise grow an append-only log without
limit; a bounded log evicts oldest-first like a flight recorder.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ConfigurationError, EncodingError


@dataclass(frozen=True, slots=True)
class Event:
    """One timestamped occurrence."""

    time: float
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable view (the JSONL row)."""
        return {"time": self.time, "kind": self.kind,
                "detail": dict(self.detail)}


class EventLog:
    """An append-only, time-ordered event collection.

    Args:
        max_events: optional bound; when set, appending past it evicts
            the oldest events first (the log keeps the most recent
            ``max_events``).  Unbounded by default.
    """

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ConfigurationError("max_events must be >= 1 (or None)")
        self.max_events = max_events
        self._events: deque[Event] = deque(maxlen=max_events)
        self._evicted = 0

    def record(self, time: float, kind: str, **detail: Any) -> None:
        """Append an event (evicting the oldest if the log is bounded)."""
        if self.max_events is not None and len(self._events) == self.max_events:
            self._evicted += 1
        self._events.append(Event(time=time, kind=kind, detail=detail))

    @property
    def evicted(self) -> int:
        """How many events the bound has pushed out so far."""
        return self._evicted

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def of_kind(self, kind: str) -> list[Event]:
        """All events with the given kind, in order."""
        return [e for e in self._events if e.kind == kind]

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were recorded."""
        return sum(1 for e in self._events if e.kind == kind)

    def counts(self) -> dict[str, Any]:
        """JSON-ready tally: ``total`` plus one count per ``kind``."""
        kinds = Counter(e.kind for e in self._events)
        return {"total": len(self._events), "kind": dict(sorted(kinds.items()))}

    def between(self, t0: float, t1: float) -> list[Event]:
        """Events with ``t0 <= time <= t1``."""
        return [e for e in self._events if t0 <= e.time <= t1]

    # --- serialization ------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest first."""
        return "\n".join(json.dumps(e.to_dict(), sort_keys=True)
                         for e in self._events)

    @classmethod
    def from_jsonl(cls, text: str,
                   max_events: int | None = None) -> "EventLog":
        """Rebuild a log from :meth:`to_jsonl` output.

        Blank lines are skipped; a malformed line raises
        :class:`~repro.errors.EncodingError`.  When ``max_events`` is
        given the usual oldest-first eviction applies during the load.
        """
        log = cls(max_events=max_events)
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                log.record(float(row["time"]), str(row["kind"]),
                           **dict(row.get("detail") or {}))
            except (ValueError, KeyError, TypeError) as exc:
                raise EncodingError(
                    f"bad event log line {number}: {exc}") from exc
        return log
