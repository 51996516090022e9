"""The telemetry hub: named windowed instruments + periodic rollups.

A :class:`TelemetryHub` is the one instrument API, and its
:meth:`~TelemetryHub.rollup` is the one metrics document.  Windowed
counters, quantile sketches (:mod:`repro.obs.timeseries` ring buffers)
and live gauges answer "what is happening now"; sections registered
with :meth:`~TelemetryHub.add_section` carry the accumulators the
system already keeps (per-stage timing, zone-index pruning, event
counts, ...) through their own ``to_dict``, read at rollup time.  The
monitor rules, the rollup JSONL stream, the dashboard, ``--metrics-json``
files and the Prometheus exposition (:mod:`repro.obs.prom`) all consume
that one document.

Producers (the audit engine, the chaos/adversary harnesses) record with
an explicit ``now``; the hub never reads a wall clock of its own, so a
sim-clock-driven run stays bit-deterministic.  The hub is
dependency-free: instrumented modules import it, never the other way
around.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, IO

from repro.errors import ConfigurationError
from repro.obs.timeseries import (
    DEFAULT_SKETCH_ALPHA,
    DEFAULT_WINDOW_BUCKETS,
    DEFAULT_WINDOW_S,
    WindowedCounter,
    WindowedSketch,
)


class TelemetryHub:
    """Named windowed counters, sketches, and gauges with one rollup view.

    Accessors are get-or-create: asking for an existing name with a
    different instrument kind raises
    :class:`~repro.errors.ConfigurationError`.  All instruments share
    the hub's window geometry so rollup rates are comparable.
    """

    def __init__(self, *, window_s: float = DEFAULT_WINDOW_S,
                 buckets: int = DEFAULT_WINDOW_BUCKETS,
                 alpha: float = DEFAULT_SKETCH_ALPHA):
        self.window_s = float(window_s)
        self.buckets = int(buckets)
        self.alpha = float(alpha)
        self._counters: dict[str, WindowedCounter] = {}
        self._sketches: dict[str, WindowedSketch] = {}
        self._gauges: dict[str, Callable[[], float]] = {}
        #: Extra rollup sections: name -> zero-arg callable returning a
        #: JSON-ready dict (e.g. a live StageMetrics's ``to_dict``).
        self._sections: dict[str, Callable[[], dict[str, Any]]] = {}

    # --- instruments --------------------------------------------------------

    def _check_free(self, name: str, kind: str) -> None:
        kinds = {"counter": self._counters, "sketch": self._sketches,
                 "gauge": self._gauges}
        for other, store in kinds.items():
            if other != kind and name in store:
                raise ConfigurationError(
                    f"telemetry instrument {name!r} already exists as "
                    f"a {other}")

    def counter(self, name: str) -> WindowedCounter:
        """Get or create a windowed counter."""
        counter = self._counters.get(name)
        if counter is None:
            self._check_free(name, "counter")
            counter = WindowedCounter(self.window_s, self.buckets)
            self._counters[name] = counter
        return counter

    def sketch(self, name: str) -> WindowedSketch:
        """Get or create a windowed quantile sketch."""
        sketch = self._sketches.get(name)
        if sketch is None:
            self._check_free(name, "sketch")
            sketch = WindowedSketch(self.window_s, self.buckets,
                                    alpha=self.alpha)
            self._sketches[name] = sketch
        return sketch

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register (or replace) a callback-backed gauge."""
        self._check_free(name, "gauge")
        self._gauges[name] = fn

    def add_section(self, name: str,
                    fn: Callable[[], dict[str, Any]]) -> None:
        """Attach an extra rollup section produced at rollup time."""
        self._sections[name] = fn

    # --- recording shorthands ----------------------------------------------

    def mark(self, name: str, *, now: float, amount: float = 1.0) -> None:
        """Count an event on the named windowed counter."""
        self.counter(name).inc(amount, now=now)

    def observe(self, name: str, value: float, *, now: float) -> None:
        """Record a value on the named windowed sketch."""
        self.sketch(name).observe(value, now=now)

    def record_audit(self, *, seconds: float, status: str,
                     reason: str | None = None, samples: int = 0,
                     now: float) -> None:
        """One audited submission: the engine's per-intake feed.

        Records intake latency into ``audit.intake.seconds``, counts
        ``audit.submissions`` / ``audit.samples`` and the per-status
        ``audit.status.<status>`` counter, and — for any non-accepted
        status — ``audit.rejections`` plus the per-reason
        ``audit.rejections.<reason>`` breakdown.
        """
        self.observe("audit.intake.seconds", seconds, now=now)
        self.mark("audit.submissions", now=now)
        if samples:
            self.mark("audit.samples", now=now, amount=samples)
        self.mark(f"audit.status.{status}", now=now)
        if status != "accepted":
            self.mark("audit.rejections", now=now)
            if reason is not None:
                self.mark(f"audit.rejections.{reason}", now=now)

    # --- rollups ------------------------------------------------------------

    def rollup(self, now: float) -> dict[str, Any]:
        """One JSON-ready rollup of every instrument as of ``now``."""
        counters = {
            name: {"total": counter.total(now),
                   "rate": counter.rate(now),
                   "cumulative": counter.cumulative}
            for name, counter in sorted(self._counters.items())}
        quantiles = {name: sketch.summary(now)
                     for name, sketch in sorted(self._sketches.items())}
        gauges = {name: float(fn())
                  for name, fn in sorted(self._gauges.items())}
        document: dict[str, Any] = {
            "t": float(now),
            "window_s": self.window_s,
            "counters": counters,
            "quantiles": quantiles,
            "gauges": gauges,
        }
        for name, fn in sorted(self._sections.items()):
            document[name] = fn()
        return document


def flatten_rollup(rollup: dict[str, Any]) -> dict[str, float]:
    """Flatten a rollup into the ``metric path -> value`` map rules read.

    Counters contribute ``<name>.rate`` / ``<name>.total`` /
    ``<name>.cumulative``; sketches contribute ``<name>.count`` and (for
    non-empty windows) ``<name>.p50`` / ``.p90`` / ``.p95`` / ``.p99`` /
    ``.mean``; gauges contribute their bare name.  Empty-window quantile
    paths are *absent*, which is what lets absence/staleness rules see a
    quiet stream while threshold rules simply skip it.
    """
    flat: dict[str, float] = {}
    for name, entry in rollup.get("counters", {}).items():
        flat[f"{name}.rate"] = entry["rate"]
        flat[f"{name}.total"] = entry["total"]
        flat[f"{name}.cumulative"] = entry["cumulative"]
    for name, entry in rollup.get("quantiles", {}).items():
        flat[f"{name}.count"] = entry.get("count", 0)
        for key in ("p50", "p90", "p95", "p99", "mean"):
            if key in entry:
                flat[f"{name}.{key}"] = entry[key]
    for name, value in rollup.get("gauges", {}).items():
        flat[name] = value
    return flat


class RollupWriter:
    """Appends one sorted-keys JSON line per rollup (offline analysis).

    The stream is the durable counterpart of the dashboard: every tick
    of a long run lands as one line, so post-hoc tooling can replay rate
    and quantile histories without the process that produced them.
    """

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        self._fh: IO[str] | None = self.path.open("w")
        self.lines_written = 0

    def write(self, rollup: dict[str, Any]) -> None:
        """Append one rollup line (no-op after :meth:`close`)."""
        if self._fh is None:
            raise ConfigurationError("rollup writer is closed")
        self._fh.write(json.dumps(rollup, sort_keys=True) + "\n")
        self._fh.flush()
        self.lines_written += 1

    def close(self) -> None:
        """Flush and close the stream."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RollupWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_rollups_jsonl(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """Parse a rollup JSONL stream back into dicts (writer round-trip)."""
    rollups = []
    for line in pathlib.Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            rollups.append(json.loads(line))
    return rollups


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_rollup_json(path: str | pathlib.Path) -> dict[str, Any]:
    """Read one rollup object back (a ``--metrics-json`` file).

    Raises :class:`~repro.errors.ConfigurationError` unless the file
    holds a rollup's shape: ``counters`` entries with a numeric
    ``cumulative``, ``quantiles`` entries of numbers, numeric ``gauges``.
    """
    try:
        document = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"{path}: unreadable ({exc})") from exc
    shaped = isinstance(document, dict) and all(
        isinstance(document.get(key), dict)
        for key in ("counters", "quantiles", "gauges"))
    if not (shaped
            and all(isinstance(entry, dict)
                    and _is_number(entry.get("cumulative"))
                    for entry in document["counters"].values())
            and all(isinstance(entry, dict)
                    and all(map(_is_number, entry.values()))
                    for entry in document["quantiles"].values())
            and all(map(_is_number, document["gauges"].values()))):
        raise ConfigurationError(
            f"{path}: metrics JSON must be one telemetry rollup object")
    return document
