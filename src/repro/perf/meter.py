"""Measurement aggregation: mean +- std in the paper's reporting style.

Also hosts :class:`StageMetrics`, the per-stage timing accumulator the
staged verification pipeline and the batch audit engine report into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class Measurement:
    """A mean with its standard deviation, e.g. ``2.17 +-0.05``."""

    mean: float
    std: float
    n: int = 0

    def format(self, digits: int = 2) -> str:
        """Render in Table II's ``mean +-std`` style."""
        return f"{self.mean:.{digits}f} ±{self.std:.{digits}f}"

    def __str__(self) -> str:
        return self.format()


def mean_std(values: Sequence[float]) -> Measurement:
    """Population mean and standard deviation of a series.

    The paper samples ``top`` once per second and averages, which is a
    population statistic over the observation window, so population (not
    sample) std matches.
    """
    if not values:
        raise ConfigurationError("cannot aggregate an empty series")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return Measurement(mean=mean, std=math.sqrt(variance), n=n)


@dataclass(frozen=True, slots=True)
class StageSample:
    """One timed execution of one pipeline stage."""

    seconds: float
    sample_count: int


@dataclass
class StageMetrics:
    """Per-stage wall time and sample counts for verification pipelines.

    Every stage execution is recorded individually so callers can compute
    both totals (engine throughput accounting) and per-run distributions
    (mean ± std via :func:`mean_std`).  Instances are cheap dict-of-list
    accumulators with no locking: share one only within one thread.
    """

    _samples: dict[str, list[StageSample]] = field(default_factory=dict)

    def record(self, stage: str, seconds: float, sample_count: int = 0) -> None:
        """Record one execution of ``stage``."""
        self._samples.setdefault(stage, []).append(
            StageSample(seconds=float(seconds), sample_count=int(sample_count)))

    def stages(self) -> list[str]:
        """Stage names in first-recorded order."""
        return list(self._samples)

    def runs(self, stage: str) -> int:
        """How many times ``stage`` was executed."""
        return len(self._samples.get(stage, ()))

    def total_seconds(self, stage: str) -> float:
        """Accumulated wall time spent in ``stage``."""
        return sum(s.seconds for s in self._samples.get(stage, ()))

    def total_samples(self, stage: str) -> int:
        """Accumulated sample count processed by ``stage``."""
        return sum(s.sample_count for s in self._samples.get(stage, ()))

    def timing(self, stage: str) -> Measurement:
        """Wall-time distribution of one stage as ``mean ± std``."""
        samples = self._samples.get(stage)
        if not samples:
            raise ConfigurationError(f"no samples recorded for stage {stage!r}")
        return mean_std([s.seconds for s in samples])

    def summary(self) -> dict[str, Measurement]:
        """Per-stage timing measurements keyed by stage name."""
        return {stage: self.timing(stage) for stage in self._samples}

    def to_dict(self) -> dict[str, dict[str, float]]:
        """JSON-ready per-stage timing, in first-recorded order.

        The one per-stage timing document: ``runs``, ``samples``,
        ``total_seconds``, ``mean_seconds`` and ``std_seconds`` per
        stage.  It is the ``stages`` rollup section and
        ``audit-batch --json``'s ``stage_timing``.
        """
        out = {}
        for stage in self._samples:
            timing = self.timing(stage)
            out[stage] = {"runs": self.runs(stage),
                          "samples": self.total_samples(stage),
                          "total_seconds": self.total_seconds(stage),
                          "mean_seconds": timing.mean,
                          "std_seconds": timing.std}
        return out

    def format(self, digits: int = 6) -> str:
        """A human-readable per-stage table (seconds)."""
        lines = []
        for stage in self._samples:
            m = self.timing(stage)
            lines.append(
                f"{stage:<12} runs={self.runs(stage):<5d} "
                f"samples={self.total_samples(stage):<7d} "
                f"total={self.total_seconds(stage):.{digits}f}s "
                f"per-run={m.format(digits)}s")
        return "\n".join(lines)

    def __iter__(self) -> Iterable[str]:
        return iter(self._samples)

    def __len__(self) -> int:
        return len(self._samples)
