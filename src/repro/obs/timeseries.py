"""Bounded sketches and sliding-window instruments for long runs.

Lifetime accumulators answer "what happened since process start"; a
fleet auditor that absorbs submissions for hours needs "what is
happening *now*" without retaining every raw observation.  This module
provides the two primitives that make that possible:

* :class:`QuantileSketch` — a DDSketch-style log-bucketed quantile
  estimator.  Memory is O(bins) regardless of how many values are
  observed, and every quantile estimate is within a documented
  *relative* error bound ``alpha`` of the exact quantile (see the class
  docstring for the precise guarantee).  Sketches merge, so windowed
  quantiles are just merged ring slots.
* :class:`WindowedCounter` / :class:`WindowedRate` /
  :class:`WindowedSketch` — ring buffers of fixed-width time buckets
  driven by an external clock (the sim clock in tests and harnesses,
  wall time on a live dashboard).  ``total``/``rate``/``quantile`` are
  answered over the trailing window at any instant of a run.

Time semantics (shared by all ring instruments):

* A bucket of width ``w`` covers the half-open interval
  ``[k*w, (k+1)*w)``; an observation stamped exactly on a boundary
  belongs to the *new* bucket.
* A window query at time ``t`` covers the current (partial) bucket plus
  the ``buckets - 1`` buckets before it: an observation at time ``t0``
  has expired from a query at ``t`` once ``t - t0 >= window_s`` (up to
  bucket granularity).
* Clocks never run the ring backwards.  An observation or query stamped
  *earlier* than the newest time already seen is treated as happening at
  that newest time (skewed producers cannot resurrect expired buckets or
  crash the ring); the sim clock itself is monotone, so this only
  matters when fault plans inject clock skew.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

from repro.errors import ConfigurationError

#: Default relative-error target for sketches (1%).
DEFAULT_SKETCH_ALPHA = 0.01
#: Default bucket-count bound for sketches.  With ``alpha=0.01`` the
#: bucket base is ~1.02, so 2048 bins span ~18 orders of magnitude —
#: far more dynamic range than any latency/rate series here needs.
DEFAULT_SKETCH_MAX_BINS = 2048
#: Values with magnitude at or below this collapse into the zero bucket
#: (their estimate is 0.0; the relative-error bound applies above it).
DEFAULT_SKETCH_MIN_VALUE = 1e-9

#: Default sliding window: 60 virtual seconds in 12 five-second buckets.
DEFAULT_WINDOW_S = 60.0
DEFAULT_WINDOW_BUCKETS = 12


class QuantileSketch:
    """A bounded-memory quantile estimator with a relative error bound.

    DDSketch-style log-bucketing: a value ``x`` with ``|x| > min_value``
    lands in bucket ``ceil(log_gamma |x|)`` where
    ``gamma = (1 + alpha) / (1 - alpha)``; the bucket's representative
    value is ``2 * gamma**k / (gamma + 1)``, which is within ``alpha``
    relative error of every value the bucket covers.  Negative values
    get a mirrored bucket store; ``|x| <= min_value`` counts into a zero
    bucket estimated as ``0.0``.

    **Guarantee** — for any quantile ``q``, as long as the bucket bound
    has not forced a collapse (see below),
    ``|quantile(q) - exact_q| <= alpha * |exact_q|`` whenever the exact
    quantile's magnitude exceeds ``min_value``.

    **Memory** — O(bins): at most ``max_bins`` buckets are retained.
    When a new bucket would exceed the bound, the two buckets closest to
    zero are merged, degrading accuracy only for the smallest-magnitude
    tail (DDSketch's collapse rule).  ``count``/``sum``/``min``/``max``
    stay exact regardless.

    Sketches with the same ``alpha`` merge via :meth:`merge`, which is
    what the windowed variant uses to answer trailing-window quantiles.
    """

    kind = "sketch"

    def __init__(self, alpha: float = DEFAULT_SKETCH_ALPHA,
                 max_bins: int = DEFAULT_SKETCH_MAX_BINS,
                 min_value: float = DEFAULT_SKETCH_MIN_VALUE):
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(
                f"sketch alpha must be in (0, 1), got {alpha}")
        if max_bins < 2:
            raise ConfigurationError("sketch max_bins must be >= 2")
        if min_value <= 0.0:
            raise ConfigurationError("sketch min_value must be > 0")
        self.alpha = float(alpha)
        self.max_bins = int(max_bins)
        self.min_value = float(min_value)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)
        self._positive: dict[int, int] = {}
        self._negative: dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    # --- recording ----------------------------------------------------------

    def _key(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _bucket_value(self, key: int) -> float:
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def _collapse(self, store: dict[int, int]) -> None:
        # Merge the two buckets closest to zero (the smallest magnitudes)
        # so the bound degrades the least-interesting tail first.
        low, second = sorted(store)[:2]
        store[second] += store.pop(low)

    def observe(self, value: float) -> None:
        """Record one observation in O(1)."""
        value = float(value)
        if math.isnan(value):
            raise ConfigurationError("cannot observe NaN")
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        magnitude = abs(value)
        if magnitude <= self.min_value:
            self._zero += 1
            return
        store = self._positive if value > 0 else self._negative
        key = self._key(magnitude)
        store[key] = store.get(key, 0) + 1
        if len(self._positive) + len(self._negative) > self.max_bins:
            self._collapse(store if len(store) >= 2
                           else (self._positive if self._positive
                                 else self._negative))

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (same ``alpha`` required)."""
        if not isinstance(other, QuantileSketch):
            raise ConfigurationError("can only merge another QuantileSketch")
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ConfigurationError(
                f"cannot merge sketches with different alpha "
                f"({self.alpha} vs {other.alpha})")
        for key, n in other._positive.items():
            self._positive[key] = self._positive.get(key, 0) + n
        for key, n in other._negative.items():
            self._negative[key] = self._negative.get(key, 0) + n
        self._zero += other._zero
        self.count += other.count
        self.sum += other.sum
        for bound in (other.min, other.max):
            if bound is not None:
                self.min = bound if self.min is None else min(self.min, bound)
                self.max = bound if self.max is None else max(self.max, bound)
        while len(self._positive) + len(self._negative) > self.max_bins:
            self._collapse(self._positive if len(self._positive) >= 2
                           else self._negative)

    # --- queries ------------------------------------------------------------

    @property
    def bins(self) -> int:
        """Buckets currently held (the memory bound in action)."""
        return (len(self._positive) + len(self._negative)
                + (1 if self._zero else 0))

    def _ascending(self) -> Iterator[tuple[float, int]]:
        """(representative value, count) pairs in ascending value order."""
        for key in sorted(self._negative, reverse=True):
            yield -self._bucket_value(key), self._negative[key]
        if self._zero:
            yield 0.0, self._zero
        for key in sorted(self._positive):
            yield self._bucket_value(key), self._positive[key]

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (see the class error bound)."""
        if self.count == 0:
            raise ConfigurationError(
                "cannot take a quantile of an empty sketch")
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        rank = q * (self.count - 1)
        seen = 0
        value = 0.0
        for value, n in self._ascending():
            seen += n
            if seen > rank:
                break
        # Clamp to the exact extremes so q=0/q=1 are exact and no
        # estimate ever falls outside the observed range.
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    @property
    def mean(self) -> float:
        """Exact mean of everything observed."""
        if self.count == 0:
            raise ConfigurationError("empty sketch has no mean")
        return self.sum / self.count

    def summary(self) -> dict[str, Any]:
        """A JSON-ready quantile summary (``{"count": 0}`` when empty)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _Ring:
    """Shared bucket-advance machinery for the windowed instruments."""

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 buckets: int = DEFAULT_WINDOW_BUCKETS):
        if window_s <= 0.0:
            raise ConfigurationError(f"window_s must be > 0, got {window_s}")
        if buckets < 1:
            raise ConfigurationError(f"buckets must be >= 1, got {buckets}")
        self.window_s = float(window_s)
        self.buckets = int(buckets)
        self.bucket_width_s = self.window_s / self.buckets
        #: Absolute index of the bucket the newest time seen falls in;
        #: None until the first advance.
        self._head: int | None = None
        self._last_now: float | None = None

    def _clamp(self, now: float) -> float:
        # Backwards time never rewinds the ring (see module docstring).
        if self._last_now is not None and now < self._last_now:
            return self._last_now
        self._last_now = float(now)
        return self._last_now

    def _advance(self, now: float) -> int:
        """Move the head to ``now``'s bucket; returns steps advanced."""
        now = self._clamp(now)
        index = math.floor(now / self.bucket_width_s)
        if self._head is None:
            self._head = index
            return self.buckets  # everything starts empty
        steps = index - self._head
        if steps > 0:
            self._head = index
        return max(steps, 0)

    @property
    def last_seen(self) -> float | None:
        """The newest time this instrument has been driven to."""
        return self._last_now


class WindowedCounter(_Ring):
    """Event counts over a trailing window, plus an exact lifetime total.

    ``inc`` lands in the current time bucket; ``total``/``rate`` answer
    over the trailing window, and :attr:`cumulative` never expires (it
    is what latching alert rules such as ``false_accept > 0`` watch).
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 buckets: int = DEFAULT_WINDOW_BUCKETS):
        super().__init__(window_s, buckets)
        self._slots = [0.0] * self.buckets
        self.cumulative = 0.0

    def _roll(self, now: float) -> None:
        steps = self._advance(now)
        if steps >= self.buckets:
            self._slots = [0.0] * self.buckets
            return
        head = self._head
        for i in range(steps):
            self._slots[(head - i) % self.buckets] = 0.0

    def inc(self, amount: float = 1.0, *, now: float) -> None:
        """Count ``amount`` events at virtual time ``now``."""
        if amount < 0:
            raise ConfigurationError(
                f"windowed counter cannot decrease (inc {amount})")
        self._roll(now)
        self._slots[self._head % self.buckets] += amount
        self.cumulative += amount

    def total(self, now: float) -> float:
        """Events inside the trailing window as of ``now``."""
        self._roll(now)
        return sum(self._slots)

    def rate(self, now: float) -> float:
        """Events per second over the trailing window as of ``now``."""
        return self.total(now) / self.window_s


class WindowedRate(WindowedCounter):
    """A :class:`WindowedCounter` read as a rate (``mark`` + ``rate``)."""

    def mark(self, *, now: float, amount: float = 1.0) -> None:
        """Record ``amount`` occurrences at ``now``."""
        self.inc(amount, now=now)


class WindowedSketch(_Ring):
    """Trailing-window quantiles: a ring of :class:`QuantileSketch` slots.

    Each bucket owns a sketch; window queries merge the live slots into
    a scratch sketch, so a query costs O(buckets x bins) and recording
    stays O(1).  An empty window has no quantiles: :meth:`quantile`
    returns ``None`` and :meth:`summary` reports ``{"count": 0}`` (a
    quiet window is normal operation, not an error).
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 buckets: int = DEFAULT_WINDOW_BUCKETS,
                 alpha: float = DEFAULT_SKETCH_ALPHA,
                 max_bins: int = DEFAULT_SKETCH_MAX_BINS):
        super().__init__(window_s, buckets)
        self.alpha = float(alpha)
        self.max_bins = int(max_bins)
        self._slots: list[QuantileSketch | None] = [None] * self.buckets

    def _roll(self, now: float) -> None:
        steps = self._advance(now)
        if steps >= self.buckets:
            self._slots = [None] * self.buckets
            return
        head = self._head
        for i in range(steps):
            self._slots[(head - i) % self.buckets] = None

    def observe(self, value: float, *, now: float) -> None:
        """Record one observation at virtual time ``now``."""
        self._roll(now)
        slot = self._head % self.buckets
        sketch = self._slots[slot]
        if sketch is None:
            sketch = QuantileSketch(self.alpha, self.max_bins)
            self._slots[slot] = sketch
        sketch.observe(value)

    def merged(self, now: float) -> QuantileSketch:
        """All live slots merged into one sketch (may be empty)."""
        self._roll(now)
        merged = QuantileSketch(self.alpha, self.max_bins)
        for sketch in self._slots:
            if sketch is not None:
                merged.merge(sketch)
        return merged

    def quantile(self, q: float, *, now: float) -> float | None:
        """Windowed quantile estimate, or ``None`` for an empty window."""
        merged = self.merged(now)
        if merged.count == 0:
            return None
        return merged.quantile(q)

    def summary(self, now: float) -> dict[str, Any]:
        """Windowed :meth:`QuantileSketch.summary`."""
        return self.merged(now).summary()
