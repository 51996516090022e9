"""The alibi sufficiency predicate — paper equation (1).

An alibi ``{S_0, ..., S_n}`` is *sufficient* against a zone set ``Z`` when
for every consecutive pair the possible-traveling-range ellipse intersects
no zone: ``E(S_i, S_{i+1}) ∩ (∪ z) = ∅``.  Insufficiency does not prove a
violation — it means the samples cannot *rule one out*, and under the
paper's burden-of-proof model that is enough for the Auditor to act.

Two predicates are exposed via ``method``:

* ``"conservative"`` (default, the paper's): a pair clears zone ``z`` when
  ``D1 + D2 > v_max * dt`` with ``D_i`` the focus-to-boundary distance —
  exactly the quantity in the adaptive-sampling conditions and in the
  §VI-A3 insufficiency counter.
* ``"exact"``: true geometric ellipse/disk disjointness.

Conservative is sound (never passes a pair exact would fail) but may flag
pairs exact would clear; the ablation benchmark quantifies the gap.

On the auditor side, and in the operator's selective disclosure, eq. (1)
is evaluated only through this module: the pipeline's sufficiency and
disclosure stages and the disclosure repair loop call
:func:`insufficient_pairs`, and both incident adjudicators (the server's
and the §VII-B3 private one) call :func:`bracketing_pair_clears`.
"""

from __future__ import annotations

from typing import Iterable, Literal, Sequence

from repro.core.nfz import NoFlyZone
from repro.core.samples import GpsSample
from repro.errors import ConfigurationError, GeometryError
from repro.geo.circle import Circle
from repro.geo.ellipse import (
    _EPS,
    TravelRangeEllipse,
    ellipse_disk_disjoint_conservative,
    ellipse_disk_disjoint_exact,
)
from repro.geo.geodesy import LocalFrame
from repro.geo.proximity import ZoneProximityIndex
from repro.units import FAA_MAX_SPEED_MPS

Method = Literal["conservative", "exact"]

#: Below this zone count the brute-force scan beats building an index for
#: a single flight; the batch engine pre-seeds a shared index instead.
ZONE_INDEX_MIN_ZONES = 8


def _zone_circles(zones: Iterable[NoFlyZone], frame: LocalFrame) -> list[Circle]:
    return [zone.to_circle(frame) for zone in zones]


def travel_ellipse(s1: GpsSample, s2: GpsSample, frame: LocalFrame,
                   vmax_mps: float = FAA_MAX_SPEED_MPS) -> TravelRangeEllipse:
    """The possible-traveling-range ellipse for a sample pair."""
    if s2.t < s1.t:
        raise ConfigurationError("sample pair out of order")
    return TravelRangeEllipse(f1=s1.local_position(frame),
                              f2=s2.local_position(frame),
                              focal_sum=vmax_mps * (s2.t - s1.t))


def pair_is_sufficient(s1: GpsSample, s2: GpsSample,
                       zones: Sequence[NoFlyZone], frame: LocalFrame,
                       vmax_mps: float = FAA_MAX_SPEED_MPS,
                       method: Method = "conservative") -> bool:
    """Whether the pair proves non-entrance for *every* zone."""
    ellipse = travel_ellipse(s1, s2, frame, vmax_mps)
    disjoint = _disjoint_predicate(method)
    return all(disjoint(ellipse, circle) for circle in _zone_circles(zones, frame))


def _disjoint_predicate(method: Method):
    if method == "conservative":
        return ellipse_disk_disjoint_conservative
    if method == "exact":
        return ellipse_disk_disjoint_exact
    raise ConfigurationError(f"unknown sufficiency method: {method!r}")


def insufficient_pairs_projected(positions: Sequence[tuple[float, float]],
                                 times: Sequence[float],
                                 circles: Sequence[Circle],
                                 vmax_mps: float = FAA_MAX_SPEED_MPS,
                                 method: Method = "conservative") -> list[int]:
    """:func:`insufficient_pair_indices` over already-projected inputs.

    The staged verification pipeline and the batch audit engine memoize
    local-frame projections and zone circles across samples, submissions,
    and stages; this entry point lets them reuse those caches while
    producing float-identical results to the sample-level API (the
    projection is deterministic).
    """
    disjoint = _disjoint_predicate(method)
    failures = []
    for i in range(len(positions) - 1):
        ellipse = TravelRangeEllipse(
            f1=positions[i], f2=positions[i + 1],
            focal_sum=vmax_mps * (times[i + 1] - times[i]))
        if not all(disjoint(ellipse, circle) for circle in circles):
            failures.append(i)
    return failures


def insufficient_pairs_indexed(positions: Sequence[tuple[float, float]],
                               times: Sequence[float],
                               index: ZoneProximityIndex,
                               vmax_mps: float = FAA_MAX_SPEED_MPS,
                               method: Method = "conservative") -> list[int]:
    """:func:`insufficient_pairs_projected` through a proximity index.

    Produces the identical failure list (both methods) without scanning
    every zone per pair:

    * ``"conservative"`` fails a pair exactly when
      ``min_z (D1 + D2) <= focal_sum + eps``, which is precisely the
      index's :meth:`~repro.geo.proximity.ZoneProximityIndex.min_pair_distance`
      with ``cutoff_m`` at the predicate threshold — results at or below
      the cutoff are bit-identical to the brute-force minimum, and results
      above it decide the predicate the same way.
    * ``"exact"`` evaluates the true ellipse/disk test, but only over
      :meth:`~repro.geo.proximity.ZoneProximityIndex.pair_candidates` —
      sound because ``D1 + D2`` lower-bounds the minimal focal sum over a
      disk, so every zone the exact predicate could fail is a candidate.
    """
    if method not in ("conservative", "exact"):
        raise ConfigurationError(f"unknown sufficiency method: {method!r}")
    failures = []
    for i in range(len(positions) - 1):
        focal_sum = vmax_mps * (times[i + 1] - times[i])
        if focal_sum < 0:
            # Same failure the ellipse constructor raises on the scan path.
            raise GeometryError("focal_sum must be non-negative")
        a, b = positions[i], positions[i + 1]
        threshold = focal_sum + _EPS
        if method == "conservative":
            minimum = index.min_pair_distance(a, b, cutoff_m=threshold)
            if minimum is not None and minimum <= threshold:
                failures.append(i)
        else:
            candidates = index.pair_candidates(a, b, threshold)
            if candidates:
                ellipse = TravelRangeEllipse(f1=a, f2=b, focal_sum=focal_sum)
                if not all(ellipse_disk_disjoint_exact(ellipse,
                                                       index.circles[j])
                           for j in candidates):
                    failures.append(i)
    return failures


def insufficient_pairs(positions: Sequence[tuple[float, float]],
                       times: Sequence[float], circles: Sequence[Circle],
                       index: ZoneProximityIndex | None,
                       vmax_mps: float = FAA_MAX_SPEED_MPS,
                       method: Method = "conservative") -> list[int]:
    """Eq. (1) over projected inputs: through ``index`` when there is one.

    Without an index the pairs are scanned against ``circles``; both paths
    fail exactly the same pairs.
    """
    if index is not None:
        return insufficient_pairs_indexed(positions, times, index, vmax_mps,
                                          method)
    return insufficient_pairs_projected(positions, times, circles, vmax_mps,
                                        method)


def bracketing_pair_clears(samples: Sequence[GpsSample], zone: NoFlyZone,
                           instant: float, frame: LocalFrame,
                           vmax_mps: float = FAA_MAX_SPEED_MPS,
                           method: Method = "conservative") -> bool:
    """§IV-C2 adjudication: whether the pair bracketing ``instant`` clears.

    The first consecutive pair with ``a.t <= instant <= b.t`` decides.
    When no pair brackets the instant the samples prove nothing about it,
    and under the burden-of-proof model the answer is False.
    """
    for a, b in zip(samples, samples[1:]):
        if a.t <= instant <= b.t:
            return pair_is_sufficient(a, b, [zone], frame, vmax_mps, method)
    return False


def insufficient_pair_indices(samples: Sequence[GpsSample],
                              zones: Sequence[NoFlyZone], frame: LocalFrame,
                              vmax_mps: float = FAA_MAX_SPEED_MPS,
                              method: Method = "conservative") -> list[int]:
    """Indices ``i`` whose pair ``(S_i, S_{i+1})`` fails sufficiency.

    Zone circles are projected once; with the conservative method each pair
    costs two distance evaluations per zone.
    """
    return insufficient_pairs_projected(
        [s.local_position(frame) for s in samples], [s.t for s in samples],
        _zone_circles(zones, frame), vmax_mps, method)


def alibi_is_sufficient(samples: Sequence[GpsSample],
                        zones: Sequence[NoFlyZone], frame: LocalFrame,
                        vmax_mps: float = FAA_MAX_SPEED_MPS,
                        method: Method = "conservative") -> bool:
    """Equation (1): every consecutive pair clears every zone.

    A trace with fewer than two samples carries no alibi information and is
    treated as sufficient only when there are no zones at all.
    """
    if len(samples) < 2:
        return not zones
    return not insufficient_pair_indices(samples, zones, frame, vmax_mps, method)


def count_insufficient_pairs(samples: Sequence[GpsSample],
                             zones: Sequence[NoFlyZone], frame: LocalFrame,
                             vmax_mps: float = FAA_MAX_SPEED_MPS) -> int:
    """The §VI-A3 field-study metric.

    ``count += 1`` for each pair with
    ``min_j (d_{i,j} + d_{i+1,j}) < v_max * (t_{i+1} - t_i)`` where ``d``
    is the distance to the zone boundary — i.e. the conservative predicate
    restricted to the nearest zone, which for the conservative form is
    equivalent to checking all zones.
    """
    return len(insufficient_pair_indices(samples, zones, frame, vmax_mps,
                                         method="conservative"))


def cumulative_insufficiency_series(samples: Sequence[GpsSample],
                                    zones: Sequence[NoFlyZone],
                                    frame: LocalFrame,
                                    vmax_mps: float = FAA_MAX_SPEED_MPS,
                                    ) -> list[tuple[float, int]]:
    """Fig. 8(c)'s series: ``(t, cumulative insufficient-pair count)``.

    Each pair is attributed to the timestamp of its later sample.
    """
    failures = set(insufficient_pair_indices(samples, zones, frame, vmax_mps))
    series = []
    count = 0
    for i in range(len(samples) - 1):
        if i in failures:
            count += 1
        series.append((samples[i + 1].t, count))
    return series
