"""Zone-proximity queries at national NFZ scale.

The adaptive sampler (Algorithm 1, paper §IV-C3) and the Auditor's
sufficiency check both reduce to "how close is the current fix pair to the
*nearest* NFZ boundary" — historically an O(Z) scan over every zone per
GPS fix / per sample pair.  That is fine for the field studies' 1–94
zones, but a nationwide Remote-ID-style deployment carries 10^3–10^5
zones, at which point the zone scan (not RSA) dominates both the
drone-side sampling loop and server-side audit throughput.

:class:`ZoneProximityIndex` projects each zone's circle into the local
frame **once**, stores it in a :class:`~repro.geo.spatial_index.GridIndex`,
and answers the three hot queries via expanding-ring search with
lower-bound pruning:

* :meth:`nearest_boundary` — ``FindNearestZone``: the zone whose boundary
  is nearest a point;
* :meth:`min_pair_distance` — ``min over zones of (D1 + D2)`` for a fix
  pair, the exact quantity in sampling conditions (2)/(3) and in the
  conservative sufficiency predicate;
* :meth:`candidates_within` / :meth:`pair_candidates` / :meth:`k_nearest`
  — candidate enumeration for the exact geometric predicates.

Every query supports a ``cutoff_m``: the search stops expanding as soon
as the ring lower bound proves the true answer exceeds the cutoff, which
is how the sampler early-exits once no zone can be within the decision
threshold ``v_max * (dt + margin)``.  **Cutoff contract:** a returned
distance ``<= cutoff_m`` is the exact minimum (bit-identical to the
brute-force scan, because the same ``Circle.distance_to_boundary`` sums
are minimized over a provably-superset candidate set); a returned
distance ``> cutoff_m`` only certifies the predicate "true minimum >
cutoff_m" — callers must not use the magnitude for anything but that
comparison.

Counters land in a :class:`ZoneIndexStats` so the telemetry layer
(:mod:`repro.obs`) can show the pruning working: queries answered,
candidate circles actually evaluated, rings expanded, cutoff early exits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.geo.circle import Circle
from repro.geo.geodesy import LocalFrame
from repro.geo.spatial_index import GridIndex

Point = tuple[float, float]

#: Cell-size floor; also the cell size of an empty index.
_MIN_CELL_M = 1.0
_DEFAULT_EMPTY_CELL_M = 100.0


@dataclass
class ZoneIndexStats:
    """Pruning-effectiveness counters for one (or many shared) indexes.

    Attributes:
        queries: proximity queries answered.
        candidates: circles whose distance was actually evaluated — the
            brute-force scan would have evaluated ``queries * len(index)``.
        rings: grid rings expanded across all queries.
        cutoff_exits: queries that stopped early because the ring lower
            bound proved the answer exceeds the caller's ``cutoff_m``.
    """

    queries: int = 0
    candidates: int = 0
    rings: int = 0
    cutoff_exits: int = 0

    @property
    def mean_candidates_per_query(self) -> float:
        """Average circles evaluated per query (0 when unused)."""
        return self.candidates / self.queries if self.queries else 0.0

    @property
    def mean_rings_per_query(self) -> float:
        """Average rings expanded per query (0 when unused)."""
        return self.rings / self.queries if self.queries else 0.0

    def to_dict(self) -> dict:
        """JSON-ready counters plus the per-query means."""
        return {"queries": self.queries, "candidates": self.candidates,
                "rings": self.rings, "cutoff_exits": self.cutoff_exits,
                "mean_candidates_per_query": self.mean_candidates_per_query,
                "mean_rings_per_query": self.mean_rings_per_query}


def _auto_cell_size(circles: Sequence[Circle]) -> float:
    """A grid cell edge matched to the zone layout.

    Aims for ~1 entry per cell over the populated extent while keeping
    cells no smaller than a typical zone diameter, so one circle does not
    fan out across many cells.
    """
    if not circles:
        return _DEFAULT_EMPTY_CELL_M
    span_x = (max(c.x + c.r for c in circles)
              - min(c.x - c.r for c in circles))
    span_y = (max(c.y + c.r for c in circles)
              - min(c.y - c.r for c in circles))
    span = max(span_x, span_y, _MIN_CELL_M)
    mean_diameter = 2.0 * sum(c.r for c in circles) / len(circles)
    return max(span / math.sqrt(len(circles)), mean_diameter, _MIN_CELL_M)


class ZoneProximityIndex:
    """Nearest-boundary and candidate queries over a projected zone set.

    Zones are projected into ``frame`` exactly once at construction (via
    the cached :meth:`repro.core.nfz.NoFlyZone.to_circle`); all queries
    then run against planar circles.  The circle list is exposed as
    :attr:`circles` in zone order so callers that still need the full
    projection (e.g. the verification pipeline's ``zone_circles`` cache)
    share it instead of re-projecting.

    Args:
        zones: the NFZ set (anything with ``to_circle(frame)``).
        frame: local planar frame the queries are expressed in.
        cell_size: grid cell edge in metres; auto-sized from the layout
            when omitted.
        stats: an optional shared :class:`ZoneIndexStats` (the audit
            engine passes one accumulator across batches).
    """

    def __init__(self, zones: Sequence, frame: LocalFrame,
                 cell_size: float | None = None,
                 stats: ZoneIndexStats | None = None):
        self.zones = list(zones)
        self.frame = frame
        circles = [zone.to_circle(frame) for zone in self.zones]
        self._init_from_circles(circles, cell_size, stats)

    @classmethod
    def from_circles(cls, circles: Sequence[Circle],
                     cell_size: float | None = None,
                     stats: ZoneIndexStats | None = None,
                     ) -> "ZoneProximityIndex":
        """Build directly from already-projected circles (no frame)."""
        index = cls.__new__(cls)
        index.zones = []
        index.frame = None
        index._init_from_circles(list(circles), cell_size, stats)
        return index

    def _init_from_circles(self, circles: list[Circle],
                           cell_size: float | None,
                           stats: ZoneIndexStats | None) -> None:
        self.circles = circles
        self.cell_size = (float(cell_size) if cell_size is not None
                          else _auto_cell_size(circles))
        self.stats = stats if stats is not None else ZoneIndexStats()
        self._grid: GridIndex[int] = GridIndex(self.cell_size)
        for i, circle in enumerate(circles):
            self._grid.insert(i, circle)

    def __len__(self) -> int:
        return len(self.circles)

    # --- point queries ------------------------------------------------------

    def nearest_boundary(self, point: Point,
                         cutoff_m: float | None = None,
                         ) -> tuple[int, float] | None:
        """``FindNearestZone``: ``(zone_index, signed_boundary_distance)``.

        Returns None when the index is empty.  Ties are broken toward the
        smallest zone index.  With ``cutoff_m``, the search may stop once
        the true minimum provably exceeds the cutoff; the returned
        distance is then only guaranteed to be ``> cutoff_m`` (see the
        module docstring's cutoff contract); if the cutoff pruned the
        search before any circle was evaluated, the sentinel
        ``(-1, math.inf)`` is returned.
        """
        if not self.circles:
            return None
        stats = self.stats
        stats.queries += 1
        best_index = -1
        best_dist = math.inf
        for ring, keys in self._grid.ring_candidates(point):
            lower = self._grid.ring_lower_bound(ring)
            if best_dist < lower:
                break
            # Ring 0 must always be scanned: circles *containing* the
            # point (negative distance) all register in the point's own
            # cell, so the lower bound only certifies rings >= 1.
            if (cutoff_m is not None and ring and best_dist > cutoff_m
                    and lower > cutoff_m):
                stats.cutoff_exits += 1
                break
            stats.rings += 1
            stats.candidates += len(keys)
            for i in keys:
                dist = self.circles[i].distance_to_boundary(point)
                if dist < best_dist or (dist == best_dist and i < best_index):
                    best_index, best_dist = i, dist
        return best_index, best_dist

    def k_nearest(self, point: Point, k: int) -> list[tuple[int, float]]:
        """The ``k`` zones of nearest boundary, ascending ``(dist, index)``."""
        if k <= 0 or not self.circles:
            return []
        stats = self.stats
        stats.queries += 1
        best: list[tuple[float, int]] = []
        for ring, keys in self._grid.ring_candidates(point):
            if len(best) >= k and best[-1][0] < self._grid.ring_lower_bound(ring):
                break
            stats.rings += 1
            stats.candidates += len(keys)
            for i in keys:
                best.append((self.circles[i].distance_to_boundary(point), i))
            best.sort()
            del best[k:]
        return [(i, dist) for dist, i in best]

    def candidates_within(self, point: Point, radius_m: float) -> list[int]:
        """Indices of zones whose boundary is within ``radius_m`` of ``point``.

        Membership uses ``distance_to_boundary(point) <= radius_m`` (signed,
        so zones containing the point always qualify).  Ascending index
        order, identical to the brute-force filter.
        """
        if not self.circles:
            return []
        stats = self.stats
        stats.queries += 1
        hits: list[int] = []
        for ring, keys in self._grid.ring_candidates(point):
            # Ring 0 always scans (containing circles have negative
            # distance below any lower bound); rings >= 1 prune normally.
            if ring and self._grid.ring_lower_bound(ring) > radius_m:
                break
            stats.rings += 1
            stats.candidates += len(keys)
            hits.extend(i for i in keys
                        if self.circles[i].distance_to_boundary(point)
                        <= radius_m)
        return sorted(hits)

    # --- pair queries (the sampling / sufficiency hot path) -----------------

    def min_pair_distance(self, a: Point, b: Point,
                          cutoff_m: float | None = None) -> float | None:
        """``min over zones of (D1 + D2)`` for the fix pair ``(a, b)``.

        ``D_i`` is the signed boundary distance from fix ``i`` — exactly
        the quantity in sampling conditions (2)/(3) and the conservative
        sufficiency predicate.  Expands rings around the pair midpoint: a
        zone first seen at ring ``r`` has
        ``D1 + D2 >= 2 * (|m - c| - r_z) >= 2 * ring_lower_bound(r)``, so
        the search stops as soon as the best sum beats the next ring's
        bound.  Results at or below ``cutoff_m`` are bit-identical to the
        brute-force ``min`` (same float expressions, provably-superset
        candidate set); above the cutoff only the ``> cutoff_m`` predicate
        is guaranteed.  Returns None when the index is empty.
        """
        if not self.circles:
            return None
        stats = self.stats
        stats.queries += 1
        midpoint = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        best = math.inf
        for ring, keys in self._grid.ring_candidates(midpoint):
            lower = 2.0 * self._grid.ring_lower_bound(ring)
            if best < lower:
                break
            # Negative pair sums require the midpoint inside the zone,
            # which pins the zone to ring 0 — so ring 0 always scans.
            if (cutoff_m is not None and ring and best > cutoff_m
                    and lower > cutoff_m):
                stats.cutoff_exits += 1
                break
            stats.rings += 1
            stats.candidates += len(keys)
            for i in keys:
                circle = self.circles[i]
                pair_sum = (circle.distance_to_boundary(a)
                            + circle.distance_to_boundary(b))
                if pair_sum < best:
                    best = pair_sum
        return best

    def pair_candidates(self, a: Point, b: Point, max_sum: float) -> list[int]:
        """Indices of zones with ``D1 + D2 <= max_sum``, ascending.

        The candidate set the *exact* sufficiency predicate must test: any
        zone whose travel ellipse could intersect fails the conservative
        bound first, and the conservative bound is exactly this sum.
        """
        if not self.circles:
            return []
        stats = self.stats
        stats.queries += 1
        midpoint = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        hits: list[int] = []
        for ring, keys in self._grid.ring_candidates(midpoint):
            if ring and 2.0 * self._grid.ring_lower_bound(ring) > max_sum:
                break
            stats.rings += 1
            stats.candidates += len(keys)
            for i in keys:
                circle = self.circles[i]
                if (circle.distance_to_boundary(a)
                        + circle.distance_to_boundary(b)) <= max_sum:
                    hits.append(i)
        return sorted(hits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ZoneProximityIndex zones={len(self.circles)} "
                f"cell={self.cell_size:.1f}m>")
