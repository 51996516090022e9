"""Circles in the local planar frame, plus Welzl's smallest enclosing circle.

Circular shapes model no-fly-zones (paper §III-A).  The smallest enclosing
circle supports the arbitrary-polygon NFZ extension (§VII-B2), where the
Auditor replaces an n-vertex polygon by the minimal circle covering its
vertices; the paper cites Megiddo's linear-time construction, and we use
Welzl's randomized algorithm which has the same expected linear bound and a
far simpler implementation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from repro.errors import GeometryError

Point = tuple[float, float]

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class Circle:
    """A circle (disk) in the local planar frame, metres."""

    x: float
    y: float
    r: float

    def __post_init__(self) -> None:
        if self.r < 0:
            raise GeometryError(f"circle radius must be non-negative, got {self.r}")

    @property
    def center(self) -> Point:
        """Centre as an ``(x, y)`` tuple."""
        return (self.x, self.y)

    def contains(self, point: Point, tol: float = _EPS) -> bool:
        """Whether ``point`` lies inside or on the circle (within ``tol``)."""
        return math.hypot(point[0] - self.x, point[1] - self.y) <= self.r + tol

    def distance_to_center(self, point: Point) -> float:
        """Euclidean distance from ``point`` to the circle centre."""
        return math.hypot(point[0] - self.x, point[1] - self.y)

    def distance_to_boundary(self, point: Point) -> float:
        """Signed distance from ``point`` to the circle boundary.

        Positive outside the circle, negative inside.  This is the ``D_i``
        of the adaptive sampling conditions (paper eq. 2/3).
        """
        return self.distance_to_center(point) - self.r

    def intersects_circle(self, other: "Circle") -> bool:
        """Whether the two closed disks share at least one point."""
        d = math.hypot(other.x - self.x, other.y - self.y)
        return d <= self.r + other.r + _EPS

    def intersects_segment(self, a: Point, b: Point) -> bool:
        """Whether the closed disk intersects the closed segment ``ab``."""
        return _point_segment_distance(self.center, a, b) <= self.r + _EPS


def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Distance from point ``p`` to the closed segment ``ab``."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq <= _EPS * _EPS:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _circle_from_two(a: Point, b: Point) -> Circle:
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = math.hypot(a[0] - b[0], a[1] - b[1]) / 2.0
    return Circle(cx, cy, r)


def _circle_from_three(a: Point, b: Point, c: Point) -> Circle | None:
    """Circumcircle of three points, or None if they are collinear."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) <= _EPS:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    return Circle(ux, uy, r)


def _circle_through(p: Point, q: Point, s: Point) -> Circle:
    """The smallest circle with ``p``, ``q`` and ``s`` all on its boundary.

    That is the circumcircle; for collinear points no circle passes through
    all three, and the circle on the two extreme points encloses them.
    """
    circ = _circle_from_three(p, q, s)
    if circ is None:
        pts = sorted((p, q, s))
        return _circle_from_two(pts[0], pts[-1])
    return circ


def smallest_enclosing_circle(points: Iterable[Point], seed: int = 0) -> Circle:
    """Smallest circle enclosing all ``points`` (Welzl, expected O(n)).

    Used by the Auditor to canonicalize arbitrary polygon NFZs at
    registration time (paper §VII-B2).  Deterministic for a given ``seed``.

    Raises:
        GeometryError: if ``points`` is empty.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise GeometryError("smallest_enclosing_circle requires at least one point")
    rng = random.Random(seed)
    rng.shuffle(pts)
    # Iterative move-to-front Welzl to avoid recursion limits on large inputs.
    circle = Circle(pts[0][0], pts[0][1], 0.0)
    for i, p in enumerate(pts):
        if circle.contains(p, tol=1e-7 * max(1.0, circle.r)):
            continue
        circle = Circle(p[0], p[1], 0.0)
        for j in range(i):
            q = pts[j]
            if circle.contains(q, tol=1e-7 * max(1.0, circle.r)):
                continue
            circle = _circle_from_two(p, q)
            for k in range(j):
                s = pts[k]
                if circle.contains(s, tol=1e-7 * max(1.0, circle.r)):
                    continue
                # p and q must stay on the boundary, so the new circle is the
                # one through all three; the smallest circle around the trio
                # could drop p or q and with them earlier points.
                circle = _circle_through(p, q, s)
    return circle
