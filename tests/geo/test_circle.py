"""Tests for repro.geo.circle."""

import math

import pytest

from repro.errors import GeometryError
from repro.geo.circle import Circle, smallest_enclosing_circle


class TestCircle:
    def test_negative_radius_rejected(self):
        with pytest.raises(GeometryError):
            Circle(0.0, 0.0, -1.0)

    def test_contains_center_and_boundary(self):
        c = Circle(1.0, 2.0, 5.0)
        assert c.contains((1.0, 2.0))
        assert c.contains((6.0, 2.0))
        assert not c.contains((6.1, 2.0))

    def test_distance_to_boundary_signs(self):
        c = Circle(0.0, 0.0, 10.0)
        assert c.distance_to_boundary((20.0, 0.0)) == pytest.approx(10.0)
        assert c.distance_to_boundary((5.0, 0.0)) == pytest.approx(-5.0)
        assert c.distance_to_boundary((10.0, 0.0)) == pytest.approx(0.0)

    def test_intersects_circle(self):
        a = Circle(0.0, 0.0, 5.0)
        assert a.intersects_circle(Circle(8.0, 0.0, 3.0))     # tangent
        assert a.intersects_circle(Circle(7.0, 0.0, 3.0))     # overlap
        assert not a.intersects_circle(Circle(9.0, 0.0, 3.0))

    def test_intersects_segment_through(self):
        c = Circle(0.0, 0.0, 2.0)
        assert c.intersects_segment((-10.0, 0.0), (10.0, 0.0))

    def test_intersects_segment_misses(self):
        c = Circle(0.0, 0.0, 2.0)
        assert not c.intersects_segment((-10.0, 5.0), (10.0, 5.0))

    def test_intersects_segment_endpoint_inside(self):
        c = Circle(0.0, 0.0, 2.0)
        assert c.intersects_segment((1.0, 0.0), (10.0, 0.0))

    def test_intersects_degenerate_segment(self):
        c = Circle(0.0, 0.0, 2.0)
        assert c.intersects_segment((1.0, 1.0), (1.0, 1.0))
        assert not c.intersects_segment((5.0, 5.0), (5.0, 5.0))


class TestSmallestEnclosingCircle:
    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            smallest_enclosing_circle([])

    def test_single_point(self):
        c = smallest_enclosing_circle([(3.0, 4.0)])
        assert (c.x, c.y, c.r) == (3.0, 4.0, 0.0)

    def test_two_points(self):
        c = smallest_enclosing_circle([(0.0, 0.0), (4.0, 0.0)])
        assert c.x == pytest.approx(2.0)
        assert c.r == pytest.approx(2.0)

    def test_equilateral_triangle(self):
        pts = [(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))]
        c = smallest_enclosing_circle(pts)
        # Circumradius of an equilateral triangle with side 2 is 2/sqrt(3).
        assert c.r == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-9)

    def test_obtuse_triangle_uses_diameter(self):
        # For an obtuse triangle the longest side is the diameter.
        pts = [(0.0, 0.0), (10.0, 0.0), (5.0, 0.5)]
        c = smallest_enclosing_circle(pts)
        assert c.r == pytest.approx(5.0, rel=1e-6)

    def test_collinear_points(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (5.0, 5.0), (3.0, 3.0)]
        c = smallest_enclosing_circle(pts)
        assert c.r == pytest.approx(math.dist((0, 0), (5, 5)) / 2.0, rel=1e-9)

    def test_all_points_enclosed_random(self):
        import random
        rng = random.Random(7)
        pts = [(rng.uniform(-100, 100), rng.uniform(-100, 100))
               for _ in range(200)]
        c = smallest_enclosing_circle(pts)
        tolerance = 1e-7 * max(1.0, c.r)
        assert all(c.contains(p, tol=tolerance) for p in pts)

    def test_minimality_vs_brute_force(self):
        import random
        rng = random.Random(11)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(12)]
        c = smallest_enclosing_circle(pts)
        # Any circle through the two farthest points must be at least half
        # the diameter of the point set.
        max_pairwise = max(math.dist(a, b) for a in pts for b in pts)
        assert c.r >= max_pairwise / 2.0 - 1e-9

    def test_deterministic_given_seed(self):
        pts = [(1.0, 1.0), (2.0, 5.0), (-3.0, 2.0), (0.0, -4.0)]
        a = smallest_enclosing_circle(pts, seed=3)
        b = smallest_enclosing_circle(pts, seed=3)
        assert (a.x, a.y, a.r) == (b.x, b.y, b.r)

    def test_duplicate_points(self):
        c = smallest_enclosing_circle([(1.0, 1.0)] * 5)
        assert c.r == 0.0
        assert (c.x, c.y) == (1.0, 1.0)

    def test_fixed_boundary_points_kept(self):
        """Regression: the inner step once lost (0, 977) by about 603 m."""
        pts = [(0.0, 0.0), (0.0, 977.0), *[(0.0, 0.0)] * 5, (0.0, -54.0),
               (0.0, 0.0), (833.0, -53.0), (-45.0, -14.0), (891.0, 0.0)]
        c = smallest_enclosing_circle(pts)
        assert all(c.contains(p, tol=1e-7 * c.r) for p in pts)
        # The brute-force minimum over pair and triple circles.
        assert (c.x, c.y) == pytest.approx((415.8939, 461.5), abs=1e-3)
        assert c.r == pytest.approx(662.3504, abs=1e-3)
