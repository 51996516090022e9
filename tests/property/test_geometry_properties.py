"""Property-based tests on the geometric core (hypothesis)."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geo.circle import Circle, smallest_enclosing_circle
from repro.geo.ellipse import (
    TravelRangeEllipse,
    ellipse_disk_disjoint_conservative,
    ellipse_disk_disjoint_exact,
    min_focal_sum_over_disk,
)
from repro.geo.geodesy import GeoPoint, LocalFrame, haversine_distance_m

coords = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)
radii = st.floats(min_value=0.1, max_value=200.0, allow_nan=False)
points = st.tuples(coords, coords)

#: Once dropped (0, 977): the innermost Welzl step took the smallest circle
#: around its three points, which need not keep the two fixed ones.
WELZL_DROPPED_POINT = [(0.0, 0.0), (0.0, 977.0), *[(0.0, 0.0)] * 5,
                       (0.0, -54.0), (0.0, 0.0), (833.0, -53.0),
                       (-45.0, -14.0), (891.0, 0.0)]


@st.composite
def ellipses(draw):
    f1 = draw(points)
    f2 = draw(points)
    slack = draw(st.floats(min_value=0.0, max_value=500.0))
    return TravelRangeEllipse(f1, f2, math.dist(f1, f2) + slack)


@st.composite
def disks(draw):
    x, y = draw(points)
    return Circle(x, y, draw(radii))


class TestEllipseDiskProperties:
    @given(e=ellipses(), d=disks())
    @settings(max_examples=150, deadline=None)
    def test_conservative_is_sound(self, e, d):
        """Conservative 'disjoint' implies exact 'disjoint' — always."""
        if ellipse_disk_disjoint_conservative(e, d):
            assert ellipse_disk_disjoint_exact(e, d)

    @given(e=ellipses(), d=disks())
    @settings(max_examples=100, deadline=None)
    def test_min_focal_sum_lower_bounded_by_conservative_quantity(self, e, d):
        bound = d.distance_to_boundary(e.f1) + d.distance_to_boundary(e.f2)
        assert min_focal_sum_over_disk(e, d) >= bound - 1e-6

    @given(e=ellipses(), d=disks())
    @settings(max_examples=100, deadline=None)
    def test_min_focal_sum_at_least_focal_distance(self, e, d):
        assert min_focal_sum_over_disk(e, d) >= e.focal_distance - 1e-6

    @given(e=ellipses(), d=disks(),
           theta=st.floats(min_value=0.0, max_value=2 * math.pi),
           rho=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_disjoint_means_no_disk_point_in_ellipse(self, e, d, theta, rho):
        """Exact disjointness: arbitrary disk points stay outside."""
        if ellipse_disk_disjoint_exact(e, d):
            p = (d.x + rho * d.r * math.cos(theta),
                 d.y + rho * d.r * math.sin(theta))
            assert not e.contains(p, tol=-1e-9) or e.focal_sum_at(p) >= (
                e.focal_sum - 1e-5)

    @given(e=ellipses(), d=disks())
    @settings(max_examples=100, deadline=None)
    def test_growing_focal_sum_never_creates_disjointness(self, e, d):
        """Monotonicity: a bigger travel range can only intersect more."""
        bigger = TravelRangeEllipse(e.f1, e.f2, e.focal_sum * 1.5 + 1.0)
        if not ellipse_disk_disjoint_exact(e, d):
            assert not ellipse_disk_disjoint_exact(bigger, d)


class TestWelzlProperties:
    @given(st.lists(points, min_size=1, max_size=40))
    @example(WELZL_DROPPED_POINT)
    @settings(max_examples=100, deadline=None)
    def test_encloses_all_points(self, pts):
        circle = smallest_enclosing_circle(pts)
        tol = 1e-6 * max(1.0, circle.r)
        assert all(circle.contains(p, tol=tol) for p in pts)

    @given(st.lists(points, min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_radius_at_least_half_diameter(self, pts):
        circle = smallest_enclosing_circle(pts)
        max_dist = max(math.dist(a, b) for a in pts for b in pts)
        # The implementation treats points within 1e-7 * r as enclosed, so
        # the radius may undershoot by that relative amount.
        assert circle.r >= max_dist / 2.0 - 1e-6 - 1e-6 * circle.r

    @given(st.lists(points, min_size=1, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_radius_at_most_bounding_box_diagonal(self, pts):
        circle = smallest_enclosing_circle(pts)
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        diagonal = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        assert circle.r <= diagonal / math.sqrt(2.0) + 1e-6 + diagonal * 1e-9


class TestGeodesyProperties:
    lats = st.floats(min_value=-80.0, max_value=80.0, allow_nan=False)
    lons = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False)

    @given(lat1=lats, lon1=lons, lat2=lats, lon2=lons)
    @settings(max_examples=100, deadline=None)
    def test_haversine_symmetry_and_nonnegativity(self, lat1, lon1, lat2,
                                                  lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        d_ab = haversine_distance_m(a, b)
        assert d_ab >= 0.0
        assert math.isclose(d_ab, haversine_distance_m(b, a), rel_tol=1e-9,
                            abs_tol=1e-9)

    @given(lat=st.floats(min_value=-60.0, max_value=60.0),
           lon=lons,
           x=st.floats(min_value=-5000.0, max_value=5000.0),
           y=st.floats(min_value=-5000.0, max_value=5000.0))
    @settings(max_examples=100, deadline=None)
    def test_local_frame_round_trip(self, lat, lon, x, y):
        frame = LocalFrame(GeoPoint(lat, lon))
        point = frame.to_geo(x, y)
        bx, by = frame.to_local(point)
        assert math.isclose(bx, x, abs_tol=1e-6)
        assert math.isclose(by, y, abs_tol=1e-6)
