import collections
import math
import re
from pathlib import Path

import numpy as np
import pytest

from alexgeo import model_plane as mp
from alexgeo.spaces import (
    CapSpace,
    ConeSpace,
    DoubledCap,
    DoubledPolygon,
    MeshPoint,
    PolygonSpace,
    SpindleSpace,
    SpaceError,
    build_doubling,
    load_space,
    log_map,
    parse_angle,
    random_convex_polygon,
    regular_tetrahedron,
)
from alexgeo.spaces.base import SigmaDesc

SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
PENTAGON = PolygonSpace([(0.0, 0.0), (2.0, 0.0), (2.5, 1.2), (1.0, 2.2), (-0.4, 1.0)])


def all_spaces():
    return [
        ConeSpace(2 * math.pi),
        ConeSpace(1.5 * math.pi),
        ConeSpace(math.pi / 2),
        SpindleSpace(2 * math.pi),
        SpindleSpace(4.0),
        CapSpace(math.pi / 2),
        CapSpace(0.8),
        PolygonSpace(SQUARE),
        regular_tetrahedron(),
    ]


class TestLoad:
    def test_cone(self):
        s = load_space({"type": "cone", "total_angle": 4.712389})
        assert s.variant == "cone"
        assert s.total_angle == pytest.approx(1.5 * math.pi, abs=1e-5)

    def test_polygon(self):
        s = load_space({"type": "polygon", "vertices": SQUARE})
        assert s.variant == "polygon" and s.has_boundary

    def test_mesh_tetrahedron(self):
        t = regular_tetrahedron()
        s = load_space(t.describe())
        for v in range(4):
            assert s.cone_angle_at_vertex(v) == pytest.approx(math.pi)

    def test_angle_literals(self):
        assert parse_angle("3pi/2") == pytest.approx(1.5 * math.pi)
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("0.25") == 0.25

    def test_curvature_violation(self):
        # a flat vertex star with total angle > 2*pi: seven unit triangles
        n = 7
        lengths = {}
        for i in range(n):
            lengths[frozenset((0, 1 + i))] = 1.0
            lengths[frozenset((1 + i, 1 + (i + 1) % n))] = 1.0
        tris = [(0, 1 + i, 1 + (i + 1) % n) for i in range(n)]
        from alexgeo.spaces.mesh import MeshSpace

        with pytest.raises(SpaceError):
            MeshSpace(tris, edge_lengths=lengths)

    def test_malformed(self):
        with pytest.raises(SpaceError):
            load_space({"type": "nonsense"})
        with pytest.raises(SpaceError):
            load_space({"no_type": 1})


class TestConeMetric:
    def test_plane_distance(self):
        c = ConeSpace(2 * math.pi)
        assert c.distance((1, 0), (1, math.pi)) == pytest.approx(2.0)

    def test_half_plane_wrap(self):
        c = ConeSpace(math.pi)
        assert c.distance((1, 0), (1, math.pi / 2)) == pytest.approx(math.sqrt(2))

    def test_three_quarter_wrap(self):
        c = ConeSpace(1.5 * math.pi)
        assert c.distance((1, 0), (1, 5 * math.pi / 4)) == pytest.approx(
            2 * math.sin(math.pi / 8)
        )

    def test_apex_distance(self):
        c = ConeSpace(1.5 * math.pi)
        assert c.distance((0, 0), (2.5, 1.0)) == pytest.approx(2.5)

    @pytest.mark.parametrize("h", [1e-9, 3e-9, 1e-8])
    def test_short_distances_keep_relative_accuracy(self, h):
        c = ConeSpace(1.5 * math.pi)
        p = (0.3, 0.2)
        # radial and angular neighbours, with the separations as stored
        q = (0.3 + h, 0.2)
        assert c.distance(p, q) == pytest.approx(q[0] - p[0], rel=1e-12)
        q = (0.3, 0.2 + h / 0.3)
        exact = 2.0 * 0.3 * math.sin(0.5 * (q[1] - p[1]))
        assert c.distance(p, q) == pytest.approx(exact, rel=1e-12)
        # walks in assorted directions, up to the rounding of their end points
        for ang in np.linspace(0.0, 2 * math.pi, 7, endpoint=False):
            assert c.distance(p, c.walk(p, ang, h).end) == pytest.approx(h, rel=1e-6)

    def test_two_minimizers_near_full_angle(self):
        c = ConeSpace(2 * math.pi - 1e-6)
        p, q = (1.0, 0.0), (1.0, (2 * math.pi - 1e-6) / 2.0)
        dirs = c.directions_to(p, q)
        assert len(dirs) == 2

    def test_log_map(self):
        c = ConeSpace(2 * math.pi)
        v = log_map(c, (1.0, 0.0), (1.0, math.pi / 2))
        assert v.norm == pytest.approx(math.sqrt(2))


class TestSpindleCap:
    def test_sphere_equator(self):
        s = SpindleSpace(2 * math.pi)
        eq = math.pi / 2
        assert s.distance((eq, 0.0), (eq, 1.0)) == pytest.approx(1.0)

    def test_spindle_apex_angle(self):
        s = SpindleSpace(4.0)
        assert s.sigma_at((0.0, 0.0)).length == pytest.approx(4.0)
        assert s.sigma_at((math.pi, 0.0)).length == pytest.approx(4.0)

    def test_spindle_walk_roundtrip(self):
        s = SpindleSpace(4.0)
        p = (1.1, 0.7)
        w = s.walk(p, 2.2, 0.9)
        back = s.walk(w.end, w.back_angle, 0.9)
        assert s.distance(back.end, p) < 1e-9

    @pytest.mark.parametrize("h", [1e-9, 3e-9, 1e-8])
    @pytest.mark.parametrize("space", [SpindleSpace(4.0), CapSpace(1.2)],
                             ids=["spindle", "cap"])
    def test_short_distances_keep_relative_accuracy(self, space, h):
        p = (0.8, 1.0)
        # radial and angular neighbours, with the separations as stored
        q = (0.8 + h, 1.0)
        assert space.distance(p, q) == pytest.approx(q[0] - p[0], rel=1e-12)
        q = (0.8, 1.0 + h / math.sin(0.8))
        exact = 2.0 * math.asin(math.sin(0.8) * math.sin(0.5 * (q[1] - p[1])))
        assert space.distance(p, q) == pytest.approx(exact, rel=1e-12)
        # walks in assorted directions, up to the rounding of their end points
        for ang in np.linspace(0.0, 2 * math.pi, 7, endpoint=False):
            end = space.walk(p, ang, h).end
            assert space.distance(p, end) == pytest.approx(h, rel=1e-6)

    def test_cap_boundary_arc(self):
        c = CapSpace(0.8)
        assert c.sigma_at((0.8, 0.3)).is_arc
        assert c.sigma_at((0.8, 0.3)).length == pytest.approx(math.pi)
        assert not c.sigma_at((0.4, 0.3)).is_arc

    def test_cap_boundary_walk(self):
        c = CapSpace(0.8)
        w = c.walk((0.8, 0.0), 0.0, 0.5)
        assert w.end[0] == pytest.approx(0.8)
        assert w.end[1] == pytest.approx(0.5 / math.sin(0.8))

    def test_cap_interior_walk_hits_boundary(self):
        c = CapSpace(0.8)
        w = c.walk((0.2, 0.0), 0.0, 2.0)
        assert w.event == "boundary"
        assert w.end[0] == pytest.approx(0.8)
        assert w.traveled == pytest.approx(0.6)


class TestPolygon:
    def test_strictness(self):
        with pytest.raises(SpaceError):
            PolygonSpace([[0, 0], [1, 0], [2, 0], [1, 1]])

    def test_corner_angles(self):
        p = PolygonSpace(SQUARE)
        for i in range(4):
            assert p.corner_angle(i) == pytest.approx(math.pi / 2)

    def test_interior_chord(self):
        p = PolygonSpace(SQUARE)
        assert p.distance((0.2, 0.2), (0.8, 0.9)) == pytest.approx(
            math.hypot(0.6, 0.7)
        )

    def test_edge_sigma(self):
        p = PolygonSpace(SQUARE)
        sig = p.sigma_at((0.5, 0.0))
        assert sig.is_arc and sig.length == pytest.approx(math.pi)

    def test_walk_boundary_slide(self):
        p = PolygonSpace(SQUARE)
        w = p.walk((0.5, 0.0), 0.0, 0.3)
        assert w.end == pytest.approx((0.8, 0.0))
        w = p.walk((0.5, 0.0), 0.0, 0.8)
        assert w.event == "corner" and w.event_ref == 1

    # walks from an interior point, an edge point and a corner of an
    # irregular pentagon: start, chart angle, length, then the end,
    # traveled, back angle, sigma length and arc flag, event and event_ref
    # that the numpy-scalar kernel gave, which the float kernel must match
    # to the bit
    WALKS = [
        ((1.0, 0.8), 0.4, 0.5,
         (1.4605304970014426, 0.9947091711543253), 0.5, 3.541592653589793,
         6.283185307179586, False, None, None),
        ((1.0, 0.8), 4.0, 5.0,
         (0.3090470764395067, 1.1102230246251565e-16), 1.057078967048722, 0.8584073464102069,
         3.141592653589793, True, 'boundary', None),
        ((1.0, 0.8), 0.26060239174734096, 5.0,
         (2.5, 1.2), 1.5524174696260025, 0.8486049952949082,
         1.7640078106427026, True, 'corner', 2),
        ((0.7, 0.0), 1.5707963267948966, 0.3,
         (0.7, 0.3), 0.3, 4.71238898038469,
         6.283185307179586, False, None, None),
        ((0.7, 0.0), 2.0, 10.0,
         (0.06136079867060307, 1.395452113146231), 1.53464869907055, 1.2913737278723296,
         3.141592653589793, True, 'boundary', None),
        ((0.7, 0.0), 0.0, 5.0,
         (2.0, 0.0), 1.3, 1.965587446494658,
         1.965587446494658, True, 'corner', 1),
        ((0.7, 0.0), 3.141592653589793, 0.2,
         (0.49999999999999994, 0.0), 0.2, 0.0,
         3.141592653589793, True, None, None),
        ((0.7, 0.0), 3.141592653589793, 5.0,
         (0.0, 0.0), 0.7, 0.0,
         1.9513027039072615, True, 'corner', 0),
        ((2.5, 1.2), 1.0, 0.3,
         (2.2251031560940664, 1.0798678843499505), 0.3, 0.41199739645243305,
         6.283185307179586, False, None, None),
        ((2.5, 1.2), 0.6568590928486118, 10.0,
         (-0.4, 1.0), 2.906888370749725, 1.259146438983576,
         1.898916221810202, True, 'corner', 4),
        ((2.5, 1.2), 0.0, 10.0,
         (1.0, 2.2), 1.8027756377319948, 1.8449637779145551,
         1.8449637779145551, True, 'corner', 3),
        ((2.5, 1.2), 1.7640078106427026, 0.5,
         (2.3076923076923075, 0.7384615384615385), 0.5, 0.0,
         3.141592653589793, True, None, None),
    ]

    @pytest.mark.parametrize("case", WALKS, ids=[
        "inner-inside", "inner-edge", "inner-corner-snap", "edge-inside", "edge-exit",
        "edge-slide-past-corner", "edge-slide-back", "edge-slide-back-past-corner",
        "corner-inside", "corner-to-corner", "corner-slide-out", "corner-slide-in"])
    def test_walk_kernel(self, case):
        p, angle, length, end, traveled, back, sig_len, is_arc, event, ref = case
        w = PENTAGON.walk(p, angle, length)
        assert tuple(w.end) == end
        assert (w.traveled, w.back_angle) == (traveled, back)
        assert (w.sigma.length, w.sigma.is_arc) == (sig_len, is_arc)
        assert (w.event, w.event_ref) == (event, ref)

    def test_random_polygons_are_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            poly = random_convex_polygon(rng)
            assert poly.n >= 3


class TestDoubling:
    def test_square_double_cone_points(self):
        d = build_doubling(PolygonSpace(SQUARE))
        corner_angles = sorted(
            d.cone_angle_at_vertex(v) for v in range(4)
        )
        for a in corner_angles:
            assert a == pytest.approx(math.pi)
        assert not d.has_boundary

    def test_projection_roundtrip(self):
        d = build_doubling(PolygonSpace(SQUARE))
        for sheet in (0, 1):
            m = d.lift((0.3, 0.4), sheet)
            assert d.project(m) == pytest.approx((0.3, 0.4))
            assert d.sheet_of(m) == sheet

    def test_mirror_pair_distance(self):
        d = build_doubling(PolygonSpace(SQUARE))
        base = PolygonSpace(SQUARE)
        p = (0.3, 0.4)
        m0, m1 = d.lift(p, 0), d.lift(p, 1)
        assert d.distance(m0, m1) == pytest.approx(2 * base.boundary_dist(p))

    def test_hemisphere_double_is_sphere(self):
        d = build_doubling(CapSpace(math.pi / 2))
        assert d.variant == "spindle"
        assert d.circle_length == pytest.approx(2 * math.pi)
        assert d.project((2.0, 0.3)) == pytest.approx((math.pi - 2.0, 0.3))

    def test_lens_double_rejected(self):
        with pytest.raises(SpaceError):
            build_doubling(CapSpace(0.7))

    def test_doubled_boundary_concavity(self):
        # distance to the seam, pulled back, is concave along geodesics of
        # the double that stay inside one sheet
        from alexgeo.functions import BoundaryDist, evaluate

        base = PolygonSpace(SQUARE)
        d = build_doubling(base)
        rng = np.random.default_rng(8)
        f = BoundaryDist()
        worst = -math.inf
        for _ in range(200):
            a = base.random_point(rng)
            b = base.random_point(rng)
            if base.distance(a, b) < 1e-3:
                continue
            sheet = int(rng.random() < 0.5)
            pts = d.geodesic_points(d.lift(a, sheet), d.lift(b, sheet), 17)
            vals = [evaluate(f, d, x) for x in pts]
            dt = base.distance(a, b) / 16
            for i in range(1, 16):
                worst = max(worst, (vals[i - 1] - 2 * vals[i] + vals[i + 1]) / dt**2)
        assert worst <= 1e-7


class TestMetricAxiomsAndComparison:
    @pytest.mark.parametrize("idx", range(9))
    def test_triangle_inequality(self, idx):
        space = all_spaces()[idx]
        rng = np.random.default_rng(42 + idx)
        n = 40 if space.variant == "mesh" else 200
        for _ in range(n):
            a, b, c = (space.random_point(rng) for _ in range(3))
            dab = space.distance(a, b)
            dbc = space.distance(b, c)
            dac = space.distance(a, c)
            assert dac <= dab + dbc + 1e-9
            assert abs(space.distance(b, a) - dab) < 1e-9

    @pytest.mark.parametrize("space", [
        ConeSpace(math.pi / 2), ConeSpace(math.pi), ConeSpace(1.5 * math.pi),
        ConeSpace(2 * math.pi), SpindleSpace(4.0), CapSpace(0.8),
        DoubledCap(CapSpace(math.pi / 2)),
    ], ids=["cone-pi/2", "cone-pi", "cone-3pi/2", "plane", "spindle-4", "cap-0.8",
            "doubled-cap"])
    def test_closed_form_distance_is_symmetric_to_the_bit(self, space):
        rng = np.random.default_rng(2024)
        for _ in range(20000):
            a, b = space.random_point(rng), space.random_point(rng)
            assert space.distance(a, b) == space.distance(b, a)

    @pytest.mark.parametrize("idx", [0, 1, 2, 3, 5, 7])
    def test_toponogov_hinge(self, idx):
        space = all_spaces()[idx]
        kappa = space.kappa
        rng = np.random.default_rng(7 + idx)
        checked = 0
        while checked < 60:
            p = space.random_point(rng)
            q1 = space.random_point(rng)
            q2 = space.random_point(rng)
            d1, d2 = space.distance(p, q1), space.distance(p, q2)
            if min(d1, d2) < 1e-3:
                continue
            if kappa > 0 and d1 + d2 + space.distance(q1, q2) > 2 * math.pi - 1e-6:
                continue
            dirs1 = space.directions_to(p, q1)
            dirs2 = space.directions_to(p, q2)
            sig = space.sigma_at(p)
            ang = max(
                min(sig.dist(a1, a2), math.pi) for a1 in dirs1 for a2 in dirs2
            )
            tilde = mp.comparison_angle(kappa, d1, space.distance(q1, q2), d2)
            assert ang >= tilde - 1e-6
            checked += 1

    @pytest.mark.parametrize("idx", [1, 3, 6, 7, 8])
    def test_geodesic_length_matches_distance(self, idx):
        space = all_spaces()[idx]
        rng = np.random.default_rng(13 + idx)
        for _ in range(10):
            a, b = space.random_point(rng), space.random_point(rng)
            d = space.distance(a, b)
            if d < 1e-3:
                continue
            pts = space.geodesic_points(a, b, 33)
            length = sum(space.distance(pts[i], pts[i + 1]) for i in range(32))
            assert length == pytest.approx(d, abs=1e-6)


class TestPointParsing:
    @pytest.mark.parametrize("space, period", [
        (ConeSpace(1.5 * math.pi), 1.5 * math.pi), (SpindleSpace(4.0), 4.0),
        (CapSpace(0.8), 2 * math.pi)], ids=["cone", "spindle", "cap"])
    def test_tiny_negative_azimuth_wraps_into_the_period(self, space, period):
        for phi in (-1e-17, -1e-300, -0.0, -period, period, -2 * period - 1e-16):
            p = space.validate_point((0.5, phi))
            assert 0.0 <= p[1] < period
            assert space.validate_point(p) == p

    def test_sigma_wrap_stays_below_the_length(self):
        assert SigmaDesc(2 * math.pi).wrap(-1e-17) == 0.0
        assert SigmaDesc(4.0).wrap(-1e-17) == 0.0

    def test_cone_point(self):
        c = ConeSpace(1.5 * math.pi)
        assert c.parse_point("1,5pi/4") == pytest.approx((1.0, 5 * math.pi / 4))

    def test_mesh_point(self):
        t = regular_tetrahedron()
        p = t.parse_point("F3:0.2,0.3")
        assert p.face == 3
        assert p.bary == pytest.approx((0.2, 0.3, 0.5))


INTERFACE_SPACES = {
    "cone": lambda: ConeSpace(1.5 * math.pi),
    "spindle": lambda: SpindleSpace(4.0),
    "cap": lambda: CapSpace(0.8),
    "square": lambda: PolygonSpace(SQUARE),
    "doubled_cap": lambda: DoubledCap(CapSpace(math.pi / 2)),
    "tetrahedron": regular_tetrahedron,
    "doubled_square": lambda: DoubledPolygon(PolygonSpace(SQUARE)),
}


class TestSpaceInterface:
    """Queries every space answers, so that callers need not ask its variant."""

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_distances_from_matches_one_to_one(self, name):
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(21)
        for _ in range(3):
            p = space.random_point(rng)
            qs = [space.random_point(rng) for _ in range(6)] + [p]
            many = space.distances_from(p, qs)
            one = [space.distance_with_error(p, q) for q in qs]
            if space.variant == "mesh":
                for (d, err), (d1, err1) in zip(many, one):
                    assert abs(d - d1) <= max(err, err1) + 1e-9
            else:
                assert many == one
                assert all(err == 0.0 for _, err in many)

    @pytest.mark.parametrize("name", ["cone", "spindle", "cap", "doubled_cap"])
    def test_polar_pos2(self, name):
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(22)
        for _ in range(20):
            r, phi = space.random_point(rng)
            assert space.pos2((r, phi)) == (r * math.cos(phi), r * math.sin(phi))

    def test_polygon_pos2(self):
        xy = PolygonSpace(SQUARE).pos2((np.float64(0.25), 0.5))
        assert xy == (0.25, 0.5) and all(type(c) is float for c in xy)

    @pytest.mark.parametrize("name", ["cap", "square"])
    def test_boundary_parametrization(self, name):
        space = INTERFACE_SPACES[name]()
        for s in np.linspace(-0.3, 1.3, 33) * space.boundary_period:
            assert space.boundary_dist(space.boundary_point(s)) == 0.0
        ends = space.boundary_point(0.0), space.boundary_point(space.boundary_period)
        assert math.dist(*map(space.pos2, ends)) <= 1e-12

    def test_square_perimeter(self):
        sq = PolygonSpace(SQUARE)
        assert sq.boundary_period == 4.0
        assert sq.boundary_point(1.5) == (1.0, 0.5)

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_point_literal_round_trip(self, name):
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = space.random_point(rng)
            q = space.parse_point(space.format_point(p))
            assert space.format_point(q) == space.format_point(p)
            assert space.distance(p, q) <= 1e-8

    # name: (boundary_period, corner angles, supports_tracing, boundary distance)
    CAPABILITIES = {
        "cone": (None, [], True, False),
        "spindle": (None, [], True, False),
        "cap": (2 * math.pi, [], False, True),
        "square": (4.0, [math.pi / 2] * 4, True, True),
        "doubled_cap": (None, [], True, True),
        "tetrahedron": (None, [], True, False),
        "doubled_square": (None, [], True, True),
    }

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_capabilities(self, name):
        space = INTERFACE_SPACES[name]()
        period, angles, tracing, boundary = self.CAPABILITIES[name]
        assert space.boundary_period == period
        assert [a for _, a in space.corners()] == pytest.approx(angles)
        assert space.supports_tracing is tracing
        assert (space.boundary_dist is not None) is boundary
        # the differential of the boundary distance is there where the
        # boundary is parametrized: the doubles have none
        assert (space.boundary_tails is not None) is (period is not None)

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_direction_to_itself(self, name):
        # the zero vector of log_map still reads a chart angle from dirs[0]
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(24)
        points = [space.random_point(rng) for _ in range(3)]
        points += [p for p, _ in space.cone_points() + space.corners()]
        for p in points:
            assert space.directions_to(p, p)
            assert log_map(space, p, p).norm == 0.0


MESH_ENTRIES = {
    "distance": lambda m, bad, good: [m.distance(bad, good), m.distance(good, bad)],
    "distance_with_error": lambda m, bad, good: [m.distance_with_error(bad, good),
                                                 m.distance_with_error(good, bad)],
    "directions_to": lambda m, bad, good: [m.directions_to(bad, good),
                                           m.directions_to(good, bad)],
    "walk": lambda m, bad, good: m.walk(bad, 0.3, 0.1),
    "geodesic_points": lambda m, bad, good: [m.geodesic_points(bad, good, 5),
                                             m.geodesic_points(good, bad, 5)],
    "point_vertex_dists": lambda m, bad, good: m.point_vertex_dists(bad),
    "graph_upper_bound": lambda m, bad, good: [m.graph_upper_bound(bad, good),
                                               m.graph_upper_bound(good, bad)],
    "distances_from_source": lambda m, bad, good: m.distances_from(bad, [good]),
    "distances_from_target": lambda m, bad, good: m.distances_from(good, [good, bad]),
}


class TestMeshValidation:
    """Every public mesh entry validates its points: the kernels do not."""

    @pytest.mark.parametrize("mesh_name", ["tetrahedron", "doubled_square"])
    @pytest.mark.parametrize("entry", sorted(MESH_ENTRIES))
    @pytest.mark.parametrize("bad", [MeshPoint(99, (0.2, 0.3, 0.5)),
                                     MeshPoint(0, (0.5, 0.6, -0.1)),
                                     (0, (0.2, 0.2, 0.2))],
                             ids=["face", "negative_bary", "bary_sum"])
    def test_bad_points_raise(self, mesh_name, entry, bad):
        mesh = INTERFACE_SPACES[mesh_name]()
        good = MeshPoint(1, (0.2, 0.3, 0.5))
        with pytest.raises(SpaceError):
            MESH_ENTRIES[entry](mesh, bad, good)

    def test_entries_above_the_space_take_the_tuple_form(self):
        # gradient, differential and log_map validate p before reading it
        from alexgeo.flow import gradient
        from alexgeo.functions import Dist, differential

        mesh = regular_tetrahedron()
        expr = Dist(q=(1, (1.0, 0.0, 0.0)))
        raw, point = (0, (0.2, 0.3, 0.5)), MeshPoint(0, (0.2, 0.3, 0.5))
        assert gradient(expr, mesh, raw) == gradient(expr, mesh, point)
        assert differential(expr, mesh, raw)(0.7) == differential(expr, mesh, point)(0.7)
        assert log_map(mesh, raw, (2, (0.1, 0.1, 0.8))) == \
            log_map(mesh, point, MeshPoint(2, (0.1, 0.1, 0.8)))


# the planar fast paths of `SmoothedDistance` and `RadialStepper`, by file
DISPATCH_RE = re.compile(r"\.variant (==|in|not in)|hasattr\(")
PLANAR_FAST_PATHS = collections.Counter({
    ("functions.py", 'self._planar = space.variant == "polygon" or ('): 1,
    ("functions.py",
     'space.variant == "cone" and abs(space.total_angle - 2.0 * math.pi) < 1e-12'): 1,
    ("functions.py", 'if space.variant == "polygon":'): 1,
    ("functions.py", 'if self.space.variant == "cone":'): 1,
    ("radial.py", 'if self.space.variant == "cone":'): 1,
})


def test_no_code_outside_the_planar_fast_paths_asks_a_space_its_variant():
    src = Path(__file__).resolve().parent.parent / "src" / "alexgeo"
    found = collections.Counter(
        (path.name, line.strip())
        for path in sorted(src.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if DISPATCH_RE.search(line)
    )
    assert found == PLANAR_FAST_PATHS
