import ast
import collections
import inspect
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from alexgeo import model_plane as mp
from alexgeo.functions import Affine, DistSq, differential
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
    parse_angle,
    random_convex_polygon,
    regular_tetrahedron,
)
from alexgeo.spaces import spherical
from alexgeo.spaces.base import (ARRAYS, CIRCLE, FLOATS, HALF_ARC, REFUSED, SigmaDesc, Space,
                                 azimuth_wraps)

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

    def test_geodesic_points_with_an_end_at_the_apex(self):
        # the geodesic runs along the rays of the two ends, in steps of d / 8
        c = ConeSpace(1.5 * math.pi)
        for p, q in [((0.0, 0.0), (1.2, 0.7)), ((1.0, 0.4), (0.0, 0.0))]:
            pts = c.geodesic_points(p, q, 9)
            d = p[0] + q[0]
            for i, (r, phi) in enumerate(pts):
                s = d * i / 8
                assert r == pytest.approx(abs(s - p[0]), abs=1e-12)
                assert r <= 1e-12 or phi == (p[1] if s < p[0] else q[1])
            for a, b in zip(pts, pts[1:]):
                assert c.distance(a, b) == pytest.approx(d / 8, abs=1e-12)

    def test_two_minimizers_near_full_angle(self):
        c = ConeSpace(2 * math.pi - 1e-6)
        p, q = (1.0, 0.0), (1.0, (2 * math.pi - 1e-6) / 2.0)
        dirs = c.directions_to(p, q)
        assert len(dirs) == 2


SPHERE = DoubledCap(CapSpace(math.pi / 2))  # the round sphere


class TestSpindleCap:
    def test_sphere_equator(self):
        s = SpindleSpace(2 * math.pi)
        eq = math.pi / 2
        assert s.distance((eq, 0.0), (eq, 1.0)) == pytest.approx(1.0)

    def test_spindle_apex_angle(self):
        s = SpindleSpace(4.0)
        assert s.sigma_at((0.0, 0.0)).length == pytest.approx(4.0)
        assert s.sigma_at((math.pi, 0.0)).length == pytest.approx(4.0)

    @pytest.mark.parametrize("p, ref", [((0.0, 0.0), "south"), ((math.pi, 0.0), "north")])
    def test_spindle_walk_from_a_pole_meets_the_other(self, p, ref):
        s = SpindleSpace(4.0)
        w = s.walk(p, 1.0, math.pi + 0.5)
        assert (w.event, w.event_ref, w.traveled) == ("vertex", ref, math.pi)
        assert w.end == (math.pi - p[0], 1.0)

    def test_spindle_walk_roundtrip(self):
        s = SpindleSpace(4.0)
        p = (1.1, 0.7)
        w = s.walk(p, 2.2, 0.9)
        back = s.walk(w.end, w.back_angle, 0.9)
        assert s.distance(back.end, p) < 1e-9

    @pytest.mark.parametrize("space, p, q", [
        (SpindleSpace(4.0), (0.0, 0.0), (math.pi, 0.0)),
        (SpindleSpace(4.0), (0.0, 1.0), (math.pi, 3.5)),
        (SPHERE, (0.0, 0.0), (math.pi, 2.0)),
    ] + [(SPHERE, (math.pi / 2, phi), (math.pi / 2, phi + math.pi))
         for phi in (0.0, 0.7, math.pi / 2, 2.9, 4.4)],
        ids=["spindle", "spindle-turned", "sphere"] + [f"equator-{k}" for k in range(5)])
    def test_antipodes_are_pi_apart_to_the_bit(self, space, p, q):
        # pole to pole, and on the equator at azimuths pi apart, 1 - h is
        # 0 and the distance 2 atan2(1, 0) is pi, on floats and on arrays.
        # An equator pair is as far apart as its stored azimuths: phi + pi
        # rounds so that for phi = 2.9 the gap is pi - 4.4e-16, and so is
        # the distance
        p, q = space.validate_point(p), space.validate_point(q)
        gap = abs(q[1] - p[1])
        want = math.pi if p[0] in (0.0, math.pi) else min(gap, 2.0 * math.pi - gap)
        assert math.pi - want in (0.0, 4.440892098500626e-16)
        for x, y in ((p, q), (q, p)):
            assert space.distance(x, y) == space._distance(x, y) == want
            assert space._distances([x], y).tolist() == [want]

    def test_antipodes_off_the_equator_are_pi_apart(self):
        # off the equator the haversine sum of an antipodal pair can round
        # to 1 - 2**-53, where 2 asin(sqrt(h)) was 3e-8 short of pi
        space = SPHERE
        p = space.validate_point((math.pi / 4, 1.0))
        q = space.validate_point((math.pi - p[0], 1.0 + math.pi))
        assert space.distance(p, q) == pytest.approx(math.pi, rel=1e-12)

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

    def test_cap_walk_from_the_pole_stops_at_the_boundary(self):
        c = CapSpace(0.8)
        w = c.walk((0.0, 0.0), 1.0, 2.0)
        assert (w.end, w.traveled, w.event) == ((0.8, 1.0), 0.8, "boundary")
        assert (w.back_angle, w.sigma) == (0.5 * math.pi, HALF_ARC)
        # as a start just off the pole, walking out along the same meridian
        near = c.walk((1e-6, 1.0), 0.0, 2.0)
        assert (near.event, near.sigma) == (w.event, w.sigma)
        assert near.back_angle == pytest.approx(w.back_angle, abs=1e-12)
        assert near.traveled == pytest.approx(0.8 - 1e-6, abs=1e-12)
        short = c.walk((0.0, 0.0), 1.0, 0.5)
        assert (short.end, short.traveled, short.event, short.sigma) == ((0.5, 1.0), 0.5, None,
                                                                         CIRCLE)

    def test_cap_geodesic_from_the_pole_runs_down_the_meridian(self):
        c = CapSpace(0.8)
        q = (0.6, 2.0)
        pts = c.geodesic_points((0.0, 0.0), q, 7)
        assert [phi for _, phi in pts] == [q[1]] * 7
        assert [r for r, _ in pts] == pytest.approx([0.1 * i for i in range(7)], abs=1e-12)

    def test_cap_draws_near_the_pole_stay_inside(self):
        c = CapSpace(0.8)
        rng = np.random.default_rng(37)
        draws = [c.random_point_near((0.0, 0.0), 1.0, rng) for _ in range(1000)]
        assert sum(c.on_boundary(x) for x in draws) == 0
        assert max(r for r, _ in draws) < 0.8

    def test_cap_walks_from_the_pole_match_one_walk_each(self):
        c = CapSpace(0.8)
        angles = np.repeat(np.linspace(-0.5, 7.0, 9), 6)
        lengths = np.tile([0.0, 0.3, 0.8 - 1e-13, 0.8, 1.0, 3.5], 9)
        ends, events = c._walks((0.0, 0.0), angles, lengths)
        for a, length, end, event in zip(angles.tolist(), lengths.tolist(), ends, events):
            w = c._walk((0.0, 0.0), a, length)
            assert (end, event) == (w.end, w.event)
        assert events.count("boundary") == 4 * 9

    @pytest.mark.parametrize("length", [0.2, 0.5, 1.5])
    def test_cap_walk_through_the_pole_is_continuous_in_the_angle(self, length):
        # the pole is a regular point of the cap: a meridian walk through it
        # goes on down the meridian of azimuth 1 + pi, as do its neighbours
        c = CapSpace(0.8)
        walks = [c.walk((0.3, 1.0), math.pi + da, length) for da in (-1e-9, 0.0, 1e-9)]
        traveled = min(length, 1.1)
        end = (0.3 - length, 1.0) if length < 0.3 else (traveled - 0.3, 1.0 + math.pi)
        for w in walks:
            assert c.distance(w.end, end) < 1e-8
            assert w.traveled == pytest.approx(traveled, abs=1e-12)
            assert (w.event, w.sigma) == (walks[1].event, walks[1].sigma)
            assert w.sigma.dist(w.back_angle, walks[1].back_angle) < 1e-8
        assert walks[1].event == ("boundary" if length == 1.5 else None)
        ends, events = c._walks((0.3, 1.0), [math.pi] * 2, [length, length])
        assert ends == [walks[1].end] * 2 and events == [walks[1].event] * 2
        # a boundary start walking inward along its meridian crosses the cap
        across = c.walk((0.8, 1.0), 0.5 * math.pi, 1.6)
        assert (across.end, across.traveled, across.event) == ((0.8, 1.0 + math.pi), 1.6,
                                                               "boundary")

    def test_cap_geodesic_through_the_pole_goes_on_down_the_opposite_meridian(self):
        # the pole rule of `CapSpace._walk`: past the pole, the points lie on
        # the meridian of azimuth 1 + pi at colatitude t - 0.3
        c = CapSpace(0.8)
        pts = c.geodesic_points((0.3, 1.0), (0.5, 1.0 + math.pi), 5)
        assert pts[0] == (0.3, 1.0) and pts[1] == pytest.approx((0.1, 1.0), abs=1e-12)
        for (r, phi), t in zip(pts[2:], (0.4, 0.6, 0.8)):
            assert r == pytest.approx(t - 0.3, abs=1e-12)
            assert phi == pytest.approx(1.0 + math.pi, abs=1e-12)
        # from the boundary, through the pole, to the far boundary
        across = c.geodesic_points((0.8, 1.0), (0.8, 1.0 + math.pi), 5)
        assert across[-1] == pytest.approx((0.8, 1.0 + math.pi), abs=1e-12)
        assert [r for r, _ in across] == pytest.approx([0.8, 0.4, 0.0, 0.4, 0.8], abs=1e-12)

    SPHERES = {"spindle_4": lambda: SpindleSpace(4.0), "sphere": lambda: SpindleSpace(2 * math.pi),
               "cap_0.8": lambda: CapSpace(0.8), "hemisphere": lambda: CapSpace(math.pi / 2)}

    @pytest.mark.parametrize("name", sorted(SPHERES))
    def test_directions_along_a_meridian_are_exact(self, name):
        # chart angle pi points to the north pole and 0 away from it; pi / 2
        # is inward on a cap's boundary arc.  An acos of the law of cosines
        # keeps only half the digits of these angles.
        space = self.SPHERES[name]()
        top = getattr(space, "radius", math.pi - 0.01)
        rng = np.random.default_rng(41)
        for k in range(400):
            north, south = sorted(rng.uniform(0.01, top, 2))
            if k % 4 == 0 and isinstance(space, CapSpace):
                south = space.radius
            phi = rng.random() * space.wrap_length
            p, q = space.validate_point((north, phi)), space.validate_point((south, phi))
            up = math.pi / 2 if isinstance(space, CapSpace) and space.on_boundary(q) else math.pi
            [got_up], [got_down] = space._directions_to(q, p), space._directions_to(p, q)
            assert abs(got_up - up) <= 1e-15 and abs(CIRCLE.dist(got_down, 0.0)) <= 1e-15
            if space.wrap_length == 2 * math.pi and north + south <= math.pi - 0.5:
                # over the north pole to the opposite meridian
                far = space.validate_point((south, math.pi))
                assert abs(space._directions_to(space.validate_point((north, 0.0)), far)[0]
                           - math.pi) <= 1e-15

    @pytest.mark.parametrize("name", sorted(SPHERES))
    def test_directions_off_the_meridian_match_the_law_of_cosines(self, name):
        space = self.SPHERES[name]()
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(400):
            p, q = space.random_point(rng), space.random_point(rng)
            ccw, cw = azimuth_wraps(p[1], q[1], space.wrap_length)
            if abs(ccw - cw) < 1e-6:
                continue
            a, sign = min((ccw, 1.0), (cw, -1.0))
            d = space._loc(FLOATS, p[0], q[0], a)
            cos_a = (math.cos(q[0]) - math.cos(p[0]) * math.cos(d)) / (math.sin(p[0]) * math.sin(d))
            if abs(cos_a) > 1.0 - 1e-6:
                continue
            [got] = space._dirs_regular(p, q)
            assert CIRCLE.dist(got, math.pi - sign * math.acos(cos_a)) <= 1e-9
            checked += 1
        assert checked > 300

    def test_cap_geodesics_off_the_pole_keep_their_points(self):
        # the walk of the parent form: the sphere walk, clipped to the cap
        c = CapSpace(0.8)
        rng = np.random.default_rng(271)
        starts = [c.random_point(rng) for _ in range(30)]
        starts += [c.boundary_point(s) for s in (0.3, 2.0, 4.5)]
        for p, q in zip(starts, starts[1:] + starts[:1]):
            p, q = c.validate_point(p), c.validate_point(q)
            d, psi = c._distance(p, q), c._dirs_regular(p, q)[0]
            walks = [SpindleSpace._walk(c, p, psi, d * i / 8) for i in range(1, 9)]
            assert c.geodesic_points(p, q, 9) == [p] + [(min(w.end[0], c.radius), w.end[1])
                                                        for w in walks]


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

    @staticmethod
    def _two_loop_classify(poly, p):
        """`classify` as two loops, corners first: the reference for the one pass."""
        x, y = p
        t = 1e-9 * max(poly.scale, 1.0)
        for i, (cx, cy) in enumerate(poly._corners):
            if math.hypot(x - cx, y - cy) <= t:
                return ("corner", i)
        for i, (ax, ay, nx, ny) in enumerate(poly._planes):
            if abs((x - ax) * nx + (y - ay) * ny) <= t:
                dx, dy = poly.edge_dirs[i]
                s = (x - ax) * dx + (y - ay) * dy
                if -t <= s <= poly.edge_lens[i] + t:
                    return ("edge", i, min(max(s, 0.0), poly.edge_lens[i]))
        return ("interior",)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_classify_in_one_pass_matches_two_loops(self, seed):
        rng = np.random.default_rng(4000 + seed)
        poly = PolygonSpace(SQUARE) if seed == 0 else random_convex_polygon(rng)
        base = [poly.random_point(rng) for _ in range(40)]
        base += [c for c, _ in poly.corners()]
        base += [poly.boundary_point(s * poly.boundary_period) for s in rng.random(20)]
        points = list(base)
        for p in base:
            for r in (1e-10, 2e-9):
                for a in rng.random(6) * 2 * math.pi:
                    points.append((p[0] + r * math.cos(a), p[1] + r * math.sin(a)))
        kinds = collections.Counter()
        for p in points:
            want = self._two_loop_classify(poly, p)
            assert poly.classify(p) == want
            kinds[want[0]] += 1
        assert kinds["interior"] and kinds["edge"] and kinds["corner"]

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

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_regular_point_differential_is_one_sinusoid(self, name):
        """At a regular point, a sum of distance leaves is one sinusoid.

        The direction space is the 2 pi circle, so the first variation
        formula makes each d dist_q one sinusoid -cos(xi - u) and their
        weighted sum another.  The oracle is that formula, pointwise.
        """
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(38)
        p = space.random_point(rng)
        while space.sigma_at(p) != CIRCLE:
            p = space.random_point(rng)
        p = space.validate_point(p)
        qs = [space.validate_point(space.random_point(rng)) for _ in range(3)]
        weights = (0.7, -1.3, 0.4)
        d = differential(Affine(weights=weights, terms=tuple(DistSq(q=q) for q in qs)), space, p)
        assert d.breaks == [0.0, 2 * math.pi] and len(d.pieces) == 1
        xs = np.arange(720) * (2 * math.pi / 720)
        oracle = np.zeros(720)
        for w, q in zip(weights, qs):
            (u,) = space.directions_to(p, q)
            gap = np.abs(np.mod(xs - u, 2 * math.pi))
            oracle -= w * 2.0 * space.distance(p, q) * np.cos(np.minimum(gap, 2 * math.pi - gap))
        assert max(abs(d(x) - o) for x, o in zip(xs.tolist(), oracle.tolist())) <= 1e-14

    # name: (boundary_period, corner angles, boundary distance)
    CAPABILITIES = {
        "cone": (None, [], False),
        "spindle": (None, [], False),
        "cap": (2 * math.pi, [], True),
        "square": (4.0, [math.pi / 2] * 4, True),
        "doubled_cap": (None, [], True),
        "tetrahedron": (None, [], False),
        "doubled_square": (None, [], True),
    }

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_capabilities(self, name):
        space = INTERFACE_SPACES[name]()
        period, angles, boundary = self.CAPABILITIES[name]
        assert space.boundary_period == period
        assert [a for _, a in space.corners()] == pytest.approx(angles)
        assert (space.boundary_dist is not None) is boundary
        # the boundary distance has a differential wherever it has a value
        # (on a double, off the seam only)
        assert (space.boundary_tails is not None) is boundary

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_direction_spaces_are_shared(self, name):
        # sigma_at and walks hand out the direction spaces the space built
        # once, at cone points and corners too, never a new one per call
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(29)
        points = [p for p, _ in space.cone_points() + space.corners()]
        points += [space.random_point(rng) for _ in range(10)]
        for p in points:
            sig = space.sigma_at(p)
            assert space.sigma_at(p) is sig
            w = space.walk(p, rng.random() * sig.length, 0.3)
            assert w.sigma is space.sigma_at(w.end)

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_direction_to_itself(self, name):
        # a point has a direction to itself, a chart angle to read
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(24)
        points = [space.random_point(rng) for _ in range(3)]
        points += [p for p, _ in space.cone_points() + space.corners()]
        for p in points:
            assert space.directions_to(p, p)


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
        # gradient and differential validate p before reading it
        from alexgeo.flow import gradient
        from alexgeo.functions import Dist, differential

        mesh = regular_tetrahedron()
        expr = Dist(q=(1, (1.0, 0.0, 0.0)))
        raw, point = (0, (0.2, 0.3, 0.5)), MeshPoint(0, (0.2, 0.3, 0.5))
        assert gradient(expr, mesh, raw) == gradient(expr, mesh, point)
        assert differential(expr, mesh, raw)(0.7) == differential(expr, mesh, point)(0.7)


MESH_BAD_POINTS = [MeshPoint(99, (0.2, 0.3, 0.5)), MeshPoint(0, (0.5, 0.6, -0.1)),
                   (0, (0.2, 0.2, 0.2))]
BAD_POINTS = {
    "cone": [(-1.0, 0.0), (1.0, math.nan)],
    "spindle": [(4.0, 0.0)],
    "cap": [(1.0, 0.0)],
    "square": [(5.0, 5.0), (math.nan, 0.5)],
    "doubled_cap": [(4.0, 0.0)],
    "tetrahedron": MESH_BAD_POINTS,
    "doubled_square": MESH_BAD_POINTS,
}
BAD_CASES = [(name, bad) for name in sorted(BAD_POINTS) for bad in BAD_POINTS[name]]
# one call per entry and argument, so each argument is checked on its own
SPACE_ENTRIES = {
    "distance_p": lambda s, bad, good: s.distance(bad, good),
    "distance_q": lambda s, bad, good: s.distance(good, bad),
    "directions_to_p": lambda s, bad, good: s.directions_to(bad, good),
    "directions_to_q": lambda s, bad, good: s.directions_to(good, bad),
    "walk": lambda s, bad, good: s.walk(bad, 0.3, 0.1),
    "geodesic_points_p": lambda s, bad, good: s.geodesic_points(bad, good, 5),
    "geodesic_points_q": lambda s, bad, good: s.geodesic_points(good, bad, 5),
    "distances_from_source": lambda s, bad, good: s.distances_from(bad, [good]),
    "distances_from_target": lambda s, bad, good: s.distances_from(good, [good, bad]),
    "random_point_near": lambda s, bad, good: s.random_point_near(
        bad, 0.1, np.random.default_rng(0)),
}


class TestValidationOnEverySpace:
    """Every public query on every space validates its points: the kernels do not."""

    @pytest.mark.parametrize("entry", sorted(SPACE_ENTRIES))
    @pytest.mark.parametrize("name, bad", BAD_CASES,
                             ids=[f"{n}-{i}" for n in sorted(BAD_POINTS)
                                  for i in range(len(BAD_POINTS[n]))])
    def test_bad_points_raise(self, name, bad, entry):
        space = INTERFACE_SPACES[name]()
        good = space.random_point(np.random.default_rng(30))
        with pytest.raises(SpaceError):
            SPACE_ENTRIES[entry](space, bad, good)

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
    def test_bad_lengths_and_radii_raise(self, name, value):
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(31)
        p = space.random_point(rng)
        with pytest.raises(SpaceError):
            space.walk(p, 0.3, value)
        with pytest.raises(SpaceError):
            space.random_point_near(p, value, rng)

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_points_the_space_makes_are_fixed_points(self, name):
        # the library evaluates and measures walk ends, samples and
        # geodesic points with the kernels, unvalidated: validating one
        # returns it as it is, equal and of the same type
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(35)
        starts = [space.random_point(rng) for _ in range(16)]
        starts += [p for p, _ in space.cone_points() + space.corners()]
        made = []
        for p in map(space.validate_point, starts):
            length = space.sigma_at(p).length
            for _ in range(8):
                try:
                    made.append(space._walk(p, rng.random() * length, 1.5 * rng.random()).end)
                except SpaceError:  # a direction out of a boundary point's arc
                    pass
            made += [space.random_point_near(p, 0.5, rng) for _ in range(8)]
            made += space.geodesic_points(p, space.random_point(rng), 9)
        assert len(made) >= 16 * 20
        for x in made:
            valid = space.validate_point(x)
            assert valid == x and type(valid) is type(x), x
            if isinstance(x, tuple):
                assert [type(c) for c in valid] == [type(c) for c in x], x

    @pytest.mark.parametrize("name, p", [("square", (0.5, 0.0)), ("square", (1.0, 1.0)),
                                         ("cap", (0.8, 1.0))],
                             ids=["square-edge-midpoint", "square-corner", "cap-boundary"])
    def test_samples_near_the_boundary(self, name, p):
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(32)
        xs = [space.random_point_near(p, 0.1, rng) for _ in range(200)]
        assert len(set(xs)) == len(xs)
        for x in xs:
            assert space.validate_point(x) == x
            assert space.distance(p, x) <= 0.1 + 1e-12


class TestKernels:
    """`_walk` and `_directions_to` on validated points answer as `walk` and
    `directions_to` do."""

    @staticmethod
    def _points(space, rng):
        points = [space.random_point(rng) for _ in range(20)]
        return points + [p for p, _ in space.cone_points() + space.corners()]

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_walk(self, name):
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(33)
        for p in self._points(space, rng):
            for _ in range(5):
                a, length = rng.random() * space.sigma_at(p).length, 1.5 * rng.random()
                assert space._walk(space.validate_point(p), a, length) == \
                    space.walk(p, a, length)

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_directions_to(self, name):
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(34)
        points = self._points(space, rng)
        for p in points:
            for q in points[:8] + points[20:]:
                assert space._directions_to(space.validate_point(p),
                                            space.validate_point(q)) == \
                    space.directions_to(p, q)


class TestBatchKernels:
    """`_walks` and `_distances` answer as one `_walk` or `_distance` call each.

    Events and refusals compare with `==` on every space, and so do ends
    and distances where the default loop serves the space, and the
    polygon's distances, whose hypot comes from `math`.  On the cone, the
    spindle and the cap the scalar and the batch kernels call one formula,
    written once over `FLOATS` and `ARRAYS`, whose atan2, hypot, asin and
    acos come from `math` on arrays too; the two forms agree bit for bit
    where numpy's sin, cos, sqrt and fmod round as `math`'s do (x86-64,
    numpy 2.4), which no CPU or numpy build promises, so their ends and
    distances compare within 1e-15, relative above 1.
    """

    @staticmethod
    def _agree(exact, got, want):
        if exact:
            return got == want
        return len(got) == len(want) and all(
            math.isclose(g, w, rel_tol=1e-15, abs_tol=1e-15) for g, w in zip(got, want))

    # poles that are not cone points (the cone apex and the poles of the
    # 4.0 spindle come from `cone_points`)
    POLES = {"cap": [(0.0, 0.0)], "doubled_cap": [(0.0, 0.0), (math.pi, 0.0)]}

    def _starts(self, name, space, rng):
        points = [space.random_point(rng) for _ in range(6)]
        points += [p for p, _ in space.cone_points() + space.corners()]
        points += self.POLES.get(name, [])
        if space.boundary_period is not None:  # cap boundary, square edges
            points += [space.boundary_point(s * space.boundary_period)
                       for s in (0.1, 0.37, 0.6, 0.85)]
        return [space.validate_point(p) for p in points]

    @staticmethod
    def _cases(space, p, rng):
        """Stencil angles, both ends of the chart, pi and angles outside it,
        with lengths across the 0.5 sphere sub-step and past the boundary.
        In the regular chart pi points at the cone apex and the north pole,
        and the longer lengths pass them."""
        arc = space.sigma_at(p).length
        angles = [arc * (i + 0.5) / 16 for i in range(16)] + [0.0, arc, math.pi, -0.4, arc + 0.3]
        angles += (rng.random(12) * arc).tolist()
        lengths = [0.0, 0.3, 0.5, 0.75, 1.2, 2.5]
        pairs = [(a, length) for a in angles for length in lengths]
        return np.array([a for a, _ in pairs]), np.array([length for _, length in pairs])

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_walks_match_one_walk_each(self, name):
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(35)
        exact = type(space)._walks is Space._walks
        refused = 0
        for p in self._starts(name, space, rng):
            angles, lengths = self._cases(space, p, rng)
            ends, events = space._walks(p, angles, lengths)
            assert len(ends) == len(events) == len(angles)
            for a, length, end, event in zip(angles.tolist(), lengths.tolist(), ends, events):
                try:
                    w = space._walk(p, a, length)
                except SpaceError:
                    assert (end, event) == (p, REFUSED)
                    refused += 1
                    continue
                assert event == w.event
                assert self._agree(exact, end, w.end)
            if space.sigma_at(p).is_arc:  # directions outside a boundary arc
                outside = (angles < -1e-9) | (angles > space.sigma_at(p).length + 1e-9)
                assert outside.any()
                assert all(events[j] == REFUSED for j in np.flatnonzero(outside))
        assert (refused > 0) == (space.boundary_period is not None)

    @pytest.mark.parametrize("name", sorted(INTERFACE_SPACES))
    def test_distances_match_one_distance_each(self, name):
        space = INTERFACE_SPACES[name]()
        rng = np.random.default_rng(36)
        starts = self._starts(name, space, rng)
        exact = type(space)._distances in (Space._distances, PolygonSpace._distances)
        for q in starts[::2]:
            for p in starts[:4]:
                angles, lengths = self._cases(space, p, rng)
                ends, events = space._walks(p, angles[::5], lengths[::5])
                points = ends + starts
                d = space._distances(points, q)
                assert isinstance(d, np.ndarray) and d.dtype == float
                assert self._agree(exact, d.tolist(), [space._distance(x, q) for x in points])


class TestCapReach:
    """A cap walk shorter than r0 - r - `_REACH` skips the crossing solve.

    Colatitude is 1-Lipschitz along a unit-speed geodesic, so such a walk
    cannot reach the boundary.  With `_REACH` set to inf every walk solves,
    and every walk and batch must end as it does with the reach test, to
    the bit; and wherever the test skips, the solve itself, `_crossing`,
    must find no crossing within the walk's length.
    """

    CAP = CapSpace(0.8)

    def _rays(self, rng):
        """(start, regular chart angle) pairs: random rays, rays at and near
        the meridians, grazing rays from just inside the boundary (target / R
        near 1, where acos rounds worst), starts within 1e-9 of the boundary
        and starts near the pole."""
        r0 = self.CAP.radius
        rays = [((r0 * math.sqrt(rng.random()), rng.random() * 2 * math.pi),
                 rng.random() * 2 * math.pi) for _ in range(40)]
        for r in (0.05, 0.3, 0.6, r0 - 1e-4, r0 - 1e-6, r0 - 2e-7):
            rays += [((r, 1.0), psi) for psi in (0.0, 1e-9, math.pi - 1e-9, math.pi + 2e-13)]
        for h in (2e-9, 1e-8, 1.01e-7, 2e-7, 1e-6, 1e-4):  # grazing: psi near pi/2
            rays += [((r0 - h, 0.4), math.pi / 2 + t) for t in (-1e-8, 0.0, 1e-8, math.pi)]
        rays += [((r0 - 1e-9, 2.0), psi) for psi in (0.0, 1.0, math.pi / 2, 3.0)]
        rays += [((1e-9, 0.5), psi) for psi in (0.0, math.pi / 2, math.pi)]
        return rays

    def _lengths(self, p):
        """Lengths at r0 - r - _REACH +- 1e-12, below it, and above the 0.5
        sub-step, past the boundary and past the pole."""
        edge = self.CAP.radius - p[0] - spherical._REACH
        return [max(x, 0.0) for x in (edge - 1e-12, edge, edge + 1e-12, 0.5 * edge,
                                      0.3, 0.75, 1.2, 2.5)]

    def test_the_solve_finds_no_crossing_where_the_reach_test_skips(self):
        cap, skipped = self.CAP, 0
        for p, psi in self._rays(np.random.default_rng(51)):
            assert cap._crossing(FLOATS, p[0], psi, 10.0) >= cap.radius - p[0] - spherical._REACH
            for length in self._lengths(p):
                if length < cap.radius - p[0] - spherical._REACH:
                    skipped += 1
                    assert cap._crossing(FLOATS, p[0], psi, length) == math.inf
        assert skipped > 100

    def test_the_solve_on_arrays_is_the_solve_on_floats(self):
        cap = self.CAP
        rays = self._rays(np.random.default_rng(55))
        for r in sorted({p[0] for p, _ in rays}):
            psi = np.array([a for p, a in rays if p[0] == r])
            for length in self._lengths((r, 0.0)) + [10.0]:
                lengths = np.full(len(psi), length)
                got = cap._crossing(ARRAYS, r, psi, lengths)
                want = [cap._crossing(FLOATS, r, a, length) for a in psi.tolist()]
                assert TestBatchKernels._agree(False, got.tolist(), want)

    @staticmethod
    def _walk_record(w):
        return w.end, w.traveled, w.back_angle, w.event

    def test_walks_end_as_the_solve_ends_them(self, monkeypatch):
        cap = self.CAP
        cases = [(p, psi, length) for p, psi in self._rays(np.random.default_rng(52))
                 for length in self._lengths(p)]
        skip = [self._walk_record(cap._walk(p, psi, length)) for p, psi, length in cases]
        monkeypatch.setattr(spherical, "_REACH", math.inf)
        solve = [self._walk_record(cap._walk(p, psi, length)) for p, psi, length in cases]
        assert skip == solve
        assert {w[3] for w in skip} == {None, "boundary", "vertex"}

    def test_batches_mixing_walks_in_and_out_of_reach_end_as_the_solve_ends_them(
            self, monkeypatch):
        cap = self.CAP
        rng = np.random.default_rng(53)
        batches = []
        for p in [(0.3, 1.0), (0.6, 2.0), (cap.radius - 2e-7, 0.4), (cap.radius - 1e-9, 3.0),
                  (cap.radius, 5.0), (0.0, 0.0), (1e-9, 0.5)]:
            edge = cap.radius - p[0] - spherical._REACH
            lengths = np.array([max(x, 0.0) for x in (edge - 1e-12, edge + 1e-12)]
                               + (rng.random(30) * 0.45).tolist()
                               + (rng.random(10) * 1.5).tolist())
            angles = rng.random(len(lengths)) * cap.sigma_at(p).length
            batches.append((p, angles, lengths))
            batches.append((p, angles, np.minimum(lengths, 0.5)))  # one sub-step each walk
        skip = [cap._walks(p, a, length) for p, a, length in batches]
        monkeypatch.setattr(spherical, "_REACH", math.inf)
        solve = [cap._walks(p, a, length) for p, a, length in batches]
        assert skip == solve
        events = {e for _, ev in skip for e in ev}
        assert {None, "boundary"} <= events
        for (p, angles, lengths), (ends, events) in zip(batches, skip):
            for a, length, end, event in zip(angles.tolist(), lengths.tolist(), ends, events):
                w = cap._walk(p, a, length)
                assert event == w.event
                assert TestBatchKernels._agree(False, end, w.end)


# lines that ask a space its variant, by file: none, every space answers
# the same queries
DISPATCH_RE = re.compile(r"\.variant (==|in|not in)|hasattr\(")
PLANAR_FAST_PATHS = collections.Counter()


def test_no_code_outside_the_planar_fast_paths_asks_a_space_its_variant():
    src = Path(__file__).resolve().parent.parent / "src" / "alexgeo"
    found = collections.Counter(
        (path.name, line.strip())
        for path in sorted(src.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if DISPATCH_RE.search(line)
    )
    assert found == PLANAR_FAST_PATHS


def _reads(name, tree):
    """(innermost enclosing function or None, read as a comparison operand)
    of each read of the global name in a module's syntax tree."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            up = parents[node]
            compared = isinstance(up, ast.Compare)
            while not isinstance(up, (ast.FunctionDef, ast.Module)):
                up = parents[up]
            reads.append((getattr(up, "name", None), compared))
    return reads


def test_each_walk_rule_has_one_copy():
    # the numpy `_walks` of the cone and the cap hand every special case to
    # `_walk` by `walk_each`, and the sphere sub-step serves both forms
    src = Path(__file__).resolve().parent.parent / "src" / "alexgeo"
    texts = {str(path.relative_to(src)): path.read_text(encoding="utf-8")
             for path in sorted(src.rglob("*.py"))}
    assert not [name for name, text in texts.items()
                if re.search(r"\b(_steps|event_list)\b", text)]
    reads = {name: _reads("REFUSED", ast.parse(text)) for name, text in texts.items()}
    assert reads.pop("spaces/base.py") == [("walk_each", False)]
    consumed = reads.pop("functions.py")
    assert consumed and all(compared for _, compared in consumed)
    assert not any(reads.values())
    for walks in (ConeSpace._walks, CapSpace._walks):
        assert '"vertex"' not in inspect.getsource(walks)


def test_each_distance_rule_has_one_copy():
    # the cone's chord and ray (with its through-apex test) and the sphere's
    # haversine are each one function over `m = FLOATS` or `m = ARRAYS`: the
    # kernels that call them compute no trigonometry of their own
    assert "_distances" not in vars(CapSpace) and "_distances" in vars(spherical._SphereBase)
    trig = {"sin", "cos", "hypot", "atan2", "asin", "sqrt"}
    for kernel in (ConeSpace._distance, ConeSpace._distances, ConeSpace._walk, ConeSpace._walks,
                   spherical._SphereBase._distance, spherical._SphereBase._distances):
        tree = ast.parse(textwrap.dedent(inspect.getsource(kernel)))
        called = {getattr(node.func, "attr", getattr(node.func, "id", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert not called & trig, kernel.__qualname__
