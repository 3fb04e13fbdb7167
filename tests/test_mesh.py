import itertools
import math

import numpy as np
import pytest

from alexgeo.spaces import (
    MeshPoint,
    SpaceError,
    build_doubling,
    load_space,
    random_convex_polygon,
    random_tetrahedron,
    regular_tetrahedron,
)
from alexgeo.spaces.base import HALF_ARC
from alexgeo.spaces.mesh import MeshSpace


class TestRegularTetrahedron:
    def test_cone_angles(self):
        t = regular_tetrahedron()
        for v in range(4):
            assert t.cone_angle_at_vertex(v) == pytest.approx(math.pi)

    def test_vertex_distances_are_edges(self):
        t = regular_tetrahedron(edge=1.0)
        for v in range(4):
            for w in range(v + 1, 4):
                d = t.distance(t.point_at_vertex(v), t.point_at_vertex(w))
                assert d == pytest.approx(1.0)

    def test_vertex_to_opposite_face_center(self):
        # unfolding two faces flat: sqrt(1 + 1/3) = 2/sqrt(3)
        t = regular_tetrahedron()
        d = t.distance(t.point_at_vertex(0), (3, (1 / 3, 1 / 3, 1 / 3)))
        assert d == pytest.approx(2 / math.sqrt(3))

    def test_exact_error_bound_zero(self):
        t = regular_tetrahedron()
        rng = np.random.default_rng(1)
        for _ in range(30):
            d, err = t.distance_with_error(t.random_point(rng), t.random_point(rng))
            assert err == 0.0

    def test_graph_certificate_upper_bound(self):
        t = regular_tetrahedron()
        rng = np.random.default_rng(2)
        for _ in range(20):
            p, q = t.random_point(rng), t.random_point(rng)
            d = t.distance(p, q)
            assert d <= t.graph_upper_bound(p, q) + 1e-9


class TestWalks:
    def test_walk_reversibility(self):
        t = regular_tetrahedron()
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = t.random_point(rng)
            ang = rng.random() * 2 * math.pi
            w = t.walk(p, ang, 0.8)
            if w.event is not None:
                continue
            back = t.walk(w.end, w.back_angle, 0.8)
            assert t.distance(back.end, p) < 1e-9

    def test_walk_matches_distance_along_minimizers(self):
        t = regular_tetrahedron()
        rng = np.random.default_rng(4)
        for _ in range(20):
            p, q = t.random_point(rng), t.random_point(rng)
            d = t.distance(p, q)
            if d < 1e-6:
                continue
            w = t.walk(p, t.directions_to(p, q)[0], d)
            assert t.distance(w.end, q) < 1e-9

    def test_endpoint_vertex_snap(self):
        t = regular_tetrahedron()
        p = t.validate_point((0, (0.4, 0.35, 0.25)))
        u = t.charts[0][0] - complex(*t.pos2(p))
        d = abs(u)
        ang = t.chart_angle_of_dir(p, 0, u / d)
        w = t.walk(p, ang, d)
        assert w.event == "vertex" and w.event_ref == 0


class TestRandomTetrahedra:
    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            t = random_tetrahedron(rng)
            for _ in range(25):
                a, b, c = (t.random_point(rng) for _ in range(3))
                assert t.distance(a, c) <= t.distance(a, b) + t.distance(b, c) + 1e-9

    def test_cone_angle_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            t = random_tetrahedron(rng)
            total = sum(t.cone_angle_at_vertex(v) for v in range(4))
            for v in range(4):
                assert t.cone_angle_at_vertex(v) < 2 * math.pi
            # Gauss-Bonnet on a sphere-type surface: total defect 4*pi
            assert 8 * math.pi - total == pytest.approx(4 * math.pi)


class TestIntrinsicConstruction:
    def test_intrinsic_lengths_match_embedded(self):
        t = regular_tetrahedron()
        s = MeshSpace([list(f) for f in t.faces], edge_lengths=t.edge_lengths)
        rng = np.random.default_rng(7)
        for _ in range(10):
            p, q = t.random_point(rng), t.random_point(rng)
            assert s.distance(p, q) == pytest.approx(t.distance(p, q), abs=1e-12)

    def test_point_roundtrip(self):
        t = regular_tetrahedron()
        p = t.validate_point((2, (0.25, 0.3, 0.45)))
        back = t.bary(2, complex(*t.pos2(p)))
        assert back.bary == pytest.approx(p.bary)


def _jittered_hull(rng, pts):
    """Boundary of a regular solid, its vertices moved radially by up to 5%.

    The faces are the vertex triples at the (shortest) edge length, so the
    solid is built from its coordinates alone.
    """
    pts = np.asarray(pts, dtype=float)
    edge = min(np.linalg.norm(a - b) for a, b in itertools.combinations(pts, 2))
    faces = [t for t in itertools.combinations(range(len(pts)), 3)
             if all(abs(np.linalg.norm(pts[i] - pts[j]) - edge) < 1e-9
                    for i, j in itertools.combinations(t, 2))]
    while True:
        moved = pts * (0.95 + 0.1 * rng.random((len(pts), 1)))
        try:
            return _embedded(faces, moved)
        except SpaceError:
            continue


def _embedded(faces, coords):
    """Mesh with the given faces and 3-D vertices, and its embedding."""
    mesh = MeshSpace(faces, coords=coords)
    return mesh, lambda p: sum(b * coords[v] for b, v in zip(p.bary, mesh.faces[p.face]))


def _tetrahedron(rng):
    return _embedded(list(itertools.combinations(range(4), 3)), rng.normal(size=(4, 3)))


def _octahedron(rng):
    return _jittered_hull(rng, [s * e for e in np.eye(3) for s in (1.0, -1.0)])


def _icosahedron(rng):
    g = (1.0 + math.sqrt(5.0)) / 2.0
    pts = []
    for a, b in itertools.product((1.0, -1.0), repeat=2):
        pts += [(0.0, a, b * g), (a, b * g, 0.0), (b * g, 0.0, a)]
    return _jittered_hull(rng, pts)


def _doubled_heptagon(rng):
    # both sheets lie on the polygon, so the projection is 1-Lipschitz
    mesh = build_doubling(random_convex_polygon(rng, 7, 7))
    return mesh, lambda p: np.array(mesh.project(p))


def _open_pyramid(rng):
    # four sides over a square with no base: the corners are boundary vertices
    coords = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0],
                       [-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]])
    coords += 0.1 * rng.random(coords.shape)
    return _embedded([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)], coords)


def _total_angle(mesh, v):
    """Sum of the face angles at vertex v, from the face charts."""
    total = 0.0
    for f, ch in zip(mesh.faces, mesh.charts):
        if v in f:
            c = f.index(v)
            u, w = ch[(c + 1) % 3] - ch[c], ch[(c + 2) % 3] - ch[c]
            total += math.acos((u.conjugate() * w).real / (abs(u) * abs(w)))
    return total


class TestDeeperMeshes:
    """The unfolding search against chord, graph-bound and walk oracles."""

    @pytest.mark.parametrize("build, seed", [(_octahedron, 11), (_icosahedron, 12),
                                             (_doubled_heptagon, 13), (_tetrahedron, 15),
                                             (_tetrahedron, 16), (_tetrahedron, 17),
                                             (_open_pyramid, 18)])
    def test_distances_against_oracles_and_walks(self, build, seed):
        rng = np.random.default_rng(seed)
        mesh, position = build(rng)
        for _ in range(3):
            p = mesh.random_point(rng)
            qs = [mesh.random_point(rng) for _ in range(4)]
            qs.append(mesh.point_at_vertex(int(rng.integers(mesh.nv))))
            many = mesh.distances_from(p, qs)
            for q, (d_many, err_many) in zip(qs, many):
                d, err = mesh.distance_with_error(p, q)
                assert abs(d_many - d) <= 1e-9
                assert err == err_many == 0.0
                assert np.linalg.norm(position(p) - position(q)) <= d + 1e-9
                assert d <= mesh.graph_upper_bound(p, q) + 1e-9
                dirs = mesh.directions_to(p, q)
                assert dirs
                for ang in dirs:
                    assert mesh.distance(mesh.walk(p, ang, d).end, q) <= 1e-7
        # from each vertex the walks reach a random point and every other
        # vertex, and short walks end as far apart as in a Euclidean cone
        # with the vertex's angle
        s = 1e-3 * min(mesh.edge_lengths.values())
        for v in range(mesh.nv):
            p = mesh.point_at_vertex(v)
            targets = [mesh.random_point(rng)]
            targets += [mesh.point_at_vertex(w) for w in range(mesh.nv) if w != v]
            for q in targets:
                d = mesh.distance(p, q)
                for ang in mesh.directions_to(p, q):
                    assert mesh.distance(mesh.walk(p, ang, d).end, q) <= 1e-7
            sig = mesh.sigma_at(p)
            assert sig.length == pytest.approx(_total_angle(mesh, v), abs=1e-9)
            for a, b in itertools.combinations(rng.random(4) * sig.length, 2):
                gap = min(sig.dist(a, b), math.pi)
                ends = mesh.walk(p, a, s).end, mesh.walk(p, b, s).end
                assert mesh.distance(*ends) == pytest.approx(2 * s * math.sin(gap / 2),
                                                             abs=1e-9)

    def test_walks_from_tetrahedron_vertices(self):
        t = regular_tetrahedron()
        rng = np.random.default_rng(14)
        for v in range(4):
            p = t.point_at_vertex(v)
            for q in (t.random_point(rng) for _ in range(4)):
                d = t.distance(p, q)
                dirs = t.directions_to(p, q)
                assert dirs
                for ang in dirs:
                    assert t.distance(t.walk(p, ang, d).end, q) <= 1e-7


def _planar(faces, xy):
    """Flat mesh of the given faces over 2-D vertices, and a point locator."""
    xy = np.asarray(xy, dtype=float)
    mesh = MeshSpace(faces, coords=np.column_stack([xy, np.zeros(len(xy))]))

    def locate(x, y):
        # barycentrics in the face order the mesh keeps after orienting
        for fi, f in enumerate(mesh.faces):
            a, b, c = xy[list(f)]
            T = np.column_stack([a - c, b - c])
            l0, l1 = np.linalg.solve(T, np.array([x, y]) - c)
            bary = (float(l0), float(l1), float(1.0 - l0 - l1))
            if min(bary) >= -1e-12:
                return MeshPoint(fi, tuple(max(t, 0.0) for t in bary))
        raise AssertionError(f"({x}, {y}) lies in no face")

    return mesh, locate


# a unit square fanned from its centre, vertex 4
_FAN_SQUARE = ([(4, 0, 1), (4, 1, 2), (4, 2, 3), (4, 3, 0)],
               [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
# a unit square with vertex 4 at the midpoint of its bottom edge
_SPLIT_SQUARE = ([(0, 4, 3), (4, 2, 3), (4, 1, 2)],
                 [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0)])
# [0,2]x[0,1] and [0,1]x[1,2]: vertex 4 is the reflex corner (angle 3pi/2)
_L_SHAPE = ([(0, 1, 4), (0, 4, 7), (1, 2, 3), (1, 3, 4), (7, 4, 5), (7, 5, 6)],
            [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 1)])


class TestPassThroughRouting:
    """Shortest paths through flat, straight-boundary and reflex vertices."""

    @pytest.mark.parametrize("shape, pass_through, p, q, exact", [
        # along the diagonal, on the fan edges through the centre
        (_FAN_SQUARE, [4], (0.1, 0.1), (0.8, 0.8), 0.7 * math.sqrt(2.0)),
        # across the centre from one face to the opposite one
        (_FAN_SQUARE, [4], (0.2, 0.4), (0.8, 0.6), math.sqrt(0.4)),
        # along the bottom edge, over its midpoint
        (_SPLIT_SQUARE, [4], (0.2, 0.0), (0.9, 0.0), 0.7),
        # around the reflex corner (1, 1); vertices 1 and 7 are straight
        (_L_SHAPE, [1, 4, 7], (1.8, 0.5), (0.5, 1.8), 2.0 * math.sqrt(0.89)),
    ])
    def test_distance_through_a_vertex(self, shape, pass_through, p, q, exact):
        mesh, locate = _planar(*shape)
        assert mesh.pass_through == pass_through
        p, q = locate(*p), locate(*q)
        assert mesh.distance_with_error(p, q) == (pytest.approx(exact, abs=1e-12), 0.0)
        assert mesh.distance_with_error(q, p)[0] == pytest.approx(exact, abs=1e-12)
        (d, err), = mesh.distances_from(p, [q])
        assert d == pytest.approx(exact, abs=1e-12) and err == 0.0
        # walks stop at the vertex, so the samples follow the path in pieces
        geo = mesh.geodesic_points(p, q, 5)
        assert mesh.distance(geo[-1], q) <= 1e-9
        xy = np.asarray(shape[1], dtype=float)
        pts = [xy[list(mesh.faces[x.face])].T @ np.array(x.bary) for x in geo]
        for a, b in zip(pts, pts[1:]):
            assert np.linalg.norm(b - a) <= d / 4 + 1e-9

    def test_walk_stops_at_an_open_edge(self):
        # from face (0, 4, 7) across the diagonal 0-4, out through the
        # open bottom edge 0-1 at (0.9, 0)
        mesh, locate = _planar(*_L_SHAPE)
        p, q = locate(0.2, 0.6), locate(0.9, 0.0)
        (ang,) = mesh.directions_to(p, q)
        w = mesh.walk(p, ang, 2.0)
        assert w.event == "boundary" and w.sigma == HALF_ARC
        assert w.traveled == pytest.approx(math.hypot(0.7, 0.6), abs=1e-12)
        xy = np.asarray(_L_SHAPE[1], dtype=float)
        end = xy[list(mesh.faces[w.end.face])].T @ np.array(w.end.bary)
        assert end == pytest.approx([0.9, 0.0], abs=1e-12)

    @pytest.mark.parametrize("offset", [3e-5, -3e-5])
    def test_geodesic_passing_near_a_flat_vertex(self, offset):
        # the path runs 1e-5 from the flat centre; a route bent there is
        # within 1e-7 of its length but is no geodesic, so it is no direction
        mesh, locate = _planar(*_FAN_SQUARE)
        p, q = locate(0.2, 0.4), locate(0.8, 0.6 + 2.0 * offset)
        d = mesh.distance(p, q)
        (ang,) = mesh.directions_to(p, q)
        assert mesh.distance(mesh.walk(p, ang, d).end, q) < 1e-9
        end = mesh.geodesic_points(p, q, 5)[-1]
        assert mesh.distance(end, q) < 1e-9

    @pytest.mark.parametrize("build, seed", [(_octahedron, 21), (_icosahedron, 22),
                                             (_tetrahedron, 23), (_tetrahedron, 24),
                                             (lambda rng: (regular_tetrahedron(), None), 25)])
    def test_cone_points_route_nothing(self, build, seed):
        rng = np.random.default_rng(seed)
        mesh, _ = build(rng)
        assert mesh.pass_through == []
        for _ in range(2):
            p = mesh.random_point(rng)
            qs = [mesh.random_point(rng) for _ in range(5)]
            qs += [mesh.point_at_vertex(v) for v in range(mesh.nv)]
            for q, many in zip(qs, mesh.distances_from(p, qs)):
                # equal up to the rounding of the unfolded chain that wins
                assert many == pytest.approx(mesh.distance_with_error(p, q), abs=1e-12)


def _subdivided_tetrahedron(k):
    """`regular_tetrahedron()` with each face cut into k*k flat triangles, and a
    map of its points onto the uncut tetrahedron through their 3-D positions."""
    uncut = regular_tetrahedron()
    c = 1.0 / (2.0 * math.sqrt(2.0))
    corners = np.array([(c, c, c), (c, -c, -c), (-c, c, -c), (-c, -c, c)])
    ids, pts, faces = {}, [], []

    def vid(x):
        key = tuple(np.round(x, 12))
        if key not in ids:
            ids[key] = len(pts)
            pts.append(x)
        return ids[key]

    for f in uncut.faces:
        a, b, cc = corners[list(f)]
        grid = {(i, j): vid(a + (i * (b - a) + j * (cc - a)) / k)
                for i in range(k + 1) for j in range(k + 1 - i)}
        for i in range(k):
            for j in range(k - i):
                faces.append((grid[i, j], grid[i + 1, j], grid[i, j + 1]))
                if i + j < k - 1:
                    faces.append((grid[i + 1, j], grid[i + 1, j + 1], grid[i, j + 1]))
    mesh, position = _embedded(faces, np.array(pts))

    def to_uncut(p):
        x = position(p)
        for fi, f in enumerate(uncut.faces):
            a, b, cc = corners[list(f)]
            (l0, l1), *_ = np.linalg.lstsq(np.column_stack([a - cc, b - cc]), x - cc,
                                           rcond=None)
            bary = (float(l0), float(l1), float(1.0 - l0 - l1))
            if min(bary) >= -1e-12 and np.linalg.norm(
                    l0 * a + l1 * b + (1.0 - l0 - l1) * cc - x) < 1e-12:
                return MeshPoint(fi, tuple(max(t, 0.0) for t in bary))
        raise AssertionError(f"{x} lies on no face of the tetrahedron")

    return mesh, position, uncut, to_uncut


class TestPseudoSourceOracles:
    """The one unfolding search against closed forms through pass-through vertices."""

    @pytest.mark.parametrize("k, seed", [(2, 51), (3, 52)])
    def test_subdivided_tetrahedron_is_the_tetrahedron(self, k, seed):
        # every vertex the cuts add is flat: no root, the closed windows cover it
        rng = np.random.default_rng(seed)
        mesh, position, uncut, to_uncut = _subdivided_tetrahedron(k)
        flat = mesh.pass_through
        assert len(mesh.faces) == 4 * k * k and len(flat) == mesh.nv - 4
        assert not mesh.has_boundary
        pairs = [(mesh.random_point(rng), mesh.random_point(rng)) for _ in range(12)]
        for v in flat:
            # on one straight line through the flat vertex, either side of it
            ang = rng.random() * 2.0 * math.pi
            ends = [mesh.walk(mesh.point_at_vertex(v), a, 0.05 + 0.2 * rng.random()).end
                    for a in (ang, ang + math.pi)]
            pairs.append(tuple(ends))
        for p, q in pairs:
            d = mesh.distance(p, q)
            assert d == pytest.approx(uncut.distance(to_uncut(p), to_uncut(q)), abs=1e-12)
            assert np.linalg.norm(position(p) - position(q)) <= d + 1e-12
            assert d <= mesh.graph_upper_bound(p, q) + 1e-9
            assert mesh.distance(mesh.geodesic_points(p, q, 5)[-1], q) <= 1e-9
            if d < 0.1:
                continue
            # first variation: the derivative of d along theta is -cos of the
            # angle to the nearest minimizing direction, up to O(t / d)
            dirs, sigma, t = mesh.directions_to(p, q), mesh.sigma_at(p), 1e-6
            for theta in rng.random(3) * sigma.length:
                slope = (mesh.distance(mesh.walk(p, theta, t).end, q) - d) / t
                assert slope == pytest.approx(
                    -max(math.cos(sigma.dist(theta, a)) for a in dirs), abs=1e-4)

    def test_one_search_per_query(self, monkeypatch):
        # on a cold cache: no vertex table and no second search from q
        mesh, locate = _planar(*_L_SHAPE)
        calls, unfold = [], MeshSpace._unfold
        monkeypatch.setattr(MeshSpace, "_unfold",
                            lambda self, *args: calls.append(1) or unfold(self, *args))
        p, q = locate(1.8, 0.5), locate(0.5, 1.8)
        assert mesh.distance(p, q) == pytest.approx(2.0 * math.sqrt(0.89), abs=1e-12)
        # directions and the geodesic of the same pair read that one search
        dirs, geo = mesh.directions_to(p, q), mesh.geodesic_points(p, q, 5)
        assert len(calls) == 1
        mesh.distances_from(p, [q, locate(0.2, 0.2)])
        assert len(calls) == 2
        assert len(dirs) == 1 and mesh.distance(geo[-1], q) <= 1e-9

    def test_call_order_does_not_matter(self):
        # from the midpoint of edge (0, 1) of the regular tetrahedron to the
        # midpoint of the opposite edge (2, 3): d = 1 over each of the four faces
        c = 1.0 / (2.0 * math.sqrt(2.0))
        corners = np.array([(c, c, c), (c, -c, -c), (-c, c, -c), (-c, -c, c)])

        def midpoint(mesh, a, b):
            fi, f = next((fi, f) for fi, f in enumerate(mesh.faces) if {a, b} <= set(f))
            return MeshPoint(fi, tuple(0.5 if v in (a, b) else 0.0 for v in f))

        def position(mesh, x):
            return sum(w * corners[v] for w, v in zip(x.bary, mesh.faces[x.face]))

        queries = {"distance": lambda m, p, q: m.distance(p, q),
                   "directions_to": lambda m, p, q: m.directions_to(p, q),
                   "geodesic_points": lambda m, p, q: m.geodesic_points(p, q, 9)}
        first = None
        for order in itertools.permutations(queries):
            mesh = regular_tetrahedron()
            p, q = midpoint(mesh, 0, 1), midpoint(mesh, 2, 3)
            out = {name: queries[name](mesh, p, q) for name in order}
            d, dirs = out["distance"], out["directions_to"]
            assert d == pytest.approx(1.0, abs=1e-12)
            assert dirs == pytest.approx([k * math.pi / 3 for k in (1, 2, 4, 5)], abs=1e-6)
            for ang in dirs:
                end = mesh.walk(p, ang, d).end
                assert np.linalg.norm(position(mesh, end) - position(mesh, q)) <= 1e-9
            first = first or out
            assert out == first

    def test_reflex_corner(self):
        # the path bends at the corner c = (1, 1) exactly when the segment
        # crosses the open notch (1, 2) x (1, 2) of the L
        mesh, locate = _planar(*_L_SHAPE)
        rng = np.random.default_rng(53)
        c = np.array([1.0, 1.0])

        def crosses_notch(a, b):
            lo, hi = 0.0, 1.0
            for x0, x1 in zip(a, b):
                if x0 == x1:
                    if not 1.0 < x0 < 2.0:
                        return False
                    continue
                t0, t1 = sorted(((1.0 - x0) / (x1 - x0), (2.0 - x0) / (x1 - x0)))
                lo, hi = max(lo, t0), min(hi, t1)
            return hi - lo > 1e-12

        def sample():
            while True:
                x = 2.0 * rng.random(2)
                if min(x) <= 1.0:
                    return x

        bent = 0
        for _ in range(200):
            a, b = sample(), sample()
            if crosses_notch(a, b):
                bent += 1
                exact = np.linalg.norm(a - c) + np.linalg.norm(c - b)
            else:
                exact = np.linalg.norm(a - b)
            p, q = locate(*a), locate(*b)
            assert mesh.distance(p, q) == pytest.approx(exact, abs=1e-12)
            assert mesh.distance(mesh.geodesic_points(p, q, 5)[-1], q) <= 1e-9
        assert bent >= 10


def _geodesic_sphere(rng, levels):
    """An icosahedron subdivided `levels` times onto the unit sphere, its
    vertices then moved radially by up to 0.2%, and its embedding."""
    g = (1.0 + math.sqrt(5.0)) / 2.0
    pts = []
    for a, b in itertools.product((1.0, -1.0), repeat=2):
        pts += [(0.0, a, b * g), (a, b * g, 0.0), (b * g, 0.0, a)]
    pts = [np.array(x) / np.linalg.norm(x) for x in pts]
    edge = min(np.linalg.norm(a - b) for a, b in itertools.combinations(pts, 2))
    faces = [t for t in itertools.combinations(range(12), 3)
             if all(abs(np.linalg.norm(pts[i] - pts[j]) - edge) < 1e-9
                    for i, j in itertools.combinations(t, 2))]
    for _ in range(levels):
        mids = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in mids:
                x = pts[i] + pts[j]
                pts.append(x / np.linalg.norm(x))
                mids[key] = len(pts) - 1
            return mids[key]

        finer = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            finer += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = finer
    while True:
        moved = np.array(pts) * (1.0 + 0.002 * (2.0 * rng.random((len(pts), 1)) - 1.0))
        try:
            return _embedded(faces, moved)
        except SpaceError:
            continue


class TestExactSearch:
    """The unfolding search is exhaustive: every distance is exact."""

    @pytest.mark.parametrize("levels, seed", [(1, 41), (2, 42)])
    def test_jittered_geodesic_spheres(self, levels, seed):
        # 80 and 320 faces: the shortest paths drawn here cross up to 9 and 19 edges
        rng = np.random.default_rng(seed)
        mesh, position = _geodesic_sphere(rng, levels)
        assert len(mesh.faces) == 20 * 4 ** levels and mesh.pass_through == []
        for _ in range(4):
            p = mesh.random_point(rng)
            qs = [mesh.random_point(rng) for _ in range(4)]
            for q, many in zip(qs, mesh.distances_from(p, qs)):
                d, err = mesh.distance_with_error(p, q)
                assert err == 0.0 and many == (d, err)
                assert np.linalg.norm(position(p) - position(q)) <= d + 1e-9
                assert d <= mesh.graph_upper_bound(p, q) + 1e-9
                dirs = mesh.directions_to(p, q)
                assert dirs
                for ang in dirs:
                    assert mesh.distance(mesh.walk(p, ang, d).end, q) <= 1e-7

    def test_a_search_depth_field_is_ignored(self):
        # the faces are one vertex from each antipodal pair, so face 7 - i is
        # opposite face i; a path between them crosses three edges
        coords = [list(s * e) for e in np.eye(3) for s in (1.0, -1.0)]
        faces = [list(f) for f in itertools.product((0, 1), (2, 3), (4, 5))]
        mesh = load_space({"type": "mesh", "triangles": faces, "coords": coords,
                           "max_depth": 1})
        centre = (1 / 3, 1 / 3, 1 / 3)
        for i in range(8):
            # a strip of four faces: sqrt(1.5**2 + 1/12) times the edge sqrt(2)
            d = mesh.distance_with_error(MeshPoint(i, centre), MeshPoint(7 - i, centre))
            assert d == (pytest.approx(math.sqrt(14 / 3), abs=1e-12), 0.0)
