import math

import numpy as np
import pytest

from alexgeo.spaces import (
    CapSpace,
    ConeSpace,
    PolygonSpace,
    random_convex_polygon,
    regular_tetrahedron,
)
from alexgeo.extremal import (
    SubsetDescriptor,
    _argmin_on_subset,
    boundary_edge_path,
    cap_boundary_concavity,
    detect_extremal,
    distance_regularity,
    lieberman_check,
    polygon_boundary_concavity,
    verify_extremal,
)
from alexgeo.flow import gradient
from alexgeo.functions import Dist, differential
from alexgeo.tangent import directional_sup
from alexgeo.verdict import passed

SQUARE = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])


class TestDetect:
    def test_narrow_cone_apex_detected(self):
        cands = detect_extremal(ConeSpace(math.pi * 0.9), verify=False)
        kinds = [c.kind for c, _ in cands]
        assert "point" in kinds

    def test_plane_has_no_proper_subsets(self):
        cands = detect_extremal(ConeSpace(2 * math.pi), verify=False)
        assert all(c.kind in ("whole", "empty") for c, _ in cands)

    def test_wide_cone_apex_not_extremal(self):
        cands = detect_extremal(ConeSpace(1.5 * math.pi), verify=False)
        assert all(c.kind in ("whole", "empty") for c, _ in cands)

    def test_square_boundary_and_corners(self):
        cands = detect_extremal(SQUARE, verify=False)
        kinds = [c.kind for c, _ in cands]
        assert kinds.count("boundary") == 1
        assert kinds.count("point") == 4  # right-angle corners
        assert [c.label for c, _ in cands] == (
            ["whole space", "empty set", "polygon boundary"]
            + [f"corner {i} (angle {math.pi / 2:.6f})" for i in range(4)])
        assert [c.point for c, _ in cands[3:]] == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_tetrahedron_vertices(self):
        cands = detect_extremal(regular_tetrahedron(), verify=False)
        assert sum(1 for c, _ in cands if c.kind == "point") == 4

    def test_cap_boundary(self):
        cands = detect_extremal(CapSpace(0.8), verify=False)
        assert [(c.kind, c.label) for c, _ in cands] == [
            ("whole", "whole space"), ("empty", "empty set"), ("boundary", "cap boundary")]


class TestVerify:
    def test_square_boundary_passes(self):
        ev = verify_extremal(SQUARE, SubsetDescriptor("boundary"), n_funcs=8,
                             n_steps=30, seed=1)
        assert passed(ev.margins(1e-6))

    def test_narrow_apex_fixed_by_flows(self):
        c = ConeSpace(math.pi / 2)
        ev = verify_extremal(c, SubsetDescriptor("point", (0.0, 0.0)),
                             n_funcs=6, n_steps=30, seed=2)
        assert passed(ev.margins(1e-9))

    def test_foot_point_gradient_vanishes(self):
        # interior q: the nearest boundary point is a critical point of dist_q
        q = (0.4, 0.6)
        p = (0.4, 1.0)  # foot on the top edge
        g = gradient(Dist(q=q), SQUARE, p)
        assert g.norm == 0.0

    def test_non_extremal_probe_fails(self):
        # a generic interior point is not extremal: flows push it around
        ev = verify_extremal(SQUARE, SubsetDescriptor("point", (0.33, 0.41)),
                             n_funcs=8, n_steps=40, seed=3)
        assert not passed(ev.margins(1e-6))

    def test_wide_apex_criterion_fails(self):
        c = ConeSpace(1.5 * math.pi)
        ev = verify_extremal(c, SubsetDescriptor("point", (0.0, 0.0)),
                             n_funcs=8, n_steps=40, seed=4)
        assert not passed(ev.margins(1e-6))


class TestExactFoot:
    """The boundary point nearest to q is the end of one walk from q, so the
    criterion at it reads rounding, not a search's tolerance."""

    SPACES = {"square": lambda: SQUARE,
              "cap_0.8": lambda: CapSpace(0.8),
              "hemisphere": lambda: CapSpace(math.pi / 2)}
    SPACES.update({f"polygon_{k}": (lambda k=k: random_convex_polygon(
        np.random.default_rng(20 + k))) for k in range(3)})

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_criterion_at_the_foot(self, name):
        space = self.SPACES[name]()
        ev = verify_extremal(space, SubsetDescriptor("boundary"), n_funcs=8, n_steps=10,
                             seed=11)
        assert ev.n_criterion >= 6 and ev.criterion_worst <= 1e-12

    @pytest.mark.parametrize("q", [(0.3, 0.3), (0.8, 0.2), (0.5, 0.5)])
    def test_tied_feet_on_the_medial_axis(self, q):
        # two feet (four at the centre) tie; the walk ends on one of them
        p = _argmin_on_subset(SQUARE, SubsetDescriptor("boundary"), q)
        assert SQUARE.boundary_dist(p) <= 1e-15
        assert SQUARE.distance(p, q) == pytest.approx(SQUARE.boundary_dist(q), abs=1e-15)
        assert directional_sup(differential(Dist(q=q), SQUARE, p))[0] <= 1e-12


class TestLiebermanAndRegularity:
    def test_square_boundary_geodesics_are_quasigeodesics(self):
        rep = lieberman_check(SQUARE, start_s=0.35, n_probes=10, seed=5)
        assert passed(rep.margins(1e-6))

    @pytest.mark.parametrize("start_s", [0.35, 2.7])
    def test_boundary_path_samples_each_corner_it_passes(self, start_s):
        # 0.9 of the perimeter from s = 0.35 passes the corners at s = 1, 2, 3;
        # from s = 2.7 it passes s = 3, 4, 5, 6, past vertex 0 into the next lap
        rec = boundary_edge_path(SQUARE, start_s, 3.6)
        passed_s = [s for s in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0) if start_s < s < start_s + 3.6]
        corners = [(t, ref) for t, kind, ref in rec.events if kind == "corner"]
        assert [ref for _, ref in corners] == [int(s) % 4 for s in passed_s]
        for (t, ref), s in zip(corners, passed_s):
            assert t == pytest.approx(s - start_s, abs=1e-12)
            i = rec.ts.index(t)
            assert rec.points[i] == tuple(SQUARE.vertices[ref])
        assert rec.ts[-1] == pytest.approx(3.6, abs=1e-12)

    def test_regularity_floor_positive(self):
        floor = distance_regularity(SQUARE, SubsetDescriptor("boundary"),
                                    band=(1e-3, 0.2), n_samples=60, seed=6)
        assert floor > 0.9  # unit gradient off the medial axis


class TestBoundaryConcavity:
    def test_square(self):
        assert polygon_boundary_concavity(SQUARE, n_chords=200, seed=7) <= 1e-9

    def test_random_polygons(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            poly = random_convex_polygon(rng)
            assert polygon_boundary_concavity(poly, n_chords=100, seed=9) <= 1e-9

    def test_cap_sine_distance(self):
        cap = CapSpace(0.8)
        assert cap_boundary_concavity(cap, n_chords=25, n_samples=2001, seed=10) <= 1e-8

    def test_lytchak_perimeter_bound(self):
        for r0 in (0.3, 0.8, math.pi / 2):
            cap = CapSpace(r0)
            assert cap.boundary_length() <= 2 * math.pi + 1e-12
