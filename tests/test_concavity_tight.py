import math

import numpy as np
import pytest

from alexgeo import concavity_tight, flow
from alexgeo.spaces import CapSpace, ConeSpace, PolygonSpace, SpindleSpace
from alexgeo.concavity_tight import (
    ConstructionError,
    build_strictly_concave,
    superlevel_convexity,
    tight_check,
    tight_image_study,
)
from alexgeo.functions import Dist, check_concavity, evaluate

PLANE = ConeSpace(2 * math.pi)
SQUARE = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])


class TestStrictlyConcave:
    def test_plane_bump_margin(self):
        p = (1.0, 0.5)
        expr, rep = build_strictly_concave(PLANE, p, r=0.5, c=50.0, n_points=4,
                                           n_geodesics=100, seed=1)
        assert rep.strict_margin > 0.0
        assert evaluate(expr, PLANE, p) == pytest.approx(0.0, abs=1e-12)

    def test_margin_grows_with_c(self):
        p = (1.0, 0.5)
        margins = []
        for c in (30.0, 60.0, 120.0):
            _, rep = build_strictly_concave(PLANE, p, r=0.5, c=c, n_points=4,
                                            n_geodesics=60, seed=2)
            margins.append(rep.strict_margin)
        assert margins[0] < margins[1] < margins[2]

    def test_insufficient_c_reports_failure(self):
        with pytest.raises(ConstructionError) as err:
            build_strictly_concave(PLANE, (1.0, 0.5), r=0.5, c=0.2, n_points=4,
                                   n_geodesics=80, seed=3)
        assert "retry with" in str(err.value)

    def test_superlevel_sets_convex(self):
        p = (0.5, 0.5)
        expr, _ = build_strictly_concave(SQUARE, p, r=0.4, c=50.0, n_points=4,
                                         seed=4)
        worst = superlevel_convexity(SQUARE, expr, p, level=-0.01, n_pairs=100,
                                     radius=0.3, seed=5)
        assert worst <= 1e-9


class TestTightCheck:
    def test_main_example_obtuse_comparison_angles(self):
        # angle(a0, p, a1) = 2pi/3 > pi/2: distance pair is tight near p
        p = (0.0, 0.0)
        a0 = (1.0, 0.0)
        a1 = (1.0, 2 * math.pi / 3)
        rep = tight_check(PLANE, [Dist(q=a0), Dist(q=a1)], (p, 0.05),
                          n_samples=100, seed=6)
        assert rep.tight
        assert rep.sup_cross < -0.3

    def test_equal_functions_not_tight(self):
        q = (1.0, 0.0)
        rep = tight_check(PLANE, [Dist(q=q), Dist(q=q)], ((2.0, 1.0), 0.05),
                          n_samples=50, seed=7)
        assert not rep.tight
        assert rep.sup_cross >= 0.0

    def test_three_points_around_square_center(self):
        c = (0.5, 0.5)
        pts = [(0.5 + 0.45 * math.cos(a), 0.5 + 0.45 * math.sin(a))
               for a in (0.3, 0.3 + 2 * math.pi / 3, 0.3 + 4 * math.pi / 3)]
        funcs = [Dist(q=q) for q in pts]
        rep = tight_check(SQUARE, funcs, (c, 0.04), n_samples=150, seed=8)
        assert rep.tight
        # every sampled point is a critical point of the full triple or not;
        # dropping one function leaves all samples regular
        rep2 = tight_check(SQUARE, funcs[:2], (c, 0.04), n_samples=150, seed=8)
        assert rep2.n_critical == 0

    def test_one_differential_per_function_per_sample(self, monkeypatch):
        calls = []
        for module in (concavity_tight, flow):
            def counted(expr, space, x, real=module.differential):
                calls.append(expr)
                return real(expr, space, x)
            monkeypatch.setattr(module, "differential", counted)
        funcs = [Dist(q=(1.0, 0.0)), Dist(q=(1.0, 2 * math.pi / 3))]
        tight_check(PLANE, funcs, ((0.0, 0.0), 0.05), n_samples=20, seed=6)
        assert len(calls) == 2 * 20


class TestImageStudy:
    def _three_bumps(self):
        centers = [(0.5 + 0.08 * math.cos(a), 0.5 + 0.08 * math.sin(a))
                   for a in (0.4, 0.4 + 2 * math.pi / 3, 0.4 + 4 * math.pi / 3)]
        funcs = []
        for c in centers:
            f, _ = build_strictly_concave(SQUARE, c, r=0.35, c=60.0,
                                          n_points=6, seed=9)
            funcs.append(f)
        return centers, funcs

    def test_square_three_coordinates(self):
        centers, funcs = self._three_bumps()
        rep = tight_image_study(SQUARE, funcs, ((0.5, 0.5), 0.05), grid_n=16,
                                n_support=150, n_gf=30, seed=10)
        assert rep.support_failures == 0
        assert rep.gf_worst < 1e-4
        assert 0.0 < rep.bilip_low <= rep.bilip_high < math.inf

    @pytest.mark.parametrize("space, center", [
        (ConeSpace(1.5 * math.pi), (0.6, 0.5)),
        (SpindleSpace(4.0), (0.8, 1.0)),
        (CapSpace(1.2), (0.5, 1.0)),
    ], ids=["cone-3pi/2", "spindle-4", "cap-1.2"])
    def test_off_the_square(self, space, center):
        funcs = [build_strictly_concave(space, (center[0] + 0.08 * math.cos(a),
                                                center[1] + 0.08 * math.sin(a)),
                                        r=0.35, c=60.0, n_points=6, seed=114)[0]
                 for a in (0.4, 0.4 + 2 * math.pi / 3, 0.4 + 4 * math.pi / 3)]
        rep = tight_image_study(space, funcs, (center, 0.1), grid_n=6,
                                n_support=20, n_gf=8, seed=115)
        assert rep.support_failures == 0
        assert rep.gf_worst < 1e-4

    def test_tie_at_the_top_ends_the_ascent(self):
        # one locator call reaches a point whose differential has two
        # separated maxima of 2.7e-12; the ascent stops there
        centers = [(0.5744582606061575, 0.47074307898111045),
                   (0.48810810653579456, 0.5791112057159793),
                   (0.43743363285804804, 0.4501457153029103)]
        funcs = [build_strictly_concave(SQUARE, c, r=0.35, c=60.0, n_points=6,
                                        n_geodesics=8, seed=402870709)[0]
                 for c in centers]
        rep = tight_image_study(SQUARE, funcs, ((0.5, 0.5), 0.05), grid_n=4,
                                n_support=6, n_gf=2, seed=402870709)
        assert rep.support_failures == 0
        assert rep.gf_worst < 1e-4

    def test_non_concave_coordinates_abort(self):
        with pytest.raises(ConstructionError):
            tight_image_study(SQUARE, [Dist(q=(0.2, 0.2)), Dist(q=(0.8, 0.8))],
                              ((0.5, 0.5), 0.1), grid_n=8, n_support=10,
                              n_gf=5, seed=11)

    def test_image_lies_above_chords(self):
        # concave coordinates: along a geodesic the image dominates the chord
        _, funcs = self._three_bumps()
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = SQUARE.random_point_near((0.5, 0.5), 0.05, rng)
            b = SQUARE.random_point_near((0.5, 0.5), 0.05, rng)
            pts = SQUARE.geodesic_points(a, b, 9)
            fa = [evaluate(f, SQUARE, a) for f in funcs]
            fb = [evaluate(f, SQUARE, b) for f in funcs]
            for i, x in enumerate(pts):
                s = i / 8.0
                for k, f in enumerate(funcs):
                    chord = (1 - s) * fa[k] + s * fb[k]
                    assert evaluate(f, SQUARE, x) >= chord - 1e-9
