import ast
import math
from pathlib import Path

import numpy as np
import pytest

from alexgeo.spaces import ConeSpace, PolygonSpace
from alexgeo.functions import BoundaryDist, Dist, DistSq, evaluate, scale
from alexgeo.flow import (
    gradient,
    gradient_curve,
    length_element_check,
    verify_distance_estimates,
)
from alexgeo.radial import radial_curve

PLANE = ConeSpace(2 * math.pi)
SQUARE = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])
QUAD = scale(-0.5, DistSq(q=(0.0, 0.0)))  # -|x|^2/2, gradient flow x e^{-t}


class TestGradientCurve:
    @pytest.mark.parametrize("T", [-1.0, math.nan])
    def test_negative_time_rejected(self, T):
        with pytest.raises(ValueError, match="T >= 0"):
            gradient_curve(QUAD, PLANE, (2.0, 0.7), T, 1e-3)

    def test_quadratic_flow_matches_exponential(self):
        p = (2.0, 0.7)
        rec = gradient_curve(QUAD, PLANE, p, 1.0, 1e-3)
        end = rec.points[-1]
        assert end[0] == pytest.approx(2.0 * math.exp(-1.0), abs=2e-3)
        assert end[1] == pytest.approx(0.7, abs=1e-12)

    def test_first_order_convergence(self):
        p = (2.0, 0.7)
        exact = 2.0 * math.exp(-1.0)
        errs = [abs(gradient_curve(QUAD, PLANE, p, 1.0, h).points[-1][0] - exact)
                for h in (4e-3, 2e-3, 1e-3)]
        assert errs[0] / errs[1] > 1.8
        assert errs[1] / errs[2] > 1.8

    def test_distance_function_moves_straight_away(self):
        f = Dist(q=(1.0, 0.0))
        rec = gradient_curve(f, PLANE, (2.0, 0.0), 0.5, 1e-3)
        end = rec.points[-1]
        assert end == pytest.approx((2.5, 0.0))
        for rt in rec.right_tangents[:-1]:
            assert rt.norm == pytest.approx(1.0)

    def test_stop_event_and_hold(self):
        # gradient of dist from q at the apex of a narrow cone is zero
        c = ConeSpace(math.pi / 2)
        rec = gradient_curve(Dist(q=(1.0, 0.2)), c, (0.0, 0.0), 0.3, 1e-2)
        assert any(kind == "stop" for _, kind, _ in rec.events)
        assert rec.points[-1] == pytest.approx((0.0, 0.0))

    def test_semigroup(self):
        p = (1.7, 1.1)
        h = 1e-3
        one = gradient_curve(QUAD, PLANE, p, 0.7, h).end()
        half = gradient_curve(QUAD, PLANE, p, 0.3, h).end()
        two = gradient_curve(QUAD, PLANE, half, 0.4, h).end()
        assert PLANE.distance(one, two) <= 2.0 * 4.0 * h

    def test_flow_map(self):
        pts = [(1.0, 0.0), (2.0, 1.0)]
        out = [gradient_curve(QUAD, PLANE, p, 0.5, 1e-3).end() for p in pts]
        for (r0, a0), (r1, a1) in zip(pts, out):
            assert r1 == pytest.approx(r0 * math.exp(-0.5), abs=2e-3)

    def test_apex_start_speed_and_self_convergence(self):
        # flow of a distance function launched at a wide-cone apex: the
        # initial speed is the apex gradient norm and halving the step
        # halves the endpoint error
        cone = ConeSpace(1.5 * math.pi)
        f = Dist(q=(1.0, 0.2))
        rec = gradient_curve(f, cone, (0.0, 0.0), 0.5, 1e-3)
        assert rec.right_tangents[0].norm == pytest.approx(math.sqrt(2) / 2)
        ends = [gradient_curve(f, cone, (0.0, 0.0), 0.5, h).end()
                for h in (4e-3, 2e-3, 1e-3)]
        e1 = cone.distance(ends[0], ends[2])
        e2 = cone.distance(ends[1], ends[2])
        assert e2 <= 0.75 * e1 + 1e-12


CONE = ConeSpace(1.5 * math.pi)


class TestGrid:
    """Gradient and radial records share one grid, 0, h, 2h, ..., that ends at T."""

    def test_zero_time_records_the_start_point(self):
        rec = gradient_curve(QUAD, PLANE, (2.0, 0.7), 0.0, 1e-3)
        assert (rec.ts, rec.points, rec.events) == ([0.0], [(2.0, 0.7)], [])

    @pytest.mark.parametrize("T, n_points", [(0.0105, 12), (1.2, 1201)])
    def test_grid_ends_at_T(self, T, n_points):
        # 0.0105 is no multiple of h; summing 1200 steps of 1e-3 falls
        # short of 1.2 by a rounding remainder, which is no step
        for rec in (gradient_curve(QUAD, PLANE, (2.0, 0.7), T, 1e-3),
                    radial_curve(PLANE, (2.0, 0.7), 0.3, 0, T, 1e-3)):
            assert rec.ts[-1] == T
            assert len(rec.ts) == len(rec.points) == n_points

    def test_a_stop_after_a_vertex_is_recorded_once(self):
        # the flow of -dist to the apex reaches it inside a step and stays
        rec = gradient_curve(scale(-1.0, Dist(q=(0.0, 0.0))), CONE, (0.105, 0.3), 0.5, 0.01)
        assert [kind for _, kind, _ in rec.events] == ["vertex", "stop"]
        assert rec.points[-1] == (0.0, 0.0)


def test_one_step_loop_walks_for_gradient_and_radial_curves():
    # `FlowStepper.step` walks every curve: gradient and radial curves,
    # quasigeodesic traces and the boundary path, which has no loop of its own
    src = Path(__file__).resolve().parent.parent / "src" / "alexgeo"
    assert sum((src / name).read_text(encoding="utf-8").count("_walk(")
               for name in ("flow.py", "radial.py", "quasigeodesic.py")) == 1
    tree = ast.parse((src / "extremal.py").read_text(encoding="utf-8"))
    path = next(f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name == "boundary_edge_path")
    assert not [n for n in ast.walk(path)
                if isinstance(n, (ast.For, ast.While, ast.comprehension))]


class TestDistanceEstimates:
    def test_quadratic_contraction_exact(self):
        p, q = (2.0, 0.7), (1.5, 2.0)
        rep = verify_distance_estimates(QUAD, PLANE, [(p, q)],
                                        [0.25, 0.5, 1.0], 1e-3, -1.0)
        assert rep.worst >= -1e-9
        # margin of (i) goes to zero with h (equality in the flat model)
        d0 = PLANE.distance(p, q)
        a = gradient_curve(QUAD, PLANE, p, 1.0, 1e-3).end()
        b = gradient_curve(QUAD, PLANE, q, 1.0, 1e-3).end()
        assert PLANE.distance(a, b) == pytest.approx(math.exp(-1.0) * d0, abs=3e-3)

    def test_an_off_grid_time_is_read_at_that_time(self):
        # the grid at h = 1e-3 ends at T = 0.0105; reading the curves at
        # the grid point 0.010 instead gave margin (i) = -1.06e-3
        rep = verify_distance_estimates(QUAD, PLANE, [((2.0, 0.7), (1.5, 2.0))],
                                        [0.0105], 1e-3, -1.0)
        assert min(rep.margins_i) >= -1e-9

    def test_boundary_distance_flow_non_expanding(self):
        f = BoundaryDist()
        rng = np.random.default_rng(12)
        pairs = [(SQUARE.random_point(rng), SQUARE.random_point(rng))
                 for _ in range(4)]
        rep = verify_distance_estimates(f, SQUARE, pairs, [0.05, 0.1], 2e-3, 0.0)
        assert rep.worst >= -5e-3
        for (p, q) in pairs:
            a = gradient_curve(f, SQUARE, p, 0.1, 2e-3).end()
            b = gradient_curve(f, SQUARE, q, 0.1, 2e-3).end()
            assert SQUARE.distance(a, b) <= SQUARE.distance(p, q) + 5e-3


class TestArclengthConcavity:
    def test_f_concave_along_arclength_reparametrization(self):
        # the value along the curve, reparametrized by arclength, is concave
        rec = gradient_curve(QUAD, PLANE, (2.0, 0.0), 1.2, 1e-3)
        lam = -1.0
        ss = [0.0]
        vals = [evaluate(QUAD, PLANE, rec.points[0])]
        for i in range(1, len(rec.points)):
            step = PLANE.distance(rec.points[i - 1], rec.points[i])
            if step < 1e-9:
                break
            ss.append(ss[-1] + step)
            vals.append(evaluate(QUAD, PLANE, rec.points[i]))
        # resample on a uniform arclength grid
        grid = np.linspace(0.0, ss[-1], 101)
        uv = np.interp(grid, ss, vals)
        ds = grid[1] - grid[0]
        d2 = (uv[:-2] - 2 * uv[1:-1] + uv[2:]) / ds**2
        assert float(np.max(d2)) <= lam + 0.05


class TestLengthElement:
    def _chord_points(self, n=41):
        a, b = (1.2, 0.3), (2.2, 1.1)
        d = PLANE.distance(a, b)
        return PLANE.geodesic_points(a, b, n), d

    def test_tau_zero_equality(self):
        pts, d = self._chord_points()
        assert abs(length_element_check(QUAD, PLANE, pts, lambda s: 0.0, 1e-3, -1.0)) < 1e-12

    def test_constant_tau_scales_exactly(self):
        pts, d = self._chord_points()
        tau = 0.3
        imgs = [gradient_curve(QUAD, PLANE, x, tau, 1e-3).end() for x in pts]
        for i in range(len(pts) - 1):
            dsig = PLANE.distance(imgs[i], imgs[i + 1])
            ds = PLANE.distance(pts[i], pts[i + 1])
            assert dsig == pytest.approx(math.exp(-tau) * ds, abs=1e-3)
        assert length_element_check(QUAD, PLANE, pts, lambda s: tau, 1e-3, -1.0) >= -1e-6

    def test_random_lipschitz_tau_on_square(self):
        rng = np.random.default_rng(3)
        a, b = (0.2, 0.3), (0.8, 0.6)
        n = 41
        pts = SQUARE.geodesic_points(a, b, n)
        worst = length_element_check(
            BoundaryDist(), SQUARE, pts,
            lambda s: 0.1 * (1.0 + math.sin(3.0 * s)), 2e-3, 0.0)
        assert worst >= -1e-3
