import math
from unittest import mock

import numpy as np
import pytest

from alexgeo.spaces import (CapSpace, ConeSpace, PolygonSpace, SpindleSpace,
                            regular_tetrahedron)
from alexgeo.spaces.base import SigmaDesc
from alexgeo.functions import Dist, DistSq, differential, evaluate, scale
from alexgeo.flow import STOP_TOL, gradient, gradient_curve
from alexgeo.quasigeodesic import monotone_report
from alexgeo.radial import (
    RadialDomainError,
    RadialStepper,
    gexp_inverse_check,
    gexp_map,
    radial_curve,
    speed_factor,
    tangent_cone_metric,
    verify_radial_comparison,
)
from alexgeo.tangent import TangentVec

PLANE = ConeSpace(2 * math.pi)
CONE = ConeSpace(1.5 * math.pi)
FULL = SigmaDesc(2 * math.pi)


class TestRadialCurve:
    def test_validates_its_point_once(self):
        # the steps walk from walk ends and measure them with the kernels
        plane = ConeSpace(2 * math.pi)
        with mock.patch.object(plane, "validate_point", wraps=plane.validate_point) as v:
            radial_curve(plane, (1, 0), 0.9 * math.pi, 0, 2.0, 0.01)
        assert v.call_count == 1

    def test_negative_time_and_norm_rejected(self):
        with pytest.raises(RadialDomainError, match="T >= 0"):
            radial_curve(PLANE, (1, 0), 0.3, 0, -1.0, 0.01)
        with pytest.raises(RadialDomainError, match="v"):
            gexp_map(PLANE, (1, 0), TangentVec(-1.0, 0.3, FULL), 0, 1e-3)

    def test_geodesic_regime_is_the_geodesic(self):
        rec = radial_curve(CONE, (1.0, 0.0), 0.5, 0, 2.0, 1e-3)
        w = CONE.walk((1.0, 0.0), 0.5, 2.0)
        assert CONE.distance(rec.points[-1], w.end) < 1e-9
        assert not rec.events

    def test_plane_gexp_is_identity_chart(self):
        v = TangentVec(1.7, 2.2, FULL)
        out = gexp_map(PLANE, (1.0, 0.3), v, 0, 1e-3)
        w = PLANE.walk((1.0, 0.3), 2.2, 1.7)
        assert PLANE.distance(out, w.end) < 1e-9

    def test_apex_continuation_and_self_convergence(self):
        # aimed at the apex: geodesic to it, then the equidistance ray
        ends = []
        for h in (4e-3, 2e-3, 1e-3):
            rec = radial_curve(CONE, (1.0, 0.0), math.pi, 0, 2.5, h)
            ends.append(rec.points[-1])
        errs = [CONE.distance(ends[0], ends[2]), CONE.distance(ends[1], ends[2])]
        assert errs[1] <= errs[0] * 0.75 + 1e-12  # order >= 1 self-convergence
        assert ends[2][1] == pytest.approx(0.75 * math.pi, abs=1e-6)

    def test_apex_exit_speed(self):
        rec = radial_curve(CONE, (1.0, 0.0), math.pi, 0, 1.2, 1e-3)
        i = next(k for k, t in enumerate(rec.ts) if t > 1.0 + 2e-3)
        assert rec.right_tangents[i].norm == pytest.approx(math.sqrt(2) / 2,
                                                           abs=2e-2)

    def test_spherical_domain(self):
        s = SpindleSpace(2 * math.pi)
        with pytest.raises(RadialDomainError):
            radial_curve(s, (1.0, 0.0), 0.3, 1, 2.0, 1e-2)
        with pytest.raises(RadialDomainError):
            gexp_map(s, (1.0, 0.0), TangentVec(2.0, 0.3, FULL), 1, 1e-2)

    def test_kappa_validation(self):
        with pytest.raises(RadialDomainError):
            radial_curve(PLANE, (1.0, 0.0), 0.3, 0.5, 1.0, 1e-2)

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.inf])
    def test_step_validation(self, h):
        # a step of 0 would never advance the parameter
        with pytest.raises(ValueError, match="step"):
            radial_curve(CONE, (0.3, 0.0), math.pi, 0, 1.0, h)
        with pytest.raises(ValueError, match="step"):
            gexp_map(CONE, (0.3, 0.0), TangentVec(1.0, math.pi, FULL), 0, h)

    def test_parameter_runs_to_the_grid_time_after_a_stop(self):
        # the second step meets the edge x = 1 at t = 0.5 and stops there
        stepper = RadialStepper(SQUARE, (0.5, 0.5), 0.0)
        stepper.step(0.3)
        stepper.step(0.3)
        assert stepper.stopped and stepper.cur == pytest.approx((1.0, 0.5))
        assert stepper.t == pytest.approx(0.6, abs=1e-15)

    def test_gexp_log_identity(self):
        # points joined to p by minimizing geodesics come back via gexp o log
        rng = np.random.default_rng(3)
        for space in (CONE, SpindleSpace(4.0)):
            kappa = int(space.kappa)
            for _ in range(10):
                p = space.random_point(rng)
                q = space.random_point(rng)
                d = space.distance(p, q)
                if d < 1e-3 or (kappa == 1 and d > math.pi / 2 - 0.05):
                    continue
                dirs = space.directions_to(p, q)
                out = gexp_map(space, p, TangentVec(d, dirs[0], space.sigma_at(p)),
                               kappa, 1e-3)
                assert space.distance(out, q) < 1e-6


def _velocity_at(space, p, x, t):
    """The stepper's motion vector at x for a radial curve from p, at parameter t."""
    stepper = RadialStepper(space, p, 0.0, int(space.kappa))
    stepper.cur = space.validate_point(x)
    return stepper._velocity(t)


def _parameter(r):
    # past the geodesic regime (t > r), inside [0, pi/2) when kappa = 1
    return min(r + 0.3, 1.5)


def _random_point(space, rng):
    return space.random_point(rng)


def _tetra_edge_point(mesh, rng):
    a = 0.05 + 0.9 * rng.random()
    return mesh.validate_point((int(rng.integers(4)), (a, 1.0 - a, 0.0)))


SQUARE = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])
FIRST_VARIATION_CASES = {
    "cone": (CONE, _random_point),
    "plane": (PLANE, _random_point),
    "spindle": (SpindleSpace(4.0), _random_point),
    "cap": (CapSpace(1.2), _random_point),
    "square": (SQUARE, _random_point),
    "tetra_interior": (regular_tetrahedron(), _random_point),
    "tetra_edge": (regular_tetrahedron(), _tetra_edge_point),
}


class TestFirstVariationStep:
    """The gradient regime's motion vector m_kappa(r, t) * grad dist_p."""

    @pytest.mark.parametrize("name", sorted(FIRST_VARIATION_CASES))
    def test_one_direction_gives_the_exact_gradient(self, name):
        space, draw = FIRST_VARIATION_CASES[name]
        rng = np.random.default_rng(15)
        checked = 0
        for _ in range(40):
            p, x = space.random_point(rng), draw(space, rng)
            r = space.distance(x, p)
            sigma = space.sigma_at(x)
            if (sigma.is_arc or r < 1e-3 or (space.kappa == 1 and r > 1.2)
                    or len(space.directions_to(x, p)) != 1):
                continue
            t = _parameter(r)
            vec = _velocity_at(space, p, x, t)
            g = gradient(Dist(q=p), space, x)
            assert g.norm == pytest.approx(1.0, abs=1e-12)
            assert sigma.dist(vec.angle, g.angle) <= 1e-12
            assert vec.norm == speed_factor(int(space.kappa), r, t)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("space, p, x, n_dirs", [
        (CONE, (1.0, 0.4), (0.0, 0.0), 1),  # apex: the circle has length 1.5 pi
        (regular_tetrahedron(), (0, (0.2, 0.3, 0.5)), (1, (1.0, 0.0, 0.0)), 1),  # vertex
        (SQUARE, (0.3, 0.6), (0.5, 0.0), 1),  # a boundary arc
        (CONE, (1.0, 0.0), (0.8, 0.75 * math.pi), 2),  # the ridge opposite p
    ], ids=["cone_apex", "tetra_vertex", "square_edge", "cone_ridge"])
    def test_elsewhere_the_exact_gradient(self, space, p, x, n_dirs):
        p, x = space.validate_point(p), space.validate_point(x)
        assert len(space.directions_to(x, p)) == n_dirs
        r = space.distance(x, p)
        t = _parameter(r)
        g = gradient(Dist(q=p), space, x)
        want = (None if g.norm < STOP_TOL
                else TangentVec(speed_factor(0, r, t) * g.norm, g.angle, g.sigma))
        assert _velocity_at(space, p, x, t) == want


def _ridge_pair(cone, rng):
    """p and a point x on the ridge opposite p, where two directions point to p."""
    p = cone.validate_point((0.3 + 1.5 * rng.random(), rng.random() * cone.total_angle))
    x = cone.validate_point((0.05 + 1.5 * rng.random(), p[1] + 0.5 * cone.total_angle))
    return p, x


class TestGapRule:
    """On a full circle grad dist_p bisects the largest gap g between the
    directions to p and has norm -cos(g / 2); the stepper stops where that
    is below STOP_TOL."""

    @pytest.mark.parametrize("theta", [1.5 * math.pi, 0.7 * math.pi], ids=["1.5pi", "0.7pi"])
    def test_ridge_points_match_the_exact_gradient(self, theta):
        cone = ConeSpace(theta)
        rng = np.random.default_rng(16)
        for _ in range(30):
            p, x = _ridge_pair(cone, rng)
            assert len(cone.directions_to(x, p)) == 2
            r = cone.distance(x, p)
            t = _parameter(r)
            vec = _velocity_at(cone, p, x, t)
            g = gradient(Dist(q=p), cone, x)
            assert g.norm > STOP_TOL
            assert vec.norm == pytest.approx(speed_factor(0, r, t) * g.norm, rel=1e-12)
            assert g.sigma.dist(vec.angle, g.angle) <= 1e-12

    def test_three_directions_at_a_critical_point(self):
        # the centre of the face opposite a vertex of the regular tetrahedron:
        # three directions to the vertex, 2 pi / 3 apart
        mesh = regular_tetrahedron()
        face = next(i for i, f in enumerate(mesh.faces) if 0 not in f)
        p, x = mesh.point_at_vertex(0), mesh.validate_point((face, (1 / 3, 1 / 3, 1 / 3)))
        assert len(mesh.directions_to(x, p)) == 3
        assert gradient(Dist(q=p), mesh, x).norm < STOP_TOL
        assert _velocity_at(mesh, p, x, 1.5) is None


class TestTangentConeMetric:
    def test_hyperbolic_hinge_additive(self):
        u = TangentVec(0.7, 0.0, FULL)
        v = TangentVec(1.1, math.pi, FULL)
        assert tangent_cone_metric(-1, u, v) == pytest.approx(1.8)

    def test_spherical_collinear(self):
        u = TangentVec(0.7, 1.0, FULL)
        v = TangentVec(1.1, 1.0, FULL)
        assert tangent_cone_metric(1, u, v) == pytest.approx(0.4)

    def test_flat_is_law_of_cosines(self):
        u = TangentVec(1.0, 0.0, FULL)
        v = TangentVec(1.0, math.pi / 2, FULL)
        assert tangent_cone_metric(0, u, v) == pytest.approx(math.sqrt(2))


class TestShortness:
    @pytest.mark.parametrize("theta", [math.pi / 2, math.pi, 1.5 * math.pi,
                                       2 * math.pi])
    def test_cone_shortness_sample(self, theta):
        c = ConeSpace(theta)
        p = (1.0, 0.1)
        sig = c.sigma_at(p)
        rng = np.random.default_rng(int(theta * 10))
        worst = -math.inf
        for _ in range(40):
            u = TangentVec(rng.random() * 1.5, rng.random() * 2 * math.pi, sig)
            v = TangentVec(rng.random() * 1.5, rng.random() * 2 * math.pi, sig)
            du = gexp_map(c, p, u, 0, 1e-3)
            dv = gexp_map(c, p, v, 0, 1e-3)
            worst = max(worst, c.distance(du, dv) - tangent_cone_metric(0, u, v))
        assert worst <= 1e-2  # discretization-order excess at h = 1e-3

    def test_apex_shortness_exact(self):
        c = ConeSpace(1.5 * math.pi)
        o = (0.0, 0.0)
        sig = c.sigma_at(o)
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = TangentVec(rng.random() * 2, rng.random() * sig.length, sig)
            v = TangentVec(rng.random() * 2, rng.random() * sig.length, sig)
            du = gexp_map(c, o, u, 0, 1e-2)
            dv = gexp_map(c, o, v, 0, 1e-2)
            assert c.distance(du, dv) == pytest.approx(
                tangent_cone_metric(0, u, v), abs=1e-9)

    def test_spindle_spherical_shortness(self):
        s = SpindleSpace(4.0)
        p = (1.0, 0.5)
        sig = s.sigma_at(p)
        rng = np.random.default_rng(6)
        worst = -math.inf
        for _ in range(25):
            u = TangentVec(rng.random() * 1.2, rng.random() * 2 * math.pi, sig)
            v = TangentVec(rng.random() * 1.2, rng.random() * 2 * math.pi, sig)
            du = gexp_map(s, p, u, 1, 1e-3)
            dv = gexp_map(s, p, v, 1, 1e-3)
            worst = max(worst, s.distance(du, dv) - tangent_cone_metric(1, u, v))
        assert worst <= 1e-2


class TestComparison:
    def test_monotone_on_cone(self):
        rng = np.random.default_rng(7)
        grid = [0.02 * k for k in range(1, 101)]
        for _ in range(5):
            p = CONE.random_point(rng)
            q = CONE.random_point(rng)
            xi = rng.random() * 2 * math.pi
            rep = verify_radial_comparison(CONE, p, xi, q, 0, grid, 2e-3)
            assert rep.worst_increase <= 1e-6 + 10 * 2e-3

    def test_theta_starts_at_differential(self):
        f = scale(0.5, DistSq(q=(1.5, 2.0)))
        p = (1.0, 0.0)
        xi = 0.7
        worst, thetas = monotone_report(CONE, radial_curve(CONE, p, xi, 0, 0.79, 1e-3), f, 1.0)
        assert worst <= 1e-3
        assert thetas[0] - differential(f, CONE, p)(xi) <= 1e-3

    def test_an_off_grid_end_is_checked_at_that_time(self):
        # at h = 1e-3 the record ends at T = 0.0105; snapping by round(t / h)
        # checked the grid point 0.010 instead
        rep = verify_radial_comparison(ConeSpace(1.5 * math.pi), (1.0, 0.3), 2.0,
                                       (0.8, 1.5), 0, [0.0105], 1e-3)
        assert rep.ts == [0.0105]

    def test_spindle_kappa_one(self):
        s = SpindleSpace(4.0)
        rng = np.random.default_rng(8)
        grid = [0.01 * k for k in range(1, 150)]
        done = 0
        while done < 3:
            p = s.random_point(rng)
            q = s.random_point(rng)
            if s.distance(p, q) > math.pi / 2:
                continue
            xi = rng.random() * 2 * math.pi
            rep = verify_radial_comparison(s, p, xi, q, 1, grid, 2e-3)
            assert rep.worst_increase <= 1e-6 + 10 * 2e-3
            done += 1

    def test_inverse_uniqueness_inside_geodesic(self):
        p, q = (1.0, 0.2), (1.3, 2.0)
        pts = CONE.geodesic_points(p, q, 21)
        dirs = CONE.directions_to(p, q)
        probes = [CONE.sigma_at(p).wrap(dirs[0] + off)
                  for off in (0.6, 1.5, 3.0, -0.9)]
        rep = gexp_inverse_check(CONE, p, pts, probes, 0, 2e-3)
        assert rep.worst_decrease <= 1e-6
        assert rep.min_separation > 0.0


class TestSemigroupIdentity:
    def test_flow_of_half_dist_sq_rescales_gexp(self):
        # the flow of dist_p^2/2 for time t maps gexp(v) to gexp(e^t v)
        p = (1.0, 0.0)
        f = scale(0.5, DistSq(q=p))
        v = TangentVec(0.6, 2.8, CONE.sigma_at((1.0, 1.0)))
        x = gexp_map(CONE, p, v, 0, 1e-3)
        t = 0.4
        flowed = gradient_curve(f, CONE, x, t, 1e-3).end()
        target = gexp_map(CONE, p, v.scaled(math.exp(t)), 0, 1e-3)
        assert CONE.distance(flowed, target) < 5e-3


class TestExtremalPreservation:
    def test_radial_curve_tangent_to_boundary_stays(self):
        # boundary of a square is extremal: radial curves launched along it
        from alexgeo.spaces import PolygonSpace

        sq = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])
        p = (0.3, 0.0)
        rec = radial_curve(sq, p, 0.0, 0, 0.5, 1e-3)
        assert max(sq.boundary_dist(x) for x in rec.points) < 1e-9

    def test_tetrahedron_vertex_fixed(self):
        t = regular_tetrahedron()
        v0 = t.point_at_vertex(0)
        # one-point extremal subset: the gradient of any distance vanishes
        from alexgeo.flow import gradient

        g = gradient(Dist(q=(3, (0.3, 0.3, 0.4))), t, v0)
        assert g.norm == 0.0
