import math

import numpy as np
import pytest

from alexgeo import model_plane as mp


class TestScalars:
    def test_rho_flat(self):
        assert mp.rho(0.0, 2.0) == 2.0

    def test_sigma_flat(self):
        assert mp.sigma(0.0, 5.0) == 5.0

    def test_theta_zero(self):
        assert mp.theta(0.0, 3.0) == 3.0

    def test_rho_unit_curvature(self):
        # (1/k)(1 - cos(x sqrt(k))) at k=1, x=pi
        assert mp.rho(1.0, math.pi) == pytest.approx(2.0, abs=1e-15)

    def test_theta_negative(self):
        # (e^{lam t} - 1)/lam at lam=-1, t=ln 2
        assert mp.theta(-1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_sigma_is_rho_derivative(self):
        for kappa in (-1.0, -0.3, 0.0, 0.4, 1.0):
            for x in (0.1, 0.7, 1.3):
                h = 1e-6
                num = (mp.rho(kappa, x + h) - mp.rho(kappa, x - h)) / (2 * h)
                assert num == pytest.approx(mp.sigma(kappa, x), abs=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(mp.ModelDomainError):
            mp.rho(0.0, math.inf)
        with pytest.raises(mp.ModelDomainError):
            mp.theta(math.nan, 1.0)


class TestComparisonAngle:
    def test_euclidean_equilateral(self):
        assert mp.comparison_angle(0.0, 1, 1, 1) == pytest.approx(math.pi / 3)

    def test_zero_convention(self):
        # a + b < c
        assert mp.comparison_angle(0.0, 1, 1, 3) == 0.0
        # b + c < a
        assert mp.comparison_angle(0.0, 3, 1, 1) == 0.0

    def test_spherical_octant(self):
        h = math.pi / 2
        assert mp.comparison_angle(1.0, h, h, h) == pytest.approx(h)

    def test_antipodal_limit(self):
        assert mp.comparison_angle(0.0, 0.0, 1.0, 1.0) == pytest.approx(math.pi)

    def test_perimeter_violation(self):
        with pytest.raises(mp.ModelDomainError):
            mp.comparison_angle(1.0, 2.5, 2.5, 2.0)

    def test_long_opposite_side_clamps_to_pi(self):
        assert mp.comparison_angle(0.0, 1.0, 2.5, 1.0) == pytest.approx(math.pi)

    def test_monotone_in_opposite_side(self):
        rng = np.random.default_rng(3)
        for kappa in (-1.0, 0.0, 1.0):
            for _ in range(300):
                a, c = 0.1 + rng.random(2) * 1.2
                beta1, beta2 = sorted(0.05 + rng.random(2) * 3.0)
                b1 = mp.model_side(kappa, a, c, beta1)
                b2 = mp.model_side(kappa, a, c, beta2)
                assert b1 <= b2 + 1e-12
                a1 = mp.comparison_angle(kappa, a, b1, c)
                a2 = mp.comparison_angle(kappa, a, b2, c)
                assert a1 <= a2 + 1e-12


class TestModelSide:
    def test_pythagoras(self):
        assert mp.model_side(0.0, 3, 4, math.pi / 2) == pytest.approx(5.0)

    def test_collinear(self):
        assert mp.model_side(0.0, 2, 5, 0.0) == pytest.approx(3.0)

    def test_spherical_octant(self):
        h = math.pi / 2
        assert mp.model_side(1.0, h, h, h) == pytest.approx(h)

    def test_domain_error_spherical(self):
        with pytest.raises(mp.ModelDomainError):
            mp.model_side(1.0, math.pi, 1.0, 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for kappa in (-1.0, 0.0, 1.0):
            worst = 0.0
            for _ in range(1000):
                a, c = 0.05 + rng.random(2) * 1.3
                beta = 0.01 + rng.random() * (math.pi - 0.02)
                b = mp.model_side(kappa, a, c, beta)
                back = mp.comparison_angle(kappa, a, b, c)
                worst = max(worst, abs(back - beta))
            assert worst < 1e-9


def _circle_chords(samples, R):
    """Chords between consecutive unit-speed samples of a circle of radius R."""
    return [2.0 * R * math.sin((t1 - t0) / (2.0 * R))
            for (t0, _), (t1, _) in zip(samples, samples[1:])]


class TestDevelopment:
    def test_circle_about_base(self):
        R = 0.8
        samples = [(0.01 * k, R) for k in range(200)]
        rec = mp.develop_curve(0.0, samples, _circle_chords(samples, R))
        assert rec.convex
        # dphi/dt = 1/R for a circle
        total = rec.samples[-1][2]
        assert total == pytest.approx((rec.samples[-1][0]) / R, rel=1e-9)

    def test_planar_segment_straight(self):
        # line y = 1 in the plane, base point at the origin, densely sampled
        ts = np.linspace(-1.2, 1.3, 1200)
        samples = [(float(t), math.hypot(t, 1.0)) for t in ts]
        chords = [t1 - t0 for (t0, _), (t1, _) in zip(samples, samples[1:])]
        rec = mp.develop_curve(0.0, samples, chords)
        assert rec.convex
        assert max(abs(x) for x in rec.turns) < 1e-6
        # the developed polyline moves at unit speed
        pts = [(r * math.cos(p), r * math.sin(p)) for _, r, p in rec.samples]
        speeds = [math.dist(a, b) / (s1[0] - s0[0])
                  for a, b, s0, s1 in zip(pts, pts[1:], rec.samples, rec.samples[1:])]
        assert max(abs(s - 1.0) for s in speeds) < 1e-6

    def test_planar_segment_with_chords_is_exact(self):
        # line y = 1 in the plane, base point at the origin
        ts = np.linspace(-1.2, 1.3, 220)
        samples = [(float(t), math.hypot(t, 1.0)) for t in ts]
        chords = [samples[i + 1][0] - samples[i][0] for i in range(len(ts) - 1)]
        rec = mp.develop_curve(0.0, samples, chords=chords)
        assert rec.convex
        assert max(abs(x) for x in rec.turns) < 1e-10

    def test_corner_toward_base_is_non_convex(self):
        # planar broken line turning away from the origin by 0.2 rad
        pts = []
        a = np.array([0.4, -1.0])
        d1 = np.array([0.0, 1.0])
        for i in range(60):
            pts.append(a + d1 * (i * 0.02))
        corner = a + d1 * 1.18
        ang = 0.2
        d2 = np.array([math.sin(ang), math.cos(ang)])  # turns away from origin
        for i in range(1, 60):
            pts.append(corner + d2 * (i * 0.02))
        samples = [(0.02 * i, float(np.hypot(*p))) for i, p in enumerate(pts)]
        chords = [float(np.hypot(*(b - a))) for a, b in zip(pts, pts[1:])]
        rec = mp.develop_curve(0.0, samples, chords)
        assert not rec.convex
        assert rec.min_turn() < -0.1

    def test_lipschitz_rejection(self):
        with pytest.raises(mp.ModelDomainError):
            mp.develop_curve(0.0, [(0.0, 1.0), (0.1, 1.5)], [0.1])

    def test_apex_truncation(self):
        rec = mp.develop_curve(0.0, [(0.0, 0.2), (0.1, 0.1), (0.2, 0.0), (0.3, 0.1)],
                               [0.1, 0.1, 0.1])
        assert rec.events and rec.events[0][1] == "apex"
        assert rec.samples[-1][1] > 0.0

    def test_csv_and_svg(self):
        samples = [(0.1 * k, 1.0) for k in range(30)]
        rec = mp.develop_curve(0.0, samples, _circle_chords(samples, 1.0))
        csv = rec.to_csv()
        assert csv.splitlines()[0] == "t,r,phi,turn"
        assert len(csv.splitlines()) == 31
        svg = rec.to_svg()
        assert svg.startswith("<svg") and "polyline" in svg
