import ast
import math
from pathlib import Path

import numpy as np
import pytest

from alexgeo.spaces import (CapSpace, ConeSpace, PolygonSpace, SpindleSpace,
                            build_doubling, regular_tetrahedron)
from alexgeo.flow import CurveRecord
from alexgeo.functions import Dist, DistSq, evaluate, scale
from alexgeo.quasigeodesic import (
    build_prequasigeodesic,
    check_quasigeodesic,
    chop_extend_demo,
    entropy,
    TraceError,
    _build_joint_curve,
    monotone_report,
    trace_quasigeodesic,
)
from alexgeo.radial import radial_curve
from alexgeo.tangent import TangentVec
from alexgeo.verdict import passed

CONE = ConeSpace(1.5 * math.pi)
PLANE = ConeSpace(2 * math.pi)


def aim_at_vertex(mesh, p, vertex):
    p = mesh.validate_point(p)
    u = mesh.charts[p.face][mesh.faces[p.face].index(vertex)] - complex(*mesh.pos2(p))
    return mesh.chart_angle_of_dir(p, p.face, u / abs(u))


class TestTracer:
    @pytest.mark.parametrize("length, record_step", [(-1.0, None), (1.0, -0.1), (1.0, 0.0)])
    def test_bad_length_or_record_step_rejected(self, length, record_step):
        with pytest.raises(TraceError, match="length|record_step"):
            trace_quasigeodesic(CONE, (1.0, 0.0), 0.3, length, record_step=record_step)

    def test_no_vertex_hit_is_geodesic(self):
        rec = trace_quasigeodesic(CONE, (1.0, 0.0), 0.3, 1.0)
        w = CONE.walk((1.0, 0.0), 0.3, 1.0)
        assert CONE.distance(rec.points[-1], w.end) < 1e-12
        assert not rec.events

    def test_cone_apex_equal_split(self):
        phi_in = 0.4
        rec = trace_quasigeodesic(CONE, (1.0, phi_in), math.pi, 2.0)
        assert rec.events[0][1] == "vertex"
        end = rec.points[-1]
        assert end[1] == pytest.approx((phi_in + 0.75 * math.pi) % (1.5 * math.pi))
        assert end[0] == pytest.approx(1.0)

    def test_tetrahedron_vertex_split_angles(self):
        T = regular_tetrahedron()
        p = T.validate_point((0, (0.25, 0.4, 0.35)))
        ang = aim_at_vertex(T, p, 0)
        rec = trace_quasigeodesic(T, p, ang, 1.5)
        ev = [e for e in rec.events if e[1] == "vertex"]
        assert ev and ev[0][2] == 0
        # the outgoing direction bisects: both side angles are pi/2
        i = next(k for k, t in enumerate(rec.ts) if abs(t - ev[0][0]) < 1e-12)
        sig = T.sigma_at(rec.points[i])
        back, = T.directions_to(rec.points[i], rec.points[i - 1])
        out = rec.right_tangents[i].angle
        assert sig.dist(back, out) == pytest.approx(math.pi / 2)

    def test_polygon_boundary_stop(self):
        sq = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])
        rec = trace_quasigeodesic(sq, (0.5, 0.5), 0.0, 2.0)
        assert rec.events and rec.events[-1][1] in ("boundary", "corner")
        assert rec.ts[-1] < 2.0


class TestChecker:
    def test_plane_geodesic_passes(self):
        rec = trace_quasigeodesic(PLANE, (1.0, 0.0), 0.9, 2.0)
        rep = check_quasigeodesic(PLANE, rec, n_probes=10, tol=1e-6, seed=0)
        assert passed(rep.margins(1e-6))

    def test_traced_cone_curve_passes(self):
        rec = trace_quasigeodesic(CONE, (1.0, 0.2), math.pi, 2.2)
        rep = check_quasigeodesic(CONE, rec, n_probes=12, tol=1e-6, seed=1)
        assert passed(rep.margins(1e-6))
        assert abs(rep.entropy_total) < 1e-12

    def test_tetrahedron_trace_passes(self):
        T = regular_tetrahedron()
        p = T.validate_point((0, (0.3, 0.36, 0.34)))
        rec = trace_quasigeodesic(T, p, aim_at_vertex(T, p, 1), 2.5)
        rep = check_quasigeodesic(T, rec, n_probes=6, tol=1e-6, seed=2)
        assert passed(rep.margins(1e-6))

    def test_planar_corner_fails(self):
        pts = []
        ts = []
        a = np.array([0.5, -1.0])
        d1 = np.array([0.0, 1.0])
        for i in range(101):
            q = a + d1 * (i * 0.02)
            pts.append((float(np.hypot(*q)), float(math.atan2(q[1], q[0]))))
            ts.append(i * 0.02)
        corner = a + d1 * 2.0
        d2 = np.array([math.sin(0.2), math.cos(0.2)])
        for i in range(1, 101):
            q = corner + d2 * (i * 0.02)
            pts.append((float(np.hypot(*q)), float(math.atan2(q[1], q[0]))))
            ts.append(2.0 + i * 0.02)
        sig = PLANE.sigma_at(pts[0])
        rec = CurveRecord(ts, pts, [TangentVec(1.0, 0.0, sig)] * len(pts), [], 0.02)
        rep = check_quasigeodesic(PLANE, rec, n_probes=12, tol=1e-6, seed=3)
        assert not passed(rep.margins(1e-6))
        assert rep.development_min_turn < -0.1



SPINDLE = SpindleSpace(1.5 * math.pi)


def _on_sphere(r, phi):
    """A spindle or cap point (colatitude r, unwrapped azimuth phi) in R^3."""
    return np.array([math.sin(r) * math.cos(phi), math.sin(r) * math.sin(phi), math.cos(r)])


def _bent_meridian(bend, length=2.5, n=512):
    """The meridian of azimuth 0.3 from r = 1 through the north pole of the
    1.5 pi spindle, leaving the pole at 0.3 + 0.75 pi + bend: the sides at
    the pole are 0.75 pi + bend and 0.75 pi - bend."""
    h = length / n
    ts = [i * h for i in range(n + 1)]
    pts = [SPINDLE.validate_point((1.0 - t, 0.3) if t <= 1.0
                                  else (t - 1.0, 0.3 + 0.75 * math.pi + bend))
           for t in ts]
    tangents = [TangentVec(1.0, 0.0, SPINDLE.sigma_at(p)) for p in pts]
    return CurveRecord(ts, pts, tangents, [], h)


class TestCheckerCurvatureOne:
    def test_spindle_geodesic_is_a_great_circle_and_passes(self):
        # the 1.5 pi spindle is locally the unit sphere in (colatitude,
        # azimuth); from (1, 0.3) at chart angle 0.7 (0 along +r, pi/2
        # along +phi) the geodesic is cos t P0 + sin t T0
        r0, phi0, psi = 1.0, 0.3, 0.7
        rec = trace_quasigeodesic(SPINDLE, (r0, phi0), psi, 5.0)
        assert not rec.events
        e_r = np.array([math.cos(r0) * math.cos(phi0), math.cos(r0) * math.sin(phi0),
                        -math.sin(r0)])
        e_phi = np.array([-math.sin(phi0), math.cos(phi0), 0.0])
        p0, t0 = _on_sphere(r0, phi0), math.cos(psi) * e_r + math.sin(psi) * e_phi
        lift, prev = 0.0, phi0
        for t, (r, phi) in zip(rec.ts, rec.points):
            jump = phi + lift - prev  # unwrap the azimuth across the seam
            lift -= round(jump / SPINDLE.circle_length) * SPINDLE.circle_length
            prev = phi + lift
            want = math.cos(t) * p0 + math.sin(t) * t0
            assert np.linalg.norm(_on_sphere(r, prev) - want) < 1e-9
        rep = check_quasigeodesic(SPINDLE, rec, n_probes=12, tol=1e-6, seed=0)
        # compared with 1 - kappa h in place of c (1 - kappa h), it reads 7.3e-6
        assert rep.barrier_worst < 1e-9
        assert passed(rep.margins(1e-6))

    def test_meridian_through_the_pole_passes(self):
        rec = trace_quasigeodesic(SPINDLE, (1.0, 0.3), math.pi, 2.5)
        assert [k for _, k, _ in rec.events] == ["vertex"]
        end = rec.points[-1]
        assert end[0] == pytest.approx(1.5, abs=1e-12)
        assert end[1] == pytest.approx(0.3 + 0.75 * math.pi, abs=1e-12)
        rep = check_quasigeodesic(SPINDLE, rec, n_probes=12, tol=1e-6, seed=0)
        assert passed(rep.margins(1e-6))

    @pytest.mark.parametrize("bend, quasi", [(0.0, True), (0.05, True), (0.7, True),
                                             (0.9, False), (1.2, False)])
    def test_bent_meridian_fails_past_pi(self, bend, quasi):
        # a curve through a cone point is a quasigeodesic exactly when
        # neither side's angle exceeds pi: 0.75 pi + 0.7 < pi < 0.75 pi + 0.9
        rep = check_quasigeodesic(SPINDLE, _bent_meridian(bend), n_probes=12,
                                  tol=1e-6, seed=0)
        assert passed(rep.margins(1e-6)) is quasi
        if bend == 1.2:
            # some model triangle has perimeter above 2 pi: no comparison
            # angle, so the monotonicity test reads pi
            assert rep.monotone_worst == math.pi

    def test_great_circle_stops_short_of_pi(self):
        # on the round sphere every trace is a great circle; one of length
        # 2 pi recorded in 512 steps has a sample at t = pi - 8.4e-15, where
        # the comparison triangle degenerates (read there, it shows an
        # increase of 1.08)
        sphere = build_doubling(CapSpace(math.pi / 2))
        p = (1.8482664081108604, 1.6951199159934145)
        rec = trace_quasigeodesic(sphere, p, 0.4, 2 * math.pi)
        assert min(abs(t - math.pi) for t in rec.ts) < 1e-13
        assert sphere.distance(rec.points[0], rec.points[-1]) < 1e-12
        rep = check_quasigeodesic(sphere, rec, n_probes=12, tol=1e-6, seed=0)
        assert rep.monotone_worst < 1e-9
        assert passed(rep.margins(1e-6))


class TestBuilders:
    def test_plane_builder_reproduces_ray(self):
        for eps in (0.2, 0.1):
            rec = _build_joint_curve(PLANE, (1.0, 0.0), 1.1, eps, 1.5, speed_control=False)
            w = PLANE.walk((1.0, 0.0), 1.1, rec.ts[-1])
            assert PLANE.distance(rec.points[-1], w.end) < 1e-9

    def test_apex_aimed_endpoints_converge(self):
        ends = []
        for eps in (0.2, 0.1, 0.05):
            rec = _build_joint_curve(CONE, (1.0, 0.0), math.pi, eps, 2.0, speed_control=False)
            ends.append(rec.points[-1])
        d1 = CONE.distance(ends[0], ends[2])
        d2 = CONE.distance(ends[1], ends[2])
        assert d2 <= d1 + 1e-12

    def test_convex_curves_one_lipschitz(self):
        rec = _build_joint_curve(CONE, (1.0, 0.0), math.pi, 0.1, 2.0, speed_control=False)
        for i in range(len(rec.ts) - 1):
            chord = CONE.distance(rec.points[i], rec.points[i + 1])
            assert chord <= (rec.ts[i + 1] - rec.ts[i]) * (1 + 1e-9) + 1e-12

    def test_prequasigeodesic_entropy_ledger_zero_on_cone(self):
        rec, ent = build_prequasigeodesic(CONE, (1.0, 0.0), math.pi, 0.05, 2.0)
        assert abs(ent.total) < 1e-12
        rep = check_quasigeodesic(CONE, rec, n_probes=8, tol=1e-5, seed=4)
        assert passed(rep.margins(1e-5))

    def test_radial_curves_are_monotone(self):
        # the normalized drop of lambda-concave values is non-increasing
        rng = np.random.default_rng(5)
        for _ in range(12):
            p = CONE.random_point(rng)
            xi = rng.random() * 2 * math.pi
            q = CONE.random_point(rng)
            f = scale(0.5, DistSq(q=q))
            rec = radial_curve(CONE, p, xi, 0, 1.0, 5e-3)
            worst, _ = monotone_report(CONE, rec, f, 1.0)
            assert worst <= 1e-5


class TestEntropy:
    def test_traced_curve_has_zero_entropy(self):
        rec = trace_quasigeodesic(CONE, (1.0, 0.1), math.pi, 2.0)
        assert entropy(rec).total == 0.0

    def test_deliberate_half_speed_joint(self):
        sig = CONE.sigma_at((1.0, 0.0))
        rec = CurveRecord([0.0, 1.0, 2.0], [(1.0, 0.0)] * 3,
                          [TangentVec(s, 0.0, sig) for s in (1.0, 0.5, 0.5)])
        rep = entropy(rec)
        assert rep.total == pytest.approx(math.log(0.5))
        assert rep.atoms[0][0] == 1.0

    def test_decay_across_eps(self):
        vals = []
        for eps in (0.1, 0.05, 0.025):
            _, ent = build_prequasigeodesic(CONE, (1.0, 0.0), math.pi, eps, 2.5)
            vals.append(abs(ent.total))
        assert vals[0] >= vals[1] >= vals[2]
        assert vals[1] <= 0.7 * vals[0] + 1e-9
        assert vals[2] <= 0.7 * vals[1] + 1e-9


class TestChopExtend:
    def test_demo_on_cone(self):
        rep = chop_extend_demo(CONE, (1.0, 0.0), math.pi - 0.2, 0.1, T=1.5,
                               q_far=(2.5, 1.0))
        assert passed(rep.margins(1e-6))
        assert rep.chop_ok and rep.lemma_applicable
        assert abs(rep.extension_atom) < 1e-9

    def test_a_far_point_where_the_lemma_does_not_apply_fails(self):
        # the differential of dist_q^2 / 2 toward the curve ahead is negative
        rep = chop_extend_demo(CONE, (1.0, 0.0), math.pi - 0.2, 0.1, T=1.5,
                               q_far=(2.5, 2.8))
        assert not rep.lemma_applicable
        assert not passed(rep.margins(1e-6))

    def test_comparison_corollary_for_traces(self):
        # angle(dir to p, start tangent) >= comparison angle for small t
        from alexgeo import model_plane as mp

        rng = np.random.default_rng(6)
        rec = trace_quasigeodesic(CONE, (1.0, 0.2), math.pi, 2.2)
        for _ in range(10):
            p = CONE.random_point(rng)
            d0 = CONE.distance(rec.points[0], p)
            if d0 < 0.2:
                continue
            dirs = CONE.directions_to(rec.points[0], p)
            sig = CONE.sigma_at(rec.points[0])
            ang = min(sig.dist(a, rec.right_tangents[0].angle) for a in dirs)
            for i in (3, 10, 30):
                tilde = mp.comparison_angle(
                    0.0, d0, CONE.distance(rec.points[i], p), rec.ts[i])
                assert ang >= tilde - 1e-6


def test_one_entropy_ledger():
    # every log-speed drop is read by `entropy`; other readers take its atoms
    src = Path(__file__).resolve().parent.parent / "src" / "alexgeo" / "quasigeodesic.py"
    tree = ast.parse(src.read_text(encoding="utf-8"))
    logs = [(fn.name, node.lineno) for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "math.log"]
    assert src.read_text(encoding="utf-8").count("math.log(") == len(logs)
    assert {name for name, _ in logs} == {"entropy"} and len({line for _, line in logs}) == 1
