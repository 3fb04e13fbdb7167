import math

import numpy as np
import pytest

from alexgeo.spaces import ConeSpace, PolygonSpace, SpindleSpace
from alexgeo.spaces.base import SigmaDesc
from alexgeo.functions import Affine, Dist, DistSq, PhiRC, differential, evaluate, scale
from alexgeo.flow import gradient, gradient_curve
from alexgeo import tangent
from alexgeo.tangent import (
    DirectionalFn,
    GradientError,
    TangentVec,
    combine_affine,
    combine_min,
    constant_directional,
    cos_tail_directional,
    gradient_from_directional,
    maximize_directional,
    polar_grid_sums,
    polar_vector,
    scalar_product,
    zero_vector,
)

PLANE = ConeSpace(2 * math.pi)
FULL = SigmaDesc(2 * math.pi)


class TestScalarProduct:
    def test_self_product(self):
        v = TangentVec(2.5, 1.0, FULL)
        assert scalar_product(v, v) == pytest.approx(6.25)

    def test_wrap_aware(self):
        sig = SigmaDesc(1.5 * math.pi)
        u = TangentVec(1.0, 0.0, sig)
        v = TangentVec(1.0, 0.75 * math.pi, sig)
        assert scalar_product(u, v) == pytest.approx(-math.sqrt(2) / 2)

    def test_zero_vector(self):
        v = TangentVec(3.0, 1.0, FULL)
        assert scalar_product(zero_vector(FULL), v) == 0.0


class TestDifferential:
    def test_distance_leaf_is_minus_cosine(self):
        q = (1.0, 0.0)
        p = (2.0, 0.0)
        d = differential(Dist(q=q), PLANE, p)
        # direction toward q is the chart angle pi at p
        assert d(math.pi) == pytest.approx(-1.0)
        assert d(0.0) == pytest.approx(1.0)
        assert d(math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_dist_sq_chain(self):
        q = (1.0, 0.0)
        p = (3.0, 0.0)
        d = differential(DistSq(q=q), PLANE, p)
        assert d(0.0) == pytest.approx(2 * 2.0)

    def test_leaf_at_base_point(self):
        q = (1.0, 0.5)
        d = differential(Dist(q=q), PLANE, q)
        assert d(0.3) == pytest.approx(1.0)
        assert d(4.0) == pytest.approx(1.0)

    def test_apex_capped_arc(self):
        c = ConeSpace(1.5 * math.pi)
        d = differential(Dist(q=(1.0, 0.2)), c, (0.0, 0.0))
        # -cos of the wrap distance on a circle of length 3pi/2
        assert d(0.2) == pytest.approx(-1.0)
        assert d(0.2 + 0.75 * math.pi) == pytest.approx(math.sqrt(2) / 2)

    def test_homogeneous_extension(self):
        q = (1.0, 0.0)
        d = differential(Dist(q=q), PLANE, (2.0, 0.0))
        v = TangentVec(2.0, math.pi, FULL)
        assert d.homogeneous(v) == pytest.approx(-2.0)


class TestGradient:
    def test_plane_distance_points_away(self):
        g = gradient(Dist(q=(1.0, 0.0)), PLANE, (2.0, 0.0))
        assert g.norm == pytest.approx(1.0)
        assert g.angle == pytest.approx(0.0)

    def test_small_cone_apex_is_critical(self):
        c = ConeSpace(math.pi / 2)
        g = gradient(Dist(q=(1.0, 0.2)), c, (0.0, 0.0))
        assert g.norm == 0.0
        c2 = ConeSpace(math.pi)
        g2 = gradient(Dist(q=(1.0, 0.2)), c2, (0.0, 0.0))
        assert g2.norm == 0.0

    def test_wide_cone_apex(self):
        c = ConeSpace(1.5 * math.pi)
        g = gradient(Dist(q=(1.0, 0.2)), c, (0.0, 0.0))
        assert g.norm == pytest.approx(math.sqrt(2) / 2)
        assert c.sigma_at((0.0, 0.0)).dist(g.angle, 0.2) == pytest.approx(
            0.75 * math.pi
        )

    def test_quadratic_gradient(self):
        f = scale(-0.5, DistSq(q=(1.0, 0.0)))
        p = (2.0, 1.0)
        g = gradient(f, PLANE, p)
        assert g.norm == pytest.approx(PLANE.distance(p, (1.0, 0.0)))

    def test_ambiguous_gradient_raises(self):
        # -dist^2 at an equidistance ridge point: two separated maximizers
        c = ConeSpace(1.5 * math.pi)
        q = (1.0, 0.75 * math.pi)
        with pytest.raises(GradientError):
            gradient(scale(-1.0, DistSq(q=q)), c, (1.0, 0.0))

    @pytest.mark.parametrize("d", [1e-8, 1e-9])
    @pytest.mark.parametrize("a", [0.1, -0.1])
    def test_small_gradient_is_no_tie(self, d, a):
        # the gradient of dist^2/2 near q has norm d and points away from q
        # at chart angle a; the chart origin is a breakpoint of the
        # differential within 1e-10 of its maximum, but no local maximum
        p = (0.01, 0.0)
        x, y = 0.01 - d * math.cos(a), -d * math.sin(a)
        q = (math.hypot(x, y), math.atan2(y, x))
        g = gradient(scale(0.5, DistSq(q=q)), PLANE, p)
        assert g.norm == pytest.approx(PLANE.distance(p, q), rel=1e-12)
        assert FULL.dist(g.angle, a) < 1e-6

    @pytest.mark.parametrize("b", [0.05, 0.1, 0.2])
    def test_phi_flow_stops_on_its_critical_circle(self, b):
        # phi_{r,c}(dist_q) is critical on the circle dist_q = r + r/(2c);
        # the flow's last gradients are small and point near chart angle 0
        f = PhiRC(r=0.5, c=1.0, q=(1.0, 0.0))
        x, y = 1.0 + 0.6 * math.cos(b), 0.6 * math.sin(b)
        curve = gradient_curve(f, PLANE, (math.hypot(x, y), math.atan2(y, x)), T=8.0, h=0.05)
        assert curve.events[-1][1] == "stop"
        assert PLANE.distance(curve.points[-1], f.q) == pytest.approx(0.75, abs=1e-8)

    def test_gradient_inequality_lemma(self):
        # <dir to q, grad f> >= (f(q) - f(p) - lam/2 l^2)/l
        rng = np.random.default_rng(2)
        f = scale(-0.5, DistSq(q=(1.0, 0.0)))
        lam = -1.0
        worst = math.inf
        for _ in range(200):
            p = PLANE.random_point(rng)
            q = PLANE.random_point(rng)
            ell = PLANE.distance(p, q)
            if ell < 1e-3:
                continue
            g = gradient(f, PLANE, p)
            up = PLANE.directions_to(p, q)[0]
            lhs = scalar_product(TangentVec(1.0, up, g.sigma), g)
            rhs = (evaluate(f, PLANE, q) - evaluate(f, PLANE, p)
                   - 0.5 * lam * ell * ell) / ell
            worst = min(worst, lhs - rhs)
        assert worst >= -1e-6

    def test_zero_on_small_direction_spaces(self):
        # corner of a square: arc pi/2, diameter <= pi/2 forces zero gradient
        P = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])
        g = gradient(Dist(q=(0.7, 0.8)), P, (0.0, 0.0))
        assert g.norm == 0.0

    def test_phi_sum_gradient_generic_path(self):
        # two leaves: the differential is a sum of two cos-tails, whose
        # maximum is found in closed form over its pieces
        f = Affine(weights=(1.0, 1.0), terms=(PhiRC(r=0.5, c=10.0, q=(0.5, 0.0)),
                                              PhiRC(r=0.5, c=10.0, q=(0.5, math.pi))))
        g = gradient(f, PLANE, (0.2, 1.2))
        d = differential(f, PLANE, (0.2, 1.2))
        grid = [d(2 * math.pi * k / 1440) for k in range(1440)]
        # the exact maximum is never below the grid
        assert max(grid) - 1e-12 <= g.norm <= max(grid) + 1e-4

    # inputs on which a scanned argmax missed the maximum by enough to fail
    # the 1e-8 gradient inequality: (space, q1, q2, p)
    PHI_SUMS = [
        (ConeSpace(2 * math.pi), (1.2385804670351828, 3.2037142903841205),
         (1.8213101150855584, 4.691927539986089), (1.8630134907811928, 3.0981126525121)),
        (ConeSpace(1.5 * math.pi), (1.4990793424377375, 1.8833355723973322),
         (1.565770726386771, 0.9266405866133786), (1.7346162899837847, 2.671820287693838)),
        (SpindleSpace(4.0), (1.124533173191231, 2.5941888283193),
         (1.9740705331757014, 1.1708829960499485), (1.1557879960565607, 1.2559440081373472)),
    ]

    @pytest.mark.parametrize("case", range(3))
    def test_steep_phi_sum_gradient_inequality(self, case):
        space, q1, q2, p = self.PHI_SUMS[case]
        leaves = [PhiRC(r=0.5, c=10.0, q=q) for q in (q1, q2)]
        g = gradient(Affine(weights=(1.0, 1.0), terms=tuple(leaves)), space, p)
        sig = space.sigma_at(p)
        xs = np.linspace(0.0, sig.length, 20001, endpoint=False)
        # the differential from its definition: sum of phi' * -cos(angle to q)
        d = sum(leaf.dphi(space.distance(leaf.q, p))
                * -np.cos(np.min([_angdist(sig, xs, u)
                                  for u in space.directions_to(p, leaf.q)], axis=0))
                for leaf in leaves)
        inner = g.norm * np.cos(_angdist(sig, xs, g.angle))
        assert g.norm > 10.0
        assert float(np.max(d - inner)) <= 1e-10


def _angdist(sig, xs, u):
    """Angle distance from u, capped at pi, straight from the definition."""
    if sig.is_arc:
        d = np.abs(xs - u)
    else:
        d = np.mod(xs - u, sig.length)
        d = np.minimum(d, sig.length - d)
    return np.minimum(d, math.pi)


SIGMAS = [SigmaDesc(L) for L in (math.pi / 2, math.pi, 4.0, 1.5 * math.pi, 2 * math.pi)] + [
    SigmaDesc(L, is_arc=True) for L in (math.pi / 2, math.pi)]


class TestPiecewiseSinusoid:
    @pytest.mark.parametrize("sig", SIGMAS, ids=lambda s: f"{'arc' if s.is_arc else 'circle'}"
                             f"-{s.length:.4f}")
    def test_maximum_against_dense_grid(self, sig):
        rng = np.random.default_rng(int(sig.length * 1000) + sig.is_arc)
        xs = np.linspace(0.0, sig.length, 100001, endpoint=sig.is_arc)
        for k in range(1, 5):
            for op in ("sum", "min"):
                tails = [(rng.uniform(-2.0, 2.0), rng.uniform(0.0, sig.length))
                         for _ in range(k)]
                ds = [cos_tail_directional(sig, s, [u]) for s, u in tails]

                def ref(x):
                    vals = [s * -np.cos(_angdist(sig, x, u)) for s, u in tails]
                    return np.sum(vals, axis=0) if op == "sum" else np.min(vals, axis=0)

                d = (combine_affine(sig, [(1.0, x) for x in ds]) if op == "sum"
                     else combine_min(sig, ds))
                vmax, amax = maximize_directional(d)
                grid_max = float(np.max(ref(np.append(xs, amax))))
                assert grid_max - 1e-13 <= vmax <= grid_max + 1e-9
                # the claimed maximum is attained at the returned angle
                assert abs(float(ref(np.array([amax]))[0]) - vmax) <= 1e-12

    def test_min_of_crossing_sinusoids(self):
        a = cos_tail_directional(FULL, 1.0, [0.3])
        b = cos_tail_directional(FULL, -0.7, [1.1])
        m = combine_min(FULL, [a, b])
        # on the 2 pi circle each input is one sinusoid, so the min's only
        # breakpoints are the two crossings, and they split it into 3 pieces
        assert len(a.pieces) == len(b.pieces) == 1
        assert len(m.pieces) == 3
        for x in m.breaks[1:-1]:
            assert abs(a(x) - b(x)) <= 1e-15
        for x in np.linspace(0.0, 2 * math.pi, 1000):
            assert abs(m(x) - min(a(x), b(x))) <= 1e-15

    def test_flat_positive_piece_is_ambiguous(self):
        plateau = combine_min(FULL, [cos_tail_directional(FULL, 1.0, [0.0]),
                                     constant_directional(FULL, 0.3)])
        with pytest.raises(GradientError, match="flat"):
            maximize_directional(plateau)

    def test_maxima_at_both_arc_ends_are_ambiguous(self):
        arc = SigmaDesc(math.pi, is_arc=True)
        d = combine_affine(arc, [(1.0, cos_tail_directional(arc, 1.0, [0.5 * math.pi])),
                                 (1.0, constant_directional(arc, 1.0))])  # 1 - sin
        with pytest.raises(GradientError, match="both attain"):
            maximize_directional(d)

    @pytest.mark.parametrize("s", [1e-9, -1e-9, 1e-11, -1e-11])
    @pytest.mark.parametrize("L", [4.0, 1.5 * math.pi, 2 * math.pi])
    def test_tiny_cos_tail_has_one_maximizer(self, s, L):
        # the whole function lies within 1e-10 of its maximum; only local
        # maxima may tie, not the chart origin or the smooth minimum at a
        # breakpoint
        sig = SigmaDesc(L)
        vmax, amax = maximize_directional(cos_tail_directional(sig, s, [1.0]))
        if s < 0.0:
            assert (vmax, amax) == (-s, 1.0)
        else:
            assert vmax == pytest.approx(-s * math.cos(min(0.5 * L, math.pi)), rel=1e-12)
            assert sig.dist(amax, 1.0 + 0.5 * L) < 1e-12

    def test_non_concave_differential_fails_gradient_check(self):
        sig = SigmaDesc(1.5 * math.pi)
        d = combine_affine(sig, [(1.0, cos_tail_directional(sig, -1.0, [0.0])),
                                 (1.0, cos_tail_directional(sig, -0.5, [math.pi]))])
        assert maximize_directional(d)[0] > 1.0  # one maximizer, no tie
        with pytest.raises(GradientError, match="gradient inequality fails"):
            gradient_from_directional(d)


def _cut_at_antipode(s, u):
    """s * -cos(angle distance from u) on the 2 pi circle, cut at u's antipode.

    The same function as one cos-tail, written as two pieces whose phases
    are the lifts of u nearest to each side: the antipode is a lift seam.
    """
    a = FULL.wrap(u + math.pi)
    if a == 0.0:
        return DirectionalFn(FULL, [0.0, 2 * math.pi], [(-s, u, 0.0)])
    lifts = (u, u + 2 * math.pi) if u < math.pi else (u - 2 * math.pi, u)
    return DirectionalFn(FULL, [0.0, a, 2 * math.pi], [(-s, lift, 0.0) for lift in lifts])


class TestOneSinusoidOnTheFullCircle:
    """On a 2 pi circle one source is one piece; other circles keep their cuts."""

    XS = np.arange(720) * (2 * math.pi / 720)

    @pytest.mark.parametrize("u", [0.0, 0.3, math.pi, 5.0, 2 * math.pi - 1e-12])
    @pytest.mark.parametrize("s", [1.7, -0.6])
    def test_one_source_is_one_piece(self, s, u):
        d = cos_tail_directional(FULL, s, [u])
        assert (d.breaks, d.pieces, d.single) == ([0.0, 2 * math.pi], [(-s, u, 0.0)], (s, [u]))
        # a source at 0 puts the antipode at the circle's midpoint; the tail
        # is still a sinusoid there, not a constant
        ref = s * -np.cos(_angdist(FULL, self.XS, u))
        assert max(abs(d(x) - r) for x, r in zip(self.XS.tolist(), ref.tolist())) <= 1e-15

    @pytest.mark.parametrize("tails", [
        [(1.0, math.pi)],
        [(1.0, math.pi), (0.5, math.pi + 0.2)],
        [(0.8, math.pi - 0.05), (-0.3, 0.02), (1.1, math.pi + 0.01)],
    ])
    def test_maximum_on_the_chart_seam_keeps_its_gradient(self, tails):
        # every source near pi puts the maximum at or next to the seam 0
        one = combine_affine(FULL, [(1.0, cos_tail_directional(FULL, s, [u])) for s, u in tails])
        cut = combine_affine(FULL, [(1.0, _cut_at_antipode(s, u)) for s, u in tails])
        assert len(one.pieces) == 1
        g, g_cut = gradient_from_directional(one), gradient_from_directional(cut)
        assert g.norm == pytest.approx(g_cut.norm, abs=1e-15)
        assert FULL.dist(g.angle, g_cut.angle) <= 1e-15
        assert FULL.dist(g.angle, 0.0) <= 0.1

    def test_regular_cone_point_gradient_and_source_at_zero(self):
        # walking away from the apex points straight away from q = (1, 1)
        cone = ConeSpace(1.5 * math.pi)
        p, q = (2.0, 1.0), (1.0, 1.0)
        d = differential(Dist(q=q), cone, p)
        assert d.pieces == [(-1.0, math.pi, 0.0)]
        g = gradient(Dist(q=q), cone, p)
        assert g.norm == pytest.approx(1.0, abs=1e-15) and FULL.dist(g.angle, 0.0) <= 1e-15
        g = gradient(scale(-1.0, Dist(q=(3.0, 1.0))), cone, p)  # source at 0
        assert g.norm == pytest.approx(1.0, abs=1e-15) and FULL.dist(g.angle, 0.0) <= 1e-15

    @pytest.mark.parametrize("space, p", [(ConeSpace(1.5 * math.pi), (0.0, 0.0)),
                                          (SpindleSpace(4.0), (0.0, 0.0)),
                                          (SpindleSpace(4.0), (math.pi, 0.0))],
                             ids=["cone_apex", "spindle_north", "spindle_south"])
    def test_short_circles_keep_the_antipode_cut(self, space, p):
        q = (1.0, 0.7)
        sig = space.sigma_at(p)
        assert sig.length < 2 * math.pi
        (u,) = space.directions_to(p, q)
        d = differential(DistSq(q=q), space, p)
        assert d.breaks == [0.0, sig.wrap(u + 0.5 * sig.length), sig.length]
        xs = np.linspace(0.0, sig.length, 721)
        ref = 2.0 * space.distance(p, q) * -np.cos(_angdist(sig, xs, u))
        assert max(abs(d(x) - r) for x, r in zip(xs.tolist(), ref.tolist())) <= 1e-14
        gradient(DistSq(q=q), space, p)  # the gradient check passes

    def test_long_circle_keeps_its_cell_ends(self):
        sig = SigmaDesc(7.0)
        d = cos_tail_directional(sig, 1.0, [1.0])
        assert d.breaks == [0.0, 1.0 + math.pi, 4.5, 7.0 + 1.0 - math.pi, 7.0]
        assert [R for R, _, _ in d.pieces] == [-1.0, 0.0, 0.0, -1.0]

    def test_three_sources_keep_their_voronoi_breaks(self):
        srcs = [0.2, 2.0, 4.0]
        d = cos_tail_directional(FULL, 1.0, srcs)
        assert len(d.pieces) == 4 and (d.breaks[0], d.breaks[-1]) == (0.0, 2 * math.pi)
        assert d.breaks[1:4] == pytest.approx([1.1, 3.0, 2.1 + math.pi], abs=1e-15)
        ref = np.min([-np.cos(_angdist(FULL, self.XS, u)) for u in srcs], axis=0)
        assert max(abs(d(x) - r) for x, r in zip(self.XS.tolist(), ref.tolist())) <= 1e-15


class TestSupportingPolar:
    def test_polar_antipode_on_full_circle(self):
        v = TangentVec(1.0, 0.3, FULL)
        star = polar_vector(FULL, v)
        assert star.angle == pytest.approx(0.3 + math.pi)

    def test_polar_three_half_pi(self):
        sig = SigmaDesc(1.5 * math.pi)
        v = TangentVec(1.0, 0.0, sig)
        star = polar_vector(sig, v)
        assert star.angle == pytest.approx(math.pi)
        assert sig.dist(v.angle, star.angle) == pytest.approx(math.pi / 2)

    def test_self_polar_on_pi_circle(self):
        sig = SigmaDesc(math.pi)
        v = TangentVec(1.0, 0.4, sig)
        star = polar_vector(sig, v)
        assert star.angle == pytest.approx(0.4)

    def test_polar_inequality_for_concave_differentials(self):
        # d f(u) + d f(v) <= 0 for polar pairs and lambda-concave f
        rng = np.random.default_rng(9)
        for _ in range(100):
            q = PLANE.random_point(rng)
            p = PLANE.random_point(rng)
            if PLANE.distance(p, q) < 1e-2:
                continue
            d = differential(Dist(q=q), PLANE, p)
            a = rng.random() * 2 * math.pi
            u = TangentVec(1.0, a, FULL)
            v = polar_vector(FULL, u)
            assert d(u.angle) + d(v.angle) <= 1e-9

    def test_polar_grid_inequality(self):
        for L in (math.pi / 2, math.pi, 4.0, 1.5 * math.pi, 2 * math.pi):
            sig = SigmaDesc(L)
            rng = np.random.default_rng(int(L * 100))
            for _ in range(20):
                v = TangentVec(1.0, rng.random() * L, sig)
                star = polar_vector(sig, v)  # raises on verification failure
                assert star.norm == v.norm


def _loop_sums(sigma, v, star, grid):
    """<v,x> + <star,x> at the grid unit vectors, one scalar_product pair each."""
    out = []
    for i in range(grid + 1 if sigma.is_arc else grid):
        x = TangentVec(1.0, sigma.length * i / grid, sigma)
        out.append(scalar_product(v, x) + scalar_product(star, x))
    return out


POLAR_SIGMAS = [SigmaDesc(L) for L in (math.pi / 2, math.pi, 4.0, 1.5 * math.pi, 2 * math.pi)]
POLAR_SIGMAS.append(SigmaDesc(math.pi, is_arc=True))


class TestPolarGrid:
    @pytest.mark.parametrize("sig", POLAR_SIGMAS, ids=lambda s: f"{s.length:.4f}{'arc' if s.is_arc else ''}")
    def test_array_equals_scalar_loop(self, sig):
        rng = np.random.default_rng(21)
        for _ in range(40):
            v = TangentVec(0.1 + 3.0 * rng.random(), rng.random() * sig.length, sig)
            star = polar_vector(sig, v)
            xs, vals = polar_grid_sums(sig, v, star, 720)
            loop = _loop_sums(sig, v, star, 720)
            assert vals.tolist() == loop
            assert xs.tolist() == [sig.length * i / 720 for i in range(len(loop))]
        # the arc's grid takes its endpoint, index grid
        assert len(xs) == (721 if sig.is_arc else 720)

    def test_wrong_partner_raises(self, monkeypatch):
        # v in place of its polar on the 2 pi circle: 2 <v,x> < 0 opposite v
        v = TangentVec(1.0, 0.3, FULL)
        real = tangent.polar_grid_sums
        monkeypatch.setattr(tangent, "polar_grid_sums",
                            lambda sigma, u, star, grid: real(sigma, u, u, grid))
        with pytest.raises(RuntimeError, match="polar verification failed"):
            polar_vector(FULL, v)

    def test_no_scalar_product_calls(self, monkeypatch):
        calls = []
        real = tangent.scalar_product
        monkeypatch.setattr(tangent, "scalar_product",
                            lambda u, v: calls.append(1) or real(u, v))
        for sig in POLAR_SIGMAS:
            polar_vector(sig, TangentVec(1.0, 0.4, sig))
        assert calls == []


class TestLowerSemicontinuity:
    def test_gradient_norm_along_curves(self):
        # |grad f| at a kink point never exceeds nearby values by more than
        # the sampling tolerance: statistical lower-semicontinuity
        from alexgeo.functions import MinExpr

        f = MinExpr(terms=(Dist(q=(1.0, 0.0)), Dist(q=(1.0, math.pi))))
        # the equidistant set is the vertical axis; approach it along a chord
        rng = np.random.default_rng(17)
        for _ in range(40):
            y = 0.3 + rng.random()
            ridge = (y, math.pi / 2)
            g_ridge = gradient(f, PLANE, ridge).norm
            # approach transversally: the norm may only jump UP in the limit
            for side in (math.pi / 2, 3 * math.pi / 2):
                seq = [gradient(f, PLANE, PLANE.walk(ridge, side, s).end).norm
                       for s in (1e-2, 1e-3, 1e-4)]
                assert g_ridge <= seq[-1] + 1e-6
