import math
from unittest import mock

import numpy as np
import pytest

from alexgeo import concavity_tight, flow
from alexgeo.spaces import CapSpace, ConeSpace, PolygonSpace, SpindleSpace
from alexgeo.concavity_tight import (
    ConstructionError,
    build_strictly_concave,
    tight_check,
    tight_image_study,
)
from alexgeo.functions import (Certificate, Dist, DistSq, MinExpr, _compile, _compile_jet,
                               check_concavity, evaluate, scale)
from alexgeo.tangent import GradientError, directional_sup, gradient_from_directional
from alexgeo.verdict import passed

PLANE = ConeSpace(2 * math.pi)
SQUARE = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])


class TestStrictlyConcave:
    def test_plane_bump_margin(self):
        p = (1.0, 0.5)
        expr, margin = build_strictly_concave(PLANE, p, r=0.5, c=50.0, n_points=4,
                                              n_geodesics=100, seed=1)
        assert -margin > 0.0
        assert evaluate(expr, PLANE, p) == pytest.approx(0.0, abs=1e-12)

    def test_certificate_holds_the_validated_centre(self):
        # the benchmark's oracle reads the bump's centre from its certificate
        expr, _ = build_strictly_concave(SQUARE, [0.5, 0.5], r=0.35, c=60.0, n_points=6,
                                         n_geodesics=8, seed=1)
        cert: Certificate
        cert, = expr.certificates
        assert cert.center == (0.5, 0.5) and type(cert.center) is tuple

    def test_margin_grows_with_c(self):
        p = (1.0, 0.5)
        margins = []
        for c in (30.0, 60.0, 120.0):
            _, margin = build_strictly_concave(PLANE, p, r=0.5, c=c, n_points=4,
                                               n_geodesics=60, seed=2)
            margins.append(-margin)
        assert margins[0] < margins[1] < margins[2]

    def test_insufficient_c_reports_failure(self):
        with pytest.raises(ConstructionError) as err:
            build_strictly_concave(PLANE, (1.0, 0.5), r=0.5, c=0.2, n_points=4,
                                   n_geodesics=80, seed=3)
        assert "retry with" in str(err.value)


class TestTightCheck:
    def test_main_example_obtuse_comparison_angles(self):
        # angle(a0, p, a1) = 2pi/3 > pi/2: distance pair is tight near p
        p = (0.0, 0.0)
        a0 = (1.0, 0.0)
        a1 = (1.0, 2 * math.pi / 3)
        rep = tight_check(PLANE, [Dist(q=a0), Dist(q=a1)], (p, 0.05),
                          n_samples=100, seed=6)
        assert passed(rep.margins())
        assert rep.sup_cross < -0.3

    def test_equal_functions_not_tight(self):
        q = (1.0, 0.0)
        rep = tight_check(PLANE, [Dist(q=q), Dist(q=q)], ((2.0, 1.0), 0.05),
                          n_samples=50, seed=7)
        assert not passed(rep.margins())
        assert rep.sup_cross >= 0.0

    def test_three_points_around_square_center(self):
        c = (0.5, 0.5)
        pts = [(0.5 + 0.45 * math.cos(a), 0.5 + 0.45 * math.sin(a))
               for a in (0.3, 0.3 + 2 * math.pi / 3, 0.3 + 4 * math.pi / 3)]
        funcs = [Dist(q=q) for q in pts]
        rep = tight_check(SQUARE, funcs, (c, 0.04), n_samples=150, seed=8)
        assert passed(rep.margins())
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


class TestValidatedOnce:
    def test_tight_job_of_the_benchmark_shape(self):
        # three coordinates and their image study, as one `closed_verify`
        # tight job: each public entry validates its input, and the points
        # the space made (samples, chord and grid points, walk ends) are
        # evaluated and measured as they are.  Left: the samplers' and
        # `geodesic_points`' validation of their arguments (4 per chord,
        # 1 per grid point) and each leaf's q, once per closure and space
        square = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])
        centers = [(0.5 + 0.08 * math.cos(a), 0.5 + 0.08 * math.sin(a))
                   for a in (0.4, 0.4 + 2 * math.pi / 3, 0.4 + 4 * math.pi / 3)]
        with mock.patch.object(square, "validate_point", wraps=square.validate_point) as v:
            funcs = [build_strictly_concave(square, c, r=0.35, c=60.0, n_points=6,
                                            n_geodesics=8, seed=873157000)[0]
                     for c in centers]
            built = v.call_count
            tight_image_study(square, funcs, ((0.5, 0.5), 0.05), grid_n=4, n_support=6,
                              n_gf=2, seed=873157000)
        assert built == 3 * (1 + 8 * 4 + 6 * 2)
        assert v.call_count - built == 30 * 4 + 16 + 3 * 6


class TestLocator:
    """`_argmax_min`: its cost per call and its value against a scan."""

    @staticmethod
    def _quick_c10_funcs():
        centers = [(0.5 + 0.08 * math.cos(a), 0.5 + 0.08 * math.sin(a))
                   for a in (0.4, 0.4 + 2 * math.pi / 3, 0.4 + 4 * math.pi / 3)]
        return [build_strictly_concave(SQUARE, c, r=0.35, c=60.0, n_points=6,
                                       seed=114)[0] for c in centers]

    @staticmethod
    def _count_per_call(monkeypatch, *counted):
        """Patch each `owner.name` of counted, a list of (owner, name)
        pairs, to be counted, and return the list of count tuples, one
        count per pair, that each later `_argmax_min` call appends."""
        per_call, seen = [], [0] * len(counted)
        locate = concavity_tight._argmax_min

        def counting(*args):
            seen[:] = [0] * len(counted)
            out = locate(*args)
            per_call.append(tuple(seen))
            return out

        def counter(k, real):
            def counted_call(*args):
                seen[k] += 1
                return real(*args)
            return counted_call

        monkeypatch.setattr(concavity_tight, "_argmax_min", counting)
        for k, (owner, name) in enumerate(counted):
            monkeypatch.setattr(owner, name, counter(k, getattr(owner, name)))
        return per_call

    def test_ridge_top_ends_the_ascent(self, monkeypatch):
        # an exact ray search lands on the ridge top of this image study;
        # without the ridge-top stop one call zigzags across it for 107
        # gradients on gains of 2e-15.  Each point's gradient is read from
        # its model, the values and differentials of the coordinates there,
        # which the locator reads once per point it steps from
        per_call = self._count_per_call(monkeypatch, (concavity_tight, "_model"))
        centers = [(0.48906059814734126, 0.42075147012653136),
                   (0.5741009410093232, 0.5301504650301253),
                   (0.43683846084333555, 0.5490980648433433)]
        funcs = [build_strictly_concave(SQUARE, c, r=0.35, c=60.0, n_points=6,
                                        n_geodesics=8, seed=873157000)[0]
                 for c in centers]
        rep = tight_image_study(SQUARE, funcs, ((0.5, 0.5), 0.05), grid_n=4,
                                n_support=6, n_gf=2, seed=873157000)
        assert rep.support_failures == 0
        assert len(per_call) == 10
        assert max(n for n, in per_call) <= 20

    def test_walk_budget_on_quick_c10(self, monkeypatch):
        # 230 locator calls; a golden-section ray search takes 124 walks per
        # call, the ray ascent alone 21.  The top is nearly always a point
        # where the three coordinates agree, and Newton steps reach and
        # certify it without the ascent
        per_call = self._count_per_call(monkeypatch, (PolygonSpace, "_walk"),
                                        (concavity_tight, "_ascend"))
        rep = tight_image_study(SQUARE, self._quick_c10_funcs(), ((0.5, 0.5), 0.05),
                                grid_n=12, n_support=150, n_gf=40, seed=115)
        assert rep.support_failures == 0 and rep.gf_worst < 1e-12
        assert len(per_call) == 230
        walks = sum(n for n, _ in per_call)
        assert walks <= 40 * len(per_call)
        assert walks <= 10 * len(per_call)
        assert sum(ascents == 0 for _, ascents in per_call) >= 0.9 * len(per_call)

    @staticmethod
    def _target(funcs, ys):
        return MinExpr(terms=tuple(scale(1.0, f, -y) for f, y in zip(funcs, ys)))

    @staticmethod
    def _jets(target, space):
        return [_compile_jet(t, space) for t in target.terms]

    def test_model_gradient_is_the_gradient_of_the_min(self):
        # the ascent's gradient, read from the model of a point, against
        # `gradient` of the min on the same point, bit for bit: inside the
        # square with one or all three coordinates active, on its edges and
        # at a corner, and at points of the 1.5 pi cone and its apex
        funcs = self._quick_c10_funcs()
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(30):
            x = SQUARE.random_point_near((0.5, 0.5), 0.05, rng)
            y = SQUARE.random_point_near((0.5, 0.5), 0.05, rng)
            for ys in (tuple(evaluate(f, SQUARE, y) for f in funcs),
                       tuple(evaluate(f, SQUARE, x) for f in funcs)):
                cases.append((SQUARE, funcs, ys, x))
        for x in ((0.5, 0.0), (0.0, 0.3), (1.0, 1.0)):
            cases.append((SQUARE, funcs, tuple(evaluate(f, SQUARE, x) for f in funcs), x))
        cone, cone_funcs = self._cone_apex_funcs()
        for x in ((0.0, 0.0), (0.2, 1.0), (0.3, 4.0)):
            cases.append((cone, cone_funcs, tuple(evaluate(f, cone, (0.02, 0.3))
                                                  for f in cone_funcs), x))
        for space, fs, ys, x in cases:
            x = space.validate_point(x)
            target = self._target(fs, ys)
            vals = [evaluate(t, space, x) for t in target.terms]
            _, _, sigma, diffs = concavity_tight._model(space, self._jets(target, space), x)
            try:
                expected = flow.gradient(target, space, x)
            except GradientError:
                with pytest.raises(GradientError):
                    gradient_from_directional(
                        concavity_tight._min_differential(sigma, vals, diffs))
                continue
            got = gradient_from_directional(concavity_tight._min_differential(sigma, vals, diffs))
            assert (got.norm.hex(), got.angle.hex(), got.sigma) == (
                expected.norm.hex(), expected.angle.hex(), expected.sigma)

    @staticmethod
    def _cone_apex_funcs():
        cone = ConeSpace(1.5 * math.pi)
        return cone, [build_strictly_concave(cone, (0.25, 0.5 * math.pi * k + 0.3), r=0.2,
                                             c=60.0, n_points=6, seed=114)[0]
                      for k in range(3)]

    @pytest.mark.parametrize("on_cone, y, expected", [
        (False, (0.5, 0.5), "-0x1.2560000000000p-36"),
        (False, (0.53, 0.48), "-0x1.0800000000000p-46"),
        (True, (0.02, 0.3), "-0x1.459172edee290p+2"),
    ], ids=["square-edge", "square-edge-off-centre", "cone-apex"])
    def test_start_at_a_non_linear_point_takes_the_ascent(self, monkeypatch, on_cone, y,
                                                          expected):
        # where the differentials are no sinusoids on a 2 pi circle (on the
        # square's edge, at the apex of the 1.5 pi cone) the locator runs
        # the ray ascent from the start, as before the Newton steps: the
        # expected values are that ascent's, to the bit.  At the apex the
        # differential of the min fails the gradient inequality, so the
        # ascent stops where it starts
        if on_cone:
            space, funcs = self._cone_apex_funcs()
            region, start = ((0.0, 0.0), 0.1), (0.0, 0.0)
        else:
            space, funcs = SQUARE, self._quick_c10_funcs()
            region, start = ((0.5, 0.5), 0.05), (0.5, 0.0)
        ys = tuple(evaluate(f, space, y) for f in funcs)
        per_call = self._count_per_call(monkeypatch, (concavity_tight, "_ascend"))
        start = space.validate_point(start)
        _, value = concavity_tight._argmax_min(
            space, funcs, ys, region, [start], [tuple(evaluate(f, space, start) for f in funcs)])
        assert value.hex() == expected
        assert per_call == [(1,)]

    @staticmethod
    def _replayed_support_call(seed, job, call):
        """(funcs, ys, region, grid points, grid values) of support test
        `call` of `closed_verify` tight job `job` of the given seed, drawn
        as the workload and `tight_image_study` draw them."""
        rng = np.random.default_rng([seed, 3, job])
        a0 = rng.random() * 2.0 * math.pi
        study_seed = int(rng.integers(1 << 30))
        funcs = [build_strictly_concave(SQUARE, (0.5 + 0.08 * math.cos(a),
                                                 0.5 + 0.08 * math.sin(a)),
                                        r=0.35, c=60.0, n_points=6, n_geodesics=8,
                                        seed=study_seed)[0]
                 for a in (a0, a0 + 2 * math.pi / 3, a0 + 4 * math.pi / 3)]
        region = ((0.5, 0.5), 0.05)
        rng = np.random.default_rng(study_seed)
        grid_pts = [SQUARE.random_point_near(region[0], region[1], rng) for _ in range(16)]
        grid_vals = [tuple(evaluate(f, SQUARE, x) for f in funcs) for x in grid_pts]
        for _ in range(call + 1):
            i, j = rng.integers(0, len(grid_vals), size=2)
            t = rng.random()
        ys = tuple(t * a + (1.0 - t) * b for a, b in zip(grid_vals[i], grid_vals[j]))
        return funcs, ys, region, grid_pts, grid_vals

    def test_no_band_stop_below_the_agreement_point(self):
        # call 460 of the replayed `closed_verify` locator calls, seeds
        # 9101-9102: the first support test of job 140 of seed 9101.  The
        # gradient ascent stopped where the third coordinate sat 1.00e-9
        # above the other two (gaps 4.2e-14, 1.00e-9, 0), counted it active
        # and read a vanishing gradient, 1.26e-10 below the top, the point
        # where the three coordinates agree
        funcs, ys, region, grid_pts, grid_vals = self._replayed_support_call(9101, 140, 0)
        assert ys == (-1.985682454300718, -6.3370113428728905, -4.625384659144433)
        _, value = concavity_tight._argmax_min(SQUARE, funcs, ys, region, grid_pts, grid_vals)

        # the agreement point, by Newton steps on central differences
        def gaps(p):
            v = [evaluate(f, SQUARE, p) - y for f, y in zip(funcs, ys)]
            return np.array([v[1] - v[0], v[2] - v[0]]), min(v)

        z = np.array(grid_pts[max(range(16), key=lambda k: min(
            a - y for a, y in zip(grid_vals[k], ys)))])
        for _ in range(12):
            g, _ = gaps(z)
            jac = np.column_stack([(gaps(z + h)[0] - gaps(z - h)[0]) / 2e-7
                                   for h in (np.array([1e-7, 0.0]), np.array([0.0, 1e-7]))])
            z = z - np.linalg.solve(jac, g)
        assert np.abs(gaps(z)[0]).max() < 1e-13
        assert value >= gaps(z)[1] - 1e-13

    def test_ridge_top_is_certified_without_a_crawl(self, monkeypatch):
        # call 742 of the replayed `closed_verify` locator calls, seeds
        # 9101-9102: the third support test of job 224 of seed 9101.  Its
        # top lies on a curved ridge of two coordinates: the ray ascent
        # crawled along it for 119 gradients and 610 walks, then, after
        # Newton steps to an agreement point that is not the top, for 5
        # gradients and 66 walks, ending uncertified at 0.02823557879928451.
        # The ridge steps certify it in 10 walks, Newton's included
        funcs, ys, region, grid_pts, grid_vals = self._replayed_support_call(9101, 224, 2)
        assert ys == (-4.065924696338693, -7.844939590990661, -1.2695869909649182)
        per_call = self._count_per_call(monkeypatch, (PolygonSpace, "_walk"),
                                        (concavity_tight, "_ascend"))
        ridge, ends = concavity_tight._ridge, []
        monkeypatch.setattr(concavity_tight, "_ridge",
                            lambda *args: ends.append(ridge(*args)) or ends[-1])
        x, value = concavity_tight._argmax_min(SQUARE, funcs, ys, region, grid_pts, grid_vals)
        assert [(model[0], min(model[1]), certified)
                for model, certified in ends] == [(x, value, True)]
        (walks, ascents), = per_call
        assert ascents == 0 and walks <= 16
        assert value >= 0.02823557879928451

    def test_parallel_gradients_refuse_the_ridge_stop(self, monkeypatch):
        # at x, f_0 = f_1 and their gradients point the same way; the min's
        # differential rises by 5e-10 at most, within the ridge certificate's
        # bound, so only the antiparallel test refuses the stop.  The top
        # is the maximum of f_0, 2.5e-10 from x and 6.25e-20 above it: the
        # locator matches the scan up to the ascent's gain floor of 1e-15
        x = SQUARE.validate_point((0.5, 0.5))
        funcs = [scale(-1.0, DistSq(q=(0.5 + 2.5e-10, 0.5))), scale(-2.0, DistSq(q=(0.6, 0.5))),
                 scale(-1.0, DistSq(q=(0.5, 0.3)))]
        fx = tuple(evaluate(f, SQUARE, x) for f in funcs)
        ys, region = (fx[0], fx[1], fx[2] - 1.0), ((0.5, 0.5), 0.05)
        target = self._target(funcs, ys)
        terms, jets = [_compile(t, SQUARE, False) for t in target.terms], self._jets(target, SQUARE)
        vals = [term(x) for term in terms]
        model = concavity_tight._model(SQUARE, jets, x)
        sigma, diffs = model[2:]
        sup, u = directional_sup(concavity_tight._min_differential(sigma, vals, diffs))
        assert 0.0 < sup <= concavity_tight._RIDGE_SUP
        stops, certify = [], concavity_tight._ridge_top
        monkeypatch.setattr(concavity_tight, "_ridge_top",
                            lambda *args: stops.append(certify(*args)) or stops[-1])
        _, certified = concavity_tight._ridge(SQUARE, jets, terms, model, u, region)
        assert not certified and stops and not any(stops)
        _, value = concavity_tight._argmax_min(SQUARE, funcs, ys, region, [x], [fx])
        assert value >= self._scan(funcs, ys, region) - 1e-15

    def test_rounding_is_no_gain(self, monkeypatch):
        # call 130 of the replayed `closed_verify` locator calls, seeds
        # 9101-9102: the first support test of job 41 of seed 9101, whose
        # Newton steps reach an agreement point that is not the top.  From
        # there, with each y_i lowered by 5 so that the values lie near 5
        # (one ulp 8.9e-16), the ascent's gains fall 4.7e-3, 2.6e-5, 1.4e-7,
        # 7.7e-10, 4.3e-12; a floor of 1e-15 took the next, 2.7e-15, as a
        # gain and read a 7th gradient.  Four ulps of the values end it
        funcs, ys, region, _, _ = self._replayed_support_call(9101, 41, 0)
        target = self._target(funcs, tuple(y - 5.0 for y in ys))
        terms, jets = [_compile(t, SQUARE, False) for t in target.terms], self._jets(target, SQUARE)
        x = SQUARE.validate_point((0.5474125225649462, 0.5049826934157858))
        model = concavity_tight._model(SQUARE, jets, x)
        assert 5.0 < min(model[1]) and max(model[1]) < 5.03
        reads, read = [], concavity_tight._model
        monkeypatch.setattr(concavity_tight, "_model", lambda *args: reads.append(1) or read(*args))
        _, value = concavity_tight._ascend(SQUARE, jets, terms, model, region)
        assert 1 + len(reads) == 6
        assert value == pytest.approx(5.0259166278043415, abs=1e-14)

    def test_no_gain_proof_ends_early(self, monkeypatch):
        # call 1007 of full c10, a G o F sample: at the parent its Newton
        # steps reach an agreement point that does not certify, and the
        # ascent from there reads a gradient of norm 1e-6 and spends 396
        # walks on rays that no probe of gains 1e-15.  The tangent lines
        # of the coordinates bound every gain along such a ray, and the
        # ascent returns the same point after the first of them
        ys = (-2.051859747973874, -7.291096590281841, -2.866503421201877)
        x = SQUARE.validate_point((0.5354116880647415, 0.48049394234622655))
        funcs = self._quick_c10_funcs()  # full c10 builds the same coordinates
        target = self._target(funcs, ys)
        terms, jets = [_compile(t, SQUARE, False) for t in target.terms], self._jets(target, SQUARE)
        vals = [term(x) for term in terms]
        model = concavity_tight._model(SQUARE, jets, x)
        walks = []
        walk = PolygonSpace._walk
        monkeypatch.setattr(PolygonSpace, "_walk",
                            lambda *args: walks.append(1) or walk(*args))
        end, value = concavity_tight._ascend(SQUARE, jets, terms, model, ((0.5, 0.5), 0.05))
        assert (end, value) == (x, min(vals)) and value == 0.0
        assert len(walks) <= 30

    @staticmethod
    def _scan(funcs, ys, region):
        """Best value of min_i (f_i - y_i) on a 21 x 21 grid zoomed 14 times
        by 5 about its best point, down to a spacing of 8e-12."""
        best, (cx, cy), half = -math.inf, region[0], 2.0 * region[1]
        for _ in range(14):
            offsets = np.linspace(-half, half, 21)
            for x in cx + offsets:
                for y in cy + offsets:
                    v = min(evaluate(f, SQUARE, (x, y)) - yi for f, yi in zip(funcs, ys))
                    if v > best:
                        best, top = v, (x, y)
            (cx, cy), half = top, half / 5.0
        return best

    def test_value_no_lower_than_a_grid_scan(self):
        # the scan zooms a 21 x 21 grid 14 times by 5 about its best point,
        # down to a spacing of 8e-12: its best is a value of min_i (f_i - y_i)
        # within about 6e-10 of the top, where the slopes are about 70
        funcs = self._quick_c10_funcs()
        region = ((0.5, 0.5), 0.05)
        rng = np.random.default_rng(16)
        grid_pts = [SQUARE.random_point_near(region[0], region[1], rng)
                    for _ in range(36)]
        grid_vals = [tuple(evaluate(f, SQUARE, x) for f in funcs) for x in grid_pts]

        for k in range(4):
            i, j = rng.integers(0, len(grid_vals), size=2)
            t = rng.random()
            ys = tuple(t * a + (1.0 - t) * b for a, b in zip(grid_vals[i], grid_vals[j]))
            if k == 3:  # the image of a point, as in a G o F sample
                ys = grid_vals[i]
            _, value = concavity_tight._argmax_min(SQUARE, funcs, ys, region,
                                                   grid_pts, grid_vals)
            assert value >= self._scan(funcs, ys, region) - 1e-9
