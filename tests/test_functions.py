import ast
import collections
import copy
import math
import pickle
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from alexgeo import model_plane
from alexgeo.spaces import (CapSpace, ConeSpace, DoubledCap, DoubledPolygon, MeshPoint,
                            MeshSpace, PolygonSpace, SpaceError, SpindleSpace, build_doubling,
                            random_tetrahedron, regular_tetrahedron)
from alexgeo.functions import (
    Affine,
    BoundaryDist,
    Dist,
    DistSq,
    ExprError,
    InfConvolution,
    InfConvResult,
    MinExpr,
    PhiRC,
    RhoDist,
    check_concavity,
    _compile,
    _compile_jet,
    differential,
    evaluate,
    evaluate_each,
    scale,
)
from alexgeo.flow import gradient
from alexgeo.tangent import (GradientError, combine_affine, combine_min, constant_directional,
                             cos_tail_directional)
from alexgeo.verdict import passed

PLANE = ConeSpace(2 * math.pi)
SQUARE = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])


def scalar_inf_convolution_oracle(ic, y):
    """`InfConvolution.query` with walk-by-walk scans: one `_walk` and one
    objective per stencil point, each ray stopped at its first event or
    refused walk; the descent and the compass polish are the library's."""
    space = ic.space
    y = space.validate_point(y)
    obj = ic._objective(y)

    def scan(center, radius, best):
        sig = space.sigma_at(center)
        hit_rim = False
        for i in range(16):
            ang = sig.length * (i + 0.5) / 16
            for k in range(1, 9):
                try:
                    w = space._walk(center, ang, radius * k / 8)
                except SpaceError:
                    break
                v = obj(w.end)
                if v < best[0] - 1e-15:
                    best, hit_rim = (v, w.end), k == 8
                if w.event is not None:
                    break
        return best, hit_rim

    best, radius = (obj(y), y), ic.search_radius
    best, hit_rim = scan(y, radius, best)
    doubled = hit_rim
    if doubled:
        radius *= 2.0
        best, hit_rim = scan(y, radius, best)
    v, x, slope = ic._descend(y, best, radius)
    if slope <= 1e-9:
        return InfConvResult(v, x, not hit_rim, slope)
    for _ in range(2 if doubled else 3):
        radius /= 8.0
        best, _ = scan(best[1], radius, best)
    best = ic._polish(obj, best, max(radius / 8.0, 1e-6))
    if v < best[0]:
        best = (v, x)
    return InfConvResult(*best, not hit_rim, math.inf)


def interpret(expr, space, p):
    """Tree-walking evaluation, the reference for the compiled `evaluate`."""
    if isinstance(expr, Dist):
        return space.distance(p, expr.q)
    if isinstance(expr, DistSq):
        d = space.distance(p, expr.q)
        return d * d
    if isinstance(expr, RhoDist):
        return model_plane.rho(expr.kappa, space.distance(p, expr.q))
    if isinstance(expr, PhiRC):
        return expr.phi(space.distance(p, expr.q))
    if isinstance(expr, Affine):
        v = expr.constant
        for w, t in zip(expr.weights, expr.terms):
            v += w * interpret(t, space, p)
        return v
    if isinstance(expr, MinExpr):
        return min(interpret(t, space, p) for t in expr.terms)
    if isinstance(expr, BoundaryDist):
        # a double's boundary distance is pulled back here on its own, not
        # read from the space's answer that the compiled leaf calls
        if isinstance(space, (DoubledPolygon, DoubledCap)):
            return space.base.boundary_dist(space.project(p))
        return space.boundary_dist(p)
    if callable(expr):
        return float(expr(space, p))
    raise ExprError(f"cannot evaluate {expr!r}")


def reference_differential(expr, space, p):
    """Tree-walking chain rule, the reference for `differential`.

    One branch per node kind; each distance leaf scales the unit-rate
    cos-tail of dist_q by its outer slope.
    """
    p = space.validate_point(p)
    return _reference_diff(expr, space, p, space.sigma_at(p))


def _reference_dist_leaf(space, p, q, sigma):
    d = space.distance(p, q)  # from p, as the directions: a mesh is symmetric only to rounding
    if d <= 1e-12:
        return d, constant_directional(sigma, 1.0)
    return d, cos_tail_directional(sigma, 1.0, space.directions_to(p, q))


def _reference_diff(expr, space, p, sigma):
    if isinstance(expr, Dist):
        return _reference_dist_leaf(space, p, expr.q, sigma)[1]
    if isinstance(expr, DistSq):
        d, base = _reference_dist_leaf(space, p, expr.q, sigma)
        if d <= 1e-12:
            return constant_directional(sigma, 0.0)
        return combine_affine(sigma, [(2.0 * d, base)])
    if isinstance(expr, RhoDist):
        d, base = _reference_dist_leaf(space, p, expr.q, sigma)
        return combine_affine(sigma, [(model_plane.sigma(expr.kappa, d), base)])
    if isinstance(expr, PhiRC):
        d, base = _reference_dist_leaf(space, p, expr.q, sigma)
        return combine_affine(sigma, [(expr.dphi(d), base)])
    if isinstance(expr, Affine):
        return combine_affine(sigma, [(w, _reference_diff(t, space, p, sigma))
                                      for w, t in zip(expr.weights, expr.terms)])
    if isinstance(expr, MinExpr):
        vals = [evaluate(t, space, p) for t in expr.terms]
        vmin = min(vals)
        return combine_min(sigma, [_reference_diff(t, space, p, sigma)
                                   for t, v in zip(expr.terms, vals) if v <= vmin + 1e-9])
    if isinstance(expr, BoundaryDist):
        if space.boundary_tails is None:
            raise ExprError(f"{space.variant} has no boundary differential")
        try:
            tails = space.boundary_tails(p)
        except SpaceError as exc:
            raise ExprError(str(exc)) from exc
        return combine_min(sigma, [
            constant_directional(sigma, s) if sources is None
            else cos_tail_directional(sigma, s, sources)
            for s, sources in tails
        ])
    raise ExprError(f"cannot differentiate {expr!r}")


def mixed_tree(space, q1, q2, q3, boundary):
    """A tree with every node kind: the boundary leaf only where there is one."""
    leaves = (Dist(q=q1), DistSq(q=q2), RhoDist(kappa=space.kappa, q=q3),
              PhiRC(r=0.3, c=2.0, q=q1))
    body = Affine(weights=(1.0, -0.5, 2.0, 0.7), constant=0.25, terms=leaves)
    terms = (body, scale(-1.0, DistSq(q=q3), 3.0))
    if boundary:
        terms += (Affine(weights=(1.0, 1.0), terms=(BoundaryDist(), Dist(q=q2))),)
    return MinExpr(terms=terms)


def nodes(expr):
    yield expr
    for t in getattr(expr, "terms", ()):
        yield from nodes(t)


def evaluation_cases():
    """(space, tree, points): apexes, boundary points, corners and mesh points."""
    cone, spindle, cap = ConeSpace(1.5 * math.pi), SpindleSpace(4.0), CapSpace(0.8)
    double = DoubledPolygon(SQUARE)
    tetra = regular_tetrahedron()
    return {
        "cone": (cone, mixed_tree(cone, (1.0, 0.3), (0.7, 4.0), (0.0, 0.0), False),
                 [(0.0, 0.0), (0.5, 1.0), (1.2, 4.5), (2.0, 4.6)]),
        "spindle": (spindle, mixed_tree(spindle, (1.0, 0.3), (2.5, 3.9), (0.0, 0.0), False),
                    [(0.0, 0.0), (math.pi, 1.0), (0.7, 2.0), (2.9, 3.5)]),
        "cap": (cap, mixed_tree(cap, (0.5, 0.3), (0.8, 2.0), (0.0, 0.0), True),
                [(0.0, 0.0), (0.8, 1.0), (0.3, 5.0), (0.79, 3.0)]),
        "square": (SQUARE, mixed_tree(SQUARE, (0.2, 0.3), (0.9, 0.1), (0.5, 0.5), True),
                   [(0.3, 0.4), (0.5, 0.0), (1.0, 1.0), (0.0, 0.7)]),
        "doubled_square": (double, mixed_tree(double, double.lift((0.2, 0.3), 0),
                                              double.lift((0.7, 0.6), 1),
                                              double.lift((0.5, 0.1), 0), True),
                           [double.lift((0.3, 0.4), 0), double.lift((0.8, 0.7), 1),
                            double.lift((0.5, 0.0), 0), double.lift((0.1, 0.6), 1)]),
        "tetrahedron": (tetra, mixed_tree(tetra, (0, (0.2, 0.3, 0.5)), (1, (1.0, 0.0, 0.0)),
                                          (3, (0.1, 0.1, 0.8)), False),
                        [(0, (0.6, 0.2, 0.2)), (2, (0.0, 0.5, 0.5)), (3, (0.0, 0.0, 1.0))]),
    }


class TestEval:
    def test_dist_at_base(self):
        q = (1.0, 0.3)
        assert evaluate(Dist(q=q), PLANE, q) == 0.0

    def test_rho_dist_flat(self):
        q = (1.0, 0.0)
        p = (3.0, 0.0)
        assert evaluate(RhoDist(kappa=0.0, q=q), PLANE, p) == pytest.approx(2.0)

    def test_phi_rc_zero_on_sphere_of_radius_r(self):
        q = (1.0, 0.0)
        x = (1.0 + 0.3, 0.0)
        f = PhiRC(r=0.3, c=12.0, q=q)
        assert evaluate(f, PLANE, x) == pytest.approx(0.0, abs=1e-12)

    def test_phi_derivative_normalization(self):
        f = PhiRC(r=0.3, c=12.0, q=(0.0, 0.0))
        assert f.phi(0.3) == 0.0
        h = 1e-7
        assert (f.phi(0.3 + h) - f.phi(0.3 - h)) / (2 * h) == pytest.approx(1.0)
        assert (f.phi(0.3 + h) - 2 * f.phi(0.3) + f.phi(0.3 - h)) / h**2 == \
            pytest.approx(-2 * 12.0 / 0.3, rel=1e-4)

    def test_affine_and_min(self):
        q1, q2 = (1.0, 0.0), (1.0, math.pi)
        f = MinExpr(terms=(Dist(q=q1), Dist(q=q2)))
        assert evaluate(f, PLANE, (0.0, 0.0)) == pytest.approx(1.0)
        g = Affine(weights=(2.0, 1.0), constant=-0.5,
                   terms=(Dist(q=q1), Dist(q=q2)))
        assert evaluate(g, PLANE, (0.0, 0.0)) == pytest.approx(2.5)

    def test_boundary_dist(self):
        assert evaluate(BoundaryDist(), SQUARE, (0.3, 0.5)) == pytest.approx(0.3)

    @pytest.mark.parametrize("base, points, expected", [
        (SQUARE, [(0.3, 0.5), (0.9, 0.2), (0.5, 0.0), (1.0, 1.0)], [0.3, 0.1, 0.0, 0.0]),
        (CapSpace(math.pi / 2), [(0.0, 0.0), (0.4, 1.0), (1.2, 5.0), (math.pi / 2, 2.0)],
         [math.pi / 2, math.pi / 2 - 0.4, math.pi / 2 - 1.2, 0.0]),
    ], ids=["square", "hemisphere"])
    def test_boundary_dist_pulled_back_on_both_sheets(self, base, points, expected):
        double = build_doubling(base)
        for x, want in zip(points, expected):
            assert base.boundary_dist(base.validate_point(x)) == pytest.approx(want, abs=1e-15)
            for sheet in (0, 1):
                got = evaluate(BoundaryDist(), double, double.lift(x, sheet))
                assert got == pytest.approx(want, abs=1e-12)


class TestCompiledEvaluation:
    @pytest.mark.parametrize("name", list(evaluation_cases()))
    def test_bit_identical_to_the_interpreter(self, name):
        space, tree, points = evaluation_cases()[name]
        for node in nodes(tree):
            for p in points:
                assert evaluate(node, space, p) == interpret(node, space, p)

    def test_cases_cover_every_node_kind(self):
        kinds = {type(n) for _, tree, _ in evaluation_cases().values() for n in nodes(tree)}
        assert kinds == {Dist, DistSq, RhoDist, PhiRC, Affine, MinExpr, BoundaryDist}

    def test_equality_hash_and_copies_survive_evaluation(self):
        space, tree, points = evaluation_cases()["square"]
        twin = evaluation_cases()["square"][1]
        before = (hash(tree), repr(tree))
        values = [evaluate(tree, space, p) for p in points]
        assert tree == twin and (hash(tree), repr(tree)) == before == (hash(twin), repr(twin))
        certified = tree.with_certificate((0.5, 0.5))
        assert [evaluate(certified, space, p) for p in points] == values
        restored = pickle.loads(pickle.dumps(tree))
        assert restored == tree and [evaluate(restored, space, p) for p in points] == values

    def test_one_tree_on_two_spaces(self):
        f, p = Dist(q=(1.0, 0.3)), (1.5, 2.5)
        cone = ConeSpace(1.5 * math.pi)
        for space in (PLANE, cone, PLANE):
            assert evaluate(f, space, p) == space.distance((1.0, 0.3), p)

    def test_unknown_nodes_raise(self):
        with pytest.raises(ExprError):
            evaluate(scale(1.0, "not an expression"), PLANE, (1.0, 0.0))


# the spaces of `tests/test_spaces.py::INTERFACE_SPACES`, and one more mesh
MANY_POINT_SPACES = {
    "cone": lambda: ConeSpace(1.5 * math.pi),
    "spindle": lambda: SpindleSpace(4.0),
    "cap": lambda: CapSpace(0.8),
    "square": lambda: SQUARE,
    "doubled_cap": lambda: DoubledCap(CapSpace(math.pi / 2)),
    "tetrahedron": regular_tetrahedron,
    "doubled_square": lambda: DoubledPolygon(SQUARE),
    "random_tetrahedron": lambda: random_tetrahedron(np.random.default_rng(41)),
}


class TestManyPointEvaluation:
    """The many-point closure of each node gives, at each point, what its
    one-point closure gives.

    Values compare with `==` where the space's `_distances` is the default
    loop or the polygon's `math` hypot, and within 1e-15 on the cone's and
    the cap's numpy forms, as in `TestBatchKernels`.  On a mesh both forms
    of a distance leaf read d(p, q) from the evaluated point, so they agree
    to the bit although the unfolding search from each end rounds on its own.
    """

    @staticmethod
    def _points(name, space, rng):
        points = [space.random_point(rng) for _ in range(12)]
        points += [p for p, _ in space.cone_points() + space.corners()]  # apexes, vertices
        points += {"cap": [(0.0, 0.0)], "doubled_cap": [(0.0, 0.0), (math.pi, 0.0)]}.get(name, [])
        if space.boundary_period is not None:
            points += [space.boundary_point(s * space.boundary_period) for s in (0.1, 0.45, 0.8)]
        return [space.validate_point(p) for p in points]

    @staticmethod
    def _nodes(space, qs):
        leaves = [leaf for q in qs for leaf in (
            Dist(q=q), DistSq(q=q), RhoDist(kappa=space.kappa, q=q), PhiRC(r=0.3, c=2.0, q=q))]
        nodes = leaves + [Affine(weights=(1.0, -0.5, 2.0, 0.7), constant=0.25, terms=leaves[:4]),
                          MinExpr(terms=tuple(leaves[4:8])), scale(-1.0, MinExpr(terms=(
                              leaves[1], Affine(weights=(1.5,), terms=(leaves[6],)))), 3.0)]
        # a term without leaves is a constant on every point
        constant = Affine(weights=(), constant=0.5, terms=())
        nodes += [constant, MinExpr(terms=(constant, leaves[0], leaves[2]))]
        if space.boundary_dist is not None:
            nodes += [BoundaryDist(), MinExpr(terms=(BoundaryDist(), leaves[0]))]
        return nodes

    @pytest.mark.parametrize("name", sorted(MANY_POINT_SPACES))
    def test_each_node_matches_one_point_evaluation(self, name):
        space = MANY_POINT_SPACES[name]()
        rng = np.random.default_rng(53)
        points = self._points(name, space, rng)
        qs = [points[0], points[12]] + points[-2:]  # a random point and special points
        if type(space)._distances in (ConeSpace._distances, CapSpace._distances):
            tol = 1e-15
        else:
            tol = 0.0
        kinds = set()
        for node in self._nodes(space, qs):
            kinds.add(type(node))
            got = np.broadcast_to(_compile(node, space, True)(points), len(points))
            assert got.dtype == float
            want = [_compile(node, space, False)(p) for p in points]
            exact = tol == 0.0 or isinstance(node, BoundaryDist)
            if exact:
                assert got.tolist() == want
            else:
                assert all(math.isclose(g, w, rel_tol=tol, abs_tol=tol)
                           for g, w in zip(got.tolist(), want))
            assert evaluate_each(node, space, points) == got.tolist()
        assert kinds >= {Dist, DistSq, RhoDist, PhiRC, Affine, MinExpr}
        assert (BoundaryDist in kinds) == (space.boundary_dist is not None)

    def test_evaluate_each_validates_each_point(self):
        f = DistSq(q=(0.2, 0.3))
        assert evaluate_each(f, SQUARE, [(0.5, 0.5), [1, 1]]) == [
            evaluate(f, SQUARE, (0.5, 0.5)), evaluate(f, SQUARE, [1, 1])]
        with pytest.raises(SpaceError):
            evaluate_each(f, SQUARE, [(0.5, 0.5), (1.5, 0.5)])
        with pytest.raises(ExprError):
            evaluate_each("not an expression", SQUARE, [(0.5, 0.5)])

    def test_copies_survive_many_point_evaluation(self):
        space, tree, points = evaluation_cases()["square"]
        twin = evaluation_cases()["square"][1]
        before = (hash(tree), repr(tree))
        values = evaluate_each(tree, space, points)
        assert values == [evaluate(tree, space, p) for p in points]
        assert "_compiled_many" in tree.__dict__ and "_compiled" in tree.__dict__
        state = tree.__getstate__()
        assert "_compiled_many" not in state and "_compiled" not in state
        assert tree == twin and (hash(tree), repr(tree)) == before == (hash(twin), repr(twin))
        for restored in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
            assert restored == tree and hash(restored) == hash(tree)
            assert evaluate_each(restored, space, points) == values


def test_each_node_has_one_lowering():
    # one `_lower(space, many)` per node class serves one point and many;
    # no second lowering method sits beside it
    src = Path(__file__).resolve().parent.parent / "src" / "alexgeo"
    texts = {str(path.relative_to(src)): path.read_text(encoding="utf-8")
             for path in sorted(src.rglob("*.py"))}
    assert not [name for name, text in texts.items() if re.search(r"\b_lower_?\w", text)]
    assert [name for name, text in texts.items() if "def _lower" in text] == ["functions.py"]
    lowerings = collections.Counter()
    for cls in ast.walk(ast.parse(texts["functions.py"])):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "_lower":
                    assert [a.arg for a in fn.args.args] == ["self", "space", "many"]
                    lowerings[cls.name] += 1
    assert lowerings == collections.Counter(
        {name: 1 for name in ("Expr", "Dist", "DistSq", "RhoDist", "PhiRC", "Affine", "MinExpr",
                              "BoundaryDist")})


class TestChainRule:
    @pytest.mark.parametrize("name", list(evaluation_cases()))
    def test_equal_to_the_reference_chain_rule(self, name):
        space, tree, points = evaluation_cases()[name]
        rng = np.random.default_rng(16)
        points = points + [space.random_point(rng) for _ in range(40)]
        raised = 0
        for node in nodes(tree):
            jet = _compile_jet(node, space)
            for p in points:
                valid = space.validate_point(p)
                try:
                    want = reference_differential(node, space, p)
                except ExprError:
                    with pytest.raises(ExprError):
                        differential(node, space, p)
                    with pytest.raises(ExprError):
                        jet(valid, space.sigma_at(valid))
                    raised += 1
                    continue
                got = differential(node, space, p)
                assert (got.breaks, got.pieces) == (want.breaks, want.pieces), (node, p)
                # the jet: the compiled value and the same differential, at once
                value, got = jet(valid, space.sigma_at(valid))
                assert value == evaluate(node, space, p), (node, p)
                assert (got.breaks, got.pieces) == (want.breaks, want.pieces), (node, p)
        # only the boundary leaf on a double's seam has no differential
        assert (raised > 0) == (name == "doubled_square")

    def test_unknown_nodes_raise(self):
        for expr in ("not an expression", scale(1.0, "not an expression"),
                     MinExpr(terms=(Dist(q=(1.0, 0.0)), "not an expression"))):
            with pytest.raises(ExprError):
                differential(expr, PLANE, (1.0, 0.5))

    @pytest.mark.parametrize("space", [PLANE, ConeSpace(1.5 * math.pi), SpindleSpace(4.0)],
                             ids=["plane", "cone", "spindle"])
    def test_at_and_next_to_the_base_point(self, space):
        # within 1e-12 of q a leaf's differential is the constant phi'(0): zero
        # for dist^2 and rho_kappa o dist, so their gradient is zero; 1 for
        # dist and 1 + 2c for phi_{r,c}, a flat maximum with no gradient
        q = space.validate_point((1.0, 0.3))
        near = space.walk(q, 2.0, 5e-13).end
        assert 0.0 < space.distance(q, near) <= 1e-12
        for p in (q, near):
            for leaf in (DistSq(q=q), RhoDist(kappa=space.kappa, q=q)):
                assert gradient(leaf, space, p).norm == 0.0
            for leaf in (Dist(q=q), PhiRC(r=0.3, c=2.0, q=q)):
                with pytest.raises(GradientError):
                    gradient(leaf, space, p)


class TestBoundaryDifferentialOnDoubles:
    DOUBLES = {"doubled_square": lambda: DoubledPolygon(SQUARE),
               "doubled_hemisphere": lambda: DoubledCap(CapSpace(math.pi / 2))}

    @pytest.mark.parametrize("name", sorted(DOUBLES))
    def test_one_sided_finite_differences_off_the_seam(self, name):
        # step h: the pulled-back distance is piecewise linear on the square
        # and has |f''| <= cot(0.1) < 10 on the sphere at least 0.1 from
        # the poles, so the one-sided difference is within 5h of the
        # differential, plus rounding of order 1e-16 / h.  (0.2, 0.2) has
        # two nearest feet on the square, where the differential is a min
        double, h = self.DOUBLES[name](), 1e-6
        rng = np.random.default_rng(17)
        points = [double.lift((0.2, 0.2), sheet) for sheet in (0, 1)]
        while len(points) < 14:
            p = double.random_point(rng)
            if 0.1 <= double.boundary_dist(p) <= math.pi / 2 - 0.1:
                points.append(p)
        f = BoundaryDist()
        for p in points:
            d = differential(f, double, p)
            f0, length = evaluate(f, double, p), double.sigma_at(p).length
            for k in range(8):
                ang = length * (k + 0.3) / 8.0
                fd = (evaluate(f, double, double.walk(p, ang, h).end) - f0) / h
                assert d(ang) == pytest.approx(fd, abs=5.0 * h + 1e-9), (p, ang)

    def test_constant_rate_at_the_poles(self):
        double = DoubledCap(CapSpace(math.pi / 2))
        for pole in ((0.0, 0.0), (math.pi, 0.0)):
            d = differential(BoundaryDist(), double, pole)
            assert [d(a) for a in (0.0, 1.0, 4.0)] == [-1.0, -1.0, -1.0]

    def test_gradient_on_the_doubled_square(self):
        # the nearest edge of (0.3, 0.5) is x = 0: the gradient leads away
        # from it with unit speed on either sheet
        double = DoubledPolygon(SQUARE)
        for sheet in (0, 1):
            p = double.lift((0.3, 0.5), sheet)
            g = gradient(BoundaryDist(), double, p)
            assert g.norm == pytest.approx(1.0, abs=1e-12)
            end = double.walk(p, g.angle, 0.1).end
            assert double.sheet_of(end) == sheet
            assert double.project(end) == pytest.approx((0.4, 0.5), abs=1e-12)

    @pytest.mark.parametrize("name, seam", [("doubled_square", (0.5, 0.0)),
                                            ("doubled_hemisphere", (math.pi / 2, 1.0))])
    def test_seam_points_raise(self, name, seam):
        double = self.DOUBLES[name]()
        with pytest.raises(ExprError, match="seam"):
            differential(BoundaryDist(), double, double.lift(seam, 0))


class TestPointValidation:
    def test_points_outside_the_polygon_are_rejected(self):
        f = scale(-0.5, DistSq(q=(0.5, 0.5)))
        with pytest.raises(SpaceError):
            InfConvolution(f, SQUARE, 0.5).query((3.0, 3.0))
        with pytest.raises(SpaceError):
            evaluate(f, SQUARE, (3.0, 3.0))
        with pytest.raises(SpaceError):
            SQUARE.distance((3.0, 3.0), (0.5, 0.5))


class TestValidatedOnce:
    """A query validates its own point once: walk ends and samples are points
    of the space already, and the library measures them with the kernels."""

    def test_inf_convolution_query(self):
        plane, y = ConeSpace(2 * math.pi), (1.4, 0.8)
        ic = InfConvolution(scale(-0.5, DistSq(q=(1, 0))), plane, 0.5, lip_hint=4.0)
        first = ic.query(y)  # lowers the tree, which validates q once
        with mock.patch.object(plane, "validate_point", wraps=plane.validate_point) as v:
            assert ic.query(y) == first
        assert v.call_count == 1

    def test_leaf_differential(self):
        # the leaf keeps its jet, which holds its validated q, per space, as
        # `_compile` keeps its closure, and drops it when pickled
        tetra, p = regular_tetrahedron(), MeshPoint(2, (0.3, 0.3, 0.4))
        f = Dist(q=MeshPoint(0, (0.2, 0.3, 0.5)))
        first = differential(f, tetra, p)
        with mock.patch.object(tetra, "validate_point", wraps=tetra.validate_point) as v:
            again = differential(f, tetra, p)
        assert v.call_args_list == [mock.call(p)]
        assert (again.breaks, again.pieces) == (first.breaks, first.pieces)
        assert "_compiled_jet" in f.__dict__ and "_compiled_jet" not in f.__getstate__()
        assert "_compiled_jet" not in pickle.loads(pickle.dumps(f)).__dict__

    def test_leaf_differential_on_a_mesh_runs_one_search(self):
        # the distance and the directions from p to q come from one unfolding
        tetra = regular_tetrahedron()
        with mock.patch.object(MeshSpace, "_unfold", autospec=True,
                               side_effect=MeshSpace._unfold) as unfold:
            differential(Dist(q=MeshPoint(0, (0.2, 0.3, 0.5))), tetra,
                         MeshPoint(2, (0.3, 0.3, 0.4)))
        assert unfold.call_count == 1

    def test_leaf_jet_on_a_mesh_runs_one_search(self):
        # the jet's value and differential come from that one unfolding too
        q, p = MeshPoint(0, (0.2, 0.3, 0.5)), MeshPoint(2, (0.3, 0.3, 0.4))
        want = regular_tetrahedron().distance(p, q)
        tetra = regular_tetrahedron()
        f = DistSq(q=q)
        jet, p = _compile_jet(f, tetra), tetra.validate_point(p)
        with mock.patch.object(MeshSpace, "_unfold", autospec=True,
                               side_effect=MeshSpace._unfold) as unfold:
            value, d = jet(p, tetra.sigma_at(p))
        assert unfold.call_count == 1
        assert value == want * want and len(d.pieces) >= 1

    def test_concavity_check_of_an_inf_convolution(self):
        # 7 queries, each validating its sample once, and 4 validations of
        # the region's centre and a chord's ends by the public sampler and
        # `geodesic_points`; the chord's length is read by the kernel
        cap = CapSpace(0.8)
        ic = InfConvolution(BoundaryDist(), cap, 0.1, lip_hint=1.5)
        with mock.patch.object(cap, "validate_point", wraps=cap.validate_point) as v:
            check_concavity(ic, cap, 0.0, ((0.35, 1.0), 0.25), n_geodesics=1, n_samples=7,
                            seed=5, tol=math.inf)
        assert v.call_count == 11

    @pytest.mark.parametrize("make, base_point", [
        (lambda: DoubledPolygon(SQUARE), (0.3, 0.2)),
        (lambda: DoubledCap(CapSpace(math.pi / 2)), (0.6, 1.0)),
    ], ids=["doubled_square", "doubled_hemisphere"])
    def test_boundary_dist_on_a_double(self, make, base_point):
        # the projection, the sheet and the lifted feet read p through kernels
        double = make()
        p = double.lift(base_point, 1)
        for query in (evaluate, differential):
            with mock.patch.object(double, "validate_point",
                                   wraps=double.validate_point) as v, \
                 mock.patch.object(double.base, "validate_point",
                                   wraps=double.base.validate_point) as vb:
                query(BoundaryDist(), double, p)
            assert (v.call_count, vb.call_count) == (1, 0)


class TestEntryChecks:
    @pytest.mark.parametrize("lip", [0.0, -1.0, math.nan])
    def test_inf_convolution_lip_hint(self, lip):
        with pytest.raises(ExprError, match="lip_hint"):
            InfConvolution(DistSq(q=(1, 0)), PLANE, 0.5, lip_hint=lip)

    def test_inf_convolution_needs_an_expression_tree(self):
        with pytest.raises(ExprError, match="expression tree"):
            InfConvolution(lambda space, p: 0.0, PLANE, 0.5)


class TestCheckConcavity:
    def test_neg_dist_sq(self):
        f = scale(-1.0, DistSq(q=(1.0, 0.0)))
        ok = check_concavity(f, PLANE, -2.0, ((1.5, 0.5), 1.0), n_geodesics=60,
                             seed=1)
        assert passed(ok.margins())
        bad = check_concavity(f, PLANE, -2.1, ((1.5, 0.5), 1.0), n_geodesics=60,
                              seed=1)
        assert not passed(bad.margins())
        assert bad.worst_margin == pytest.approx(0.1, abs=1e-6)

    def test_square_boundary_distance_concave(self):
        rep = check_concavity(BoundaryDist(), SQUARE, 0.0, ((0.5, 0.5), 0.45),
                              n_geodesics=100, seed=3, tol=1e-9)
        assert passed(rep.margins())

    def test_distance_not_concave_across_pole(self):
        q = (1.0, 0.3)
        rep = check_concavity(Dist(q=q), PLANE, 0.0, (q, 0.5), n_geodesics=80,
                              seed=2)
        assert not passed(rep.margins())

    @pytest.mark.parametrize("n_samples", [1, 2])
    def test_too_few_samples_for_a_second_difference(self, n_samples):
        # 2 samples have no interior sample to test, 1 no spacing
        f = DistSq(q=(1.0, 0.0))
        with pytest.raises(ValueError, match="at least 3 samples"):
            check_concavity(f, PLANE, 0.0, ((1.5, 0.5), 1.0), n_samples=n_samples)

    @staticmethod
    def _sample_by_sample(expr, space, lam, region, n_geodesics, n_samples, seed):
        """(worst margin, worst chord) with one `evaluate` per sample, each
        geodesic's samples evaluated before the next geodesic is drawn."""
        center, radius = region
        rng = np.random.default_rng(seed)
        worst, worst_chord = -math.inf, None
        for _ in range(n_geodesics):
            a = space.random_point_near(center, radius, rng)
            b = space.random_point_near(center, radius, rng)
            d = space.distance(a, b)
            if d < 1e-6:
                continue
            vals = [evaluate(expr, space, x) for x in space.geodesic_points(a, b, n_samples)]
            dt = d / (n_samples - 1)
            for i in range(1, n_samples - 1):
                margin = (vals[i - 1] - 2.0 * vals[i] + vals[i + 1]) / (dt * dt) - lam
                if margin > worst:
                    worst, worst_chord = margin, (a, b)
        return (0.0 if worst == -math.inf else worst), worst_chord

    @pytest.mark.parametrize("name", ["square", "spindle"])
    def test_report_equals_the_sample_by_sample_check(self, name):
        space, tree, _ = evaluation_cases()[name]
        center = space.random_point(np.random.default_rng(7))
        radius = 0.3 if name == "square" else 0.6
        seen = []

        def recorded(space, p):
            seen.append(p)
            return evaluate(tree, space, p)

        for f in (tree, recorded):
            for seed in range(4):
                args = (space, -1.0, (center, radius), 12, 9, seed)
                rep = check_concavity(f, *args[:3], n_geodesics=12, n_samples=9, seed=seed)
                calls = seen[:]
                del seen[:]
                want = self._sample_by_sample(f, *args)
                assert (rep.worst_margin, rep.worst_chord) == want
                assert calls == seen  # the callable ran on the same points, in order
                del seen[:]


class TestInfConvolution:
    def test_quadratic_closed_form(self):
        # f(x) = -|x-q|^2/2: minimizer (2y - eps q)/(2 - eps)
        q = (1.0, 0.0)
        f = scale(-0.5, DistSq(q=q))
        for eps in (1.0, 0.5):
            ic = InfConvolution(f, PLANE, eps, lip_hint=4.0)
            rng = np.random.default_rng(4)
            for _ in range(5):
                y = PLANE.random_point(rng)
                yx = np.array([y[0] * math.cos(y[1]), y[0] * math.sin(y[1])])
                qx = np.array([1.0, 0.0])
                xs = (2 * yx - eps * qx) / (2 - eps)
                exact = float(-0.5 * np.sum((xs - qx) ** 2)
                              + np.sum((xs - yx) ** 2) / eps)
                assert ic.query(y).value == pytest.approx(exact, abs=1e-6)

    def test_eps_to_zero_monotone_to_f(self):
        q = (1.0, 0.0)
        f = scale(-0.5, DistSq(q=q))
        y = (1.4, 0.8)
        fy = evaluate(f, PLANE, y)
        prev = -math.inf
        for eps in (0.4, 0.2, 0.1, 0.05):
            v = InfConvolution(f, PLANE, eps, lip_hint=4.0).query(y).value
            assert v <= fy + 1e-9
            assert v >= prev - 1e-9
            prev = v

    def test_polish_does_not_crawl_near_a_vertex(self):
        # a polish that only shrinks its step walks the valley near vertex 1
        # at a tiny constant step, past 20,000 walks a query; regrowing the
        # step after three improving rounds takes about 1,100 to 1,300 here
        tetra = regular_tetrahedron()
        ic = InfConvolution(scale(-0.5, DistSq(q=MeshPoint(1, (0.3, 0.3, 0.4)))), tetra, 0.3,
                            lip_hint=2.0)
        rng = np.random.default_rng(5)
        ys = [tetra.random_point_near(tetra.point_at_vertex(1), 0.05, rng) for _ in range(3)]
        walk, walks = tetra._walk, [0]

        def budgeted(*args):
            walks[0] += 1
            if walks[0] > 20000:
                raise AssertionError("the polish crawls: over 20,000 walks in one query")
            return walk(*args)

        tetra._walk = budgeted
        for y in ys:
            walks[0] = 0
            res = ic.query(y)
            y = tetra.validate_point(y)
            assert res.value <= ic._objective(y)(y)

    def test_square_boundary_infconv_concave(self):
        fe = InfConvolution(BoundaryDist(), SQUARE, 0.1, lip_hint=1.5)
        rep = check_concavity(fe, SQUARE, 0.0, ((0.5, 0.5), 0.3),
                              n_geodesics=40, n_samples=9, seed=5, tol=1e-5)
        assert passed(rep.margins())

    @staticmethod
    def _plane_query(q, eps, lip, gx, gy):
        ic = InfConvolution(scale(-0.5, DistSq(q=q)), PLANE, eps, lip_hint=lip)
        return ic, ic.query((math.hypot(gx, gy), math.atan2(gy, gx)))

    def test_in_domain_reads_the_domain_scan(self):
        # the argmin 2y - q lies 1.12 from y, well inside the search radius
        # of 6.0; a refining scan whose best point lies on its rim once
        # doubled the radius of a scan that never ran, and read False here
        y = PLANE.validate_point((math.hypot(-0.679, 0.577), math.atan2(0.577, -0.679)))
        ic, res = self._plane_query((0.8, 1.0), 1.0, 4.0, -0.679, 0.577)
        assert ic.search_radius == 6.0 and res.in_domain
        assert PLANE.distance(res.argmin, y) == pytest.approx(1.115, abs=1e-3)
        # negative control: the same argmin lies beyond the doubled radius
        # of 0.3, so the domain scan's best point is on its rim; the
        # descent still reaches the argmin, and certifies it
        ic, far = self._plane_query((0.8, 1.0), 1.0, 0.1, -0.679, 0.577)
        assert PLANE.distance(far.argmin, y) > 2.0 * ic.search_radius
        assert not far.in_domain and far.slope <= 1e-9
        assert far.value == pytest.approx(res.value, abs=1e-14)

    @staticmethod
    def _descent_costs(ic, y):
        """The query's result and the walks and differentials of its descent."""
        costs = []

        def descend(*args):
            with mock.patch.object(ic.space, "_walk", wraps=ic.space._walk) as walk, \
                 mock.patch.object(ic, "_gradient", wraps=ic._gradient) as diff:
                out = InfConvolution._descend(ic, *args)
            costs.append((walk.call_count, diff.call_count))
            return out

        with mock.patch.object(ic, "_descend", side_effect=descend):
            res = ic.query(y)
        return res, costs[0]

    def test_plane_queries_certify_within_a_walk_budget(self):
        # F = -|x - q|^2 / 2 + |x - y|^2 / eps is a quadratic: the first
        # step at c = 2 / eps undershoots, the secant then reads the exact
        # curvature 2 / eps - 1, and the second step lands on the argmin.
        # Measured worst over 400 random queries: 2 walks, 3 differentials;
        # one of each on top for rounding.
        rng = np.random.default_rng(41)
        for k in range(60):
            q = (0.5 + 0.5 * rng.random(), rng.random() * 2 * math.pi)
            ic = InfConvolution(scale(-0.5, DistSq(q=q)), PLANE, (1.0, 0.5)[k % 2],
                                lip_hint=4.0)
            gx, gy = -1.0 + 3.0 * rng.random(), -1.5 + 3.0 * rng.random()
            res, (walks, diffs) = self._descent_costs(ic, (math.hypot(gx, gy),
                                                           math.atan2(gy, gx)))
            assert res.slope <= 1e-9 and walks <= 3 and diffs <= 4

    def test_cap_queries_certify_within_a_walk_budget(self):
        # measured worst over 900 random queries of c09's region: 6 walks
        # and 7 differentials; two of each on top.  The first point is the
        # eps = 0.01 query on which a value-only step acceptance rounded
        # before |G| reached 1e-9.
        cap, rng = CapSpace(0.8), np.random.default_rng(42)
        for eps in (0.1, 0.05, 0.01):
            ic = InfConvolution(BoundaryDist(), cap, eps, lip_hint=1.5)
            ys = [(0.21792319179315697, 0.3487742369849348)]
            ys += [cap.random_point_near((0.35, 0.0), 0.3, rng) for _ in range(20)]
            for y in ys:
                res, (walks, diffs) = self._descent_costs(ic, y)
                assert res.slope <= 1e-9 and walks <= 8 and diffs <= 9

    def test_an_uncertified_query_ends_no_higher_than_its_descent(self):
        # the minimizer of -d_q^2 / 2 + d^2 / eps beyond the cut locus of q
        # on a cone lies on the convex ridge, whose differential is not
        # linear: the fallback runs, and keeps the lower of its result and
        # the descent's lowest point
        cone = ConeSpace(1.5 * math.pi)
        ic = InfConvolution(scale(-0.5, DistSq(q=(1.0, 0.3))), cone, 0.5, lip_hint=4.0)
        rng = np.random.default_rng(11)
        ys = [cone.random_point(rng) for _ in range(60)]
        fell_back = 0
        for y in ys:
            lowest = []
            descend = ic._descend

            def recorded(*args):
                lowest.append(descend(*args))
                return lowest[-1]

            with mock.patch.object(ic, "_descend", side_effect=recorded):
                res = ic.query(y)
            if math.isinf(res.slope):
                fell_back += 1
                assert res.value <= lowest[0][0]
        assert fell_back > 0


class TestBatchedScan:
    """The batched stencil scan of `InfConvolution.query` finds what the
    walk-by-walk scan finds: the same domain flag, the value to 1e-15 and
    the argmin to 1e-9.  The objective is flat to rounding within about
    1e-8 of its minimizer, so the argmin bound needs the batch kernels to
    agree with the scalar ones bit for bit: the default loop does on every
    platform, and the cone's and the cap's numpy forms do where numpy's
    sin, cos, sqrt and fmod round as `math`'s (x86-64, numpy 2.4)."""

    CASES = {
        "plane": (lambda: ConeSpace(2 * math.pi),
                  lambda: scale(-0.5, DistSq(q=(1.0, 0.3))), 0.5, 4.0),
        "cone": (lambda: ConeSpace(1.5 * math.pi),
                 lambda: scale(-0.5, DistSq(q=(1.0, 0.3))), 0.5, 4.0),
        # minimizers on the boundary from y within eps / 2 of it
        "cap": (lambda: CapSpace(0.8), BoundaryDist, 0.05, 1.5),
        "square": (lambda: SQUARE, BoundaryDist, 0.1, 1.5),
        "spindle": (lambda: SpindleSpace(4.0),
                    lambda: scale(-0.5, DistSq(q=(1.0, 0.3))), 0.3, 3.0),
        "tetrahedron": (regular_tetrahedron,
                        lambda: scale(-0.5, DistSq(q=MeshPoint(1, (0.3, 0.3, 0.4)))), 0.3, 2.0),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_result_as_the_scalar_scan(self, name):
        make_space, make_f, eps, lip = self.CASES[name]
        space = make_space()
        ic = InfConvolution(make_f(), space, eps, lip_hint=lip)
        rng = np.random.default_rng(37)
        ys = [space.random_point(rng) for _ in range(2 if name == "tetrahedron" else 8)]
        if space.boundary_period is not None:
            ys += [space.random_point_near(space.boundary_point(s * space.boundary_period),
                                           0.02, rng) for s in (0.1, 0.45, 0.8)]
        for y in ys:
            want = scalar_inf_convolution_oracle(ic, y)
            got = ic.query(y)
            assert got.in_domain == want.in_domain
            assert abs(got.value - want.value) <= 1e-15
            assert space.distance(got.argmin, want.argmin) <= 1e-9

    def test_f_runs_where_the_walk_by_walk_scan_runs_it(self):
        # the square's batch kernels loop over its scalar ones, so a query
        # evaluates f at the points the scalar scan evaluates, in its order:
        # one many-point call per stencil on the ends each ray reads
        rng = np.random.default_rng(38)
        ys = [SQUARE.random_point(rng) for _ in range(3)] + [(0.02, 0.5), (0.99, 0.97)]
        for y in ys:
            seen = {}
            for name, run in (("query", InfConvolution.query),
                              ("scan", scalar_inf_convolution_oracle)):
                space = PolygonSpace(SQUARE.vertices)
                calls = seen[name] = []
                plain = space.boundary_dist
                space.boundary_dist = lambda p, calls=calls, plain=plain: (
                    calls.append(p), plain(p))[1]
                seen[name + " result"] = run(InfConvolution(BoundaryDist(), space, 0.1,
                                                            lip_hint=1.5), y)
            assert seen["query"] == seen["scan"] and len(seen["scan"]) > 4 * 16
            assert seen["query result"] == seen["scan result"]

    def test_cap_minimizers_lie_on_the_boundary(self):
        # the cap case above tests the boundary walks, not only interior ones
        cap = CapSpace(0.8)
        ic = InfConvolution(BoundaryDist(), cap, 0.05, lip_hint=1.5)
        for phi in (0.3, 2.0, 4.5):
            res = ic.query((0.79, phi))
            assert cap.on_boundary(res.argmin)
