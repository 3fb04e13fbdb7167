"""Strictly concave bump construction, tightness checks, and the geometry
of maps with strictly concave coordinates at desk scale.

The bump around p is a sum of phi_{r,c} compositions with distances to
points placed at radius r in equally spaced directions; its strict
concavity is measured, never assumed, and failures report the larger
curvature parameter to retry with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import (
    Affine,
    MinExpr,
    PhiRC,
    _compile,
    check_concavity,
    differential,
    evaluate,
    scale,
)
from .flow import gradient
from .tangent import (
    GradientError,
    combine_min,
    directional_sup,
    gradient_from_directional,
)


class ConstructionError(RuntimeError):
    pass


@dataclass
class ConcaveBumpReport:
    margin: float
    region_radius: float
    c: float
    n_points: int

    @property
    def strict_margin(self):
        return -self.margin


def build_strictly_concave(space, p, r, c, n_points, n_geodesics=60, seed=0):
    """Sum of phi_{r,c} o dist_{q_i} over equally spaced q_i at radius r,
    shifted to vanish at p.

    Returns (expr, report); raises ConstructionError with a suggested
    larger c when the measured concavity margin is not strictly negative
    on the ball of radius r / 4 about p.
    """
    p = space.validate_point(p)
    sig = space.sigma_at(p)
    qs = []
    for i in range(n_points):
        ang = sig.length * i / n_points
        w = space.walk(p, ang, r)
        if w.event is not None and w.traveled < r - 1e-12:
            raise ConstructionError(
                f"cannot place a control point at radius {r} in direction {ang}"
            )
        qs.append(w.end)
    terms = tuple(PhiRC(r=r, c=c, q=q) for q in qs)
    expr = Affine(weights=tuple(1.0 for _ in terms), terms=terms)
    expr = Affine(weights=(1.0,), terms=(expr,), constant=-evaluate(expr, space, p))
    region = (p, 0.25 * r)
    rep = check_concavity(expr, space, 0.0, region, n_geodesics=n_geodesics,
                          n_samples=17, seed=seed, tol=0.0)
    report = ConcaveBumpReport(rep.worst_margin, 0.25 * r, c, n_points)
    if rep.worst_margin >= 0.0:
        raise ConstructionError(
            f"not strictly concave (margin {rep.worst_margin:.3e}); retry with "
            f"c > {2.0 * c:g}"
        )
    expr = expr.with_certificate(0.0, p, 0.25 * r, verified=True)
    return expr, report


def superlevel_convexity(space, expr, p, level, n_pairs=100, radius=0.5, seed=0):
    """Chord test of {f >= level}: geodesics between member points stay in.

    Returns the worst violation of the level along sampled chords.
    """
    rng = np.random.default_rng(seed)
    members = []
    while len(members) < 2 * n_pairs:
        x = space.random_point_near(p, radius, rng)
        if evaluate(expr, space, x) >= level:
            members.append(x)
    worst = 0.0
    for i in range(n_pairs):
        a, b = members[2 * i], members[2 * i + 1]
        for x in space.geodesic_points(a, b, 21):
            worst = max(worst, level - evaluate(expr, space, x))
    return worst


# -- tightness ----------------------------------------------------------------
@dataclass
class TightReport:
    sup_cross: float
    worst_pair: tuple | None
    n_regular: int
    n_critical: int
    n_samples: int

    @property
    def tight(self):
        return self.sup_cross < 0.0

    def summary(self):
        return (f"sup d_x f_i(grad f_j) = {self.sup_cross:.4e} over "
                f"{self.n_samples} samples; {self.n_critical} critical points")


def tight_check(space, funcs, region, n_samples=200, seed=0) -> TightReport:
    """Sample sup over i != j of d_x f_i evaluated on the gradient of f_j.

    A sample is regular when the exact sup over directions of
    min_i d_x f_i is positive.
    """
    if n_samples < 1:
        raise ValueError(f"tight check needs at least 1 sample, not {n_samples}")
    center, radius = region
    rng = np.random.default_rng(seed)
    sup = -math.inf
    worst_pair = None
    n_reg = n_crit = 0
    for _ in range(n_samples):
        x = space.random_point_near(center, radius, rng)
        diffs = [differential(f, space, x) for f in funcs]
        try:
            grads = [gradient_from_directional(d) for d in diffs]
        except GradientError:
            continue
        for i, di in enumerate(diffs):
            for j, gj in enumerate(grads):
                if i == j:
                    continue
                val = di.homogeneous(gj)
                if val > sup:
                    sup = val
                    worst_pair = (i, j, x)
        if directional_sup(combine_min(space.sigma_at(x), diffs))[0] > 0.0:
            n_reg += 1
        else:
            n_crit += 1
    return TightReport(sup, worst_pair, n_reg, n_crit, n_samples)


# -- image study ----------------------------------------------------------------
@dataclass
class TightImageReport:
    support_failures: int
    n_support: int
    gf_worst: float
    bilip_low: float
    bilip_high: float
    critical_samples: int

    def summary(self):
        return (f"Q support tests: {self.n_support - self.support_failures}/"
                f"{self.n_support}; G(F(x)) deviation {self.gf_worst:.2e}; "
                f"bi-Lipschitz ratios in [{self.bilip_low:.3f}, {self.bilip_high:.3f}]")


def _argmax_min(space, funcs, ys, region, grid_pts, grid_vals):
    """argmax of min_i (f_i - y_i): best grid point, then gradient ascent.

    The exact gradient of the min is the ridge direction of the active
    coordinates; a golden line search along it stops where another
    coordinate becomes active, so the ascent can follow thin ridges.
    """
    target = MinExpr(terms=tuple(scale(1.0, f, -y) for f, y in zip(funcs, ys)))
    value = _compile(target, space)

    def obj(x, angle, t):  # x is a grid point or a walk end: validated
        return value(space._walk(x, angle, t).end)

    best = max(range(len(grid_pts)),
               key=lambda i: min(a - y for a, y in zip(grid_vals[i], ys)))
    x = grid_pts[best]
    best_v = value(x)
    step = region[1]
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    g = None
    for _ in range(120):
        if g is None:
            try:
                g = gradient(target, space, x)
            except GradientError:
                # the coordinates are strictly concave, so two separated
                # maximizers of the differential are a numerical tie at
                # a vanishing slope: x is the top
                break
        if g.norm < 1e-11:
            break
        hi = step
        while obj(x, g.angle, hi) > obj(x, g.angle, 0.62 * hi) and hi < 4 * region[1]:
            hi *= 1.6
        a, b = 0.0, hi
        t1, t2 = b - gold * (b - a), a + gold * (b - a)
        f1, f2 = obj(x, g.angle, t1), obj(x, g.angle, t2)
        for _ in range(60):
            if b - a < 1e-12:
                break
            if f1 < f2:
                a, t1, f1 = t1, t2, f2
                t2 = a + gold * (b - a)
                f2 = obj(x, g.angle, t2)
            else:
                b, t2, f2 = t2, t1, f1
                t1 = b - gold * (b - a)
                f1 = obj(x, g.angle, t1)
        t = 0.5 * (a + b)
        nv = obj(x, g.angle, t)
        if nv <= best_v + 1e-15 or t < 1e-13:
            step *= 0.35
            if step < 1e-11:
                break
            continue
        x = space._walk(x, g.angle, t).end
        best_v = nv
        step = max(t * 2.0, 1e-10)
        g = None
    return x, best_v


def tight_image_study(space, funcs, region, grid_n=28, n_support=1000,
                      n_gf=200, seed=0) -> TightImageReport:
    """Convexity of the downward-closed image and the critical locator.

    The image of the region under x -> (f_0(x), ..., f_l(x)) plus the
    negative orthant must be convex; random segment points between image
    values are certified inside via the argmax locator G.  G o F is
    checked to be the identity on critical samples, and bi-Lipschitz
    ratios of the map are measured.
    """
    if n_support < 1 or n_gf < 1:
        raise ValueError(f"image study needs at least 1 support test and 1 G o F "
                         f"sample, not {n_support} and {n_gf}")
    center, radius = region
    rng = np.random.default_rng(seed)
    for f in funcs:
        rep = check_concavity(f, space, 0.0, region, n_geodesics=30,
                              n_samples=9, seed=seed, tol=0.0)
        if rep.worst_margin >= 0.0:
            raise ConstructionError(
                "image study requires strictly concave coordinates"
            )
    grid_pts = [space.random_point_near(center, radius, rng)
                for _ in range(grid_n * grid_n)]
    F = lambda x: tuple(evaluate(f, space, x) for f in funcs)
    values = [F(x) for x in grid_pts]

    failures = 0
    for _ in range(n_support):
        i, j = rng.integers(0, len(values), size=2)
        t = rng.random()
        m = tuple(t * a + (1.0 - t) * b for a, b in zip(values[i], values[j]))
        _, v = _argmax_min(space, funcs, m, region, grid_pts, values)
        if v < -1e-7:
            failures += 1

    gf_worst = 0.0
    for _ in range(n_gf):
        y = values[int(rng.integers(0, len(values)))]
        xc, _ = _argmax_min(space, funcs, y, region, grid_pts, values)
        x2, _ = _argmax_min(space, funcs, F(xc), region, grid_pts, values)
        gf_worst = max(gf_worst, space.distance(xc, x2))

    lo, hi = math.inf, -math.inf
    for _ in range(300):
        i, j = rng.integers(0, len(grid_pts), size=2)
        d = space.distance(grid_pts[i], grid_pts[j])
        if d < 1e-6:
            continue
        dv = math.sqrt(sum((a - b) ** 2 for a, b in zip(values[i], values[j])))
        lo = min(lo, dv / d)
        hi = max(hi, dv / d)
    return TightImageReport(failures, n_support, gf_worst, lo, hi, n_gf)
