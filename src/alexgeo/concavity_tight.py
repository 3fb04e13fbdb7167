"""Strictly concave bump construction, tightness checks, and the geometry
of maps with strictly concave coordinates at desk scale.

The bump around p is a sum of phi_{r,c} compositions with distances to
points placed at radius r in equally spaced directions; its strict
concavity is measured, never assumed, and failures report the larger
curvature parameter to retry with.

The image study certifies points of the image of such a map through the
locator G(y) = argmax min_i (f_i - y_i) (`_argmax_min`): Newton steps to
the point where the coordinates agree, stopped by the exact certificate
that the min's differential is nowhere positive, and a gradient ascent
(`_ascend`) wherever those steps do not end, as at a top on a ridge of
two coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import (
    Affine,
    MinExpr,
    PhiRC,
    _chain_rule,
    _compile,
    _draw_chords,
    _second_differences,
    check_concavity,
    differential,
    evaluate,
    evaluate_each,
    scale,
)
from .verdict import Margin
from .tangent import (
    TWO_PI,
    GradientError,
    combine_min,
    directional_sup,
    gradient_from_directional,
)


class ConstructionError(RuntimeError):
    pass


def build_strictly_concave(space, p, r, c, n_points, n_geodesics=60, seed=0):
    """Sum of phi_{r,c} o dist_{q_i} over equally spaced q_i at radius r,
    shifted to vanish at p.

    Returns (expr, margin), the measured concavity margin on the ball of
    radius r / 4 about p; raises ConstructionError with a suggested
    larger c when that margin is not strictly negative.
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
    if rep.worst_margin >= 0.0:
        raise ConstructionError(
            f"not strictly concave (margin {rep.worst_margin:.3e}); retry with "
            f"c > {2.0 * c:g}"
        )
    expr = expr.with_certificate(0.0, p, 0.25 * r, verified=True)
    return expr, rep.worst_margin


# -- tightness ----------------------------------------------------------------
@dataclass
class TightReport:
    sup_cross: float
    n_regular: int
    n_critical: int

    def margins(self):
        """Tight: the sampled sup is negative."""
        return [Margin("sup d_x f_i(grad f_j)", self.sup_cross, 0.0, "<")]


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
                if i != j:
                    sup = max(sup, di.homogeneous(gj))
        if directional_sup(combine_min(space.sigma_at(x), diffs))[0] > 0.0:
            n_reg += 1
        else:
            n_crit += 1
    return TightReport(sup, n_reg, n_crit)


# -- image study ----------------------------------------------------------------
@dataclass
class TightImageReport:
    support_failures: int
    n_support: int
    gf_worst: float
    bilip_low: float
    bilip_high: float

    def margins(self):
        """Every support test certified inside the image."""
        return [Margin("Q support failures", self.support_failures, 0, "<=")]


_GOLD = (3.0 - math.sqrt(5.0)) / 2.0  # the golden section of a bracket


def _quadratic_roots(k, s, y):
    """Real roots h of k h^2 + s h + y = 0, by the cancellation-free formula."""
    disc = s * s - 4.0 * k * y
    if disc < 0.0:
        return ()
    q = -0.5 * (s + math.copysign(math.sqrt(disc), s))
    if q == 0.0:
        return ()
    return (y / q,) if k == 0.0 else (y / q, q / k)


def _model_top(a, b, c):
    """Offset from b of the top of min_i q_i on [a, c], where q_i is the
    parabola through coordinate i's values at the bracket points a < b < c.

    The top of a min of parabolas is a vertex of one of them or a crossing
    of two, unless it is an end of the bracket.
    """
    (ta, va, _), (tb, vb, _), (tc, vc, _) = a, b, c
    parabolas = []  # (value, slope, curvature) about b
    for ya, yb, yc in zip(va, vb, vc):
        sab = (yb - ya) / (tb - ta)
        k = ((yc - yb) / (tc - tb) - sab) / (tc - ta)
        parabolas.append((yb, sab + k * (tb - ta), k))
    offsets = [ta - tb, tc - tb]
    offsets += [-s / (2.0 * k) for _, s, k in parabolas if k < 0.0]
    for i, (y1, s1, k1) in enumerate(parabolas):
        for y2, s2, k2 in parabolas[i + 1:]:
            offsets += _quadratic_roots(k1 - k2, s1 - s2, y1 - y2)
    return max((h for h in offsets if ta - tb <= h <= tc - tb),
               key=lambda h: min(y + h * (s + k * h) for y, s, k in parabolas))


def _ray_top(along, a, b, c):
    """Top of the min of the coordinates along one ray, from a bracket
    a < b < c whose middle point is the best; points are (t, coordinate
    values, walk) and `along(t)` probes one.

    Each round steps to the top of the model of `_model_top`, or by the
    golden section into the longer side when that step leaves the bracket
    or fails to halve the last step.
    """
    last = c[0] - a[0]
    for _ in range(60):
        if c[0] - a[0] < 1e-12:
            break
        h = _model_top(a, b, c)
        if abs(h) < 1e-12:
            break
        if not a[0] < b[0] + h < c[0] or abs(h) > 0.5 * last:
            h = (_GOLD * (c[0] - b[0]) if c[0] - b[0] > b[0] - a[0]
                 else -_GOLD * (b[0] - a[0]))
        last = abs(h)
        u = along(b[0] + h)
        if min(u[1]) >= min(b[1]):
            a, b, c = (a, u, b) if h < 0.0 else (b, u, c)
        elif h < 0.0:
            a = u
        else:
            c = u
    return b


def _differentials(space, target, x):
    """The direction space at the point x and the differential of each
    term of `target` there, the model the locator reads once per point."""
    sigma = space.sigma_at(x)
    return sigma, [_chain_rule(t, space, x, sigma) for t in target.terms]


def _min_differential(sigma, diffs, vals):
    """The differential of the min of the terms whose differentials and
    values are given: `combine_min` of those within 1e-9 of the least
    value, as `MinExpr._differential` forms it."""
    vmin = min(vals)
    return combine_min(sigma, [d for d, v in zip(diffs, vals) if v <= vmin + 1e-9])


def _linear(d):
    """(a, b) with d(xi) = a cos xi + b sin xi when d is one sinusoid with
    no constant on the 2 pi circle, the differential of a smooth function
    at a regular point; else None."""
    if d.sigma.is_arc or d.sigma.length != TWO_PI or len(d.pieces) != 1:
        return None
    R, psi, C = d.pieces[0]
    return (R * math.cos(psi), R * math.sin(psi)) if C == 0.0 else None


def _newton_step(vals, diffs):
    """(length, angle) of the tangent vector v at which the first-order
    models vals_i + d_i(v) of three coordinates agree, a step of the
    nonsmooth Newton method (Qi and Sun 1993) for the min; None when there
    are not three, when one is not linear (`_linear`), or when the models
    agree nowhere."""
    slopes = [_linear(d) for d in diffs]
    if len(slopes) != 3 or None in slopes:
        return None
    (a0, b0), (a1, b1), (a2, b2) = slopes
    a1, b1, a2, b2 = a1 - a0, b1 - b0, a2 - a0, b2 - b0
    r1, r2 = vals[0] - vals[1], vals[0] - vals[2]
    det = a1 * b2 - a2 * b1
    if det == 0.0:
        return None
    vx, vy = (r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det
    return math.hypot(vx, vy), math.atan2(vy, vx) % TWO_PI


_NEWTON_WALKS = 6  # model steps before the ascent takes over


def _argmax_min(space, funcs, ys, region, grid_pts, grid_vals):
    """argmax of min_i (f_i - y_i): best grid point, Newton steps to where
    the coordinates agree, and the gradient ascent where those do not end.

    At each point the locator reads every coordinate's value and exact
    differential once (`_differentials`).  With three coordinates whose
    differentials are all linear (`_linear`: at a regular point of the
    square or of a cone, on a mesh face), a Newton step walks to where
    their first-order models agree (`_newton_step`, capped at 4 region
    radii); the top of a tight map is nearly always such a point.  The
    locator stops on the exact certificate: the min's differential is
    nowhere positive (`directional_sup` <= 0, the top of a concave min)
    and the next step is shorter than 1e-13.  At a point that is not
    linear, where the models agree nowhere or agree at a point that is
    not the top, or after `_NEWTON_WALKS` steps without a stop,
    `_ascend` climbs from the best point seen: a top on a ridge of two
    coordinates, or of any other count of coordinates, is reached by the
    ascent alone.  Returns the top and its value.
    """
    target = MinExpr(terms=tuple(scale(1.0, f, -y) for f, y in zip(funcs, ys)))
    terms = [_compile(t, space, False) for t in target.terms]  # min of these is `target`
    best = max(range(len(grid_pts)),
               key=lambda i: min(a - y for a, y in zip(grid_vals[i], ys)))
    x = grid_pts[best]
    vals = [term(x) for term in terms]
    top = (x, vals)  # the best point seen and its values
    for _ in range(_NEWTON_WALKS):
        sigma, diffs = _differentials(space, target, x)
        step = _newton_step(vals, diffs)
        if step is None:
            break
        if step[0] < 1e-13:
            if directional_sup(_min_differential(sigma, diffs, vals))[0] <= 0.0:
                return x, min(vals)
            break  # the models agree at a point that is not the top
        x = space._walk(x, step[1], min(step[0], 4 * region[1])).end
        vals = [term(x) for term in terms]
        if min(vals) >= min(top[1]):
            top = (x, vals)
    return _ascend(space, target, terms, *top, region)


def _ascend(space, target, terms, x, vals, region):
    """Gradient ascent of the min of `terms` from x, whose values are vals;
    the first ray probe is one region radius long.

    Each round reads the exact gradient of the min (`_min_differential`),
    the ridge direction of the active coordinates, and searches the ray
    along it: a doubling from the last step's length brackets the top,
    and `_ray_top` fits one parabola per coordinate.  Each coordinate is
    smooth, but the min usually tops out at a kink where another
    coordinate becomes active, so the search lands on ridges and the
    ascent can follow thin ones.  Every point probed holds its coordinate
    values, so the bracket's ends (x itself and the doubling's last
    probe) are never evaluated again.

    The ascent stops when the gradient vanishes (norm < 1e-11) or is a
    tie, when no step of at least 1e-11 gains more than 1e-15, and on a
    ridge top: the new gradient turns back on the last step (within pi/2
    of its back direction) and that step gained < 1e-13.  Without the
    last stop an exact ray search zigzags across a ridge top on rounding
    gains.  Returns the last point and its value.
    """
    def walked(x, angle, t):  # x is a grid point or a walk end: validated
        w = space._walk(x, angle, t)
        return t, [term(w.end) for term in terms], w

    step = region[1]
    g = w = None
    gain = math.inf  # of the last step
    for _ in range(120):
        if g is None:
            sigma, diffs = _differentials(space, target, x)
            try:
                g = gradient_from_directional(_min_differential(sigma, diffs, vals))
            except GradientError:
                # the coordinates are strictly concave, so two separated
                # maximizers of the differential are a numerical tie at
                # a vanishing slope: x is the top
                break
            if gain < 1e-13 and w.sigma.dist(g.angle, w.back_angle) < 0.5 * math.pi:
                # a ridge top: the last step crossed it, and a straight ray
                # along the ridge would zigzag across it on rounding gains
                break
        if g.norm < 1e-11:
            break
        def along(t):  # x and g stay fixed while one ray is searched
            return walked(x, g.angle, t)

        a, b = (0.0, vals, None), along(step)
        if min(b[1]) > min(a[1]):
            c = along(b[0] / (1.0 - _GOLD))
            while min(c[1]) > min(b[1]) and c[0] < 4 * region[1]:
                a, b, c = b, c, along(c[0] / (1.0 - _GOLD))
        else:
            c, b = b, along(_GOLD * b[0])
            while min(b[1]) <= min(a[1]) and b[0] >= 1e-13:
                c, b = b, along(_GOLD * b[0])
        if min(b[1]) <= min(a[1]):
            top = a  # no step down to 1e-13 gains
        elif min(b[1]) < min(c[1]):
            top = c  # still rising at 4 region radii
        else:
            top = _ray_top(along, a, b, c)
        gain = min(top[1]) - min(vals)
        if gain <= 1e-15 or top[0] < 1e-13:
            step *= 0.35
            if step < 1e-11:
                break
            continue
        x, vals, w = top[2].end, top[1], top[2]
        step = max(top[0] * 2.0, 1e-10)
        g = None
    return x, min(vals)


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
    # `check_concavity` of each coordinate on one draw of its chords
    n_samples = 9
    chords, pts = _draw_chords(space, region, n_geodesics=30, n_samples=n_samples, seed=seed)
    for f in funcs:
        rep = _second_differences(evaluate_each(f, space, pts), chords, n_samples,
                                  lam=0.0, tol=0.0)
        if rep.worst_margin >= 0.0:
            raise ConstructionError(
                "image study requires strictly concave coordinates"
            )
    grid_pts = [space.random_point_near(center, radius, rng)
                for _ in range(grid_n * grid_n)]
    F = lambda x: tuple(evaluate(f, space, x) for f in funcs)
    values = list(zip(*[evaluate_each(f, space, grid_pts) for f in funcs]))

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
    return TightImageReport(failures, n_support, gf_worst, lo, hi)
