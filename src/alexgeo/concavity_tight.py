"""Strictly concave bump construction, tightness checks, and the geometry
of maps with strictly concave coordinates at desk scale.

The bump around p is a sum of phi_{r,c} compositions with distances to
points placed at radius r in equally spaced directions; its strict
concavity is measured, never assumed, and failures report the larger
curvature parameter to retry with.

The image study certifies points of the image of such a map through the
locator G(y) = argmax min_i (f_i - y_i) (`_argmax_min`): Newton steps to
the point where the coordinates agree, stopped by the exact certificate
that the min's differential is nowhere positive; where that point is not
the top, secant steps along the ridge of two coordinates (`_ridge`),
stopped by the certificate that the pair's gradients are antiparallel
and the min's differential is nowhere above `_RIDGE_SUP`; and a gradient
ascent (`_ascend`) wherever neither ends.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import (
    Affine,
    PhiRC,
    _active,
    _compile,
    _compile_jet,
    _draw_chords,
    _evaluate_made,
    _second_differences,
    check_concavity,
    differential,
    scale,
)
from .spaces.base import walk_length
from .verdict import Margin
from .tangent import (
    TWO_PI,
    GradientError,
    _linear,
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
    p, r = space.validate_point(p), walk_length(r)
    sig = space.sigma_at(p)
    qs = []
    for i in range(n_points):
        ang = sig.length * i / n_points
        w = space._walk(p, ang, r)
        if w.event is not None and w.traveled < r - 1e-12:
            raise ConstructionError(
                f"cannot place a control point at radius {r} in direction {ang}"
            )
        qs.append(w.end)
    terms = tuple(PhiRC(r=r, c=c, q=q) for q in qs)
    expr = Affine(weights=tuple(1.0 for _ in terms), terms=terms)
    expr = Affine(weights=(1.0,), terms=(expr,), constant=-_compile(expr, space, False)(p))
    region = (p, 0.25 * r)
    rep = check_concavity(expr, space, 0.0, region, n_geodesics=n_geodesics,
                          n_samples=17, seed=seed, tol=0.0)
    if rep.worst_margin >= 0.0:
        raise ConstructionError(
            f"not strictly concave (margin {rep.worst_margin:.3e}); retry with "
            f"c > {2.0 * c:g}"
        )
    expr = expr.with_certificate(p)
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


def _model(space, jets, x):
    """(x, values, direction space, differentials): each term's value and
    differential at the point x, from the terms' jets, the model the
    locator reads once per point it steps from."""
    sigma = space.sigma_at(x)
    read = [jet(x, sigma) for jet in jets]
    return x, [v for v, _ in read], sigma, [d for _, d in read]


def _min_differential(sigma, vals, diffs):
    """The differential of the min of the terms whose values and
    differentials are given: the lower envelope of those of the `_active`
    terms, as `MinExpr`'s jet forms it."""
    return combine_min(sigma, [diffs[k] for k in _active(vals)])


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
_RIDGE_WALKS = 12  # secant steps before the ascent takes over
# The ridge certificate's bound on the min's differential.  A ridge stop
# leaves the slope along the ridge that a secant step shorter than 1e-13
# does not remove, about 1e-13 times the ridge's curvature: up to 1.0e-10
# on the replayed `closed_verify` and c10 calls, where that curvature is
# near 1e3 and the gradients' norms are 42 to 98.  The min is concave, so
# a point whose differential is at most 1e-9 lies at most 1e-9 times its
# distance to the top below the top: 2e-10 across 4 region radii of 0.05.
_RIDGE_SUP = 1e-9


def _ridge_top(model, gi, gj):
    """The ridge certificate at a point of the given model: the ridge's two
    gradients gi and gj are antiparallel and the min's differential is
    nowhere above `_RIDGE_SUP`."""
    _, vals, sigma, diffs = model
    return (gi[0] * gj[0] + gi[1] * gj[1] < 0.0
            and directional_sup(_min_differential(sigma, vals, diffs))[0] <= _RIDGE_SUP)


def _ridge(space, jets, terms, model, u, region):
    """Secant steps along the ridge of two coordinates from the point of
    the model (`_model`) whose min's differential rises most along the
    direction u; jets and terms are the coordinates' jets and one-point
    closures.

    The ridge is f_i = f_j for the two coordinates lowest along u among
    the active ones (`_active`): all three at the agreement
    point of `_newton_step`, where `_argmax_min` calls it.  Each step
    reads the linear differentials of the pair, gradients gi and gj
    (`_linear`), and walks once along h t + c: t is the unit tangent of
    the ridge (normal to n = gi - gj), oriented as the ridge was followed
    so far, h the secant step that zeroes the exact ridge slope <gi, t>
    read at this point and the last, and c = -(f_i - f_j) n / |n|^2 the
    first-order correction back onto the ridge.  The first step has no
    secant: it walks to the best probe of the ray ascent's value-only
    bracket along t (`_bracket`), or, when no probe of it gains, to its
    nearest probe beyond the top, unless the ridge certificate
    (`_ridge_top`) already holds at x.  Directions at two points are
    compared only through the walk's arrival direction, since a chart's
    angle coordinate may turn from point to point.

    The steps stop when the next is shorter than 1e-13: x is the top if
    the ridge certificate holds there, and is refused otherwise.  A
    coordinate leaving the pair (another becomes the least), a point that
    is not linear, a secant that is not concave, equal gradients, a walk
    that meets an event or leaves 4 region radii, or `_RIDGE_WALKS` steps
    without a stop also end them uncertified.  Returns (model, certified):
    the model of the certified top, or else of the best point seen.
    """
    x, vals, _, diffs = model
    i, j = sorted(_active(vals), key=lambda k: diffs[k](u))[:2]
    best = model
    ahead = u  # the direction the ridge is followed along, in x's chart
    last = None  # (ridge slope, tangent step) at the last point
    for _ in range(_RIDGE_WALKS):
        gi, gj = _linear(diffs[i]), _linear(diffs[j])
        if gi is None or gj is None:
            break
        nx, ny = gi[0] - gj[0], gi[1] - gj[1]
        nn = nx * nx + ny * ny
        if nn == 0.0:
            break
        tx, ty = -ny / math.sqrt(nn), nx / math.sqrt(nn)
        if tx * math.cos(ahead) + ty * math.sin(ahead) < 0.0:
            tx, ty = -tx, -ty
        theta, slope = math.atan2(ty, tx), gi[0] * tx + gi[1] * ty
        if last is None:
            def along(t):
                return _probe(space, terms, x, theta, t)

            a, b, c = _bracket(along, vals, [d(theta) for d in diffs], region[1], region)
            if b is a:  # no probe gains
                if _ridge_top(model, gi, gj):
                    return model, True
                b = c
            h, w = b[0], b[2]
            vx, vy = h * tx, h * ty
        else:
            drop = last[0] - slope  # over the last tangent step, last[1]
            if not drop * last[1] > 0.0:
                break  # the secant is not concave
            h, r = slope * last[1] / drop, (vals[i] - vals[j]) / nn
            vx, vy = h * tx - r * nx, h * ty - r * ny
        length = math.hypot(vx, vy)
        if length < 1e-13:
            if _ridge_top(model, gi, gj):
                return model, True
            break
        if length > 4 * region[1]:
            break
        heading = math.atan2(vy, vx)
        if last is not None:
            w = space._walk(x, heading, length)
        model = _model(space, jets, w.end)
        x, vals, _, diffs = model
        if min(vals) >= min(best[1]):
            best = model
        if w.event is not None or min(vals) < min(vals[i], vals[j]):
            break
        ahead = w.sigma.forward_of_back(w.back_angle) + theta - heading
        last = (slope, h)
    return best, False


def _argmax_min(space, funcs, ys, region, grid_pts, grid_vals):
    """argmax of min_i (f_i - y_i): best grid point, Newton steps to where
    the coordinates agree, secant steps along a ridge of two, and the
    gradient ascent where those do not end.

    At each point it steps from, the locator reads every coordinate's
    value and exact differential once, from the coordinates' jets
    (`_model`); probes along a ray read values only.  With three
    coordinates whose differentials are all linear (`_linear`: at a
    regular point of the square or of a cone, on a mesh face), a Newton
    step walks to where their first-order models agree (`_newton_step`,
    capped at 4 region radii); the top of a tight map is nearly always
    such a point.  The
    locator stops there on the exact certificate: the min's differential
    is nowhere positive (`directional_sup` <= 0, the top of a concave
    min) and the next step is shorter than 1e-13.  Where the models agree
    at a point that is not the top, the top lies on a ridge of two
    coordinates, and `_ridge` follows it by secant steps to the point
    where its slope vanishes; it stops there on the ridge certificate:
    the pair's gradients are antiparallel and the min's differential is
    nowhere above `_RIDGE_SUP`.  At a point that is not linear, where
    the models agree nowhere, where the ridge steps end uncertified, or
    after `_NEWTON_WALKS` steps without a stop, `_ascend` climbs from the
    best point seen.  Returns the top and its value.
    """
    target = tuple(scale(1.0, f, -y) for f, y in zip(funcs, ys))  # their min is the target
    terms = [_compile(t, space, False) for t in target]
    jets = [_compile_jet(t, space) for t in target]
    best = max(range(len(grid_pts)),
               key=lambda i: min(a - y for a, y in zip(grid_vals[i], ys)))
    model = top = _model(space, jets, grid_pts[best])  # top: the best point seen
    for _ in range(_NEWTON_WALKS):
        x, vals, sigma, diffs = model
        step = _newton_step(vals, diffs)
        if step is None:
            break
        if step[0] < 1e-13:
            sup, u = directional_sup(_min_differential(sigma, vals, diffs))
            if sup <= 0.0:
                return x, min(vals)
            # the models agree at a point that is not the top
            model, certified = _ridge(space, jets, terms, model, u, region)
            if certified:
                return model[0], min(model[1])
            if min(model[1]) >= min(top[1]):
                top = model
            break
        model = _model(space, jets, space._walk(x, step[1], min(step[0], 4 * region[1])).end)
        if min(model[1]) >= min(top[1]):
            top = model
    return _ascend(space, jets, terms, top, region)


def _probe(space, terms, x, angle, t):
    """The probe t along the direction angle from x: (t, the coordinate
    values at the walk's end, the walk); x is a grid point or a walk end,
    so it is validated."""
    w = space._walk(x, angle, t)
    return t, [term(w.end) for term in terms], w


def _gain_bound(vals, slopes, t):
    """Bound on the gain of the min of the coordinates over the first t of
    a ray, from their values and slopes along it: each coordinate is
    concave, so it lies below its tangent line."""
    return min(v + max(s, 0.0) * t for v, s in zip(vals, slopes)) - min(vals)


def _gain_floor(vals):
    """The least gain of the min of the values that is no rounding: four
    ulps of the largest value, and never below 1e-15, the floor of values
    near 0 (which are differences of coordinates near 5, one ulp 8.9e-16)."""
    return max(1e-15, 4.0 * math.ulp(max(abs(v) for v in vals)))


def _bracket(along, vals, slopes, step, region):
    """Bracket of the top of the min of the coordinates along one ray from
    the point of values vals and slopes along the ray (t = 0), whose
    probes `along(t)` gives; the first probe is `step` long.

    A doubling by the golden ratio brackets the top.  When the first probe
    does not rise, a golden shrink looks for one that does, down to 1e-13
    or to a length over which `_gain_bound` allows no gain above
    `_gain_floor`.
    Returns probes (a, b, c): b is the best, a = b at t = 0 when no probe
    rises, and c is the nearest probe known to lie at or beyond the ray's
    top, None when the min still rises at 4 region radii.
    """
    a, b = (0.0, vals, None), along(step)
    if min(b[1]) > min(a[1]):
        c = along(b[0] / (1.0 - _GOLD))
        while min(c[1]) > min(b[1]) and c[0] < 4 * region[1]:
            a, b, c = b, c, along(c[0] / (1.0 - _GOLD))
        return (a, b, c) if min(b[1]) >= min(c[1]) else (b, c, None)
    c = b
    while (min(c[1]) <= min(a[1]) and c[0] >= 1e-13
           and _gain_bound(vals, slopes, c[0]) > _gain_floor(vals)):
        c, b = along(_GOLD * c[0]), c
    return (a, a, c) if min(c[1]) <= min(a[1]) else (a, c, b)


def _ascend(space, jets, terms, model, region):
    """Gradient ascent of the min of the coordinates, whose jets and
    one-point closures are jets and terms, from the point of the model
    (`_model`); the first ray probe is one region radius long.

    Each round reads the exact gradient of the min (`_min_differential`)
    from the model of its point, the ridge direction of the active
    coordinates, and searches the ray along it: `_bracket` from the last
    step's length, then `_ray_top`.
    Each coordinate is smooth, but the min usually tops out at a kink
    where another coordinate becomes active, so the search lands on
    ridges and the ascent can follow thin ones.  Every point probed holds
    its coordinate values, so the bracket's ends are never evaluated
    again.

    The ascent stops when the gradient vanishes (norm < 1e-11) or is a
    tie, when no step of at least 1e-11 gains more than the values'
    rounding (`_gain_floor`), and on a ridge top: the new gradient turns
    back on the last step (within pi/2 of its back direction) and that
    step gained < 1e-13.  Without the last stop an exact ray search
    zigzags across a ridge top on rounding gains.  A ray that gains no
    more than the floor is searched again from a shorter first probe,
    unless `_gain_bound` allows no gain above the floor up to its nearest
    probe beyond the top: each search of the same ray would then fail.
    Returns the last point and its value.
    """
    x, vals, sigma, diffs = model
    step = region[1]
    g = w = None
    gain = math.inf  # of the last step
    for _ in range(120):
        if g is None:
            try:
                g = gradient_from_directional(_min_differential(sigma, vals, diffs))
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
            return _probe(space, terms, x, g.angle, t)

        slopes = [d(g.angle) for d in diffs]
        a, top, beyond = _bracket(along, vals, slopes, step, region)
        if top is not a and beyond is not None:
            top = _ray_top(along, a, top, beyond)
        gain, floor = min(top[1]) - min(vals), _gain_floor(vals)
        if gain <= floor or top[0] < 1e-13:
            step *= 0.35
            if step < 1e-11 or (beyond is not None
                                 and _gain_bound(vals, slopes, beyond[0]) <= floor):
                break
            continue
        w = top[2]
        x, vals, sigma, diffs = _model(space, jets, w.end)
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
        rep = _second_differences(_evaluate_made(f, space, pts), chords, n_samples,
                                  lam=0.0, tol=0.0)
        if rep.worst_margin >= 0.0:
            raise ConstructionError(
                "image study requires strictly concave coordinates"
            )
    grid_pts = [space.random_point_near(center, radius, rng)
                for _ in range(grid_n * grid_n)]
    F = lambda x: tuple(_compile(f, space, False)(x) for f in funcs)
    values = list(zip(*[_evaluate_made(f, space, grid_pts) for f in funcs]))

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
        gf_worst = max(gf_worst, space._distance(xc, x2))

    lo, hi = math.inf, -math.inf
    for i, j in rng.integers(0, len(grid_pts), size=(300, 2)).tolist():
        d = space._distance(grid_pts[i], grid_pts[j])
        if d < 1e-6:
            continue
        dv = math.sqrt(sum((a - b) ** 2 for a, b in zip(values[i], values[j])))
        lo = min(lo, dv / d)
        hi = max(hi, dv / d)
    return TightImageReport(failures, n_support, gf_worst, lo, hi)
