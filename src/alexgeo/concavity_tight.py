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
    Dist,
    PhiRC,
    check_concavity,
    differential,
    evaluate,
)
from .flow import gradient
from .spaces.base import SpaceError
from .tangent import GradientError, combine_min, directional_sup


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


def build_strictly_concave(space, p, r, c, n_points, normalize=True,
                           region_fraction=0.25, n_geodesics=60, seed=0):
    """Sum of phi_{r,c} o dist_{q_i} over equally spaced q_i at radius r.

    Returns (expr, report); raises ConstructionError with a suggested
    larger c when the measured concavity margin is not strictly negative.
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
    if normalize:
        expr = Affine(weights=(1.0,), terms=(expr,),
                      constant=-evaluate(expr, space, p))
    region = (p, region_fraction * r)
    rep = check_concavity(expr, space, 0.0, region, n_geodesics=n_geodesics,
                          n_samples=17, seed=seed, tol=0.0)
    report = ConcaveBumpReport(rep.worst_margin, region_fraction * r, c, n_points)
    if rep.worst_margin >= 0.0:
        raise ConstructionError(
            f"not strictly concave (margin {rep.worst_margin:.3e}); retry with "
            f"c > {2.0 * c:g}"
        )
    expr = expr.with_certificate(0.0, p, region_fraction * r, verified=True)
    return expr, report


def superlevel_convexity(space, expr, p, level, n_pairs=100, n_samples=21,
                         radius=0.5, seed=0):
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
        for x in space.geodesic_points(a, b, n_samples):
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
        grads = []
        try:
            for f in funcs:
                grads.append(gradient(f, space, x))
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
def _compile_planar(space, funcs):
    """Vectorizable closures for affine phi/dist expressions on flat charts.

    Returns None when a function is not of the supported shape; callers
    fall back to the generic evaluator.
    """
    from .functions import Affine, PhiRC

    if space.variant not in ("polygon", "cone"):
        return None
    if space.variant == "cone" and abs(space.total_angle - 2 * math.pi) > 1e-12:
        return None
    compiled = []
    for f in funcs:
        terms = []

        def flatten(node, weight):
            if isinstance(node, Affine):
                for w, t in zip(node.weights, node.terms):
                    if not flatten(t, weight * w):
                        return False
                return True
            if isinstance(node, PhiRC):
                terms.append((weight, node.r, node.c, space.pos2(node.q)))
                return True
            return False

        const = [0.0]

        def collect_const(node, weight):
            if isinstance(node, Affine):
                const[0] += weight * node.constant
                for w, t in zip(node.weights, node.terms):
                    collect_const(t, weight * w)

        if not flatten(f, 1.0):
            return None
        collect_const(f, 1.0)
        qs = np.array([q for _, _, _, q in terms])
        ws = np.array([w for w, _, _, _ in terms])
        rs = np.array([r for _, r, _, _ in terms])
        cs = np.array([c for _, _, c, _ in terms])
        c0 = const[0]

        def ev(xy, _qs=qs, _ws=ws, _rs=rs, _cs=cs, _c0=c0):
            d = np.hypot(_qs[:, 0] - xy[0], _qs[:, 1] - xy[1])
            u = d - _rs
            return float(np.sum(_ws * (u - _cs * u * u / _rs))) + _c0

        def grad(xy, _qs=qs, _ws=ws, _rs=rs, _cs=cs):
            dx = xy[0] - _qs[:, 0]
            dy = xy[1] - _qs[:, 1]
            d = np.hypot(dx, dy)
            d = np.maximum(d, 1e-300)
            fac = _ws * (1.0 - 2.0 * _cs * (d - _rs) / _rs) / d
            return np.array([float(np.sum(fac * dx)), float(np.sum(fac * dy))])

        compiled.append((ev, grad))
    return compiled


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


def _argmax_min_planar(space, compiled, ys, region, grid_pts, grid_vals):
    """Max-min ascent with analytic gradients on a flat chart.

    The ascent direction equalizes the active function gradients (the
    ridge direction of a min of concave functions); a golden line search
    along it avoids the stalls a direction fan suffers on thin ridges.
    """
    def obj(xy):
        if not space.contains(xy):
            return -math.inf
        return min(ev(xy) - y for (ev, _), y in zip(compiled, ys))

    pts_xy = [space.pos2(p) for p in grid_pts]
    if grid_vals is not None:
        best_i = max(range(len(pts_xy)),
                     key=lambda i: min(a - y for a, y in zip(grid_vals[i], ys)))
        x = np.asarray(pts_xy[best_i], dtype=float)
    else:
        x = np.asarray(max(pts_xy, key=obj), dtype=float)
    best_v = obj(x)
    scale = region[1]
    for _ in range(120):
        vals = [ev(x) - y for (ev, _), y in zip(compiled, ys)]
        vmin = min(vals)
        spread = max(vals) - vmin
        delta = max(1e-9, 1e-3 * spread)
        active = [k for k, v in enumerate(vals) if v <= vmin + delta]
        gs = [compiled[k][1](x) for k in active]
        if len(gs) == 1:
            d = gs[0]
        elif len(gs) == 2:
            g1, g2 = gs
            diff = g1 - g2
            denom = float(diff @ diff)
            lam = float((g2 @ g2 - g1 @ g2) / denom) if denom > 1e-300 else 0.5
            lam = min(max(lam, 0.0), 1.0)
            d = lam * g1 + (1.0 - lam) * g2
        else:
            # least-norm point of the gradient hull approximated pairwise
            d = sum(gs) / len(gs)
            for g1 in gs:
                for g2 in gs:
                    diff = g1 - g2
                    denom = float(diff @ diff)
                    if denom > 1e-300:
                        lam = min(max(float((g2 @ g2 - g1 @ g2) / denom), 0.0), 1.0)
                        cand = lam * g1 + (1.0 - lam) * g2
                        if float(cand @ cand) < float(d @ d):
                            d = cand
        dn = float(np.hypot(*d))
        if dn < 1e-11:
            break
        d = d / dn
        # golden line search along d
        lo, hi = 0.0, scale
        while obj(x + hi * d) > obj(x + 0.62 * hi * d) and hi < 4 * region[1]:
            hi *= 1.6
        g = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        x1t, x2t = b - g * (b - a), a + g * (b - a)
        f1, f2 = obj(x + x1t * d), obj(x + x2t * d)
        for _ in range(60):
            if b - a < 1e-12:
                break
            if f1 < f2:
                a, x1t, f1 = x1t, x2t, f2
                x2t = a + g * (b - a)
                f2 = obj(x + x2t * d)
            else:
                b, x2t, f2 = x2t, x1t, f1
                x1t = b - g * (b - a)
                f1 = obj(x + x1t * d)
        t = 0.5 * (a + b)
        nv = obj(x + t * d)
        if nv <= best_v + 1e-15 or t < 1e-13:
            scale *= 0.35
            if scale < 1e-11:
                break
            continue
        x = x + t * d
        best_v = nv
        scale = max(t * 2.0, 1e-10)
    return (float(x[0]), float(x[1])), best_v


def _argmax_min(space, funcs, ys, region, grid_pts, refine=60, compiled=None,
                grid_vals=None):
    """argmax of min_i (f_i - y_i): coarse grid then a rotating-fan ascent.

    The objective is strictly concave but kinked, so the fan is rotated
    at each shrink to avoid stalling against a kink between directions.
    """
    if compiled is not None:
        return _argmax_min_planar(space, compiled, ys, region, grid_pts, grid_vals)

    best_x, best_v = None, -math.inf
    for x in grid_pts:
        v = min(evaluate(f, space, x) - y for f, y in zip(funcs, ys))
        if v > best_v:
            best_x, best_v = x, v
    step = region[1] / 4.0
    x = best_x
    shrink = 0
    while step > 1e-8 and shrink < refine:
        improved = False
        sig = space.sigma_at(x)
        offset = 0.37 * shrink
        for k in range(16):
            ang = sig.wrap(sig.length * k / 16.0 + offset) if not sig.is_arc \
                else min(max(sig.length * k / 16.0, 0.0), sig.length)
            try:
                w = space.walk(x, ang, step)
            except SpaceError:
                continue
            v = min(evaluate(f, space, w.end) - y for f, y in zip(funcs, ys))
            if v > best_v + 1e-15:
                x, best_v = w.end, v
                improved = True
        if not improved:
            step *= 0.6
            shrink += 1
    return x, best_v


def tight_image_study(space, funcs, region, grid_n=28, n_support=1000,
                      n_gf=200, seed=0, tol=1e-6) -> TightImageReport:
    """Convexity of the downward-closed image and the critical locator.

    The image of the region under x -> (f_0(x), ..., f_l(x)) plus the
    negative orthant must be convex; random segment points between image
    values are certified inside via the argmax locator G.  G o F is
    checked to be the identity on critical samples, and bi-Lipschitz
    ratios of the map are measured.
    """
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
    compiled = _compile_planar(space, funcs)
    F = lambda x: tuple(evaluate(f, space, x) for f in funcs)
    values = [F(x) for x in grid_pts]

    failures = 0
    for _ in range(n_support):
        i, j = rng.integers(0, len(values), size=2)
        t = rng.random()
        m = tuple(t * a + (1.0 - t) * b for a, b in zip(values[i], values[j]))
        _, v = _argmax_min(space, funcs, m, region, grid_pts,
                           compiled=compiled, grid_vals=values)
        if v < -1e-7:
            failures += 1

    gf_worst = 0.0
    used = 0
    while used < n_gf:
        i = int(rng.integers(0, len(values)))
        y = values[i]
        xc, v = _argmax_min(space, funcs, y, region, grid_pts,
                            compiled=compiled, grid_vals=values)
        yc = F(xc)
        x2, _ = _argmax_min(space, funcs, yc, region, grid_pts,
                            compiled=compiled, grid_vals=values)
        gf_worst = max(gf_worst, space.distance(xc, x2))
        used += 1

    lo, hi = math.inf, -math.inf
    for _ in range(300):
        i, j = rng.integers(0, len(grid_pts), size=2)
        d = space.distance(grid_pts[i], grid_pts[j])
        if d < 1e-6:
            continue
        dv = math.sqrt(sum((a - b) ** 2 for a, b in zip(values[i], values[j])))
        lo = min(lo, dv / d)
        hi = max(hi, dv / d)
    return TightImageReport(failures, n_support, gf_worst, lo, hi, used)
