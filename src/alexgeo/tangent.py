"""Tangent-cone arithmetic: differentials, gradients, polar vectors.

The space of directions at every point of the supported spaces is a
circle or an arc, so direction arithmetic is angular and the gradient is
a global 1-D maximization of the differential over that circle or arc.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .spaces.base import SigmaDesc

TWO_PI = 2.0 * math.pi
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


class GradientError(RuntimeError):
    """Ambiguous maximizer: the directional function is not concave-like."""


@dataclass(frozen=True)
class TangentVec:
    """Tangent vector as (norm, angular coordinate on the direction space)."""

    norm: float
    angle: float
    sigma: SigmaDesc

    def scaled(self, factor: float) -> "TangentVec":
        return TangentVec(self.norm * factor, self.angle, self.sigma)


def zero_vector(sigma: SigmaDesc) -> TangentVec:
    return TangentVec(0.0, 0.0, sigma)


def scalar_product(u: TangentVec, v: TangentVec) -> float:
    """|u||v| cos(angle) with the wrap-aware angle, zero vectors orthogonal."""
    if u.norm == 0.0 or v.norm == 0.0:
        return 0.0
    if abs(u.sigma.length - v.sigma.length) > 1e-9 or u.sigma.is_arc != v.sigma.is_arc:
        raise ValueError("scalar product needs vectors at the same base point")
    ang = min(u.sigma.dist(u.angle, v.angle), math.pi)
    return u.norm * v.norm * math.cos(ang)


@dataclass
class DirectionalFn:
    """Function on the direction space, with its non-smooth angles listed.

    `single` is set when the function is s * min over sources of
    -cos(angdist(xi, source)); this unlocks closed-form maximization.
    """

    sigma: SigmaDesc
    fn: object
    kinks: list = field(default_factory=list)
    single: tuple | None = None  # (scale, [source angles])

    def __call__(self, angle: float) -> float:
        return self.fn(angle)

    def homogeneous(self, v: TangentVec) -> float:
        """Positively homogeneous extension to the tangent cone."""
        if v.norm == 0.0:
            return 0.0
        return v.norm * self.fn(v.angle)


def constant_directional(sigma: SigmaDesc, value: float) -> DirectionalFn:
    return DirectionalFn(sigma, lambda a, _v=value: _v, kinks=[], single=None)


def cos_tail_directional(sigma: SigmaDesc, scale: float, sources) -> DirectionalFn:
    """scale * min over sources of -cos(angle distance)."""
    srcs = sorted(sources)

    def fn(angle, _s=scale, _srcs=srcs, _sig=sigma):
        d = min(_sig.dist(angle, u) for u in _srcs)
        return _s * (-math.cos(min(d, math.pi)))

    kinks = _gap_midpoints(sigma, srcs)
    return DirectionalFn(sigma, fn, kinks=kinks, single=(scale, srcs))


def _gap_midpoints(sigma: SigmaDesc, srcs):
    """Angles where the distance-to-source-set function has a maximum kink."""
    if not srcs:
        return []
    if sigma.is_arc:
        return [0.0, sigma.length]
    s = sorted(sigma.wrap(a) for a in srcs)
    mids = []
    for a, b in zip(s, s[1:] + [s[0] + sigma.length]):
        mids.append(sigma.wrap(0.5 * (a + b)))
    return mids


def combine_affine(sigma: SigmaDesc, parts) -> DirectionalFn:
    """Weighted sum of directional functions (constants differentiate away)."""
    parts = [(w, d) for w, d in parts if w != 0.0]
    if not parts:
        return constant_directional(sigma, 0.0)
    if len(parts) == 1:
        w, d = parts[0]
        if d.single is not None:
            return cos_tail_directional(sigma, w * d.single[0], d.single[1])
        return DirectionalFn(sigma, lambda a, _w=w, _d=d: _w * _d(a), kinks=list(d.kinks))

    def fn(angle, _parts=parts):
        return sum(w * d(angle) for w, d in _parts)

    kinks = sorted({k for _, d in parts for k in d.kinks})
    return DirectionalFn(sigma, fn, kinks=kinks)


def combine_min(sigma: SigmaDesc, ds) -> DirectionalFn:
    ds = list(ds)
    if len(ds) == 1:
        return ds[0]

    def fn(angle, _ds=ds):
        return min(d(angle) for d in _ds)

    kinks = sorted({k for d in ds for k in d.kinks})
    return DirectionalFn(sigma, fn, kinks=kinks)


def _scan_maximize(d: DirectionalFn, grid: int, tol: float):
    """Global max over the circle/arc: kink-aware scan + golden refinement."""
    sig = d.sigma
    L = sig.length
    if sig.is_arc:
        base = [L * i / grid for i in range(grid + 1)]
    else:
        base = [L * i / grid for i in range(grid)]
    pts = sorted(set(base) | {sig.wrap(k) if not sig.is_arc else min(max(k, 0.0), L)
                              for k in d.kinks})
    vals = [d(a) for a in pts]
    vmax = max(vals)
    # refine every local bracket whose peak is within resolution of the max
    n = len(pts)
    cands = []
    for i, v in enumerate(vals):
        if v < vmax - 0.2:
            continue
        if sig.is_arc:
            lo = pts[i - 1] if i > 0 else pts[0]
            hi = pts[i + 1] if i < n - 1 else pts[-1]
        else:
            lo = pts[i - 1] if i > 0 else pts[-1] - L
            hi = pts[i + 1] if i < n - 1 else pts[0] + L
        a, b = lo, hi
        fa_c = d(sig.wrap(a) if not sig.is_arc else a)
        x1 = b - _GOLD * (b - a)
        x2 = a + _GOLD * (b - a)
        f1 = d(sig.wrap(x1) if not sig.is_arc else min(max(x1, 0.0), L))
        f2 = d(sig.wrap(x2) if not sig.is_arc else min(max(x2, 0.0), L))
        while b - a > tol:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + _GOLD * (b - a)
                f2 = d(sig.wrap(x2) if not sig.is_arc else min(max(x2, 0.0), L))
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - _GOLD * (b - a)
                f1 = d(sig.wrap(x1) if not sig.is_arc else min(max(x1, 0.0), L))
        xm = 0.5 * (a + b)
        xm = sig.wrap(xm) if not sig.is_arc else min(max(xm, 0.0), L)
        xm = _polish_max(d, xm, tol)
        cands.append((d(xm), xm))
    cands.sort(reverse=True)
    return cands


def _polish_max(d: DirectionalFn, x: float, tol: float, step: float = 1e-6):
    """Newton polish of a smooth interior maximum.

    Value comparisons locate a flat top only to sqrt(machine eps); the
    finite-difference derivative recovers the extra digits.  Kinked or
    boundary maxima are left where the scan put them.
    """
    sig = d.sigma

    def clamp(a):
        return min(max(a, 0.0), sig.length) if sig.is_arc else sig.wrap(a)

    for _ in range(3):
        f0 = d(clamp(x))
        fp = d(clamp(x + step))
        fm = d(clamp(x - step))
        g = (fp - fm) / (2.0 * step)
        h = (fp - 2.0 * f0 + fm) / (step * step)
        if h >= -1e-12:
            return x
        delta = -g / h
        if abs(delta) > 4.0 * step:
            return x
        x2 = clamp(x + delta)
        if d(x2) + 1e-15 < f0:
            return x
        x = x2
        if abs(delta) < max(tol, 1e-13):
            break
    return x


def maximize_directional(d: DirectionalFn, grid: int = 720, tol: float = 1e-10,
                         ambiguity_angle: float = 1e-4):
    """(max value, argmax angle); raises GradientError on separated ties."""
    sig = d.sigma
    if d.single is not None:
        s, srcs = d.single
        if s == 0.0:
            return 0.0, 0.0
        if s < 0.0:
            # max of |s| * max cos(angdist): attained at a source
            spread = max(sig.dist(srcs[0], u) for u in srcs)
            if spread > ambiguity_angle:
                raise GradientError(
                    f"ambiguous maximizer: sources spread over {spread:.2e} rad"
                )
            return -s, min(sig.wrap(u) if not sig.is_arc else u for u in srcs)
        # s > 0: farthest point from the source set
        best_v, best_a = -math.inf, 0.0
        seconds = []
        cand = _gap_midpoints(sig, srcs)
        if sig.is_arc:
            cand = [0.0, sig.length]
        for a in cand:
            dd = min(sig.dist(a, u) for u in srcs)
            v = s * (-math.cos(min(dd, math.pi)))
            seconds.append((v, a))
            if v > best_v or (abs(v - best_v) <= 1e-15 and a < best_a):
                best_v, best_a = v, a
        ties = [a for v, a in seconds
                if v >= best_v - 1e-12 and sig.dist(a, best_a) > ambiguity_angle]
        if ties and best_v > 0.0:
            # distinct positive maxima: the gradient is genuinely ambiguous
            ties_sorted = sorted([best_a] + ties)
            raise GradientError(f"ambiguous maximizer at angles {ties_sorted}")
        return best_v, best_a
    cands = _scan_maximize(d, grid, tol)
    if not cands:
        return 0.0, 0.0
    best_v, best_a = cands[0]
    for v, a in cands[1:]:
        if best_v > 0.0 and v >= best_v - 1e-10 and \
                d.sigma.dist(a, best_a) > ambiguity_angle:
            raise GradientError(
                f"ambiguous maximizer: {best_a:.6f} and {a:.6f} both attain {best_v:.3e}"
            )
    # deterministic tie-break: smallest angular coordinate
    for v, a in cands[1:]:
        if v >= best_v - 1e-12 and a < best_a:
            best_a = a
    return best_v, best_a


def gradient_from_directional(d: DirectionalFn, grid: int = 720,
                              verify: bool = True, tol: float = 1e-8) -> TangentVec:
    """Gradient from a differential: zero when the max is nonpositive.

    Verifies d(x) <= <g, x> on a uniform grid before returning.
    """
    vmax, amax = maximize_directional(d, grid=grid)
    sig = d.sigma
    if vmax <= 0.0:
        return zero_vector(sig)
    g = TangentVec(vmax, amax, sig)
    # single scaled distance tails satisfy the gradient inequality exactly;
    # the grid check is for generic (possibly mis-certified) expressions
    if verify and d.single is None:
        L = sig.length
        npts = grid + 1 if sig.is_arc else grid
        for i in range(npts):
            a = L * i / grid if sig.is_arc else L * i / grid
            lhs = d(a)
            rhs = vmax * math.cos(min(sig.dist(a, amax), math.pi))
            if lhs > rhs + tol:
                raise GradientError(
                    f"gradient inequality fails at angle {a:.6f}: "
                    f"d={lhs:.3e} > <g,x>={rhs:.3e} (bad concavity certificate?)"
                )
    return g


def supporting_check(d: DirectionalFn, s_vec: TangentVec, grid: int = 720,
                     tol: float = 1e-9):
    """Check d(x) <= -<s, x> on a grid; returns (ok, worst margin)."""
    sig = d.sigma
    worst = -math.inf
    npts = grid + 1 if sig.is_arc else grid
    for i in range(npts):
        a = sig.length * i / grid
        lhs = d(a)
        rhs = -s_vec.norm * math.cos(min(sig.dist(a, s_vec.angle), math.pi))
        worst = max(worst, lhs - rhs)
    return worst <= tol, worst


def polar_vector(sigma: SigmaDesc, v: TangentVec, grid: int = 720,
                 tol: float = 1e-9) -> TangentVec:
    """Equal-norm polar partner reached by traveling pi along the directions.

    On a circle the travel wraps; on an arc it reflects at the endpoints.
    The defining inequality <v,x> + <v*,x> >= 0 is verified on a grid
    before returning.
    """
    if v.norm == 0.0:
        return zero_vector(sigma)
    if sigma.is_arc:
        pos = v.angle + math.pi
        period = 2.0 * sigma.length
        pos = math.fmod(pos, period)
        if pos < 0.0:
            pos += period
        if pos > sigma.length:
            pos = period - pos  # reflect
        star = pos
    else:
        star = sigma.wrap(v.angle + math.pi)
    out = TangentVec(v.norm, star, sigma)
    npts = grid + 1 if sigma.is_arc else grid
    for i in range(npts):
        a = sigma.length * i / grid
        x = TangentVec(1.0, a, sigma)
        val = scalar_product(v, x) + scalar_product(out, x)
        if val < -tol * max(1.0, v.norm):
            raise RuntimeError(
                f"polar verification failed at angle {a:.6f}: {val:.3e} < 0"
            )
    return out
