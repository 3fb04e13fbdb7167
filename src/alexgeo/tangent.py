"""Tangent-cone arithmetic: differentials, gradients, polar vectors.

The space of directions at every point is a circle or an arc of length
L, and every differential is a min or an affine combination of cos-tails
s * -cos(min(angdist(xi, u), pi)): a piecewise sinusoid.  `DirectionalFn`
stores breakpoints 0 = b_0 <= ... <= b_n = L and, on [b_i, b_{i+1}], a
piece (R, psi, C) of value R cos(xi - psi) + C.  A piece with one
non-constant term keeps its phase form (psi is then a lifted source).
A breakpoint marks only a change of formula: a Voronoi midpoint between
sources (or between a source's lifts u and u + L on a circle of length
L != 2 pi), or a cell's +-pi end on a circle longer than 2 pi.  A lift
seam is not a breakpoint: on a 2 pi circle, the direction space of every
regular point, cos(xi - u) = cos(xi - u - 2 pi), so one source is one
piece.  Maxima and the gradient inequality are exact sweeps over the
breakpoints and the interior stationary points.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .spaces.base import SigmaDesc

TWO_PI = 2.0 * math.pi
_AMBIGUITY_ANGLE = 1e-4  # maximizers farther apart than this are distinct
_TIE = 1e-10  # distinct maxima this close in value make the gradient ambiguous
_EXACT_TIE = 1e-12  # maxima this close in value tie; the smallest angle wins
_PEAK_STEP = 1e-6  # a candidate d does not exceed this far to either side is a peak
_GRADIENT_TOL = 1e-8  # allowed excess of d over <g, .> in the gradient check


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


def _value(piece, angle):
    R, psi, C = piece
    return R * math.cos(angle - psi) + C


@dataclass
class DirectionalFn:
    """Piecewise sinusoid on the direction space (see the module docstring).

    `single` is (scale, sources) when the function is one cos-tail
    scale * min over sources of -cos(angdist(xi, source)).  It is
    metadata only and selects no code path.
    """

    sigma: SigmaDesc
    breaks: list
    pieces: list
    single: tuple | None = None

    def piece_at(self, angle: float):
        """The piece on whose interval the (wrapped) angle lies."""
        i = bisect.bisect_right(self.breaks, angle, 1, len(self.breaks) - 1)
        return self.pieces[i - 1]

    def __call__(self, angle: float) -> float:
        if not self.sigma.is_arc:
            angle = self.sigma.wrap(angle)
        return _value(self.piece_at(angle), angle)

    def homogeneous(self, v: TangentVec) -> float:
        """Positively homogeneous extension to the tangent cone."""
        return v.norm * self(v.angle) if v.norm != 0.0 else 0.0


def _breaks(sigma: SigmaDesc, cuts):
    return [0.0] + sorted({c for c in cuts if 0.0 < c < sigma.length}) + [sigma.length]


def constant_directional(sigma: SigmaDesc, value: float) -> DirectionalFn:
    return DirectionalFn(sigma, [0.0, sigma.length], [(0.0, 0.0, value)])


def cos_tail_directional(sigma: SigmaDesc, scale: float, sources) -> DirectionalFn:
    """scale * min over sources of -cos(min(angle distance, pi)).

    One piece per Voronoi cell of the sources, split at the coordinate
    ends; on a circle longer than 2 pi a cell's part beyond pi is constant.
    Breakpoints mark changes of formula only.  So one source on the 2 pi
    circle is one piece, -scale cos(xi - u) for every xi: its antipode is
    a lift seam (u against u + 2 pi), not a breakpoint.  On any other
    circle the antipode stays a cut, the midpoint of u and u + L.
    """
    srcs = sorted(sources)
    L = sigma.length
    if len(srcs) == 1 and not sigma.is_arc and L == TWO_PI:
        return DirectionalFn(sigma, [0.0, L], [(-scale, srcs[0], 0.0)], single=(scale, srcs))
    if sigma.is_arc:
        cuts = [0.5 * (a + b) for a, b in zip(srcs, srcs[1:])]
    else:
        s = sorted(sigma.wrap(a) for a in srcs)
        cuts = [sigma.wrap(0.5 * (a + b)) for a, b in zip(s, s[1:] + [s[0] + L])]
        if L > TWO_PI:
            cuts += [sigma.wrap(u + t) for u in s for t in (math.pi, -math.pi)]
    breaks = _breaks(sigma, cuts)
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        m = 0.5 * (a + b)
        u = min(srcs, key=lambda x: sigma.dist(m, x))
        if sigma.dist(m, u) >= math.pi:
            pieces.append((0.0, 0.0, scale))
            continue
        if not sigma.is_arc:
            u += L * round((m - u) / L)
        pieces.append((-scale, u, 0.0))
    return DirectionalFn(sigma, breaks, pieces, single=(scale, srcs))


def _sum_pieces(terms):
    """sum of w * piece; a single non-constant term keeps its phase form."""
    C = sum(w * c for w, (_, _, c) in terms)
    live = [(w * R, psi) for w, (R, psi, _) in terms if R != 0.0]
    if len(live) == 1:
        return live[0] + (C,)
    a = sum(R * math.cos(psi) for R, psi in live)
    b = sum(R * math.sin(psi) for R, psi in live)
    return (math.hypot(a, b), math.atan2(b, a), C)


def combine_affine(sigma: SigmaDesc, parts) -> DirectionalFn:
    """Weighted sum of directional functions (constants differentiate away).

    Where every part is one piece on [0, L] the sum is one piece, the same
    `_sum_pieces` of the parts' pieces, with no breakpoint merge."""
    parts = [(w, d) for w, d in parts if w != 0.0]
    if not parts:
        return constant_directional(sigma, 0.0)
    whole = [0.0, sigma.length]
    if all(d.breaks == whole for _, d in parts):
        breaks, pieces = whole, [_sum_pieces([(w, d.pieces[0]) for w, d in parts])]
    else:
        breaks = _breaks(sigma, [b for _, d in parts for b in d.breaks])
        pieces = [_sum_pieces([(w, d.piece_at(0.5 * (a + b))) for w, d in parts])
                  for a, b in zip(breaks, breaks[1:])]
    single = None
    if len(parts) == 1 and parts[0][1].single is not None:
        s, srcs = parts[0][1].single
        single = (parts[0][0] * s, srcs)
    return DirectionalFn(sigma, breaks, pieces, single)


def _linear(d):
    """(a, b) with d(xi) = a cos xi + b sin xi when d is one sinusoid with
    no constant on the 2 pi circle, the differential of a smooth function
    at a regular point; else None."""
    if d.sigma.is_arc or d.sigma.length != TWO_PI or len(d.pieces) != 1:
        return None
    R, psi, C = d.pieces[0]
    return (R * math.cos(psi), R * math.sin(psi)) if C == 0.0 else None


def _lifts(x, lo, hi):
    """The angles x + 2 pi k inside the open interval (lo, hi)."""
    x += TWO_PI * math.ceil((lo - x) / TWO_PI)
    out = []
    while x < hi:
        if x > lo:
            out.append(x)
        x += TWO_PI
    return out


def _crossings(p, q, lo, hi):
    """Angles in (lo, hi) where the pieces p and q take equal values."""
    (r1, s1, c1), (r2, s2, c2) = p, q
    x = r1 * math.cos(s1) - r2 * math.cos(s2)
    y = r1 * math.sin(s1) - r2 * math.sin(s2)
    r = math.hypot(x, y)
    if r == 0.0 or abs(c2 - c1) > r:
        return []
    psi, t = math.atan2(y, x), math.acos((c2 - c1) / r)
    return _lifts(psi + t, lo, hi) + _lifts(psi - t, lo, hi)


def combine_min(sigma: SigmaDesc, ds) -> DirectionalFn:
    """Lower envelope: pieces are split where two candidates cross."""
    ds = list(ds)
    if len(ds) == 1:
        return ds[0]
    base = _breaks(sigma, [b for d in ds for b in d.breaks])
    breaks, pieces = [0.0], []
    for a, b in zip(base, base[1:]):
        cands = [d.piece_at(0.5 * (a + b)) for d in ds]
        cuts = sorted({x for i, p in enumerate(cands) for q in cands[i + 1:]
                       for x in _crossings(p, q, a, b)})
        for lo, hi in zip([a] + cuts, cuts + [b]):
            m = 0.5 * (lo + hi)
            pieces.append(min(cands, key=lambda p: _value(p, m)))
            breaks.append(hi)
    return DirectionalFn(sigma, breaks, pieces)


def _candidates(d: DirectionalFn):
    """(value, angle) at every breakpoint and interior stationary maximum.

    A breakpoint takes the smaller of its one-sided values, so the lifted
    phases of its two pieces cannot round it above either side.
    """
    sig, br, pc = d.sigma, d.breaks, d.pieces
    n = len(pc)
    out = []
    for j in range(n + 1 if sig.is_arc else n):
        sides = [_value(pc[j], br[j])] if j < n else []
        if j > 0:
            sides.append(_value(pc[j - 1], br[j]))
        elif not sig.is_arc:
            sides.append(_value(pc[-1], br[-1]))
        out.append((min(sides), br[j]))
    for (R, psi, C), a, b in zip(pc, br, br[1:]):
        if R != 0.0:
            out += [(abs(R) + C, x) for x in _lifts(psi if R > 0.0 else psi + math.pi, a, b)]
    return out


def directional_sup(d: DirectionalFn):
    """(sup value, an angle attaining it), with no test for ties."""
    return max(_candidates(d))


def _is_peak(d: DirectionalFn, value, angle):
    """A local maximum: d is no higher _PEAK_STEP to either side."""
    sig = d.sigma
    near = [angle - _PEAK_STEP, angle + _PEAK_STEP]
    if sig.is_arc:
        near = [min(max(x, 0.0), sig.length) for x in near]
    return all(d(x) <= value for x in near)


def maximize_directional(d: DirectionalFn):
    """(max value, argmax angle); raises GradientError on separated ties.

    A positive maximum attained within _TIE at peaks more than
    _AMBIGUITY_ANGLE apart, or on a flat piece longer than that, is
    ambiguous.  Among peaks within _EXACT_TIE the smallest angle wins.
    Breakpoints that are no local maxima never tie: near a critical
    point the whole differential lies within _TIE of its maximum.
    """
    cands = _candidates(d)
    best_v, top = max(cands)
    near = [(v, a) for v, a in cands if v >= best_v - _TIE and _is_peak(d, v, a)]
    if best_v > 0.0:
        for (R, _, C), a, b in zip(d.pieces, d.breaks, d.breaks[1:]):
            if R == 0.0 and C >= best_v - _TIE and b - a > _AMBIGUITY_ANGLE:
                raise GradientError(f"ambiguous maximizer: flat maximum {C:.3e} "
                                    f"on [{a:.6f}, {b:.6f}]")
        for v, a in near:
            if d.sigma.dist(a, top) > _AMBIGUITY_ANGLE:
                raise GradientError(f"ambiguous maximizer: {top:.6f} and {a:.6f} "
                                    f"both attain {best_v:.3e}")
    return best_v, min(a for v, a in near + [(best_v, top)] if v >= best_v - _EXACT_TIE)


def gradient_from_directional(d: DirectionalFn) -> TangentVec:
    """Gradient from a differential: zero when the max is nonpositive.

    Checks sup over x of d(x) - <g, x> <= _GRADIENT_TOL exactly.
    """
    vmax, amax = maximize_directional(d)
    sig = d.sigma
    if vmax <= 0.0:
        return zero_vector(sig)
    minus_g = cos_tail_directional(sig, vmax, [amax])  # x -> -<g, x>
    excess, at = directional_sup(combine_affine(sig, [(1.0, d), (1.0, minus_g)]))
    if excess > _GRADIENT_TOL:
        raise GradientError(
            f"gradient inequality fails at angle {at:.6f}: "
            f"d - <g,x> = {excess:.3e} (bad concavity certificate?)"
        )
    return TangentVec(vmax, amax, sig)


def _cos_gaps(sigma: SigmaDesc, a: float, xs: np.ndarray) -> np.ndarray:
    """cos(min(angle distance from a, pi)) at the angles xs in [0, L].

    The same operations as `SigmaDesc.dist` and `scalar_product`, one
    array at a time, so every entry equals the scalar form bit for bit.
    """
    if sigma.is_arc:
        d = np.abs(xs - a)
    else:
        d = np.abs(xs - sigma.wrap(a))
        d = np.minimum(d, sigma.length - d)
    return np.cos(np.minimum(d, math.pi))


def polar_grid_sums(sigma: SigmaDesc, v: TangentVec, star: TangentVec, grid: int = 720):
    """(xs, <v,x> + <star,x>) at the unit vectors of angles xs = L k / grid.

    k runs over range(grid), and on an arc also takes the endpoint k = grid.
    """
    n = grid + 1 if sigma.is_arc else grid
    xs = sigma.length * np.arange(n) / grid
    return xs, v.norm * _cos_gaps(sigma, v.angle, xs) + star.norm * _cos_gaps(sigma, star.angle, xs)


def polar_vector(sigma: SigmaDesc, v: TangentVec, grid: int = 720,
                 tol: float = 1e-9) -> TangentVec:
    """Equal-norm polar partner reached by traveling pi along the directions.

    On a circle the travel wraps; on an arc it reflects at the endpoints.
    The defining inequality <v,x> + <v*,x> >= 0 is verified on a grid,
    evaluated as one array by `polar_grid_sums`, before returning.
    """
    if v.norm == 0.0:
        return zero_vector(sigma)
    if sigma.is_arc:
        period = 2.0 * sigma.length
        star = (v.angle + math.pi) % period
        if star > sigma.length:
            star = period - star  # reflect
    else:
        star = sigma.wrap(v.angle + math.pi)
    out = TangentVec(v.norm, star, sigma)
    xs, vals = polar_grid_sums(sigma, v, out, grid)
    bad = np.flatnonzero(vals < -tol * max(1.0, v.norm))
    if bad.size:
        i = bad[0]
        raise RuntimeError(f"polar verification failed at angle {xs[i]:.6f}: {vals[i]:.3e} < 0")
    return out
