"""Semiconcave-function DSL over distance functions.

Expression trees built from distance leaves closed under monotone
semiconcave composition, plus the numerical operators on them:
concavity checking along sampled geodesics and inf-convolution.

Node protocol: each `Expr` node answers two questions about itself,
each as a closure built once per space and kept on the node (`_compile`,
`_compile_jet`), so a tree is walked once, not on every call.
`_lower(space, many)` gives its value, as a closure of one validated
point or, when many, of a sequence of them, whose values it returns as
a float array.  The two forms share every line but the distance leaves'
kernel, `space._distance(p, q)` or `space._distances(points, q)`, each
read from the evaluated point, and `MinExpr`'s `min` or pairwise
`np.minimum`.  On many points a leaf applies its phi to the array of
distances, in a form that rounds as the scalar phi does, or maps the
scalar phi over them.
`_jet(space)` gives its value and its differential together, as a
closure (p, sigma) -> (value, DirectionalFn) of a validated point p
whose direction space is sigma: forward-mode differentiation, the
value by the same arithmetic as the one-point `_lower`, so to the bit.
The leaves phi o dist_q (`Dist`, `DistSq`, `RhoDist`, `PhiRC`) share
one jet, which reads `_distance` once and applies the leaf's scalar
`phi` and, in the first variation formula d_p(phi o dist_q)(xi) =
-phi'(|pq|) cos angle(xi, up_p^q), its slope `dphi`.  `Affine` sums
its children's values and combines their differentials in the same
order; `MinExpr` takes the lower envelope of the differentials of its
terms within 1e-9 of the least value (`_active`), whose jets it reads
after its terms' values.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import model_plane
from .spaces.base import REFUSED, SpaceError, libm
from .tangent import (
    DirectionalFn,
    _linear,
    combine_affine,
    combine_min,
    cos_tail_directional,
    constant_directional,
)
from .verdict import Margin


class ExprError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    center: object


@dataclass(frozen=True)
class Expr:
    certificates: tuple = ()

    def with_certificate(self, center):
        return replace(self, certificates=self.certificates + (Certificate(center),))

    def _lower(self, space, many):
        """A closure that evaluates this node at a validated point of space,
        or, when many, at each of a sequence of them, as a float array."""
        raise ExprError(f"cannot evaluate {self!r}")

    def _jet(self, space):
        """A closure (p, sigma) -> (value, differential) of this node at a
        validated point p of space whose direction space is sigma."""
        raise ExprError(f"cannot differentiate {self!r}")

    def __getstate__(self):
        # the compiled closures (see `_compile`) are a cache, not part of the value
        return {k: v for k, v in self.__dict__.items() if k not in _MEMOS}


class _DistanceLeaf(Expr):
    """phi o dist_q; a subclass gives phi on one distance as `phi` and its
    slope phi' as `dphi`.

    It adds methods only, so its subclasses keep their fields, repr,
    equality and hash.
    """

    def _jet(self, space):
        """phi(|pq|) and the first variation formula (`_first_variation`)
        from one `_distance` read; q is validated once per space."""
        q, phi, dphi = space.validate_point(self.q), self.phi, self.dphi

        def jet(p, sigma):
            d = space._distance(p, q)
            return phi(d), _first_variation(space, p, q, sigma, dphi, d)

        return jet


def _first_variation(space, p, q, sigma, dphi, d):
    """d_p(phi o dist_q) = -phi'(|pq|) cos angle(xi, up_p^q), min over the
    directions to q, for validated points p and q, d = `_distance(p, q)`
    and the slope dphi = phi'.

    Within 1e-12 of q it is the constant phi'(0).  d is read from p, so
    that a mesh answers the distance and the directions from one search.
    """
    if d <= 1e-12:
        return constant_directional(sigma, dphi(0.0))
    return cos_tail_directional(sigma, dphi(d), space._directions_to(p, q))


@dataclass(frozen=True)
class Dist(_DistanceLeaf):
    q: object = None

    def phi(self, x):
        return x

    def dphi(self, x):
        return 1.0

    def _lower(self, space, many):
        dist, q = _metric(space, many), space.validate_point(self.q)
        return lambda p: dist(p, q)


@dataclass(frozen=True)
class DistSq(_DistanceLeaf):
    q: object = None

    def phi(self, x):
        return x * x

    def dphi(self, x):
        return 2.0 * x

    def _lower(self, space, many):
        """phi is array-ready: x * x."""
        dist, q, phi = _metric(space, many), space.validate_point(self.q), self.phi
        return lambda p: phi(dist(p, q))


@dataclass(frozen=True)
class RhoDist(_DistanceLeaf):
    """rho_kappa composed with the distance from q."""

    kappa: float = 0.0
    q: object = None

    def phi(self, x):
        return model_plane.rho(self.kappa, x)

    def dphi(self, x):
        return model_plane.sigma(self.kappa, x)

    def _lower(self, space, many):
        """rho_kappa is not array-ready: on many points it maps over the distances."""
        dist, q, phi = _metric(space, many), space.validate_point(self.q), self.phi
        if many:
            return lambda points: np.array([phi(x) for x in dist(points, q).tolist()])
        return lambda p: phi(dist(p, q))


@dataclass(frozen=True)
class PhiRC(_DistanceLeaf):
    """phi_{r,c}(x) = (x - r) - c (x - r)^2 / r applied to dist_q.

    phi(r) = 0, phi'(r) = 1, phi''(r) = -2c/r.
    """

    r: float = 1.0
    c: float = 1.0
    q: object = None

    def phi(self, x):
        return (x - self.r) - self.c * (x - self.r) ** 2 / self.r

    def _phi_each(self, d):
        """`phi` on a float array, with the scalar's pow (x - r) ** 2 from `math`:
        numpy squares by x * x, which rounds differently (about 1 value in 1,000)."""
        u = d - self.r
        return u - self.c * libm(math.pow, u, np.full(len(u), 2.0)) / self.r

    def dphi(self, x):
        return 1.0 - 2.0 * self.c * (x - self.r) / self.r

    def _lower(self, space, many):
        dist, q = _metric(space, many), space.validate_point(self.q)
        phi = self._phi_each if many else self.phi
        return lambda p: phi(dist(p, q))


@dataclass(frozen=True)
class Affine(Expr):
    weights: tuple = ()
    constant: float = 0.0
    terms: tuple = ()

    def _lower(self, space, many):
        parts = tuple(zip(self.weights, [_compile(t, space, many) for t in self.terms]))
        constant = self.constant

        def value(p):
            v = constant
            for w, term in parts:
                v += w * term(p)
            return v

        return value

    def _jet(self, space):
        parts = tuple(zip(self.weights, [_compile_jet(t, space) for t in self.terms]))
        constant = self.constant

        def jet(p, sigma):
            v, diffs = constant, []
            for w, term in parts:
                tv, td = term(p, sigma)
                v += w * tv
                diffs.append((w, td))
            return v, combine_affine(sigma, diffs)

        return jet


@dataclass(frozen=True)
class MinExpr(Expr):
    terms: tuple = ()

    def _lower(self, space, many):
        terms = [_compile(t, space, many) for t in self.terms]
        # np.minimum pairwise, as a term without leaves is a float on many points
        least = (lambda vals: functools.reduce(np.minimum, vals)) if many else min
        return lambda p: least([term(p) for term in terms])

    def _jet(self, space):
        """The least value, and the lower envelope of the differentials of
        the `_active` terms, picked from the values in hand: a term with no
        differential at p (a boundary leaf on a double's seam) that is not
        active is not differentiated."""
        values = [_compile(t, space, False) for t in self.terms]
        jets = [_compile_jet(t, space) for t in self.terms]

        def jet(p, sigma):
            vals = [value(p) for value in values]
            return min(vals), combine_min(sigma, [jets[k](p, sigma)[1] for k in _active(vals)])

        return jet


def _active(vals):
    """The indices of the values within 1e-9 of the least: the terms of a
    min whose differentials make up the min's differential."""
    vmin = min(vals)
    return [k for k, v in enumerate(vals) if v <= vmin + 1e-9]


@dataclass(frozen=True)
class BoundaryDist(Expr):
    """Distance to the boundary; for doubles, pulled back by the projection."""

    def _lower(self, space, many):
        if space.boundary_dist is None:
            raise ExprError(f"{space.variant} has no boundary-distance support")
        bd = space.boundary_dist
        return (lambda points: np.array([bd(p) for p in points], dtype=float)) if many else bd

    def _jet(self, space):
        """`boundary_dist` and the min of the cos-tails that `boundary_tails`
        gives; sources None is a constant."""
        if space.boundary_tails is None:
            raise ExprError(f"{space.variant} has no boundary differential")
        bd, boundary_tails = self._lower(space, False), space.boundary_tails

        def jet(p, sigma):
            try:
                tails = boundary_tails(p)
            except SpaceError as exc:  # no differential at p, as on a double's seam
                raise ExprError(str(exc)) from exc
            return bd(p), combine_min(sigma, [
                constant_directional(sigma, s) if sources is None
                else cos_tail_directional(sigma, s, sources)
                for s, sources in tails
            ])

        return jet


def scale(w, term, constant=0.0):
    return Affine(weights=(float(w),), constant=constant, terms=(term,))


# -- evaluation ----------------------------------------------------------
_FORMS = ("_compiled", "_compiled_many")  # the node attribute of each value closure
_MEMOS = _FORMS + ("_compiled_jet",)  # every cache a node keeps, with its jet


def _memo(node, key, space, build):
    """build() kept on the node under key for the last space it was built for.

    It is not a dataclass field, so equality, hash and repr do not see it.
    """
    memo = node.__dict__.get(key)
    if memo is None or memo[0] is not space:
        memo = (space, build())
        object.__setattr__(node, key, memo)
    return memo[1]


def _metric(space, many):
    """The leaves' distance kernel, dist(p, q) read from the evaluated point p
    or, when many, from each of them: both forms read from the same end, as
    a mesh's unfolding search from each end rounds on its own."""
    return space._distances if many else space._distance


def _compile(expr, space, many):
    """expr as a closure of one validated point of space, or when many of a
    sequence of them, built once per space.

    Each node lowers to one closure that calls its children's closures,
    so a tree is walked once, not on every evaluation.  Each form's
    closure is kept on the node for the last space it was built for
    (`_memo`).
    """
    if not isinstance(expr, Expr):
        raise ExprError(f"cannot evaluate {expr!r}")
    return _memo(expr, _FORMS[many], space, lambda: expr._lower(space, many))


def _compile_jet(expr, space):
    """expr's jet on space (`Expr._jet`), built once per space as `_compile`
    builds its value closures."""
    if not isinstance(expr, Expr):
        raise ExprError(f"cannot differentiate {expr!r}")
    return _memo(expr, "_compiled_jet", space, lambda: expr._jet(space))


def evaluate(expr, space, p):
    """Value at p of an expression tree, or of a callable (space, p) -> value.

    p is validated once per call; the leaves of a tree take it as it is.
    """
    if isinstance(expr, Expr):
        return _compile(expr, space, False)(space.validate_point(p))
    if callable(expr):
        return float(expr(space, p))
    raise ExprError(f"cannot evaluate {expr!r}")


def evaluate_each(expr, space, points):
    """`evaluate(expr, space, p)` for each p of points, as a list of floats.

    A tree validates each point and makes one call of its many-point
    closure (`_evaluate_made`); a callable is called on each point in order.
    """
    if isinstance(expr, Expr):
        return _evaluate_made(expr, space, [space.validate_point(p) for p in points])
    if callable(expr):
        return [float(expr(space, p)) for p in points]
    raise ExprError(f"cannot evaluate {expr!r}")


def _evaluate_made(expr, space, points):
    """`evaluate_each` on points that the space made (walk ends, samples,
    geodesic points) or validated: a tree takes them as they are, in one
    call of its many-point closure; anything else goes to `evaluate_each`."""
    if isinstance(expr, Expr):
        return np.broadcast_to(_compile(expr, space, True)(points), len(points)).tolist()
    return evaluate_each(expr, space, points)


# -- differentials --------------------------------------------------------
def differential(expr, space, p) -> DirectionalFn:
    """Directional derivative on the direction space at p: the second half
    of expr's jet.

    p is validated once here; the jet takes it as it is.
    """
    p = space.validate_point(p)
    return _compile_jet(expr, space)(p, space.sigma_at(p))[1]


# -- concavity checking -----------------------------------------------------
@dataclass
class ConcavityReport:
    tol: float
    worst_margin: float
    worst_chord: tuple | None

    def margins(self):
        """f'' <= lam within tol along every sampled geodesic."""
        return [Margin("worst second-difference margin", self.worst_margin, self.tol, "<=")]


def check_concavity(expr, space, lam, region, n_geodesics=100, n_samples=17,
                    seed=0, tol=1e-7) -> ConcavityReport:
    """Sample geodesics in a ball and test discrete second differences.

    Every geodesic is drawn first; then f is evaluated at all their
    samples at once (`_evaluate_made`: the space made them), and the
    second differences are read geodesic by geodesic, in the order they
    were drawn.
    """
    if n_geodesics < 1:
        raise ValueError(f"concavity check needs at least 1 geodesic, not {n_geodesics}")
    if n_samples < 3:
        raise ValueError(f"concavity check needs at least 3 samples per geodesic "
                         f"for a second difference, not {n_samples}")
    chords, pts = _draw_chords(space, region, n_geodesics, n_samples, seed)
    return _second_differences(_evaluate_made(expr, space, pts), chords, n_samples, lam, tol)


def _draw_chords(space, region, n_geodesics, n_samples, seed):
    """The chords (a, b, d) of a concavity check, shorter ones than 1e-6
    dropped, and the n_samples geodesic points of each, chord by chord."""
    center, radius = region
    rng = np.random.default_rng(seed)
    chords, pts = [], []
    for _ in range(n_geodesics):
        a = space.random_point_near(center, radius, rng)
        b = space.random_point_near(center, radius, rng)
        d = space._distance(a, b)
        if d < 1e-6:
            continue
        chords.append((a, b, d))
        pts += space.geodesic_points(a, b, n_samples)
    return chords, pts


def _second_differences(values, chords, n_samples, lam, tol):
    """The worst margin f'' - lam of the values at the samples of chords."""
    worst = -math.inf
    worst_chord = None
    for k, (a, b, d) in enumerate(chords):
        vals = values[k * n_samples:(k + 1) * n_samples]
        dt = d / (n_samples - 1)
        for i in range(1, n_samples - 1):
            d2 = (vals[i - 1] - 2.0 * vals[i] + vals[i + 1]) / (dt * dt)
            margin = d2 - lam
            if margin > worst:
                worst = margin
                worst_chord = (a, b)
    if worst == -math.inf:
        worst = 0.0
    return ConcavityReport(tol, float(worst), worst_chord)


# -- inf-convolution ----------------------------------------------------------
@dataclass
class InfConvResult:
    value: float
    argmin: object
    in_domain: bool
    slope: float  # |grad| of the objective at argmin where certified, else inf


# The descent's stationarity certificate.  Near its minimizer the
# objective is mu-convex, mu = 2 / eps - 1 for -d_q^2 / 2 on the plane,
# so a point where |grad| is at most this lies at most |grad|^2 / 2 mu
# above the minimum: 5e-19 where mu >= 1.
_STATIONARY = 1e-9
_DESCENT_WALKS = 12  # walks before a query falls back; twice the cap's worst of 6


def _twice(d):
    """The slope of d^2, as `DistSq.dphi` gives it."""
    return 2.0 * d


class InfConvolution:
    """f_eps(y) = min_x f(x) + d(x, y)^2 / eps by certified exact descent.

    A query runs in three stages.
    - Domain scan: one stencil of 16 rays by 8 radii about y (`_scan`),
      one batched `_walks` call; when its best point lies on its rim, it
      runs once more on twice the radius, and `in_domain` is False when
      that scan's best point lies on its rim too.
    - Descent (`_descend`) from the scan's best point.  At each point it
      reads the objective's value and exact differential (`_gradient`): f's
      jet plus the first variation of d(., y)^2 / eps, combined by
      `combine_affine`.
      Where it is linear (`_linear`) it gives the gradient G, and the
      descent walks once along -G a distance |G| / c, capped at the
      domain scan's radius.  c is 2 / eps on the first step and then a
      secant of the exact slope along the last step, the two-point step
      size of Barzilai and Borwein (1988); the end slope is read along
      the walk's arrival direction, since a chart's angle coordinate may
      turn from point to point.  A step is accepted on exact slopes, not
      on values, which round long before |G| reaches 1e-9 where 2 / eps
      is large: its end slope must lie below |G|, so that the secant is
      convex and the trapezoid rule's value change is negative.  The
      query is certified, and returns at once, when |G| is at most
      `_STATIONARY`; `slope` holds that |G|.
    - Fallback, where the descent does not certify: at a point whose
      differential is not linear (the apex, a boundary arc, the cut
      locus of y or a kink of f), at a walk event or a refused walk, on a
      step that fails the slope test, or after `_DESCENT_WALKS` walks.
      Stencils about the best point so far, each on a radius 8 times
      smaller, refine the domain scan's state, four stencils in all
      (three after one domain stencil, two after a doubled one); then a
      sequential compass polish of scalar walks (`_polish`) pins the
      minimizer below their spacing.  The query returns the lower of that result
      and the lowest point of the descent, with `slope` inf.

    Each stencil ray stops at its first event or refused walk, and the
    walk ends that a walk-by-walk scan would read get one call of f's
    many-point closure and one `_distances` call to y.  The polish reads
    the objective from one closure per query (`_objective`), which holds
    f's one-point closure.  On a cap, the
    stencils' and the polish's walks are nearly all too short to reach
    the boundary, and those skip the crossing solve (see
    `CapSpace._walks`).
    """

    def __init__(self, expr, space, eps, lip_hint=2.0):
        if not 0.0 < eps < math.inf:
            raise ExprError(f"inf-convolution needs a finite eps > 0, not {eps}")
        if not 0.0 < lip_hint < math.inf:
            raise ExprError(f"inf-convolution needs a finite lip_hint > 0, not {lip_hint}")
        if not isinstance(expr, Expr):
            raise ExprError(f"inf-convolution needs an expression tree, not {expr!r}")
        self.expr = expr
        self.space = space
        self.eps = eps
        self.search_radius = 1.5 * lip_hint * eps

    def _objective(self, y):
        """x -> f(x) + d(x, y)^2 / eps at points of the space, for a validated
        y and x = y or a walk end; f's one-point closure is read once."""
        f, dist, eps = _compile(self.expr, self.space, False), self.space._distance, self.eps
        return lambda x: f(x) + dist(x, y) ** 2 / eps

    def query(self, y) -> InfConvResult:
        y = self.space.validate_point(y)
        obj = self._objective(y)
        best, radius = (obj(y), y), self.search_radius
        best, rim = self._scan(y, y, radius, best)
        doubled = rim
        if doubled:
            radius *= 2.0
            best, rim = self._scan(y, y, radius, best)
        v, x, slope = self._descend(y, best, radius)
        if slope <= _STATIONARY:
            return InfConvResult(v, x, not rim, slope)
        for _ in range(2 if doubled else 3):  # four stencils in all
            radius /= 8.0
            best, _ = self._scan(y, best[1], radius, best)
        best = self._polish(obj, best, max(radius / 8.0, 1e-6))
        if v < best[0]:
            best = (v, x)
        return InfConvResult(*best, not rim, math.inf)

    def _scan(self, y, center, radius, best):
        """One stencil of 16 rays by 8 radii about center, one batched
        `_walks` call, against best = (value, point) so far.

        Returns the best (value, point) and whether the stencil found a new
        best point, lying on its rim.
        """
        space = self.space
        n_angles, n_radii = 16, 8
        angles = space.sigma_at(center).length * (np.arange(n_angles) + 0.5) / n_angles
        ends, events = space._walks(center, np.repeat(angles, n_radii),
                                    np.tile(radius * np.arange(1, n_radii + 1) / n_radii,
                                            n_angles))
        read = []  # each ray outward, to its first event or refused walk
        for j0 in range(0, n_angles * n_radii, n_radii):
            for j in range(j0, j0 + n_radii):
                if events[j] == REFUSED:
                    break
                read.append(j)
                if events[j] is not None:
                    break
        xs = [ends[j] for j in read]
        vals = (_compile(self.expr, space, True)(xs)
                + space._distances(xs, y) ** 2 / self.eps).tolist()
        rim = False
        for j, v in zip(read, vals):
            if v < best[0] - 1e-15:
                best, rim = (v, ends[j]), j % n_radii == n_radii - 1
        return best, rim

    def _gradient(self, y, x):
        """The objective's value at x and its gradient (a, b) there, in x's
        chart, where its exact differential is linear (`_linear`), else None;
        (None, None) where f has no differential.  f's value and differential
        come from one jet, and d(x, y) from one `_distance` read."""
        space = self.space
        sigma = space.sigma_at(x)
        try:
            fv, df = _compile_jet(self.expr, space)(x, sigma)
        except ExprError:
            return None, None
        d = space._distance(x, y)
        return fv + d ** 2 / self.eps, _linear(combine_affine(sigma, [
            (1.0, df), (1.0 / self.eps, _first_variation(space, x, y, sigma, _twice, d))]))

    def _descend(self, y, start, radius):
        """The exact descent of the class docstring from start = (value,
        point), each step at most radius long.

        Returns (value, point, |G|) at the certified point, or else the
        lowest (value, point) seen and inf.
        """
        space = self.space
        v, x = lowest = start
        g = self._gradient(y, x)[1]
        c = 2.0 / self.eps
        for _ in range(_DESCENT_WALKS):
            if g is None:
                break
            norm = math.hypot(*g)
            if norm <= _STATIONARY:
                return v, x, norm
            length = min(norm / c, radius)
            try:
                w = space._walk(x, math.atan2(-g[1], -g[0]), length)
            except SpaceError:
                break
            end_v, g = self._gradient(y, w.end) if w.event is None else (None, None)
            if g is None:
                break
            ahead = w.sigma.forward_of_back(w.back_angle)
            end_slope = g[0] * math.cos(ahead) + g[1] * math.sin(ahead)
            if not -norm < end_slope < norm:
                break
            c = (end_slope + norm) / length
            x, v = w.end, end_v
            if v < lowest[0]:
                lowest = (v, x)
        return *lowest, math.inf

    def _polish(self, obj, best, top):
        """Compass polish from best = (value, point), starting at the step top.

        Each round walks 8 directions at one step from the best point so
        far; a round with no gain shrinks the step by 0.35, and three
        gaining rounds in a row double it, never above top, so that the
        polish does not crawl along a valley at a step it shrank too far.
        It stops when the step falls to 1e-9.
        """
        space = self.space
        best_v, best_x = best
        step, streak = top, 0  # streak: rounds in a row that improved
        while step > 1e-9:
            improved = False
            sig = space.sigma_at(best_x)
            for k in range(8):
                ang = sig.length * k / 8.0
                try:
                    w = space._walk(best_x, ang, step)
                except SpaceError:
                    continue
                v = obj(w.end)
                if v < best_v - 1e-16:
                    best_v, best_x = v, w.end
                    improved = True
            streak = streak + 1 if improved else 0
            if not improved:
                step *= 0.35
            elif streak == 3:
                step, streak = min(2.0 * step, top), 0
        return best_v, best_x

    def __call__(self, space, p):
        return self.query(p).value
