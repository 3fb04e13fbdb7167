"""Shared structures for the concrete space implementations.

Every space (cone, spindle, cap, polygon, mesh and the doubles) derives
from `Space` and answers the same queries, so callers need not ask which
variant they hold:

- `validate_point(p)`, `random_point(rng)` and `random_point_near(p, r,
  rng)`, one sampler on every space, defined here;
- `parse_point(text)` and `format_point(p)`: 'r,phi' on cone, spindle and
  cap, 'x,y' on the polygon, 'F<face>:<b0>,<b1>' on a mesh;
- `distance(p, q)`, `distance_with_error(p, q)` and
  `distances_from(p, targets)`, the last two as `(d, certified error)`
  pairs (the error is 0 on every space: every metric is exact);
- `sigma_at(p)`, `directions_to(p, q)`, `walk(p, angle, length)` and
  `geodesic_points(p, q, n)`.  Direction spaces are shared immutable
  values: `sigma_at` and every `WalkResult.sigma` return this module's
  `CIRCLE` or `HALF_ARC`, or the direction space of a special point (a
  cone apex, a spindle pole, a mesh vertex, a polygon corner), which the
  space builds once, at construction;
- `pos2(p)`, a planar position for plots and flat charts;
- `cone_points()`, the interior cone points with their total angles, and
  `corners()`, the polygon's corners with their angles (else empty);
- `boundary_dist(p)` on polygon, cap and their doubles (pulled back by
  the projection), else None; `boundary_tails(p)`, its differential as
  cos-tails, on the same spaces (on a double only off the seam), else
  None;
- `boundary_period`, the range of s in `boundary_point(s)` on polygon
  and cap, else None.

Validation contract: the public metric queries `distance`,
`distance_with_error`, `distances_from`, `directions_to`, `walk` and
`geodesic_points` (and on a mesh `point_vertex_dists` and
`graph_upper_bound`) validate each point argument once, with
`validate_point`, and raise `SpaceError` for a point outside the space
(`walk` also for a length that is not finite and >= 0).  The kernels
`_distance(p, q)`, `_directions_to(p, q)` and `_walk(p, angle, length)`
take points that `validate_point` returned and check neither them nor
the length, so a caller that holds validated points (its validated
input, or a walk end, a point of the space by construction) calls the
kernels and validates no point twice; so do the batch kernels below,
which `functions.evaluate_each` calls once on points it validated one
by one, and `functions._evaluate_made` on points the space made.  Such
points are fixed points of `validate_point`: validating one returns it
unchanged, of the same type.  A walk from a boundary point
still raises `SpaceError` for a direction outside its arc.  The point
helpers (`sigma_at`, `pos2`, `boundary_dist`, the mesh's `classify` and
`vertex_of_point` and the like) read their point as given.

Batch kernels, under the same contract (validated points in, nothing
validated): `_walks(p, angles, lengths)` gives the end and the event of
each walk from one point, as lists, and a walk that `_walk` refuses with
`SpaceError` gets the event `REFUSED` and ends at p; `_distances(points,
q)` gives `_distance(x, q)` for each x of points as a float array.  The
defaults loop over the scalar kernels.  On the cone, the spindle and
the cap each closed-form formula is written once over `m`, which the
scalar kernels set to `FLOATS` and the batch kernels to `ARRAYS`: the
azimuth gap, the cone's chord and regular walk, the sphere's haversine
and sub-step and the cap's boundary crossing.  The batch walks hand
every other walk (from the apex or the pole, through the apex, meeting
a pole, along or out of a boundary arc) to `_walk` by `walk_each`.  The
polygon, whose tight maps and concavity checks the benchmark runs, has
a `_distances` that inlines `_distance` in one comprehension,
`math.hypot` of the same differences, so it agrees with `_distance` bit
for bit on every platform; a numpy form would cost more, as converting
the points to an array takes longer than the loop.  `ARRAYS` takes
atan2, hypot, asin and acos from `math` through `libm`, so the two forms
agree bit for bit where numpy's sin, cos, sqrt and fmod round as
`math`'s do (x86-64, numpy 2.4); elsewhere a result may move by an ulp.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import partial
from types import ModuleType

import numpy as np

TWO_PI = 2.0 * math.pi
REFUSED = "refused"  # the event `_walks` gives a walk that `_walk` refuses


class SpaceError(ValueError):
    """Malformed space description or invalid point."""


def walk_length(length):
    """The length of a public walk, once checked: finite and >= 0."""
    if not 0.0 <= length < math.inf:
        raise SpaceError(f"walk length must be finite and >= 0, not {length}")
    return length


_PI_RE = re.compile(r"^\s*(-?[\d.]*)\s*pi\s*(?:/\s*([\d.]+))?\s*$")


def parse_angle(text):
    """Numeric literal or 'api/b' form, e.g. '3pi/2', 'pi', '0.5'."""
    if isinstance(text, (int, float)):
        return float(text)
    m = _PI_RE.match(text)
    if m:
        coef = m.group(1)
        coef = float(coef) if coef not in ("", "-") else (-1.0 if coef == "-" else 1.0)
        div = float(m.group(2)) if m.group(2) else 1.0
        return coef * math.pi / div
    try:
        return float(text)
    except ValueError as exc:
        raise SpaceError(f"cannot parse angle {text!r}") from exc


class Space:
    """Interface defaults: a closed-form metric on (r, phi) points, no boundary."""

    has_boundary = False
    boundary_dist = None
    boundary_tails = None
    boundary_period = None

    def corners(self):
        return []

    def cone_points(self):
        return []

    def pos2(self, p):
        """Planar position (r cos phi, r sin phi), with phi as given."""
        r, phi = p
        return (r * math.cos(phi), r * math.sin(phi))

    def random_point_near(self, p, radius, rng):
        """A point near p: the end of the first of up to 64 walks from p, each in
        a uniform direction of sigma_at(p) over radius * sqrt(u), that ends
        without an event, or p if none does.  A walk that raises
        `SpaceError`, as a mesh walk can, is a failed draw."""
        p = self.validate_point(p)
        if not 0.0 <= radius < math.inf:
            raise SpaceError(f"sampling radius must be finite and >= 0, not {radius}")
        sig = self.sigma_at(p)
        for _ in range(64):
            angle = rng.random() * sig.length
            try:
                w = self._walk(p, angle, radius * math.sqrt(rng.random()))
            except SpaceError:
                continue
            if w.event is None:
                return w.end
        return p

    # -- point literals ----------------------------------------------------
    def parse_point(self, text):
        """The point of a literal; anything but a string is validated as a point."""
        if not isinstance(text, str):
            return self.validate_point(text)
        return self.validate_point(self._point_of_literal(text.strip()))

    def _point_of_literal(self, text):
        parts = text.split(",")
        if len(parts) != 2:
            raise SpaceError(f"point literal {text!r} must have two coordinates")
        return (parse_angle(parts[0]), parse_angle(parts[1]))

    def format_point(self, p):
        return f"{p[0]:.9g},{p[1]:.9g}"

    # -- one-to-one and one-to-many queries of a closed-form metric ----------
    def distance_with_error(self, p, q):
        return self.distance(p, q), 0.0

    def distances_from(self, p, targets):
        p = self.validate_point(p)
        return [(self._distance(p, self.validate_point(q)), 0.0) for q in targets]

    # -- batch kernels: validated points in, nothing validated ----------------
    def _walks(self, p, angles, lengths):
        """(ends, events) of `_walk(p, angle, length)` for each angle and length."""
        angles = np.asarray(angles, dtype=float).tolist()
        ends, events = [None] * len(angles), [None] * len(angles)
        walk_each(self, p, angles, np.asarray(lengths, dtype=float).tolist(), ends, events,
                  range(len(angles)))
        return ends, events

    def _distances(self, points, q):
        """`_distance(x, q)` for each x of points, as a float array."""
        return np.array([self._distance(x, q) for x in points], dtype=float)


@dataclass(frozen=True)
class SigmaDesc:
    """Space of directions at a point: a circle or an arc with a length."""

    length: float
    is_arc: bool = False

    def wrap(self, angle: float) -> float:
        if self.is_arc:
            return angle
        return wrap_angle(angle, self.length)

    def dist(self, a: float, b: float) -> float:
        """Angle metric between two directions (capped at pi by construction)."""
        if self.is_arc:
            return abs(a - b)
        d = abs(self.wrap(a) - self.wrap(b))
        return min(d, self.length - d)

    def valid(self, angle: float) -> bool:
        if self.is_arc:
            return -1e-9 <= angle <= self.length + 1e-9
        return True

    def forward_of_back(self, back: float) -> float:
        """Direction continuing the incoming motion whose back angle is given.

        On a circle this is the antipode; on a boundary arc it is the
        mirrored coordinate, which continues boundary slides.
        """
        if self.is_arc:
            return min(max(self.length - back, 0.0), self.length)
        return self.wrap(back + math.pi)


CIRCLE = SigmaDesc(TWO_PI)  # a regular point
HALF_ARC = SigmaDesc(math.pi, is_arc=True)  # a smooth boundary point


@dataclass
class WalkResult:
    """Outcome of a geodesic walk.

    `end` is where the walk stopped; `traveled` <= requested length with
    equality when no event fired.  `event` is None or one of "vertex",
    "boundary", "corner".  `back_angle` is the direction at `end`, in the
    sigma chart of `end`, pointing back along the incoming segment.
    """

    end: object
    traveled: float
    back_angle: float
    sigma: SigmaDesc
    event: str | None = None
    event_ref: object = None


def wrap_angle(a: float, period: float) -> float:
    """a modulo period, in [0, period).

    fmod leaves a tiny negative a negative, and adding the period then
    rounds to the period itself, which is mapped to 0.
    """
    x = math.fmod(a, period)
    if x < 0.0:
        x += period
        return x if x < period else 0.0
    return x


def wrap_angles(a, period):
    """`wrap_angle` on an array, elementwise."""
    x = np.fmod(a, period)
    y = x + period
    return np.where(x < 0.0, np.where(y < period, y, 0.0), x)


def libm(fn, *args):
    """A `math` function elementwise over float arrays of one length, a
    float argument standing for an array of that float.

    numpy's own arctan2, hypot, arcsin and arccos round differently from
    `math`'s on some arguments (on x86-64 with numpy 2.4, about 8% of
    random ones, by an ulp), so `ARRAYS` takes these four from `math`.
    """
    n = next(len(a) for a in args if isinstance(a, np.ndarray))
    return np.fromiter(map(fn, *(a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a)
                                 for a in args)), float, n)


def clamped_acos(x):
    """acos of x clamped to [-1, 1]."""
    return math.acos(1.0 if x > 1.0 else (-1.0 if x < -1.0 else x))


# the functions of the closed-form kernels on floats and on arrays, as
# module objects, whose attribute reads cost what a read of `math.cos` does
FLOATS, ARRAYS = ModuleType("FLOATS"), ModuleType("ARRAYS")
FLOATS.__dict__.update(cos=math.cos, sin=math.sin, sqrt=math.sqrt, atan2=math.atan2,
                       hypot=math.hypot, asin=math.asin, acos=clamped_acos, wrap=wrap_angle,
                       minimum=min, where=lambda c, a, b: a if c else b)
ARRAYS.__dict__.update(cos=np.cos, sin=np.sin, sqrt=np.sqrt, wrap=wrap_angles, minimum=np.minimum,
                       where=np.where, acos=lambda x: libm(math.acos, np.clip(x, -1.0, 1.0)),
                       **{f: partial(libm, getattr(math, f)) for f in ("atan2", "hypot", "asin")})


def walk_each(space, p, angles, lengths, ends, events, where):
    """Write `_walk(p, angles[j], lengths[j])` (lists of floats) into ends[j]
    and events[j] for each index j of where; `REFUSED` and p where it raises."""
    for j in where:
        try:
            w = space._walk(p, angles[j], lengths[j])
        except SpaceError:
            ends[j], events[j] = p, REFUSED
            continue
        ends[j], events[j] = w.end, w.event


def point_array(points):
    """The two coordinates of each of a list of points, as an (n, 2) float array.

    A flat iterator fills it 2.5 times as fast as `np.asarray` reads a
    list of 128 tuples.
    """
    return np.fromiter(itertools.chain.from_iterable(points), float,
                       2 * len(points)).reshape(-1, 2)


def planar_ends(xs, ys):
    """The points (x, y) of two float arrays, as a list of tuples of floats."""
    return list(zip(xs.tolist(), ys.tolist()))


def minimizing_angles(cands):
    """Sorted distinct angles of the (length, angle) candidates within 1e-9 of the shortest."""
    best = min(d for d, _ in cands)
    dirs = sorted(ang for d, ang in cands if d <= best + 1e-9)
    out = [dirs[0]]
    for a in dirs[1:]:
        if abs(a - out[-1]) > 1e-12:
            out.append(a)
    return out


def azimuth_gap(m, a, b, period):
    """Angle between azimuths a and b, at most period / 2, on floats (m =
    `FLOATS`) or arrays (m = `ARRAYS`); a and b swapped give the same bits."""
    d = abs(a - b)
    return m.minimum(d, period - d)


def azimuth_wraps(a, b, period):
    """The counterclockwise and the clockwise turn from azimuth a to azimuth b."""
    d = wrap_angle(b - a, period)
    return d, period - d


def angle_of(vx: float, vy: float) -> float:
    return wrap_angle(math.atan2(vy, vx), TWO_PI)
