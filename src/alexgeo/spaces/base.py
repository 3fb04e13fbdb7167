"""Shared structures for the concrete space implementations.

Every space (cone, spindle, cap, polygon, mesh and the doubles) derives
from `Space` and answers the same queries, so callers need not ask which
variant they hold:

- `validate_point(p)`, `random_point(rng)`, `random_point_near(p, r, rng)`;
- `parse_point(text)` and `format_point(p)`: 'r,phi' on cone, spindle and
  cap, 'x,y' on the polygon, 'F<face>:<b0>,<b1>' on a mesh;
- `distance(p, q)`, `distance_with_error(p, q)` and
  `distances_from(p, targets)`, the last two as `(d, certified error)`
  pairs (the error is 0 on every space: every metric is exact);
- `sigma_at(p)`, `directions_to(p, q)`, `walk(p, angle, length)` and
  `geodesic_points(p, q, n)`;
- `pos2(p)`, a planar position for plots and flat charts;
- `cone_points()`, the interior cone points with their total angles, and
  `corners()`, the polygon's corners with their angles (else empty);
- `boundary_dist(p)` on polygon, cap and their doubles (pulled back by
  the projection), else None; `boundary_tails(p)`, its differential as
  cos-tails, on polygon and cap, else None;
- `boundary_period`, the range of s in `boundary_point(s)` on polygon
  and cap, else None;
- `supports_tracing`, false only on the cap.

Validation contract: the public metric queries `distance`,
`distance_with_error`, `distances_from`, `directions_to`, `walk` and
`geodesic_points` (and on a mesh `point_vertex_dists` and
`graph_upper_bound`) validate each point argument once, with
`validate_point`, and raise `SpaceError` for a point outside the space.
`_distance(p, q)`, the kernel behind `distance`, and the other
underscore kernels take points that `validate_point` returned and check
nothing, so a caller that measures from one point many times validates
it once.  The end point of a walk is a point of the space by
construction.  The point helpers (`sigma_at`, `pos2`, `boundary_dist`,
the mesh's `classify` and `vertex_of_point` and the like) read their
point as given.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


class SpaceError(ValueError):
    """Malformed space description or invalid point."""


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
    supports_tracing = True

    def corners(self):
        return []

    def pos2(self, p):
        """Planar position (r cos phi, r sin phi), with phi as given."""
        r, phi = p
        return (r * math.cos(phi), r * math.sin(phi))

    def random_point_near(self, p, radius, rng):
        w = self.walk(p, rng.random() * self.sigma_at(p).length,
                      radius * math.sqrt(rng.random()))
        return w.end

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

    def valid(self, angle: float, tol: float = 1e-9) -> bool:
        if self.is_arc:
            return -tol <= angle <= self.length + tol
        return True

    def forward_of_back(self, back: float) -> float:
        """Direction continuing the incoming motion whose back angle is given.

        On a circle this is the antipode; on a boundary arc it is the
        mirrored coordinate, which continues boundary slides.
        """
        if self.is_arc:
            return min(max(self.length - back, 0.0), self.length)
        return self.wrap(back + math.pi)


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


def minimizing_angles(cands):
    """Sorted distinct angles of the (length, angle) candidates within 1e-9 of the shortest."""
    best = min(d for d, _ in cands)
    dirs = sorted(ang for d, ang in cands if d <= best + 1e-9)
    out = [dirs[0]]
    for a in dirs[1:]:
        if abs(a - out[-1]) > 1e-12:
            out.append(a)
    return out


def azimuth_gap(a: float, b: float, period: float) -> float:
    """Angle between two azimuths in [0, period], at most period / 2.

    Computed from |a - b|, so swapping a and b gives the same bits.
    """
    d = abs(a - b)
    return min(d, period - d)


def angle_of(vx: float, vy: float) -> float:
    return wrap_angle(math.atan2(vy, vx), TWO_PI)
