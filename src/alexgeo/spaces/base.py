"""Shared structures for the concrete space implementations.

Every space (cone, spindle, cap, polygon, mesh and the doubles) answers
the same queries, so callers need not ask which variant they hold:

- `validate_point(p)`, `random_point(rng)`, `random_point_near(p, r, rng)`;
- `distance(p, q)`, `distance_with_error(p, q)` and
  `distances_from(p, targets)`, the last two as `(d, certified error)`
  pairs (the error is 0 on every space: the closed forms and the mesh
  search are exact);
- `sigma_at(p)`, `directions_to(p, q)`, `walk(p, angle, length)` and
  `geodesic_points(p, q, n)`;
- `pos2(p)`, a planar position for plots and flat charts;
- `cone_points()`, the interior cone points with their total angles.

Spaces with a boundary parametrization (polygon and cap) add
`boundary_dist(p)`, `boundary_point(s)` and `boundary_period`, the range
of the parameter s.

Validation contract: the public metric queries `distance`,
`distance_with_error`, `distances_from`, `directions_to`, `walk` and
`geodesic_points` validate each point argument once, with
`validate_point`, and raise `SpaceError` for a point outside the space.
`_distance(p, q)`, the kernel behind `distance`, and the other
underscore kernels take points that `validate_point` returned and check
nothing, so a caller that measures from one point many times validates
it once.  The end point of a walk is a point of the space by
construction.  The point helpers (`sigma_at`, `pos2`, `boundary_dist`
and the like) read their point as given.  The mesh kernels still
validate their points again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


class SpaceError(ValueError):
    """Malformed space description or invalid point."""


class ExactMetric:
    """One-to-one and one-to-many queries of a space with a closed-form metric."""

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
        a = math.fmod(angle, self.length)
        return a + self.length if a < 0.0 else a

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
    x = math.fmod(a, period)
    return x + period if x < 0.0 else x


def azimuth_gap(a: float, b: float, period: float) -> float:
    """Angle between two azimuths in [0, period], at most period / 2.

    Computed from |a - b|, so swapping a and b gives the same bits.
    """
    d = abs(a - b)
    return min(d, period - d)


def angle_of(vx: float, vy: float) -> float:
    return wrap_angle(math.atan2(vy, vx), TWO_PI)
