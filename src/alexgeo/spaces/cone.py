"""Euclidean cone over a circle of length theta <= 2*pi.

Points are (r, phi) with r >= 0 and phi taken modulo the total angle.
The apex r = 0 is a cone point when theta < 2*pi.  Direction charts:
at a regular point the circle of length 2*pi with 0 pointing radially
away from the apex and angles increasing with phi; at the apex the
circle of length theta coordinatized by phi itself.
"""
from __future__ import annotations

import math

import numpy as np

from .base import (ARRAYS, CIRCLE, FLOATS, SigmaDesc, Space, SpaceError, WalkResult, angle_of,
                   azimuth_gap, azimuth_wraps, minimizing_angles, planar_ends, point_array,
                   walk_each, walk_length, wrap_angle, wrap_angles)

TWO_PI = 2.0 * math.pi
_APEX_EPS = 1e-12


def _chord(m, r, phi, q, theta):
    """The distance from (r, phi) to q, both off the apex, on floats (m =
    `FLOATS`) or arrays of r and phi (m = `ARRAYS`): the law of cosines in
    a form that does not cancel at short range."""
    a = azimuth_gap(m, phi, q[1], theta)  # <= theta/2 <= pi: theta <= 2*pi
    return m.hypot(r - q[0], 2.0 * m.sqrt(r * q[0]) * m.sin(0.5 * a))


def _ray(m, r, phi, ang, length, theta):
    """The walk from (r, phi) off the apex at chart angle ang in [0, 2pi), on
    floats (m = `FLOATS`) or arrays of ang and length (m = `ARRAYS`): its
    end (ex, ey) in the plane unfolded about the start (r, 0), its polar
    angle atan2(ey, ex) there, the end's r and phi, and whether it runs
    into the apex (then its end means nothing)."""
    c, s = m.cos(ang), m.sin(ang)
    through = (abs(s) < 1e-14) & (c < 0.0) & (length >= r - _APEX_EPS)
    ex = r + length * c
    ey = length * s
    turn = m.atan2(ey, ex)
    return ex, ey, turn, m.hypot(ex, ey), m.wrap(phi + turn, theta), through


class ConeSpace(Space):
    variant = "cone"
    kappa = 0.0

    def __init__(self, total_angle: float):
        if not (0.0 < total_angle <= TWO_PI + 1e-12):
            raise SpaceError(f"cone total angle {total_angle} outside (0, 2*pi]")
        self.total_angle = min(float(total_angle), TWO_PI)
        self._apex_sigma = SigmaDesc(self.total_angle)

    def describe(self):
        return {"type": "cone", "total_angle": self.total_angle}

    # -- points -------------------------------------------------------
    def validate_point(self, p):
        r, phi = p
        if r < 0.0 or not math.isfinite(r) or not math.isfinite(phi):
            raise SpaceError(f"invalid cone point {p!r}")
        return (float(r), wrap_angle(float(phi), self.total_angle))

    def is_apex(self, p) -> bool:
        return p[0] <= _APEX_EPS

    def random_point(self, rng):
        """Uniform in the disc of radius 2 about the apex."""
        return (2.0 * math.sqrt(rng.random()), rng.random() * self.total_angle)

    # -- metric -------------------------------------------------------
    def distance(self, p, q) -> float:
        return self._distance(self.validate_point(p), self.validate_point(q))

    def _distance(self, p, q) -> float:
        if p[0] <= _APEX_EPS or q[0] <= _APEX_EPS:
            return p[0] + q[0]
        return _chord(FLOATS, p[0], p[1], q, self.total_angle)

    def _distances(self, points, q):
        P = point_array(points)
        r = P[:, 0]
        if q[0] <= _APEX_EPS:
            return r + q[0]
        return np.where(r <= _APEX_EPS, r + q[0], _chord(ARRAYS, r, P[:, 1], q, self.total_angle))

    def sigma_at(self, p) -> SigmaDesc:
        if self.is_apex(p):
            return self._apex_sigma
        return CIRCLE

    def directions_to(self, p, q):
        return self._directions_to(self.validate_point(p), self.validate_point(q))

    def _directions_to(self, p, q):
        """Angles in the sigma chart of p of every minimizing direction to q."""
        if self.is_apex(p):
            return [q[1]]
        if self.is_apex(q):
            return [math.pi]
        ccw, cw = azimuth_wraps(p[1], q[1], self.total_angle)
        cands = []
        # at least one wrap is <= theta/2 <= pi: theta is clamped to 2*pi
        for a, sign in ((ccw, 1.0), (cw, -1.0)):
            if a <= math.pi:
                ex = q[0] * math.cos(a) - p[0]
                ey = sign * q[0] * math.sin(a)
                cands.append((math.hypot(ex, ey), angle_of(ex, ey)))
        return minimizing_angles(cands)

    def walk(self, p, angle, length) -> WalkResult:
        return self._walk(self.validate_point(p), angle, walk_length(length))

    def _walk(self, p, angle, length) -> WalkResult:
        if self.is_apex(p):
            end = (length, self._apex_sigma.wrap(angle))
            return WalkResult(end, length, math.pi, CIRCLE)
        ex, ey, turn, r, phi, through = _ray(FLOATS, p[0], p[1], wrap_angle(angle, TWO_PI),
                                             length, self.total_angle)
        if through:
            return WalkResult((0.0, 0.0), p[0], p[1], self._apex_sigma,
                              event="vertex", event_ref="apex")
        back = angle_of(p[0] - ex, -ey) - wrap_angle(turn, TWO_PI)
        return WalkResult((r, phi), length, wrap_angle(back, TWO_PI), CIRCLE)

    def _walks(self, p, angles, lengths):
        """`_walk` on arrays; a start at the apex or a walk through it goes to `_walk`."""
        if self.is_apex(p):
            return super()._walks(p, angles, lengths)
        angles = np.asarray(angles, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        _, _, _, r, phi, through = _ray(ARRAYS, p[0], p[1], wrap_angles(angles, TWO_PI),
                                        lengths, self.total_angle)
        ends = planar_ends(r, phi)
        events = [None] * len(ends)
        walk_each(self, p, angles.tolist(), lengths.tolist(), ends, events,
                  np.flatnonzero(through).tolist())
        return ends, events

    def geodesic_points(self, p, q, n: int = 33):
        p, q = self.validate_point(p), self.validate_point(q)
        if self.is_apex(p) or self.is_apex(q):
            pts = []
            for i in range(n):
                s = i / (n - 1)
                d = s * (p[0] + q[0])
                if d <= p[0]:
                    pts.append((p[0] - d, p[1]))
                else:
                    pts.append((d - p[0], q[1]))
            return pts
        ccw, cw = azimuth_wraps(p[1], q[1], self.total_angle)
        # the smaller wrap is at most theta/2 <= pi: theta is clamped to 2*pi
        a, sign = (ccw, 1.0) if ccw <= cw else (cw, -1.0)
        ax, ay = p[0], 0.0
        bx, by = q[0] * math.cos(a), sign * q[0] * math.sin(a)
        pts = []
        for i in range(n):
            s = i / (n - 1)
            x, y = ax + s * (bx - ax), ay + s * (by - ay)
            pts.append(
                (math.hypot(x, y), wrap_angle(p[1] + math.atan2(y, x), self.total_angle))
            )
        return pts

    def cone_points(self):
        if self.total_angle < TWO_PI - 1e-12:
            return [((0.0, 0.0), self.total_angle)]
        return []
