"""Euclidean cone over a circle of length theta <= 2*pi.

Points are (r, phi) with r >= 0 and phi taken modulo the total angle.
The apex r = 0 is a cone point when theta < 2*pi.  Direction charts:
at a regular point the circle of length 2*pi with 0 pointing radially
away from the apex and angles increasing with phi; at the apex the
circle of length theta coordinatized by phi itself.
"""
from __future__ import annotations

import math

from .base import (SigmaDesc, Space, SpaceError, WalkResult, angle_of, azimuth_gap,
                   minimizing_angles, wrap_angle)

TWO_PI = 2.0 * math.pi
_APEX_EPS = 1e-12


class ConeSpace(Space):
    variant = "cone"
    kappa = 0.0

    def __init__(self, total_angle: float):
        if not (0.0 < total_angle <= TWO_PI + 1e-12):
            raise SpaceError(f"cone total angle {total_angle} outside (0, 2*pi]")
        self.total_angle = min(float(total_angle), TWO_PI)

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

    def random_point(self, rng, rmax: float = 2.0):
        return (rmax * math.sqrt(rng.random()), rng.random() * self.total_angle)

    def diameter_hint(self) -> float:
        return 4.0

    # -- metric -------------------------------------------------------
    def _wraps(self, p, q):
        d = wrap_angle(q[1] - p[1], self.total_angle)
        return d, self.total_angle - d

    def distance(self, p, q) -> float:
        return self._distance(self.validate_point(p), self.validate_point(q))

    def _distance(self, p, q) -> float:
        if p[0] <= _APEX_EPS or q[0] <= _APEX_EPS:
            return p[0] + q[0]
        a = azimuth_gap(p[1], q[1], self.total_angle)  # <= theta/2 <= pi: theta <= 2*pi
        # the law of cosines in a form that does not cancel at short range
        return math.hypot(p[0] - q[0], 2.0 * math.sqrt(p[0] * q[0]) * math.sin(0.5 * a))

    def sigma_at(self, p) -> SigmaDesc:
        if self.is_apex(p):
            return SigmaDesc(self.total_angle)
        return SigmaDesc(TWO_PI)

    def directions_to(self, p, q):
        """Angles in the sigma chart of p of every minimizing direction to q."""
        p, q = self.validate_point(p), self.validate_point(q)
        if self.is_apex(p):
            return [q[1]]
        if self.is_apex(q):
            return [math.pi]
        ccw, cw = self._wraps(p, q)
        cands = []
        # at least one wrap is <= theta/2 <= pi: theta is clamped to 2*pi
        for a, sign in ((ccw, 1.0), (cw, -1.0)):
            if a <= math.pi:
                ex = q[0] * math.cos(a) - p[0]
                ey = sign * q[0] * math.sin(a)
                cands.append((math.hypot(ex, ey), angle_of(ex, ey)))
        return minimizing_angles(cands)

    def walk(self, p, angle, length) -> WalkResult:
        p = self.validate_point(p)
        sig = self.sigma_at(p)
        if length < 0.0:
            raise SpaceError("negative walk length")
        if self.is_apex(p):
            end = (length, sig.wrap(angle))
            return WalkResult(end, length, math.pi, SigmaDesc(TWO_PI))
        ang = wrap_angle(angle, TWO_PI)
        # straight line through the apex
        if abs(math.sin(ang)) < 1e-14 and math.cos(ang) < 0.0 and length >= p[0] - _APEX_EPS:
            apex = (0.0, 0.0)
            return WalkResult(
                apex, p[0], p[1], SigmaDesc(self.total_angle),
                event="vertex", event_ref="apex",
            )
        ex = p[0] + length * math.cos(ang)
        ey = length * math.sin(ang)
        r = math.hypot(ex, ey)
        dphi = math.atan2(ey, ex)
        end = (r, wrap_angle(p[1] + dphi, self.total_angle))
        back = angle_of(p[0] - ex, -ey) - angle_of(ex, ey)
        return WalkResult(end, length, wrap_angle(back, TWO_PI), SigmaDesc(TWO_PI))

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
        ccw, cw = self._wraps(p, q)
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
