"""Unit-curvature surfaces of revolution: spindles and spherical caps.

A spindle is the spherical suspension over a circle of length theta,
coordinatized by (r, phi) with r in [0, pi] the distance from the north
apex and phi modulo theta.  A cap is the subset r <= r0 <= pi/2 of the
round sphere (theta = 2*pi) with the circle r = r0 as boundary.

Direction charts at a regular point: 0 points away from the north apex
and angles increase toward increasing phi.  Apex charts use phi itself.
Boundary points of the cap carry an arc of length pi with 0 along the
boundary toward increasing phi and pi/2 pointing inward.
"""
from __future__ import annotations

import math

from .base import (SigmaDesc, Space, SpaceError, WalkResult, azimuth_gap, minimizing_angles,
                   wrap_angle)

TWO_PI = 2.0 * math.pi
_POLE_EPS = 1e-12


def _clamp1(x):
    return 1.0 if x > 1.0 else (-1.0 if x < -1.0 else x)


class _SphereBase(Space):
    """Common trig for (r, phi) points on a unit-curvature suspension."""

    wrap_length = TWO_PI  # azimuth period

    def _loc(self, r1, r2, a):
        """Haversine distance with azimuth separation a (capped at pi).

        Unlike the spherical law of cosines it keeps its relative
        accuracy at short range.
        """
        s = math.sin(0.5 * (r1 - r2))
        t = math.sin(0.5 * min(a, math.pi))
        h = s * s + math.sin(r1) * math.sin(r2) * t * t
        return 2.0 * math.asin(math.sqrt(h)) if h < 1.0 else math.pi

    def _distance(self, p, q):
        return self._loc(p[0], q[0], azimuth_gap(p[1], q[1], self.wrap_length))

    def _azimuth_sep(self, p, q):
        d = wrap_angle(q[1] - p[1], self.wrap_length)
        return d, self.wrap_length - d

    def _step(self, r, psi, s):
        """Dead-reckon one geodesic sub-step; returns (r', dphi, psi_in').

        psi is the chart angle of the motion (0 away from the north
        apex); psi_in' is the chart angle at the endpoint of the
        continued motion direction.
        """
        cr, sr = math.cos(r), math.sin(r)
        # local frame at (r, 0): point P, e_r away from pole, e_phi
        px, pz = sr, cr
        ex, ez = cr, -sr
        ux = math.cos(psi) * ex
        uy = math.sin(psi)
        uz = math.cos(psi) * ez
        cs, ss = math.cos(s), math.sin(s)
        x = cs * px + ss * ux
        y = ss * uy
        z = cs * pz + ss * uz
        r2 = math.acos(_clamp1(z))
        dphi = math.atan2(y, x)
        # transported direction = derivative of the arc at s
        dx = -ss * px + cs * ux
        dy = cs * uy
        dz = -ss * pz + cs * uz
        sr2 = math.sin(r2)
        if sr2 < _POLE_EPS:
            return r2, dphi, None
        # frame at endpoint (colatitude r2, azimuth dphi)
        e2r = (math.cos(r2) * math.cos(dphi), math.cos(r2) * math.sin(dphi), -sr2)
        e2p = (-math.sin(dphi), math.cos(dphi), 0.0)
        comp_r = dx * e2r[0] + dy * e2r[1] + dz * e2r[2]
        comp_p = dx * e2p[0] + dy * e2p[1] + dz * e2p[2]
        psi2 = math.atan2(comp_p, comp_r)
        return r2, dphi, wrap_angle(psi2, TWO_PI)

    def _walk_sphere(self, p, angle, length, max_sub=0.5):
        """Walk with winding-aware azimuth accumulation; pole hits are events."""
        r, phi = p
        psi = wrap_angle(angle, TWO_PI)
        if r <= _POLE_EPS or math.pi - r <= _POLE_EPS:
            # start at an apex: angle is an azimuth, walk down the meridian
            return self._meridian_from_apex(angle, length, r <= _POLE_EPS, p)
        if abs(math.sin(psi)) < 1e-13:
            # meridian walk: may hit an apex
            toward_north = math.cos(psi) < 0.0
            dist_to_pole = r if toward_north else math.pi - r
            if length >= dist_to_pole - _POLE_EPS:
                pole_r = 0.0 if toward_north else math.pi
                back = phi
                return WalkResult(
                    (pole_r, phi), dist_to_pole, wrap_angle(back, self.wrap_length),
                    SigmaDesc(self.wrap_length), event="vertex",
                    event_ref="north" if toward_north else "south",
                )
        traveled = 0.0
        while traveled < length - 1e-15:
            s = min(max_sub, length - traveled)
            r2, dphi, psi2 = self._step(r, psi, s)
            if psi2 is None:
                # numerically landed on a pole
                back = phi
                return WalkResult(
                    (r2 if r2 < 1.0 else math.pi, phi), traveled + s,
                    wrap_angle(back, self.wrap_length), SigmaDesc(self.wrap_length),
                    event="vertex", event_ref="north" if r2 < 1.0 else "south",
                )
            r, phi, psi = r2, wrap_angle(phi + dphi, self.wrap_length), psi2
            traveled += s
        back = wrap_angle(psi + math.pi, TWO_PI)
        return WalkResult((r, phi), length, back, SigmaDesc(TWO_PI))

    def _meridian_from_apex(self, azimuth, length, from_north, p):
        az = wrap_angle(azimuth, self.wrap_length)
        if from_north:
            end = (min(length, math.pi), az)
            back = math.pi  # points back toward the north apex
        else:
            end = (max(math.pi - length, 0.0), az)
            back = 0.0
        if length >= math.pi - _POLE_EPS:
            return WalkResult(
                end, math.pi, az, SigmaDesc(self.wrap_length), event="vertex",
                event_ref="south" if from_north else "north",
            )
        return WalkResult(end, length, back, SigmaDesc(TWO_PI))

    def _dirs_regular(self, p, q):
        """Chart angles at regular p of minimizing directions to regular q."""
        ccw, cw = self._azimuth_sep(p, q)
        cands = []
        for a, sign in ((ccw, 1.0), (cw, -1.0)):
            if a <= math.pi + 1e-15:
                d = self._loc(p[0], q[0], a)
                if d < 1e-14 or d > math.pi - 1e-14:
                    cands.append((d, 0.0))
                    continue
                cosA = (math.cos(q[0]) - math.cos(p[0]) * math.cos(d)) / (
                    math.sin(p[0]) * math.sin(d)
                )
                A = math.acos(_clamp1(cosA))
                psi = math.pi - A if sign > 0 else math.pi + A
                cands.append((d, wrap_angle(psi, TWO_PI)))
        return minimizing_angles(cands)


class SpindleSpace(_SphereBase):
    variant = "spindle"
    kappa = 1.0

    def __init__(self, circle_length: float):
        if not (0.0 < circle_length <= TWO_PI + 1e-12):
            raise SpaceError(f"spindle circle length {circle_length} outside (0, 2*pi]")
        self.circle_length = min(float(circle_length), TWO_PI)
        self.wrap_length = self.circle_length

    def describe(self):
        return {"type": "spindle", "circle_length": self.circle_length}

    def validate_point(self, p):
        r, phi = p
        if not (0.0 <= r <= math.pi) or not math.isfinite(phi):
            raise SpaceError(f"invalid spindle point {p!r}")
        return (float(r), wrap_angle(float(phi), self.circle_length))

    def is_apex(self, p):
        return p[0] <= _POLE_EPS or math.pi - p[0] <= _POLE_EPS

    def random_point(self, rng):
        # area measure sin(r) dr dphi
        return (math.acos(1.0 - 2.0 * rng.random()), rng.random() * self.circle_length)

    def diameter_hint(self):
        return math.pi

    def distance(self, p, q):
        return self._distance(self.validate_point(p), self.validate_point(q))

    def sigma_at(self, p):
        if self.is_apex(p):
            return SigmaDesc(self.circle_length)
        return SigmaDesc(TWO_PI)

    def directions_to(self, p, q):
        p, q = self.validate_point(p), self.validate_point(q)
        if self.is_apex(p):
            if p[0] <= _POLE_EPS:
                return [q[1]] if not self.is_apex(q) else [0.0]
            return [q[1]]
        if self.is_apex(q):
            return [math.pi] if q[0] <= _POLE_EPS else [0.0]
        return self._dirs_regular(p, q)

    def walk(self, p, angle, length):
        p = self.validate_point(p)
        if length < 0.0:
            raise SpaceError("negative walk length")
        return self._walk_sphere(p, angle, length)

    def geodesic_points(self, p, q, n: int = 33):
        p, q = self.validate_point(p), self.validate_point(q)
        d = self._distance(p, q)
        if d < 1e-14:
            return [p] * n
        dirs = self.directions_to(p, q)
        pts = [p]
        for i in range(1, n):
            pts.append(self._walk_sphere(p, dirs[0], d * i / (n - 1)).end)
        return pts

    def cone_points(self):
        if self.circle_length < TWO_PI - 1e-12:
            return [((0.0, 0.0), self.circle_length), ((math.pi, 0.0), self.circle_length)]
        return []


class CapSpace(_SphereBase):
    variant = "cap"
    kappa = 1.0
    has_boundary = True
    supports_tracing = False
    boundary_period = TWO_PI  # azimuth range of boundary_point, not boundary_length()

    def __init__(self, radius: float):
        if not (0.0 < radius <= math.pi / 2 + 1e-12):
            raise SpaceError(f"cap radius {radius} outside (0, pi/2]")
        self.radius = min(float(radius), math.pi / 2)

    def describe(self):
        return {"type": "cap", "radius": self.radius}

    def validate_point(self, p):
        r, phi = p
        if not (0.0 <= r <= self.radius + 1e-9) or not math.isfinite(phi):
            raise SpaceError(f"invalid cap point {p!r}")
        return (min(float(r), self.radius), wrap_angle(float(phi), TWO_PI))

    def on_boundary(self, p, tol=1e-9):
        return self.radius - p[0] <= tol

    def boundary_length(self):
        return TWO_PI * math.sin(self.radius)

    def boundary_dist(self, p):
        return self.radius - p[0]

    def boundary_tails(self, p):
        """As in `PolygonSpace`: r0 - r falls as the distance to the pole grows.

        At the pole itself the rate is the constant -1 (sources None).
        """
        if p[0] <= _POLE_EPS:
            return [(-1.0, None)]
        return [(-1.0, self.directions_to(p, (0.0, 0.0)))]

    def boundary_point(self, s):
        """Boundary point at azimuth s (not wrapped; s is not an arclength)."""
        return (self.radius, s)

    def random_point(self, rng):
        u = rng.random()
        r = math.acos(1.0 - u * (1.0 - math.cos(self.radius)))
        return (r, rng.random() * TWO_PI)

    def random_point_near(self, p, radius, rng):
        for _ in range(64):
            w = self.walk(p, rng.random() * self.sigma_at(p).length,
                          radius * math.sqrt(rng.random()))
            if w.event is None:
                return w.end
        return w.end

    def diameter_hint(self):
        return 2.0 * self.radius

    def distance(self, p, q):
        return self._distance(self.validate_point(p), self.validate_point(q))

    def sigma_at(self, p):
        if self.on_boundary(p):
            return SigmaDesc(math.pi, is_arc=True)
        return SigmaDesc(TWO_PI)

    def _interior_chart_to_arc(self, p, psi):
        """Convert the regular chart angle at a boundary point to arc coords."""
        # regular chart: 0 away from pole (= outward), pi/2 toward +phi
        # arc chart: 0 along +phi boundary direction, pi/2 inward (= toward pole)
        return wrap_angle(psi - math.pi / 2.0, TWO_PI)

    def directions_to(self, p, q):
        p, q = self.validate_point(p), self.validate_point(q)
        if p[0] <= _POLE_EPS:
            return [q[1]]
        if q[0] <= _POLE_EPS:
            dirs = [math.pi]
        else:
            dirs = self._dirs_regular(p, q)
        if self.on_boundary(p):
            out = []
            for d in dirs:
                z = self._interior_chart_to_arc(p, d)
                if z > math.pi + 1e-9:  # outward; cannot happen for cap points
                    continue
                out.append(min(z, math.pi))
            return sorted(out)
        return dirs

    def walk(self, p, angle, length):
        p = self.validate_point(p)
        if length < 0.0:
            raise SpaceError("negative walk length")
        if self.on_boundary(p):
            z = angle
            sig = SigmaDesc(math.pi, is_arc=True)
            if not sig.valid(z):
                raise SpaceError(f"direction {z} outside the boundary arc")
            if z <= 1e-12 or math.pi - z <= 1e-12:
                return self._walk_along_boundary(p, z, length)
            psi = wrap_angle(z + math.pi / 2.0, TWO_PI)  # the regular chart angle of z
        elif p[0] <= _POLE_EPS:
            return self._cap_clip(self._meridian_from_apex(angle, length, True, p))
        else:
            psi = angle
        return self._cap_clip_walk(p, psi, length)

    def _walk_along_boundary(self, p, zeta, length):
        sgn = 1.0 if zeta <= 1e-12 else -1.0
        dphi = sgn * length / math.sin(self.radius)
        end = (self.radius, wrap_angle(p[1] + dphi, TWO_PI))
        back = math.pi if sgn > 0 else 0.0
        return WalkResult(end, length, back, SigmaDesc(math.pi, is_arc=True))

    def _cap_clip_walk(self, p, psi, length):
        # crossing colatitude r0: z(s) = cos(r)cos(s) - sin(r)cos(psi)sin(s)
        cr, sr = math.cos(p[0]), math.sin(p[0])
        uz = -sr * math.cos(psi)
        R = math.hypot(cr, uz)
        target = math.cos(self.radius)
        s_hit = None
        if R >= target - 1e-15:
            delta = math.atan2(uz, cr)
            base = math.acos(_clamp1(target / R))
            for cand in (delta + base, delta - base):
                c = cand
                while c <= 1e-12:
                    c += TWO_PI
                if c <= length + 1e-15:
                    s_hit = c if s_hit is None else min(s_hit, c)
        if s_hit is None or s_hit > length + 1e-12:
            return self._cap_clip(self._walk_sphere(p, psi, length))
        w = self._walk_sphere(p, psi, s_hit)
        end = (self.radius, w.end[1])
        # arrival direction at the boundary in arc coordinates
        back_reg = w.back_angle
        zeta = self._interior_chart_to_arc(end, wrap_angle(back_reg, TWO_PI))
        zeta = min(max(zeta, 0.0), math.pi)
        return WalkResult(end, s_hit, zeta, SigmaDesc(math.pi, is_arc=True),
                          event="boundary")

    def _cap_clip(self, w):
        r = min(w.end[0], self.radius)
        w.end = (r, w.end[1])
        return w

    def geodesic_points(self, p, q, n: int = 33):
        p, q = self.validate_point(p), self.validate_point(q)
        d = self._distance(p, q)
        if d < 1e-14:
            return [p] * n
        if p[0] <= _POLE_EPS:
            return [(min(d * i / (n - 1), self.radius), q[1]) for i in range(n)]
        dirs = self._dirs_regular(p, q)
        pts = [p]
        for i in range(1, n):
            w = self._walk_sphere(p, dirs[0], d * i / (n - 1))
            pts.append((min(w.end[0], self.radius), w.end[1]))
        return pts

    def cone_points(self):
        return []
