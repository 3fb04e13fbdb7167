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

import numpy as np

from .base import (ARRAYS, CIRCLE, FLOATS, HALF_ARC, SigmaDesc, Space, SpaceError, WalkResult,
                   azimuth_gap, azimuth_wraps, minimizing_angles, planar_ends, point_array,
                   walk_each, walk_length, wrap_angle, wrap_angles)

TWO_PI = 2.0 * math.pi
_POLE_EPS = 1e-12
# Colatitude is 1-Lipschitz along a unit-speed geodesic, so a cap walk shorter
# than r0 - r cannot meet the boundary.  A walk shorter than r0 - r - _REACH
# skips the crossing solve, whose worst rounding (acos near 1 on a grazing
# ray) is about 1.5e-8; the solve would find no crossing within its length.
_REACH = 1e-7


class _SphereBase(Space):
    """Common trig for (r, phi) points on a unit-curvature suspension."""

    wrap_length = TWO_PI  # azimuth period
    _pole_sigma = CIRCLE  # the direction space at a pole: the azimuth circle

    @staticmethod
    def _loc(m, r1, r2, a):
        """Haversine distance with azimuth separation a (capped at pi), on
        floats (m = `FLOATS`) or arrays (m = `ARRAYS`).

        d = 2 atan2(sqrt(h), sqrt(1 - h)), with h = sin^2((r1 - r2) / 2) +
        sin r1 sin r2 sin^2(a / 2) and 1 - h read as the sum cos^2((r1 +
        r2) / 2) + sin r1 sin r2 cos^2(a / 2).  Both sums are of terms >= 0,
        so neither cancels: the distance keeps its relative accuracy at
        short range, unlike the spherical law of cosines, and near
        antipodes, unlike 2 asin(sqrt(h)), whose h rounds to 1 - 2^-53
        there and leaves it 3e-8 short of pi.
        """
        half = 0.5 * m.minimum(a, math.pi)
        s, c = m.sin(0.5 * (r1 - r2)), m.cos(0.5 * (r1 + r2))
        t, u, w = m.sin(half), m.cos(half), m.sin(r1) * m.sin(r2)
        return 2.0 * m.atan2(m.sqrt(s * s + w * t * t), m.sqrt(c * c + w * u * u))

    def _distance(self, p, q):
        return self._loc(FLOATS, p[0], q[0], azimuth_gap(FLOATS, p[1], q[1], self.wrap_length))

    def _distances(self, points, q):
        P = point_array(points)
        return self._loc(ARRAYS, P[:, 0], q[0],
                         azimuth_gap(ARRAYS, P[:, 1], q[1], self.wrap_length))

    @staticmethod
    def _step(m, r, psi, s):
        """Dead-reckon one geodesic sub-step on floats (m = FLOATS) or arrays
        (m = ARRAYS); returns (r', dphi, psi_in', sin r').

        psi is the chart angle of the motion (0 away from the north apex);
        psi_in' is the chart angle at the endpoint of the continued motion
        direction, meaningless on a pole (sin r' < _POLE_EPS).
        """
        cr, sr = m.cos(r), m.sin(r)
        cp, sp = m.cos(psi), m.sin(psi)
        # the point (sr, 0, cr) and the motion cp * e_r + sp * e_phi, with
        # e_r = (cr, 0, -sr) away from the pole and e_phi = (0, 1, 0)
        ux, uz = cp * cr, cp * -sr
        cs, ss = m.cos(s), m.sin(s)
        x = cs * sr + ss * ux
        y = ss * sp
        z = cs * cr + ss * uz
        r2 = m.acos(z)
        dphi = m.atan2(y, x)
        # transported direction = derivative of the arc at s
        dx = -ss * sr + cs * ux
        dy = cs * sp
        dz = -ss * cr + cs * uz
        # its parts along the frame at the endpoint (colatitude r2, azimuth dphi)
        sr2, cr2 = m.sin(r2), m.cos(r2)
        sd, cd = m.sin(dphi), m.cos(dphi)
        comp_r = dx * (cr2 * cd) + dy * (cr2 * sd) + dz * -sr2
        comp_p = dx * -sd + dy * cd + dz * 0.0
        return r2, dphi, m.wrap(m.atan2(comp_p, comp_r), TWO_PI), sr2

    def _regular_walks(self, p, psi, lengths):
        """`_walk` from p off the poles at chart angles psi in [0, 2pi), on arrays.

        Returns the ends' r and phi and the mask of the walks that meet a
        pole, whose ends mean nothing.
        """
        n = len(psi)
        r, phi, psi = np.full(n, p[0]), np.full(n, p[1]), psi.copy()
        pole = ((np.abs(np.sin(psi)) < 1e-13)
                & (lengths >= np.where(np.cos(psi) < 0.0, p[0], math.pi - p[0]) - _POLE_EPS))
        traveled = np.zeros(n)
        active = ~pole & (traveled < lengths - 1e-15)
        while active.any():
            idx = np.flatnonzero(active)
            s = np.minimum(0.5, lengths[idx] - traveled[idx])  # substeps of at most 0.5
            r2, dphi, psi2, sr2 = self._step(ARRAYS, r[idx], psi[idx], s)
            landed = sr2 < _POLE_EPS
            pole[idx[landed]] = True
            active[idx[landed]] = False
            go, s = idx[~landed], s[~landed]
            r[go], psi[go] = r2[~landed], psi2[~landed]
            phi[go] = wrap_angles(phi[go] + dphi[~landed], self.wrap_length)
            traveled[go] += s
            active[go] = traveled[go] < lengths[go] - 1e-15
        return r, phi, pole

    def _walk(self, p, angle, length):
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
                    self._pole_sigma, event="vertex",
                    event_ref="north" if toward_north else "south",
                )
        traveled = 0.0
        while traveled < length - 1e-15:
            s = min(0.5, length - traveled)  # substeps of at most 0.5
            r2, dphi, psi2, sr2 = self._step(FLOATS, r, psi, s)
            if sr2 < _POLE_EPS:
                # numerically landed on a pole
                back = phi
                return WalkResult(
                    (r2 if r2 < 1.0 else math.pi, phi), traveled + s,
                    wrap_angle(back, self.wrap_length), self._pole_sigma,
                    event="vertex", event_ref="north" if r2 < 1.0 else "south",
                )
            r, phi, psi = r2, wrap_angle(phi + dphi, self.wrap_length), psi2
            traveled += s
        back = wrap_angle(psi + math.pi, TWO_PI)
        return WalkResult((r, phi), length, back, CIRCLE)

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
                end, math.pi, az, self._pole_sigma, event="vertex",
                event_ref="south" if from_north else "north",
            )
        return WalkResult(end, length, back, CIRCLE)

    def _dirs_regular(self, p, q):
        """Chart angles at regular p of minimizing directions to regular q."""
        ccw, cw = azimuth_wraps(p[1], q[1], self.wrap_length)
        cands = []
        for a, sign in ((ccw, 1.0), (cw, -1.0)):
            if a <= math.pi + 1e-15:
                d = self._loc(FLOATS, p[0], q[0], a)
                if d < 1e-14 or d > math.pi - 1e-14:
                    cands.append((d, 0.0))
                    continue
                # the bearing of q from north: exact on p's meridian, where
                # the law of cosines' acos loses half the digits
                A = math.atan2(math.sin(a) * math.sin(q[0]),
                               math.sin(p[0]) * math.cos(q[0])
                               - math.cos(p[0]) * math.sin(q[0]) * math.cos(a))
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
        self._pole_sigma = SigmaDesc(self.circle_length)

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

    def distance(self, p, q):
        return self._distance(self.validate_point(p), self.validate_point(q))

    def sigma_at(self, p):
        if self.is_apex(p):
            return self._pole_sigma
        return CIRCLE

    def directions_to(self, p, q):
        return self._directions_to(self.validate_point(p), self.validate_point(q))

    def _directions_to(self, p, q):
        if self.is_apex(p):
            if p[0] <= _POLE_EPS:
                return [q[1]] if not self.is_apex(q) else [0.0]
            return [q[1]]
        if self.is_apex(q):
            return [math.pi] if q[0] <= _POLE_EPS else [0.0]
        return self._dirs_regular(p, q)

    def walk(self, p, angle, length):
        return self._walk(self.validate_point(p), angle, walk_length(length))

    def geodesic_points(self, p, q, n: int = 33):
        p, q = self.validate_point(p), self.validate_point(q)
        d = self._distance(p, q)
        if d < 1e-14:
            return [p] * n
        dirs = self._directions_to(p, q)
        pts = [p]
        for i in range(1, n):
            pts.append(self._walk(p, dirs[0], d * i / (n - 1)).end)
        return pts

    def cone_points(self):
        if self.circle_length < TWO_PI - 1e-12:
            return [((0.0, 0.0), self.circle_length), ((math.pi, 0.0), self.circle_length)]
        return []


class CapSpace(_SphereBase):
    variant = "cap"
    kappa = 1.0
    has_boundary = True
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

    def on_boundary(self, p):
        return self.radius - p[0] <= 1e-9

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
        return [(-1.0, self._directions_to(p, (0.0, 0.0)))]

    def boundary_point(self, s):
        """Boundary point at azimuth s (not wrapped; s is not an arclength)."""
        return (self.radius, s)

    def random_point(self, rng):
        u = rng.random()
        r = math.acos(1.0 - u * (1.0 - math.cos(self.radius)))
        return (r, rng.random() * TWO_PI)

    def distance(self, p, q):
        return self._distance(self.validate_point(p), self.validate_point(q))

    def sigma_at(self, p):
        if self.on_boundary(p):
            return HALF_ARC
        return CIRCLE

    def _interior_chart_to_arc(self, p, psi):
        """Convert the regular chart angle at a boundary point to arc coords."""
        # regular chart: 0 away from pole (= outward), pi/2 toward +phi
        # arc chart: 0 along +phi boundary direction, pi/2 inward (= toward pole)
        return wrap_angle(psi - math.pi / 2.0, TWO_PI)

    def directions_to(self, p, q):
        return self._directions_to(self.validate_point(p), self.validate_point(q))

    def _directions_to(self, p, q):
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
        return self._walk(self.validate_point(p), angle, walk_length(length))

    def _walk(self, p, angle, length):
        if self.on_boundary(p):
            z = angle
            if not HALF_ARC.valid(z):
                raise SpaceError(f"direction {z} outside the boundary arc")
            if z <= 1e-12 or math.pi - z <= 1e-12:
                return self._walk_along_boundary(p, z, length)
            psi = wrap_angle(z + math.pi / 2.0, TWO_PI)  # the regular chart angle of z
        elif p[0] <= _POLE_EPS:
            # down the meridian of azimuth angle, stopped at the boundary as
            # `_cap_clip_walk` stops a walk from near the pole
            if self.radius <= length + 1e-12:
                return WalkResult((self.radius, wrap_angle(angle, TWO_PI)), self.radius,
                                  math.pi / 2.0, HALF_ARC, event="boundary")
            return self._meridian_from_apex(angle, length, True, p)
        else:
            psi = angle
        if abs(math.sin(psi)) < 1e-13 and math.cos(psi) < 0.0 and length > p[0] + _POLE_EPS:
            return self._through_pole(p, length)
        return self._cap_clip_walk(p, psi, length)

    def _through_pole(self, p, length):
        """The walk from p off the pole up its meridian, past the pole.  The
        pole is a regular point of the cap: the walk goes on down the
        opposite meridian."""
        w = self._walk((0.0, 0.0), p[1] + math.pi, length - p[0])
        w.traveled += p[0]
        return w

    def _walks(self, p, angles, lengths):
        """`_walk` on arrays: the regular walk and its boundary clip.  A start
        at the pole, a walk that meets a pole and one along or out of the
        boundary arc go to `_walk`.  As there, only a walk in reach of the
        boundary (`_REACH`) solves for its crossing, all of them in one
        `_crossing` on arrays, so a batch of short walks solves none."""
        if p[0] <= _POLE_EPS:
            return super()._walks(p, angles, lengths)
        angles = np.asarray(angles, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        n = len(angles)
        scalar, psi = np.zeros(n, dtype=bool), angles
        if self.on_boundary(p):
            scalar = ~((angles > 1e-12) & (math.pi - angles > 1e-12))
            psi = wrap_angles(angles + math.pi / 2.0, TWO_PI)
        s_hit = np.full(n, math.inf)
        reach = ~scalar & (lengths >= self.radius - p[0] - _REACH)
        if reach.any():
            s_hit[reach] = self._crossing(ARRAYS, p[0], psi[reach], lengths[reach])
        hit = s_hit <= lengths + 1e-12
        r, phi, pole = self._regular_walks(p, wrap_angles(psi, TWO_PI),
                                           np.where(hit, s_hit, np.where(scalar, 0.0, lengths)))
        ends = planar_ends(np.where(hit, self.radius, np.minimum(r, self.radius)), phi)
        events = ["boundary" if h else None for h in hit.tolist()]
        walk_each(self, p, angles.tolist(), lengths.tolist(), ends, events,
                  np.flatnonzero(scalar | pole).tolist())
        return ends, events

    def _walk_along_boundary(self, p, zeta, length):
        sgn = 1.0 if zeta <= 1e-12 else -1.0
        dphi = sgn * length / math.sin(self.radius)
        end = (self.radius, wrap_angle(p[1] + dphi, TWO_PI))
        back = math.pi if sgn > 0 else 0.0
        return WalkResult(end, length, back, HALF_ARC)

    def _crossing(self, m, r, psi, length):
        """The arclength at which the walk of the given length from colatitude
        r at chart angle psi first meets the boundary, or inf if it does not:
        the first root of z(s) = cos(r)cos(s) - sin(r)cos(psi)sin(s) = cos(r0)
        up to length.  m is `FLOATS`, or `ARRAYS` for arrays of psi and
        length."""
        cr, sr = math.cos(r), math.sin(r)
        uz = -sr * m.cos(psi)
        R = m.hypot(cr, uz)
        target = math.cos(self.radius)
        delta = m.atan2(uz, cr)
        base = m.acos(target / R)
        s_hit = math.inf
        for c in (delta + base, delta - base):
            for _ in range(2):  # c >= -2pi: two turns lift it above 1e-12
                c = m.where(c <= 1e-12, c + TWO_PI, c)
            s_hit = m.where(c <= length + 1e-15, m.minimum(s_hit, c), s_hit)
        return m.where(R >= target - 1e-15, s_hit, math.inf)

    def _cap_clip_walk(self, p, psi, length):
        """`_SphereBase._walk` stopped where it first meets the boundary.  Only
        a walk in reach of the boundary (`_REACH`) solves for the crossing."""
        s_hit = math.inf
        if length >= self.radius - p[0] - _REACH:
            s_hit = self._crossing(FLOATS, p[0], psi, length)
        if s_hit > length + 1e-12:
            return self._cap_clip(super()._walk(p, psi, length))
        w = super()._walk(p, psi, s_hit)
        end = (self.radius, w.end[1])
        # arrival direction at the boundary in arc coordinates
        back_reg = w.back_angle
        zeta = self._interior_chart_to_arc(end, wrap_angle(back_reg, TWO_PI))
        zeta = min(max(zeta, 0.0), math.pi)
        return WalkResult(end, s_hit, zeta, HALF_ARC,
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
        psi = self._dirs_regular(p, q)[0]
        up = abs(math.sin(psi)) < 1e-13 and math.cos(psi) < 0.0  # the meridian to the pole
        pts = [p]
        for i in range(1, n):
            t = d * i / (n - 1)
            w = (self._through_pole(p, t) if up and t > p[0] + _POLE_EPS
                 else super()._walk(p, psi, t))
            pts.append((min(w.end[0], self.radius), w.end[1]))
        return pts
