"""Flat convex polygon with boundary.

Points are planar (x, y) coordinates; chords are intrinsic geodesics by
convexity.  Direction charts: the full planar angle circle at interior
points; at a boundary point an arc whose 0 coordinate points along the
boundary in the CCW orientation (interior on the left), so pi/2 is the
inward normal on edge interiors.  Corners carry an arc equal to the
interior angle, measured from the outgoing edge.
"""
from __future__ import annotations

import math

import numpy as np

from .base import (CIRCLE, HALF_ARC, SigmaDesc, Space, SpaceError, WalkResult, angle_of,
                   sample_count, walk_length, wrap_angle)

TWO_PI = 2.0 * math.pi
_BTOL = 1e-9


class PolygonSpace(Space):
    variant = "polygon"
    kappa = 0.0
    has_boundary = True

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise SpaceError("polygon needs at least three planar vertices")
        n = len(v)
        for i in range(n):
            a, b, c = v[i - 1], v[i], v[(i + 1) % n]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross <= 1e-12:
                raise SpaceError("vertices must be strictly convex and CCW")
        self.vertices = v
        self.n = n
        # the kernels read Python floats: arithmetic on numpy scalars costs
        # a boxed object per operation
        self._corners = [tuple(c) for c in v.tolist()]
        self.edges = [(self._corners[i], self._corners[(i + 1) % n]) for i in range(n)]
        self.edge_dirs = []
        self.edge_lens = []
        for a, b in self.edges:
            dx, dy = b[0] - a[0], b[1] - a[1]
            L = float(np.hypot(dx, dy))
            self.edge_dirs.append((dx / L, dy / L))
            self.edge_lens.append(L)
        # inward normals
        self.normals = [(-dy, dx) for dx, dy in self.edge_dirs]
        # per edge: start point and inward normal, flat for the loops
        self._planes = [(a[0], a[1], nx, ny) for (a, _), (nx, ny) in zip(self.edges, self.normals)]
        self.boundary_period = sum(self.edge_lens)  # perimeter
        self.scale = float(np.max(np.ptp(v, axis=0)))
        self._unit = max(self.scale, 1.0)
        self._edge_angles = [angle_of(dx, dy) for dx, dy in self.edge_dirs]
        self._corner_sigmas = [SigmaDesc(self.corner_angle(i), is_arc=True) for i in range(n)]

    def describe(self):
        return {"type": "polygon", "vertices": self.vertices.tolist()}

    # -- point classification ------------------------------------------
    def validate_point(self, p):
        x, y = float(p[0]), float(p[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise SpaceError(f"invalid polygon point {p!r}")
        if not self.contains((x, y)):
            raise SpaceError(f"point {p!r} outside the polygon")
        return (x, y)

    def pos2(self, p):
        return (float(p[0]), float(p[1]))

    def contains(self, p, tol=1e-9):
        x, y = p
        lim = -tol * self._unit
        for ax, ay, nx, ny in self._planes:
            if (x - ax) * nx + (y - ay) * ny < lim:
                return False
        return True

    def corner_angle(self, i):
        d_out = self.edge_dirs[i]
        d_in = self.edge_dirs[i - 1]
        return math.pi - math.atan2(
            d_in[0] * d_out[1] - d_in[1] * d_out[0],
            d_in[0] * d_out[0] + d_in[1] * d_out[1],
        )

    def classify(self, p):
        """Return ('interior',), ('edge', i, s) or ('corner', i).

        A corner lies on two edge lines, so a point farther than t from
        every edge line is near no corner and no edge: one pass over the
        lines settles it.  The pass tests 2t, so that rounding in the
        line values cannot hide a corner within t.
        """
        x, y = p
        t = _BTOL * self._unit
        near = 2.0 * t
        for ax, ay, nx, ny in self._planes:
            if -near <= (x - ax) * nx + (y - ay) * ny <= near:
                break
        else:
            return ("interior",)
        for i, (cx, cy) in enumerate(self._corners):
            if math.hypot(x - cx, y - cy) <= t:
                return ("corner", i)
        for i, (ax, ay, nx, ny) in enumerate(self._planes):
            if abs((x - ax) * nx + (y - ay) * ny) <= t:
                dx, dy = self.edge_dirs[i]
                s = (x - ax) * dx + (y - ay) * dy
                if -t <= s <= self.edge_lens[i] + t:
                    return ("edge", i, min(max(s, 0.0), self.edge_lens[i]))
        return ("interior",)

    def _sigma_of(self, kind):
        if kind[0] == "interior":
            return CIRCLE
        if kind[0] == "edge":
            return HALF_ARC
        return self._corner_sigmas[kind[1]]

    def _chart_zero(self, kind):
        """Planar angle of the chart's zero direction at a point of this kind."""
        if kind[0] == "interior":
            return 0.0
        return self._edge_angles[kind[1]]  # the edge, or a corner's outgoing edge

    # -- metric ---------------------------------------------------------
    def distance(self, p, q):
        return self._distance(self.validate_point(p), self.validate_point(q))

    def _distance(self, p, q):
        return math.hypot(q[0] - p[0], q[1] - p[1])

    def _distances(self, points, q):
        """`_distance(x, q)` for each x, inlined: the same `math.hypot`, bit for bit."""
        qx, qy, hypot = q[0], q[1], math.hypot
        return np.array([hypot(qx - x, qy - y) for x, y in points], dtype=float)

    def sigma_at(self, p):
        return self._sigma_of(self.classify(p))

    def directions_to(self, p, q):
        return self._directions_to(self.validate_point(p), self.validate_point(q))

    def _directions_to(self, p, q):
        ang = angle_of(q[0] - p[0], q[1] - p[1])
        # on an arc the valid range is checked by callers
        return [wrap_angle(ang - self._chart_zero(self.classify(p)), TWO_PI)]

    def random_point(self, rng):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        for _ in range(1000):
            p = (lo[0] + rng.random() * (hi[0] - lo[0]),
                 lo[1] + rng.random() * (hi[1] - lo[1]))
            if self.contains(p, tol=-1e-9):
                return p
        raise SpaceError("rejection sampling failed")

    # -- boundary helpers ------------------------------------------------
    def boundary_dist(self, p):
        x, y = p
        return min(
            (x - a[0]) * nrm[0] + (y - a[1]) * nrm[1]
            for (a, _), nrm in zip(self.edges, self.normals)
        )

    def boundary_feet(self, p):
        """Nearest boundary points of an interior point (ties included)."""
        x, y = p
        d = self.boundary_dist(p)
        feet = []
        for (a, _), nrm in zip(self.edges, self.normals):
            di = (x - a[0]) * nrm[0] + (y - a[1]) * nrm[1]
            if di <= d + 1e-9:
                feet.append((x - di * nrm[0], y - di * nrm[1]))
        return d, feet

    def boundary_tails(self, p):
        """The differential of `boundary_dist` at p: min of cos-tails (scale, sources).

        Off the boundary: the unit tail toward each nearest foot.  On the
        boundary arc: min over the adjacent edges of cos(angle to the normal).
        """
        d, feet = self.boundary_feet(p)
        if d <= 1e-12:
            arc = self.sigma_at(p).length
            return [(-1.0, [math.pi / 2.0]), (-1.0, [arc - math.pi / 2.0])]
        return [(1.0, self._directions_to(p, f)) for f in feet]

    def boundary_point(self, s):
        """Point at perimeter arclength s from vertex 0, CCW."""
        s = math.fmod(s, self.boundary_period)
        if s < 0:
            s += self.boundary_period
        for i, L in enumerate(self.edge_lens):
            if s <= L:
                a = self.edges[i][0]
                d = self.edge_dirs[i]
                return (a[0] + s * d[0], a[1] + s * d[1])
            s -= L
        return tuple(self.vertices[0])

    # -- walks ------------------------------------------------------------
    def walk(self, p, angle, length):
        return self._walk(self.validate_point(p), angle, walk_length(length))

    def _walk(self, p, angle, length):
        kind = self.classify(p)
        if kind[0] != "interior":
            sig = self._sigma_of(kind)
            if not sig.valid(angle):
                raise SpaceError(f"direction {angle} outside the arc at {p!r}")
            if angle <= 1e-12 or sig.length - angle <= 1e-12:
                return self._walk_boundary(kind, angle, length)
        planar = wrap_angle(angle + self._chart_zero(kind), TWO_PI)
        return self._walk_straight(p, planar, length)

    def _arrival(self, end, kind, traveled, back, event=None, ref=None):
        """The walk result at `end`, of the given kind, arriving from planar angle `back`."""
        return WalkResult(end, traveled, wrap_angle(back - self._chart_zero(kind), TWO_PI),
                          self._sigma_of(kind), event=event, event_ref=ref)

    def _walk_straight(self, p, planar_angle, length):
        px, py = p
        ux, uy = math.cos(planar_angle), math.sin(planar_angle)
        # first exit through an edge
        t_exit = math.inf
        for ax, ay, nx, ny in self._planes:
            denom = ux * nx + uy * ny
            if denom >= -1e-15:
                continue
            t = ((ax - px) * nx + (ay - py) * ny) / denom
            if 1e-12 < t < t_exit:
                t_exit = t
        back = wrap_angle(planar_angle + math.pi, TWO_PI)
        if length < t_exit - 1e-12:
            end = (px + length * ux, py + length * uy)
            return self._arrival(end, self.classify(end), length, back)
        hit = (px + t_exit * ux, py + t_exit * uy)
        kind = self.classify(hit)
        if kind[0] == "corner":
            return self._arrival(self._corners[kind[1]], kind, t_exit, back,
                                 event="corner", ref=kind[1])
        return self._arrival(hit, kind, t_exit, back, event="boundary")

    def _walk_boundary(self, kind, chart_angle, length):
        forward = chart_angle <= 1e-12  # 0 points along the CCW boundary
        if kind[0] == "corner":
            i = kind[1] if forward else (kind[1] - 1) % self.n
            s = 0.0 if forward else self.edge_lens[i]
        else:
            i, s = kind[1], kind[2]
        room = (self.edge_lens[i] - s) if forward else s
        if length <= room + 1e-15:
            s2 = s + length if forward else s - length
            a = self.edges[i][0]
            d = self.edge_dirs[i]
            end = (a[0] + s2 * d[0], a[1] + s2 * d[1])
            back = math.pi if forward else 0.0
            return WalkResult(end, length, back, self.sigma_at(end))
        corner = (i + 1) % self.n if forward else i
        # arc chart at corner: 0 along outgoing edge, max along incoming
        back = self.corner_angle(corner) if forward else 0.0
        return WalkResult(self._corners[corner], room, back, self._corner_sigmas[corner],
                          event="corner", event_ref=corner)

    def geodesic_points(self, p, q, n: int = 33):
        p, q = self.validate_point(p), self.validate_point(q)
        n = sample_count(n)
        return [
            (p[0] + (q[0] - p[0]) * i / (n - 1), p[1] + (q[1] - p[1]) * i / (n - 1))
            for i in range(n)
        ]

    def corners(self):
        return [(tuple(self.vertices[i]), self.corner_angle(i)) for i in range(self.n)]


def random_convex_polygon(rng, n_min=5, n_max=8):
    """Strictly convex polygon from jittered points on the unit circle."""
    for _ in range(200):
        n = int(rng.integers(n_min, n_max + 1))
        angs = sorted(rng.random() * TWO_PI for _ in range(n))
        pts = []
        for a in angs:
            r = 0.6 + 0.4 * rng.random()
            pts.append((r * math.cos(a), r * math.sin(a)))
        try:
            return PolygonSpace(pts)
        except SpaceError:
            continue
    raise SpaceError("failed to sample a convex polygon")
