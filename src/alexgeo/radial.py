"""Radial curves and the gradient exponential for curvature -1, 0, 1.

A radial curve from p in direction xi follows the unit geodesic while it
stays minimizing (there the defining speed factor is exactly one) and
afterwards integrates  alpha' = m_kappa(|p alpha|, t) * grad dist_p
with m_0 = r/t, m_{-1} = tanh r / tanh t, m_1 = tan r / tan t.  The
geodesic regime removes the t -> 0 singularity of the factor.

The gradient regime reads grad dist_p from the first variation formula
d_x dist_p(xi) = -min over the directions up to p of cos angle(xi, up):
where the directions at x form a full circle of length 2 pi, the
gradient bisects the largest gap g between the directions to p and has
norm -cos(g / 2) (one direction is the gap g = 2 pi: the unit vector
opposite it).  At a cone point or on a boundary arc it is the exact
gradient of `flow.gradient`.

`RadialStepper` is a `flow.FlowStepper`: the geodesic regime is the
velocity (1, fwd), a cone point switches to the gradient regime and a
boundary or corner stops the curve.  `radial_curve` samples it on the
grid of `flow.record_curve`, which ends at T.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .flow import STOP_TOL, CurveRecord, FlowStepper, gradient, nearest_index, record_curve
from .functions import Dist
from .model_plane import comparison_angle
from .spaces.base import TWO_PI
from .tangent import TangentVec

_SWITCH_TOL = 1e-9


class RadialDomainError(ValueError):
    pass


def speed_factor(kappa, r, t):
    if t <= 0.0:
        return 1.0
    r = min(r, t)
    if kappa == 0:
        return r / t
    if kappa == -1:
        return math.tanh(r) / math.tanh(t)
    if kappa == 1:
        if t >= math.pi / 2.0 - 1e-12:
            raise RadialDomainError("spherical radial curves live on [0, pi/2]")
        return math.tan(r) / math.tan(t)
    raise RadialDomainError(f"kappa must be -1, 0 or 1, not {kappa}")


class RadialStepper(FlowStepper):
    """Radial curve from p as a flow, so joint constructions can drive it.

    The geodesic regime moves at the velocity (1, fwd).  A cone point, or
    the geodesic ceasing to minimize, switches to the gradient regime
    m_kappa(r, t) grad dist_p.  A boundary or corner stops the curve; with
    `stop_at_vertex` a step ends at a cone point.
    """

    def __init__(self, space, p, xi_angle, kappa=0, stop_at_vertex=False):
        p = space.validate_point(p)
        super().__init__(Dist(q=p), space, p)
        self.p = p
        self.kappa = kappa
        self.stop_at_vertex = stop_at_vertex
        self.at_vertex = False
        self.fwd = xi_angle
        self.regime = "geo"

    def snapshot(self):
        return (self.t, self.cur, self.fwd, self.regime, self.stopped,
                self.at_vertex, len(self.events))

    def restore(self, snap):
        self.t, self.cur, self.fwd, self.regime, self.stopped, self.at_vertex, n_events = snap
        del self.events[n_events:]

    def _velocity(self, t):
        """Motion vector m_kappa(r, t) * grad dist_p at the current point.

        None past a critical point of dist_p, where the curve stops.
        """
        space, cur = self.space, self.cur
        r = space._distance(cur, self.p)
        sigma = space.sigma_at(cur)
        if not sigma.is_arc and sigma.length == TWO_PI and r > 1e-12:
            dirs = sorted(map(sigma.wrap, space._directions_to(cur, self.p)))
            # the gap across the seam first: with one direction it is 2 pi exactly
            start, gap = dirs[-1], (dirs[0] - dirs[-1]) % TWO_PI or TWO_PI
            for a, b in zip(dirs, dirs[1:]):
                if b - a > gap:
                    start, gap = a, b - a
            norm = -math.cos(0.5 * gap)
            if norm < STOP_TOL:
                return None
            return TangentVec(speed_factor(self.kappa, r, t) * norm,
                              sigma.wrap(start + 0.5 * gap), sigma)
        g = gradient(self.expr, space, cur)
        if g.norm < STOP_TOL:
            return None
        return TangentVec(speed_factor(self.kappa, r, t) * g.norm, g.angle, g.sigma)

    def _motion(self, rest):
        if self.regime == "geo":
            return TangentVec(1.0, self.fwd, self.space.sigma_at(self.cur))
        # the speed factor is read no earlier than `rest`, which keeps it
        # bounded on a step that starts near t = 0
        return self._velocity(max(self.t, rest))

    def _ends_step(self, w):
        if w.event is None:
            if self.regime == "geo":
                self.fwd = w.sigma.forward_of_back(w.back_angle)
                r = self.space._distance(self.p, self.cur)
                if r < self.t - max(_SWITCH_TOL, 1e-6 * self.t):
                    # the geodesic has stopped minimizing
                    self.regime = "grad"
                    self.events.append((self.t, "regime", "gradient"))
            return True
        if w.event != "vertex":
            self.stopped = True
            return True
        # a straight line cannot continue through a cone point
        self.regime = "grad"
        self.at_vertex = self.stop_at_vertex
        return self.at_vertex

    def step(self, dt):
        """Advance the parameter by dt; returns the motion vector launched."""
        if self.kappa == 1 and self.t + dt > math.pi / 2.0 + 1e-12:
            raise RadialDomainError("spherical radial curves live on [0, pi/2]")
        return super().step(dt)


def radial_curve(space, p, xi_angle, kappa, T, h) -> CurveRecord:
    """Radial curve record from p in direction xi over [0, T] at step h."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"radial curve needs a finite step h > 0, not {h}")
    if not 0.0 <= T < math.inf:
        raise RadialDomainError(f"radial curve needs a finite time T >= 0, not {T}")
    if kappa == 1 and T > math.pi / 2.0 + 1e-12:
        raise RadialDomainError("spherical radial curves live on [0, pi/2]")
    if kappa not in (-1, 0, 1):
        raise RadialDomainError(f"kappa must be -1, 0 or 1, not {kappa}")
    return record_curve(RadialStepper(space, p, xi_angle, kappa), T, h)


def gexp_map(space, p, v: TangentVec, kappa, h):
    """Endpoint of the radial curve at parameter |v| in the direction of v."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"gexp needs a finite step h > 0, not {h}")
    if not 0.0 <= v.norm < math.inf:
        raise RadialDomainError(f"gexp needs a finite |v| >= 0, not {v.norm}")
    if v.norm == 0.0:
        return space.validate_point(p)
    if kappa == 1 and v.norm > math.pi / 2.0 + 1e-12:
        raise RadialDomainError("gexp(1; v) needs |v| <= pi/2")
    stepper = RadialStepper(space, p, v.angle, kappa)
    T = v.norm
    t = 0.0
    chunk_cap = 0.25
    while t < T - 1e-15:
        if stepper.regime == "geo" and not stepper.stopped:
            # straight fast-forward: replay at step h only when the walk
            # leaves the geodesic regime inside the chunk
            chunk = min(chunk_cap, T - t)
            snap = stepper.snapshot()
            stepper.step(chunk)
            if stepper.regime == "geo" and not stepper.stopped:
                t += chunk
                continue
            if chunk <= h + 1e-15:
                t += chunk
                continue
            stepper.restore(snap)
            sub = 0.0
            while sub < chunk - 1e-15:
                dt = min(h, chunk - sub)
                stepper.step(dt)
                sub += dt
            t += chunk
            continue
        dt = min(h, T - t)
        stepper.step(dt)
        t += dt
    return stepper.cur


def tangent_cone_metric(kappa, u: TangentVec, v: TangentVec) -> float:
    """Cone, elliptic-cone or spherical-suspension distance on tangent vectors."""
    if u.norm == 0.0 or v.norm == 0.0:
        base = u.norm + v.norm
        if kappa == 0:
            return base
        if kappa == -1:
            return base
        return min(base, math.pi)
    alpha = min(u.sigma.dist(u.angle, v.angle), math.pi)
    if kappa == 0:
        return math.sqrt(
            max(0.0, u.norm ** 2 + v.norm ** 2 - 2.0 * u.norm * v.norm * math.cos(alpha))
        )
    if kappa == -1:
        ch = math.cosh(u.norm) * math.cosh(v.norm) - math.sinh(u.norm) * math.sinh(
            v.norm
        ) * math.cos(alpha)
        return math.acosh(max(1.0, ch))
    if kappa == 1:
        if u.norm > math.pi or v.norm > math.pi:
            raise RadialDomainError("spherical suspension lives on |v| <= pi")
        c = math.cos(u.norm) * math.cos(v.norm) + math.sin(u.norm) * math.sin(
            v.norm
        ) * math.cos(alpha)
        return math.acos(max(-1.0, min(1.0, c)))
    raise RadialDomainError(f"kappa must be -1, 0 or 1, not {kappa}")


@dataclass
class RadialComparisonReport:
    ts: list
    worst_increase: float


def verify_radial_comparison(space, p, xi_angle, q, kappa, t_grid, h) -> RadialComparisonReport:
    """Monotonicity of the comparison angle along a radial curve.

    Checks t -> angle_k(t, |alpha(t) q|, |pq|) non-increasing.  The value
    drop of a lambda-concave f along the same curve is
    `quasigeodesic.monotone_report` of its record.
    """
    T = max(t_grid)
    dpq = space.distance(p, q)
    if kappa == 1 and dpq > math.pi / 2.0 + 1e-12:
        raise RadialDomainError("kappa = 1 comparison needs |pq| <= pi/2")
    rec = radial_curve(space, p, xi_angle, kappa, T, h)

    # snap each requested time to the nearest recorded time and use it in
    # the comparison triangle: the sides must be consistent
    idxs = sorted({nearest_index(rec.ts, t) for t in t_grid if t > 0.0})
    t_used = [rec.ts[i] for i in idxs]
    pts = [rec.points[i] for i in idxs]
    dists = [d for d, _ in space.distances_from(q, pts)]
    angles = []
    for t, dq in zip(t_used, dists):
        angles.append(comparison_angle(kappa, t, dq, dpq))
    worst = max(
        (angles[i + 1] - angles[i] for i in range(len(angles) - 1)),
        default=0.0,
    )
    return RadialComparisonReport(list(t_used), worst)


@dataclass
class InverseCheckReport:
    worst_decrease: float
    min_separation: float


def gexp_inverse_check(space, p, geodesic_points, probe_angles, kappa,
                       h) -> InverseCheckReport:
    """Radial curves in other directions never re-enter an open geodesic.

    Along each probe radial curve the comparison angle at the geodesic
    endpoint is non-decreasing, and the curve keeps a positive distance
    from the open geodesic.
    """
    q = geodesic_points[-1]
    T = space.distance(p, q)
    if kappa == 1:
        T = min(T, math.pi / 2.0 - 1e-6)
    dpq = space.distance(p, q)
    interior = geodesic_points[1:-1]
    worst_dec = 0.0
    min_sep = math.inf
    for ang in probe_angles:
        rec = radial_curve(space, p, ang, kappa, T, h)
        prev = None
        for i in range(1, len(rec.points), max(1, len(rec.points) // 40)):
            x = rec.points[i]
            b = space.distance(p, x)
            c = space.distance(q, x)
            a = dpq
            ang_q = comparison_angle(kappa, a, b, c)
            if prev is not None:
                worst_dec = max(worst_dec, prev - ang_q)
            prev = ang_q
            for y in interior:
                min_sep = min(min_sep, space.distance(x, y))
    return InverseCheckReport(worst_dec, min_sep)
