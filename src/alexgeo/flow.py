"""Gradient curves and the gradient flow, with the distance estimates
that control them exposed as verifiers.

A gradient curve advances by broken geodesic steps: at each grid time
the gradient is evaluated and the curve walks straight in its direction
for arclength (step * speed).  A step that reaches a cone point splits
there and the gradient is re-evaluated on the vertex direction space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .functions import differential, evaluate
from .model_plane import theta
from .tangent import TangentVec, gradient_from_directional, zero_vector

STOP_TOL = 1e-8


@dataclass
class CurveRecord:
    """Sampled curve with one-sided tangents and an event ledger.

    `right_tangents[i]` is the motion vector launched at ts[i] (None past
    a stop); `left_tangents[i]` points backward along the incoming step,
    carrying the incoming speed as its norm.
    """

    ts: list
    points: list
    right_tangents: list
    left_tangents: list
    events: list = field(default_factory=list)
    h: float = 0.0
    provenance: str = "user"

    def end(self):
        return self.points[-1]

    def to_csv(self, space=None) -> str:
        lines = ["t,point,speed"]
        for t, p, rt in zip(self.ts, self.points, self.right_tangents):
            s = rt.norm if rt is not None else 0.0
            pt = space.format_point(p) if space is not None else repr(p)
            lines.append(f"{t!r},\"{pt}\",{s!r}")
        return "\n".join(lines) + "\n"


def gradient(expr, space, p):
    """Gradient of a semiconcave expression at p (zero past critical points)."""
    return gradient_from_directional(differential(expr, space, p))


def gradient_curve(expr, space, p, T, h):
    """Integrate the gradient curve from p for parameter time T at step h."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"gradient curve needs a finite step h > 0, not {h}")
    if not 0.0 <= T < math.inf:
        raise ValueError(f"gradient curve needs a finite time T >= 0, not {T}")
    p = space.validate_point(p)
    n = max(1, int(round(T / h)))
    ts = [0.0]
    points = [p]
    rights = []
    lefts = [None]
    events = []
    cur = p
    stopped = False
    for i in range(n):
        t0 = i * h
        if stopped:
            ts.append(t0 + h)
            points.append(cur)
            rights.append(zero_vector(space.sigma_at(cur)))
            lefts.append(None)
            continue
        g = gradient(expr, space, cur)
        if g.norm < STOP_TOL:
            events.append((t0, "stop", None))
            stopped = True
            rights.append(zero_vector(g.sigma))
            ts.append(t0 + h)
            points.append(cur)
            lefts.append(None)
            continue
        rights.append(g)
        cur, back = _advance(expr, space, cur, g, h, events, t0)
        ts.append(t0 + h)
        points.append(cur)
        lefts.append(back)
    rights.append(None)
    return CurveRecord(ts, points, rights, lefts, events, h, "gradient-curve")


def _advance(expr, space, cur, g, h, events, t0):
    """One parameter step of size h, splitting at vertex events."""
    remaining = h
    vec = g
    back = None
    for _ in range(64):
        arc = remaining * vec.norm
        w = space._walk(cur, vec.angle, arc)
        cur = w.end
        back = TangentVec(vec.norm, w.back_angle, w.sigma)
        if w.event is None:
            return cur, back
        used = w.traveled / max(vec.norm, 1e-300)
        remaining -= used
        events.append((t0 + (h - remaining), w.event, w.event_ref))
        if remaining <= 1e-15:
            return cur, back
        vec = gradient(expr, space, cur)
        if vec.norm < STOP_TOL:
            events.append((t0 + (h - remaining), "stop", None))
            return cur, back
    return cur, back


def flow_map(expr, space, points, t, h):
    """Apply the time-t gradient flow to a list of points."""
    return [gradient_curve(expr, space, p, t, h).end() for p in points]


@dataclass
class EstimateReport:
    margins_i: list
    margins_ii: list
    margins_iii: list
    worst: float

    def passed(self, tol):
        return self.worst >= -tol

    def summary(self):
        return (f"contraction margins: (i) {min(self.margins_i):.3e} "
                f"(ii) {min(self.margins_ii):.3e} (iii) {min(self.margins_iii):.3e}")


def verify_distance_estimates(expr, space, pairs, t_grid, h, lam) -> EstimateReport:
    """Both sides of the gradient-curve distance estimates on point pairs.

    (i)   |a(t) b(t)|  <=  e^{lam t} |pq|
    (ii)  |a(t) q|^2   <=  |pq|^2 + {2f(p)-2f(q)+lam|pq|^2} th(t) + |grad_p|^2 th(t)^2
    (iii) the two-time combination of (i) and (ii).
    """
    T = max(t_grid)
    m_i, m_ii, m_iii = [], [], []
    for p, q in pairs:
        alpha = gradient_curve(expr, space, p, T, h)
        beta = gradient_curve(expr, space, q, T, h)
        d0 = space.distance(p, q)
        fp = evaluate(expr, space, p)
        fq = evaluate(expr, space, q)
        gp = gradient(expr, space, p).norm
        drop = 2.0 * fp - 2.0 * fq + lam * d0 * d0

        def at(rec, t):
            i = min(int(round(t / h)), len(rec.points) - 1)
            return rec.points[i]

        for t in t_grid:
            a_t, b_t = at(alpha, t), at(beta, t)
            m_i.append(math.exp(lam * t) * d0 - space.distance(a_t, b_t))
            th = theta(lam, t)
            rhs = d0 * d0 + drop * th + gp * gp * th * th
            m_ii.append(rhs - space.distance(a_t, q) ** 2)
        for tq in t_grid:
            for tp in t_grid:
                if tp < tq:
                    continue
                th = theta(lam, tp - tq)
                rhs = math.exp(2.0 * lam * tq) * (
                    d0 * d0 + drop * th + gp * gp * th * th
                )
                m_iii.append(rhs - space.distance(at(alpha, tp), at(beta, tq)) ** 2)
    worst = min(min(m_i), min(m_ii), min(m_iii))
    return EstimateReport(m_i, m_ii, m_iii, worst)


@dataclass
class LengthElementReport:
    margins: list
    worst: float

    def passed(self, tol):
        return self.worst >= -tol


def length_element_check(expr, space, gamma0_points, tau, h, lam) -> LengthElementReport:
    """Flow a curve by a variable time and compare the new length element
    against e^{2 lam tau} [ds^2 + 2 d(f o gamma) dtau + |grad f|^2 dtau^2].

    `gamma0_points` must be sampled by arclength with uniform spacing.
    """
    pts = list(gamma0_points)
    n = len(pts)
    ds = space.distance(pts[0], pts[1])
    taus = [tau(i * ds) for i in range(n)]
    imgs = [
        gradient_curve(expr, space, x, tv, h).end() if tv > 0 else x
        for x, tv in zip(pts, taus)
    ]
    margins = []
    for i in range(n - 1):
        dsl = space.distance(pts[i], pts[i + 1])
        dsig = space.distance(imgs[i], imgs[i + 1])
        dtau = taus[i + 1] - taus[i]
        df = evaluate(expr, space, pts[i + 1]) - evaluate(expr, space, pts[i])
        gn = gradient(expr, space, pts[i]).norm
        rhs = math.exp(2.0 * lam * min(taus[i], taus[i + 1])) * (
            dsl * dsl + 2.0 * df * dtau + gn * gn * dtau * dtau
        )
        margins.append(rhs - dsig * dsig)
    return LengthElementReport(margins, min(margins))
