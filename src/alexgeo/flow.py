"""Gradient curves and the gradient flow, with the distance estimates
that control them exposed as verifiers.

Every curve of the library (gradient and radial curves, quasigeodesic
traces, the boundary path) is integrated by one broken-geodesic
stepper, `FlowStepper`.  A step of parameter dt walks |V| dt straight
along the motion vector V read at its start.  A walk that meets an
event (a cone point, the boundary) splits the step there: the event is
recorded and, unless the curve's event rule ends the step, V is read
again at the event point.  A vanishing V is one `stop` event, after
which the curve stays put while the parameter runs on.  On a gradient
curve V is the gradient and the curve goes on after every event.
`record_curve` samples a stepper on the grid 0, h, 2h, ... that ends
at T; `record_steps` samples a unit-speed curve (a quasigeodesic trace,
a boundary path) after each step, so that its event points are samples.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from .functions import differential, evaluate
from .model_plane import theta
from .tangent import gradient_from_directional, zero_vector

STOP_TOL = 1e-8
# a grid remainder below _GRID_TOL * T is rounding left by summing the steps
_GRID_TOL = 1e-12


@dataclass
class CurveRecord:
    """Sampled curve with right tangents and an event ledger.

    `ts` runs 0, h, 2h, ... and ends at T, the last step shorter where T
    is not a multiple of h; T = 0 records the start point alone.  In a
    record of `record_steps` the grid starts again at each event point.
    `right_tangents[i]` is the motion vector launched at ts[i] (zero past
    a stop, None at the end but where `record_steps` ran the full length).
    """

    ts: list
    points: list
    right_tangents: list
    events: list = field(default_factory=list)
    h: float = 0.0

    def end(self):
        return self.points[-1]

    def to_csv(self, space) -> str:
        lines = ["t,point,speed"]
        for t, p, rt in zip(self.ts, self.points, self.right_tangents):
            s = rt.norm if rt is not None else 0.0
            lines.append(f"{t!r},\"{space.format_point(p)}\",{s!r}")
        return "\n".join(lines) + "\n"


def gradient(expr, space, p):
    """Gradient of a semiconcave expression at p (zero past critical points)."""
    return gradient_from_directional(differential(expr, space, p))


class FlowStepper:
    """Broken-geodesic integrator of one curve, here the gradient curve of expr.

    Holds the current point `cur`, the parameter `t`, the `events`,
    `stopped` and `last_walk`, the last walk it made (None before the
    first).  Subclasses replace the motion vector `_motion` and the event
    rule `_ends_step`.
    """

    def __init__(self, expr, space, p):
        self.expr = expr
        self.space = space
        self.cur = p
        self.t = 0.0
        self.events = []
        self.stopped = False
        self.last_walk = None

    def _motion(self, rest):
        """Motion vector at `cur`, None where it vanishes; `rest` is what is left of the step."""
        g = gradient(self.expr, self.space, self.cur)
        return g if g.norm >= STOP_TOL else None

    def _ends_step(self, w):
        """Event rule after the walk w: True ends the step where w ended."""
        return w.event is None

    def launch_vector(self):
        """Motion vector at the current point (zero past a stop)."""
        vec = None if self.stopped else self._motion(0.0)
        return vec if vec is not None else zero_vector(self.space.sigma_at(self.cur))

    def step(self, dt):
        """Advance the parameter by dt; returns the motion vector launched."""
        t_end = self.t + dt
        vec = None if self.stopped else self._motion(dt)
        v, rest = vec, dt
        for _ in range(64):
            if v is None:
                if not self.stopped:
                    self.events.append((self.t, "stop", None))
                    self.stopped = True
                break
            w = self.space._walk(self.cur, v.angle, rest * v.norm)
            self.cur = w.end
            self.last_walk = w
            used = w.traveled / max(v.norm, 1e-300)
            self.t += used
            rest -= used
            if w.event is not None:
                self.events.append((self.t, w.event, w.event_ref))
            if self._ends_step(w) or rest <= 1e-15:
                break
            v = self._motion(rest)
        if self.stopped:
            self.t = t_end
        return vec if vec is not None else zero_vector(self.space.sigma_at(self.cur))


def record_curve(stepper, T, h) -> CurveRecord:
    """Sample the stepper's curve on the grid 0, h, 2h, ... that ends at T."""
    ts, points, rights = [0.0], [stepper.cur], []
    t = 0.0
    while T - t > _GRID_TOL * T:
        dt = min(h, T - t)
        rights.append(stepper.step(dt))
        t = T if T - (t + dt) <= _GRID_TOL * T else t + dt
        ts.append(t)
        points.append(stepper.cur)
    rights.append(None)
    return CurveRecord(ts, points, rights, stepper.events, h)


def record_steps(stepper, length, h) -> CurveRecord:
    """Sample the stepper after each step of at most h, at its own parameter,
    until that reaches length or the stepper's event rule sets `ended`.

    A step ends at an event, so every event point is a sample and the
    grid runs on from it.  The last right tangent is the launch vector
    where the curve ran its full length, else None.
    """
    ts, points, rights = [0.0], [stepper.cur], []
    while stepper.t < length - 1e-12 and not stepper.ended:
        rights.append(stepper.step(min(h, length - stepper.t)))
        ts.append(stepper.t)
        points.append(stepper.cur)
    rights.append(stepper.launch_vector() if stepper.t >= length - 1e-12 else None)
    return CurveRecord(ts, points, rights, stepper.events, h)


def gradient_curve(expr, space, p, T, h):
    """Integrate the gradient curve from p for parameter time T at step h."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"gradient curve needs a finite step h > 0, not {h}")
    if not 0.0 <= T < math.inf:
        raise ValueError(f"gradient curve needs a finite time T >= 0, not {T}")
    stepper = FlowStepper(expr, space, space.validate_point(p))
    return record_curve(stepper, T, h)


@dataclass
class EstimateReport:
    margins_i: list
    worst: float


def nearest_index(ts, t: float) -> int:
    """Index of the recorded time nearest t; the earlier one on a tie."""
    i = bisect.bisect_left(ts, t)
    if i == len(ts) or (i > 0 and t - ts[i - 1] <= ts[i] - t):
        return max(i - 1, 0)
    return i


def verify_distance_estimates(expr, space, pairs, t_grid, h, lam) -> EstimateReport:
    """Both sides of the gradient-curve distance estimates on point pairs.

    (i)   |a(t) b(t)|  <=  e^{lam t} |pq|
    (ii)  |a(t) q|^2   <=  |pq|^2 + {2f(p)-2f(q)+lam|pq|^2} th(t) + |grad_p|^2 th(t)^2
    (iii) the two-time combination of (i) and (ii).

    The report keeps the margins of (i), each bound minus the measured
    side, and the worst margin of all three.
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
        # both records share one grid; each requested time snaps to the
        # nearest recorded time, at which the bounds are evaluated
        ts = alpha.ts
        idx = [nearest_index(ts, t) for t in t_grid]
        for i in idx:
            t = ts[i]
            a_t, b_t = alpha.points[i], beta.points[i]
            m_i.append(math.exp(lam * t) * d0 - space.distance(a_t, b_t))
            th = theta(lam, t)
            rhs = d0 * d0 + drop * th + gp * gp * th * th
            m_ii.append(rhs - space.distance(a_t, q) ** 2)
        for iq in idx:
            for ip in idx:
                if ip < iq:
                    continue
                tq, tp = ts[iq], ts[ip]
                th = theta(lam, tp - tq)
                rhs = math.exp(2.0 * lam * tq) * (
                    d0 * d0 + drop * th + gp * gp * th * th
                )
                m_iii.append(rhs - space.distance(alpha.points[ip], beta.points[iq]) ** 2)
    return EstimateReport(m_i, min(min(m_i), min(m_ii), min(m_iii)))


def length_element_check(expr, space, gamma0_points, tau, h, lam) -> float:
    """Flow a curve by a variable time and compare the new length element
    against e^{2 lam tau} [ds^2 + 2 d(f o gamma) dtau + |grad f|^2 dtau^2].

    `gamma0_points` must be sampled by arclength with uniform spacing.
    Returns the worst margin, the bound minus the new squared length
    element, over the curve's steps.
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
    return min(margins)
