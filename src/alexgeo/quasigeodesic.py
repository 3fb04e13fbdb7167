"""Quasigeodesic tracing, the construction ladder and the checker suite.

Tracing is straight-line unfolding; at a cone point of total angle theta
the curve continues so both side angles equal theta/2, which keeps every
development convex.  The construction ladder (joints of radial curves,
speed-controlled pieces with polar renormalization) realizes the
monotone -> convex -> pre-quasigeodesic chain, with the log-speed drop
ledger as its entropy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model_plane
from .flow import CurveRecord
from .functions import DistSq, differential, evaluate, scale
from .radial import RadialStepper
from .tangent import TangentVec, polar_vector
from .verdict import Margin


class TraceError(RuntimeError):
    pass


def trace_quasigeodesic(space, p, xi_angle, length, record_step=None) -> CurveRecord:
    """Unit-speed trace through cone points with the equal-split rule."""
    p = space.validate_point(p)
    if not 0.0 <= length < math.inf:
        raise TraceError(f"trace needs a finite length >= 0, not {length}")
    if record_step is None:
        record_step = max(length / 512.0, 1e-6)
    if not 0.0 < record_step < math.inf:
        raise TraceError(f"trace needs a finite record_step > 0, not {record_step}")
    ts = [0.0]
    points = [p]
    rights = []
    events = []
    cur, fwd = p, xi_angle
    t = 0.0
    guard = 0
    while t < length - 1e-12:
        guard += 1
        if guard > 100000:
            raise TraceError("trace exceeded the step budget")
        seg = min(record_step, length - t)
        w = space._walk(cur, fwd, seg)
        sig_cur = space.sigma_at(cur)
        rights.append(TangentVec(1.0, fwd, sig_cur))
        cur = w.end
        t += w.traveled
        ts.append(t)
        points.append(cur)
        if w.event is None:
            fwd = w.sigma.forward_of_back(w.back_angle)
            continue
        if w.event == "vertex":
            theta = w.sigma.length
            if w.sigma.is_arc:
                events.append((t, "boundary-vertex", w.event_ref))
                break
            fwd = w.sigma.wrap(w.back_angle + theta / 2.0)
            events.append((t, "vertex", w.event_ref))
            continue
        events.append((t, w.event, w.event_ref))
        break
    rights.append(TangentVec(1.0, fwd, space.sigma_at(cur)) if t >= length - 1e-12
                  else None)
    return CurveRecord(ts, points, rights, events, record_step)


# -- appendix construction ladder ------------------------------------------
def build_prequasigeodesic(space, p, xi_angle, eps, T):
    """Speed-controlled joints with polar renormalization.

    Pieces restart after parameter eps or when the speed decays below
    (1 - eps) of the piece-start speed; at each joint the new launch
    vector is the polar partner of the incoming one.  Returns the curve
    and its entropy record.
    """
    rec = _build_joint_curve(space, p, xi_angle, eps, T, speed_control=True)
    return rec, entropy(rec)


def _build_joint_curve(space, p, xi_angle, eps, T, speed_control):
    """Radial pieces of flat comparison (kappa = 0) at step eps / 16."""
    h = eps / 16.0
    p = space.validate_point(p)
    ts = [0.0]
    points = [p]
    rights = []
    events = []
    t = 0.0
    cur = p
    dir_angle = xi_angle
    sigma_speed = 1.0  # launch speed of the current piece
    run_speed = 1.0    # current speed along the curve
    while t < T - 1e-12 and sigma_speed > 1e-10:
        stepper = RadialStepper(space, cur, dir_angle, stop_at_vertex=speed_control)
        piece_t = 0.0
        piece_budget = min(eps, T - t)
        stall = False
        while piece_t < piece_budget - 1e-15:
            dt_inner = min(h, piece_budget - piece_t) * sigma_speed
            if dt_inner <= 0.0:
                break
            vec = stepper.step(dt_inner)
            speed = sigma_speed * vec.norm
            rights.append(TangentVec(speed, vec.angle, vec.sigma))
            piece_t += dt_inner / sigma_speed
            t += dt_inner / sigma_speed
            ts.append(t)
            points.append(stepper.cur)
            run_speed = speed if speed > 0.0 else run_speed
            if stepper.stopped:
                events.append((t, "stall", None))
                stall = True
                break
            if stepper.at_vertex:
                # the speed control forbids the cone-point drop: the piece
                # ends at the vertex and the polar extension takes over
                stall = True
                break
            if speed_control and speed < (1.0 - eps) * sigma_speed:
                stall = True
                break
        events.extend((t, k, r) for _, k, r in stepper.events
                      if k in ("vertex", "boundary"))
        if stall and stepper.stopped:
            break
        cur = stepper.cur
        if not stepper.at_vertex:
            nxt = stepper.launch_vector()
            if nxt.norm <= 1e-12:
                events.append((t, "stall", None))
                break
        if stall and speed_control:
            # renormalize with the polar of the incoming vector (equal norm);
            # a piece ends at a cone point only under the speed control
            sig = space.sigma_at(cur)
            if stepper.at_vertex:
                back = stepper.last_walk.back_angle
            else:
                back = nxt.angle if sig.is_arc else sig.wrap(nxt.angle + math.pi)
            dir_angle = polar_vector(sig, TangentVec(run_speed, back, sig)).angle
            sigma_speed = run_speed
            events.append((t, "joint-polar", None))
        else:
            dir_angle = nxt.angle
            sigma_speed = sigma_speed * nxt.norm
            run_speed = sigma_speed
    rights.append(None)
    return CurveRecord(ts, points, rights, events, h)


# -- entropy ------------------------------------------------------------------
@dataclass
class EntropyRecord:
    """Ledger of log-speed drops: atoms (t, ln|g+| - ln|g-|), total = sum.

    The curves built here are piecewise geodesic with constant speed per
    step, so the absolutely continuous part vanishes and every drop is
    an atom at a step boundary.
    """

    atoms: list
    total: float


def entropy(curve: CurveRecord) -> EntropyRecord:
    atoms = []
    total = 0.0
    prev_norm = None
    for t, rt in zip(curve.ts, curve.right_tangents):
        if rt is None:
            continue
        if rt.norm <= 0.0:
            break
        if prev_norm is not None and prev_norm > 0.0:
            jump = math.log(rt.norm) - math.log(prev_norm)
            if abs(jump) > 0.0:
                atoms.append((t, jump))
                total += jump
        prev_norm = rt.norm
    return EntropyRecord(atoms, total)


# -- checker suite ---------------------------------------------------------
@dataclass
class CheckReport:
    unit_speed_dev: float
    barrier_worst: float
    monotone_worst: float
    development_min_turn: float
    entropy_total: float
    n_probes: int

    def margins(self, tol):
        """Every test within tol, and at least one probe run: with no probe
        the probe tests read 0.0 and show nothing."""
        return [
            Margin("probes", self.n_probes, 1, ">="),
            Margin("unit-speed dev", self.unit_speed_dev, tol, "<="),
            Margin("barrier", self.barrier_worst, tol, "<="),
            Margin("angle-monotonicity", self.monotone_worst, tol, "<="),
            Margin("min turn", self.development_min_turn, -tol, ">="),
        ]


def check_quasigeodesic(space, curve: CurveRecord, n_probes=20, tol=1e-6,
                        seed=0) -> CheckReport:
    """Run the four characterization tests against random probe points.

    For each probe p:  h = rho_kappa(dist_p(gamma(t))) satisfies
    h'' <= 1 - kappa h in a discrete barrier sense; the comparison angle
    at the start is non-increasing in t; the development about p is
    convex.  Unit speed is checked on the curve's own grid.

    The barrier compares the centred second difference at step delta with
    c (1 - kappa h), c = 2 (1 - cos(sqrt(kappa) delta)) / (kappa delta^2):
    a model solution h = 1/kappa + A cos(sqrt(kappa) t) has exactly that
    second difference, and c = 1 at kappa = 0.  The comparison angle is
    read up to a margin of 1e-9 short of t = pi/sqrt(kappa), where the
    model triangle degenerates; a model triangle with perimeter above
    2 pi/sqrt(kappa) does not exist for a quasigeodesic, so there the
    monotonicity test reads pi, the largest increase an angle can make.

    Chords between samples flanking a cone point undershoot the
    arclength (the connecting geodesic wraps around the vertex), so the
    chord-equality and polyline-turn tests skip samples within a few
    grid steps of a cone point; the one-sided Lipschitz bound and the
    distance-based tests are unaffected.
    """
    if n_probes < 1:
        raise ValueError(f"quasigeodesic check needs at least 1 probe, not {n_probes}")
    rng = np.random.default_rng(seed)
    kappa = space.kappa
    ts = curve.ts
    pts = curve.points
    event_ts = {round(t, 12) for t, _, _ in curve.events}

    clean = [True] * len(pts)
    cone_pts = space.cone_points()
    if cone_pts:
        step_hint = max(
            (ts[i + 1] - ts[i] for i in range(len(ts) - 1)), default=0.0
        )
        for v_pt, _ in cone_pts:
            ds = [d for d, _ in space.distances_from(v_pt, pts)]
            for i, d in enumerate(ds):
                if d < 2.5 * step_hint:
                    clean[i] = False

    unit_dev = 0.0
    chords = []
    for i in range(len(ts) - 1):
        dt = ts[i + 1] - ts[i]
        chord = space.distance(pts[i], pts[i + 1])
        chords.append(chord)
        if dt <= 1e-15:
            continue
        if chord > dt * (1.0 + 1e-9) + 1e-12:
            unit_dev = max(unit_dev, chord / dt - 1.0)
        # chords through events legitimately undershoot the arclength
        straddles = any(ts[i] - 1e-12 < et < ts[i + 1] + 1e-12 for et in event_ts)
        if not straddles and clean[i] and clean[i + 1]:
            unit_dev = max(unit_dev, abs(chord / dt - 1.0))

    barrier_worst = -math.inf
    mono_worst = -math.inf
    min_turn = math.inf
    used = 0
    attempts = 0
    while used < n_probes and attempts < 8 * n_probes:
        attempts += 1
        probe = space.random_point(rng)
        rs = [d for d, _ in space.distances_from(probe, pts)]
        if min(rs) < 20.0 * max(curve.h, 1e-9) or min(rs) < 1e-6:
            continue
        if kappa > 0 and max(rs) >= math.pi / math.sqrt(kappa) - 1e-9:
            continue
        used += 1
        hvals = [model_plane.rho(kappa, r) for r in rs]
        for i in range(1, len(ts) - 1):
            dt1 = ts[i] - ts[i - 1]
            dt2 = ts[i + 1] - ts[i]
            if dt1 <= 1e-15 or dt2 <= 1e-15 or abs(dt1 - dt2) > 1e-12:
                continue
            d2 = (hvals[i - 1] - 2.0 * hvals[i] + hvals[i + 1]) / (dt1 * dt2)
            c = 1.0
            if kappa > 0:  # c as (sin(x/2) / (x/2))^2, free of the cancellation in 1 - cos
                half = 0.5 * math.sqrt(kappa * dt1 * dt2)
                c = (math.sin(half) / half) ** 2
            barrier_worst = max(barrier_worst, d2 - c * (1.0 - kappa * hvals[i]))
        prev = None
        for i in range(1, len(ts)):
            if kappa > 0 and ts[i] >= math.pi / math.sqrt(kappa) - 1e-9:
                break
            try:
                ang = model_plane.comparison_angle(kappa, rs[0], rs[i], ts[i])
            except model_plane.ModelDomainError:
                mono_worst = math.pi
                break
            if prev is not None:
                mono_worst = max(mono_worst, ang - prev)
            prev = ang
        dev = model_plane.develop_curve(kappa, list(zip(ts, rs)), tolerance=tol,
                                        chords=chords)
        for j, turn in enumerate(dev.turns):
            if clean[j] and clean[j + 1] and clean[j + 2]:
                min_turn = min(min_turn, turn)
    ent = entropy(curve)
    return CheckReport(
        unit_speed_dev=unit_dev,
        barrier_worst=barrier_worst if used else 0.0,
        monotone_worst=mono_worst if used else 0.0,
        development_min_turn=min_turn if min_turn < math.inf else 0.0,
        entropy_total=ent.total,
        n_probes=used,
    )


# -- extend / chop demo -------------------------------------------------------
@dataclass
class ChopExtendReport:
    chop_ok: bool
    extension_atom: float
    lemma_margin: float
    lemma_applicable: bool

    def margins(self, tol):
        """A chop found, no extension atom, and the convex-curve inequality,
        which must apply: a report where it does not fails."""
        return [Margin("chop found", int(self.chop_ok), 1, ">="),
                Margin("|extension atom|", abs(self.extension_atom), tol, "<="),
                Margin("lemma applies", int(self.lemma_applicable), 1, ">="),
                Margin("lemma margin", self.lemma_margin, -tol, ">=")]


def chop_extend_demo(space, p, xi_angle, eps, T, q_far) -> ChopExtendReport:
    """One extend-then-chop cycle on a built pre-quasigeodesic.

    Verifies the extension joint carries no entropy atom, finds t_bar
    with mu((t, t_bar)) < eps * (theta + t_bar - t), and checks the
    convex-curve derivative inequality for the 1-concave test function
    dist_{q_far}^2 / 2, which applies where the function's differential at
    the cycle's start, toward the curve point about eps ahead, is >= 0.
    """
    rec, ent = build_prequasigeodesic(space, p, xi_angle, eps, T)
    ts = rec.ts
    i0 = len(ts) // 3
    t0 = ts[i0]
    # the extension atom is the ledger's atom at t0, mu the sum of its atoms in (t0, t_bar]
    ext_atom = sum((a for t, a in ent.atoms if t == t0), 0.0)

    rt = rec.right_tangents
    x0 = rec.points[i0]
    dir0 = rt[i0]
    chop_ok = False
    for j in range(i0 + 1, len(ts)):
        if rt[j] is None or rt[j].norm <= 0:
            break
        tbar = ts[j]
        if tbar - t0 > eps:
            break
        mu_run = sum((a for t, a in ent.atoms if t0 < t <= tbar), 0.0)
        dirs = space._directions_to(x0, rec.points[j])
        sig = space.sigma_at(x0)
        theta = min(sig.dist(dir0.angle, a) for a in dirs)
        if abs(mu_run) < eps * (theta + (tbar - t0)) and theta < eps:
            chop_ok = True
            break

    # convex-curve inequality for f = dist_q^2 / 2 (1-concave when curv >= 0)
    f = scale(0.5, DistSq(q=q_far))
    lam = 1.0
    j = min(len(ts) - 1, i0 + max(2, int(eps / rec.h)))
    tspan = ts[j] - t0
    lemma_applicable = False
    margin = 0.0
    if tspan > 1e-9 and rt[i0] is not None and rt[i0].norm > 1e-9:
        d = differential(f, space, x0)
        xi_unit = rt[i0].angle
        nus = space._directions_to(x0, rec.points[j])
        nu = nus[0]
        if d(nu) >= 0.0:
            lemma_applicable = True
            lhs = d(xi_unit) * rt[i0].norm - d(nu)
            fwd = (evaluate(f, space, rec.points[i0 + 1]) -
                   evaluate(f, space, x0)) / (ts[i0 + 1] - t0)
            bwd = (evaluate(f, space, rec.points[j]) -
                   evaluate(f, space, rec.points[j - 1])) / (ts[j] - ts[j - 1])
            rhs = fwd - bwd + lam * tspan
            margin = rhs - lhs
    return ChopExtendReport(chop_ok, ext_atom, margin, lemma_applicable)


def monotone_report(space, curve: CurveRecord, expr, lam):
    """Worst increase of (f(c(t)) - f(c(0)) - lam t^2/2)/t over the grid."""
    ts = curve.ts
    pts = curve.points
    base_t = ts[0]
    base_v = evaluate(expr, space, pts[0])
    vals = []
    for t, x in zip(ts[1:], pts[1:]):
        dt = t - base_t
        vals.append((evaluate(expr, space, x) - base_v - 0.5 * lam * dt * dt) / dt)
    worst = max((vals[i + 1] - vals[i] for i in range(len(vals) - 1)), default=0.0)
    return worst, vals
