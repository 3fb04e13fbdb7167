"""Extremal-subset detection and verification.

Candidates on the supported spaces are one-point sets at cone points
with total angle at most pi, polygon corners with interior angle at most
pi/2, whole boundaries, the whole space and the empty set.  Verification
runs the critical-point criterion for distance functions and the
gradient-flow invariance test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import CurveRecord, gradient, gradient_curve
from .functions import BoundaryDist, Dist, DistSq, differential, scale
from .quasigeodesic import check_quasigeodesic
from .tangent import TangentVec, directional_sup
from .verdict import Margin


@dataclass
class SubsetDescriptor:
    kind: str  # "point" | "boundary" | "whole" | "empty"
    point: object = None
    label: str = ""

    def contains_distance(self, space, x):
        """Distance from x to the subset."""
        if self.kind == "point":
            return space.distance(self.point, x)
        if self.kind == "boundary":
            return space.boundary_dist(x)
        if self.kind == "whole":
            return 0.0
        return math.inf

    def sample_points(self, space, n, rng):
        if self.kind == "point":
            return [self.point] * 1
        if self.kind == "boundary":
            return [space.boundary_point(rng.random() * space.boundary_period)
                    for _ in range(n)]
        if self.kind == "whole":
            return [space.random_point(rng) for _ in range(n)]
        return []


@dataclass
class ExtremalEvidence:
    criterion_worst: float
    invariance_worst: float
    n_criterion: int

    def margins(self, tol):
        return [Margin("criterion worst", self.criterion_worst, tol, "<="),
                Margin("flow drift", self.invariance_worst, tol, "<=")]


def detect_extremal(space, seed=0, verify=True):
    """Enumerate extremal-subset candidates with verification evidence."""
    out = []
    cands = [SubsetDescriptor("whole", label="whole space"),
             SubsetDescriptor("empty", label="empty set")]
    for pt, angle in space.cone_points():
        if angle <= math.pi + 1e-9:
            cands.append(SubsetDescriptor("point", pt,
                                          f"cone point (angle {angle:.6f})"))
    if space.boundary_period is not None:
        cands.append(SubsetDescriptor("boundary", label=f"{space.variant} boundary"))
    for i, (pt, ang) in enumerate(space.corners()):
        if ang <= math.pi / 2.0 + 1e-9:
            cands.append(SubsetDescriptor("point", pt, f"corner {i} (angle {ang:.6f})"))
    for c in cands:
        evidence = None
        if verify and c.kind in ("point", "boundary"):
            evidence = verify_extremal(space, c, n_funcs=6, n_steps=40, seed=seed)
        out.append((c, evidence))
    return out


def verify_extremal(space, subset: SubsetDescriptor, n_funcs=8, n_steps=50,
                    h=5e-3, seed=0) -> ExtremalEvidence:
    """Criterion and invariance tests for a subset descriptor.

    Criterion: for q off the subset and p a local minimum of dist_q on
    it, the gradient of dist_q at p vanishes.  Its norm is read as the
    exact sup of the differential, with no test for ties: at a foot on
    a boundary arc both ends of the arc attain it.  Invariance: squared
    distance flows launched on the subset stay on it.
    """
    rng = np.random.default_rng(seed)
    crit_worst = 0.0
    n_crit = 0
    for _ in range(n_funcs):
        q = space.random_point(rng)
        if subset.contains_distance(space, q) < 1e-3:
            continue
        p = _argmin_on_subset(space, subset, q)
        if p is None:
            continue
        crit_worst = max(crit_worst, directional_sup(differential(Dist(q=q), space, p))[0])
        n_crit += 1
    inv_worst = 0.0
    starts = subset.sample_points(space, 4, rng)
    for x0 in starts:
        for _ in range(max(1, n_funcs // 2)):
            r = space.random_point(rng)
            f = DistSq(q=r)
            rec = gradient_curve(f, space, x0, n_steps * h, h)
            drift = max(subset.contains_distance(space, x)
                        for x in rec.points[:: max(1, len(rec.points) // 10)])
            inv_worst = max(inv_worst, drift)
    return ExtremalEvidence(crit_worst, inv_worst, n_crit)


def _argmin_on_subset(space, subset, q):
    """The point of the subset nearest to q; None for the whole space and the empty set.

    On a boundary it is the end of one walk from q down the steepest
    descent of the boundary distance (the exact maximizer of the
    differential of its negative), as long as that distance.
    """
    if subset.kind == "point":
        return subset.point
    if subset.kind != "boundary":
        return None
    q = space.validate_point(q)
    down = directional_sup(differential(scale(-1.0, BoundaryDist()), space, q))[1]
    return space._walk(q, down, space.boundary_dist(q)).end


# -- regularity of the distance to an extremal subset ------------------------
def distance_regularity(space, subset: SubsetDescriptor, band, n_samples, seed) -> float:
    """Measured floor of |grad dist_subset| at n_samples random points x
    with band[0] < dist_subset(x) < band[1]."""
    rng = np.random.default_rng(seed)
    floor = math.inf
    used = 0
    while used < n_samples:
        x = space.random_point(rng)
        d = subset.contains_distance(space, x)
        if not (band[0] < d < band[1]):
            continue
        used += 1
        f = Dist(q=subset.point) if subset.kind == "point" else BoundaryDist()
        floor = min(floor, gradient(f, space, x).norm)
    return floor


# -- Lieberman instance -------------------------------------------------------
def boundary_edge_path(space, start_s, length) -> CurveRecord:
    """Arclength path along a polygon boundary, passing corners.

    Corner crossings are inserted as samples so vertex events sit on the
    grid of the record.
    """
    n_samples = 200
    step = length / n_samples
    params = [k * step for k in range(n_samples + 1)]
    corner_ts = []
    total = space.boundary_period
    acc = 0.0
    corner_positions = []
    for L in space.edge_lens:
        acc += L
        corner_positions.append(acc)
    for lap in range(int(length / total) + 2):
        for c in corner_positions:
            t = c + lap * total - start_s
            if 1e-12 < t < length - 1e-12:
                corner_ts.append(t)
    params = sorted(set(params) | set(corner_ts))
    ts = []
    pts = []
    rights = []
    events = []
    for t in params:
        p = space.boundary_point(start_s + t)
        kind = space.classify(p)
        if kind[0] == "corner":
            events.append((t, "corner", kind[1]))
        ts.append(t)
        pts.append(p)
        sig = space.sigma_at(p)
        rights.append(TangentVec(1.0, 0.0, sig))
    rights[-1] = None
    return CurveRecord(ts, pts, rights, events, step)


def lieberman_check(space, start_s=0.1, n_probes=10, tol=1e-6, seed=0):
    """Intrinsic boundary geodesics are ambient quasigeodesics."""
    # under half the perimeter: intrinsically minimizing
    rec = boundary_edge_path(space, start_s, 0.45 * space.boundary_period)
    return check_quasigeodesic(space, rec, n_probes=n_probes, tol=tol, seed=seed)


# -- boundary concavity (kappa = 0 and kappa = 1) -----------------------------
def polygon_boundary_concavity(space, n_chords=200, seed=0):
    """Worst second difference of dist_boundary along random interior chords."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    n_samples = 33
    for _ in range(n_chords):
        a = space.random_point(rng)
        b = space.random_point(rng)
        d = space.distance(a, b)
        if d < 1e-3:
            continue
        pts = space.geodesic_points(a, b, n_samples)
        vals = [space.boundary_dist(x) for x in pts]
        dt = d / (n_samples - 1)
        for i in range(1, n_samples - 1):
            worst = max(worst, (vals[i - 1] - 2 * vals[i] + vals[i + 1]) / (dt * dt))
    return worst


def cap_boundary_concavity(space, n_chords=100, n_samples=2001, seed=0):
    """(-f)-concavity of f = sin(r0 - r) along great-circle chords of a cap:
    the worst f'' + f, which is at most 0 where it holds."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(n_chords):
        a = space.random_point(rng)
        b = space.random_point(rng)
        d = space.distance(a, b)
        if d < 1e-2:
            continue
        pts = space.geodesic_points(a, b, n_samples)
        vals = [math.sin(space.radius - x[0]) for x in pts]
        dt = d / (n_samples - 1)
        for i in range(1, n_samples - 1):
            d2 = (vals[i - 1] - 2 * vals[i] + vals[i + 1]) / (dt * dt)
            worst = max(worst, d2 + vals[i])
    return worst
