"""Acceptance criteria as runnable checks with one pass/fail line each.

Every criterion is property-based at desk scale with its tolerance fixed
here.  `run_suite(quick=True)` shrinks sample counts (for smoke runs)
without touching any tolerance.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import model_plane as mp
from .concavity_tight import build_strictly_concave, tight_check, tight_image_study
from .extremal import (
    SubsetDescriptor,
    cap_boundary_concavity,
    lieberman_check,
    polygon_boundary_concavity,
    verify_extremal,
)
from .flow import gradient_curve
from .functions import BoundaryDist, Dist, DistSq, InfConvolution, check_concavity, scale
from .quasigeodesic import build_prequasigeodesic, check_quasigeodesic, trace_quasigeodesic
from .radial import gexp_map, tangent_cone_metric, verify_radial_comparison
from .spaces import CapSpace, ConeSpace, PolygonSpace, SpindleSpace, random_convex_polygon, random_tetrahedron, regular_tetrahedron
from .spaces.base import SigmaDesc
from .tangent import TangentVec, polar_vector, scalar_product


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.number:2d}. {self.name}: {self.detail} ({self.elapsed:.1f}s)"


def _c01_model_round_trip(quick):
    n = 200 if quick else 1000
    rng = np.random.default_rng(101)
    worst = 0.0
    for kappa in (-1.0, 0.0, 1.0):
        for _ in range(n):
            a, c = 0.05 + rng.random(2) * 1.3
            beta = 0.01 + rng.random() * (math.pi - 0.02)
            b = mp.model_side(kappa, a, c, beta)
            worst = max(worst, abs(mp.comparison_angle(kappa, a, b, c) - beta))
    return worst < 1e-9, f"max round-trip error {worst:.2e} (< 1e-9)"


def _c02_flow_contraction(quick):
    plane = ConeSpace(2 * math.pi)
    f = scale(-0.5, DistSq(q=(0.0, 0.0)))
    p, q = (2.0, 0.7), (1.5, 2.0)
    d0 = plane.distance(p, q)
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        a = gradient_curve(f, plane, p, 1.0, h).end()
        b = gradient_curve(f, plane, q, 1.0, h).end()
        errs.append(abs(plane.distance(a, b) - math.exp(-1.0) * d0))
    ok = errs[-1] < 1e-2 and errs[0] / errs[1] > 1.8 and errs[1] / errs[2] > 1.8
    return ok, (f"|Phi p, Phi q| error {errs[-1]:.2e} at h=1e-3 (< 1e-2); "
                f"halving ratios {errs[0]/errs[1]:.2f}, {errs[1]/errs[2]:.2f} (> 1.8)")


def _c03_gexp_shortness(quick):
    n_pairs = 60 if quick else 500
    h = 1e-3 if quick else 1e-4
    rng = np.random.default_rng(103)
    worst = -math.inf
    for theta in (math.pi / 2, math.pi, 1.5 * math.pi, 2 * math.pi):
        cone = ConeSpace(theta)
        p = (1.0, 0.1)
        sig = cone.sigma_at(p)
        for _ in range(n_pairs):
            u = TangentVec(rng.random() * 1.5, rng.random() * 2 * math.pi, sig)
            v = TangentVec(rng.random() * 1.5, rng.random() * 2 * math.pi, sig)
            du = gexp_map(cone, p, u, 0, h)
            dv = gexp_map(cone, p, v, 0, h)
            worst = max(worst, cone.distance(du, dv) - tangent_cone_metric(0, u, v))
    # apex base: exact equality
    cone = ConeSpace(1.5 * math.pi)
    o = (0.0, 0.0)
    sig = cone.sigma_at(o)
    apex_worst = 0.0
    for _ in range(n_pairs):
        u = TangentVec(rng.random() * 2, rng.random() * sig.length, sig)
        v = TangentVec(rng.random() * 2, rng.random() * sig.length, sig)
        du, dv = gexp_map(cone, o, u, 0, 1e-2), gexp_map(cone, o, v, 0, 1e-2)
        apex_worst = max(apex_worst,
                         abs(cone.distance(du, dv) - tangent_cone_metric(0, u, v)))
    ok = worst <= 1e-3 and apex_worst <= 1e-9
    return ok, (f"max shortness excess {worst:.2e} (<= 1e-3) at h={h:g}; "
                f"apex-chart deviation {apex_worst:.2e} (<= 1e-9)")


def _c04_radial_comparison(quick):
    n_pairs = 4 if quick else 18
    h = 2e-3
    tol = 1e-6 + 10 * h
    rng = np.random.default_rng(104)
    worst = 0.0
    cone = ConeSpace(1.5 * math.pi)
    grid = [0.015 * k for k in range(1, 201)]
    for _ in range(n_pairs):
        rep = verify_radial_comparison(
            cone, cone.random_point(rng), rng.random() * 2 * math.pi,
            cone.random_point(rng), 0, grid, h)
        worst = max(worst, rep.worst_increase)
    tet = regular_tetrahedron()
    h_mesh = 5e-3
    tol = max(tol, 1e-6 + 10 * h_mesh)
    grid_m = [0.02 * k for k in range(1, 101)]
    for _ in range(max(2, n_pairs // 2)):
        rep = verify_radial_comparison(
            tet, tet.random_point(rng), rng.random() * 2 * math.pi,
            tet.random_point(rng), 0, grid_m, h_mesh)
        worst = max(worst, rep.worst_increase)
    spin = SpindleSpace(4.0)
    grid_s = [0.01 * k for k in range(1, 150)]
    done = 0
    while done < max(2, n_pairs // 2):
        p, q = spin.random_point(rng), spin.random_point(rng)
        if spin.distance(p, q) > math.pi / 2:
            continue
        rep = verify_radial_comparison(spin, p, rng.random() * 2 * math.pi, q,
                                       1, grid_s, h)
        worst = max(worst, rep.worst_increase)
        done += 1
    return worst <= tol, f"max comparison-angle increase {worst:.2e} (<= {tol:.2e})"


def _aimed_two_vertex_trace(tet, rng, length):
    """Trace engineered to hit two vertices: pre-segment + v1 -> v2 leg."""
    v1, v2 = rng.choice(4, size=2, replace=False)
    p1 = tet.point_at_vertex(int(v1))
    dirs = tet.directions_to(p1, tet.point_at_vertex(int(v2)))
    eta = dirs[0]
    theta1 = tet.cone_angle_at_vertex(int(v1))
    sig1 = tet.sigma_at(p1)
    back_dir = sig1.wrap(eta + theta1 / 2.0)
    ell_pre = 0.3 * tet.diameter_hint()
    w = tet.walk(p1, back_dir, ell_pre)
    if w.event is not None:
        return None
    # the trace starts behind v1 and runs back along the walked segment,
    # so its equal-split continuation at v1 heads straight for v2
    return trace_quasigeodesic(tet, w.end, w.back_angle, length)


def _c05_quasigeodesic_suite(quick):
    n_tetra = 4 if quick else 20
    n_probes = 6 if quick else 20
    rng = np.random.default_rng(105)
    worst_turn = math.inf
    worst_barrier = -math.inf
    worst_speed = 0.0
    worst_entropy = 0.0
    built = 0
    attempts = 0
    while built < n_tetra:
        attempts += 1
        if attempts > 20 * n_tetra:
            return False, f"could not engineer two-vertex traces ({built}/{n_tetra})"
        tet = random_tetrahedron(rng)
        L = 5.0 * tet.diameter_hint()
        rec = _aimed_two_vertex_trace(tet, rng, L)
        if rec is None:
            continue
        n_vertex_hits = sum(1 for _, k, _ in rec.events if k == "vertex")
        if n_vertex_hits < 2:
            continue
        built += 1
        rep = check_quasigeodesic(tet, rec, n_probes=n_probes, tol=1e-6,
                                  seed=int(rng.integers(1 << 30)))
        worst_turn = min(worst_turn, rep.development_min_turn)
        worst_barrier = max(worst_barrier, rep.barrier_worst)
        worst_speed = max(worst_speed, rep.unit_speed_dev)
        worst_entropy = max(worst_entropy, abs(rep.entropy_total))
    ok = (worst_turn >= -1e-6 and worst_barrier <= 1e-6
          and worst_speed <= 1e-9 and worst_entropy < 1e-9)
    return ok, (f"{built} traces (>= 2 vertex hits each): min turn {worst_turn:.2e} (>= -1e-6), "
                f"barrier {worst_barrier:.2e} (<= 1e-6), speed dev {worst_speed:.2e} (<= 1e-9), "
                f"entropy {worst_entropy:.2e} (< 1e-9)")


def _c06_boundary_concavity(quick):
    rng = np.random.default_rng(106)
    n_poly = 3 if quick else 10
    worst_flat = -math.inf
    for _ in range(n_poly):
        poly = random_convex_polygon(rng)
        rep = polygon_boundary_concavity(poly, n_chords=60 if quick else 200,
                                         seed=int(rng.integers(1 << 30)))
        worst_flat = max(worst_flat, rep.worst)
    cap = CapSpace(0.8)
    rep_cap = cap_boundary_concavity(cap, n_chords=20 if quick else 100,
                                     n_samples=2001, seed=11)
    perimeter_ok = all(
        CapSpace(r0).boundary_length() <= 2 * math.pi + 1e-12
        for r0 in (0.3, 0.8, math.pi / 2)
    )
    ok = worst_flat <= 1e-9 and rep_cap.worst <= 1e-8 and perimeter_ok
    return ok, (f"flat dist_boundary second difference {worst_flat:.2e} (<= 1e-9); "
                f"cap sine test {rep_cap.worst:.2e} (<= 1e-8); perimeter bound "
                f"{'holds' if perimeter_ok else 'fails'}")


def _c07_milka_polarity(quick):
    n = 30 if quick else 100
    rng = np.random.default_rng(107)
    worst = 0.0
    for L in (math.pi / 2, math.pi, 4.0, 1.5 * math.pi, 2 * math.pi):
        sig = SigmaDesc(L)
        for _ in range(n):
            v = TangentVec(1.0, rng.random() * L, sig)
            star = polar_vector(sig, v, grid=720, tol=1e-9)
            for k in range(720):
                x = TangentVec(1.0, L * k / 720.0, sig)
                worst = min(worst, scalar_product(v, x) + scalar_product(star, x))
    return worst >= -1e-9, f"min of <xi,x>+<xi*,x> = {worst:.2e} (>= -1e-9)"


def _c08_extremal_invariance(quick):
    square = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])
    h = 5e-3
    drift = 0.0
    for desc in (SubsetDescriptor("boundary"),
                 SubsetDescriptor("point", (0.0, 0.0))):
        ev = verify_extremal(square, desc, n_funcs=4 if quick else 8,
                             n_steps=20 if quick else 40, h=h, seed=108)
        drift = max(drift, ev.invariance_worst / (max(1, 40) * h))
        drift = max(drift, ev.criterion_worst)
    cone = ConeSpace(math.pi * 0.9)
    ev = verify_extremal(cone, SubsetDescriptor("point", (0.0, 0.0)),
                         n_funcs=4, n_steps=20, h=h, seed=109)
    drift = max(drift, ev.invariance_worst)
    lieb = lieberman_check(square, start_s=0.3, n_probes=6 if quick else 12,
                           tol=1e-6, seed=110)
    ok = drift < 1e-6 and lieb.passed(1e-6)
    return ok, (f"extremal flow drift {drift:.2e} per unit time (< 1e-6); boundary "
                f"geodesic checker: {lieb.summary()}")


def _c09_inf_convolution(quick):
    plane = ConeSpace(2 * math.pi)
    q = (1.0, 0.0)
    f = scale(-0.5, DistSq(q=q))
    n_grid = 12 if quick else 50
    worst = 0.0
    for eps in (1.0, 0.5):
        ic = InfConvolution(f, plane, eps, lip_hint=4.0)
        for gx in np.linspace(-1.0, 2.0, n_grid):
            for gy in np.linspace(-1.5, 1.5, n_grid):
                r, phi = math.hypot(gx, gy), math.atan2(gy, gx)
                y = (r, phi)
                yx = np.array([gx, gy])
                qx = np.array([1.0, 0.0])
                xs = (2 * yx - eps * qx) / (2 - eps)
                exact = float(-0.5 * np.sum((xs - qx) ** 2)
                              + np.sum((xs - yx) ** 2) / eps)
                worst = max(worst, abs(ic.query(y).value - exact))
    # concavity defect on the curved cap, measured against the function's
    # own worst second difference (the +delta of the smoothing estimate)
    cap = CapSpace(0.8)
    region = ((0.35, 0.0), 0.3)
    n_geo = 10 if quick else 24
    base = check_concavity(BoundaryDist(), cap, 0.0, region,
                           n_geodesics=n_geo, n_samples=9, seed=112,
                           tol=math.inf).worst_margin
    defects = []
    for eps in (0.1, 0.05, 0.01):
        fe = InfConvolution(BoundaryDist(), cap, eps, lip_hint=1.5)
        rep = check_concavity(fe, cap, 0.0, region, n_geodesics=n_geo,
                              n_samples=9, seed=112, tol=math.inf)
        defects.append(max(rep.worst_margin - base, 0.0))
    mono = defects[0] >= defects[1] - 1e-9 and defects[1] >= defects[2] - 1e-9
    ok = worst <= 1e-6 and mono
    return ok, (f"grid error vs closed form {worst:.2e} (<= 1e-6); measured "
                f"concavity defects {[f'{d:.2e}' for d in defects]} non-increasing: {mono}")


def _c10_tight_maps(quick):
    plane = ConeSpace(2 * math.pi)
    p = (0.0, 0.0)
    a0, a1 = (1.0, 0.0), (1.0, 2 * math.pi / 3)
    rep = tight_check(plane, [Dist(q=a0), Dist(q=a1)], (p, 0.05),
                      n_samples=100 if quick else 500, seed=113)
    square = PolygonSpace([[0, 0], [1, 0], [1, 1], [0, 1]])
    centers = [(0.5 + 0.08 * math.cos(a), 0.5 + 0.08 * math.sin(a))
               for a in (0.4, 0.4 + 2 * math.pi / 3, 0.4 + 4 * math.pi / 3)]
    funcs = [build_strictly_concave(square, c, r=0.35, c=60.0, n_points=6,
                                    seed=114)[0] for c in centers]
    study = tight_image_study(square, funcs, ((0.5, 0.5), 0.05),
                              grid_n=12 if quick else 24,
                              n_support=150 if quick else 1000,
                              n_gf=40 if quick else 200, seed=115)
    ok = rep.sup_cross < 0.0 and study.support_failures == 0 and study.gf_worst < 1e-4
    return ok, (f"main-example sup {rep.sup_cross:.3e} (< 0) on {rep.n_samples} samples; "
                f"Q support tests {study.n_support - study.support_failures}/"
                f"{study.n_support}; G o F deviation {study.gf_worst:.2e} (< 1e-4)")


def _c11_entropy_decay(quick):
    # on the 1.5pi cone the ledger is empty at every eps; aimed 0.05 rad
    # past the apex of the 0.8pi cone, it has atoms at the coarsest eps
    configs = [("cone 1.5pi", ConeSpace(1.5 * math.pi), math.pi, (0.1, 0.05, 0.025)),
               ("cone 0.8pi", ConeSpace(0.8 * math.pi), math.pi - 0.05, (0.2, 0.1, 0.05))]
    floor = 1e-9
    ok, parts = True, []
    for name, cone, xi, epss in configs:
        ents = [build_prequasigeodesic(cone, (1.0, 0.0), xi, eps, 2.5)[1] for eps in epss]
        totals = [abs(e.total) for e in ents]
        pairs = list(zip(totals, totals[1:]))
        non_increasing = all(b >= c - floor for b, c in pairs)
        ratio_ok = all(c <= 0.7 * b + floor for b, c in pairs)
        vanishes = totals[-1] <= floor
        ok = ok and non_increasing and ratio_ok and vanishes
        parts.append(f"{name} |entropy| across eps {list(epss)} "
                     f"{[f'{t:.2e}' for t in totals]} ({[len(e.atoms) for e in ents]} "
                     f"atoms): non-increasing {non_increasing}, ratio<0.7 (with 1e-9 "
                     f"floor) {ratio_ok}, extrapolates to 0: {vanishes}")
    return ok, "; ".join(parts)


_CRITERIA = [
    (1, "model-plane round trip", _c01_model_round_trip),
    (2, "gradient-flow contraction", _c02_flow_contraction),
    (3, "gexp shortness", _c03_gexp_shortness),
    (4, "radial comparison monotonicity", _c04_radial_comparison),
    (5, "quasigeodesic trace suite", _c05_quasigeodesic_suite),
    (6, "boundary concavity", _c06_boundary_concavity),
    (7, "polar-vector grid inequality", _c07_milka_polarity),
    (8, "extremal invariance + boundary geodesics", _c08_extremal_invariance),
    (9, "inf-convolution oracle", _c09_inf_convolution),
    (10, "tight maps and image geometry", _c10_tight_maps),
    (11, "pre-quasigeodesic entropy decay", _c11_entropy_decay),
]


def run_criterion(number, quick=False) -> CriterionResult:
    for num, name, fn in _CRITERIA:
        if num == number:
            t0 = time.time()
            passed, detail = fn(quick)
            return CriterionResult(num, name, passed, detail, time.time() - t0)
    raise ValueError(f"no criterion {number}")


def run_suite(quick=False, numbers=None):
    unknown = set(numbers or ()) - {num for num, _, _ in _CRITERIA}
    if unknown:
        raise ValueError(f"no criterion numbered {sorted(unknown)}; "
                         f"the criteria are 1-{len(_CRITERIA)}")
    results = []
    for num, name, _ in _CRITERIA:
        if numbers and num not in numbers:
            continue
        t0 = time.time()
        try:
            results.append(run_criterion(num, quick))
        except Exception as exc:  # noqa: BLE001 - a crash is a failed criterion
            results.append(CriterionResult(num, name, False, f"crashed: {exc!r}",
                                           time.time() - t0))
    return results
