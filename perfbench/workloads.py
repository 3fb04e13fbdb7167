"""The benchmark workloads: seeded inputs, one job, and its oracle.

Each workload is a class with

* ``setup(seed)``: builds every input of the run from the seed (spaces
  and points); the program sees only these inputs;
* ``run(inputs, i)``: the i-th job, through the public library API;
  returns a record of its outputs, or ``None`` when the job was an
  attempt the workload discards (counted, not timed as a job);
* ``check(inputs, record)``: gates of the record against independent
  oracles (see ``oracles.py``);
* ``corrupt(inputs, record)``: a deliberately wrong copy of a record, which
  ``check`` must reject;
* ``kind_of(inputs, record)``: the job type, so the self-test corrupts
  one record of every type.

Inputs of job i come from ``numpy.random.default_rng([seed, tag, i])``,
so they do not depend on how many jobs a run reaches.
"""
from __future__ import annotations

import copy
import math

import numpy as np

from alexgeo.concavity_tight import build_strictly_concave, tight_image_study
from alexgeo.flow import gradient_curve
from alexgeo.functions import (
    Affine,
    BoundaryDist,
    DistSq,
    InfConvolution,
    MinExpr,
    check_concavity,
    scale,
)
from alexgeo.quasigeodesic import check_quasigeodesic, trace_quasigeodesic
from alexgeo.radial import gexp_map, radial_curve
from alexgeo.spaces import (
    CapSpace,
    ConeSpace,
    MeshPoint,
    MeshSpace,
    PolygonSpace,
    SpaceError,
    SpindleSpace,
    build_doubling,
    random_convex_polygon,
)
from alexgeo.spaces.base import SigmaDesc
from alexgeo.tangent import TangentVec, polar_vector

from oracles import (
    SurfaceOracle,
    cap_infconv_boundary_dist,
    cone_dist,
    cone_tangent_metric,
    direction_dist,
    model_angle,
    plane_infconv_neg_half_sq,
    spindle_dist,
    tetra_split_error,
)

TETRA_FACES = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]


def _rng(seed, tag, i):
    return np.random.default_rng([seed, tag, i])


def _in_disc(rng):
    r, a = math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
    return np.array([r * math.cos(a), r * math.sin(a)])


def _max_gap(values):
    return max(values) if values else 0.0


class Workload:
    name = ""
    pool = 0  # jobs generated per run; a run stops early if it uses them all
    tail_level = 0.9  # quantile reported as job_tail_ms
    trace_jobs = 0  # jobs in a traced run
    fixed_jobs = 0  # leading jobs after which peak_rss_mb is taken

    def inexact_frac(self, records):
        """Share of mesh distances with certified error > 0 (None: no mesh)."""
        return None


# ---------------------------------------------------------------------------
class QgTetra(Workload):
    """c05-style engineered quasigeodesic traces on random tetrahedra.

    Not listed in BENCHMARK.json: on the present library every job fails
    its ``equal_split_3d`` gate.  ``MeshSpace`` orders the face wedges of a
    vertex fan clockwise but measures angles inside each wedge
    counter-clockwise, so its direction chart at a vertex is not isometric
    across wedge boundaries, and ``trace_quasigeodesic`` does not split the
    angle equally at a vertex.  The workload stays runnable
    (``--workload qg_tetra``) and reports ``correct: false`` until that
    is fixed.
    """

    name = "qg_tetra"
    pool = 200
    length_diameters = 1.5  # the pre-segment and the v1 -> v2 leg take <= 1.3
    samples = 192  # recorded steps; the checker skips probes within 20 steps
    n_probes = 2
    tail_level = 0.75
    trace_jobs = 8
    fixed_jobs = 20

    @staticmethod
    def _tetra(rng, min_angle=0.35):
        """Boundary of a random simplex with fat faces (as in the library)."""
        while True:
            pts = rng.normal(size=(4, 3))
            pts /= np.max(np.abs(pts))
            ok = True
            for (i, j, k) in TETRA_FACES:
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    u, w = pts[b] - pts[a], pts[c] - pts[a]
                    cosang = float(u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
                    ok &= math.acos(max(-1.0, min(1.0, cosang))) >= min_angle
            if ok:
                return pts

    def setup(self, seed):
        jobs = []
        for i in range(self.pool):
            rng = _rng(seed, 1, i)
            pts = self._tetra(rng)
            v1, v2 = (int(v) for v in rng.choice(4, size=2, replace=False))
            jobs.append({
                "space": MeshSpace(TETRA_FACES, coords=pts), "coords": pts,
                "v1": v1, "v2": v2, "probe_seed": int(rng.integers(1 << 30)),
            })
        return jobs

    def run(self, jobs, i):
        job = jobs[i]
        tet, v1 = job["space"], job["v1"]
        length = self.length_diameters * tet.diameter_hint()
        p1 = tet.point_at_vertex(v1)
        eta = tet.directions_to(p1, tet.point_at_vertex(job["v2"]))[0]
        back_dir = tet.sigma_at(p1).wrap(eta + tet.cone_angle_at_vertex(v1) / 2.0)
        w = tet.walk(p1, back_dir, 0.3 * tet.diameter_hint())
        if w.event is not None:
            return None
        rec = trace_quasigeodesic(tet, w.end, w.back_angle, length,
                                  record_step=length / self.samples)
        hits = [ref for _, kind, ref in rec.events if kind == "vertex"]
        if len(hits) < 2:
            return None
        rep = check_quasigeodesic(tet, rec, n_probes=self.n_probes, tol=1e-6,
                                  seed=job["probe_seed"])
        if rep.n_probes == 0:
            return None  # every probe sat too close to the curve: nothing checked
        hit_index = [rec.ts.index(t) for t, kind, _ in rec.events if kind == "vertex"]
        return {"i": i, "ts": list(rec.ts), "points": list(rec.points),
                "hits": hits, "hit_index": hit_index, "length": length,
                "turn": rep.development_min_turn, "barrier": rep.barrier_worst,
                "speed": rep.unit_speed_dev, "entropy": rep.entropy_total,
                "probes": rep.n_probes}

    def check(self, jobs, rec):
        job = jobs[rec["i"]]
        X = job["coords"]
        faces = job["space"].faces
        pos = [sum(b * X[v] for b, v in zip(p.bary, faces[p.face])) for p in rec["points"]]
        chords = [float(np.linalg.norm(b - a)) for a, b in zip(pos, pos[1:])]
        steps = [t1 - t0 for t0, t1 in zip(rec["ts"], rec["ts"][1:])]
        hit_err = max(float(np.linalg.norm(pos[j] - X[v]))
                      for j, v in zip(rec["hit_index"], rec["hits"]))
        split_err = max(tetra_split_error(X, v, pos[j - 1], pos[j + 1])
                        for j, v in zip(rec["hit_index"], rec["hits"]) if 0 < j < len(pos) - 1)
        return [
            ("c05.min_turn", -rec["turn"], 1e-6),
            ("c05.barrier", rec["barrier"], 1e-6),
            ("c05.unit_speed", rec["speed"], 1e-9),
            ("c05.entropy", abs(rec["entropy"]), 1e-9),
            ("probes_used", int(rec["probes"] < 1), 0),
            ("first_hit_is_v1", int(rec["hits"][0] != job["v1"]), 0),
            ("chord3d_le_arclength", _max_gap([c - s for c, s in zip(chords, steps)]), 1e-9),
            ("hit_at_vertex_3d", hit_err, 1e-9),
            ("equal_split_3d", split_err, 1e-6),
            ("length", abs(rec["ts"][-1] - rec["length"]), 1e-9),
        ]

    def kind_of(self, jobs, rec):
        return "trace"

    def corrupt(self, jobs, rec):
        bad = dict(rec, points=list(rec["points"]))
        k = len(bad["points"]) // 2
        bad["points"][k] = bad["points"][k + 40]
        return bad


# ---------------------------------------------------------------------------
def _octahedron():
    dirs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    faces = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
             (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    return np.array(dirs, dtype=float), faces


def _icosahedron():
    g = (1.0 + math.sqrt(5.0)) / 2.0
    pts = np.array([(-1, g, 0), (1, g, 0), (-1, -g, 0), (1, -g, 0),
                    (0, -1, g), (0, 1, g), (0, -1, -g), (0, 1, -g),
                    (g, 0, -1), (g, 0, 1), (-g, 0, -1), (-g, 0, 1)], dtype=float)
    pts /= np.linalg.norm(pts[0])
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    return pts, faces


def _jittered_solid(rng, make):
    """A regular solid with each vertex moved radially by up to 5%."""
    base, faces = make()
    while True:
        pts = base * (0.95 + 0.1 * rng.random((len(base), 1)))
        try:
            return MeshSpace(faces, coords=pts), pts
        except SpaceError:
            continue


def _point_sampler(faces, positions):
    """Area-uniform random surface points, from the faces' own vertex positions."""
    pos = np.asarray(positions, dtype=float)
    if pos.shape[1] == 2:
        pos = np.column_stack([pos, np.zeros(len(pos))])
    areas = [0.5 * float(np.linalg.norm(np.cross(pos[j] - pos[i], pos[k] - pos[i])))
             for i, j, k in faces]
    cum = np.cumsum(areas) / sum(areas)

    def sample(rng):
        f = min(int(np.searchsorted(cum, rng.random())), len(faces) - 1)
        a, b = rng.random(), rng.random()
        if a + b > 1.0:
            a, b = 1.0 - a, 1.0 - b
        return MeshPoint(f, (a, b, 1.0 - a - b))

    return sample


class MeshField(Workload):
    """One-to-many and one-to-one mesh queries on three larger meshes."""

    name = "mesh_field"
    pool = 3000
    n_targets = 12
    n_geo = 9
    tail_level = 0.95
    trace_jobs = 36
    fixed_jobs = 144

    def setup(self, seed):
        rng = _rng(seed, 2, 0)
        octa, octa_xyz = _jittered_solid(rng, _octahedron)
        ico, ico_xyz = _jittered_solid(rng, _icosahedron)
        poly = random_convex_polygon(rng, n_min=7, n_max=7)
        dbl = build_doubling(poly)
        # the double's vertices: the corners, then the centroid of each sheet;
        # both sheets lie on the polygon, so the chord is the projected distance
        centroid = np.mean(poly.vertices, axis=0)
        dbl_xy = [tuple(v) for v in poly.vertices] + [tuple(centroid)] * 2
        meshes = [(octa, octa_xyz), (ico, ico_xyz), (dbl, np.array(dbl_xy))]
        samplers = [_point_sampler(space.faces, pos) for space, pos in meshes]
        jobs = []
        for i in range(self.pool):
            r = _rng(seed, 2, i + 1)
            # per mesh, one one-to-many job then two one-to-one jobs
            m = (i // 3) % 3
            kind = "many" if i % 3 == 0 else "one"
            k = self.n_targets if kind == "many" else 1
            jobs.append({"mesh": m, "kind": kind, "p": samplers[m](r),
                         "qs": [samplers[m](r) for _ in range(k)]})
        return {"meshes": meshes, "jobs": jobs, "oracles": {}}

    def run(self, inputs, i):
        job = inputs["jobs"][i]
        space = inputs["meshes"][job["mesh"]][0]
        p, qs = job["p"], job["qs"]
        if job["kind"] == "many":
            return {"i": i, "d": space.distances_from(p, qs)}
        d, err = space.distance_with_error(p, qs[0])
        dirs = space.directions_to(p, qs[0])
        geo = space.geodesic_points(p, qs[0], self.n_geo)
        return {"i": i, "d": [(d, err)], "dirs": dirs, "geo": geo}

    def _oracle(self, inputs, m):
        if m not in inputs["oracles"]:
            space, pos = inputs["meshes"][m]
            inputs["oracles"][m] = SurfaceOracle(space.faces, pos)
        return inputs["oracles"][m]

    def check(self, inputs, rec):
        job = inputs["jobs"][rec["i"]]
        orc = self._oracle(inputs, job["mesh"])
        p = job["p"]
        low = up = 0.0
        bad = 0
        for q, (d, err) in zip(job["qs"], rec["d"]):
            bad += int(not (math.isfinite(d) and err >= 0.0))
            low = max(low, orc.chord(p, q) - d)
            up = max(up, d - err - orc.upper(p, q))
        gates = [("finite_nonneg_error", bad, 0),
                 ("chord_le_distance", low, 1e-9),
                 ("distance_le_graph_bound", up, 1e-9),
                 ("targets_answered", abs(len(rec["d"]) - len(job["qs"])), 0)]
        if job["kind"] == "one":
            d = rec["d"][0][0]
            geo = rec["geo"]
            pts = [orc.position(*x) for x in geo]
            steps = [float(np.linalg.norm(b - a)) for a, b in zip(pts, pts[1:])]
            gates += [
                ("has_direction", int(not rec["dirs"]), 0),
                ("geodesic_lands_on_q",
                 float(np.linalg.norm(pts[-1] - orc.position(*job["qs"][0]))), 1e-7),
                ("geodesic_chords_le_step",
                 _max_gap([s - d / (len(geo) - 1) for s in steps]), 1e-9),
            ]
        return gates

    def kind_of(self, inputs, rec):
        return inputs["jobs"][rec["i"]]["kind"]

    def inexact_frac(self, records):
        errs = [e for rec in records for _, e in rec["d"]]
        return sum(e > 0.0 for e in errs) / max(len(errs), 1)

    def corrupt(self, inputs, rec):
        bad = dict(rec, d=[(d * 1.5 + 0.5, e) for d, e in rec["d"]])
        return bad


# ---------------------------------------------------------------------------
class ClosedVerify(Workload):
    """Verifiers on closed-form spaces: inf-convolution, concavity, tight maps."""

    name = "closed_verify"
    pool = 1500
    n_queries = 3
    tail_level = 0.9
    trace_jobs = 18
    fixed_jobs = 90
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]

    def setup(self, seed):
        plane, cap = ConeSpace(2.0 * math.pi), CapSpace(0.8)
        square = PolygonSpace(self.square)
        jobs = []
        for i in range(self.pool):
            r = _rng(seed, 3, i)
            kind = ("infconv", "concavity", "tight")[i % 3]
            if kind == "infconv":
                q = (0.5 + 0.5 * r.random(), r.random() * 2.0 * math.pi)
                ys = [(-1.0 + 3.0 * r.random(), -1.5 + 3.0 * r.random())
                      for _ in range(self.n_queries)]
                jobs.append({"kind": kind, "q": q, "eps": (1.0, 0.5)[i % 2], "ys": ys})
            elif kind == "concavity":
                jobs.append({"kind": kind, "eps": (0.1, 0.05)[i % 2],
                             "center": (0.3 + 0.1 * r.random(), r.random() * 2 * math.pi),
                             "seed": int(r.integers(1 << 30))})
            else:
                a0 = r.random() * 2.0 * math.pi
                jobs.append({"kind": kind, "seed": int(r.integers(1 << 30)),
                             "centers": [(0.5 + 0.08 * math.cos(a), 0.5 + 0.08 * math.sin(a))
                                         for a in (a0, a0 + 2 * math.pi / 3,
                                                   a0 + 4 * math.pi / 3)]})
        return {"plane": plane, "cap": cap, "square": square, "jobs": jobs}

    def run(self, inputs, i):
        job = inputs["jobs"][i]
        if job["kind"] == "infconv":
            f = scale(-0.5, DistSq(q=job["q"]))
            ic = InfConvolution(f, inputs["plane"], job["eps"], lip_hint=4.0)
            out = []
            for gx, gy in job["ys"]:
                res = ic.query((math.hypot(gx, gy), math.atan2(gy, gx)))
                out.append((res.value, res.in_domain))
            return {"i": i, "values": out}
        if job["kind"] == "concavity":
            cap = inputs["cap"]
            seen = []
            ic = InfConvolution(BoundaryDist(), cap, job["eps"], lip_hint=1.5)

            def recorded(space, y):
                v = ic(space, y)
                seen.append((y[0], v))
                return v

            rep = check_concavity(recorded, cap, 0.0, (job["center"], 0.25),
                                  n_geodesics=1, n_samples=7, seed=job["seed"],
                                  tol=math.inf)
            return {"i": i, "seen": seen, "margin": rep.worst_margin}
        square = inputs["square"]
        funcs = [build_strictly_concave(square, c, r=0.35, c=60.0, n_points=6,
                                        n_geodesics=8, seed=job["seed"])[0]
                 for c in job["centers"]]
        study = tight_image_study(square, funcs, ((0.5, 0.5), 0.05), grid_n=4,
                                  n_support=6, n_gf=2, seed=job["seed"])
        return {"i": i, "funcs": funcs, "failures": study.support_failures,
                "n_support": study.n_support, "gf": study.gf_worst,
                "bilip_low": study.bilip_low}

    def check(self, inputs, rec):
        job = inputs["jobs"][rec["i"]]
        if job["kind"] == "infconv":
            r, phi = job["q"]
            qxy = (r * math.cos(phi), r * math.sin(phi))
            errs = [abs(v - plane_infconv_neg_half_sq(qxy, job["eps"], y))
                    for (v, _), y in zip(rec["values"], job["ys"])]
            return [("c09.closed_form", max(errs), 1e-6)]
        if job["kind"] == "concavity":
            r0 = inputs["cap"].radius
            errs = [abs(v - cap_infconv_boundary_dist(r0, job["eps"], r))
                    for r, v in rec["seen"]]
            return [("cap_closed_form", _max_gap(errs), 1e-6),
                    ("samples_checked", int(len(errs) < 7), 0),
                    ("concave_up_to_noise", rec["margin"], 1e-3)]
        rng = np.random.default_rng(rec["i"])
        worst = -math.inf
        for f in rec["funcs"]:
            bump = f.terms[0]
            centre = np.asarray(f.certificates[0].center, dtype=float)
            for _ in range(8):
                a, b = (centre + 0.05 * _in_disc(rng) for _ in range(2))
                xs = [a + t * (b - a) for t in (0.0, 0.5, 1.0)]
                vals = [sum(t.phi(math.hypot(x[0] - t.q[0], x[1] - t.q[1]))
                            for t in bump.terms) for x in xs]
                h = 0.5 * float(np.linalg.norm(b - a))
                worst = max(worst, (vals[0] - 2 * vals[1] + vals[2]) / (h * h))
        return [("c10.support_failures", rec["failures"], 0),
                ("c10.gf_identity", rec["gf"], 1e-4),
                ("bilipschitz_low_positive", int(not rec["bilip_low"] > 0.0), 0),
                ("coordinates_strictly_concave", int(worst >= 0.0), 0)]

    def kind_of(self, inputs, rec):
        return inputs["jobs"][rec["i"]]["kind"]

    def corrupt(self, inputs, rec):
        bad = copy.copy(rec)
        if "values" in rec:
            bad["values"] = [(v + 1e-3, ok) for v, ok in rec["values"]]
        elif "seen" in rec:
            bad["seen"] = [(r, v + 1e-3) for r, v in rec["seen"]]
        else:
            bad["gf"] = 1e-3
        return bad


# ---------------------------------------------------------------------------
def _point_dist(space, p, q):
    if isinstance(space, SpindleSpace):
        return spindle_dist(space.circle_length, p, q)
    return cone_dist(space.total_angle, p, q)


def _expr_value(expr, space, x):
    """Closed-form value of the benchmark's expression trees."""
    if isinstance(expr, Affine):
        return expr.constant + sum(w * _expr_value(t, space, x)
                                   for w, t in zip(expr.weights, expr.terms))
    if isinstance(expr, MinExpr):
        return min(_expr_value(t, space, x) for t in expr.terms)
    d = _point_dist(space, expr.q, x)
    return d * d if isinstance(expr, DistSq) else d


def _sole_argmin(values, margin=1e-9):
    """Index of the smallest value when it is smaller than the rest by margin."""
    order = sorted(range(len(values)), key=values.__getitem__)
    if len(order) > 1 and values[order[1]] - values[order[0]] <= margin:
        return None
    return order[0]


class TangentFlow(Workload):
    """Tangent arithmetic: multi-term gradient flows, radial curves, gexp, polar."""

    name = "tangent_flow"
    pool = 1200
    tail_level = 0.9
    trace_jobs = 24
    fixed_jobs = 72
    flow_h = 0.02
    flow_steps = 4
    # flows are most of the jobs, so the median job is a flow
    kinds = ("flow_spindle", "radial", "flow_cone", "gexp", "flow_plane", "polar",
             "flow_spindle", "flow_cone")

    def setup(self, seed):
        spindle, cone, plane = SpindleSpace(4.0), ConeSpace(1.5 * math.pi), ConeSpace(2 * math.pi)
        jobs = []
        for i in range(self.pool):
            r = _rng(seed, 4, i)
            kind = self.kinds[i % len(self.kinds)]
            cycle = i // len(self.kinds)
            if kind.startswith("flow"):
                space = {"flow_spindle": spindle, "flow_cone": cone,
                         "flow_plane": plane}[kind]
                # the q_i cluster around a centre and the flow starts about
                # 0.6 away, so the gradient is not small: the scan refines
                # every grid angle within 0.2 of the maximum, and its cost
                # grows as the gradient shrinks
                rc, fc = 0.8 + 0.2 * r.random(), r.random() * 4.0
                qs = [(rc + 0.15 * r.random(), fc + 0.15 * r.random()) for _ in range(3)]
                p0 = (rc + 0.4 + 0.1 * r.random(), fc + 0.5 + 0.1 * r.random())
                ws = 0.5 + 0.2 * r.random(3)
                if kind == "flow_plane" or (cycle + i) % 2 == 0:
                    expr = Affine(weights=tuple(-0.5 * w for w in ws),
                                  terms=tuple(DistSq(q=q) for q in qs))
                else:
                    expr = MinExpr(terms=(
                        Affine(weights=(-0.5 * ws[0], -0.5 * ws[1]),
                               terms=(DistSq(q=qs[0]), DistSq(q=qs[1]))),
                        Affine(weights=(-0.5 * ws[2], -0.5),
                               terms=(DistSq(q=qs[2]), DistSq(q=qs[1])))))
                jobs.append({"kind": kind, "space": space, "expr": expr, "p": p0,
                             "qs": qs, "ws": [float(w) for w in ws]})
            elif kind == "radial":
                on_spindle = cycle % 2 == 0
                space = spindle if on_spindle else cone
                p = (0.25 + 0.25 * r.random(), r.random() * 2.0)
                # aim just past the apex so the geodesic stops minimizing;
                # q sits off to the side, away from the launch direction
                xi = math.pi + (0.05 + 0.3 * r.random()) * (1 if r.random() < 0.5 else -1)
                q = (0.2 + 0.4 * r.random(), p[1] + 0.8 + 0.8 * r.random())
                jobs.append({"kind": kind, "space": space, "kappa": 1 if on_spindle else 0,
                             "p": p, "xi": xi, "q": q,
                             "T": 1.5 if on_spindle else 2.5 * p[0] + 0.5})
            elif kind == "gexp":
                theta = (math.pi / 2, math.pi, 1.5 * math.pi, 2 * math.pi)[cycle % 4]
                pairs = [((1.5 * r.random(), 2 * math.pi * r.random()),
                          (1.5 * r.random(), 2 * math.pi * r.random())) for _ in range(2)]
                jobs.append({"kind": kind, "space": ConeSpace(theta),
                             "p": (1.0, 0.1), "pairs": pairs})
            else:
                # circles longer than pi and an arc of length pi: on shorter
                # direction spaces every unit pair has <v, x> >= 0 and the
                # polar inequality holds for any candidate
                is_arc = cycle % 4 == 0
                length = math.pi if is_arc else (4.0, 1.5 * math.pi, 2 * math.pi)[cycle % 3]
                jobs.append({"kind": kind, "sigma": SigmaDesc(length, is_arc=is_arc),
                             "angles": [length * r.random() for _ in range(3)]})
        return jobs

    def run(self, jobs, i):
        job = jobs[i]
        kind = job["kind"]
        if kind.startswith("flow"):
            rec = gradient_curve(job["expr"], job["space"], job["p"],
                                 self.flow_steps * self.flow_h, self.flow_h)
            return {"i": i, "points": list(rec.points),
                    "speeds": [v.norm if v is not None else 0.0
                               for v in rec.right_tangents]}
        if kind == "radial":
            rec = radial_curve(job["space"], job["p"], job["xi"], job["kappa"],
                               job["T"], 0.01)
            regime = any(k == "regime" or k == "vertex" for _, k, _ in rec.events)
            return {"i": i, "ts": list(rec.ts), "points": list(rec.points),
                    "grad_regime": regime}
        if kind == "gexp":
            space, p = job["space"], job["p"]
            sig = space.sigma_at(p)
            out = []
            for (nu, au), (nv, av) in job["pairs"]:
                u, v = TangentVec(nu, au, sig), TangentVec(nv, av, sig)
                out.append((gexp_map(space, p, u, 0, 1e-3), gexp_map(space, p, v, 0, 1e-3)))
            return {"i": i, "ends": out}
        sig = job["sigma"]
        stars = [polar_vector(sig, TangentVec(1.0, a, sig), grid=720, tol=1e-9).angle
                 for a in job["angles"]]
        return {"i": i, "stars": stars}

    def check(self, jobs, rec):
        job = jobs[rec["i"]]
        kind = job["kind"]
        if kind.startswith("flow"):
            space, expr, pts = job["space"], job["expr"], rec["points"]
            h = self.flow_h
            # f never decreases along a step that stays on one piece of a
            # MinExpr; a discrete step across the ridge of a min may
            pieces = expr.terms if isinstance(expr, MinExpr) else (expr,)
            vals = [[_expr_value(t, space, x) for t in pieces] for x in pts]
            lead = [_sole_argmin(v) for v in vals]
            drops = [min(u) - min(v) for u, v, a, b in zip(vals, vals[1:], lead, lead[1:])
                     if a is not None and a == b]
            chords = [_point_dist(space, a, b) for a, b in zip(pts, pts[1:])]
            gates = [("ascent", _max_gap(drops), 1e-9),
                     ("chord_le_speed_step",
                      _max_gap([c - h * s for c, s in zip(chords, rec["speeds"])]), 1e-9),
                     ("moved", int(not chords or max(chords) <= 0.0), 0)]
            if kind == "flow_plane":
                # the gradient of -sum w_i |x - q_i|^2 / 2 is -W (x - c), so each
                # step of size h maps x - c to (1 - W h)(x - c)
                xy = [np.array([r * math.cos(f), r * math.sin(f)])
                      for r, f in [job["p"]] + job["qs"]]
                ws = np.array(job["ws"])
                c = sum(w * q for w, q in zip(ws, xy[1:])) / ws.sum()
                exact = c + (1.0 - ws.sum() * h) ** self.flow_steps * (xy[0] - c)
                r, f = pts[-1]
                got = np.array([r * math.cos(f), r * math.sin(f)])
                gates.append(("c02.euler_closed_form",
                              float(np.linalg.norm(got - exact)), 1e-6))
            return gates
        if kind == "radial":
            space, kappa, p, q = job["space"], job["kappa"], job["p"], job["q"]
            dpq = _point_dist(space, p, q)
            angles = [model_angle(kappa, t, _point_dist(space, x, q), dpq)
                      for t, x in zip(rec["ts"][1:], rec["points"][1:])]
            rise = _max_gap([b - a for a, b in zip(angles, angles[1:])])
            return [("c04.comparison_monotone", rise, 1e-6 + 10 * 0.01),
                    ("entered_gradient_regime", int(not rec["grad_regime"]), 0)]
        if kind == "gexp":
            space, p = job["space"], job["p"]
            length = space.sigma_at(p).length
            excess = []
            for (du, dv), ((nu, au), (nv, av)) in zip(rec["ends"], job["pairs"]):
                excess.append(_point_dist(space, du, dv)
                              - cone_tangent_metric((nu, au, length), (nv, av, length)))
            return [("c03.shortness", max(excess), 1e-3)]
        sig = job["sigma"]
        worst = 0.0
        for a, s in zip(job["angles"], rec["stars"]):
            for k in range(721 if sig.is_arc else 720):
                x = sig.length * k / 720.0
                val = (math.cos(min(direction_dist(a, x, sig.length, sig.is_arc), math.pi))
                       + math.cos(min(direction_dist(s, x, sig.length, sig.is_arc), math.pi)))
                worst = min(worst, val)
        return [("c07.polar_inequality", -worst, 1e-9)]

    def kind_of(self, jobs, rec):
        return jobs[rec["i"]]["kind"]

    def corrupt(self, jobs, rec):
        job = jobs[rec["i"]]
        bad = copy.copy(rec)
        if "stars" in rec:
            bad["stars"] = list(job["angles"])  # v in place of its polar
        elif "ends" in rec:
            # further from dv than |u| + |v| <= 3 allows
            bad["ends"] = [((dv[0] + 3.5, dv[1]), dv) for _, dv in rec["ends"]]
        elif "speeds" in rec:
            bad["speeds"] = [0.5 * s for s in rec["speeds"]]
        else:
            # a point at q drops the comparison angle to 0 and back up
            bad["points"] = list(rec["points"])
            bad["points"][1] = job["q"]
        return bad


WORKLOADS = {w.name: w for w in (QgTetra(), MeshField(), ClosedVerify(), TangentFlow())}
