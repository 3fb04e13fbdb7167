"""Triangulated polyhedral surface with exact unfolded distances.

Points are (face index, barycentric triple).  Each face carries a flat
2-D chart; crossing an edge composes a cached rigid motion between the
two charts.  One branch-and-bound engine, `MeshSpace._unfold`, enumerates
unfolded edge sequences from a source; each accepted candidate is a
realizable straight path, and pruning keeps the result exact up to the
depth cutoff, whose lower bound the engine reports.  Distances (`_bnb`)
and minimizing directions (`_funnel_directions`) are thin callers that
only choose targets, pruning and what a hit records.  Distances combine
the engine with a Dijkstra pass over vertex-routed legs.  A subdivision
graph Dijkstra provides an independent upper-bound certificate on
demand.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .base import SigmaDesc, SpaceError, WalkResult, wrap_angle

TWO_PI = 2.0 * math.pi
_VERTEX_SNAP = 1e-9


@dataclass(frozen=True)
class MeshPoint:
    face: int
    bary: tuple

    def __iter__(self):
        yield self.face
        yield self.bary


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass
class _Rigid:
    R: np.ndarray
    t: np.ndarray

    def apply(self, p):
        return self.R @ p + self.t

    def apply_dir(self, d):
        return self.R @ d

    def compose(self, other):
        """self after other: x -> self(other(x))."""
        return _Rigid(self.R @ other.R, self.R @ other.t + self.t)


class MeshSpace:
    variant = "mesh"
    kappa = 0.0

    def __init__(self, triangles, edge_lengths=None, coords=None, max_depth=12):
        """Build from triangles plus either 3-D coords or intrinsic lengths.

        `edge_lengths` maps frozenset({i, j}) -> length.  Interior vertex
        cone angles must not exceed 2*pi (the curvature >= 0 condition,
        checked at load).
        """
        self.faces = [tuple(int(i) for i in t) for t in triangles]
        self.max_depth = max_depth
        nv = max(max(f) for f in self.faces) + 1
        self.nv = nv
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            edge_lengths = {}
            for (i, j, k) in self.faces:
                for a, b in ((i, j), (j, k), (k, i)):
                    edge_lengths[frozenset((a, b))] = float(
                        np.linalg.norm(coords[a] - coords[b])
                    )
        if edge_lengths is None:
            raise SpaceError("mesh needs coords or edge_lengths")
        self.edge_lengths = edge_lengths
        self._orient_consistently()
        self._build_charts()
        self._build_adjacency()
        self._build_vertex_fans()
        self._validate_curvature()
        self._vv_cache = None
        self._pv_cache = {}
        self._dist_cache = {}
        self._diam = None

    # ------------------------------------------------------------------
    def describe(self):
        return {
            "type": "mesh",
            "triangles": [list(f) for f in self.faces],
            "edge_lengths": [
                [sorted(e)[0], sorted(e)[1], L] for e, L in self.edge_lengths.items()
            ],
        }

    def _orient_consistently(self):
        edge_faces = {}
        for fi, (i, j, k) in enumerate(self.faces):
            for a, b in ((i, j), (j, k), (k, i)):
                edge_faces.setdefault(frozenset((a, b)), []).append(fi)
        for e, fs in edge_faces.items():
            if len(fs) > 2:
                raise SpaceError(f"edge {sorted(e)} bounds more than two faces")
        oriented = list(self.faces)
        seen = {0}
        stack = [0]
        while stack:
            fi = stack.pop()
            i, j, k = oriented[fi]
            for a, b in ((i, j), (j, k), (k, i)):
                for gi in edge_faces[frozenset((a, b))]:
                    if gi in seen or gi == fi:
                        continue
                    g = oriented[gi]
                    gdirs = [(g[0], g[1]), (g[1], g[2]), (g[2], g[0])]
                    if (a, b) in gdirs:  # same order: flip to keep orientations opposed
                        oriented[gi] = (g[0], g[2], g[1])
                    seen.add(gi)
                    stack.append(gi)
        if len(seen) != len(self.faces):
            raise SpaceError("mesh is not edge-connected")
        self.faces = oriented

    def _build_charts(self):
        self.charts = []
        for (i, j, k) in self.faces:
            lij = self.edge_lengths[frozenset((i, j))]
            ljk = self.edge_lengths[frozenset((j, k))]
            lik = self.edge_lengths[frozenset((i, k))]
            if not (lij + ljk > lik and ljk + lik > lij and lik + lij > ljk):
                raise SpaceError(f"face ({i},{j},{k}) violates the triangle inequality")
            x = (lij * lij + lik * lik - ljk * ljk) / (2.0 * lij)
            y2 = lik * lik - x * x
            if y2 <= 0.0:
                raise SpaceError(f"face ({i},{j},{k}) is degenerate")
            self.charts.append(np.array([[0.0, 0.0], [lij, 0.0], [x, math.sqrt(y2)]]))
        self.scale = max(self.edge_lengths.values())

    def _build_adjacency(self):
        # local edge e of face (i,j,k): e0=(i,j), e1=(j,k), e2=(k,i)
        owner = {}
        self.nbr = [[None, None, None] for _ in self.faces]
        for fi, (i, j, k) in enumerate(self.faces):
            for e, (a, b) in enumerate(((i, j), (j, k), (k, i))):
                key = frozenset((a, b))
                if key in owner:
                    gj, ge = owner[key]
                    self.nbr[fi][e] = (gj, ge)
                    self.nbr[gj][ge] = (fi, e)
                else:
                    owner[key] = (fi, e)
        self.boundary_edges = [
            (fi, e)
            for fi in range(len(self.faces))
            for e in range(3)
            if self.nbr[fi][e] is None
        ]
        self.has_boundary = bool(self.boundary_edges)
        self._cross = {}
        # edge ids for the crossed-once rule of shortest-path enumeration
        self.edge_ids = {}
        for fi, (i, j, k) in enumerate(self.faces):
            for a, b in ((i, j), (j, k), (k, i)):
                key = frozenset((a, b))
                if key not in self.edge_ids:
                    self.edge_ids[key] = len(self.edge_ids)

    def _edge_bit(self, fi, e):
        f = self.faces[fi]
        key = frozenset((f[e], f[(e + 1) % 3]))
        return 1 << self.edge_ids[key]

    def crossing(self, fi, e):
        """Rigid motion chart_fi -> chart_g across local edge e of face fi."""
        key = (fi, e)
        if key in self._cross:
            return self._cross[key]
        nb = self.nbr[fi][e]
        if nb is None:
            raise SpaceError("crossing a boundary edge")
        gj, ge = nb
        a_f = self.charts[fi][e]
        b_f = self.charts[fi][(e + 1) % 3]
        a_g = self.charts[gj][(ge + 1) % 3]  # shared edge appears reversed in g
        b_g = self.charts[gj][ge]
        va = b_f - a_f
        vb = b_g - a_g
        ang = math.atan2(vb[1], vb[0]) - math.atan2(va[1], va[0])
        R = _rot(ang)
        M = _Rigid(R, a_g - R @ a_f)
        self._cross[key] = M
        return M

    def _g_to_f(self, fi, e):
        """Inverse crossing: chart of the neighbor across e back into chart_fi."""
        key = ("inv", fi, e)
        if key in self._cross:
            return self._cross[key]
        M = self.crossing(fi, e)
        Rinv = M.R.T
        inv = _Rigid(Rinv, -(Rinv @ M.t))
        self._cross[key] = inv
        return inv

    def _build_vertex_fans(self):
        corner_angle = {}
        at_vertex = {v: [] for v in range(self.nv)}
        for fi, f in enumerate(self.faces):
            ch = self.charts[fi]
            for c in range(3):
                u = ch[(c + 1) % 3] - ch[c]
                w = ch[(c + 2) % 3] - ch[c]
                cosang = float(np.dot(u, w)) / (np.linalg.norm(u) * np.linalg.norm(w))
                corner_angle[(fi, c)] = math.acos(max(-1.0, min(1.0, cosang)))
                at_vertex[f[c]].append((fi, c))
        self.fans = {}
        self.vertex_boundary = {}
        for v, corners in at_vertex.items():
            if not corners:
                continue
            start = None
            for fi, c in corners:
                # the wedge at corner c runs CCW from edge c (v to c+1) to
                # edge c+2 (c+2 to v); a fan starts at a boundary edge c
                if self.nbr[fi][c] is None:
                    start = (fi, c)
            boundary = start is not None
            if start is None:
                start = min(corners)
            order = [start]
            while True:
                fi, c = order[-1]
                nb = self.nbr[fi][(c + 2) % 3]  # CCW successor: across edge c+2
                if nb is None:
                    break
                gj, ge = nb
                nxt = (gj, ge)  # the shared edge runs v to c+2 in g: v is at ge
                if nxt == start:
                    break
                order.append(nxt)
                if len(order) > len(corners) + 1:
                    raise SpaceError(f"broken fan at vertex {v}")
            offsets = [0.0]
            for fi, c in order:
                offsets.append(offsets[-1] + corner_angle[(fi, c)])
            self.fans[v] = (order, offsets)
            self.vertex_boundary[v] = boundary

    def cone_angle_at_vertex(self, v):
        return self.fans[v][1][-1]

    def _validate_curvature(self):
        for v in range(self.nv):
            if v not in self.fans:
                continue
            if not self.vertex_boundary[v] and self.cone_angle_at_vertex(v) > TWO_PI + 1e-9:
                raise SpaceError(
                    f"interior vertex {v} has cone angle > 2*pi: curvature bound violated"
                )

    # -- points ----------------------------------------------------------
    def validate_point(self, p):
        if not isinstance(p, MeshPoint):
            f, b = p
            p = MeshPoint(int(f), tuple(float(x) for x in b))
        if p.face < 0 or p.face >= len(self.faces):
            raise SpaceError(f"face {p.face} out of range")
        if len(p.bary) != 3 or min(p.bary) < -1e-9 or abs(sum(p.bary) - 1.0) > 1e-8:
            raise SpaceError(f"invalid barycentric triple {p.bary}")
        return p

    def pos2(self, p):
        p = self.validate_point(p)
        return self.charts[p.face].T @ np.asarray(p.bary)

    def bary(self, face, xy):
        ch = self.charts[face]
        T = np.array([ch[0] - ch[2], ch[1] - ch[2]]).T
        l12 = np.linalg.solve(T, np.asarray(xy) - ch[2])
        return MeshPoint(face, (float(l12[0]), float(l12[1]),
                                float(1.0 - l12[0] - l12[1])))

    def point_at_vertex(self, v):
        fi, c = self.fans[v][0][0]
        b = [0.0, 0.0, 0.0]
        b[c] = 1.0
        return MeshPoint(fi, tuple(b))

    def vertex_of_point(self, p, tol=_VERTEX_SNAP):
        p = self.validate_point(p)
        for c in range(3):
            if p.bary[c] >= 1.0 - tol:
                return self.faces[p.face][c]
        return None

    def classify(self, p, tol=1e-9):
        p = self.validate_point(p)
        v = self.vertex_of_point(p, tol)
        if v is not None:
            return ("vertex", v)
        for c in range(3):
            if p.bary[c] <= tol:
                return ("edge", p.face, (c + 1) % 3)  # on the local edge opposite c
        return ("interior", p.face)

    def random_point(self, rng):
        areas = np.array([
            abs((ch[1][0] - ch[0][0]) * (ch[2][1] - ch[0][1])
                - (ch[1][1] - ch[0][1]) * (ch[2][0] - ch[0][0])) / 2.0
            for ch in self.charts
        ])
        f = int(rng.choice(len(self.faces), p=areas / areas.sum()))
        a, b = rng.random(), rng.random()
        if a + b > 1.0:
            a, b = 1.0 - a, 1.0 - b
        return MeshPoint(f, (float(a), float(b), float(1.0 - a - b)))

    def random_point_near(self, p, radius, rng):
        for _ in range(64):
            ang = rng.random() * self.sigma_at(p).length
            try:
                w = self.walk(p, ang, radius * math.sqrt(rng.random()))
            except SpaceError:
                continue
            if w.event is None:
                return w.end
        return p

    def diameter_hint(self):
        if self._diam is None:
            d = max(self.edge_lengths.values())
            for v in range(self.nv):
                for w in range(v + 1, self.nv):
                    d = max(d, self.vertex_distance(v, w))
            self._diam = d
        return self._diam

    # -- sigma charts ------------------------------------------------------
    def sigma_at(self, p):
        kind = self.classify(p)
        if kind[0] == "vertex":
            v = kind[1]
            return SigmaDesc(self.cone_angle_at_vertex(v), is_arc=self.vertex_boundary[v])
        if kind[0] == "edge":
            fi, e = kind[1], kind[2]
            if self.nbr[fi][e] is None:
                return SigmaDesc(math.pi, is_arc=True)
            return SigmaDesc(TWO_PI)
        return SigmaDesc(TWO_PI)

    def _edge_chart_ref(self, fi, e):
        a = self.charts[fi][e]
        b = self.charts[fi][(e + 1) % 3]
        d = b - a
        return math.atan2(d[1], d[0])

    def chart_angle_of_dir(self, p, face, d):
        """Sigma coordinate at p of the chart direction d given in `face`."""
        kind = self.classify(p)
        if kind[0] == "interior":
            if face != kind[1]:
                raise SpaceError("direction face mismatch")
            return wrap_angle(math.atan2(d[1], d[0]), TWO_PI)
        if kind[0] == "edge":
            fi, e = kind[1], kind[2]
            if face != fi:
                nb = self.nbr[fi][e]
                if nb is None or face != nb[0]:
                    raise SpaceError("direction face mismatch")
                d = self._g_to_f(fi, e).apply_dir(np.asarray(d))
            ref = self._edge_chart_ref(fi, e)
            return wrap_angle(math.atan2(d[1], d[0]) - ref, TWO_PI)
        v = kind[1]
        order, offsets = self.fans[v]
        for (fi, c), off in zip(order, offsets):
            if fi == face:
                ch = self.charts[fi]
                ref = ch[(c + 1) % 3] - ch[c]
                rel = wrap_angle(
                    math.atan2(d[1], d[0]) - math.atan2(ref[1], ref[0]), TWO_PI
                )
                if rel > math.pi:  # direction numerically below the wedge start
                    rel -= TWO_PI
                L = self.cone_angle_at_vertex(v)
                out = off + rel
                return out if self.vertex_boundary[v] else wrap_angle(out, L)
        raise SpaceError("direction face not incident to vertex")

    def dir_of_chart_angle(self, p, angle):
        """Inverse of chart_angle_of_dir: (face, unit chart vector)."""
        kind = self.classify(p)
        if kind[0] == "interior":
            return kind[1], np.array([math.cos(angle), math.sin(angle)])
        if kind[0] == "edge":
            fi, e = kind[1], kind[2]
            ref = self._edge_chart_ref(fi, e)
            a = wrap_angle(angle, TWO_PI)
            d = np.array([math.cos(a + ref), math.sin(a + ref)])
            if a <= math.pi or self.nbr[fi][e] is None:
                return fi, d
            return self.nbr[fi][e][0], self.crossing(fi, e).apply_dir(d)
        v = kind[1]
        order, offsets = self.fans[v]
        L = self.cone_angle_at_vertex(v)
        a = angle if self.vertex_boundary[v] else wrap_angle(angle, L)
        a = min(max(a, 0.0), L)
        for (fi, c), off, off2 in zip(order, offsets, offsets[1:]):
            if a <= off2 + 1e-12:
                ch = self.charts[fi]
                ref = ch[(c + 1) % 3] - ch[c]
                t = math.atan2(ref[1], ref[0]) + (a - off)
                return fi, np.array([math.cos(t), math.sin(t)])
        fi, c = order[-1]
        ch = self.charts[fi]
        ref = ch[(c + 1) % 3] - ch[c]
        t = math.atan2(ref[1], ref[0]) + (a - offsets[-2])
        return fi, np.array([math.cos(t), math.sin(t)])

    # -- walking ------------------------------------------------------------
    def walk(self, p, angle, length, max_crossings=100000):
        p = self.validate_point(p)
        if length < 0.0:
            raise SpaceError("negative walk length")
        face, d = self.dir_of_chart_angle(p, angle)
        kind = self.classify(p)
        if kind[0] == "vertex":
            pos = self.charts[face][self.faces[face].index(kind[1])].copy()
        elif kind[0] == "edge" and face != p.face:
            pos = self.crossing(p.face, kind[2]).apply(self.pos2(p))
        else:
            pos = self.pos2(p)
        remaining = float(length)
        traveled = 0.0
        for _ in range(max_crossings):
            hit = self._face_exit(face, pos, d)
            if hit is None:
                raise SpaceError("walk failed to find an exit edge")
            t_exit, e_exit, _ = hit
            if remaining <= t_exit:
                end_pos = pos + remaining * d
                end = self.bary(face, end_pos)
                v_hit = self.vertex_of_point(end)
                if v_hit is not None:
                    end = self.point_at_vertex(v_hit)
                    back = self.chart_angle_of_dir(end, face, -d)
                    return WalkResult(end, traveled + remaining, back,
                                      self.sigma_at(end), event="vertex",
                                      event_ref=v_hit)
                back = self.chart_angle_of_dir(end, face, -d)
                return WalkResult(end, traveled + remaining, back, self.sigma_at(end))
            cross_pos = pos + t_exit * d
            a = self.charts[face][e_exit]
            b = self.charts[face][(e_exit + 1) % 3]
            elen = float(np.linalg.norm(b - a))
            for corner, cpos in ((e_exit, a), ((e_exit + 1) % 3, b)):
                if np.linalg.norm(cross_pos - cpos) <= _VERTEX_SNAP * max(1.0, elen):
                    v = self.faces[face][corner]
                    tv = float(np.linalg.norm(cpos - pos))
                    end = self.point_at_vertex(v)
                    back = self.chart_angle_of_dir(end, face, -d)
                    return WalkResult(end, traveled + tv, back, self.sigma_at(end),
                                      event="vertex", event_ref=v)
            nb = self.nbr[face][e_exit]
            if nb is None:
                end = self.bary(face, cross_pos)
                back = self.chart_angle_of_dir(end, face, -d)
                return WalkResult(end, traveled + t_exit, back, self.sigma_at(end),
                                  event="boundary")
            M = self.crossing(face, e_exit)
            pos = M.apply(cross_pos)
            d = M.apply_dir(d)
            face = nb[0]
            remaining -= t_exit
            traveled += t_exit
        raise SpaceError("walk exceeded the crossing budget")

    def _face_exit(self, face, pos, d):
        best = None
        ch = self.charts[face]
        for e in range(3):
            a, b = ch[e], ch[(e + 1) % 3]
            ex, ey = b[0] - a[0], b[1] - a[1]
            denom = d[0] * ey - d[1] * ex
            if abs(denom) < 1e-16:
                continue
            t = ((a[0] - pos[0]) * ey - (a[1] - pos[1]) * ex) / denom
            if t <= 1e-12:
                continue
            s = (d[1] * (a[0] - pos[0]) - d[0] * (a[1] - pos[1])) / denom
            if -1e-9 <= s <= 1.0 + 1e-9:
                if best is None or t < best[0]:
                    best = (t, e, min(max(s, 0.0), 1.0))
        return best

    # -- distance machinery ----------------------------------------------
    def _face_images(self, q):
        """q in its own face chart, plus its image across the edge it lies on."""
        q = self.validate_point(q)
        pos = self.pos2(q)
        images = [(q.face, pos)]
        kind = self.classify(q)
        if kind[0] == "edge":
            nb = self.nbr[q.face][kind[2]]
            if nb is not None:
                images.append((nb[0], self.crossing(q.face, kind[2]).apply(pos)))
        return images

    def _anchors(self, p):
        """(face, position) pairs of p: a vertex's fan corners, else its face images."""
        v = self.vertex_of_point(p)
        if v is None:
            return self._face_images(p), None
        return [(fi, self.charts[fi][c]) for fi, c in self.fans[v][0]], v

    @staticmethod
    def _seg_dist(p, a, b):
        ab = b - a
        L2 = float(ab @ ab)
        if L2 <= 1e-300:
            return float(np.linalg.norm(p - a))
        t = min(max(float((p - a) @ ab) / L2, 0.0), 1.0)
        return float(np.linalg.norm(p - (a + t * ab)))

    @staticmethod
    def _clip_to_wedge(src, w0, w1, a, b):
        """Clip segment [a, b] to the closed wedge from src through [w0, w1]."""
        e0 = w0 - src
        e1 = w1 - src
        n0 = np.array([-e0[1], e0[0]])
        n1 = np.array([-e1[1], e1[0]])
        s0 = float(e1 @ n0)  # which side of ray(src,w0) the wedge lies on
        s1 = float(e0 @ n1)
        lo, hi = 0.0, 1.0
        for n, s in ((n0, s0), (n1, s1)):
            sign = 1.0 if s >= 0.0 else -1.0
            fa = sign * float((a - src) @ n)
            fb = sign * float((b - src) @ n)
            if fa < -1e-12 and fb < -1e-12:
                return None
            if abs(fb - fa) > 1e-300:
                t = fa / (fa - fb)
                if fa < 0.0:
                    lo = max(lo, t)
                elif fb < 0.0:
                    hi = min(hi, t)
        if lo > hi + 1e-12:
            return None
        return a + lo * (b - a), a + hi * (b - a)

    def _chain_ok(self, src, tp, window, parent, parents):
        """Validate that src->tp crosses every ancestor window in order."""
        seg = tp - src
        if float(seg @ seg) <= 1e-300:
            return True
        chain = [(None, window[0], window[1])]
        pid = parent
        while pid is not None:
            pr = parents.get(pid)
            if pr is None:
                break
            chain.append(pr)
            pid = pr[0]
        t_prev = 1.0 + 1e-9
        for _, w0, w1 in chain:
            e = w1 - w0
            denom = seg[0] * e[1] - seg[1] * e[0]
            if abs(denom) < 1e-14:
                # degenerate or parallel window: require src->tp to pass near it
                if self._seg_dist(0.5 * (w0 + w1), src, tp) > 1e-7:
                    return False
                continue
            t = ((w0[0] - src[0]) * e[1] - (w0[1] - src[1]) * e[0]) / denom
            s = (seg[1] * (w0[0] - src[0]) - seg[0] * (w0[1] - src[1])) / denom
            if s < -1e-7 or s > 1.0 + 1e-7:
                return False
            if t < -1e-9 or t > t_prev + 1e-7:
                return False
            t_prev = t
        return True

    def _unfold(self, p, targets, keep, want, hit):
        """Branch-and-bound over unfolded edge sequences from p.

        The one window loop behind both distances and directions.  A
        state is a face unfolded into the chart of an anchor of p,
        together with the window (in anchor coordinates) through which
        straight segments from the anchor enter it.  States pop in order
        of their lower bound, the distance from the anchor to the window.

        `targets` maps a face to (key, chart position) pairs.  Each
        target is tried straight from every anchor in its face and from
        every popped state in its face.  The caller filters: `want(key,
        d)` runs first and cheaply on the straight length d, and only
        then does the engine check that the segment crosses every
        ancestor window; a segment that passes both is reported as
        `hit(key, d, face, seg)`, with seg the anchor-chart vector in
        `face`.  The caller prunes: the loop stops at the first popped
        state with `not keep(lb)`, and children failing `keep` are never
        pushed.

        Returns `unresolved`: the smallest lower bound among states cut
        at depth `max_depth` (inf when none was cut).  Every straight
        path that the cutoff hid is at least that long, so a result
        below it misses nothing but what `keep` pruned.
        """
        anchors, src_vertex = self._anchors(p)
        for fi, src in anchors:
            for key, tp in targets.get(fi, ()):
                d = float(np.linalg.norm(tp - src))
                if want(key, d):
                    hit(key, d, fi, tp - src)
        if src_vertex is None:
            first = [(fi, src, e) for fi, src in anchors for e in range(3)]
        else:  # from a vertex only the edge opposite its corner leaves the face
            first = [(fi, self.charts[fi][c], (c + 1) % 3)
                     for fi, c in self.fans[src_vertex][0]]
        heap = []
        for fi, src, e in first:
            nb = self.nbr[fi][e]
            if nb is not None:
                w0, w1 = self.charts[fi][e], self.charts[fi][(e + 1) % 3]
                heap.append((self._seg_dist(src, w0, w1), len(heap), fi, nb[0],
                             self._g_to_f(fi, e), w0, w1, src, 1, None,
                             self._edge_bit(fi, e)))
        heapq.heapify(heap)
        counter = len(heap)
        unresolved = math.inf
        parents = {}
        while heap:
            lb, cid, af, fi, M, w0, w1, src, depth, parent, crossed = heapq.heappop(heap)
            if not keep(lb):
                break
            for key, tp_chart in targets.get(fi, ()):
                tp = M.apply(tp_chart)
                d = float(np.linalg.norm(tp - src))
                if want(key, d) and self._chain_ok(src, tp, (w0, w1), parent, parents):
                    hit(key, d, af, tp - src)
            if depth >= self.max_depth:
                unresolved = min(unresolved, lb)
                continue
            parents[cid] = (parent, w0, w1)
            for e in range(3):
                nb = self.nbr[fi][e]
                if nb is None:
                    continue
                bit = self._edge_bit(fi, e)
                if crossed & bit:
                    # shortest vertex-avoiding paths cross an edge at most
                    # once on these nonnegatively curved surfaces
                    continue
                a2 = M.apply(self.charts[fi][e])
                b2 = M.apply(self.charts[fi][(e + 1) % 3])
                clipped = self._clip_to_wedge(src, w0, w1, a2, b2)
                if clipped is None:
                    continue
                if float(np.linalg.norm(clipped[1] - clipped[0])) < 1e-12:
                    continue  # window pinched at a vertex: vertex routing covers it
                lb2 = self._seg_dist(src, clipped[0], clipped[1])
                if keep(lb2):
                    heapq.heappush(
                        heap,
                        (lb2, counter, af, nb[0], M.compose(self._g_to_f(fi, e)),
                         clipped[0], clipped[1], src, depth + 1, cid, crossed | bit),
                    )
                    counter += 1
        return unresolved

    def _bnb(self, p, target_points=(), target_vertices=(), upper_cap=math.inf):
        """Vertex-avoiding path lengths from p, by `_unfold`.

        Returns (best, unresolved) where best maps ("pt", i) / ("vx", v)
        to path lengths and `unresolved` is the engine's depth-cutoff
        bound.  Branches at least as long as the worst current target,
        or as `upper_cap`, are certified irrelevant and pruned.
        """
        target_points = [self.validate_point(q) for q in target_points]
        target_vertices = list(target_vertices)
        src_vertex = self.vertex_of_point(p)
        targets = {}
        for i, q in enumerate(target_points):
            for fi, pos in self._face_images(q):
                targets.setdefault(fi, []).append((("pt", i), pos))
        for v in target_vertices:
            if v != src_vertex:
                for fi, c in self.fans[v][0]:
                    targets.setdefault(fi, []).append((("vx", v), self.charts[fi][c]))
        best = {}
        if src_vertex in target_vertices:
            best[("vx", src_vertex)] = 0.0

        def keep(lb):
            vals = [best.get(("pt", i), math.inf) for i in range(len(target_points))]
            vals += [best.get(("vx", v), math.inf) for v in target_vertices]
            return lb < min(max(vals) if vals else math.inf, upper_cap) - 1e-12

        def want(key, d):
            return d < best.get(key, math.inf)

        def hit(key, d, face, seg):
            best[key] = d

        return best, self._unfold(p, targets, keep, want, hit)

    def _point_key(self, p):
        p = self.validate_point(p)
        return (p.face, round(p.bary[0], 12), round(p.bary[1], 12))

    def point_vertex_dists(self, p):
        """Cached vertex-avoiding distances from p to every vertex."""
        key = self._point_key(p)
        hit = self._pv_cache.get(key)
        if hit is not None:
            return hit
        best, un = self._bnb(p, target_vertices=list(range(self.nv)))
        out = ({v: best.get(("vx", v), math.inf) for v in range(self.nv)}, un)
        if len(self._pv_cache) > 4096:
            self._pv_cache.clear()
        self._pv_cache[key] = out
        return out

    def vertex_distance(self, v, w):
        self._ensure_vv()
        if v == w:
            return 0.0
        return self._vv_cache.get((min(v, w), max(v, w)), math.inf)

    def _ensure_vv(self):
        if self._vv_cache is not None:
            return
        self._vv_cache = {}
        direct = {}
        for v in range(self.nv):
            if v not in self.fans:
                continue
            dv, _ = self.point_vertex_dists(self.point_at_vertex(v))
            for w, d in dv.items():
                if w != v:
                    key = (min(v, w), max(v, w))
                    direct[key] = min(direct.get(key, math.inf), d)
        for v in range(self.nv):
            dist = {v: 0.0}
            pq = [(0.0, v)]
            while pq:
                d, x = heapq.heappop(pq)
                if d > dist.get(x, math.inf):
                    continue
                for w in range(self.nv):
                    if w == x:
                        continue
                    nd = d + direct.get((min(x, w), max(x, w)), math.inf)
                    if nd < dist.get(w, math.inf) - 1e-15:
                        dist[w] = nd
                        heapq.heappush(pq, (nd, w))
            for w, d in dist.items():
                if w != v:
                    key = (min(v, w), max(v, w))
                    self._vv_cache[key] = min(self._vv_cache.get(key, math.inf), d)

    def _routed(self, dp_map, dq_map):
        self._ensure_vv()
        routed = math.inf
        for v, dp in dp_map.items():
            if not math.isfinite(dp):
                continue
            for w, dq in dq_map.items():
                if not math.isfinite(dq):
                    continue
                leg = 0.0 if v == w else self._vv_cache.get((min(v, w), max(v, w)), math.inf)
                routed = min(routed, dp + leg + dq)
        return routed

    def distance_with_error(self, p, q):
        p, q = self.validate_point(p), self.validate_point(q)
        key = (self._point_key(p), self._point_key(q))
        hit = self._dist_cache.get(key)
        if hit is not None:
            return hit
        best, un_p = self._bnb(p, target_points=[q])
        direct = best.get(("pt", 0), math.inf)
        dp_map, un_p2 = self.point_vertex_dists(p)
        # vertex routing can only matter when some vertex is nearer than q
        if direct <= min(dp_map.values()) + 1e-15:
            d, un = direct, min(un_p, un_p2)
        else:
            dq_best, un_q = self._bnb(q, target_vertices=list(range(self.nv)),
                                      upper_cap=direct)
            dq_map = {v: dq_best.get(("vx", v), math.inf) for v in range(self.nv)}
            d = min(direct, self._routed(dp_map, dq_map))
            un = min(un_p, un_p2, un_q)
        err = max(0.0, d - un) if un < d else 0.0
        if len(self._dist_cache) > 16384:
            self._dist_cache.clear()
        self._dist_cache[key] = (d, err)
        return d, err

    def distance(self, p, q):
        return self.distance_with_error(p, q)[0]

    def distances_from(self, p, targets):
        """One-to-many distances sharing a single unfolding pass from p."""
        targets = [self.validate_point(q) for q in targets]
        best, un_p = self._bnb(p, target_points=targets,
                               target_vertices=list(range(self.nv)))
        dp_map = {v: best.get(("vx", v), math.inf) for v in range(self.nv)}
        near_v = min(dp_map.values())
        out = []
        for i, q in enumerate(targets):
            direct = best.get(("pt", i), math.inf)
            if direct <= near_v + 1e-15:
                d, un = direct, un_p
            else:
                dq_map, un_q = self.point_vertex_dists(q)
                d = min(direct, self._routed(dp_map, dq_map))
                un = min(un_p, un_q)
            out.append((d, max(0.0, d - un) if un < d else 0.0))
        return out

    # -- directions and geodesics ------------------------------------------
    def directions_to(self, p, q, tol=1e-7):
        """Sigma chart angles at p of minimizing first segments toward q."""
        p, q = self.validate_point(p), self.validate_point(q)
        d0, _ = self.distance_with_error(p, q)
        dirs = self._funnel_directions(p, q, d0, tol)
        dp_map, _ = self.point_vertex_dists(p)
        if d0 + tol >= min(dp_map.values()):
            dq_map, _ = self.point_vertex_dists(q)
            self._ensure_vv()
            for v in range(self.nv):
                if v not in self.fans:
                    continue
                dp = dp_map.get(v, math.inf)
                if dp <= 1e-12:
                    continue
                for w in range(self.nv):
                    leg = 0.0 if v == w else self._vv_cache.get(
                        (min(v, w), max(v, w)), math.inf)
                    dq = dq_map.get(w, math.inf)
                    if dp + leg + dq <= d0 + tol:
                        dirs.extend(
                            self._funnel_directions(p, self.point_at_vertex(v), dp, tol)
                        )
                        break
        out = []
        for a in sorted(dirs):
            if not out or abs(a - out[-1]) > 1e-6:
                out.append(a)
        return out

    def _funnel_directions(self, p, q, dmax, tol):
        """Chart angles of straight unfolded segments p->q of length <= dmax+tol."""
        images, _ = self._anchors(q)
        targets = {fi: [(None, pos)] for fi, pos in images}
        dirs = []

        def want(key, d):
            return d <= dmax + tol and d > 1e-15

        def hit(key, d, face, seg):
            dirs.append(self.chart_angle_of_dir(p, face, seg / d))

        self._unfold(p, targets, lambda lb: lb <= dmax + tol, want, hit)
        return dirs

    def geodesic_points(self, p, q, n: int = 33):
        p, q = self.validate_point(p), self.validate_point(q)
        d, _ = self.distance_with_error(p, q)
        if d < 1e-14:
            return [p] * n
        dirs = self.directions_to(p, q)
        if not dirs:
            raise SpaceError("no geodesic direction found")
        pts = [p]
        for i in range(1, n):
            w = self.walk(p, dirs[0], d * i / (n - 1))
            pts.append(w.end)
        return pts

    def cone_points(self):
        out = []
        for v in range(self.nv):
            if v not in self.fans:
                continue
            ang = self.cone_angle_at_vertex(v)
            if not self.vertex_boundary[v] and ang < TWO_PI - 1e-12:
                out.append((self.point_at_vertex(v), ang))
        return out

    # -- subdivision-graph certificate -------------------------------------
    def graph_upper_bound(self, p, q, per_edge=3):
        """Dijkstra over a face-complete subdivision graph: an upper bound."""
        p, q = self.validate_point(p), self.validate_point(q)
        nodes = []
        node_ids = {}

        def add(face, xy, key):
            if key in node_ids:
                return node_ids[key]
            node_ids[key] = len(nodes)
            nodes.append(np.asarray(xy, dtype=float))
            return node_ids[key]

        per_face = [[] for _ in self.faces]
        for fi, f in enumerate(self.faces):
            ch = self.charts[fi]
            for c in range(3):
                per_face[fi].append(add(fi, ch[c], ("v", f[c])))
            for e in range(3):
                a, b = ch[e], ch[(e + 1) % 3]
                va, vb = f[e], f[(e + 1) % 3]
                for k in range(1, per_edge + 1):
                    t = k / (per_edge + 1)
                    canon = k if va < vb else per_edge + 1 - k
                    per_face[fi].append(
                        add(fi, a + t * (b - a), ("e", frozenset((va, vb)), canon))
                    )
        # node positions differ per face chart; store per-face coordinates
        coords = [dict() for _ in self.faces]
        for fi, f in enumerate(self.faces):
            ch = self.charts[fi]
            for c in range(3):
                coords[fi][node_ids[("v", f[c])]] = ch[c]
            for e in range(3):
                a, b = ch[e], ch[(e + 1) % 3]
                va, vb = f[e], f[(e + 1) % 3]
                for k in range(1, per_edge + 1):
                    t = k / (per_edge + 1)
                    canon = k if va < vb else per_edge + 1 - k
                    coords[fi][node_ids[("e", frozenset((va, vb)), canon)]] = a + t * (b - a)
        pid = add(p.face, self.pos2(p), ("p",))
        coords[p.face][pid] = self.pos2(p)
        per_face[p.face].append(pid)
        qid = add(q.face, self.pos2(q), ("q",))
        coords[q.face][qid] = self.pos2(q)
        per_face[q.face].append(qid)

        adj = [[] for _ in nodes]
        for fi in range(len(self.faces)):
            ids = per_face[fi]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    a = coords[fi][ids[i]]
                    b = coords[fi][ids[j]]
                    w = float(np.linalg.norm(a - b))
                    adj[ids[i]].append((ids[j], w))
                    adj[ids[j]].append((ids[i], w))
        dist = [math.inf] * len(nodes)
        dist[pid] = 0.0
        pq = [(0.0, pid)]
        while pq:
            d, x = heapq.heappop(pq)
            if d > dist[x]:
                continue
            for y, w in adj[x]:
                if d + w < dist[y] - 1e-15:
                    dist[y] = d + w
                    heapq.heappush(pq, (d + w, y))
        return dist[qid]


def regular_tetrahedron(edge: float = 1.0) -> MeshSpace:
    c = edge / (2.0 * math.sqrt(2.0))
    coords = [(c, c, c), (c, -c, -c), (-c, c, -c), (-c, -c, c)]
    faces = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]
    return MeshSpace(faces, coords=coords)


def random_tetrahedron(rng, min_angle: float = 0.35) -> MeshSpace:
    """Boundary of a random nondegenerate simplex, conditioned on fat faces."""
    for _ in range(500):
        pts = rng.normal(size=(4, 3))
        pts /= np.max(np.abs(pts))
        faces = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]
        ok = True
        for (i, j, k) in faces:
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                u = pts[b] - pts[a]
                w = pts[c] - pts[a]
                cosang = float(np.dot(u, w)) / (np.linalg.norm(u) * np.linalg.norm(w))
                if math.acos(max(-1.0, min(1.0, cosang))) < min_angle:
                    ok = False
        if not ok:
            continue
        try:
            return MeshSpace(faces, coords=pts)
        except SpaceError:
            continue
    raise SpaceError("failed to sample a tetrahedron")
