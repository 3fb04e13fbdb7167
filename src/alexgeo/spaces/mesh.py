"""Triangulated polyhedral surface with exact unfolded distances.

Points are (face index, barycentric triple).  Each face carries a flat
chart whose corners are Python complex numbers; crossing an edge is a
cached rigid motion z -> rot * z + shift between the two charts, a
(unit complex, shift) pair, and a chain of crossings composes these
pairs.  One branch-and-bound engine, `MeshSpace._unfold`, enumerates
unfolded edge sequences from a source; each accepted candidate is a
realizable straight path, and pruning keeps the result exact.  On these
surfaces of curvature >= 0 a shortest path crosses each edge at most
once between two bends, so the engine never extends a sequence through
an edge it already crossed, and the enumeration ends without any depth
cutoff.  One search from p to q answers the distance, every minimizing
direction and the legs of a shortest path at once: it keeps every hit
within `_TIE` of the shortest, and the three queries read one cached
result per ordered pair.

A shortest path leaves each point of its interior in two directions pi
apart in Sigma_p, so it never passes through a cone point.  It can pass
through a flat interior vertex, and it can bend at a boundary vertex of
angle >= pi.  A straight path through a flat vertex lies on the closed
windows on either side of it, so the engine needs nothing for those.
Boundary vertices of angle >= pi are pseudo-sources (Mitchell, Mount
and Papadimitriou 1987; Chen and Han 1990): when the search first
reaches one, it opens there a new root of the same search, offset by
its distance, and each root keeps a link to the root it was reached
from.  A surface without such vertices, such as a closed polyhedron, has
one root.  Every distance is exact, so its certified error is 0.  A
subdivision graph Dijkstra provides an independent upper-bound
certificate on demand.
"""
from __future__ import annotations

import cmath
import heapq
import math
import re
from dataclasses import dataclass

import numpy as np

from .base import SigmaDesc, Space, SpaceError, WalkResult, parse_angle, wrap_angle

TWO_PI = 2.0 * math.pi
_VERTEX_SNAP = 1e-9
_TIE = 1e-7  # paths within this of the shortest count as minimizing


def _cross(u, v):
    """Planar cross product of two chart vectors given as complex numbers."""
    return u.real * v.imag - u.imag * v.real


@dataclass(frozen=True)
class MeshPoint:
    face: int
    bary: tuple

    def __iter__(self):
        yield self.face
        yield self.bary


class MeshSpace(Space):
    variant = "mesh"
    kappa = 0.0

    def __init__(self, triangles, edge_lengths=None, coords=None):
        """Build from triangles plus either 3-D coords or intrinsic lengths.

        `edge_lengths` maps frozenset({i, j}) -> length.  Interior vertex
        cone angles must not exceed 2*pi (the curvature >= 0 condition,
        checked at load).
        """
        self.faces = [tuple(int(i) for i in t) for t in triangles]
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
        # the only vertices a shortest path can pass through (module docstring)
        self.pass_through = [
            v for v in sorted(self.fans)
            if self.cone_angle_at_vertex(v)
            >= (math.pi if self.vertex_boundary[v] else TWO_PI) - 1e-9
        ]
        # per face, the boundary pass-through vertices at its corners: the
        # pseudo-sources of `_unfold`, as (vertex, chart position) pairs
        self._pseudo = [[(v, self.charts[fi][c]) for c, v in enumerate(f)
                         if v in self.pass_through and self.vertex_boundary[v]]
                        for fi, f in enumerate(self.faces)]
        self._path_cache = {}
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
            self.charts.append((0j, complex(lij, 0.0), complex(x, math.sqrt(y2))))

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
        self._crossings = {}
        # one bit per edge, for the crossed-once rule of shortest-path enumeration
        edge_ids = {}
        self.edge_bits = [
            [1 << edge_ids.setdefault(frozenset((f[e], f[(e + 1) % 3])), len(edge_ids))
             for e in range(3)]
            for f in self.faces
        ]

    def crossing(self, fi, e):
        """Rigid motion chart_fi -> chart_g across local edge e of face fi.

        A (rot, shift) pair of complex numbers acting as z -> rot * z + shift.
        """
        key = (fi, e)
        if key in self._crossings:
            return self._crossings[key]
        nb = self.nbr[fi][e]
        if nb is None:
            raise SpaceError("crossing a boundary edge")
        gj, ge = nb
        a_f = self.charts[fi][e]
        b_f = self.charts[fi][(e + 1) % 3]
        a_g = self.charts[gj][(ge + 1) % 3]  # shared edge appears reversed in g
        b_g = self.charts[gj][ge]
        rot = (b_g - a_g) * (b_f - a_f).conjugate()
        rot /= abs(rot)
        M = (rot, a_g - rot * a_f)
        self._crossings[key] = M
        return M

    def _g_to_f(self, fi, e):
        """Inverse crossing: chart of the neighbor across e back into chart_fi."""
        key = ("inv", fi, e)
        if key in self._crossings:
            return self._crossings[key]
        rot, shift = self.crossing(fi, e)
        inv = (rot.conjugate(), -(rot.conjugate() * shift))
        self._crossings[key] = inv
        return inv

    def _build_vertex_fans(self):
        corner_angle = {}
        at_vertex = {v: [] for v in range(self.nv)}
        for fi, f in enumerate(self.faces):
            ch = self.charts[fi]
            for c in range(3):
                u = ch[(c + 1) % 3] - ch[c]
                w = ch[(c + 2) % 3] - ch[c]
                cosang = (u.real * w.real + u.imag * w.imag) / (abs(u) * abs(w))
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

    def _point_of_literal(self, text):
        m = re.match(r"^F(\d+):([^,]+),([^,]+)$", text)
        if not m:
            raise SpaceError(f"mesh point literal {text!r} must be F<face>:<b0>,<b1>")
        b0, b1 = parse_angle(m.group(2)), parse_angle(m.group(3))
        return MeshPoint(int(m.group(1)), (b0, b1, 1.0 - b0 - b1))

    def format_point(self, p):
        face, bary = p
        return f"F{face}:{bary[0]:.9g},{bary[1]:.9g}"

    def _pos(self, p):
        """Chart position of a validated point, as a complex number."""
        a, b, c = self.charts[p.face]
        return a * p.bary[0] + b * p.bary[1] + c * p.bary[2]

    def pos2(self, p):
        z = self._pos(self.validate_point(p))
        return np.array([z.real, z.imag])

    def bary(self, face, z):
        """The point of `face` at chart position z, a complex number."""
        a, b, c = self.charts[face]
        u, v, r = a - c, b - c, z - c
        det = _cross(u, v)
        l0, l1 = _cross(r, v) / det, _cross(u, r) / det
        return MeshPoint(face, (l0, l1, 1.0 - l0 - l1))

    def point_at_vertex(self, v):
        fi, c = self.fans[v][0][0]
        b = [0.0, 0.0, 0.0]
        b[c] = 1.0
        return MeshPoint(fi, tuple(b))

    def vertex_of_point(self, p, tol=_VERTEX_SNAP):
        for c in range(3):
            if p.bary[c] >= 1.0 - tol:
                return self.faces[p.face][c]
        return None

    def classify(self, p, tol=1e-9):
        v = self.vertex_of_point(p, tol)
        if v is not None:
            return ("vertex", v)
        for c in range(3):
            if p.bary[c] <= tol:
                return ("edge", p.face, (c + 1) % 3)  # on the local edge opposite c
        return ("interior", p.face)

    def random_point(self, rng):
        areas = np.array([abs(_cross(b - a, c - a)) / 2.0 for a, b, c in self.charts])
        f = int(rng.choice(len(self.faces), p=areas / areas.sum()))
        a, b = rng.random(), rng.random()
        if a + b > 1.0:
            a, b = 1.0 - a, 1.0 - b
        return MeshPoint(f, (float(a), float(b), float(1.0 - a - b)))

    def random_point_near(self, p, radius, rng):
        p = self.validate_point(p)
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
            ends = [self.point_at_vertex(v) for v in sorted(self.fans)]
            self._diam = max([max(self.edge_lengths.values())]
                             + [d for p in ends for d, _ in self.distances_from(p, ends)])
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
        ch = self.charts[fi]
        return cmath.phase(ch[(e + 1) % 3] - ch[e])

    def chart_angle_of_dir(self, p, face, d):
        """Sigma coordinate at p of the chart direction d (complex) in `face`."""
        kind = self.classify(p)
        if kind[0] == "interior":
            if face != kind[1]:
                raise SpaceError("direction face mismatch")
            return wrap_angle(cmath.phase(d), TWO_PI)
        if kind[0] == "edge":
            fi, e = kind[1], kind[2]
            if face != fi:
                nb = self.nbr[fi][e]
                if nb is None or face != nb[0]:
                    raise SpaceError("direction face mismatch")
                d = self._g_to_f(fi, e)[0] * d
            ref = self._edge_chart_ref(fi, e)
            return wrap_angle(cmath.phase(d) - ref, TWO_PI)
        v = kind[1]
        order, offsets = self.fans[v]
        for (fi, c), off in zip(order, offsets):
            if fi == face:
                rel = wrap_angle(cmath.phase(d) - self._edge_chart_ref(fi, c), TWO_PI)
                if rel > math.pi:  # direction numerically below the wedge start
                    rel -= TWO_PI
                L = self.cone_angle_at_vertex(v)
                out = off + rel
                return out if self.vertex_boundary[v] else wrap_angle(out, L)
        raise SpaceError("direction face not incident to vertex")

    def _chart_dir(self, p, angle):
        """Inverse of chart_angle_of_dir: (face, unit chart vector as complex)."""
        kind = self.classify(p)
        if kind[0] == "interior":
            return kind[1], cmath.rect(1.0, angle)
        if kind[0] == "edge":
            fi, e = kind[1], kind[2]
            a = wrap_angle(angle, TWO_PI)
            d = cmath.rect(1.0, a + self._edge_chart_ref(fi, e))
            if a <= math.pi or self.nbr[fi][e] is None:
                return fi, d
            return self.nbr[fi][e][0], self.crossing(fi, e)[0] * d
        v = kind[1]
        order, offsets = self.fans[v]
        L = self.cone_angle_at_vertex(v)
        a = angle if self.vertex_boundary[v] else wrap_angle(angle, L)
        a = min(max(a, 0.0), L)
        for (fi, c), off, off2 in zip(order, offsets, offsets[1:]):
            if a <= off2 + 1e-12:
                return fi, cmath.rect(1.0, self._edge_chart_ref(fi, c) + (a - off))
        fi, c = order[-1]
        return fi, cmath.rect(1.0, self._edge_chart_ref(fi, c) + (a - offsets[-2]))

    # -- walking ------------------------------------------------------------
    def walk(self, p, angle, length, max_crossings=100000):
        p = self.validate_point(p)
        if length < 0.0:
            raise SpaceError("negative walk length")
        face, d = self._chart_dir(p, angle)
        kind = self.classify(p)
        if kind[0] == "vertex":
            pos = self.charts[face][self.faces[face].index(kind[1])]
        elif kind[0] == "edge" and face != p.face:
            rot, shift = self.crossing(p.face, kind[2])
            pos = rot * self._pos(p) + shift
        else:
            pos = self._pos(p)
        remaining = float(length)
        traveled = 0.0
        for _ in range(max_crossings):
            hit = self._face_exit(face, pos, d)
            if hit is None:
                raise SpaceError("walk failed to find an exit edge")
            t_exit, e_exit = hit
            if remaining <= t_exit:
                end = self.bary(face, pos + remaining * d)
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
            snap = _VERTEX_SNAP * max(1.0, abs(b - a))
            for corner, cpos in ((e_exit, a), ((e_exit + 1) % 3, b)):
                if abs(cross_pos - cpos) <= snap:
                    v = self.faces[face][corner]
                    end = self.point_at_vertex(v)
                    back = self.chart_angle_of_dir(end, face, -d)
                    return WalkResult(end, traveled + abs(cpos - pos), back,
                                      self.sigma_at(end), event="vertex", event_ref=v)
            nb = self.nbr[face][e_exit]
            if nb is None:
                end = self.bary(face, cross_pos)
                back = self.chart_angle_of_dir(end, face, -d)
                return WalkResult(end, traveled + t_exit, back, self.sigma_at(end),
                                  event="boundary")
            rot, shift = self.crossing(face, e_exit)
            pos = rot * cross_pos + shift
            d = rot * d
            face = nb[0]
            remaining -= t_exit
            traveled += t_exit
        raise SpaceError("walk exceeded the crossing budget")

    def _face_exit(self, face, pos, d):
        """(distance, local edge) of the first exit of the ray pos + t*d."""
        best = None
        ch = self.charts[face]
        for e in range(3):
            a = ch[e]
            ed = ch[(e + 1) % 3] - a
            denom = _cross(d, ed)
            if abs(denom) < 1e-16:
                continue
            ap = a - pos
            t = _cross(ap, ed) / denom
            if t <= 1e-12:
                continue
            s = _cross(ap, d) / denom
            if -1e-9 <= s <= 1.0 + 1e-9:
                if best is None or t < best[0]:
                    best = (t, e)
        return best

    # -- distance machinery ----------------------------------------------
    def _face_images(self, q):
        """q in its own face chart, plus its image across the edge it lies on."""
        pos = self._pos(q)
        images = [(q.face, pos)]
        kind = self.classify(q)
        if kind[0] == "edge":
            nb = self.nbr[q.face][kind[2]]
            if nb is not None:
                rot, shift = self.crossing(q.face, kind[2])
                images.append((nb[0], rot * pos + shift))
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
        L2 = ab.real * ab.real + ab.imag * ab.imag
        if L2 <= 1e-300:
            return abs(p - a)
        ap = p - a
        t = min(max((ap.real * ab.real + ap.imag * ab.imag) / L2, 0.0), 1.0)
        return abs(p - (a + t * ab))

    @staticmethod
    def _clip_to_wedge(src, w0, w1, a, b):
        """Clip segment [a, b] to the closed wedge from src through [w0, w1]."""
        e0, e1, da, db = w0 - src, w1 - src, a - src, b - src
        # each side ray of the wedge, with the sign of the side the wedge
        # lies on (the cross products are inlined: this is the hot loop)
        s = e0.real * e1.imag - e0.imag * e1.real
        lo, hi = 0.0, 1.0
        for e, sign in ((e0, 1.0 if s >= 0.0 else -1.0), (e1, -1.0 if s > 0.0 else 1.0)):
            fa = sign * (e.real * da.imag - e.imag * da.real)
            fb = sign * (e.real * db.imag - e.imag * db.real)
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
        ab = b - a
        return a + lo * ab, a + hi * ab

    def _chain_ok(self, src, tp, window, parent, parents):
        """Validate that src->tp crosses every ancestor window in order."""
        seg = tp - src
        if seg.real * seg.real + seg.imag * seg.imag <= 1e-300:
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
            denom = _cross(seg, e)
            if abs(denom) < 1e-14:
                # degenerate or parallel window: require src->tp to pass near it
                if self._seg_dist(0.5 * (w0 + w1), src, tp) > 1e-7:
                    return False
                continue
            d0 = w0 - src
            t = _cross(d0, e) / denom
            s = _cross(d0, seg) / denom
            if s < -1e-7 or s > 1.0 + 1e-7:
                return False
            if t < -1e-9 or t > t_prev + 1e-7:
                return False
            t_prev = t
        return True

    def _unfold(self, p, target_points):
        """Branch-and-bound over unfolded edge sequences from p and its pseudo-sources.

        The one window loop behind distances, directions and geodesics.
        A state is a face unfolded into the chart of an anchor of a root,
        together with the window (in anchor coordinates) through which
        straight segments from the anchor enter it.  States pop in order
        of their lower bound: the root's offset plus the distance from
        the anchor to the window.

        Root 0 is p, at offset 0.  Every boundary vertex of angle >= pi
        that the search reaches, straight from an anchor or from a
        popped state, is queued at its path length; when that length
        pops and is still the shortest found, the vertex opens as a new
        root at that offset, with its own crossed-once mask.

        p and the target points are validated.  Each target is tried
        straight from every anchor in its face and from every popped
        state in its face.  A path counts as a hit when its length is
        within `_TIE` of the target's shortest so far, checked first,
        and its last segment crosses every ancestor window.  Once every
        target has a hit, states longer than the worst target's shortest
        length plus `_TIE` are pruned.  Each root crosses every edge at
        most once, so the loop ends, and it misses no path within `_TIE`
        of a shortest one.

        Returns, per target, its hits (d, face, seg, root) within `_TIE`
        of its shortest length, with seg the anchor-chart vector (a
        complex number) in `face` of the segment from the root; and the
        roots, each a (vertex, offset, parent root, face, seg) link: the
        segment seg in `face` runs from the parent root to the vertex.
        Root 0 is (None, 0.0, None, None, None).
        """
        if not target_points:
            # nothing to find: an unpruned search would enumerate every sequence
            return [], []
        targets = {}
        for i, q in enumerate(target_points):
            for fi, pos in self._anchors(q)[0]:
                targets.setdefault(fi, []).append((i, pos))
        best = [math.inf] * len(target_points)
        hits = [[] for _ in target_points]
        missing, limit = len(target_points), math.inf
        roots = [(None, 0.0, None, None, None)]
        v0 = self.vertex_of_point(p)
        reached = {} if v0 is None else {v0: 0.0}
        heap, parents = [], {}
        counter = 0

        def hit(i, d, face, seg, r):
            nonlocal missing, limit
            hits[i].append((d, face, seg, r))
            if d < best[i]:
                if best[i] == math.inf:
                    missing -= 1
                best[i] = d
                if not missing:
                    # prune at the worst target once every target has a hit
                    limit = max(best) + _TIE

        def reach(v, d, r, face, seg):
            nonlocal counter
            if d < reached.get(v, math.inf) and d <= limit:
                reached[v] = d
                heapq.heappush(heap, (d, counter, None, (v, r, face, seg)))
                counter += 1

        def open_root(r, point):
            nonlocal counter
            off = roots[r][1]
            anchors, src_vertex = self._anchors(point)
            for fi, src in anchors:
                for i, tp in targets.get(fi, ()):
                    d = off + abs(tp - src)
                    if d <= best[i] + _TIE:
                        hit(i, d, fi, tp - src, r)
                for v, tp in self._pseudo[fi]:
                    reach(v, off + abs(tp - src), r, fi, tp - src)
            if src_vertex is None:
                first = [(fi, src, e) for fi, src in anchors for e in range(3)]
            else:  # from a vertex only the edge opposite its corner leaves the face
                first = [(fi, self.charts[fi][c], (c + 1) % 3)
                         for fi, c in self.fans[src_vertex][0]]
            for fi, src, e in first:
                nb = self.nbr[fi][e]
                if nb is not None:
                    w0, w1 = self.charts[fi][e], self.charts[fi][(e + 1) % 3]
                    lb = off + self._seg_dist(src, w0, w1)
                    if lb <= limit:
                        rot, shift = self._g_to_f(fi, e)
                        heapq.heappush(heap, (lb, counter, fi, nb[0], rot, shift, w0, w1,
                                              src, None, self.edge_bits[fi][e], r))
                        counter += 1

        open_root(0, p)
        while heap:
            item = heapq.heappop(heap)
            if item[0] > limit:
                break
            if item[2] is None:  # a pseudo-source, at its path length
                v, r, face, seg = item[3]
                if reached[v] == item[0]:
                    roots.append((v, item[0], r, face, seg))
                    open_root(len(roots) - 1, self.point_at_vertex(v))
                continue
            lb, cid, af, fi, rot, shift, w0, w1, src, parent, crossed, r = item
            off = roots[r][1]
            for i, tp_chart in targets.get(fi, ()):
                tp = rot * tp_chart + shift
                d = off + abs(tp - src)
                if d <= best[i] + _TIE and self._chain_ok(src, tp, (w0, w1), parent, parents):
                    hit(i, d, af, tp - src, r)
            for v, tp_chart in self._pseudo[fi]:
                tp = rot * tp_chart + shift
                d = off + abs(tp - src)
                if d < reached.get(v, math.inf) and self._chain_ok(src, tp, (w0, w1),
                                                                    parent, parents):
                    reach(v, d, r, af, tp - src)
            parents[cid] = (parent, w0, w1)
            corners = [rot * z + shift for z in self.charts[fi]]
            for e in range(3):
                nb = self.nbr[fi][e]
                if nb is None:
                    continue
                bit = self.edge_bits[fi][e]
                if crossed & bit:
                    # shortest paths cross an edge at most once between two
                    # bends on these nonnegatively curved surfaces
                    continue
                clipped = self._clip_to_wedge(src, w0, w1, corners[e], corners[(e + 1) % 3])
                if clipped is None:
                    continue
                if abs(clipped[1] - clipped[0]) < 1e-12:
                    # window pinched at a vertex: a straight path through a flat
                    # vertex lies on the closed windows on either side, a
                    # boundary vertex of angle >= pi is a pseudo-source, and no
                    # shortest path passes through a cone vertex
                    continue
                lb2 = off + self._seg_dist(src, clipped[0], clipped[1])
                if lb2 <= limit:
                    r2, s2 = self._g_to_f(fi, e)
                    heapq.heappush(
                        heap,
                        (lb2, counter, af, nb[0], rot * r2, rot * s2 + shift,
                         clipped[0], clipped[1], src, cid, crossed | bit, r),
                    )
                    counter += 1
        return [[h for h in hs if h[0] <= b + _TIE] for hs, b in zip(hits, best)], roots

    def _point_key(self, p):
        return (p.face, round(p.bary[0], 12), round(p.bary[1], 12))

    def _paths(self, p, q):
        """(distance, hits, roots) of the one search from p to q, cached per pair."""
        key = (self._point_key(p), self._point_key(q))
        out = self._path_cache.get(key)
        if out is None:
            (hits,), roots = self._unfold(p, [q])
            out = (min((h[0] for h in hits), default=math.inf), hits, roots)
            if len(self._path_cache) > 16384:
                self._path_cache.clear()
            self._path_cache[key] = out
        return out

    def point_vertex_dists(self, p):
        """Distances from p to every pass-through vertex."""
        ends = [self.point_at_vertex(v) for v in self.pass_through]
        return {v: d for v, (d, _) in zip(self.pass_through, self.distances_from(p, ends))}

    def distance(self, p, q):
        return self._distance(self.validate_point(p), self.validate_point(q))

    def _distance(self, p, q):
        return self._paths(p, q)[0]

    def distance_with_error(self, p, q):
        return self.distance(p, q), 0.0

    def distances_from(self, p, targets):
        """One-to-many distances sharing a single unfolding pass from p."""
        p = self.validate_point(p)
        hits, _ = self._unfold(p, [self.validate_point(q) for q in targets])
        return [(min((h[0] for h in hs), default=math.inf), 0.0) for hs in hits]

    # -- directions and geodesics ------------------------------------------
    def directions_to(self, p, q):
        """Sigma chart angles at p of minimizing first segments toward q."""
        p, q = self.validate_point(p), self.validate_point(q)
        d, hits, roots = self._paths(p, q)
        if d <= 1e-15:
            return [0.0]
        dirs = []
        for _, face, seg, r in hits:
            while r:  # back along the root chain to the leg that leaves p
                _, _, r, face, seg = roots[r]
            dirs.append(self.chart_angle_of_dir(p, face, seg / abs(seg)))
        out = []
        for a in sorted(dirs):
            if not out or abs(a - out[-1]) > 1e-6:
                out.append(a)
        sigma = self.sigma_at(p)
        if len(out) > 1 and sigma.dist(out[0], out[-1]) <= 1e-6:
            out.pop()  # the same direction on either side of the circle's seam
        return out

    def geodesic_points(self, p, q, n: int = 33):
        p, q = self.validate_point(p), self.validate_point(q)
        d, hits, roots = self._paths(p, q)
        if d < 1e-14:
            return [p] * n
        # the legs of the shortest hit, last first, as (offset, start, angle)
        (_, face, seg, r), legs = min(hits, key=lambda h: h[0]), []
        while r is not None:
            v, off, parent, face_in, seg_in = roots[r]
            start = p if v is None else self.point_at_vertex(v)
            legs.append((off, start, self.chart_angle_of_dir(start, face, seg / abs(seg))))
            r, face, seg = parent, face_in, seg_in
        pts = [p]
        for i in range(1, n):
            s = d * i / (n - 1)
            off, start, ang = next(leg for leg in legs if leg[0] <= s)
            length = s - off
            for _ in range(self.nv + 1):
                # walks stop at every vertex: go straight on through a flat one
                w = self.walk(start, ang, length)
                length -= w.traveled
                if w.event != "vertex" or length <= 1e-9:
                    break
                start, ang = w.end, w.sigma.forward_of_back(w.back_angle)
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
        node_ids = {}
        # per face, node id -> its position in that face's chart
        per_face = [{} for _ in self.faces]

        def add(fi, key, z):
            per_face[fi][node_ids.setdefault(key, len(node_ids))] = z

        for fi, f in enumerate(self.faces):
            ch = self.charts[fi]
            for c in range(3):
                add(fi, ("v", f[c]), ch[c])
            for e in range(3):
                a, b = ch[e], ch[(e + 1) % 3]
                va, vb = f[e], f[(e + 1) % 3]
                for k in range(1, per_edge + 1):
                    canon = k if va < vb else per_edge + 1 - k
                    add(fi, ("e", frozenset((va, vb)), canon),
                        a + k / (per_edge + 1) * (b - a))
        add(p.face, ("p",), self._pos(p))
        add(q.face, ("q",), self._pos(q))
        pid, qid = node_ids[("p",)], node_ids[("q",)]

        adj = [[] for _ in node_ids]
        for nodes in per_face:
            items = list(nodes.items())
            for i, (x, a) in enumerate(items):
                for y, b in items[i + 1:]:
                    w = abs(a - b)
                    adj[x].append((y, w))
                    adj[y].append((x, w))
        dist = [math.inf] * len(node_ids)
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
