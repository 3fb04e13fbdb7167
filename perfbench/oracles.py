"""Independent oracles: closed forms and bounds written without the library.

Every function here works on raw coordinates (cone and spindle (r, phi)
pairs, planar or 3-D vertex positions) so that a wrong answer from the
library cannot also make its check pass.

A gate is a tuple ``(name, excess, limit)``: it passes when
``excess <= limit``.  Gates with ``limit > 0`` also carry a slack,
``log10(limit / excess)`` in decades, capped at ``SLACK_CAP``; gates with
``limit == 0`` are exact (counts) and carry no slack.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

SLACK_CAP = 12.0


def gate_passes(gate):
    _, excess, limit = gate
    return math.isfinite(excess) and excess <= limit


def gate_slack(gate):
    """Decades between the observed excess and the limit (None if exact)."""
    _, excess, limit = gate
    if not limit > 0.0 or not math.isfinite(limit):
        return None
    if not math.isfinite(excess):
        return -SLACK_CAP
    if excess <= limit * 10.0 ** -SLACK_CAP:
        return SLACK_CAP
    return min(SLACK_CAP, math.log10(limit / excess))


# -- closed-form distances on the flat cone and the spindle -----------------
def _azimuth_gap(phi1, phi2, period):
    d = math.fmod(phi2 - phi1, period)
    if d < 0.0:
        d += period
    return min(d, period - d)


def cone_dist(total_angle, p, q):
    """Distance on the Euclidean cone over a circle of length total_angle."""
    (r1, f1), (r2, f2) = p, q
    a = _azimuth_gap(f1, f2, total_angle)
    if a >= math.pi:
        return r1 + r2
    return math.sqrt(max(0.0, r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(a)))


def spindle_dist(circle_length, p, q):
    """Distance on the spherical suspension over a circle of that length."""
    (r1, f1), (r2, f2) = p, q
    a = min(_azimuth_gap(f1, f2, circle_length), math.pi)
    c = math.cos(r1) * math.cos(r2) + math.sin(r1) * math.sin(r2) * math.cos(a)
    return math.acos(max(-1.0, min(1.0, c)))


def model_angle(kappa, a, b, c):
    """Angle between sides a and c, opposite b, in the model plane (0 or 1)."""
    if a <= 0.0 or c <= 0.0:
        return math.pi
    if kappa == 0:
        cb = (a * a + c * c - b * b) / (2.0 * a * c)
    else:
        cb = (math.cos(b) - math.cos(a) * math.cos(c)) / (math.sin(a) * math.sin(c))
    return math.acos(max(-1.0, min(1.0, cb)))


def cone_tangent_metric(u, v):
    """Euclidean-cone distance of two tangent vectors (norm, angle, length)."""
    (nu, au, length), (nv, av, _) = u, v
    alpha = min(_azimuth_gap(au, av, length), math.pi)
    return math.sqrt(max(0.0, nu * nu + nv * nv - 2.0 * nu * nv * math.cos(alpha)))


def direction_dist(a, b, length, is_arc):
    if is_arc:
        return abs(a - b)
    return _azimuth_gap(a, b, length)


def _angle(u, w):
    c = float(u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
    return math.acos(max(-1.0, min(1.0, c)))


def tetra_split_error(X, v, before, after):
    """|turn - theta/2| at vertex v of a tetrahedron, measured in 3-D.

    A direction at v is placed on the circle of directions (length theta,
    the sum of the face angles at v) by the face it lies in and its angle
    from that face's first edge; the equal-split rule leaves theta/2 on
    both sides between the incoming and the outgoing direction.
    """
    V = X[v]
    order = [w for w in range(4) if w != v]
    sectors, start = [], 0.0
    for a, b in zip(order, order[1:] + order[:1]):
        sectors.append((a, b, start))
        start += _angle(X[a] - V, X[b] - V)
    theta = start

    def place(q):
        d = q - V
        _, at = min((abs(_angle(X[a] - V, d) + _angle(X[b] - V, d)
                             - _angle(X[a] - V, X[b] - V)), s0 + _angle(X[a] - V, d))
                        for a, b, s0 in sectors)
        return at

    arc = (place(before) - place(after)) % theta
    return abs(arc - 0.5 * theta)


# -- closed-form inf-convolutions ---------------------------------------------
def plane_infconv_neg_half_sq(q_xy, eps, y_xy):
    """min_x -|x-q|^2/2 + |x-y|^2/eps in the plane (eps < 2)."""
    q = np.asarray(q_xy, dtype=float)
    y = np.asarray(y_xy, dtype=float)
    x = (2.0 * y - eps * q) / (2.0 - eps)
    return float(-0.5 * np.sum((x - q) ** 2) + np.sum((x - y) ** 2) / eps)


def cap_infconv_boundary_dist(r0, eps, r):
    """min_x (r0 - r(x)) + d(x, y)^2 / eps on a cap of radius r0, r = r(y).

    r(x) is 1-Lipschitz, so moving a distance s gains at most s; the
    optimum moves eps/2 outward along the meridian, or stops at the rim.
    """
    gap = r0 - r
    if gap >= 0.5 * eps:
        return gap - 0.25 * eps
    return gap * gap / eps


# -- polyhedral surfaces --------------------------------------------------------
class SurfaceOracle:
    """Chord lower bound and subdivision-graph upper bound on a flat-faced mesh.

    `positions[v]` places every vertex so that each face is isometric to
    its triangle (3-D coordinates, or planar ones for a doubled polygon,
    where the chord is the distance of the projected points).  The upper
    bound runs over a graph whose nodes are the vertices and `per_edge`
    points on every edge, with every pair of nodes on one face joined by
    a straight segment, so each graph path is a path on the surface.
    """

    def __init__(self, faces, positions, per_edge=4):
        self.faces = [tuple(f) for f in faces]
        self.positions = np.asarray(positions, dtype=float)
        node_pos = []
        node_id = {}

        def node(key, xyz):
            if key not in node_id:
                node_id[key] = len(node_pos)
                node_pos.append(np.asarray(xyz, dtype=float))
            return node_id[key]

        self.face_nodes = []
        for f in self.faces:
            ids = [node(("v", v), self.positions[v]) for v in f]
            for e in range(3):
                va, vb = f[e], f[(e + 1) % 3]
                lo, hi = min(va, vb), max(va, vb)
                for k in range(1, per_edge + 1):
                    t = k / (per_edge + 1)
                    xyz = self.positions[lo] + t * (self.positions[hi] - self.positions[lo])
                    ids.append(node(("e", lo, hi, k), xyz))
            self.face_nodes.append(np.array(ids))
        self.node_pos = np.array(node_pos)
        n = len(node_pos)
        adj = [dict() for _ in range(n)]
        for ids in self.face_nodes:
            for i in ids:
                for j in ids:
                    if i != j:
                        w = float(np.linalg.norm(self.node_pos[i] - self.node_pos[j]))
                        if w < adj[i].get(j, math.inf):
                            adj[i][j] = w
        self.apsp = np.array([self._dijkstra(adj, s) for s in range(n)])

    @staticmethod
    def _dijkstra(adj, s):
        dist = [math.inf] * len(adj)
        dist[s] = 0.0
        pq = [(0.0, s)]
        while pq:
            d, x = heapq.heappop(pq)
            if d > dist[x]:
                continue
            for y, w in adj[x].items():
                if d + w < dist[y]:
                    dist[y] = d + w
                    heapq.heappush(pq, (d + w, y))
        return dist

    def position(self, face, bary):
        f = self.faces[face]
        return sum(b * self.positions[v] for b, v in zip(bary, f))

    def chord(self, p, q):
        return float(np.linalg.norm(self.position(*p) - self.position(*q)))

    def upper(self, p, q):
        (fp, bp), (fq, bq) = p, q
        xp, xq = self.position(fp, bp), self.position(fq, bq)
        best = float(np.linalg.norm(xp - xq)) if fp == fq else math.inf
        ip, iq = self.face_nodes[fp], self.face_nodes[fq]
        dp = np.linalg.norm(self.node_pos[ip] - xp, axis=1)
        dq = np.linalg.norm(self.node_pos[iq] - xq, axis=1)
        via = dp[:, None] + self.apsp[np.ix_(ip, iq)] + dq[None, :]
        return min(best, float(via.min()))
