"""Doubling of spaces with boundary across their boundary.

The double of a convex polygon is a closed flat mesh: each sheet is the
centroid fan triangulation, glued along the polygon edges, so the
polygon corners become cone points of twice the interior angle.  The
double of a hemispherical cap is the round sphere.  Both carry the
canonical two-to-one projection onto the base space, and answer the
base space's `boundary_dist` pulled back by it.  Off the seam the
projection is an isometry near p, so `boundary_tails` reads the base
space's rule on the double; on the seam the pulled-back distance has a
convex kink, which no min of cos-tails represents, and `boundary_tails`
raises `SpaceError`.  `project`, `sheet_of` and `lift` validate their
point; the boundary queries read validated points through the kernels
`_project`, `_sheet_of` and `_lift`.
"""
from __future__ import annotations

import math

import numpy as np

from .base import SpaceError
from .mesh import MeshPoint, MeshSpace
from .polygon import PolygonSpace
from .spherical import CapSpace, SpindleSpace


def _seam_error(p):
    return SpaceError(f"no boundary differential at {p!r} on the seam: "
                      "the pulled-back boundary distance has a kink there")


class DoubledPolygon(MeshSpace):
    """Flat closed mesh made of two mirrored centroid fans of a polygon."""

    def __init__(self, poly: PolygonSpace):
        n = poly.n
        verts = [tuple(v) for v in poly.vertices]
        centroid = tuple(np.mean(poly.vertices, axis=0))
        # vertex ids: 0..n-1 polygon corners (shared), n = centroid A, n+1 = centroid B
        lengths = {}
        for i in range(n):
            lengths[frozenset((i, (i + 1) % n))] = poly.edge_lens[i]
        for c_id in (n, n + 1):
            for i in range(n):
                d = math.hypot(verts[i][0] - centroid[0], verts[i][1] - centroid[1])
                lengths[frozenset((c_id, i))] = d
        faces = []
        for i in range(n):
            faces.append((n, i, (i + 1) % n))        # sheet A, CCW
        for i in range(n):
            faces.append((n + 1, (i + 1) % n, i))    # sheet B, mirrored
        super().__init__(faces, edge_lengths=lengths)
        self.base = poly
        self._n_corners = n
        self._centroid = centroid

    def sheet_of(self, p) -> int:
        return self._sheet_of(self.validate_point(p))

    def _sheet_of(self, p):
        return 0 if p.face < self._n_corners else 1

    def project(self, p):
        """Canonical projection onto the base polygon (planar coordinates)."""
        return self._project(self.validate_point(p))

    def _project(self, p):
        n = self._n_corners
        if p.face < n:
            i = p.face
            b = p.bary
        else:
            i = p.face - n
            b = (p.bary[0], p.bary[2], p.bary[1])  # undo the mirror
        cx, cy = self._centroid
        v0 = self.base.vertices[i]
        v1 = self.base.vertices[(i + 1) % n]
        x = b[0] * cx + b[1] * v0[0] + b[2] * v1[0]
        y = b[0] * cy + b[1] * v0[1] + b[2] * v1[1]
        return (x, y)

    def lift(self, xy, sheet: int = 0):
        """A preimage of a base point on the requested sheet."""
        return self._lift(self.base.validate_point(xy), sheet)

    def _lift(self, xy, sheet=0):
        n = self._n_corners
        cx, cy = self._centroid
        for i in range(n):
            v0 = self.base.vertices[i]
            v1 = self.base.vertices[(i + 1) % n]
            T = np.array([[cx - v1[0], v0[0] - v1[0]], [cy - v1[1], v0[1] - v1[1]]])
            try:
                l01 = np.linalg.solve(T, np.array([xy[0] - v1[0], xy[1] - v1[1]]))
            except np.linalg.LinAlgError:
                continue
            b = (float(l01[0]), float(l01[1]), float(1.0 - l01[0] - l01[1]))
            if min(b) >= -1e-9:
                b = tuple(max(x, 0.0) for x in b)
                s = sum(b)
                b = tuple(x / s for x in b)
                if sheet == 0:
                    return MeshPoint(i, b)
                return MeshPoint(n + i, (b[0], b[2], b[1]))
        raise SpaceError(f"point {xy!r} not inside the base polygon")

    def boundary_dist(self, p):
        """The base polygon's boundary distance, pulled back by the projection."""
        return self.base.boundary_dist(self._project(p))

    def boundary_tails(self, p):
        """The unit tail toward each nearest foot of the base.

        A foot lies on the seam, where both sheets' lifts are one point.
        """
        d, feet = self.base.boundary_feet(self._project(p))
        if d <= 1e-12:
            raise _seam_error(p)
        return [(1.0, self._directions_to(p, self._lift(f))) for f in feet]


class DoubledCap(SpindleSpace):
    """Round sphere as the double of a hemispherical cap."""

    def __init__(self, cap: CapSpace):
        if abs(cap.radius - math.pi / 2.0) > 1e-9:
            raise SpaceError(
                "analytic cap doubling is implemented for the hemisphere only"
            )
        super().__init__(2.0 * math.pi)
        self.base = cap

    def sheet_of(self, p) -> int:
        return self._sheet_of(self.validate_point(p))

    def _sheet_of(self, p):
        return 0 if p[0] <= math.pi / 2.0 else 1

    def project(self, p):
        return self._project(self.validate_point(p))

    def _project(self, p):
        r, phi = p
        return (min(r, math.pi - r), phi)

    def lift(self, p, sheet: int = 0):
        r, phi = self.base.validate_point(p)
        return (r, phi) if sheet == 0 else (math.pi - r, phi)

    def boundary_dist(self, p):
        """The base cap's boundary distance, pulled back by the projection."""
        return self.base.boundary_dist(self._project(p))

    def boundary_tails(self, p):
        """-1 toward the pole of p's sheet; at that pole, the constant -1."""
        if self.boundary_dist(p) <= 1e-12:
            raise _seam_error(p)
        if self.is_apex(p):
            return [(-1.0, None)]
        return [(-1.0, self._directions_to(p, (0.0, 0.0) if self._sheet_of(p) == 0
                                           else (math.pi, 0.0)))]


def build_doubling(space):
    """Boundaryless double of a polygon or cap, with the projection map."""
    if isinstance(space, PolygonSpace):
        return DoubledPolygon(space)
    if isinstance(space, CapSpace):
        return DoubledCap(space)
    raise SpaceError(f"doubling is defined for spaces with boundary, not {space.variant}")
