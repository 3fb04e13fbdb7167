"""Concrete curvature-bounded model spaces with exact metric primitives."""
from __future__ import annotations

from .base import SigmaDesc, SpaceError, WalkResult
from .cone import ConeSpace
from .doubling import DoubledCap, DoubledPolygon, build_doubling
from .io import format_point, load_space, parse_angle, parse_point
from .mesh import MeshPoint, MeshSpace, random_tetrahedron, regular_tetrahedron
from .polygon import PolygonSpace, random_convex_polygon
from .spherical import CapSpace, SpindleSpace

__all__ = [
    "SigmaDesc", "SpaceError", "WalkResult", "ConeSpace", "SpindleSpace",
    "CapSpace", "PolygonSpace", "MeshSpace", "MeshPoint", "DoubledPolygon",
    "DoubledCap", "build_doubling", "load_space", "parse_point", "parse_angle",
    "format_point", "random_convex_polygon", "random_tetrahedron",
    "regular_tetrahedron", "log_map",
]


def log_map(space, p, q):
    """Distance together with one minimizing direction (smallest chart angle)."""
    from ..tangent import TangentVec

    d = space.distance(p, q)
    dirs = space.directions_to(p, q)
    return TangentVec(d, dirs[0], space.sigma_at(p))
