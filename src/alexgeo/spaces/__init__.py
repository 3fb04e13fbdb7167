"""Concrete curvature-bounded model spaces with exact metric primitives."""
from __future__ import annotations

from .base import SigmaDesc, Space, SpaceError, WalkResult, parse_angle
from .cone import ConeSpace
from .doubling import DoubledCap, DoubledPolygon, build_doubling
from .io import load_space
from .mesh import MeshPoint, MeshSpace, random_tetrahedron, regular_tetrahedron
from .polygon import PolygonSpace, random_convex_polygon
from .spherical import CapSpace, SpindleSpace

__all__ = [
    "SigmaDesc", "Space", "SpaceError", "WalkResult", "ConeSpace", "SpindleSpace",
    "CapSpace", "PolygonSpace", "MeshSpace", "MeshPoint", "DoubledPolygon",
    "DoubledCap", "build_doubling", "load_space", "parse_angle",
    "random_convex_polygon", "random_tetrahedron",
    "regular_tetrahedron", "log_map",
]


def log_map(space, p, q):
    """Distance together with one minimizing direction (smallest chart angle)."""
    from ..tangent import TangentVec

    p, q = space.validate_point(p), space.validate_point(q)
    d = space._distance(p, q)
    dirs = space._directions_to(p, q)
    return TangentVec(d, dirs[0], space.sigma_at(p))
