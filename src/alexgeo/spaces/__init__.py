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
    "regular_tetrahedron",
]
