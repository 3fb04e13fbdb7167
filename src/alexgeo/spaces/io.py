"""Loading the concrete spaces from their descriptions."""
from __future__ import annotations

import json

from .base import SpaceError, parse_angle
from .cone import ConeSpace
from .mesh import MeshSpace
from .polygon import PolygonSpace
from .spherical import CapSpace, SpindleSpace


def load_space(description):
    """Build a space handle from a dict, JSON string or file path."""
    if isinstance(description, str):
        text = description
        if not text.lstrip().startswith("{"):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            description = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpaceError(f"malformed space file: {exc}") from exc
    if not isinstance(description, dict) or "type" not in description:
        raise SpaceError("space description needs a 'type' field")
    kind = description["type"]

    def field(name):
        if name not in description:
            raise SpaceError(f"{kind} space description has no {name!r} field")
        return description[name]

    if kind == "cone":
        return ConeSpace(parse_angle(field("total_angle")))
    if kind == "spindle":
        return SpindleSpace(parse_angle(field("circle_length")))
    if kind == "polygon":
        return PolygonSpace(field("vertices"))
    if kind == "cap":
        return CapSpace(parse_angle(field("radius")))
    if kind == "mesh":
        tris = field("triangles")
        if "coords" in description:
            return MeshSpace(tris, coords=description["coords"])
        lengths = {
            frozenset((int(i), int(j))): float(L)
            for i, j, L in field("edge_lengths")
        }
        return MeshSpace(tris, edge_lengths=lengths)
    raise SpaceError(f"unknown space type {kind!r}")

