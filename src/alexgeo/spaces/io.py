"""Loading, describing and point parsing for the concrete spaces."""
from __future__ import annotations

import json
import math
import re

from .base import SpaceError
from .cone import ConeSpace
from .mesh import MeshPoint, MeshSpace
from .polygon import PolygonSpace
from .spherical import CapSpace, SpindleSpace

_PI_RE = re.compile(r"^\s*(-?[\d.]*)\s*pi\s*(?:/\s*([\d.]+))?\s*$")


def parse_angle(text):
    """Numeric literal or 'api/b' form, e.g. '3pi/2', 'pi', '0.5'."""
    if isinstance(text, (int, float)):
        return float(text)
    m = _PI_RE.match(text)
    if m:
        coef = m.group(1)
        coef = float(coef) if coef not in ("", "-") else (-1.0 if coef == "-" else 1.0)
        div = float(m.group(2)) if m.group(2) else 1.0
        return coef * math.pi / div
    try:
        return float(text)
    except ValueError as exc:
        raise SpaceError(f"cannot parse angle {text!r}") from exc


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
        # older files may carry a search-depth field: the search is
        # exhaustive now, and other fields are ignored
        if "coords" in description:
            return MeshSpace(tris, coords=description["coords"])
        lengths = {
            frozenset((int(i), int(j))): float(L)
            for i, j, L in field("edge_lengths")
        }
        return MeshSpace(tris, edge_lengths=lengths)
    raise SpaceError(f"unknown space type {kind!r}")


def parse_point(space, text):
    """Parse a point literal for the given space variant.

    Cone/spindle/cap: 'r,phi'; polygon: 'x,y'; mesh: 'F<face>:<b0>,<b1>'.
    """
    if not isinstance(text, str):
        return space.validate_point(text)
    text = text.strip()
    if space.variant == "mesh":
        m = re.match(r"^F(\d+):([^,]+),([^,]+)$", text)
        if not m:
            raise SpaceError(f"mesh point literal {text!r} must be F<face>:<b0>,<b1>")
        b0, b1 = parse_angle(m.group(2)), parse_angle(m.group(3))
        return space.validate_point(MeshPoint(int(m.group(1)), (b0, b1, 1.0 - b0 - b1)))
    parts = text.split(",")
    if len(parts) != 2:
        raise SpaceError(f"point literal {text!r} must have two coordinates")
    return space.validate_point((parse_angle(parts[0]), parse_angle(parts[1])))


def format_point(space, p):
    if space.variant == "mesh":
        p = space.validate_point(p)
        return f"F{p.face}:{p.bary[0]:.9g},{p.bary[1]:.9g}"
    return f"{p[0]:.9g},{p[1]:.9g}"
