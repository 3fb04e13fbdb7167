"""Closed-form arithmetic in the constant-curvature model plane.

Scalar comparison functions, the curvature law of cosines and its
inverse, and polar-coordinate developments of curves with a discrete
convexity verdict.  Curvature is a runtime real; every formula branches
on its sign and rescales to unit curvature internally.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi


class ModelDomainError(ValueError):
    """Input outside the domain of a model-plane formula."""


def _require_finite(*values):
    for v in values:
        if not math.isfinite(v):
            raise ModelDomainError(f"non-finite input {v!r}")


def rho(kappa: float, x: float) -> float:
    """Comparison potential: (1-cos(x sqrt(k)))/k for k > 0, x^2/2 at zero,
    (cosh(x sqrt(-k)) - 1)/(-k) for k < 0.

    This is the analytic continuation across k = 0; it solves the model
    equation h'' = 1 - k h with h(0) = h'(0) = 0 and has sn as its
    derivative for every sign of k.
    """
    _require_finite(kappa, x)
    if kappa > 0.0:
        s = math.sqrt(kappa)
        return (1.0 - math.cos(x * s)) / kappa
    if kappa < 0.0:
        s = math.sqrt(-kappa)
        return (math.cosh(x * s) - 1.0) / (-kappa)
    return 0.5 * x * x


def sigma(kappa: float, x: float) -> float:
    """sn function: sin(x*sqrt(k))/sqrt(k), x, sinh(x*sqrt(-k))/sqrt(-k)."""
    _require_finite(kappa, x)
    if kappa > 0.0:
        s = math.sqrt(kappa)
        return math.sin(x * s) / s
    if kappa < 0.0:
        s = math.sqrt(-kappa)
        return math.sinh(x * s) / s
    return x


def theta(lam: float, t: float) -> float:
    """Integral of exp(lam*s) over [0, t]: t when lam = 0, else (e^{lam t}-1)/lam."""
    _require_finite(lam, t)
    if lam == 0.0:
        return t
    return math.expm1(lam * t) / lam


def _clamp1(x: float) -> float:
    return 1.0 if x > 1.0 else (-1.0 if x < -1.0 else x)


def comparison_angle(kappa: float, a: float, b: float, c: float) -> float:
    """Angle opposite side b of the model triangle with sides a, b, c.

    Degenerate conventions:
      * a+b < c or b+c < a  ->  0  (the standard zero convention);
      * a = 0 or c = 0 with b > 0 (and not caught above)  ->  pi, the
        antipodal limit of a collapsing hinge side.
    For kappa > 0 the perimeter must not exceed 2*pi/sqrt(kappa).
    """
    _require_finite(kappa, a, b, c)
    if a < 0.0 or b < 0.0 or c < 0.0:
        raise ModelDomainError(f"negative side length in ({a}, {b}, {c})")
    if a + b < c or b + c < a:
        return 0.0
    if kappa > 0.0:
        s = math.sqrt(kappa)
        if (a + b + c) * s > TWO_PI + 1e-12:
            raise ModelDomainError(
                f"perimeter {a + b + c} exceeds 2*pi/sqrt(kappa) = {TWO_PI / s}"
            )
    if b == 0.0:
        return 0.0
    if a == 0.0 or c == 0.0:
        return math.pi
    if kappa == 0.0:
        cosb = (a * a + c * c - b * b) / (2.0 * a * c)
    elif kappa > 0.0:
        s = math.sqrt(kappa)
        sa, sb, sc = a * s, b * s, c * s
        denom = math.sin(sa) * math.sin(sc)
        if denom == 0.0:
            # a or c hits pi/sqrt(kappa): antipodal degeneracy
            return math.pi
        cosb = (math.cos(sb) - math.cos(sa) * math.cos(sc)) / denom
    else:
        s = math.sqrt(-kappa)
        sa, sb, sc = a * s, b * s, c * s
        cosb = (math.cosh(sa) * math.cosh(sc) - math.cosh(sb)) / (
            math.sinh(sa) * math.sinh(sc)
        )
    return math.acos(_clamp1(cosb))


def model_side(kappa: float, a: float, c: float, beta: float) -> float:
    """Side opposite the angle beta enclosed by sides a and c in the model plane."""
    _require_finite(kappa, a, c, beta)
    if a < 0.0 or c < 0.0:
        raise ModelDomainError(f"negative side length in ({a}, {c})")
    if not (0.0 <= beta <= math.pi + 1e-12):
        raise ModelDomainError(f"angle {beta} outside [0, pi]")
    if kappa > 0.0:
        s = math.sqrt(kappa)
        if a * s >= math.pi or c * s >= math.pi:
            raise ModelDomainError(
                f"hinge side >= pi/sqrt(kappa) = {math.pi / s}"
            )
        cosb = math.cos(a * s) * math.cos(c * s) + math.sin(a * s) * math.sin(
            c * s
        ) * math.cos(beta)
        return math.acos(_clamp1(cosb)) / s
    if kappa < 0.0:
        s = math.sqrt(-kappa)
        chb = math.cosh(a * s) * math.cosh(c * s) - math.sinh(a * s) * math.sinh(
            c * s
        ) * math.cos(beta)
        return math.acosh(max(1.0, chb)) / s
    bb = a * a + c * c - 2.0 * a * c * math.cos(beta)
    return math.sqrt(max(0.0, bb))


@dataclass
class DevelopmentRecord:
    """Polar-coordinate polyline in the model plane with turn data.

    `samples` holds (t, r, phi) triples with phi non-decreasing (the
    clockwise convention fixed as increasing phi).  `turns` holds the
    signed turn at each interior sample, positive when the polyline
    bends toward the base point.
    """

    samples: list  # of (t, r, phi)
    turns: list  # of float, len == len(samples) - 2
    convex: bool
    events: list = field(default_factory=list)

    def min_turn(self) -> float:
        return min(self.turns) if self.turns else 0.0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,r,phi,turn\n")
        for i, (t, r, p) in enumerate(self.samples):
            turn = self.turns[i - 1] if 0 < i < len(self.samples) - 1 else ""
            buf.write(f"{t!r},{r!r},{p!r},{turn!r}\n" if turn != "" else f"{t!r},{r!r},{p!r},\n")
        return buf.getvalue()

    def to_svg(self) -> str:
        pts = [(r * math.cos(p), r * math.sin(p)) for _, r, p in self.samples]
        return svg_polyline(pts, marks=[(0.0, 0.0)])


def svg_polyline(pts, marks=()) -> str:
    """SVG of a planar polyline with a red dot at each mark, y pointing up.

    The picture is 1000 wide and fits the polyline and the marks with a
    5% margin.
    """
    width = 1000
    xs = [x for x, _ in pts] + [x for x, _ in marks]
    ys = [y for _, y in pts] + [y for _, y in marks]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = 0.05 * span
    scale = width / (span + 2 * pad)
    ox, oy = min(xs) - pad, min(ys) - pad
    h = int((max(ys) - min(ys) + 2 * pad) * scale) + 1

    def at(x, y):
        return (x - ox) * scale, h - (y - oy) * scale

    dots = "".join(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="red"/>'
                   for cx, cy in (at(x, y) for x, y in marks))
    poly = " ".join(f"{cx:.2f},{cy:.2f}" for cx, cy in (at(x, y) for x, y in pts))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{h}">'
        f'{dots}<polyline points="{poly}" fill="none" stroke="black" stroke-width="1.5"/>'
        "</svg>"
    )


def develop_curve(kappa, r_samples, chords, tolerance: float = 1e-6) -> DevelopmentRecord:
    """Develop a radius profile t -> r(t) into the model plane.

    `chords` are the true space distances between consecutive samples.
    The development is the isometric development of the inscribed
    polyline: each step applies the model triangle with sides
    (r_i, chord_i, r_{i+1}), which makes the turn angles exact for
    piecewise-geodesic curves.  The profile must be 1-Lipschitz within
    `tolerance` and strictly increasing in t; a radius reaching zero
    truncates the development (apex event) rather than continuing through
    the base point.
    """
    _require_finite(kappa)
    samples = [(float(t), float(r)) for t, r in r_samples]
    if len(samples) < 2:
        raise ModelDomainError("need at least two samples")
    events = []
    clean = [samples[0]]
    if samples[0][1] <= 0.0:
        raise ModelDomainError("development starts at the base point")
    for (t0, r0), (t1, r1) in zip(samples, samples[1:]):
        dt = t1 - t0
        if dt <= 0.0:
            raise ModelDomainError(f"samples not strictly increasing at t={t1}")
        if abs(r1 - r0) > dt * (1.0 + tolerance) + tolerance:
            raise ModelDomainError(
                f"radius profile violates the 1-Lipschitz bound at t={t1}"
            )
        if r1 <= 0.0:
            events.append((t1, "apex"))
            break
        if kappa > 0.0 and r1 >= math.pi / math.sqrt(kappa):
            raise ModelDomainError("radius reaches pi/sqrt(kappa)")
        clean.append((t1, r1))

    n = len(clean)
    steps = [min(float(chords[i]), clean[i + 1][0] - clean[i][0]) for i in range(n - 1)]

    phis = [0.0]
    for (_, r0), (_, r1), chord in zip(clean, clean[1:], steps):
        # angle at the base point of the model triangle (r0, chord, r1)
        phis.append(phis[-1] + comparison_angle(kappa, r0, chord, r1))

    triples = [(t, r, phi) for (t, r), phi in zip(clean, phis)]
    turns = []
    for i in range(1, n - 1):
        r_prev, r_mid, r_next = clean[i - 1][1], clean[i][1], clean[i + 1][1]
        ang_in = comparison_angle(kappa, steps[i - 1], r_prev, r_mid)
        ang_out = comparison_angle(kappa, steps[i], r_next, r_mid)
        turns.append(math.pi - (ang_in + ang_out))

    convex = all(t >= -tolerance for t in turns)
    return DevelopmentRecord(
        samples=triples,
        turns=turns,
        convex=convex,
        events=events,
    )
