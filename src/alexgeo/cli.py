"""Command-line front end: metric queries, flows, tracing, checking,
report emission and the acceptance-suite runner.

Exit codes: 0 success, 1 invariant-breach report, 2 parse/validation
error.  JSON reports carry schema "alexgeo/1"; CSV output is
deterministic per (inputs, seed).
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import model_plane
from .acceptance import run_suite
from .concavity_tight import (
    ConstructionError,
    build_strictly_concave,
    tight_check,
    tight_image_study,
)
from .extremal import detect_extremal, verify_extremal, SubsetDescriptor
from .flow import CurveRecord, gradient, gradient_curve
from .functions import (
    Affine,
    BoundaryDist,
    Dist,
    DistSq,
    ExprError,
    InfConvolution,
    MinExpr,
    PhiRC,
    RhoDist,
    check_concavity,
)
from .quasigeodesic import TraceError, check_quasigeodesic, trace_quasigeodesic
from .radial import gexp_map
from .spaces import SpaceError, load_space, parse_angle
from .tangent import GradientError, TangentVec

SCHEMA = "alexgeo/1"


class CliError(Exception):
    pass


def _load_space_arg(path):
    try:
        return load_space(path)
    except (OSError, SpaceError) as exc:
        raise CliError(f"space file {path!r}: {exc}") from exc


def parse_function(space, spec):
    """Expression tree from a JSON dict / string / file path."""
    if isinstance(spec, str):
        text = spec
        if not text.lstrip().startswith("{"):
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise CliError(f"function file {spec!r}: {exc}") from exc
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"malformed function file: {exc}") from exc
    return _parse_node(space, spec)


def _parse_node(space, node):
    if not isinstance(node, dict) or "op" not in node:
        raise CliError(f"function node needs an 'op': {node!r}")
    op = node["op"]

    def field(name):
        if name not in node:
            raise CliError(f"function node {op!r} has no {name!r} field")
        return node[name]

    if op == "dist":
        return Dist(q=space.parse_point(field("q")))
    if op == "dist_sq":
        return DistSq(q=space.parse_point(field("q")))
    if op == "rho_dist":
        return RhoDist(kappa=float(node.get("kappa", space.kappa)),
                       q=space.parse_point(field("q")))
    if op == "phi_rc":
        return PhiRC(r=float(field("r")), c=float(field("c")),
                     q=space.parse_point(field("q")))
    if op == "boundary_dist":
        return BoundaryDist()
    if op in ("sum", "affine"):
        terms = tuple(_parse_node(space, t) for t in field("terms"))
        weights = tuple(float(w) for w in node.get(
            "weights", [1.0] * len(terms)))
        return Affine(weights=weights, constant=float(node.get("constant", 0.0)),
                      terms=terms)
    if op == "min":
        return MinExpr(terms=tuple(_parse_node(space, t) for t in field("terms")))
    raise CliError(f"unknown function op {op!r}")


def _json_scalar(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {obj!r}")


def _emit(args, payload, curve=None, space=None, development=None):
    out = getattr(args, "out", None) or "json"
    base = getattr(args, "prefix", None) or "alexgeo-out"
    wrote = []
    if out in ("json", "all"):
        path = f"{base}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, **payload}, fh, indent=2,
                      sort_keys=True, default=_json_scalar)
        wrote.append(path)
    if curve is not None and out in ("csv", "all"):
        path = f"{base}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(curve.to_csv(space))
        wrote.append(path)
    if development is not None and out in ("csv", "all"):
        path = f"{base}-development.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(development.to_csv())
        wrote.append(path)
    if development is not None and out in ("svg", "all"):
        path = f"{base}.svg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(development.to_svg())
        wrote.append(path)
    if curve is not None and out in ("svg", "all") and development is None:
        path = f"{base}.svg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_curve_svg(space, curve))
        wrote.append(path)
    for path in wrote:
        print(f"wrote {path}")


def _curve_svg(space, curve, width=1000):
    pts = [tuple(map(float, space.pos2(p))) for p in curve.points]
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = 0.05 * span
    scale = width / (span + 2 * pad)
    h = int((max(ys) - min(ys) + 2 * pad) * scale) + 1
    ox, oy = min(xs) - pad, min(ys) - pad
    poly = " ".join(f"{(x - ox) * scale:.2f},{h - (y - oy) * scale:.2f}"
                    for x, y in pts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{h}">'
            f'<polyline points="{poly}" fill="none" stroke="black"'
            ' stroke-width="1.5"/></svg>')


def cmd_distance(args):
    space = _load_space_arg(args.space)
    p = space.parse_point(args.p)
    q = space.parse_point(args.q)
    d, err = space.distance_with_error(p, q)
    print(f"{d:.6f}")
    _emit(args, {"distance": d, "error_bound": err})
    return 0


def cmd_geodesic(args):
    if args.samples < 2:
        raise CliError(f"--samples must be at least 2, not {args.samples}")
    space = _load_space_arg(args.space)
    p = space.parse_point(args.p)
    q = space.parse_point(args.q)
    pts = space.geodesic_points(p, q, args.samples)
    d = space.distance(p, q)
    curve = CurveRecord(
        [d * i / (args.samples - 1) for i in range(args.samples)], pts,
        [None] * args.samples, [None] * args.samples, [], d / (args.samples - 1),
        "geodesic")
    print(f"length {d:.9g} in {args.samples} samples")
    _emit(args, {"length": d,
                 "points": [space.format_point(x) for x in pts]},
          curve=curve, space=space)
    return 0


def cmd_gradient(args):
    space = _load_space_arg(args.space)
    f = parse_function(space, args.function)
    p = space.parse_point(args.p)
    g = gradient(f, space, p)
    print(f"|grad| = {g.norm:.9g} at angle {g.angle:.9g} "
          f"(sigma length {g.sigma.length:.9g})")
    _emit(args, {"norm": g.norm, "angle": g.angle,
                 "sigma_length": g.sigma.length, "is_arc": g.sigma.is_arc})
    return 0


def cmd_flow(args):
    space = _load_space_arg(args.space)
    f = parse_function(space, args.function)
    p = space.parse_point(args.p)
    rec = gradient_curve(f, space, p, args.time, args.step)
    end = rec.end()
    print(f"flowed to {space.format_point(end)} with "
          f"{len(rec.events)} events")
    _emit(args, {"end": space.format_point(end),
                 "events": [[t, k, str(r)] for t, k, r in rec.events]},
          curve=rec, space=space)
    return 0


def cmd_gexp(args):
    space = _load_space_arg(args.space)
    p = space.parse_point(args.p)
    v = TangentVec(args.norm, parse_angle(args.dir), space.sigma_at(p))
    out = gexp_map(space, p, v, args.kappa, args.step)
    print(space.format_point(out))
    _emit(args, {"point": space.format_point(out)})
    return 0


def cmd_trace_qg(args):
    space = _load_space_arg(args.space)
    p = space.parse_point(getattr(args, "from"))
    rec = trace_quasigeodesic(space, p, parse_angle(args.dir), args.length)
    payload = {
        "end": space.format_point(rec.end()),
        "events": [[t, k, str(r)] for t, k, r in rec.events],
    }
    status = 0
    if args.check:
        rep = check_quasigeodesic(space, rec, n_probes=args.probes,
                                  tol=args.tol, seed=args.seed)
        payload["check"] = {
            "passed": rep.passed(args.tol),
            "unit_speed_dev": rep.unit_speed_dev,
            "barrier_worst": rep.barrier_worst,
            "monotone_worst": rep.monotone_worst,
            "development_min_turn": rep.development_min_turn,
            "entropy_total": rep.entropy_total,
        }
        print(rep.summary())
        if not rep.passed(args.tol):
            status = 1
    print(f"traced to {space.format_point(rec.end())}; "
          f"events: {[(round(t, 6), k) for t, k, _ in rec.events]}")
    _emit(args, payload, curve=rec, space=space)
    return status


def cmd_check_qg(args):
    space = _load_space_arg(args.space)
    p = space.parse_point(getattr(args, "from"))
    rec = trace_quasigeodesic(space, p, parse_angle(args.dir), args.length)
    rep = check_quasigeodesic(space, rec, n_probes=args.probes, tol=args.tol,
                              seed=args.seed)
    print(rep.summary())
    _emit(args, {"passed": rep.passed(args.tol), "summary": rep.summary()})
    return 0 if rep.passed(args.tol) else 1


def cmd_develop(args):
    space = _load_space_arg(args.space)
    p = space.parse_point(args.p)
    rec = trace_quasigeodesic(space, space.parse_point(getattr(args, "from")),
                              parse_angle(args.dir), args.length)
    rs = [d for d, _ in space.distances_from(p, rec.points)]
    chords = [space.distance(a, b) for a, b in zip(rec.points, rec.points[1:])]
    dev = model_plane.develop_curve(space.kappa, list(zip(rec.ts, rs)),
                                    tolerance=args.tol, chords=chords)
    print(f"development: convex={dev.convex} min_turn={dev.min_turn():.3e}")
    _emit(args, {"convex": dev.convex, "min_turn": dev.min_turn()},
          development=dev)
    return 0 if dev.convex else 1


def cmd_check_concavity(args):
    space = _load_space_arg(args.space)
    f = parse_function(space, args.function)
    center = space.parse_point(args.p)
    rep = check_concavity(f, space, args.lam, (center, args.radius),
                          n_geodesics=args.samples, seed=args.seed,
                          tol=args.tol)
    print(rep.summary())
    _emit(args, {"passed": rep.passed, "worst_margin": rep.worst_margin,
                 "lambda": args.lam})
    return 0 if rep.passed else 1


def cmd_inf_conv(args):
    space = _load_space_arg(args.space)
    f = parse_function(space, args.function)
    ic = InfConvolution(f, space, args.eps, lip_hint=args.lip)
    res = ic.query(space.parse_point(args.p))
    print(f"{res.value:.9g} (argmin {space.format_point(res.argmin)}, "
          f"in_domain={res.in_domain})")
    _emit(args, {"value": res.value,
                 "argmin": space.format_point(res.argmin),
                 "in_domain": res.in_domain})
    return 0


def cmd_detect_extremal(args):
    space = _load_space_arg(args.space)
    out = []
    for desc, ev in detect_extremal(space, seed=args.seed):
        item = {"kind": desc.kind, "label": desc.label}
        if desc.point is not None:
            item["point"] = space.format_point(desc.point)
        if ev is not None:
            item["evidence"] = {
                "criterion_worst": ev.criterion_worst,
                "invariance_worst": ev.invariance_worst,
                "passed": ev.passed(args.tol),
            }
        out.append(item)
        print(f"{desc.kind:9s} {desc.label}"
              + (f" [criterion {ev.criterion_worst:.2e}, drift "
                 f"{ev.invariance_worst:.2e}]" if ev else ""))
    _emit(args, {"candidates": out})
    return 0


def cmd_verify_extremal(args):
    space = _load_space_arg(args.space)
    if args.subset == "boundary":
        if space.boundary_period is None:
            raise CliError(f"--subset boundary needs a polygon or cap space, "
                           f"not {space.variant}")
        desc = SubsetDescriptor("boundary", label="boundary")
    else:
        desc = SubsetDescriptor("point", space.parse_point(args.subset),
                                label="point")
    ev = verify_extremal(space, desc, seed=args.seed)
    ok = ev.passed(args.tol)
    print(f"criterion worst {ev.criterion_worst:.3e}; "
          f"flow drift {ev.invariance_worst:.3e}; passed: {ok}")
    _emit(args, {"criterion_worst": ev.criterion_worst,
                 "invariance_worst": ev.invariance_worst, "passed": ok})
    return 0 if ok else 1


def cmd_tight_check(args):
    space = _load_space_arg(args.space)
    funcs = [parse_function(space, f) for f in args.function]
    rep = tight_check(space, funcs, (space.parse_point(args.p), args.radius),
                      n_samples=args.samples, seed=args.seed)
    print(rep.summary())
    _emit(args, {"sup": rep.sup_cross, "tight": rep.tight,
                 "n_regular": rep.n_regular, "n_critical": rep.n_critical})
    return 0 if rep.tight else 1


def cmd_tight_image(args):
    space = _load_space_arg(args.space)
    center = space.parse_point(args.p)
    funcs = []
    for spec in args.function:
        funcs.append(parse_function(space, spec))
    if not funcs:
        for k in range(3):
            ang = 0.4 + 2 * math.pi * k / 3
            c = (center[0] + 0.08 * math.cos(ang), center[1] + 0.08 * math.sin(ang))
            funcs.append(build_strictly_concave(space, c, r=0.35, c=60.0,
                                                n_points=6, seed=args.seed)[0])
    rep = tight_image_study(space, funcs, (center, args.radius),
                            n_support=args.samples, seed=args.seed)
    print(rep.summary())
    _emit(args, {"support_failures": rep.support_failures,
                 "n_support": rep.n_support, "gf_worst": rep.gf_worst,
                 "bilip": [rep.bilip_low, rep.bilip_high]})
    return 0 if rep.support_failures == 0 else 1


def cmd_suite(args):
    numbers = None
    if args.only:
        numbers = {int(x) for x in args.only.split(",")}
    results = run_suite(quick=args.quick, numbers=numbers)
    for r in results:
        print(r.line())
    payload = {
        "results": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "detail": r.detail, "elapsed": round(r.elapsed, 2)}
            for r in results
        ]
    }
    _emit(args, payload)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="alexgeo",
        description="semiconcave-function machinery on concrete 2-D "
                    "curvature-bounded spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, function=False, point_q=False, direction=False):
        p.add_argument("--space", required=True, help="space file (JSON)")
        p.add_argument("--out", choices=["json", "csv", "svg", "all"],
                       default=None)
        p.add_argument("--prefix", default=None, help="output file prefix")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-6)
        if function:
            p.add_argument("--function", required=True,
                           help="function file or inline JSON")
        if point_q:
            p.add_argument("--q", required=True)
        if direction:
            p.add_argument("--dir", required=True,
                           help="direction angle (accepts api/b literals)")

    p = sub.add_parser("distance", help="distance between two points")
    common(p, point_q=True)
    p.add_argument("--p", required=True)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("geodesic", help="sample a minimizing geodesic")
    common(p, point_q=True)
    p.add_argument("--p", required=True)
    p.add_argument("--samples", type=int, default=65)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("gradient", help="gradient of a semiconcave expression")
    common(p, function=True)
    p.add_argument("--p", required=True)
    p.set_defaults(fn=cmd_gradient)

    p = sub.add_parser("flow", help="gradient curve from a point")
    common(p, function=True)
    p.add_argument("--p", required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("gexp", help="gradient exponential of a tangent vector")
    common(p, direction=True)
    p.add_argument("--p", required=True)
    p.add_argument("--norm", type=float, required=True)
    p.add_argument("--kappa", type=int, default=0, choices=[-1, 0, 1])
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(fn=cmd_gexp)

    p = sub.add_parser("trace-qg", help="equal-split quasigeodesic trace")
    common(p, direction=True)
    p.add_argument("--from", required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--probes", type=int, default=12)
    p.set_defaults(fn=cmd_trace_qg)

    p = sub.add_parser("check-qg", help="trace and run the full checker")
    common(p, direction=True)
    p.add_argument("--from", required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--probes", type=int, default=20)
    p.set_defaults(fn=cmd_check_qg)

    p = sub.add_parser("develop", help="development of a trace about a point")
    common(p, direction=True)
    p.add_argument("--from", required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--p", required=True, help="base point of the development")
    p.set_defaults(fn=cmd_develop)

    p = sub.add_parser("check-concavity", help="sampled concavity test")
    common(p, function=True)
    p.add_argument("--p", required=True)
    p.add_argument("--radius", type=float, default=0.3)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(fn=cmd_check_concavity)

    p = sub.add_parser("inf-conv", help="inf-convolution value at a point")
    common(p, function=True)
    p.add_argument("--p", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--lip", type=float, default=2.0)
    p.set_defaults(fn=cmd_inf_conv)

    p = sub.add_parser("detect-extremal", help="extremal subset candidates")
    common(p)
    p.set_defaults(fn=cmd_detect_extremal)

    p = sub.add_parser("verify-extremal", help="criterion and invariance tests")
    common(p)
    p.add_argument("--subset", required=True,
                   help="'boundary' or a point literal")
    p.set_defaults(fn=cmd_verify_extremal)

    p = sub.add_parser("tight-check", help="pairwise tightness of functions")
    common(p)
    p.add_argument("--function", action="append", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=cmd_tight_check)

    p = sub.add_parser("tight-image", help="image geometry of concave charts")
    common(p)
    p.add_argument("--function", action="append", default=[])
    p.add_argument("--p", required=True)
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=cmd_tight_image)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--only", default=None, help="comma-separated numbers")
    p.add_argument("--out", choices=["json", "csv", "svg", "all"], default=None)
    p.add_argument("--prefix", default=None)
    p.set_defaults(fn=cmd_suite)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, SpaceError, ExprError, ValueError, TraceError,
            ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GradientError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
