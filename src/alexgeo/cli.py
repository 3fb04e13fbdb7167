"""Command-line front end: metric queries, flows, tracing, checking,
report emission and the acceptance-suite runner.

Each subcommand defines only the options its command function reads.
Every command writes a JSON report with schema "alexgeo/1"; the curve
commands (geodesic, flow, trace-qg, develop) add CSV and SVG files as
--out selects.  CSV output is deterministic per (inputs, seed).

Exit codes: 0 success, 1 invariant-breach report, 2 parse/validation
error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

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
from .verdict import line, passed

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


def _emit(args, payload, files=()):
    """Write the JSON report and the command's (suffix, text) files.

    A command with --out writes the kinds it selects; any other command
    writes its JSON report alone.
    """
    out = getattr(args, "out", "json")
    report = json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True,
                        default=_json_scalar)
    for suffix, text in [(".json", report), *files]:
        if out in ("all", suffix.rpartition(".")[2]):
            path = args.prefix + suffix
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {path}")


def _verdict(margins):
    """Print the margins' line; returns the verdict and the margins for the JSON."""
    print(line(margins))
    return {"passed": passed(margins), "margins": [asdict(m) for m in margins]}


def _curve_files(space, curve):
    pts = [tuple(map(float, space.pos2(p))) for p in curve.points]
    return [(".csv", curve.to_csv(space)), (".svg", model_plane.svg_polyline(pts))]


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
    curve = CurveRecord([d * i / (args.samples - 1) for i in range(args.samples)], pts,
                        [None] * args.samples, [], d / (args.samples - 1))
    print(f"length {d:.9g} in {args.samples} samples")
    _emit(args, {"length": d,
                 "points": [space.format_point(x) for x in pts]},
          _curve_files(space, curve))
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
          _curve_files(space, rec))
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
            **_verdict(rep.margins(args.tol)),
            "unit_speed_dev": rep.unit_speed_dev,
            "barrier_worst": rep.barrier_worst,
            "monotone_worst": rep.monotone_worst,
            "development_min_turn": rep.development_min_turn,
            "entropy_total": rep.entropy_total,
        }
        if not payload["check"]["passed"]:
            status = 1
    print(f"traced to {space.format_point(rec.end())}; "
          f"events: {[(round(t, 6), k) for t, k, _ in rec.events]}")
    _emit(args, payload, _curve_files(space, rec))
    return status


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
          [("-development.csv", dev.to_csv()), (".svg", dev.to_svg())])
    return 0 if dev.convex else 1


def cmd_check_concavity(args):
    space = _load_space_arg(args.space)
    f = parse_function(space, args.function)
    center = space.parse_point(args.p)
    rep = check_concavity(f, space, args.lam, (center, args.radius),
                          n_geodesics=args.samples, seed=args.seed,
                          tol=args.tol)
    verdict = _verdict(rep.margins())
    _emit(args, {**verdict, "worst_margin": rep.worst_margin, "lambda": args.lam})
    return 0 if verdict["passed"] else 1


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
    desc: SubsetDescriptor
    for desc, ev in detect_extremal(space, seed=args.seed):
        item = {"kind": desc.kind, "label": desc.label}
        if desc.point is not None:
            item["point"] = space.format_point(desc.point)
        if ev is not None:
            item["evidence"] = {
                "criterion_worst": ev.criterion_worst,
                "invariance_worst": ev.invariance_worst,
                "passed": passed(ev.margins(args.tol)),
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
    verdict = _verdict(ev.margins(args.tol))
    _emit(args, {**verdict, "criterion_worst": ev.criterion_worst,
                 "invariance_worst": ev.invariance_worst})
    return 0 if verdict["passed"] else 1


def cmd_tight_check(args):
    space = _load_space_arg(args.space)
    funcs = [parse_function(space, f) for f in args.function]
    rep = tight_check(space, funcs, (space.parse_point(args.p), args.radius),
                      n_samples=args.samples, seed=args.seed)
    verdict = _verdict(rep.margins())
    _emit(args, {**verdict, "sup": rep.sup_cross, "tight": verdict["passed"],
                 "n_regular": rep.n_regular, "n_critical": rep.n_critical})
    return 0 if verdict["passed"] else 1


def cmd_tight_image(args):
    space = _load_space_arg(args.space)
    center = space.parse_point(args.p)
    funcs = [parse_function(space, f) for f in args.function]
    if not funcs:
        for k in range(3):
            c = space.walk(center, 0.4 + 2 * math.pi * k / 3, 0.08).end
            funcs.append(build_strictly_concave(space, c, r=0.35, c=60.0,
                                                n_points=6, seed=args.seed)[0])
    rep = tight_image_study(space, funcs, (center, args.radius),
                            n_support=args.samples, n_gf=args.samples, seed=args.seed)
    verdict = _verdict(rep.margins())
    _emit(args, {**verdict, "support_failures": rep.support_failures,
                 "n_support": rep.n_support, "gf_worst": rep.gf_worst,
                 "bilip": [rep.bilip_low, rep.bilip_high]})
    return 0 if verdict["passed"] else 1


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
             "detail": r.detail, "margins": [asdict(m) for m in r.margins],
             "elapsed": round(r.elapsed, 2)}
            for r in results
        ]
    }
    _emit(args, payload)
    return 0 if all(r.passed for r in results) else 1


# specs of the options that several commands read; `command` adds those it names
_OPTIONS = {
    "space": dict(required=True, help="space file (JSON)"),
    "out": dict(choices=["json", "csv", "svg", "all"], default="json"),
    "prefix": dict(default="alexgeo-out", help="output file prefix"),
    "seed": dict(type=int, default=0),
    "tol": dict(type=float, default=1e-6),
    "function": dict(required=True, help="function file or inline JSON"),
    "p": dict(required=True),
    "q": dict(required=True),
    "dir": dict(required=True, help="direction angle (accepts api/b literals)"),
    "from": dict(required=True),
    "length": dict(type=float, required=True),
    "step": dict(type=float, default=1e-3),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="alexgeo",
        description="semiconcave-function machinery on concrete 2-D "
                    "curvature-bounded spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, options):
        p = sub.add_parser(name, help=help)
        for opt in options.split():
            p.add_argument(f"--{opt}", **_OPTIONS[opt])
        p.set_defaults(fn=fn)
        return p

    command("distance", cmd_distance, "distance between two points",
            "space prefix p q")

    p = command("geodesic", cmd_geodesic, "sample a minimizing geodesic",
                "space out prefix p q")
    p.add_argument("--samples", type=int, default=65)

    command("gradient", cmd_gradient, "gradient of a semiconcave expression",
            "space prefix function p")

    p = command("flow", cmd_flow, "gradient curve from a point",
                "space out prefix function p step")
    p.add_argument("--time", type=float, required=True)

    p = command("gexp", cmd_gexp, "gradient exponential of a tangent vector",
                "space prefix dir p step")
    p.add_argument("--norm", type=float, required=True)
    p.add_argument("--kappa", type=int, default=0, choices=[-1, 0, 1])

    p = command("trace-qg", cmd_trace_qg, "equal-split quasigeodesic trace",
                "space out prefix dir from length seed tol")
    p.add_argument("--check", action="store_true",
                   help="run the quasigeodesic checker; exit 1 if it fails")
    p.add_argument("--probes", type=int, default=12)

    p = command("develop", cmd_develop, "development of a trace about a point",
                "space out prefix dir from length tol")
    p.add_argument("--p", required=True, help="base point of the development")

    p = command("check-concavity", cmd_check_concavity, "sampled concavity test",
                "space prefix function p seed tol")
    p.add_argument("--radius", type=float, default=0.3)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=100)

    p = command("inf-conv", cmd_inf_conv, "inf-convolution value at a point",
                "space prefix function p")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--lip", type=float, default=2.0)

    command("detect-extremal", cmd_detect_extremal, "extremal subset candidates",
            "space prefix seed tol")

    p = command("verify-extremal", cmd_verify_extremal,
                "criterion and invariance tests", "space prefix seed tol")
    p.add_argument("--subset", required=True, help="'boundary' or a point literal")

    p = command("tight-check", cmd_tight_check, "pairwise tightness of functions",
                "space prefix p seed")
    p.add_argument("--function", action="append", required=True)
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=200)

    p = command("tight-image", cmd_tight_image, "image geometry of concave charts",
                "space prefix p seed")
    p.add_argument("--function", action="append", default=[],
                   help="a coordinate; three default ones when none is given")
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=200,
                   help="support tests, and as many G o F samples")

    p = command("suite", cmd_suite, "run the acceptance criteria", "prefix")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--only", default=None, help="comma-separated numbers")
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
