"""Spans and counters around the library's public functions, from outside.

`Tracer.install()` replaces each traced function by a wrapper on every
module attribute and class through which the library reaches it (for
example both `alexgeo.tangent.maximize_directional` and the name
`alexgeo.flow` imported), and `uninstall()` puts the originals back.
Each call records a span: name, start, end, parent span and job id, in
flat arrays kept in memory and written once by `save()`.  Counters are
updated in the same wrappers.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# layer module -> (comma-separated owner classes, traced functions); owner
# None for module-level functions and "Class.method" names
LAYERS = {
    "spaces.mesh": ("MeshSpace", ["distance_with_error", "distances_from",
                                  "point_vertex_dists", "directions_to", "walk",
                                  "geodesic_points"]),
    "spaces.cone": ("ConeSpace", ["distance", "walk", "directions_to", "geodesic_points"]),
    "spaces.spherical": ("SpindleSpace,CapSpace",
                         ["distance", "walk", "directions_to", "geodesic_points"]),
    "spaces.polygon": ("PolygonSpace", ["distance", "walk", "directions_to",
                                        "geodesic_points"]),
    "tangent": (None, ["maximize_directional", "gradient_from_directional",
                       "polar_vector"]),
    "functions": (None, ["evaluate", "differential", "check_concavity",
                         "InfConvolution.query"]),
    "flow": (None, ["gradient_curve", "gradient"]),
    "radial": (None, ["RadialStepper.step", "radial_curve", "gexp_map"]),
    "quasigeodesic": (None, ["trace_quasigeodesic", "check_quasigeodesic"]),
    "concavity_tight": (None, ["tight_image_study", "build_strictly_concave"]),
    "model_plane": (None, ["develop_curve", "comparison_angle"]),
}


def span_names():
    out = []
    for layer, (_, funcs) in LAYERS.items():
        out += [f"{layer}.{f}" for f in funcs]
    return out


def _mesh_key(p):
    face, bary = p
    return (face, round(bary[0], 12), round(bary[1], 12))


class Tracer:
    def __init__(self):
        self.names = ["job"]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.job_id = -1
        self.counters = Counter()
        self._seen = {}
        self._undo = []

    # -- spans ------------------------------------------------------------
    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def run_job(self, job_id, fn, *args):
        """Run one job under a root span named "job"."""
        self.job_id = job_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.job_id = -1

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn, observe):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, args, out)
            return out

        return wrapper

    # -- counters at the same boundaries -------------------------------------
    def repeat(self, name, key):
        seen = self._seen.setdefault(name, set())
        self.counters[name + ".calls_keyed"] += 1
        if key in seen:
            self.counters[name + ".repeats"] += 1
        seen.add(key)

    def _observers(self):
        def dwe(t, args, out):
            t.repeat("spaces.mesh.distance_with_error",
                     (_mesh_key(args[1]), _mesh_key(args[2])))
            t.counters["spaces.mesh.results"] += 1
            t.counters["spaces.mesh.err_nonzero"] += int(out[1] > 0.0)

        def dfrom(t, args, out):
            t.counters["spaces.mesh.distances_from.targets"] += len(out)
            t.counters["spaces.mesh.results"] += len(out)
            t.counters["spaces.mesh.err_nonzero"] += sum(e > 0.0 for _, e in out)

        def pvd(t, args, out):
            t.repeat("spaces.mesh.point_vertex_dists", _mesh_key(args[1]))

        def maxdir(t, args, out):
            t.counters["tangent.maximize_directional.scan_calls"] += int(args[0].single is None)

        def query(t, args, out):
            t.counters["functions.InfConvolution.query.in_domain"] += int(out.in_domain)

        return {
            "spaces.mesh.distance_with_error": dwe,
            "spaces.mesh.distances_from": dfrom,
            "spaces.mesh.point_vertex_dists": pvd,
            "tangent.maximize_directional": maxdir,
            "functions.InfConvolution.query": query,
        }

    def _step_wrapper(self, fn):
        """RadialStepper.step also counts the steps taken in the grad regime."""
        inner = self._wrap("radial.RadialStepper.step", fn, None)
        tracer = self

        @functools.wraps(fn)
        def step(stepper, dt):
            tracer.counters["radial.steps"] += 1
            tracer.counters["radial.grad_steps"] += int(stepper.regime == "grad")
            return inner(stepper, dt)

        return step

    # -- patching ------------------------------------------------------------
    def install(self, callers=()):
        """Patch the library and the given caller modules (the benchmark's)."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "alexgeo" or n.startswith("alexgeo.")) and m is not None]
        modules += list(callers)
        observers = self._observers()
        for layer, (owners, funcs) in LAYERS.items():
            mod = sys.modules["alexgeo." + layer]
            for fname in funcs:
                name = f"{layer}.{fname}"
                if owners is None and "." not in fname:
                    orig = getattr(mod, fname)
                    new = self._wrap(name, orig, observers.get(name))
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, new)
                                self._undo.append((m, attr, orig))
                    continue
                if owners is None:
                    owners_here, meth = fname.split(".")
                else:
                    owners_here, meth = owners, fname
                for cname in owners_here.split(","):
                    cls = getattr(mod, cname)
                    orig = cls.__dict__[meth]
                    new = (self._step_wrapper(orig) if name == "radial.RadialStepper.step"
                           else self._wrap(name, orig, observers.get(name)))
                    setattr(cls, meth, new)
                    self._undo.append((cls, meth, orig))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------------
    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
        }

    def summary(self):
        """Calls and self time per span name, and self time per layer."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        self_s = np.bincount(a["name_id"], weights=self_t, minlength=n)
        per_name = {nm: (int(calls[k]), float(self_s[k])) for k, nm in enumerate(self.names)}
        jobs_wall = float(dur[a["name_id"] == 0].sum())
        layers = {}
        for k, nm in enumerate(self.names):
            layer = "bench" if nm == "job" else _layer_of(nm)
            layers[layer] = layers.get(layer, 0.0) + float(self_s[k])
        return per_name, layers, jobs_wall

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _layer_of(name):
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    raise KeyError(name)
