"""Seeded closed-loop benchmark of the alexgeo library.

Run from the repository root:

    python3 perfbench/run.py --workload mesh_field --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop: the next job starts when the
previous one returns, so no layer queues work and there is no waiting
time to report.  With ``--trace 0`` the run measures the end-to-end
metrics untraced, every time scaled to a reference host speed (see
``reference.py``); with ``--trace 1`` it wraps the library's public
functions (see ``tracer.py``), runs a fixed number of jobs traced and
the same jobs untraced, times the quick acceptance criteria, and
reports the per-layer metrics.  Either way every job's output is checked
against independent oracles after the timed part, and each oracle must
reject a deliberately corrupted record.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a run record goes to ``perfbench/out/``.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from reference import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
ACCEPTANCE = range(1, 12)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import the workloads, and with them alexgeo, afresh; returns the module."""
    if not (ROOT / "src" / "alexgeo" / "__init__.py").is_file():
        fail(f"no alexgeo sources under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [n for n in sys.modules
                 if n in ("workloads", "oracles") or n.split(".")[0] == "alexgeo"]:
        del sys.modules[name]
    return importlib.import_module("workloads")


def set_up(name, seed, speed):
    """Import the library and build the inputs, SETUP_REPEATS times.

    Returns the last import's workload, its inputs, and the set-up times
    at the reference speed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        k = speed.sample()
        t0 = time.perf_counter()
        wl = import_library().WORKLOADS.get(name)
        if wl is None:
            fail(f"unknown workload {name!r}")
        inputs = wl.setup(seed)
        dt = time.perf_counter() - t0
        speed.sample()
        times.append(speed.scaled(k, dt))
    return wl, inputs, times


def declared_metrics():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# -- run record ----------------------------------------------------------------
def canon(obj):
    """JSON-able canonical form of generated inputs, for the input hash."""
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return canon(obj.tolist())
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if hasattr(obj, "describe"):
        return canon(obj.describe())
    if is_dataclass(obj):
        return [type(obj).__name__] + [canon(getattr(obj, f.name)) for f in fields(obj)]
    raise TypeError(f"cannot hash input of type {type(obj).__name__}")


def input_hash(inputs):
    blob = json.dumps(canon(inputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment():
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines,
        "load": "closed loop, one process, one caller; no queue, so no waiting metric",
    }


# -- jobs and oracles ---------------------------------------------------------------
def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(wl, inputs, i, runner=None):
    """(record or None, seconds, error text)."""
    t0 = time.perf_counter()
    try:
        rec = runner(i, wl.run, inputs, i) if runner else wl.run(inputs, i)
        err = None
    except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
        rec, err = None, f"{type(exc).__name__}: {exc}"
    return rec, time.perf_counter() - t0, err


def verify(wl, inputs, records):
    """Oracle gates of every record and the corrupted-record self-test.

    Each gate's slack is its 10th percentile over the passing checks with
    a positive excess (one at 0 or below carries no margin) of every
    record; the run's slack is the smallest of these.  A percentile, unlike
    the minimum, neither follows a single job nor falls as a faster
    program completes more jobs in the same time.
    """
    from oracles import gate_passes, gate_slack

    failures, by_gate = [], {}
    for rec in records:
        gates = wl.check(inputs, rec)
        bad = [g[0] for g in gates if not gate_passes(g)]
        if bad:
            failures.append({"job": rec["i"], "gates": bad})
        for g in gates:
            s = gate_slack(g) if gate_passes(g) and g[1] > 0.0 else None
            if s is not None:
                by_gate.setdefault(g[0], []).append(s)
    tightest = {name: float(np.quantile(v, 0.1)) for name, v in by_gate.items()}
    # a gate that passes on the first record of each job type must fail
    # on its corrupted copy
    selftest = {}
    for rec in records:
        kind = wl.kind_of(inputs, rec)
        if kind not in selftest:
            before = {g[0] for g in wl.check(inputs, rec) if not gate_passes(g)}
            after = {g[0] for g in wl.check(inputs, wl.corrupt(inputs, rec))
                     if not gate_passes(g)}
            selftest[kind] = bool(after - before)
    return failures, min(tightest.values(), default=None), tightest, selftest


def untraced(wl, inputs, setups, seconds, speed):
    digest = input_hash(inputs)
    pool = wl.pool
    records, done, errors, discarded = [], [], [], 0
    spans = []  # (speed sample before, seconds) of every attempt
    rss_mb = None  # peak after the first fixed_jobs jobs, which every run reaches
    t_start = time.perf_counter()
    i = 0
    while i < pool and time.perf_counter() - t_start < seconds:
        k = speed.mark()
        rec, dt, err = run_job(wl, inputs, i)
        i += 1
        spans.append((k, dt))
        if err is not None:
            errors.append({"job": i - 1, "error": err})
        elif rec is None:
            discarded += 1
        else:
            records.append(rec)
            done.append(len(spans) - 1)
            if len(records) == wl.fixed_jobs:
                rss_mb = peak_rss_mb()
    speed.sample()
    raw = [dt for _, dt in spans]
    scaled = [speed.scaled(k, dt) for k, dt in spans]
    raw_lat = [raw[j] for j in done]
    lat = [scaled[j] for j in done]
    failures, slack, tightest, selftest = verify(wl, inputs, records)
    by_kind = {}
    for rec, dt in zip(records, lat):
        by_kind.setdefault(wl.kind_of(inputs, rec), []).append(dt)
    tail = float(np.quantile(lat, wl.tail_level)) if lat else 0.0
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(records) / sum(scaled),
        "job_p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
        "job_tail_ms": 1e3 * tail,
        "slack_p10_dec": slack if slack is not None else 0.0,
        "peak_rss_mb": (rss_mb if rss_mb is not None else peak_rss_mb()) - speed.footprint_mb,
    }
    attempted = len(records) + len(errors)
    n_failed = len(failures) + len(errors)
    detail = {
        "jobs": len(records), "discarded": discarded, "raised": errors,
        "oracle_failures": failures, "failed_frac": n_failed / max(attempted, 1),
        "selftest_rejected": selftest, "pool": pool, "pool_exhausted": i >= pool,
        "tail_level": wl.tail_level, "jobs_beyond_tail": sum(x > tail for x in lat),
        "setup_runs_s": setups, "speed_samples_s": speed.cost,
        "reference_footprint_mb": speed.footprint_mb,
        "raw_jobs_per_s": len(records) / sum(raw),
        "raw_job_p50_ms": 1e3 * statistics.median(raw_lat) if raw_lat else 0.0,
        "slack_p10_by_gate": tightest, "inexact_frac": wl.inexact_frac(records),
        "input_sha256": digest,
        "p50_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
        "jobs_by_kind": {k: len(v) for k, v in by_kind.items()},
    }
    return metrics, attempted, n_failed, all(selftest.values()), detail


def traced(wl, inputs, seed):
    from tracer import LAYERS, Tracer, span_names

    from alexgeo.acceptance import run_criterion

    plain_inputs, traced_inputs = inputs, wl.setup(seed)
    digest = input_hash(traced_inputs)
    tracer = Tracer()
    records, errors, discarded = [], [], 0
    t_plain = t_traced = 0.0
    for i in range(wl.trace_jobs):
        _, dt, _ = run_job(wl, plain_inputs, i)
        t_plain += dt
        tracer.install(callers=[sys.modules["workloads"]])
        try:
            rec, dt, err = run_job(wl, traced_inputs, i, runner=tracer.run_job)
        finally:
            tracer.uninstall()
        t_traced += dt
        if err is not None:
            errors.append({"job": i, "error": err})
        elif rec is None:
            discarded += 1
        else:
            records.append(rec)
    failures, _, _, selftest = verify(wl, traced_inputs, records)

    per_name, layers, jobs_wall = tracer.summary()
    c = tracer.counters
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics = {}
    for name in span_names():
        calls, self_s = per_name.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for layer in list(LAYERS) + ["bench"]:
        metrics[f"layer.{layer}.self_share"] = ratio(layers.get(layer, 0.0), jobs_wall)
    for key in ("spaces.mesh.distances_from.targets", "spaces.mesh.err_nonzero",
                "tangent.maximize_directional.scan_calls"):
        metrics[key] = c[key]
    for key in ("spaces.mesh.distance_with_error", "spaces.mesh.point_vertex_dists"):
        metrics[f"{key}.repeat_ratio"] = ratio(c[key + ".repeats"], c[key + ".calls_keyed"])
    metrics["functions.InfConvolution.query.in_domain_ratio"] = ratio(
        c["functions.InfConvolution.query.in_domain"],
        per_name.get("functions.InfConvolution.query", (0, 0))[0])
    metrics["radial.grad_regime_share"] = ratio(c["radial.grad_steps"], c["radial.steps"])
    traces = per_name.get("quasigeodesic.trace_quasigeodesic", (0, 0))[0]
    metrics["quasigeodesic.trace.accept_ratio"] = ratio(len(records) if traces else 0, traces)
    metrics["trace.overhead_ratio"] = ratio(t_traced, t_plain)
    for n in ACCEPTANCE:
        t0 = time.perf_counter()
        try:
            ok = run_criterion(n, quick=True).passed
        except Exception:  # noqa: BLE001 - a crash is a failed criterion
            ok = False
        metrics[f"acceptance.c{n:02d}.s"] = time.perf_counter() - t0
        metrics[f"acceptance.c{n:02d}.pass"] = int(ok)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.save(out / f"spans_{wl.name}_seed{seed}.npz")
    attempted = len(records) + len(errors)
    n_failed = len(failures) + len(errors)
    detail = {"jobs": len(records), "discarded": discarded, "raised": errors,
              "oracle_failures": failures, "selftest_rejected": selftest,
              "results": c["spaces.mesh.results"], "spans": len(tracer.start),
              "untraced_s": t_plain, "traced_s": t_traced, "input_sha256": digest}
    return metrics, attempted, n_failed, all(selftest.values()), detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    end_to_end, per_layer = declared_metrics()
    speed = HostSpeed()
    wl, inputs, setups = set_up(args.workload, args.seed, speed)
    if args.trace:
        metrics, attempted, n_failed, selftest_ok, detail = traced(wl, inputs, args.seed)
        units = per_layer
    else:
        metrics, attempted, n_failed, selftest_ok, detail = untraced(
            wl, inputs, setups, args.seconds, speed)
        units = end_to_end
    if set(metrics) != set(units):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(), **detail, "metrics": metrics}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"run_{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": attempted > 0 and n_failed == 0 and selftest_ok,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
