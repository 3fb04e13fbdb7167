import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alexgeo
from alexgeo import concavity_tight
from alexgeo.cli import build_parser, main
from alexgeo.spaces import ConeSpace, regular_tetrahedron


def _child_env():
    """os.environ with the absolute package root first on PYTHONPATH."""
    env = dict(os.environ)
    root = str(Path(alexgeo.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def cone_file(tmp_path):
    p = tmp_path / "cone.json"
    p.write_text(json.dumps({"type": "cone", "total_angle": "3pi/2"}))
    return str(p)


@pytest.fixture
def tetra_file(tmp_path):
    p = tmp_path / "tetra.json"
    p.write_text(json.dumps(regular_tetrahedron().describe()))
    return str(p)


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps(
        {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    return str(p)


class TestCommands:
    def test_distance_matches_law_of_cosines(self, cone_file, tmp_path, capsys):
        rc = main(["distance", "--space", cone_file, "--p", "1,0",
                   "--q", "1,5pi/4", "--prefix", str(tmp_path / "d")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.765367" in out

    def test_parse_error_exits_2(self, cone_file, tmp_path):
        rc = main(["distance", "--space", cone_file, "--p", "junk",
                   "--q", "1,0", "--prefix", str(tmp_path / "d")])
        assert rc == 2

    def test_missing_space_file_exits_2(self, tmp_path):
        rc = main(["distance", "--space", str(tmp_path / "none.json"),
                   "--p", "1,0", "--q", "1,1", "--prefix", str(tmp_path / "d")])
        assert rc == 2

    def _trace_qg_on(self, space, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space))
        rc = main(["trace-qg", "--space", str(path), "--from", "0.3,0.2",
                   "--dir", "1.0", "--length", "1", "--prefix", str(tmp_path / "t")])
        err = capsys.readouterr().err
        return rc, err

    def test_missing_space_field_exits_2(self, tmp_path, capsys):
        rc, err = self._trace_qg_on({"type": "cap"}, tmp_path, capsys)
        assert rc == 2
        assert err.startswith("error:") and "'radius'" in err
        assert len(err.strip().splitlines()) == 1

    def test_trace_qg_on_a_cap_exits_0(self, tmp_path, capsys):
        path = tmp_path / "cap.json"
        path.write_text(json.dumps({"type": "cap", "radius": 0.8}))
        rc = main(["trace-qg", "--space", str(path), "--from", "0.3,0.5", "--dir", "1.0",
                   "--length", "1.5", "--check", "--prefix", str(tmp_path / "t")])
        assert rc == 0
        report = json.loads((tmp_path / "t.json").read_text())
        assert report["check"]["passed"] is True

    def test_trace_qg_on_a_spindle_exits_0(self, tmp_path, capsys):
        # a geodesic at curvature 1: the barrier compares with the model's
        # own second difference, not with 1 - kappa h (which reads 7.3e-6)
        path = tmp_path / "spindle.json"
        path.write_text(json.dumps({"type": "spindle", "circle_length": "3pi/2"}))
        rc = main(["trace-qg", "--space", str(path), "--from", "1.0,0.3", "--dir", "0.7",
                   "--length", "5", "--check", "--prefix", str(tmp_path / "t")])
        assert rc == 0
        check = json.loads((tmp_path / "t.json").read_text())["check"]
        assert check["passed"] is True and check["barrier_worst"] < 1e-9

    def test_trace_qg_check_without_a_probe_exits_1(self, tetra_file, tmp_path, capsys):
        # every probe lies within 20 h of a trace this long, so none qualifies
        rc = main(["trace-qg", "--space", tetra_file, "--from", "F0:0.3,0.3",
                   "--dir", "0.7", "--length", "60", "--check",
                   "--prefix", str(tmp_path / "t")])
        assert rc == 1
        assert "probes 0 (>= 1)" in capsys.readouterr().out
        assert json.loads((tmp_path / "t.json").read_text())["check"]["passed"] is False

    def test_trace_qg_artifacts(self, tetra_file, tmp_path, capsys):
        prefix = str(tmp_path / "tq")
        rc = main(["trace-qg", "--space", tetra_file, "--from", "F0:0.2,0.3",
                   "--dir", "1.1", "--length", "3", "--check", "--probes", "4",
                   "--out", "all", "--prefix", prefix])
        assert rc == 0
        report = json.loads((tmp_path / "tq.json").read_text())
        assert report["schema"] == "alexgeo/1"
        assert report["check"]["passed"] is True
        assert (tmp_path / "tq.svg").read_text().startswith("<svg")

    def test_csv_deterministic(self, tetra_file, tmp_path):
        outs = []
        for k in range(2):
            prefix = str(tmp_path / f"t{k}")
            main(["trace-qg", "--space", tetra_file, "--from", "F0:0.2,0.3",
                  "--dir", "1.1", "--length", "2", "--out", "csv",
                  "--prefix", prefix])
            outs.append((tmp_path / f"t{k}.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_gradient_command(self, cone_file, tmp_path, capsys):
        rc = main(["gradient", "--space", cone_file, "--p", "2,1",
                   "--function", '{"op":"dist","q":"1,1"}',
                   "--prefix", str(tmp_path / "g")])
        assert rc == 0
        assert "|grad| = 1" in capsys.readouterr().out

    def test_flow_for_time_zero_prints_the_start_point(self, cone_file, tmp_path, capsys):
        rc = main(["flow", "--space", cone_file, "--p", "1,0.5", "--time", "0",
                   "--function", '{"op":"dist","q":"0.5,1"}',
                   "--prefix", str(tmp_path / "f")])
        assert rc == 0
        cone = ConeSpace(1.5 * math.pi)
        start = cone.format_point(cone.validate_point((1.0, 0.5)))
        assert capsys.readouterr().out.splitlines()[0] == f"flowed to {start} with 0 events"

    def test_check_concavity_pass_and_fail(self, square_file, tmp_path):
        rc = main(["check-concavity", "--space", square_file, "--p", "0.5,0.5",
                   "--radius", "0.4", "--lam", "0",
                   "--function", '{"op":"boundary_dist"}',
                   "--samples", "40", "--prefix", str(tmp_path / "c")])
        assert rc == 0
        rc = main(["check-concavity", "--space", square_file, "--p", "0.5,0.5",
                   "--radius", "0.4", "--lam", "-0.5",
                   "--function", '{"op":"boundary_dist"}',
                   "--samples", "40", "--prefix", str(tmp_path / "c2")])
        assert rc == 1

    def test_detect_extremal(self, square_file, tmp_path, capsys):
        rc = main(["detect-extremal", "--space", square_file,
                   "--prefix", str(tmp_path / "e")])
        assert rc == 0
        report = json.loads((tmp_path / "e.json").read_text())
        kinds = [c["kind"] for c in report["candidates"]]
        assert "boundary" in kinds

    def test_develop_reads_chords_as_the_checker_does(self, tmp_path, capsys):
        # an equal-split trace through the apex of a 1.2 pi cone develops
        # convex with the true chords; the unit-speed rule read it as bent
        path = tmp_path / "cone12.json"
        path.write_text(json.dumps({"type": "cone", "total_angle": "1.2pi"}))
        rc = main(["develop", "--space", str(path), "--from", "1.0,0", "--dir", "pi",
                   "--length", "2.5", "--p", "0.3,0.3", "--prefix", str(tmp_path / "dv")])
        assert "convex=True" in capsys.readouterr().out
        assert rc == 0

    def test_inf_conv(self, cone_file, tmp_path, capsys):
        rc = main(["inf-conv", "--space", cone_file, "--p", "1.2,0.4",
                   "--eps", "0.5", "--lip", "4",
                   "--function",
                   '{"op":"affine","weights":[-0.5],"terms":[{"op":"dist_sq","q":"1,0"}]}',
                   "--prefix", str(tmp_path / "ic")])
        assert rc == 0

    def test_suite_quick_subset(self, tmp_path, capsys):
        rc = main(["suite", "--quick", "--only", "1,7",
                   "--prefix", str(tmp_path / "s")])
        assert rc == 0
        report = json.loads((tmp_path / "s.json").read_text())
        assert all(r["passed"] for r in report["results"])
        assert {r["number"] for r in report["results"]} == {1, 7}

    def test_tight_image_places_default_coordinates_on_a_mesh(
            self, tetra_file, tmp_path, capsys):
        rc = main(["tight-image", "--space", tetra_file, "--p", "F0:0.3,0.3",
                   "--samples", "2", "--prefix", str(tmp_path / "ti")])
        assert rc == 0, capsys.readouterr().err
        assert json.loads((tmp_path / "ti.json").read_text())["n_support"] == 2

    def test_tight_image_samples_set_the_g_of_f_samples(
            self, square_file, tmp_path, monkeypatch):
        # one locator call per support test, two per G o F sample
        calls = []
        locate = concavity_tight._argmax_min
        monkeypatch.setattr(concavity_tight, "_argmax_min",
                            lambda *a, **k: calls.append(1) or locate(*a, **k))
        rc = main(["tight-image", "--space", square_file, "--p", "0.5,0.5",
                   "--samples", "2", "--prefix", str(tmp_path / "ti")])
        assert rc == 0
        assert len(calls) == 2 + 2 * 2

    def test_entry_point_runs(self, cone_file, tmp_path):
        # The child runs in tmp_path (the command writes alexgeo-out.json to
        # its working directory), so a relative PYTHONPATH inherited from the
        # parent would point nowhere.
        proc = subprocess.run(
            [sys.executable, "-m", "alexgeo.cli", "distance", "--space",
             cone_file, "--p", "1,0", "--q", "1,pi"],
            capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[0] == "1.414214"


class ReadRecorder(argparse.Namespace):
    """Namespace that records the name of every attribute read from it."""

    def __init__(self):
        object.__setattr__(self, "reads", set())
        super().__init__()

    def __getattribute__(self, name):
        object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


DIST = '{{"op":"dist","q":"1,1"}}'
# one small run of each command; trace-qg runs its checker
OPTION_CASES = {
    "distance": ["--space", "{cone}", "--p", "1,0", "--q", "1,1"],
    "geodesic": ["--space", "{cone}", "--p", "1,0", "--q", "1,1", "--samples", "3"],
    "gradient": ["--space", "{cone}", "--p", "2,1", "--function", DIST],
    "flow": ["--space", "{cone}", "--p", "2,1", "--time", "0.01", "--function", DIST],
    "gexp": ["--space", "{cone}", "--p", "1,0", "--dir", "1.0", "--norm", "0.1"],
    "trace-qg": ["--space", "{cone}", "--from", "1,0", "--dir", "1.0",
                 "--length", "0.5", "--check", "--probes", "2"],
    "develop": ["--space", "{cone}", "--from", "1,0", "--dir", "1.0",
                "--length", "0.5", "--p", "0.5,0.3"],
    "check-concavity": ["--space", "{square}", "--p", "0.5,0.5", "--radius", "0.4",
                        "--function", '{{"op":"boundary_dist"}}', "--samples", "4"],
    "inf-conv": ["--space", "{cone}", "--p", "1.2,0.4", "--eps", "0.5",
                 "--function", '{{"op":"dist_sq","q":"1,0"}}'],
    "detect-extremal": ["--space", "{square}"],
    "verify-extremal": ["--space", "{square}", "--subset", "boundary"],
    "tight-check": ["--space", "{cone}", "--p", "0,0", "--samples", "3",
                    "--function", '{{"op":"dist","q":"1,0"}}',
                    "--function", '{{"op":"dist","q":"1,2pi/3"}}'],
    "tight-image": ["--space", "{square}", "--p", "0.5,0.5", "--samples", "2"],
    "suite": ["--quick", "--only", "1"],
}


def test_every_option_is_read(cone_file, square_file, tmp_path):
    ap = build_parser()
    commands = next(a for a in ap._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    unread = {}
    for name, argv in OPTION_CASES.items():
        argv = [a.format(cone=cone_file, square=square_file) for a in argv]
        args = ap.parse_args([name, *argv, "--prefix", str(tmp_path / name)],
                             namespace=ReadRecorder())
        args.reads.clear()
        assert args.fn(args) == 0, name
        dests = {a.dest for a in commands[name]._actions if a.option_strings} - {"help"}
        if dests - args.reads:
            unread[name] = sorted(dests - args.reads)
    assert unread == {}
    assert set(OPTION_CASES) == set(commands)


BAD_INPUT = {
    "boundary_subset_on_cone": (
        ["verify-extremal", "--space", "{cone}", "--subset", "boundary"], "cone"),
    "dist_without_q": (
        ["gradient", "--space", "{cone}", "--p", "2,1", "--function", '{{"op":"dist"}}'],
        "'q'"),
    "sum_without_terms": (
        ["gradient", "--space", "{cone}", "--p", "2,1", "--function", '{{"op":"sum"}}'],
        "'terms'"),
    "missing_function_file": (
        ["gradient", "--space", "{cone}", "--p", "2,1", "--function", "{tmp}/none.json"],
        "none.json"),
    "geodesic_one_sample": (
        ["geodesic", "--space", "{cone}", "--p", "1,0", "--q", "1,1", "--samples", "1"],
        "--samples"),
    "geodesic_no_samples": (
        ["geodesic", "--space", "{cone}", "--p", "1,0", "--q", "1,1", "--samples", "0"],
        "--samples"),
    "flow_zero_step": (
        ["flow", "--space", "{cone}", "--p", "1,0", "--time", "0.5", "--step", "0",
         "--function", '{{"op":"dist","q":"0.5,1"}}'], "step"),
    "check_qg_no_probes": (
        ["trace-qg", "--space", "{cone}", "--from", "1,0", "--dir", "1.0",
         "--length", "1", "--check", "--probes", "0"], "probe"),
    "check_concavity_no_samples": (
        ["check-concavity", "--space", "{cone}", "--p", "1,0", "--radius", "0.3",
         "--lam", "0", "--function", '{{"op":"dist","q":"0.5,1"}}', "--samples", "0"],
        "geodesic"),
    "tight_check_no_samples": (
        ["tight-check", "--space", "{cone}", "--p", "1.2,0.4",
         "--function", '{{"op":"dist","q":"1,0"}}',
         "--function", '{{"op":"dist","q":"1,2"}}', "--samples", "0"], "sample"),
    "tight_image_no_samples": (
        ["tight-image", "--space", "{cone}", "--p", "1.2,0.4",
         "--function", '{{"op":"dist","q":"1,0"}}', "--samples", "0"], "support test"),
    "suite_unknown_criterion": (["suite", "--quick", "--only", "99"], "criterion"),
    "flow_negative_time": (
        ["flow", "--space", "{cone}", "--p", "1,0", "--time", "-1",
         "--function", '{{"op":"dist","q":"0.5,1"}}'], "T >= 0"),
    "gexp_negative_norm": (
        ["gexp", "--space", "{cone}", "--p", "1,0", "--dir", "1.0", "--norm", "-1"], "|v|"),
    "trace_qg_negative_length": (
        ["trace-qg", "--space", "{cone}", "--from", "1,0", "--dir", "1.0",
         "--length", "-1"], "length"),
    "inf_conv_negative_lip": (
        ["inf-conv", "--space", "{cone}", "--p", "1.2,0.4", "--eps", "0.5", "--lip", "-1",
         "--function", '{{"op":"dist_sq","q":"1,0"}}'], "lip_hint"),
    "check_concavity_negative_radius": (
        ["check-concavity", "--space", "{cone}", "--p", "1,0", "--radius", "-0.3",
         "--lam", "0", "--function", '{{"op":"dist","q":"0.5,1"}}'], "radius"),
    "develop_zero_length": (
        ["develop", "--space", "{cone}", "--from", "1,0", "--dir", "1.0",
         "--length", "0", "--p", "0.5,0.3"], "samples"),
}

# A negative eps can make the search run forever, so these run in a child
# process that a timeout stops.
BAD_EPS = ["0", "-1"]


class TestBadInput:
    """Bad input exits 2 with one `error:` line and no traceback."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_exits_2(self, case, cone_file, tmp_path, capsys):
        argv, fragment = BAD_INPUT[case]
        argv = [a.format(cone=cone_file, tmp=tmp_path) for a in argv]
        rc = main(argv + ["--prefix", str(tmp_path / "bad")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and fragment in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("eps", BAD_EPS)
    def test_inf_conv_eps_exits_2(self, eps, cone_file, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "alexgeo.cli", "inf-conv", "--space", cone_file,
             "--p", "1.2,0.4", "--eps", eps,
             "--function", '{"op":"dist_sq","q":"1,0"}'],
            capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
            timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "eps" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_gexp_zero_step_exits_2(self, cone_file, tmp_path):
        # with step 0 the radial curve never advances once it enters the
        # gradient regime, so this runs in a child process with a timeout
        proc = subprocess.run(
            [sys.executable, "-m", "alexgeo.cli", "gexp", "--space", cone_file,
             "--p", "0.3,0", "--dir", "3.1415926", "--norm", "1", "--step", "0"],
            capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
            timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "step" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_detect_extremal_on_a_branched_edge_exits_2(self, tmp_path, capsys):
        # three triangles share the edge 0-1, so the surface is not a manifold
        p = tmp_path / "fin.json"
        p.write_text(json.dumps({
            "type": "mesh", "triangles": [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
            "coords": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]}))
        rc = main(["detect-extremal", "--space", str(p),
                   "--prefix", str(tmp_path / "bad")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "more than two faces" in err
        assert len(err.strip().splitlines()) == 1
