"""One verdict type: each gate is a `Margin`, and verdicts, printed lines
and JSON are read from the margins."""
import ast
import json
import math
from pathlib import Path

import pytest

from alexgeo import acceptance
from alexgeo.cli import main
from alexgeo.verdict import Margin, line, passed

SRC = Path(__file__).resolve().parent.parent / "src" / "alexgeo"


def test_no_margin_fails():
    assert passed([]) is False


@pytest.mark.parametrize("sense, ok", [("<=", True), (">=", True), ("<", False), (">", False)])
def test_each_sense_at_its_limit(sense, ok):
    m = Margin("x", 1e-6, 1e-6, sense)
    assert m.ok is ok
    assert passed([m]) is ok


@pytest.mark.parametrize("sense", ["<", "<=", ">=", ">"])
def test_nan_fails_every_sense(sense):
    assert not Margin("x", math.nan, 0.0, sense).ok
    assert not passed([Margin("y", 0.0, 1.0, "<"), Margin("x", math.nan, 0.0, sense)])


def test_line_shows_each_value_with_its_gate():
    margins = [Margin("probes", 3, 1, ">="), Margin("barrier", 7.33e-11, 1e-6, "<=")]
    assert line(margins) == "probes 3 (>= 1); barrier 7.330e-11 (<= 1e-06)"


def test_a_criterion_without_a_margin_fails(monkeypatch):
    monkeypatch.setattr(acceptance, "_CRITERIA", [(1, "no gate", lambda quick: [])])
    res, = acceptance.run_suite(quick=True)
    assert not res.passed and res.detail == ""


def test_a_crashed_criterion_fails_with_its_exception(monkeypatch):
    def crash(quick):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(acceptance, "_CRITERIA", [(1, "crash", crash)])
    res, = acceptance.run_suite(quick=True)
    assert not res.passed
    assert res.detail == "crashed: ZeroDivisionError('boom')"
    assert res.line().startswith("[FAIL]  1. crash: crashed: ZeroDivisionError")


def test_suite_json_lists_each_criterions_margins(tmp_path):
    assert main(["suite", "--quick", "--only", "8", "--prefix", str(tmp_path / "s")]) == 0
    result, = json.loads((tmp_path / "s.json").read_text())["results"]
    margins = result["margins"]
    assert len(margins) == 8
    assert all(set(m) == {"name", "observed", "limit", "sense"} for m in margins)
    assert result["passed"] is True
    assert result["detail"] == line([Margin(**m) for m in margins])


def test_one_verdict_function_and_no_prose_summaries():
    defs = [node.name for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert defs.count("passed") == 1
    assert defs.count("summary") == 0
