"""The benchmark tracer patches library functions by name; each must still exist.

`perfbench/tracer.py` lists in `LAYERS` the methods and functions it
wraps.  A refactor that moves one of them would otherwise show only when
a traced benchmark run fails, so this test reads the table and looks
each name up where the tracer will.  It changes nothing in `perfbench/`.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


TRACED = [(f"{layer}.{fname}", layer, owners, fname)
          for layer, (owners, funcs) in _layers().items() for fname in funcs]


@pytest.mark.parametrize("name, layer, owners, fname", TRACED, ids=[t[0] for t in TRACED])
def test_each_traced_name_is_where_the_tracer_looks(name, layer, owners, fname):
    mod = importlib.import_module("alexgeo." + layer)
    if owners is None and "." not in fname:
        # a module-level function, patched as a module attribute
        assert callable(vars(mod).get(fname)), name
        return
    if owners is None:
        owners, fname = fname.split(".")
    for cname in owners.split(","):
        # patched on the class itself, so it must be in the class's own __dict__
        assert fname in vars(getattr(mod, cname)), f"{cname}.{fname}"
