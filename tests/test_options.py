"""Every defaulted parameter and dataclass field of the library is set by some caller.

A parameter that no call in ``src/``, ``tests/`` or ``perfbench/`` ever
sets is a constant wearing an option's name; the scan below lists them.
Calls are matched to definitions by callee name (``f(...)`` and
``x.f(...)`` both name ``f``), with ``__init__`` named by its class.
A dataclass field with a default is set by a constructor keyword or
position (of its class or a subclass), a ``replace`` keyword, or an
assignment to an attribute of its name.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "alexgeo"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def _trees(dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _defaulted(fn, method):
    """(index among the positional parameters a caller passes, or None, name)."""
    a = fn.args
    positional = a.posonlyargs + a.args
    if method:
        positional = positional[1:]
    for i, arg in enumerate(positional):
        if i >= len(positional) - len(a.defaults):
            yield i, arg.arg
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield None, arg.arg


def library_options():
    """{(file, qualified name): [(callee name, index, parameter)]} over src/alexgeo."""
    found = {}

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                method = owner is not None and not static
                callee = owner.name if child.name == "__init__" and owner else child.name
                qual = f"{owner.name}.{child.name}" if owner else child.name
                for i, name in _defaulted(child, method):
                    found.setdefault((path.relative_to(ROOT).as_posix(), qual), []).append(
                        (callee, i, name))
                visit(child, path, None)
            else:
                visit(child, path, owner)

    for path, tree in _trees([LIBRARY]):
        visit(tree, path, None)
    return found


def set_by_calls():
    """{callee name: (parameters set by keyword, positions set, all set)}."""
    seen = {}
    for _, tree in _trees(CALLERS):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else (
                f.attr if isinstance(f, ast.Attribute) else None)
            if name is None:
                continue
            keywords, n_positional, everything = seen.setdefault(name, (set(), [0], [False]))
            keywords.update(k.arg for k in call.keywords if k.arg is not None)
            if any(k.arg is None for k in call.keywords) or any(
                    isinstance(a, ast.Starred) for a in call.args):
                everything[0] = True
            n_positional[0] = max(n_positional[0], len(call.args))
    return seen


def unset_options():
    calls = set_by_calls()
    unset = []
    for (path, qual), params in library_options().items():
        for callee, index, name in params:
            keywords, n_positional, everything = calls.get(callee, (set(), [0], [False]))
            if everything[0] or name in keywords or (
                    index is not None and index < n_positional[0]):
                continue
            unset.append(f"{path}::{qual}({name})")
    return sorted(unset)


def test_every_library_option_is_set_by_a_caller():
    assert unset_options() == []


def _is_dataclass(cls):
    """Decorated with ``@dataclass`` or ``@dataclass(...)``."""
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if isinstance(f, ast.Name) and f.id == "dataclass":
            return True
    return False


def library_classes():
    """{class name: (base names, own fields in order, own defaulted fields, file)}."""
    classes = {}
    for path, tree in _trees([LIBRARY]):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields, defaulted = [], []
            if _is_dataclass(cls):
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                            and "ClassVar" not in ast.unparse(stmt.annotation):
                        fields.append(stmt.target.id)
                        if stmt.value is not None:
                            defaulted.append(stmt.target.id)
            bases = [b.id for b in cls.bases if isinstance(b, ast.Name)]
            classes[cls.name] = (bases, fields, defaulted, path.relative_to(ROOT).as_posix())
    return classes


def assigned_attributes():
    """Names assigned as attributes (``x.name = ...``) anywhere in the callers."""
    names = set()

    def targets(t):
        if isinstance(t, ast.Attribute):
            names.add(t.attr)
        elif isinstance(t, (ast.Tuple, ast.List)):
            for e in t.elts:
                targets(e)

    for _, tree in _trees(CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    targets(t)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets(node.target)
    return names


def unset_fields():
    classes = library_classes()

    def all_fields(name):
        bases, fields, _, _ = classes.get(name, ([], [], [], None))
        out = [f for b in bases for f in all_fields(b)]
        return out + [f for f in fields if f not in out]

    def lineage(name):
        bases = classes.get(name, ([],))[0]
        return {name}.union(*(lineage(b) for b in bases))

    calls = set_by_calls()
    replaced = calls.get("replace", (set(), [0], [False]))[0]
    assigned = assigned_attributes()
    unset = []
    for owner, (_, _, defaulted, path) in classes.items():
        for name in defaulted:
            if name in replaced or name in assigned:
                continue
            if any(owner in lineage(cls) and (
                    everything[0] or name in keywords
                    or all_fields(cls).index(name) < n_positional[0])
                   for cls, (keywords, n_positional, everything) in calls.items()
                   if cls in classes):
                continue
            unset.append(f"{path}::{owner}.{name}")
    return sorted(unset)


def test_every_dataclass_default_is_set_by_a_caller():
    assert unset_fields() == []


def read_attributes():
    """Names read as attributes (``x.name`` in a load) anywhere in the callers."""
    return {node.attr for _, tree in _trees(CALLERS) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields():
    read = read_attributes()
    return sorted(f"{path}::{owner}.{name}"
                  for owner, (_, fields, _, path) in library_classes().items()
                  for name in fields if name not in read)


def test_every_dataclass_field_is_read():
    assert unread_fields() == []
