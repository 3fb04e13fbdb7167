"""Every defaulted parameter and dataclass field of the library is set by
some caller, and every top-level definition is named by the library or the
benchmark.

A parameter that no call in ``src/``, ``tests/`` or ``perfbench/`` ever
sets is a constant wearing an option's name; the scan below lists them.
Calls are matched to definitions by callee name (``f(...)`` and
``x.f(...)`` both name ``f``), with ``__init__`` named by its class.
A dataclass field with a default is set by a constructor keyword or
position (of its class or a subclass), a ``replace`` keyword, or an
assignment to an attribute of its name.  Every dataclass field is read
as ``x.name`` somewhere x is known to hold its class (see `typed_reads`),
so a read of another class's attribute of the same name does not count.
A definition that only tests name is a check no `alexgeo suite` run
reports, or code nothing needs; see `unnamed_definitions`.
"""
import ast
import re
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


def _class_names(annotation, classes):
    """The library classes an annotation names, in a string annotation too."""
    return {n.id if isinstance(n, ast.Name) else n.value for n in ast.walk(annotation)
            if isinstance(n, ast.Name) or isinstance(n, ast.Constant)
            and isinstance(n.value, str)} & classes


def typed_reads(classes):
    """{(class, name)}: ``x.name`` loaded where x is known to hold an instance
    of class, anywhere in the callers.

    x holds the classes named by its annotation (a parameter's, or a bare or
    assigned one in the function), or by a constructor call or a call of a
    library function annotated to return one, assigned to it in the same
    function or at module level; the first parameter of a method, also of
    a lambda in a class body, holds its class.  A nested function sees the
    names of the functions around it.  ``Cls(...).name`` and
    ``f(...).name`` count as well.
    """
    returned = {}
    for _, tree in _trees([LIBRARY]):
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.returns:
                returned.setdefault(fn.name, set()).update(_class_names(fn.returns, classes))
    reads = set()

    def held(value, scope):
        if isinstance(value, ast.Name):
            return scope.get(value.id, set())
        if isinstance(value, ast.Call):
            f = value.func
            name = f.id if isinstance(f, ast.Name) else (
                f.attr if isinstance(f, ast.Attribute) else None)
            return {name} if name in classes else returned.get(name, set())
        return set()

    def bind(statements, scope):
        """scope with the annotations and assignments made in statements."""
        scope = dict(scope)
        for node in (n for s in statements for n in ast.walk(s)):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                scope[name] = scope.get(name, set()) | held(node.value, {})
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                scope[node.target.id] = _class_names(node.annotation, classes)
        return scope

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                inner = {k: v for k, v in scope.items()
                         if k not in {p.arg for p in params}}
                for p in params:
                    if p.annotation is not None:
                        inner[p.arg] = _class_names(p.annotation, classes)
                static = not isinstance(child, ast.Lambda) and any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                if owner is not None and params and not static:
                    inner[params[0].arg] = {owner}
                visit(child, inner if isinstance(child, ast.Lambda) else bind([child], inner),
                      None)
            else:
                if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                    reads.update((c, child.attr) for c in held(child.value, scope))
                visit(child, scope, owner)

    for _, tree in _trees(CALLERS):
        visit(tree, bind([n for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))],
                         {}), None)
    return reads


def unread_fields():
    """Fields no typed read reaches: a read through a class reaches the
    fields of its own line of bases and of its subclasses."""
    classes = library_classes()

    def lineage(name):
        bases = classes.get(name, ([],))[0]
        return {name}.union(*(lineage(b) for b in bases))

    reads = typed_reads(set(classes))
    return sorted(f"{path}::{owner}.{name}"
                  for owner, (_, fields, _, path) in classes.items()
                  for name in fields
                  if not any((c, name) in reads for c in classes
                             if owner in lineage(c) or c in lineage(owner)))


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


# named by tests alone, on purpose: the scalar reference that the tests pin
# `polar_grid_sums` against
KEPT = ["src/alexgeo/tangent.py::scalar_product"]


def unnamed_definitions():
    """Top-level functions and classes of src/alexgeo that no code in src/ or
    perfbench/ names, outside their own definitions.

    A name counts as an AST name, an attribute or an imported name, or as
    a string (split at dots and commas) of the tracer's ``LAYERS`` table.
    A definition's own body does not name it, so recursion alone does not
    keep it, and neither do ``__all__`` lists or docstrings.
    """
    named = {}  # name -> the (file, top-level definition) scopes naming it
    for path, tree in _trees([ROOT / "src", ROOT / "perfbench"]):
        for top in tree.body:
            scope = (path, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.alias):
                    names = [node.name.rsplit(".", 1)[-1]]
                elif isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
                    names = [part for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str)
                             for part in re.split(r"[.,]", c.value)]
                else:
                    continue
                for name in names:
                    named.setdefault(name, set()).add(scope)
    return sorted(f"{path.relative_to(ROOT).as_posix()}::{d.name}"
                  for path, tree in _trees([LIBRARY]) for d in tree.body
                  if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not named.get(d.name, set()) - {(path, d.name)})


def test_every_library_definition_is_named_outside_the_tests():
    assert unnamed_definitions() == KEPT
