"""Every name a quivlat module imports is read somewhere in that module,
every private definition is read somewhere in the package, every method
and class attribute of the ring classes is read somewhere in the package,
and every error class is raised somewhere in the package, with its own
name for its code.

The package's __init__.py re-exports names it never reads; those it lists
in __all__ are exempt.  A private definition is a module-level function,
class or constant, or a method, whose name starts with one underscore (not
a dunder); a leftover of a refactor that nothing calls any more is one.
Stdlib only (ast), so it also runs without pytest:
    python tests/test_unused_imports.py
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "quivlat"


def _imported_names(tree):
    """{bound name: line} for every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """Sorted (line, name) of the names the module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    if path.name == "__init__.py":
        read |= _exported_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items()
                  if name not in read)


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree):
    """{name: line} of the private module-level functions, classes and
    constants, and of the private methods of every class, in a module."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((name.id, node.lineno) for target in targets
                       for name in ast.walk(target) if isinstance(name, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            out.update((item.name, item.lineno) for item in node.body
                       if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {name: line for name, line in out.items() if _is_private(name)}


def unread_private_definitions(paths):
    """Sorted (module, line, name) of the private definitions that no module
    of paths reads, by name or as an attribute."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted((module, line, name) for module, tree in trees.items()
                  for name, line in private_definitions(tree).items() if name not in read)


# RingSpec and the classes of its kinds, in rings.py
RING_CLASSES = ("RingSpec", "_Integers", "_Rationals", "_Modular", "_Truncated")


def class_members(tree, classes):
    """{(class, name): line} of the methods and class attributes, dunders
    aside, that the bodies of the named classes of a module define."""
    out = {}
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name in classes):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [name.id for target in targets
                         for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                names = []
            out.update(((node.name, name), item.lineno) for name in names
                       if not (name.startswith("__") and name.endswith("__")))
    return out


def unread_class_members(paths, module, classes):
    """Sorted (class, line, name) of the methods and class attributes of
    the named classes of module that no module of paths reads as an
    attribute: a ring method that elimination stopped calling is one."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted((cls, line, name) for (cls, name), line
                  in class_members(trees[module], classes).items() if name not in read)


def error_classes(tree):
    """Names of the classes of an errors module that derive, directly or
    through each other, from QuivlatError."""
    names = {"QuivlatError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in names for base in node.bases):
            names.add(node.name)
    return names - {"QuivlatError"}


def unraised_errors(paths):
    """Sorted names of the error classes of errors.py among paths that no
    raise statement of paths names, as ``raise E``, ``raise E(...)`` or
    through a module attribute."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return sorted(error_classes(trees["errors.py"]) - raised)


def test_scanner_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom math import gcd, lcm\nprint(gcd(os.sep, 1))\n")
    assert unused_imports(probe) == [(2, "lcm")]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_scanner_sees_unread_private_definitions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "_USED, _UNUSED = 1, 2\n"
        "_LIMIT: int = 3\n"
        "def _helper():\n    return _USED\n"
        "def _dead():\n    return _helper()\n"
        "class _Hidden:\n"
        "    def __init__(self):\n        self._run()\n"
        "    def _run(self):\n        pass\n"
        "    def _stale(self):\n        pass\n")
    other = tmp_path / "other.py"
    other.write_text("from probe import _dead\nprint(_dead(), _LIMIT)\n")
    assert unread_private_definitions([probe]) == [
        ("probe.py", 1, "_UNUSED"), ("probe.py", 2, "_LIMIT"), ("probe.py", 5, "_dead"),
        ("probe.py", 7, "_Hidden"), ("probe.py", 12, "_stale")]
    assert unread_private_definitions([probe, other]) == [
        ("probe.py", 1, "_UNUSED"), ("probe.py", 7, "_Hidden"), ("probe.py", 12, "_stale")]


def test_every_private_definition_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert unread_private_definitions(modules) == []


def test_scanner_sees_unread_class_members(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class Base:\n"
        "    kind: str\n"
        "    zero, one = 0, 1\n"
        "    def __init__(self):\n        self.kind = 'x'\n"
        "    def add(self, a, b):\n        return a + b\n"
        "    def scale_col(self, rows, c):\n        pass\n"
        "class Child(Base):\n"
        "    one = 2\n"
        "    label = add = staticmethod(max)\n"
        "class Other:\n"
        "    def unread(self):\n        pass\n")
    user = tmp_path / "user.py"
    user.write_text("from probe import Child\nr = Child()\nprint(r.add(r.one, r.kind))\n")
    assert unread_class_members([probe, user], "probe.py", ("Base", "Child")) == [
        ("Base", 3, "zero"), ("Base", 8, "scale_col"), ("Child", 12, "label")]
    assert unread_class_members([probe], "probe.py", ("Child",)) == [
        ("Child", 11, "one"), ("Child", 12, "add"), ("Child", 12, "label")]


def test_every_ring_class_member_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert unread_class_members(modules, "rings.py", RING_CLASSES) == []


def test_scanner_sees_unraised_errors(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text(
        "class QuivlatError(Exception):\n    pass\n"
        "class Bare(QuivlatError):\n    pass\n"
        "class Called(QuivlatError):\n    pass\n"
        "class Child(Called):\n    pass\n"
        "class Dead(Child):\n    pass\n"
        "class Unrelated(Exception):\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text(
        "from . import errors\nfrom .errors import Bare, Called, Dead\n"
        "def f(x):\n"
        "    if x:\n        raise Bare\n"
        "    if x is None:\n        raise errors.Child('no')\n"
        "    try:\n        raise Called('yes')\n    except Dead:\n        raise\n")
    assert unraised_errors([errors, user]) == ["Dead"]
    assert unraised_errors([errors]) == ["Bare", "Called", "Child", "Dead"]


def test_every_error_class_is_raised():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert error_classes(tree) == classes - {"QuivlatError"}
    assert unraised_errors(sorted(PACKAGE.glob("*.py"))) == []


def test_every_error_code_is_its_class_name():
    # QuivlatError.__init_subclass__ sets each subclass's code
    from quivlat import errors
    names = error_classes(ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")))
    assert names and {name: getattr(errors, name).code for name in names} == {
        name: name for name in names}
    assert errors.QuivlatError.code == "Error"


def test_package_exports_only_bound_names():
    import quivlat
    assert all(hasattr(quivlat, name) for name in quivlat.__all__)


if __name__ == "__main__":
    import sys
    import tempfile
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as tmp:
        test_scanner_sees_an_unused_import(pathlib.Path(tmp))
    test_no_module_imports_a_name_it_never_reads()
    with tempfile.TemporaryDirectory() as tmp:
        test_scanner_sees_unread_private_definitions(pathlib.Path(tmp))
    test_every_private_definition_is_read()
    with tempfile.TemporaryDirectory() as tmp:
        test_scanner_sees_unread_class_members(pathlib.Path(tmp))
    test_every_ring_class_member_is_read()
    with tempfile.TemporaryDirectory() as tmp:
        test_scanner_sees_unraised_errors(pathlib.Path(tmp))
    test_every_error_class_is_raised()
    test_every_error_code_is_its_class_name()
    test_package_exports_only_bound_names()
    print("all passed")
