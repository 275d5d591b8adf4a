"""Every name a quivlat module imports is read somewhere in that module.

The package's __init__.py re-exports names it never reads; those it lists
in __all__ are exempt.  Stdlib only (ast), so it also runs without pytest:
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


def test_scanner_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom math import gcd, lcm\nprint(gcd(os.sep, 1))\n")
    assert unused_imports(probe) == [(2, "lcm")]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


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
    test_package_exports_only_bound_names()
    print("all passed")
