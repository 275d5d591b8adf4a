"""What importing quivlat loads, checked in fresh child processes.

``import quivlat`` runs no submodule: each is entered in sys.modules as a
LazyLoader module, whose source runs on its first attribute access, and a
module still of that class (a subclass of ModuleType) has not run.  The
command line runs only errors, rings, elimination and quiver to parse its
arguments, and the ext verb adds homology alone: mutation, structure and
verify never run.  No module imports dataclasses, and no function or
method of the package was generated from a string by exec or eval, as a
dataclass's are: each one's code comes from its module's file.  The
package namespace resolves every name of __all__, lists them all in dir(),
supports ``from quivlat import *`` and refuses an unknown name with
AttributeError.  Every public name quivlat.rings defined before the
elimination layer moved to quivlat.elimination still resolves there, to
the object the package calls, with no circular import.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_import_contract.py
"""

import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The submodules whose source has run, as the child's ran().
PRELUDE = """
import json, sys, types
def ran():
    return sorted(name for name, mod in sys.modules.items()
                  if name.startswith("quivlat.") and type(mod) is types.ModuleType)
"""


def _child(script: str, *argv: str):
    """What a child running PRELUDE + script prints, as JSON.  -S keeps
    site-packages, and whatever they import at start-up, out of the child."""
    proc = subprocess.run([sys.executable, "-S", "-c", PRELUDE + script, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_quivlat_runs_no_submodule():
    out = _child("""
import quivlat
print(json.dumps([ran(), sorted(n for n in sys.modules if n.startswith("quivlat."))]))
""")
    assert out == [[], ["quivlat.elimination", "quivlat.errors", "quivlat.homology",
                        "quivlat.mutation", "quivlat.quiver", "quivlat.rings",
                        "quivlat.structure", "quivlat.verify"]]


def test_the_ext_verb_runs_no_mutation_structure_or_verify():
    rep = {"ring": "Z", "quiver": {"vertices": 2, "arrows": [[1, 2]]},
           "dims": [1, 1], "mats": [[1]]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rep, fh)
        out = _child("""
import contextlib, io
import quivlat.cli
parsed = ran()
with contextlib.redirect_stdout(io.StringIO()) as text:
    code = quivlat.cli.main(["ext", "--rep-x", sys.argv[1], "--rep-y", sys.argv[1],
                             "--format", "json"])
print(json.dumps([parsed, code, json.loads(text.getvalue()), ran()]))
""", path)
    parsed, code, report, after = out
    assert parsed == ["quivlat._record", "quivlat.cli", "quivlat.elimination",
                      "quivlat.errors", "quivlat.quiver", "quivlat.rings"]
    assert code == 0 and report["homFreeRank"] == 1 and report["extFreeRank"] == 0
    assert after == sorted(parsed + ["quivlat.homology"])


def test_no_dataclasses_and_no_generated_code_at_import():
    out = _child("""
import importlib, os
package = os.path.join(sys.argv[1], "quivlat")
generated = []
for name in sorted(os.listdir(package)):
    if not name.endswith(".py"):
        continue
    mod = importlib.import_module("quivlat." + name[:-3] if name != "__init__.py" else "quivlat")
    for owner in [mod] + [c for c in list(vars(mod).values())
                          if isinstance(c, type) and c.__module__ == mod.__name__]:
        for attr, value in list(vars(owner).items()):
            fn = getattr(value, "__func__", getattr(value, "fget", value))
            code = getattr(fn, "__code__", None)
            if (code is not None and fn.__module__ == mod.__name__
                    and code.co_filename != mod.__file__):
                generated.append("%s.%s: %s" % (owner.__name__, attr, code.co_filename))
print(json.dumps([ran(), "dataclasses" in sys.modules, generated]))
""", SRC)
    modules, dataclasses_loaded, generated = out
    assert modules == ["quivlat._record", "quivlat.cli", "quivlat.elimination",
                       "quivlat.errors", "quivlat.homology", "quivlat.mutation",
                       "quivlat.quiver", "quivlat.rings", "quivlat.structure",
                       "quivlat.verify"]
    assert not dataclasses_loaded
    assert generated == []


def test_the_namespace_resolves_lists_and_refuses():
    out = _child("""
import quivlat
missing = [name for name in quivlat.__all__ if not hasattr(quivlat, name)]
unlisted = sorted(set(quivlat.__all__) - set(dir(quivlat)))
star = {}
exec("from quivlat import *", star)
try:
    quivlat.no_such_name
    refused = None
except AttributeError as exc:
    refused = str(exc)
print(json.dumps([missing, unlisted, sorted(set(quivlat.__all__) - set(star)),
                  len(quivlat.__all__), len(set(quivlat.__all__)), refused,
                  quivlat.ZZ is quivlat.rings.ZZ, quivlat.SUITES == quivlat.verify.SUITES]))
""")
    missing, unlisted, not_starred, count, distinct, refused, same, suites = out
    assert missing == [] and unlisted == [] and not_starred == []
    assert count == distinct == 86
    assert refused == "module 'quivlat' has no attribute 'no_such_name'"
    assert same and suites


# The public names quivlat.rings defined before quivlat.elimination was
# split off from it; the last fourteen moved to elimination.
RINGS_NAMES = (
    "ExactMatrix", "Feps", "GF", "QQ", "RingHom", "RingSpec", "ZZ", "Zmod", "apply_hom",
    "block_diag", "canonical_hom", "identity_hom",
    "ModulePresentation", "NormalFormResult", "cokernel", "cokernel_data",
    "cokernel_projection", "constant_rank", "howell_rows", "invert", "is_invertible",
    "kernel_basis", "kernel_data", "normal_form", "presentation_base_change", "solve")


def test_every_public_name_rings_defined_still_resolves_there():
    # the child reads a moved name off quivlat.rings before anything else
    # has run elimination, so a circular import would show; each name is
    # the object its defining module holds, which the package calls, and
    # for the names of __all__ the one the namespace hands out
    out = _child("""
import quivlat.rings as rings
first = rings.solve.__module__
from quivlat.rings import solve, kernel_data, cokernel_data, cokernel
import quivlat
from quivlat import elimination
same, owners = [], {}
for name in sys.argv[1:]:
    value = getattr(rings, name)
    owner = sys.modules[getattr(value, "__module__", None) or type(value).__module__]
    owners[name] = owner.__name__
    if value is getattr(owner, name) and (name not in quivlat.__all__
                                          or value is getattr(quivlat, name)):
        same.append(name)
try:
    rings.no_such_name
    refused = None
except AttributeError as exc:
    refused = str(exc)
print(json.dumps([first, solve is elimination.solve, same, owners, refused,
                  hasattr(rings, "_Worksheet")]))
""", *RINGS_NAMES)
    first, imported, same, owners, refused, private = out
    assert first == "quivlat.elimination" and imported
    assert same == list(RINGS_NAMES)
    assert [owners[name] for name in RINGS_NAMES] == (
        ["quivlat.rings"] * 12 + ["quivlat.elimination"] * 14)
    assert refused == "module 'quivlat.rings' has no attribute 'no_such_name'"
    assert not private   # only the public names are forwarded


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
