"""The caches quivlat keeps are bounded, and nothing else is kept.

Four caches stay, each because the benchmark traffic re-reads it:
homology._exceptional and homology._orthogonal (every sequence check asks
again), mutation._walk (the walk, kept as far as it has been read, with
the sequences replayed on it over Z from the standard sequence), and
rings._table_kernels (one entry per small Feps ring).  Each is an
lru_cache with a constant maxsize, and keeps at most that many entries
after more distinct calls than its bound; its cache_info() counts hits,
misses and size.  No other function in the package is cached, and no
module keeps a memo dict: hom_ext builds a new result on every call, and
generic_dims reads one hom_ext of two witnesses replayed through the
walk's replays (mutation._OrbitWalk.replays).

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_cache_bounds.py
"""

import ast
import pathlib

from quivlat import homology, mutation, rings
from quivlat.quiver import Quiver, Rep
from quivlat.rings import ZZ, Feps

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "quivlat"
POINT = Quiver(1, ())
A2 = Quiver(2, ((1, 2),))


def _point(n):
    return Rep(ZZ, POINT, (n,), ())


# each kept cache, and a run of distinct calls longer than its bound
CACHES = {
    "homology._exceptional": (homology._exceptional, lambda k: homology._exceptional(_point(k))),
    "homology._orthogonal": (homology._orthogonal,
                             lambda k: homology._orthogonal(_point(k), _point(1))),
    "mutation._walk": (mutation._walk, lambda k: mutation._walk(A2, k + 1, None)),
    "rings._table_kernels": (rings._table_kernels,
                             lambda k: Feps((2, 3, 5)[k % 3], k // 3 + 1)),
}


def test_each_kept_cache_stays_within_its_bound():
    for name, (cache, call) in CACHES.items():
        bound = cache.cache_info().maxsize
        assert type(bound) is int and bound > 0, name
        cache.cache_clear()
        for k in range(bound + 20):
            call(k)
        info = cache.cache_info()
        assert info.currsize == bound and info.misses >= bound + 20, (name, info)
        cache.cache_clear()


def _cached_functions(tree):
    """(line, name, decorator) of every function decorated with an
    lru_cache or cache."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                text = ast.unparse(dec)
                if "lru_cache" in text or text.endswith("cache"):
                    out.append((node.lineno, node.name, dec))
    return out


def test_the_kept_caches_are_the_only_ones_and_each_has_a_constant_bound():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, name, dec in _cached_functions(tree):
            found.append("%s.%s" % (path.stem, name))
            assert isinstance(dec, ast.Call), (path.name, line, name)
            (bound,) = [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
            assert isinstance(bound, ast.Constant) and type(bound.value) is int, (path.name, name)
    assert sorted(found) == sorted(CACHES), sorted(found)


def test_no_module_keeps_a_memo_dict():
    """A module-level name bound to an empty dict or set is state every
    caller shares; a module's constant tables are built full."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                empty = ast.unparse(node.value) in ("{}", "dict()", "set()")
                assert not empty, (path.name, node.lineno)


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
