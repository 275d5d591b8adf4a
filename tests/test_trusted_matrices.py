"""Matrices built on the trusted path hold canonical entries, and the
placement differential matches the element-wise one.

The public ExactMatrix constructor canonicalises outside input; matrices
built inside the package from ring arithmetic or copied entries go through
ExactMatrix._of, which checks nothing.  Part (a) swaps _of for a checker
that asserts what _of takes on trust (exact int shapes, tuple rows, and
entries x with canon(x) == x and type(canon(x)) is type(x)), then runs
every entry point that builds matrices over every ring below.  The type
check matters: over Q an int equals its Fraction, so an equality check
alone would pass an int entry.

Part (b) keeps the element-wise differential loop (one ring.add or ring.sub
per term) as the reference and requires the placement differential to
equal it in value and in repr, on quivers with a loop, parallel arrows and
zero dimensions.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_trusted_matrices.py
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from quivlat import homology, mutation
from quivlat.elimination import (
    cokernel_projection,
    kernel_basis,
    normal_form,
    solve,
)
from quivlat.errors import ParseError
from quivlat.homology import HomExtResult, differential
from quivlat.mutation import left_mutate, right_mutate
from quivlat.quiver import Quiver, Rep, direct_sum, projective_rep
from quivlat.rings import (
    ExactMatrix,
    Feps,
    GF,
    QQ,
    ZZ,
    Zmod,
    apply_hom,
    canonical_hom,
    identity_hom,
)
from quivlat.structure import decompose_rigid, exceptional_lattice, lift_rigid

RINGS = (ZZ, QQ, GF(2), GF(3), Zmod(4), Zmod(12), Feps(2, 2), Feps(3, 3))
MUTATION_RINGS = tuple(ring for ring in RINGS if ring.kind in ("Z", "Q", "F"))
# every kind of canonical hom: Z -> each ring, and the maps out of Z/m, Feps and F_p
HOM_PAIRS = tuple((ZZ, ring) for ring in RINGS) + (
    (Zmod(12), Zmod(4)), (Feps(3, 3), Feps(3, 2)), (Feps(3, 2), GF(3)), (GF(3), Feps(3, 1)))
A2 = Quiver(2, ((1, 2),))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))
LOOP = Quiver(1, ((1, 1),))
# two loops, parallel arrows both ways
MIXED = Quiver(2, ((1, 1), (1, 2), (1, 2), (2, 1), (2, 2)))
DIFFERENTIAL_CASES = (
    (LOOP, (2,), (3,)),
    (LOOP, (0,), (2,)),
    (KRONECKER, (2, 3), (3, 2)),
    (KRONECKER, (0, 2), (2, 0)),
    (KRONECKER, (0, 0), (1, 1)),
    (MIXED, (2, 1), (1, 3)),
    (MIXED, (1, 0), (2, 2)),
    (Quiver(3, ()), (1, 2, 0), (2, 1, 1)),
)

_TRUSTED = ExactMatrix._of


def _entry(ring, rng):
    if ring.kind == "Q":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if ring.kind == "Z":
        return rng.randint(-3, 3)
    return rng.choice(list(ring.elements()))


def _matrix(ring, rows, cols, rng):
    return ExactMatrix(ring, rows, cols, tuple(
        tuple(_entry(ring, rng) for _ in range(cols)) for _ in range(rows)))


def _rep(ring, quiver, dims, rng):
    return Rep(ring, quiver, dims, tuple(
        _matrix(ring, dims[quiver.head(a)], dims[quiver.tail(a)], rng)
        for a in range(quiver.arrow_count)))


# ---------------------------------------------------------------------------
# (a) every trusted construction is canonical


def _checked_of(ring, rows, cols, entries):
    _checked_of.calls[str(ring)] += 1
    assert type(rows) is int and type(cols) is int, (rows, cols)
    assert rows >= 0 and cols >= 0, (rows, cols)
    assert type(entries) is tuple and len(entries) == rows, entries
    canon = ring.canon
    for row in entries:
        assert type(row) is tuple and len(row) == cols, row
        for x in row:
            c = canon(x)
            assert c == x and type(c) is type(x), (str(ring), x, c)
    return _TRUSTED(ring, rows, cols, entries)


_checked_of.calls = Counter()


@contextmanager
def _checking():
    """Every trusted construction checked; caches emptied first, so cached
    results get rebuilt under the checker."""
    homology._exceptional.cache_clear()
    homology._orthogonal.cache_clear()
    mutation._walk.cache_clear()
    ExactMatrix._of = staticmethod(_checked_of)
    try:
        yield
    finally:
        ExactMatrix._of = staticmethod(_TRUSTED)


def _linear_algebra_entry_points(ring, rng):
    """Linear-algebra entry points on random matrices, with zero shapes."""
    for rows, cols in ((0, 2), (2, 0), (1, 1), (3, 4), (4, 3), (5, 5)):
        a = _matrix(ring, rows, cols, rng)
        normal_form(a)
        kernel_basis(a)
        cokernel_projection(a)
        solve(a, _matrix(ring, rows, 2, rng))
        solve(a, a.mul(_matrix(ring, cols, 1, rng)))
        x = _rep(ring, KRONECKER, (rows % 3, cols % 3), rng)
        y = _rep(ring, KRONECKER, (cols % 3, rows % 3 + 1), rng)
        he = HomExtResult(x, y)
        he.hom_generators
        he.ext_cocycles


def test_checker_rejects_what_the_trusted_path_must_not_take():
    for ring, bad in ((QQ, 3), (QQ, True), (ZZ, True), (ZZ, Fraction(1)),
                      (Zmod(4), 5), (Zmod(4), -1), (GF(3), 3),
                      (Feps(2, 2), 1), (Feps(2, 2), (3, 0)), (Feps(2, 2), [1, 0])):
        try:
            _checked_of(ring, 1, 1, ((bad,),))
        except (AssertionError, ParseError):
            continue
        raise AssertionError("checker took %r over %s" % (bad, ring))
    for shape in ((1.0, 1), (True, 1), (1, -1)):
        try:
            _checked_of(ZZ, *shape, ((0,),))
        except AssertionError:
            continue
        raise AssertionError("checker took shape %r" % (shape,))
    _checked_of(QQ, 1, 2, ((Fraction(3), Fraction(-1, 2)),))


def test_linear_algebra_builds_canonical_matrices():
    _checked_of.calls.clear()
    with _checking():
        for ring in RINGS:
            _linear_algebra_entry_points(ring, random.Random("linear %s" % ring))
    for ring in RINGS:
        assert _checked_of.calls[str(ring)] > 0, ring


def test_structure_and_mutation_build_canonical_matrices():
    _checked_of.calls.clear()
    with _checking():
        for ring in RINGS:
            lattice = exceptional_lattice(KRONECKER, (2, 3), ring)
            lift_rigid(lattice, identity_hom(ring))
        for source, target in ((Zmod(4), Zmod(2)), (Zmod(12), Zmod(6)),
                               (Feps(2, 2), GF(2)), (Feps(3, 3), GF(3)),
                               (Feps(3, 3), Feps(3, 2))):
            lift_rigid(exceptional_lattice(KRONECKER, (1, 2), target),
                       canonical_hom(source, target))
        for ring in RINGS:
            rigid = direct_sum(exceptional_lattice(KRONECKER, (1, 2), ring),
                               exceptional_lattice(KRONECKER, (2, 3), ring))
            decompose_rigid(rigid)
        for ring in MUTATION_RINGS:
            s1, s2 = Rep.simple(ring, A2, 1), Rep.simple(ring, A2, 2)
            p1 = projective_rep(ring, A2, 1)
            for x, y in ((s1, s2), (p1, s1), (s2, p1)):
                left_mutate(x, y)
                right_mutate(x, y)
    for ring in RINGS:
        assert _checked_of.calls[str(ring)] > 0, ring


def test_rep_from_json_builds_canonical_matrices():
    """Rep.from_json builds on the trusted path, since entry_from_json
    returns canonical entries, also from JSON entries that are not
    canonical; it reads back what to_json wrote."""
    def loose(ring, v):   # an equal JSON entry in a form canon rewrites
        if ring.kind == "Q":
            v = Fraction(v)
            return "%d/%d" % (2 * v.numerator, 2 * v.denominator)
        if ring.kind == "Feps":
            return [c + ring.p for c in v] + [0]
        return v + 2 * ring.size if ring.is_finite else v

    rng = random.Random("from_json")
    for ring in RINGS:
        x = _rep(ring, MIXED, (2, 3), rng)
        data = x.to_json()
        data["mats"][1] = [loose(ring, v) for v in data["mats"][1]]
        _checked_of.calls.clear()
        with _checking():
            got = Rep.from_json(data)
        assert got == x and repr(got.mats) == repr(x.mats), ring
        assert _checked_of.calls[str(ring)] > 0, ring


def test_apply_hom_builds_canonical_matrices():
    """apply_hom builds on the trusted path, since every hom's per-entry map
    returns canonical target entries; the result is the public
    constructor's on the same entries."""
    rng = random.Random("apply_hom")
    for source, target in HOM_PAIRS:
        hom = canonical_hom(source, target)
        _checked_of.calls.clear()
        for rows, cols in ((0, 2), (2, 0), (3, 4)):
            a = _matrix(source, rows, cols, rng)
            with _checking():
                got = apply_hom(hom, a)
            want = ExactMatrix(target, rows, cols,
                               tuple(tuple(map(hom.apply, row)) for row in a.entries))
            assert got == want and repr(got) == repr(want), (source, target)
        assert _checked_of.calls[str(target)] > 0, (source, target)


# ---------------------------------------------------------------------------
# (b) the placement differential against the element-wise loop


def _elementwise_differential(x, y):
    """The differential with one ring.add or ring.sub per term."""
    ring = x.ring
    q = x.quiver
    n = q.vertex_count
    off0, off1 = [0], [0]
    for i in range(n):
        off0.append(off0[-1] + x.dims[i] * y.dims[i])
    for a in range(q.arrow_count):
        off1.append(off1[-1] + x.dims[q.tail(a)] * y.dims[q.head(a)])
    rows, cols = off1[-1], off0[-1]
    data = [[ring.zero] * cols for _ in range(rows)]
    for a in range(q.arrow_count):
        t, h = q.tail(a), q.head(a)
        ya, xa = y.mats[a], x.mats[a]
        for c in range(x.dims[t]):
            for r in range(y.dims[h]):
                row = off1[a] + c * y.dims[h] + r
                for rr in range(y.dims[t]):
                    col = off0[t] + c * y.dims[t] + rr
                    data[row][col] = ring.add(data[row][col], ya.entries[r][rr])
                for cc in range(x.dims[h]):
                    col = off0[h] + cc * y.dims[h] + r
                    data[row][col] = ring.sub(data[row][col], xa.entries[cc][c])
    return ExactMatrix(ring, rows, cols, tuple(tuple(r) for r in data))


def test_differential_matches_elementwise_reference():
    rng = random.Random("differential")
    for ring in RINGS:
        for quiver, dx, dy in DIFFERENTIAL_CASES:
            for _ in range(3):
                x, y = _rep(ring, quiver, dx, rng), _rep(ring, quiver, dy, rng)
                got, want = differential(x, y), _elementwise_differential(x, y)
                assert got == want, (ring, quiver, dx, dy)
                assert repr(got) == repr(want), (ring, quiver, dx, dy)
                assert (got.rows, got.cols) == (want.rows, want.cols)


def test_differential_loop_cell_adds_both_terms():
    """On a loop the one shared cell of each row is Y_a[r][r] - X_a[c][c]."""
    x = Rep(ZZ, LOOP, (1,), (ExactMatrix(ZZ, 1, 1, ((5,),)),))
    y = Rep(ZZ, LOOP, (1,), (ExactMatrix(ZZ, 1, 1, ((7,),)),))
    assert differential(x, y).entries == ((2,),)
    assert differential(y, x).entries == ((-2,),)


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
