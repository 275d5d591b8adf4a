"""Hom and Ext over Q on integer rows, certified by a full-rank image mod 32749.

homology.HomExtResult places a Q pair as int rows, each arrow's block
scaled by the lcm of its denominators, and elimination._certified_hom_ext
reads the rank off the rows' image mod 32749 when that image has full rank,
or eliminates them exactly.  The reference is the exact path on Fraction
rows, elimination._field_hom_ext, on the same elimination layout: the
presentations, and after a read the Hom vectors and Ext cocycles, must be
equal, on seeded random pairs over Kronecker, A4 and a wild three-vertex
quiver with integral and fractional entries, denominators divisible by
32749, entries +-32749, rank-deficient pairs and empty complexes.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_rational_certificate.py
"""

import random
from fractions import Fraction

from quivlat import elimination
from quivlat.homology import (
    _differential_rows,
    _elimination_offsets,
    _rank_bound,
    hom_ext,
)
from quivlat.quiver import Quiver, Rep
from quivlat.rings import ExactMatrix, QQ, ZZ

K2 = Quiver(2, ((1, 2), (1, 2)))
A4 = Quiver(4, ((1, 2), (2, 3), (3, 4)))
WILD = Quiver(3, ((1, 2), (1, 2), (2, 3), (1, 3)))
P = 32749
POOLS = {
    "integral": [-2, -1, 0, 0, 1, 2],
    "fractional": [0, 1, -1, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)],
    "p-denominator": [0, 1, -2, Fraction(1, P), Fraction(3, 2 * P)],
    "p-entry": [0, 1, P, -P, 2 * P],
}


def _rep(quiver, dims, rng, pool):
    mats = tuple(ExactMatrix(QQ, dims[h - 1], dims[t - 1], tuple(
        tuple(Fraction(rng.choice(pool)) for _ in range(dims[t - 1]))
        for _ in range(dims[h - 1]))) for t, h in quiver.arrows)
    return Rep(QQ, quiver, dims, mats)


def _pairs():
    rng = random.Random("rational-certificate")
    shapes = ((K2, (3, 4), (3, 4)), (K2, (2, 3), (1, 2)), (A4, (2, 3, 3, 2), (3, 2, 2, 3)),
              (A4, (1, 1, 1, 1), (1, 1, 1, 1)), (WILD, (1, 2, 1), (2, 1, 2)),
              (K2, (1, 0), (0, 1)), (K2, (0, 0), (2, 3)), (WILD, (1, 0, 0), (0, 1, 0)))
    for quiver, dx, dy in shapes:
        for name, pool in POOLS.items():
            for _ in range(3):
                yield _rep(quiver, dx, rng, pool), _rep(quiver, dy, rng, pool)


def _both(x, y):
    """The certified path's data and the reference's, on one layout."""
    off0 = _elimination_offsets(x, y)
    ints, cols = _differential_rows(x, y, off0, True)
    fractions = _differential_rows(x, y, off0)[0]
    got = elimination._certified_hom_ext(QQ, ints, cols, _rank_bound(x, y))
    want = elimination._field_hom_ext(QQ, fractions, cols)
    return got, want


def test_the_certified_path_is_the_exact_one():
    seen = 0
    for x, y in _pairs():
        got, want = _both(x, y)
        assert (got[0], got[2]) == (want[0], want[2]), (x, y)
        assert got[1]() == want[1]() and got[3]() == want[3](), (x, y)
        seen += 1
    assert seen == 8 * len(POOLS) * 3


def test_the_rank_bound_bounds_the_rank():
    for x, y in _pairs():
        he = hom_ext(x, y)
        rows = sum(x.dims[t - 1] * y.dims[h - 1] for t, h in x.quiver.arrows)
        assert rows - he.ext.free_rank <= _rank_bound(x, y), (x, y)


def _counted(run):
    """The rings _forward ran over while run() ran."""
    forward, rings = elimination._forward, []

    def counted(ring, rows, cols):
        rings.append(ring)
        return forward(ring, rows, cols)
    elimination._forward = counted
    try:
        out = run()
    finally:
        elimination._forward = forward
    return out, rings


def test_a_certified_pair_waits_for_its_first_read():
    rng = random.Random("kronecker")
    x, y = _rep(K2, (3, 4), rng, POOLS["integral"]), _rep(K2, (3, 4), rng, POOLS["integral"])
    he, rings = _counted(lambda: hom_ext(x, y))
    assert rings == [elimination._CERTIFIER] and he.ext.is_zero and he.hom.free_rank == 1
    maps, rings = _counted(lambda: he.hom_generators)
    assert rings == [ZZ] and len(maps) == 1
    assert _counted(lambda: he.hom_generators)[1] == []


def test_a_short_image_falls_back_to_the_exact_pass():
    # rank 2 over Q, rank 1 mod 32749: the rows (P, 0) and (0, -1)
    one = lambda v: ExactMatrix(QQ, 1, 1, ((Fraction(v),),))
    x = Rep(QQ, K2, (1, 1), (one(0), one(1)))
    y = Rep(QQ, K2, (1, 1), (one(P), one(0)))
    he, rings = _counted(lambda: hom_ext(x, y))
    assert rings == [elimination._CERTIFIER, ZZ]
    assert he.hom.is_zero and he.ext.is_zero
    # an A4 pair whose dims bound its rank below full goes to the exact pass alone
    rng = random.Random("a4")
    x, y = (_rep(A4, dims, rng, POOLS["integral"]) for dims in ((2, 3, 3, 2), (3, 2, 2, 3)))
    he, rings = _counted(lambda: hom_ext(x, y))
    assert rings == [ZZ] and not he.ext.is_zero


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
