"""Hom and Ext do not depend on the order hom_ext eliminates in.

HomExtResult places the Hom complex with its C0 vertex blocks in a
fill-reducing order (homology._elimination_offsets) and maps its Hom
vectors back to the vertex layout on their first read.  Whatever that
order, the answers must be those of the vertex-layout differential(x, y):
the Hom and Ext presentations equal kernel_data's and cokernel's of it,
and the Hom vectors and Ext cocycles are witnesses for it, checked by
their defining properties (test_unit_phase.check_kernel and
check_cocycles).  The pairs are seeded random ones over the ten rings of
the digest test, on the Kronecker quiver, A4, the triangle and a one-loop
quiver, dimension vectors with zero entries included; over Z both the
pairs whose sheet pauses at a unit-free residual and those whose sheet
does not.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_elimination_layout.py
"""

import random

from quivlat import elimination, homology
from quivlat.elimination import cokernel, kernel_data
from quivlat.homology import differential
from quivlat.quiver import Quiver
from quivlat.rings import ZZ, ExactMatrix, RingSpec
from quivlat.verify import random_rep
from test_output_digest import MATRIX_RINGS
from test_unit_phase import check_cocycles, check_kernel

KRONECKER = Quiver(2, ((1, 2), (1, 2)))
A4 = Quiver(4, ((1, 2), (2, 3), (3, 4)))
TRIANGLE = Quiver(3, ((1, 2), (2, 3), (1, 3)))
LOOP = Quiver(1, ((1, 1),))
DIMS = ((KRONECKER, ((2, 3), (3, 2), (1, 3), (0, 2), (2, 0))),
        (A4, ((1, 2, 1, 1), (2, 1, 0, 2), (1, 1, 2, 1))),
        (TRIANGLE, ((1, 2, 1), (2, 1, 2), (0, 1, 2))),
        (LOOP, ((2,), (3,), (0,))))
PAIRS = 4   # per ring and quiver


def _rank(ring, rows):
    """The rank of rows over a field, by Gaussian elimination in its own
    arithmetic."""
    rows, rank = [list(row) for row in rows], 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if not ring.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ring.inv(rows[rank][c])
        for i in range(rank + 1, len(rows)):
            f = ring.mul(rows[i][c], inv)
            rows[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_field_witnesses(d, hom_vecs, ext_vecs):
    """Over F_p, where check_kernel's Howell count does not run: the Hom
    vectors are cols - rank independent vectors that d kills, and the Ext
    cocycles fill the column span of d up to the whole space."""
    ring, rank = d.ring, _rank(d.ring, d.entries)
    for v in hom_vecs:
        assert d.mul(ExactMatrix(ring, d.cols, 1, tuple((x,) for x in v))).is_zero(), d
    assert len(hom_vecs) == d.cols - rank == _rank(ring, hom_vecs), d
    columns = list(zip(*d.entries)) + list(ext_vecs)
    assert len(ext_vecs) == d.rows - rank and _rank(ring, columns) == d.rows, d


def _pairs(ring, rng):
    for quiver, dims in DIMS:
        for _ in range(PAIRS):
            yield (random_rep(ring, quiver, rng.choice(dims), rng),
                   random_rep(ring, quiver, rng.choice(dims), rng))


def test_hom_and_ext_match_the_vertex_layout_differential():
    sheet_class, paused = elimination._Worksheet, []

    class Recorded(sheet_class):
        def diagonalize(self):
            super().diagonalize()
            paused.append(self.paused is not None)

    moved, z_sheets = 0, []
    elimination._Worksheet = Recorded
    try:
        for spec in MATRIX_RINGS:
            ring = RingSpec.parse(spec)
            rng = random.Random("elimination layout:%s" % spec)
            for x, y in _pairs(ring, rng):
                del paused[:]
                he = homology.HomExtResult(x, y)
                if ring == ZZ:
                    z_sheets += paused[:1]
                moved += homology._elimination_offsets(x, y) is not None
                d, what = differential(x, y), (spec, x.dims, y.dims)
                assert he.hom == kernel_data(d)[0], what
                assert he.ext == cokernel(d), what
                if ring.is_field and ring.is_finite:
                    _check_field_witnesses(d, he._hom_vecs, he._ext_vecs)
                    continue
                check_kernel(d, he._hom_vecs)
                check_cocycles(d, he.ext.invariant_factors, he._ext_vecs)
    finally:
        elimination._Worksheet = sheet_class
    assert moved >= len(MATRIX_RINGS) * PAIRS, moved
    # over Z both paths ran: sheets paused at a residual, and sheets not
    assert True in z_sheets and False in z_sheets, z_sheets


def test_the_order_is_the_vertex_order_where_it_cannot_help():
    """One vertex, or blocks already in ascending degree, keep the vertex
    layout: no map back is made.  Kronecker (4,5) x (4,5) places the
    25 columns of vertex 2, each meeting 8 rows, before the 16 of vertex
    1, each meeting 10."""
    rng = random.Random(3)
    loop = random_rep(ZZ, LOOP, (3,), rng)
    assert homology._elimination_offsets(loop, loop) is None
    x, y = (random_rep(ZZ, KRONECKER, (4, 5), rng) for _ in range(2))
    assert homology._elimination_offsets(x, y) == [25, 0]
    # an empty block moves nowhere: (0, 2) x (3, 2) has vertex 2's block alone
    x, y = random_rep(ZZ, KRONECKER, (0, 2), rng), random_rep(ZZ, KRONECKER, (3, 2), rng)
    assert homology._elimination_offsets(x, y) is None
    # A2's sink: deg(1) = dim Y_2 = 1, deg(2) = dim X_1 = 2, so 1 stays first
    a2 = Quiver(2, ((1, 2),))
    x, y = random_rep(ZZ, a2, (2, 1), rng), random_rep(ZZ, a2, (2, 1), rng)
    assert homology._elimination_offsets(x, y) is None


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
