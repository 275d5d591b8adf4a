"""Witnesses of the sheet rings checked against their defining properties.

_Worksheet eliminates every unit pivot on sparse rows before its dense
steps touch the unit-free residual.  Whatever pivots it picks, its answers
must satisfy, over Z, Z/4, Z/12, F_2[e]/(e^2) and F_3[e]/(e^3):

- normal_form: nf = left * M * right with left and right invertible (their
  products with the inverses are identities), nf diagonal, each entry its
  own canonical generator and dividing the next, zeros last;
- Hom generators (kernel_data, and hom_ext's on the Hom complex D) satisfy
  D*v = 0 and span the kernel;
- Ext cocycles (cokernel_data, hom_ext's) map onto the cokernel's
  generators: d*c lies in the image of D for the factor d of c, and the
  image together with the cocycles is the whole free module.

Spanning is decided without the sheet's own bookkeeping.  Over a finite
ring by counting: the span of vectors has as many elements as the product
of the ideals of its Howell rows' pivots (each row of the Howell form adds
its pivot's ideal at its leading column), and the kernel |R|^cols *
|coker| / |R|^rows, from the invariant factors.  Over Z by exact integer
solutions checked by multiplication: the generators G of a kernel of rank
cols - rank(D) (rank over Q, by fractions here) span it when some integer
P has P*G = I, as then their span is saturated; [D | cocycles] * X = I
for an integer X shows the image and the cocycles span Z^rows.  A
surjection between finitely generated modules with equal invariant
factors is an isomorphism.

The cases include 0xn, nx0 and 1x1 matrices, residuals, Hom complexes of
random Kronecker and A3 pairs, and a column that gains a unit after its
turn, so that the phase sweeps again.  A sheet paused after its unit phase
must read the diagonal of the sheet diagonalised in full.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_unit_phase.py
"""

import random
from fractions import Fraction

from quivlat.homology import HomExtResult
from quivlat.quiver import Quiver
from quivlat.rings import (
    ZZ,
    ExactMatrix,
    Feps,
    Zmod,
    _diagonal_sheet,
    _nonzeros,
    _Worksheet,
    cokernel,
    cokernel_data,
    howell_rows,
    kernel_data,
    normal_form,
    solve,
)
from quivlat.verify import random_rep

RINGS = (ZZ, Zmod(4), Zmod(12), Feps(2, 2), Feps(3, 3))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))
A3 = Quiver(3, ((1, 2), (2, 3)))


def _mat(ring, rows, width=None):
    rows = tuple(tuple(ring.canon(x) for x in row) for row in rows)
    return ExactMatrix(ring, len(rows), len(rows[0]) if rows else width, rows)


def _random(ring, rows, cols, rng, density=0.6):
    pool = list(ring.elements()) if ring.is_finite else list(range(-3, 4))
    return _mat(ring, [[rng.choice(pool) if rng.random() < density else 0
                        for _ in range(cols)] for _ in range(rows)], cols)


def _columns(ring, height, vecs):
    """The matrix whose columns are vecs."""
    return ExactMatrix(ring, height, len(vecs), tuple(zip(*vecs)) if vecs else ((),) * height)


def _identity(ring, n):
    return ExactMatrix.identity(ring, n)


def _ideal_size(ring, a):
    return len({ring.mul(a, r) for r in ring.elements()})


def _span_size(ring, vecs):
    """|span of vecs| over a finite ring, off their Howell rows."""
    size = 1
    for row in howell_rows(ring, vecs):
        size *= _ideal_size(ring, next(x for x in row if not ring.is_zero(x)))
    return size


def _rank_q(a):
    rows = [[Fraction(x) for x in row] for row in a.entries]
    rank = 0
    for c in range(a.cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _solved(a, b):
    """a * X = b has a solution, and the one solve returns checks out."""
    x = solve(a, b)
    return x is not None and a.mul(x) == b


def check_normal_form(a):
    ring, res = a.ring, normal_form(a)
    assert res.left.mul(a).mul(res.right) == res.nf, a
    assert res.left.mul(res.left_inverse) == _identity(ring, a.rows), a
    assert res.right.mul(res.right_inverse) == _identity(ring, a.cols), a
    diag = [res.nf.entries[i][i] for i in range(min(a.rows, a.cols))]
    assert all(ring.is_zero(x) for i, row in enumerate(res.nf.entries)
               for j, x in enumerate(row) if i != j), a
    assert all(ring.canonical_gen(d) == d for d in diag), a
    for d, e in zip(diag, diag[1:]):
        assert ring.divides(d, e) and (ring.is_zero(e) or not ring.is_zero(d)), a


def check_kernel(a, gens):
    """gens generate {v : a*v = 0}."""
    ring = a.ring
    g = _columns(ring, a.cols, gens)
    assert a.mul(g).is_zero(), a
    if ring.is_finite:
        coker = 1
        for d in cokernel(a).invariant_factors:
            coker *= ring.size // _ideal_size(ring, d)
        assert _span_size(ring, gens) * ring.size ** a.rows == ring.size ** a.cols * coker, a
    else:
        assert len(gens) == a.cols - _rank_q(a), a
        assert _solved(g.transpose(), _identity(ring, len(gens))), a


def check_cocycles(a, factors, cocycles):
    """cocycles map onto the generators of coker a, d*c into the image."""
    ring = a.ring
    assert len(factors) == len(cocycles)
    for d, c in zip(factors, cocycles):
        if not ring.is_zero(d):
            assert _solved(a, _columns(ring, a.rows, [[ring.mul(d, x) for x in c]])), a
    whole = a.hstack(_columns(ring, a.rows, cocycles))
    if ring.is_finite:
        assert _span_size(ring, whole.transpose().entries) == ring.size ** a.rows, a
    else:
        assert _solved(whole, _identity(ring, a.rows)), a


def check_all(a):
    check_normal_form(a)
    check_kernel(a, kernel_data(a)[1])
    pres, vecs = cokernel_data(a)
    check_cocycles(a, pres.invariant_factors, vecs)


def test_edge_shapes():
    for ring in RINGS:
        non_unit = ring.canon([0, 1] if ring.kind == "Feps" else 2)
        for a in (_mat(ring, [], 3), _mat(ring, [[], []], 0), _mat(ring, [[0]]), _mat(ring, [[1]]),
                  _mat(ring, [[non_unit]])):
            check_all(a)


def _random_matrices(ring):
    rng = random.Random("unit phase:%s" % ring)
    for _ in range(25):
        yield _random(ring, rng.randint(1, 6), rng.randint(1, 6), rng, rng.choice((0.3, 0.7, 1)))


def _paused_sheet(a):
    """The sheet of a after its unit phase, where every sheet pauses."""
    ws = _Worksheet(a.ring, _nonzeros(a.entries, a.ring), a.cols)
    ws.diagonalize()
    return ws


def test_random_matrices_and_residuals():
    residuals = {}
    for ring in RINGS:
        for a in _random_matrices(ring):
            check_all(a)
            residuals[ring] = residuals.get(ring, 0) + (_paused_sheet(a).paused is not None)
    assert all(residuals[ring] >= 3 for ring in RINGS), residuals


def test_a_paused_sheet_reads_the_full_diagonal():
    """A sheet left after its unit phase reads the diagonal of the sheet
    diagonalised in full: over Z off its residual modulo 2|D|, staying
    paused, and over every other ring by resuming.  Over Z/12,
    [[4, 6], [6, 4]] has diagonal [2, 2]; read modulo 2|D| as over Z it
    would be [2, 10].  Over F_2[e]/(e^2), diag(e, e) has no integer
    residual to read."""
    feps = Feps(2, 2)
    cases = [a for ring in RINGS for a in _random_matrices(ring)]
    cases += [_mat(Zmod(12), [[4, 6], [6, 4]]), _mat(feps, [[[0, 1], 0], [0, [0, 1]]])]
    residuals = {}
    for a in cases:
        ring, length = a.ring, max(a.rows, a.cols)
        ws = _paused_sheet(a)
        paused = ws.paused is not None
        residuals[ring] = residuals.get(ring, 0) + paused
        full = _diagonal_sheet(ring, _nonzeros(a.entries, ring), a.cols)
        assert ws.diagonal(length) == full.diagonal(length), a
        assert (ws.paused is not None) is (paused and ring == ZZ), a
    assert all(residuals[ring] >= 3 for ring in RINGS), residuals
    assert _paused_sheet(cases[-2]).diagonal(2) == [2, 2]
    assert _paused_sheet(cases[-1]).diagonal(2) == [feps.canon([0, 1])] * 2


def test_a_column_that_gains_a_unit_after_its_turn():
    for ring in (ZZ, Zmod(12)):   # over a local ring the non-units are an ideal
        a = _mat(ring, [[2, 1], [3, 1]])
        ws = _diagonal_sheet(ring, _nonzeros(a.entries, ring), a.cols)
        assert ws.t == 2 and ws.matrix() == _identity(ring, 2)
        assert ws.col_ops[0] == (1, 0, ring.canon(-2))   # the first pivot is in column 1
        check_all(a)


def test_hom_ext_witnesses():
    for ring in RINGS:
        rng = random.Random("unit phase hom_ext:%s" % ring)
        for quiver, dims in ((KRONECKER, ((2, 3), (3, 4))), (KRONECKER, ((3, 4), (3, 4))),
                             (A3, ((1, 2, 1), (2, 1, 2))), (KRONECKER, ((0, 2), (1, 0)))):
            he = HomExtResult(*(random_rep(ring, quiver, d, rng) for d in dims))
            d = he.differential
            assert len(he._hom_vecs) == len(he.hom.invariant_factors)
            check_kernel(d, he._hom_vecs)
            check_cocycles(d, he.ext.invariant_factors, he._ext_vecs)


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
