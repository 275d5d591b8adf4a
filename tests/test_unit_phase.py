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

The unit phase keeps one record per pivot for its column operations, and
one for the scaling of its pivots to canonical generators, and expands
them into operations on the first read of either list.  Over Z, Z/4, Z/12,
F_2[e]/(e^2) and F_3[e]/(e^2), on 0xn, nx0, all-unit and unit-free
matrices, matrices the unit phase empties and random ones, the transforms
and vectors read off the expanded lists must satisfy nf = left * a *
right, left * left^-1 = I, a * x = b and a * v = 0, and the lists must
be expanded once: a read before the witness reads and one after return
the same lists, unchanged.

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
    _sheet_hom_ext,
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
    diagonalised in full: over Z off its residual modulo the gcd g of
    _forward's last pivot row, staying paused, and over every other ring by
    resuming.  Over Z/12, [[4, 6], [6, 4]] has diagonal [2, 2]; read
    modulo g as over Z it would be [2, 10].  Over F_2[e]/(e^2), diag(e, e) has no integer
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


DEFERRED_RINGS = (ZZ, Zmod(4), Zmod(12), Feps(2, 2), Feps(3, 2))


def _deferred_cases(ring):
    """0xn and nx0 matrices, all-unit and unit-free ones, ones the unit
    phase empties (a permuted unitriangular matrix) and random ones."""
    rng = random.Random("deferred records:%s" % ring)
    pool = list(ring.elements()) if ring.is_finite else list(range(-3, 4))
    units = [x for x in pool if ring.is_unit(x)]
    non_units = [x for x in pool if not ring.is_unit(x)]
    yield _mat(ring, [], 4)
    yield _mat(ring, [[], [], []], 0)
    for r, c in ((3, 4), (4, 4), (2, 5)):
        yield _mat(ring, [[rng.choice(units) for _ in range(c)] for _ in range(r)])
        yield _mat(ring, [[rng.choice(non_units) for _ in range(c)] for _ in range(r)])
    n = 4
    upper = [[1 if i == j else rng.choice(pool) if i < j else 0 for j in range(n)]
             for i in range(n)]
    rng.shuffle(upper)
    yield _mat(ring, upper)
    for _ in range(12):
        yield _random(ring, rng.randint(1, 6), rng.randint(1, 6), rng, rng.choice((0.3, 0.7, 1)))


def test_deferred_records_replay_as_the_operations():
    for ring in DEFERRED_RINGS:
        rng = random.Random("deferred replays:%s" % ring)
        emptied = 0
        for a in _deferred_cases(ring):
            res = normal_form(a)
            assert res.nf == res.left.mul(a).mul(res.right), a
            assert res.left.mul(res.left_inverse) == _identity(ring, a.rows), a
            assert res.right.mul(res.right_inverse) == _identity(ring, a.cols), a
            b = a.mul(_random(ring, a.cols, 2, rng))
            x = solve(a, b)
            assert x is not None and a.mul(x) == b, a
            for v in kernel_data(a)[1]:
                assert a.mul(_columns(ring, a.cols, [v])).is_zero(), a
            ws = _paused_sheet(a)
            emptied += ws.t > 0 and ws.paused is None
        assert emptied >= 2, ring


def test_deferred_records_expand_once():
    """Until a read, the column operations are one record per unit
    pivot; a read expands them, and a read of the lists before and after
    _sheet_hom_ext's witness reads returns the same lists, unchanged.
    Witness reads first and the lists after read the same operations."""
    for ring in DEFERRED_RINGS:
        for a in _deferred_cases(ring):
            first, second = (_diagonal_sheet(ring, _nonzeros(a.entries, ring), a.cols)
                             for _ in range(2))
            assert sum(type(op) is list for op in first._col_ops) == first.t, a
            ops = first.row_ops, first.col_ops
            expanded = [list(o) for o in ops]
            assert not any(type(op) is list for o in expanded for op in o), a
            _, read_hom, _, read_ext = _sheet_hom_ext(first)
            vecs = read_hom(), read_ext()
            assert first.row_ops is ops[0] and first.col_ops is ops[1], a
            assert [first.row_ops, first.col_ops] == expanded, a
            assert [len(o) for o in ops] == [len(o) for o in expanded], a
            _, read_hom, _, read_ext = _sheet_hom_ext(second)
            assert (read_hom(), read_ext()) == vecs, a
            assert [second.row_ops, second.col_ops] == expanded, a


def test_the_unit_phase_inverts_only_pivots_with_rows_to_update():
    """The unit phase calls inv once per pivot whose column has another
    row with an entry there, the pivots that record a row operation (j, r,
    f) on their row r, and no more: a pivot with no row to update leaves
    -1/a to the expansion of its record."""
    for ring in DEFERRED_RINGS:
        skipped = 0
        for a in _deferred_cases(ring):
            ws = _Worksheet(ring, _nonzeros(a.entries, ring), a.cols)
            calls = []
            ring.__dict__["inv"] = lambda x, inv=type(ring).inv: calls.append(x) or inv(ring, x)
            try:
                ws.diagonalize()
            finally:
                del ring.__dict__["inv"]
            updating = {op[1] for op in ws._row_ops if type(op) is tuple and len(op) == 3}
            assert len(calls) == len(updating) <= ws.t, a
            skipped += ws.t - len(updating)
        assert skipped > 0, ring


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
