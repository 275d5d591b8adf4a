"""The transform-free elimination that serves the whole normal-form API
over Q and F_p: one forward pass, which alone gives the rank profile, then
a back-substitution at the non-pivot columns where reduced rows are read.

The reduction, forward pass and back-substitution together, is checked
against a plain reduced row echelon form written here, each returned row a
multiple of its reduced row within the square of Hadamard's bound over Q.
Field Hom and Ext, and is_invertible on every ring, build no worksheet.
The reference for the read-offs is the two-sided
diagonalisation they used before (``_sheet_hom_ext``), which still serves
the other rings.  The read-off must give the reference's presentations
exactly; its vectors are a different basis, so they are checked by their
defining properties instead: the Hom vectors are cols - rank independent
vectors of the kernel, and the Ext vectors complement the column span.
Over Z, Z/m and Feps the read-off defers its replays; the vectors it
returns when asked are checked bit for bit against the eager read-off of
normal_form's transforms.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_field_reduce.py
"""

import math
import random
from fractions import Fraction

from quivlat import elimination, homology
from quivlat.elimination import (
    cokernel,
    cokernel_data,
    cokernel_projection,
    invert,
    is_invertible,
    kernel_basis,
    kernel_data,
    normal_form,
    solve,
)
from quivlat.homology import (
    HomExtResult,
    _unflatten,
    _unflatten_vertex,
    differential,
    hom_ext,
    is_exceptional,
)
from quivlat.quiver import Quiver, Rep, RepMorphism, projective_rep
from quivlat.rings import (
    GF,
    QQ,
    ZZ,
    ExactMatrix,
    Feps,
    Zmod,
)
from quivlat.verify import random_rep

KRONECKER = Quiver(2, ((1, 2), (1, 2)))
A3 = Quiver(3, ((1, 2), (2, 3)))
# Q in three entry kinds: integral, proper fractions, and ~10^30 numerators
# over ~10^12 denominators, which make the fraction-free pivots large.
CASES = (("integral", QQ), ("fractional", QQ), ("huge", QQ),
         ("field", GF(2)), ("field", GF(3)))
SHAPES = ((0, 0), (0, 4), (4, 0), (1, 1), (3, 7), (7, 3), (6, 6), (9, 12), (12, 9))


def _elimination_input(a):
    """a as the elimination internals take it: ring, dict rows, columns."""
    return a.ring, elimination._nonzeros(a.entries, a.ring), a.cols


def _entry(kind, ring, rng):
    if kind == "field":
        return rng.randrange(ring.p)
    if kind == "integral":
        return Fraction(rng.randint(-6, 6))
    if kind == "fractional":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 12))


def _random_matrix(kind, ring, rows, cols, density, rng):
    return ExactMatrix(ring, rows, cols, tuple(
        tuple(_entry(kind, ring, rng) if rng.random() < density else ring.zero
              for _ in range(cols)) for _ in range(rows)))


def _matrices(kind, ring, rng):
    """Sparse, dense and rank-deficient matrices of every shape in SHAPES."""
    for rows, cols in SHAPES:
        yield _random_matrix(kind, ring, rows, cols, 0.2, rng)
        yield _random_matrix(kind, ring, rows, cols, 0.9, rng)
        inner = max(1, min(rows, cols) // 3)
        yield _random_matrix(kind, ring, rows, inner, 0.7, rng).mul(
            _random_matrix(kind, ring, inner, cols, 0.7, rng))


def _random_pair(kind, ring, quiver, rng):
    def rep():
        dims = tuple(rng.randint(0, 4) for _ in range(quiver.vertex_count))
        mats = tuple(_random_matrix(kind, ring, dims[quiver.head(a)],
                                    dims[quiver.tail(a)], 0.8, rng)
                     for a in range(quiver.arrow_count))
        return Rep(ring, quiver, dims, mats)
    return rep(), rep()


def _differentials(kind, ring, rng):
    for quiver in (KRONECKER, A3):
        for _ in range(6):
            yield differential(*_random_pair(kind, ring, quiver, rng))


def _columns(ring, height, vecs):
    """The matrix whose columns are the given vectors of length height."""
    return ExactMatrix(ring, height, len(vecs),
                       tuple(tuple(v[i] for v in vecs) for i in range(height)))


def _rank(mat):
    """Rank by the reference diagonalisation."""
    ws = elimination._diagonal_sheet(*_elimination_input(mat))
    return sum(not mat.ring.is_zero(d) for d in ws.diagonal(min(mat.rows, mat.cols)))


def _plain_rref(a):
    """Reduced row echelon form of a by textbook Gauss-Jordan on the
    ring's own elements, zero rows dropped."""
    ring = a.ring
    rows = [list(row) for row in a.entries]
    lead = 0
    for c in range(a.cols):
        piv = next((i for i in range(lead, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = ring.inv(rows[lead][c])
        rows[lead] = [ring.mul(inv, x) for x in rows[lead]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != lead and f:
                rows[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[lead])]
        lead += 1
    return [tuple(row) for row in rows[:lead]]


def _hadamard_bits(a):
    """Bits of Hadamard's bound on every minor of a with each row scaled by
    the lcm of its denominators, as the reduction over Q scales it."""
    bits = 0
    for row in a.entries:
        lcm = math.lcm(*[x.denominator for x in row])
        bits += (sum((x * lcm) ** 2 for x in row).numerator.bit_length() + 1) // 2
    return bits


def check_reduction(a):
    ring = a.ring
    pivot_cols, pivot_rows, reduced = elimination._field_reduce(*_elimination_input(a))
    assert len(pivot_cols) == len(pivot_rows) == len(reduced) == _rank(a)
    assert pivot_cols == sorted(set(pivot_cols))
    assert len(set(pivot_rows)) == len(pivot_rows)
    # the pivot rows of the input alone have full rank
    picked = ExactMatrix(ring, len(pivot_rows), a.cols,
                         tuple(a.entries[i] for i in pivot_rows))
    assert _rank(picked) == len(pivot_rows)
    # each reduced row is a multiple of the reduced row echelon form's row
    rref = _plain_rref(a)
    for k, (c, row) in enumerate(zip(pivot_cols, reduced)):
        if ring == QQ:
            assert tuple(Fraction(x, row[c]) for x in row) == rref[k]
        else:
            assert tuple(x * pow(row[c], -1, ring.p) % ring.p for x in row) == rref[k]
    if ring == QQ:
        # each stored row is its fraction-free row, whose entries are minors,
        # times a ratio of two minors: no entry exceeds the bound squared
        bound = 2 * _hadamard_bits(a) + 1
        assert all(abs(x).bit_length() <= bound for row in reduced for x in row)


def check_read_off(a):
    check_reduction(a)
    ring = a.ring
    hom, read_hom, ext, read_ext = elimination._hom_ext_data(*_elimination_input(a))
    hom_vecs, ext_vecs = read_hom(), read_ext()
    ref_hom, _, ref_ext, _ = elimination._sheet_hom_ext(
        elimination._diagonal_sheet(*_elimination_input(a)))
    for new, ref in ((hom, ref_hom), (ext, ref_ext)):
        assert new == ref and repr(new) == repr(ref), (new, ref)
    rank = _rank(a)
    # Hom: cols - rank independent vectors, each in the kernel
    assert len(hom_vecs) == a.cols - rank
    assert a.mul(_columns(ring, a.cols, hom_vecs)).is_zero()
    assert _rank(_columns(ring, a.cols, hom_vecs)) == len(hom_vecs)
    # Ext: rows - rank vectors that with the column span fill R^rows
    assert len(ext_vecs) == a.rows - rank
    assert _rank(a.hstack(_columns(ring, a.rows, ext_vecs))) == a.rows
    element = Fraction if ring == QQ else int
    assert all(type(x) is element for v in hom_vecs + ext_vecs for x in v)
    # the public read-offs come from the same pass
    assert kernel_data(a) == (hom, hom_vecs)
    assert cokernel_data(a) == (ext, ext_vecs)
    assert cokernel(a) == ext
    assert kernel_basis(a) == _columns(ring, a.cols, hom_vecs)


def test_read_off_on_random_matrices():
    for kind, ring in CASES:
        rng = random.Random("matrices:%s:%s" % (kind, ring))
        for a in _matrices(kind, ring, rng):
            check_read_off(a)


def test_read_off_on_random_quiver_differentials():
    for kind, ring in CASES:
        rng = random.Random("pairs:%s:%s" % (kind, ring))
        for a in _differentials(kind, ring, rng):
            check_read_off(a)


SHEET_RINGS = (ZZ, Zmod(4), Zmod(6), Feps(2, 2), Feps(3, 2))


def _sheet_matrix(ring, rows, cols, rng):
    def entry():
        if rng.random() > 0.7:
            return ring.zero
        return rng.randint(-3, 3) if not ring.is_finite else rng.choice(list(ring.elements()))
    return ExactMatrix(ring, rows, cols, tuple(tuple(entry() for _ in range(cols))
                                               for _ in range(rows)))


def _eager_vectors(a):
    """kernel_data's and cokernel_data's vectors, read at once off
    normal_form's whole transforms: the columns of right at the kernel's
    summands (times the annihilator generator at a torsion one), torsion
    first, and the columns of left^-1 at the cokernel's generators."""
    ring = a.ring
    res = normal_form(a)
    right = list(zip(*res.right.entries))
    left_inv = list(zip(*res.left_inverse.entries))
    limit = min(a.rows, a.cols)

    def diag(length):
        return [res.nf.entries[i][i] if i < limit else ring.zero for i in range(length)]
    torsion, free = [], []
    for j, d in enumerate(diag(a.cols)):
        g = ring.ann_gen(d)
        if ring.is_zero(g):
            continue
        if ring.is_unit(g):
            free.append(right[j])
        else:
            torsion.append(tuple(ring.mul(g, x) for x in right[j]))
    rows = diag(a.rows)
    idx = ([i for i, d in enumerate(rows) if not ring.is_zero(d) and not ring.is_unit(d)]
           + [i for i, d in enumerate(rows) if ring.is_zero(d)])
    return torsion + free, [left_inv[i] for i in idx]


def _assert_identical(new, ref, what):
    assert new == ref, what
    assert repr(new) == repr(ref), what


def _elimination_columns(x, y):
    """Where HomExtResult places each column of the vertex layout: the
    C0 blocks in vertex order, each block at its elimination offset."""
    off0 = homology._elimination_offsets(x, y)
    sizes = [a * b for a, b in zip(x.dims, y.dims)]
    if off0 is None:
        return list(range(sum(sizes)))
    return [k for o, size in zip(off0, sizes) for k in range(o, o + size)]


def test_deferred_read_off_matches_eager_vectors():
    """Over the rings the worksheet serves, _hom_ext_data replays nothing
    until its functions are called; the vectors they return, and the Hom
    generators and Ext cocycles of HomExtResult, are bit-identical to the
    eager read-offs, torsion summands included: for HomExtResult those of
    the differential with its columns in the elimination layout, the Hom
    vectors mapped back to the vertex layout."""
    for ring in SHEET_RINGS:
        rng = random.Random("deferred:%s" % ring)
        mats = [_sheet_matrix(ring, rows, cols, rng) for rows, cols in SHAPES]
        pairs = [tuple(random_rep(ring, quiver, dims, rng) for dims in dims_pair)
                 for quiver, dims_pair in (
                     (KRONECKER, ((2, 3), (2, 3))), (KRONECKER, ((3, 4), (3, 4))),
                     (KRONECKER, ((1, 2), (3, 2))), (A3, ((2, 3, 2), (3, 2, 3))))
                 for _ in range(3)]
        mats += [differential(x, y) for x, y in pairs]
        torsion = [0, 0]
        for a in mats:
            hom, read_hom, ext, read_ext = elimination._hom_ext_data(*_elimination_input(a))
            hom_vecs, ext_vecs = read_hom(), read_ext()
            what = (ring, a.rows, a.cols)
            _assert_identical((hom, hom_vecs), kernel_data(a), what)
            _assert_identical((ext, ext_vecs), cokernel_data(a), what)
            _assert_identical((hom_vecs, ext_vecs), _eager_vectors(a), what)
            torsion[0] += not hom.is_free
            torsion[1] += not ext.is_free
        # Z is a domain: its kernels are free, its cokernels are not
        assert torsion[0] > 0 or ring == ZZ, (ring, torsion)
        assert torsion[1] > 0, (ring, torsion)
        assert any(homology._elimination_offsets(x, y) for x, y in pairs)
        for x, y in pairs:
            # the eager reference eliminates the differential in HomExtResult's
            # elimination layout and maps its kernel vectors back
            he = HomExtResult(x, y)
            cols, d = _elimination_columns(x, y), he.differential
            placed = ExactMatrix._of(ring, d.rows, d.cols, tuple(
                tuple(v for _, v in sorted(zip(cols, row))) for row in d.entries))
            hom_vecs = [tuple(v[k] for k in cols) for v in kernel_data(placed)[1]]
            ext_vecs = cokernel_data(placed)[1]
            _assert_identical(he.hom_generators, tuple(
                RepMorphism(x, y, _unflatten_vertex(x, y, v)) for v in hom_vecs), ring)
            shapes = [(y.dims[x.quiver.head(a)], x.dims[x.quiver.tail(a)])
                      for a in range(x.quiver.arrow_count)]
            _assert_identical(he.ext_cocycles, tuple(
                _unflatten(x, shapes, v) for v in ext_vecs), ring)


INVERTIBILITY_RINGS = (ZZ, QQ, GF(2), GF(3), Zmod(4), Zmod(6), Zmod(12), Feps(2, 2), Feps(3, 3))


def test_field_hom_ext_never_diagonalises():
    """Field Hom and Ext, and is_invertible on every ring, build no
    _Worksheet: they run one forward elimination instead."""
    calls, built = [], []
    diagonalize, build = elimination._Worksheet.diagonalize, elimination._Worksheet.__init__

    def counted(ws):
        calls.append(ws.ring)
        return diagonalize(ws)

    def counted_build(ws, ring, rows, cols):
        built.append(ring)
        build(ws, ring, rows, cols)

    elimination._Worksheet.diagonalize = counted
    elimination._Worksheet.__init__ = counted_build
    try:
        homology._exceptional.cache_clear()
        for ring in (QQ, GF(3)):
            x = projective_rep(ring, KRONECKER, 1)
            hom_ext(x, x)
            assert is_exceptional(x)
            rng = random.Random("count:%s" % ring)
            kind = "fractional" if ring == QQ else "field"
            for quiver in (KRONECKER, A3):
                hom_ext(*_random_pair(kind, ring, quiver, rng))
        for ring in INVERTIBILITY_RINGS:
            rng = random.Random("invertible:%s" % ring)
            x = projective_rep(ring, KRONECKER, 2)
            assert is_exceptional(x) and not is_exceptional(Rep.zero(ring, KRONECKER))
            for n in (0, 1, 3, 6):
                assert is_invertible(ExactMatrix.identity(ring, n))
                is_invertible(_sheet_matrix(ring, n, n, rng))
            assert not is_invertible(_sheet_matrix(ring, 2, 3, rng))
        assert calls == [] and built == []
        # the counter is live: a non-field ring still diagonalises once
        x = projective_rep(Zmod(6), KRONECKER, 1)
        hom_ext(x, x)
        assert calls == built == [Zmod(6)]
    finally:
        elimination._Worksheet.diagonalize, elimination._Worksheet.__init__ = diagonalize, build
        homology._exceptional.cache_clear()


class _NoWorksheet(elimination._Worksheet):
    def __init__(self, *args):
        raise AssertionError("a transform-free read-off over a field built a _Worksheet")


def test_field_read_offs_build_no_worksheet():
    saved = elimination._Worksheet
    elimination._Worksheet = _NoWorksheet
    try:
        for kind, ring in CASES:
            rng = random.Random("no-sheet:%s:%s" % (kind, ring))
            a = _random_matrix(kind, ring, 5, 7, 0.6, rng)
            kernel_data(a)
            kernel_basis(a)
            cokernel(a)
            cokernel_data(a)
            cokernel_projection(a)
            normal_form(a)
            solve(a, a)
            is_invertible(a)
            unit_upper = ExactMatrix(ring, 4, 4, tuple(
                tuple(ring.one if i == j else _entry(kind, ring, rng) if j > i else ring.zero
                      for j in range(4)) for i in range(4)))
            assert is_invertible(unit_upper)
            invert(unit_upper)
            hom_ext(*_random_pair(kind, ring, KRONECKER, rng))
        try:   # the stand-in is the one elimination reads: a sheet ring reaches it
            kernel_data(ExactMatrix(ZZ, 1, 1, ((2,),)))
        except AssertionError:
            pass
        else:
            raise AssertionError("the _Worksheet stand-in is not the one elimination reads")
    finally:
        elimination._Worksheet = saved


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
