"""Invariant factors over Z from unit pivots and a modular residual.

hom_ext and cokernel read Z's invariant factors off a paused sheet: every
sheet pauses after its unit phase (_Worksheet.diagonalize), which over Z
eliminates every +-1 pivot, and over Z the residual S left is read modulo
g, the gcd of the last pivot row of _forward on S, by _smith_mod, which
builds no worksheet (_Worksheet.diagonal).  Each branch of _smith_mod is
pinned on a small case: g = 1, a unit mod g that is no unit over Z, a
content step, a coprime split of g, a block zero mod g, a rank-deficient
block and a g near 2**3000 of hundreds of primes, split one at a time.
The reading is checked against the full integral diagonalisation, on
Kronecker (4,5) pairs from verify.random_rep, on 2,000 seeded matrices
with no unit entry, and on the edge cases: the zero matrix, all-unit
pivots, [6], diag(2,6), a last factor equal to |D|, a rank-deficient
residual and one with D = +-1; cokernel of a matrix with no unit entry
builds one sheet, the Z sheet.  A paused sheet keeps N = left * M * right,
and resuming it runs the full sheet's operations: the Hom generators and
Ext cocycles read off it must be the full sheet's, replayed here straight
off its operation lists, as must kernel_data's and cokernel_data's, and two
reads resume it once.  kernel_data, cokernel_data and cokernel_projection read that same
paused sheet, with no Z sheet diagonalised in full up front.  Where sympy
imports, its Smith normal form is a third opinion.

Stdlib only (sympy when it imports), so it also runs without pytest:
    PYTHONPATH=src python tests/test_z_invariants.py
"""

import math
import random

from quivlat import rings
from quivlat.homology import differential
from quivlat.quiver import Quiver
from quivlat.rings import ZZ, ExactMatrix, _diagonal_sheet, _forward, _smith_mod
from quivlat.verify import random_rep

KRONECKER = Quiver(2, ((1, 2), (1, 2)))

try:
    from sympy import Matrix
    from sympy import ZZ as SYMPY_ZZ
    from sympy.matrices.normalforms import invariant_factors
except ImportError:   # sympy is a test extra, not a dependency
    invariant_factors = None


def _mat(rows):
    rows = tuple(tuple(r) for r in rows)
    return ExactMatrix(ZZ, len(rows), len(rows[0]) if rows else 0, rows)


def _elimination_input(a):
    """a as the elimination internals take it: ring, dict rows, columns."""
    return a.ring, rings._nonzeros(a.entries, a.ring), a.cols


def _paused_sheet(a):
    """a's sheet after its unit phase, where it pauses."""
    ws = rings._Worksheet(*_elimination_input(a))
    ws.diagonalize()
    return ws


def _full_witnesses(a):
    """The Hom generators and Ext cocycles of a read straight off its full
    diagonalisation: over Z the columns of right at the zero diagonal
    entries, and of left^-1 at the non-unit ones in chain order."""
    ws = _diagonal_sheet(*_elimination_input(a))
    diag = ws.diagonal(max(a.rows, a.cols))
    js = [j for j in range(a.cols) if diag[j] == 0]
    idx = rings._chain_order(ZZ, diag[:a.rows])
    return [rings._replayed(ZZ, a.cols, reversed(ws.col_ops), js),
            rings._replayed(ZZ, a.rows, reversed(ws.row_ops), idx, True)]


def _check(a, witnesses=True, smith=True):
    """The paused sheet's reading of a equals the one off the full
    diagonalisation; returns whether it met a residual and paused.  smith
    asks sympy too (slow on the larger matrices)."""
    fast = _paused_sheet(a)
    full = _diagonal_sheet(*_elimination_input(a))
    hom, read_hom, ext, read_ext = rings._hom_ext_data(*_elimination_input(a))
    (kpres, kvec), (cpres, cvec) = rings.kernel_data(a), rings.cokernel_data(a)
    assert hom == kpres and ext == cpres, (a, hom, kpres, ext, cpres)
    assert rings.cokernel(a) == cpres
    assert fast.diagonal(a.rows) == full.diagonal(a.rows)
    paused = fast.paused is not None
    if witnesses:
        assert [read_hom(), read_ext()] == [kvec, cvec] == _full_witnesses(a)
        fast.resume()
        assert (fast.n, fast.row_ops, fast.col_ops) == (full.n, full.row_ops, full.col_ops)
    if smith and invariant_factors is not None:
        theirs = [int(abs(d)) for d in invariant_factors(Matrix(a.rows, a.cols, [
            x for row in a.entries for x in row]), domain=SYMPY_ZZ)] if a.rows and a.cols else []
        nonzero = [d for d in theirs if d]
        assert list(ext.invariant_factors) == (
            [d for d in nonzero if d != 1] + [0] * (a.rows - len(nonzero))), (a, theirs)
    return paused


def _assert_transforms_hold(ws, a):
    """N = left * a * right, left and right built from the operation lists."""
    ring = a.ring
    left = rings._replay(ring, rings._unit_columns(ring, a.rows, range(a.rows)), ws.row_ops)
    right = rings._replay(ring, rings._unit_columns(ring, a.cols, range(a.cols)),
                          reversed(ws.col_ops))
    left, right = (ExactMatrix(ring, len(m), len(m), tuple(map(tuple, m))) for m in (left, right))
    assert left.mul(a).mul(right) == ws.matrix(), a


def _last_pivot(a):
    pivot_cols, pivot_rows, rows = _forward(ZZ, rings._nonzeros(a.entries, ZZ), a.cols)[:3]
    return rows[pivot_rows[-1]][pivot_cols[-1]]


def test_kronecker_pairs_match_the_full_diagonalisation():
    residuals = 0
    for seed in range(60):
        rng = random.Random("z-invariants:%d" % seed)
        x = random_rep(ZZ, KRONECKER, (4, 5), rng)
        y = random_rep(ZZ, KRONECKER, (4, 5), rng)
        residuals += _check(differential(x, y), witnesses=seed < 12, smith=seed < 4)
    assert residuals >= 20   # most of these run out of unit pivots


def test_matrices_with_no_unit_entry():
    rng = random.Random("no-units")
    for _ in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        a = _mat([[rng.choice((-6, -4, -3, -2, 0, 0, 2, 3, 4, 6, 9)) for _ in range(c)]
                  for _ in range(r)])
        _check(a)


def test_witness_reads_diagonalise_in_full_once():
    """After a residual the sheet pauses, and the first witness read
    resumes it: in either order the two reads build no new sheet, the unit
    phase runs once and its operations stay the head of the sheet's, each
    dense step of the residual runs once, and the vectors are the full
    sheet's."""
    cases = [  # (matrix, Hom free rank, Ext invariant factors)
        (_mat([[2, 4, 6], [4, 8, 12], [6, 12, 18]]), 2, (2, 0, 0)),    # no unit pivot
        (_mat([[1, 2, 3, 4], [2, 6, 8, 10], [3, 8, 13, 16]]), 1, (2, 2)),   # one
    ]
    sheet_class = rings._Worksheet
    for a, hom_rank, ext_factors in cases:
        for hom_first in (True, False):
            built, phases, steps = [], [], []

            class Counted(sheet_class):
                def __init__(self, *args):
                    built.append(self)
                    super().__init__(*args)

                def diagonalize(self):
                    phases.append(self)
                    super().diagonalize()

                def _find_pivot(self, s):
                    steps.append((self, s))
                    return super()._find_pivot(s)
            rings._Worksheet = Counted
            try:
                hom, read_hom, ext, read_ext = rings._hom_ext_data(*_elimination_input(a))
                sheet, built_before = built[0], len(built)
                pause, unit_ops = sheet.paused, (list(sheet.row_ops), list(sheet.col_ops))
                reads = (read_hom, read_ext) if hom_first else (read_ext, read_hom)
                vecs = [read() for read in reads]
            finally:
                rings._Worksheet = sheet_class
            assert pause is not None and sheet.paused is None
            assert hom.free_rank == hom_rank and ext.invariant_factors == ext_factors
            assert len(built) == built_before and phases.count(sheet) == 1
            for ops, head in zip((sheet.row_ops, sheet.col_ops), unit_ops):
                assert ops[:len(head)] == head
            own = [s for ws, s in steps if ws is sheet]
            assert own == list(range(len(own))) and own
            expected = _full_witnesses(a)
            assert vecs == (expected if hom_first else expected[::-1])
    assert [_paused_sheet(a).paused for a, _, _ in cases] == [0, 1]


def test_kernel_and_cokernel_reads_share_the_paused_sheet():
    """kernel_data, cokernel_data and cokernel_projection read one paused
    sheet, as hom_ext does: on matrices with no unit entry they build no Z
    sheet diagonalised in full up front, and read the factors and vectors
    of the full diagonalisation all the same."""
    rng = random.Random("paused reads")
    mats = [_mat([[rng.choice((-6, -4, -3, -2, 0, 2, 3, 4, 6, 9)) for _ in range(c)]
                  for _ in range(r)])
            for r, c in [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(30)]]
    mats += [ExactMatrix(ZZ, 0, 3, ()), ExactMatrix(ZZ, 3, 0, ((),) * 3), _mat([[2, 0], [0, 4]])]

    def full_reads(a):
        hom, read_hom, ext, read_ext = rings._sheet_hom_ext(
            _diagonal_sheet(*_elimination_input(a)))
        return (hom, read_hom()), (ext, read_ext())

    expected = [(full_reads(a), full_reads(a.transpose())) for a in mats]
    original = rings._diagonal_sheet

    def refusing(ring, rows, cols):
        assert ring != ZZ, "a Z sheet was diagonalised in full before its diagonal was read"
        return original(ring, rows, cols)

    rings._diagonal_sheet = refusing
    try:
        for a, (own, transposed) in zip(mats, expected):
            assert rings.kernel_data(a) == own[0], a
            assert rings.cokernel_data(a) == own[1], a
            vecs = transposed[0][1]   # Hom(coker a, Z) = ker(a^T)
            assert rings.cokernel_projection(a) == (ExactMatrix(
                ZZ, len(vecs), a.rows, tuple(vecs)) if own[1][0].is_free else None), a
    finally:
        rings._diagonal_sheet = original
    assert sum(_paused_sheet(a).paused is not None for a in mats) >= 25


def test_paused_and_resumed_sheets_keep_their_transforms():
    """N = left * M * right on a paused sheet and after it resumes, on
    matrices with no unit entry and on Kronecker (3,4) pairs that meet a
    residual (the (4,5) ones take seconds to multiply out)."""
    rng = random.Random("transforms")
    mats = [_mat([[rng.choice((-6, -4, -2, 0, 2, 3, 4, 9)) for _ in range(5)]
                  for _ in range(4)]) for _ in range(10)]
    for seed in range(8):
        pair_rng = random.Random("z-invariants:%d" % seed)
        x = random_rep(ZZ, KRONECKER, (3, 4), pair_rng)
        mats.append(differential(x, random_rep(ZZ, KRONECKER, (3, 4), pair_rng)))
    paused = 0
    for a in mats:
        ws = _paused_sheet(a)
        if ws.paused is None:
            continue
        paused += 1
        ws.diagonal(a.rows)   # reading the factors leaves the sheet as it was
        _assert_transforms_hold(ws, a)
        ws.resume()
        assert ws.paused is None
        _assert_transforms_hold(ws, a)
    assert paused >= 12


def test_edge_cases():
    cases = [
        # (matrix, Ext invariant factors, met a residual)
        (_mat([[0, 0, 0], [0, 0, 0]]), (0, 0), False),
        (_mat([[1, 2, 3], [0, -1, 5], [0, 0, 1]]), (), False),   # all units
        (_mat([[6]]), (6,), True),
        (_mat([[2, 0], [0, 6]]), (2, 6), True),
        (_mat([[2, 3], [4, 0]]), (12,), True),                    # d_r = |D|
        (_mat([[2, 4, 6], [4, 8, 12], [6, 12, 18]]), (2, 0, 0), True),   # rank 1
        (_mat([[2, 3], [3, 5]]), (), True),                       # |D| = 1
        (_mat([[1, 0, 0], [0, 2, 4], [0, 4, 8]]), (2, 0), True),  # a unit, then rank 1
        (ExactMatrix(ZZ, 0, 3, ()), (), False),
        (ExactMatrix(ZZ, 2, 0, ((), ())), (0, 0), False),
    ]
    for a, factors, residual in cases:
        assert _check(a) is residual, a
        assert rings.cokernel(a).invariant_factors == factors, a
    assert abs(_last_pivot(_mat([[2, 3], [3, 5]]))) == 1
    assert abs(_last_pivot(_mat([[2, 3], [4, 0]]))) == 12


def _traced(rows, g, k):
    """_smith_mod(rows, g, k), and the modulus of each call it made, its
    own first: a coprime split shows as two calls below the one it split."""
    moduli, inner = [], rings._smith_mod

    def traced(rows, g, k):
        moduli.append(g)
        return inner(rows, g, k)
    rings._smith_mod = traced   # the recursion calls the module's name
    try:
        return traced(rows, g, k), moduli
    finally:
        rings._smith_mod = inner


def test_each_branch_of_the_modular_read():
    cases = [
        # (rows, g, factors, moduli of the calls)
        ([[2, 3], [3, 5]], 1, [1, 1], [1]),            # g = 1: every factor is 1
        ([[2, 9], [9, 2]], 77, [1, 77], [77]),         # 2, no unit over Z, is one mod 77
        ([[2, 4], [6, 8]], 8, [2, 4], [8]),            # every entry even: content steps
        ([[6, 4], [3, 0]], 12, [1, 12], [12, 4, 3]),   # content 1, no unit: 12 = 4 * 3
        ([[6]], 6, [6], [6]),                          # zero mod g: the factor is g
        ([[12, 18], [6, 12]], 6, [6, 6], [6]),
        ([[2, 4, 6], [4, 8, 12], [6, 12, 18]], 2, [2], [2]),   # rank 1, three rows
        ([[2, 0], [0, 6], [2, 6], [4, 6]], 6, [2, 6], [6]),    # rank 2, four rows
    ]
    for rows, g, factors, moduli in cases:
        kept = [list(row) for row in rows]
        assert _traced(rows, g, len(factors)) == (factors, moduli), rows
        assert rows == kept   # the read works on its own copy
        a = _mat(rows)
        length = max(a.rows, a.cols)
        assert _diagonal_sheet(*_elimination_input(a)).diagonal(length)[:len(factors)] == factors
    # the same reads off a paused sheet, whose g is its own gcd of minors
    assert rings.cokernel(_mat([[6, 4], [3, 0]])).invariant_factors == (12,)
    assert rings.cokernel(_mat([[2, 9], [9, 2]])).invariant_factors == (77,)


def test_a_modulus_near_2_to_the_3000_reads_without_deep_recursion():
    assert _smith_mod([[2]], 2 ** 3000, 1) == [2]
    assert _smith_mod([[2, 0], [0, 2 ** 2999]], 2 ** 3000, 2) == [2, 2 ** 2999]
    # hundreds of primes, each entry divisible by all of them but one: each
    # split peels one prime, so the recursion is as deep as g has primes
    primes, g = [], 1
    for p in range(2, 3000):
        if all(p % q for q in primes):
            if g * p >= 2 ** 3000:
                break
            primes.append(p)
            g *= p
    assert g > 2 ** 2980 and len(primes) > 300
    factors, moduli = _traced([[g // p for p in primes]], g, 1)
    assert factors == [1] and len(moduli) == 2 * len(primes) - 1


UNIT_FREE = (0, 0, 2, -2, 3, -3, 4, 6, 9, 10, 12, 15, 35)


def test_unit_free_matrices_read_the_full_diagonal():
    """2,000 seeded matrices up to 7 x 7 with no unit entry, so the unit
    phase takes nothing: the paused read against the resumed full Z sheet
    and sympy's invariant factors."""
    rng = random.Random("smith-mod")
    paused = splits = 0
    for _ in range(2000):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        a = _mat([[rng.choice(UNIT_FREE) for _ in range(c)] for _ in range(r)])
        length = max(r, c)
        ws = _paused_sheet(a)
        if ws.paused is None:
            assert a.is_zero(), a
            continue
        paused += 1
        pivot_rows, ints = _forward(*_elimination_input(a))[1:]
        factors, moduli = _traced(ws.n, math.gcd(*ints[pivot_rows[-1]].values()),
                                  len(pivot_rows))
        splits += len(moduli) > 1
        diag = ws.diagonal(length)
        assert ws.paused is not None and diag[:len(factors)] == factors, a
        assert diag == _diagonal_sheet(*_elimination_input(a)).diagonal(length), a
        if invariant_factors is not None:
            theirs = invariant_factors(Matrix(r, c, [x for row in a.entries for x in row]),
                                       domain=SYMPY_ZZ)
            assert [abs(int(d)) for d in theirs if d] == factors, (a, theirs)
    assert paused > 1900 and splits > 100, (paused, splits)


def test_cokernel_of_a_unit_free_matrix_builds_only_the_z_sheet():
    built, sheet_class = [], rings._Worksheet

    class Counted(sheet_class):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)
    rings._Worksheet = Counted
    try:
        pres = rings.cokernel(_mat([[6, 4, 10], [3, 0, 9], [2, 2, 6]]))
    finally:
        rings._Worksheet = sheet_class
    assert [ws.ring for ws in built] == [ZZ] and built[0].paused == 0
    assert pres.invariant_factors == rings.cokernel(rings.normal_form(
        _mat([[6, 4, 10], [3, 0, 9], [2, 2, 6]])).nf).invariant_factors


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
