"""Invariant factors over Z from unit pivots and a modular residual.

hom_ext and cokernel read Z's invariant factors off a paused sheet: every
sheet pauses after its unit phase (_Worksheet.diagonalize), which over Z
eliminates every +-1 pivot, and over Z the residual S left is diagonalised
over Z/2|D|, D the last pivot of _forward on S (_Worksheet.diagonal).  Here
that reading is checked against the full integral diagonalisation, on
Kronecker (4,5) pairs from verify.random_rep, on matrices with no unit
entry, and on the edge cases: the zero matrix, all-unit pivots, [6],
diag(2,6), a last factor equal to |D|, a rank-deficient residual and one
with D = +-1.  A paused sheet keeps N = left * M * right, and resuming it
runs the full sheet's operations: the Hom generators and Ext cocycles read
off it must be the full sheet's, replayed here straight off its operation
lists, as must kernel_data's and cokernel_data's, and two reads resume it
once.  Where sympy imports, its Smith normal form is a third opinion.

Stdlib only (sympy when it imports), so it also runs without pytest:
    PYTHONPATH=src python tests/test_z_invariants.py
"""

import random

from quivlat import rings
from quivlat.homology import differential
from quivlat.quiver import Quiver
from quivlat.rings import ZZ, ExactMatrix, _diagonal_sheet, _forward
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


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
