"""The per-ring row kernels of _Worksheet against element-wise ops.

Each ring has two row kernels, row_axpy and row_comb; the worksheet runs
its dense column operations through them too, as row operations on N
transposed, except the step that clears an entry of the pivot row while
the pivot column is clean, which only zeroes that entry, and a column
swap.  Its unit phase updates dict rows by a third kernel, dict_axpy.
_ElementwiseWorksheet does the worksheet's unit-phase row updates with
ring.add and ring.mul per element, as the reference, and
_elementwise_replay, swapped in for ``rings._replay``, its dense row
operations on any matrix (N, N transposed and every transform).  Every
result read off an elimination must be identical (equal and of equal repr,
so equal types too) whichever of the two worksheets ran it.  The worksheet
serves Z, Z/m and Feps; over Q and F_p the eliminations are a row
reduction that never builds one, so the elimination comparisons run on the
other rings.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_worksheet_kernels.py
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from quivlat import rings
from quivlat.homology import HomExtResult
from quivlat.quiver import Quiver, Rep
from quivlat.rings import (
    ExactMatrix,
    Feps,
    GF,
    QQ,
    ZZ,
    Zmod,
    cokernel_data,
    cokernel_projection,
    kernel_data,
    normal_form,
    solve,
)
from quivlat.verify import random_rep

RINGS = (ZZ, QQ, GF(2), GF(3), Zmod(4), Zmod(6), Zmod(12), Feps(2, 2), Feps(3, 3))
SHEET_RINGS = tuple(ring for ring in RINGS if not ring.is_field)
SHAPES = ((0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7), (8, 5), (10, 12))
QUIVERS = (
    Quiver(2, ((1, 2), (1, 2))),
    Quiver(3, ((1, 2), (2, 3))),
)


CALLS = Counter()


def _elementwise_replay(ring, x, ops, inverse=False):
    """rings._replay with per-element ring arithmetic; counts its calls."""
    CALLS["_replay"] += 1
    add, mul, neg = ring.add, ring.mul, ring.neg
    for op in ops:
        if len(op) == 2:
            i, j = op
            x[i], x[j] = x[j], x[i]
        elif len(op) == 3:
            i, j, c = op
            if i == j:   # scaling by the unit 1 + c
                u = add(ring.one, c)
                u = ring.inv(u) if inverse else u
                x[i] = [mul(u, y) for y in x[i]]
            else:
                c = neg(c) if inverse else c
                x[i] = [add(y, mul(c, z)) for y, z in zip(x[i], x[j])]
        else:
            i, j, s, t, u, v = op
            if inverse:
                dinv = ring.inv(ring.sub(mul(s, v), mul(t, u)))
                s, t, u, v = (mul(dinv, v), neg(mul(dinv, t)),
                              neg(mul(dinv, u)), mul(dinv, s))
            x[i], x[j] = ([add(mul(s, y), mul(t, z)) for y, z in zip(x[i], x[j])],
                          [add(mul(u, y), mul(v, z)) for y, z in zip(x[i], x[j])])
    return x


class _ElementwiseWorksheet(rings._Worksheet):
    """_unit_axpy with per-element ring arithmetic; counts its calls, and
    the replays the column passes run on N transposed."""

    def _unit_axpy(self, row, items, c):
        """row += c*src on a dict row, src as its nonzero (column, entry) items."""
        CALLS["_unit_axpy"] += 1
        ring = self.ring
        for k, y in items:
            x = ring.add(row.get(k, ring.zero), ring.mul(c, y))
            if ring.is_zero(x):
                row.pop(k, None)
            else:
                row[k] = x

    def _pass(self, m, s, ops, transposed):
        """The worksheet's pass, counting the replays it runs on N transposed."""
        before = CALLS["_replay"]
        gcdex_step = super()._pass(m, s, ops, transposed)
        if transposed:
            CALLS["_replay on N transposed"] += CALLS["_replay"] - before
        return gcdex_step


@contextmanager
def _elementwise():
    saved = rings._Worksheet, rings._replay
    rings._Worksheet, rings._replay = _ElementwiseWorksheet, _elementwise_replay
    try:
        yield
    finally:
        rings._Worksheet, rings._replay = saved


def _assert_identical(new, ref, what):
    assert new == ref, what
    assert repr(new) == repr(ref), what


def _entry(ring, rng):
    if ring == ZZ:
        return rng.randint(-6, 6)
    if ring == QQ:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.choice(list(ring.elements()))


def _random_matrix(ring, rows, cols, density, rng):
    return ExactMatrix(ring, rows, cols, tuple(
        tuple(_entry(ring, rng) if rng.random() < density else ring.zero
              for _ in range(cols)) for _ in range(rows)))


def _matrices(ring, rng):
    """Sparse, dense and rank-deficient matrices of every shape in SHAPES."""
    for rows, cols in SHAPES:
        yield _random_matrix(ring, rows, cols, 0.2, rng)
        yield _random_matrix(ring, rows, cols, 0.9, rng)
        inner = max(1, min(rows, cols) // 2)
        yield _random_matrix(ring, rows, inner, 0.7, rng).mul(
            _random_matrix(ring, inner, cols, 0.7, rng))


def _entry_points(a, rng_seed):
    """The public eliminations of a, each as a thunk."""
    rng = random.Random(rng_seed)
    ring = a.ring
    solvable = a.mul(_random_matrix(ring, a.cols, 2, 0.6, rng))
    arbitrary = _random_matrix(ring, a.rows, 2, 0.6, rng)
    return {
        "normal_form": lambda: normal_form(a),
        "solve(solvable)": lambda: solve(a, solvable),
        "solve(arbitrary)": lambda: solve(a, arbitrary),
        "kernel_data": lambda: kernel_data(a),
        "cokernel_data": lambda: cokernel_data(a),
        "cokernel_projection": lambda: cokernel_projection(a),
    }


def _elimination_results(a, rng_seed):
    return {key: run() for key, run in _entry_points(a, rng_seed).items()}


def _hom_ext_results(x, y):
    he = HomExtResult(x, y)
    return {"hom": he.hom, "ext": he.ext,
            "_hom_vecs": he._hom_vecs, "_ext_vecs": he._ext_vecs}


def test_each_kernel_matches_elementwise_arithmetic():
    # Direct, because elimination never reaches some kernels on some rings:
    # over Feps the pivot divides every entry, so no gcdex step calls a 2x2
    # combination, and over Q and F_p only reference code in the tests
    # runs a worksheet.
    for ring in RINGS:
        rng = random.Random("direct:%s" % ring)
        kern = ring
        add, mul = ring.add, ring.mul
        for _ in range(40):
            width = rng.randint(0, 6)
            ri, rj = (_random_matrix(ring, 1, width, 0.5, rng).entries[0]
                      for _ in range(2))
            s, t, u, v = (_entry(ring, rng) for _ in range(4))
            assert kern.row_axpy(ri, rj, s) == [add(x, mul(s, y)) for x, y in zip(ri, rj)]
            assert kern.row_comb(ri, rj, s, t, u, v) == (
                [add(mul(s, x), mul(t, y)) for x, y in zip(ri, rj)],
                [add(mul(u, x), mul(v, y)) for x, y in zip(ri, rj)])
            for x in ri:
                assert kern.is_zero(x) == ring.is_zero(x)
            if ring.is_zero(s):
                continue
            row = {k: x for k, x in enumerate(ri) if not ring.is_zero(x)}
            items = [(k, y) for k, y in enumerate(rj) if not ring.is_zero(y)]
            kern.dict_axpy(row, items, s)
            want = [add(x, mul(s, y)) for x, y in zip(ri, rj)]
            assert row == {k: x for k, x in enumerate(want) if not ring.is_zero(x)}


def test_elimination_matches_elementwise_ops():
    for ring in SHEET_RINGS:
        rng = random.Random("kernels:%s" % ring)
        for idx, a in enumerate(_matrices(ring, rng)):
            new = _elimination_results(a, idx)
            with _elementwise():
                ref = _elimination_results(a, idx)
            for key in ref:
                _assert_identical(new[key], ref[key],
                                  "%s over %s, matrix %d" % (key, ring, idx))


def test_hom_ext_matches_elementwise_ops():
    for ring in SHEET_RINGS:
        rng = random.Random("hom_ext:%s" % ring)
        for q in QUIVERS:
            for _ in range(4):
                dims_x = tuple(rng.randint(0, 4) for _ in range(q.vertex_count))
                dims_y = tuple(rng.randint(0, 4) for _ in range(q.vertex_count))
                x = random_rep(ring, q, dims_x, rng)
                y = random_rep(ring, q, dims_y, rng)
                new = _hom_ext_results(x, y)
                with _elementwise():
                    ref = _hom_ext_results(x, y)
                for key in ref:
                    _assert_identical(new[key], ref[key], "%s over %s, %r x %r" % (
                        key, ring, dims_x, dims_y))


def test_column_step_after_a_gcdex_column_step():
    """A solve_scalar column step after a gcdex column step in one pass runs
    as a row step on N transposed: the gcdex step mixes column 2 into the
    pivot column, so clearing the pivot row's last entry changes row 1 too."""
    a = ExactMatrix(ZZ, 2, 3, ((2, 3, 4), (6, 5, 8)))
    ws = rings._diagonal_sheet(ZZ, rings._nonzeros(a.entries, ZZ), a.cols)
    assert [len(op) for op in ws.col_ops[:2]] == [6, 3]
    assert ws.col_ops[1] == (0, 2, -4)
    res = normal_form(a)
    identity = ExactMatrix.identity
    assert res.left.mul(a).mul(res.right) == res.nf == ws.matrix()
    assert res.left.mul(res.left_inverse) == identity(ZZ, a.rows)
    assert res.right.mul(res.right_inverse) == identity(ZZ, a.cols)
    assert res.nf.entries == ((1, 0, 0), (0, 4, 0))   # 4: gcd of the 2x2 minors
    new = _elimination_results(a, 0)
    with _elementwise():
        ref = _elimination_results(a, 0)
    for key in ref:
        _assert_identical(new[key], ref[key], key)


def _sheets_and_gcdex_calls(ring, count):
    """Full diagonalisations of count random matrices over ring, half of
    them with every entry drawn from the non-units: how many kept a dense
    residual after the unit phase, and how many gcdex calls all made."""
    rng = random.Random("gcdex:%s" % ring)
    non_units = [x for x in ring.elements() if not ring.is_unit(x)]
    calls = Counter()
    gcdex = rings.RingSpec.gcdex

    def counting(self, a, b):
        calls["gcdex"] += 1
        return gcdex(self, a, b)

    rings.RingSpec.gcdex = counting
    try:
        for k in range(count):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            pick = (lambda: rng.choice(non_units)) if k % 2 else (lambda: _entry(ring, rng))
            cells = [[pick() for _ in range(cols)] for _ in range(rows)]
            ws = rings._Worksheet(ring, rings._nonzeros(cells, ring), cols)
            ws.diagonalize()
            calls["dense"] += ws.paused is not None
            ws.resume()
    finally:
        rings.RingSpec.gcdex = gcdex
    return calls["dense"], calls["gcdex"]


def test_full_sheets_over_local_rings_take_no_gcdex_step():
    """Over a local ring the pivot the dense steps pick has the least
    valuation, so it divides every entry of the block left and no gcdex
    step runs; that is why Feps has no row_comb of its own.  Z/6 is not
    local, and its sheets do take gcdex steps."""
    for ring in (Feps(2, 2), Feps(3, 3), Zmod(4), Zmod(9)):
        dense, gcdex = _sheets_and_gcdex_calls(ring, 200)
        assert dense > 50 and gcdex == 0, (str(ring), dense, gcdex)
    dense, gcdex = _sheets_and_gcdex_calls(Zmod(6), 200)
    assert dense > 50 and gcdex > 0, (dense, gcdex)


def test_reference_is_in_use():
    """Each entry point compared above runs its unit-phase row updates and
    its dense row and column operations through the reference while it is
    swapped in, and not without it.  The matrix has a unit pivot whose
    update cancels an entry, then a residual whose pivot sits off the
    diagonal, so the dense steps move a column.  Over Z, Z/6 and Z/12 the
    pivot row then holds 3, which the pivot 2 does not divide, so the column
    pass runs its row steps on N transposed through the reference.  Over
    the local rings Z/4 and Feps the pivot, of least size, divides every
    entry, so no column pass needs N transposed.  hom_ext runs the unit
    phase on a random pair, and a column pass on N transposed on a pair
    whose Hom complex is [[2, 3], [4, 5]].  cokernel_projection eliminates
    its matrix transposed, so it is handed the matrix transposed, and
    eliminates the matrix itself as the others do."""
    x = y = random_rep(ZZ, QUIVERS[0], (2, 3), random.Random("in use"))
    gcd_pair = tuple(Rep.from_matrix_rows(ZZ, QUIVERS[0], (1, 1), arrows)
                     for arrows in ([[[-3]], [[-5]]], [[[2]], [[4]]]))
    for ring in SHEET_RINGS:
        d = ring.canon([0, 1] if ring.kind == "Feps" else 2)
        local = ring.kind == "Feps" or ring == Zmod(4)
        e = d if local else ring.canon(3)
        a = ExactMatrix(ring, 3, 4, ((ring.one, ring.one, ring.zero, ring.zero),
                                     (ring.one, ring.one, d, e), (ring.zero, ring.zero, d, e)))
        points = _entry_points(a, 0)
        points["cokernel_projection"] = lambda: cokernel_projection(a.transpose())
        for name, run in points.items():
            CALLS.clear()
            with _elementwise():
                run()
            assert CALLS["_unit_axpy"] > 0, (ring, name)
            assert CALLS["_replay"] > 0, (ring, name)
            assert (CALLS["_replay on N transposed"] > 0) is not local, (ring, name)
    CALLS.clear()
    _hom_ext_results(x, y)
    _hom_ext_results(*gcd_pair)
    assert not CALLS
    with _elementwise():
        _hom_ext_results(x, y)
        assert CALLS["_unit_axpy"] > 0
        assert CALLS["_replay"] > 0
        _hom_ext_results(*gcd_pair)
    assert CALLS["_replay on N transposed"] > 0


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
