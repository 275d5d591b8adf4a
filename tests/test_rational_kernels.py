"""The two row kernels over Q, and every ring's, held to identity.

Identity means equal and of equal repr, so equal types too: over Q a
kernel that stored an ``int`` where ``x + c*y`` gives a ``Fraction`` would
be equal to the reference but not identical to it.  The Q cases mix
integer-valued entries, proper fractions and large numerators.  Over Q the
kernels are the plain ones of Z; only the reference code in the tests runs
a worksheet there, since Hom and Ext over Q read off a row reduction.  That
read-off is held to the element-wise worksheet's presentations here, on
fractional entries.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_rational_kernels.py
"""

import random
from fractions import Fraction

from quivlat import rings
from quivlat.homology import HomExtResult
from quivlat.quiver import Rep
from quivlat.rings import QQ, ExactMatrix

from test_worksheet_kernels import (
    QUIVERS,
    RINGS,
    _assert_identical,
    _elementwise,
    _entry,
    _random_matrix,
)


def _assert_kernels_identical(ring, ri, rj, s, t, u, v, what):
    kern = ring
    add, mul = ring.add, ring.mul
    _assert_identical(kern.row_axpy(ri, rj, s),
                      [add(x, mul(s, y)) for x, y in zip(ri, rj)],
                      "row_axpy " + what)
    _assert_identical(kern.row_comb(ri, rj, s, t, u, v),
                      ([add(mul(s, x), mul(t, y)) for x, y in zip(ri, rj)],
                       [add(mul(u, x), mul(v, y)) for x, y in zip(ri, rj)]),
                      "row_comb " + what)
    for x in ri:
        assert kern.is_zero(x) == ring.is_zero(x), "is_zero " + what


def _q_entry(kind, rng):
    if rng.random() < 0.3:
        return Fraction(0)
    if kind == "integral":
        return Fraction(rng.randint(-6, 6))
    if kind == "fractional":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 12))


def test_each_kernel_is_identical_to_elementwise_arithmetic():
    for ring in RINGS:
        rng = random.Random("identical:%s" % ring)
        for case in range(40):
            width = rng.randint(0, 6)
            ri, rj = (_random_matrix(ring, 1, width, 0.5, rng).entries[0]
                      for _ in range(2))
            s, t, u, v = (_entry(ring, rng) for _ in range(4))
            _assert_kernels_identical(ring, ri, rj, s, t, u, v,
                                      "over %s, case %d" % (ring, case))


def test_q_kernels_on_integral_fractional_and_large_entries():
    rng = random.Random("rational kernels")
    kinds = ("integral", "fractional", "large")
    for row_kind in kinds:
        for mult_kind in kinds:
            for case in range(30):
                width = rng.randint(1, 7)
                ri, rj = ([_q_entry(row_kind, rng) for _ in range(width)]
                          for _ in range(2))
                s, t, u, v = (_q_entry(mult_kind, rng) for _ in range(4))
                _assert_kernels_identical(
                    QQ, ri, rj, s, t, u, v, "rows %s, multipliers %s, case %d"
                    % (row_kind, mult_kind, case))


def _fractional_rep(quiver, dims, rng):
    mats = tuple(
        ExactMatrix(QQ, dims[quiver.head(a)], dims[quiver.tail(a)], tuple(
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(dims[quiver.tail(a)]))
            for _ in range(dims[quiver.head(a)])))
        for a in range(quiver.arrow_count))
    return Rep(QQ, quiver, tuple(dims), mats)


def test_q_hom_ext_with_fractional_entries_matches_elementwise_ops():
    rng = random.Random("fractional hom_ext")
    kronecker, a3 = QUIVERS
    pairs = [(kronecker, (4, 5), (4, 5)), (kronecker, (3, 4), (4, 5)),
             (a3, (2, 3, 2), (3, 2, 3))]
    for q in QUIVERS:
        for _ in range(4):
            pairs.append((q, tuple(rng.randint(0, 4) for _ in range(q.vertex_count)),
                          tuple(rng.randint(0, 5) for _ in range(q.vertex_count))))
    for q, dims_x, dims_y in pairs:
        he = HomExtResult(_fractional_rep(q, dims_x, rng), _fractional_rep(q, dims_y, rng))
        a = he.differential
        with _elementwise():
            ref = rings._sheet_hom_ext(rings._diagonal_sheet(
                QQ, rings._nonzeros(a.entries, QQ.zero), a.cols))[::2]
        _assert_identical((he.hom, he.ext), ref, "over Q, %r x %r" % (dims_x, dims_y))
        assert [len(he._hom_vecs), len(he._ext_vecs)] == [
            len(pres.invariant_factors) for pres in ref]


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
