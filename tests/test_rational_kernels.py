"""The row and column kernels over Q, and every kernel table, held to identity.

Identity means equal and of equal repr, so equal types too: over Q a
kernel that stored an ``int`` where ``x + c*y`` gives a ``Fraction`` would
be equal to the reference but not identical to it.  The Q cases mix
integer-valued entries, which take the kernels' integer path, with proper
fractions and large numerators, which take the general one.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_rational_kernels.py
"""

import random
from fractions import Fraction

from quivlat import rings
from quivlat.quiver import Rep
from quivlat.rings import QQ, ExactMatrix

from test_worksheet_kernels import (
    QUIVERS,
    RINGS,
    _assert_identical,
    _elementwise,
    _entry,
    _hom_ext_results,
    _random_matrix,
)


def _assert_kernels_identical(ring, ri, rj, s, t, u, v, what):
    kern = rings._kernels(ring)
    add, mul = ring.add, ring.mul
    _assert_identical(kern.row_axpy(ri, rj, s),
                      [add(x, mul(s, y)) for x, y in zip(ri, rj)],
                      "row_axpy " + what)
    _assert_identical(kern.row_comb(ri, rj, s, t, u, v),
                      ([add(mul(s, x), mul(t, y)) for x, y in zip(ri, rj)],
                       [add(mul(u, x), mul(v, y)) for x, y in zip(ri, rj)]),
                      "row_comb " + what)
    cols = [list(pair) for pair in zip(ri, rj)]
    kern.col_axpy(cols, 0, 1, s)
    _assert_identical(cols, [[add(x, mul(s, y)), y] for x, y in zip(ri, rj)],
                      "col_axpy " + what)
    cols = [list(pair) for pair in zip(ri, rj)]
    kern.col_comb(cols, 0, 1, s, t, u, v)
    _assert_identical(cols, [[add(mul(s, x), mul(t, y)), add(mul(u, x), mul(v, y))]
                             for x, y in zip(ri, rj)], "col_comb " + what)
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
        x = _fractional_rep(q, dims_x, rng)
        y = _fractional_rep(q, dims_y, rng)
        new = _hom_ext_results(x, y)
        with _elementwise():
            ref = _hom_ext_results(x, y)
        for key in ref:
            _assert_identical(new[key], ref[key], "%s over Q, %r x %r" % (
                key, dims_x, dims_y))


def test_q_worksheet_uses_the_rational_kernels():
    assert type(rings._kernels(QQ)) is rings._RationalKernels
    assert type(rings._kernels(rings.ZZ)) is rings._PlainKernels


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
