"""The per-ring row and column kernels of _Worksheet against element-wise ops.

_ElementwiseWorksheet keeps the generic row and column operations, written
with ring.add and ring.mul per element, as the reference.  Every result
read off an elimination must be identical (equal and of equal repr, so
equal types too) whichever of the two worksheets ran it.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_worksheet_kernels.py
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from quivlat import rings
from quivlat.homology import HomExtResult
from quivlat.quiver import Quiver
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
SHAPES = ((0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7), (8, 5), (10, 12))
QUIVERS = (
    Quiver(2, ((1, 2), (1, 2))),
    Quiver(3, ((1, 2), (2, 3))),
)


class _ElementwiseWorksheet(rings._Worksheet):
    """The six row and column operations with per-element ring arithmetic."""

    def scale_row(self, i, u):
        ring = self.ring
        mul = ring.mul
        self.n[i] = [mul(u, x) for x in self.n[i]]
        if self.left is not None:
            self.left[i] = [mul(u, x) for x in self.left[i]]
        if self.left_inv is not None:
            uinv = ring.inv(u)
            for row in self.left_inv:
                row[i] = mul(row[i], uinv)

    def addmul_row(self, i, j, c):
        ring = self.ring
        add, mul = ring.add, ring.mul
        self.n[i] = [add(x, mul(c, y)) for x, y in zip(self.n[i], self.n[j])]
        if self.left is not None:
            self.left[i] = [add(x, mul(c, y))
                            for x, y in zip(self.left[i], self.left[j])]
        if self.left_inv is not None:
            nc = ring.neg(c)
            for row in self.left_inv:
                row[j] = add(row[j], mul(nc, row[i]))

    def rows2(self, i, j, s, t, u, v):
        ring = self.ring
        add, mul = ring.add, ring.mul

        def combine(ri, rj):
            new_i = [add(mul(s, x), mul(t, y)) for x, y in zip(ri, rj)]
            new_j = [add(mul(u, x), mul(v, y)) for x, y in zip(ri, rj)]
            return new_i, new_j

        self.n[i], self.n[j] = combine(self.n[i], self.n[j])
        if self.left is not None:
            self.left[i], self.left[j] = combine(self.left[i], self.left[j])
        if self.left_inv is not None:
            det = ring.sub(mul(s, v), mul(t, u))
            dinv = ring.inv(det)
            a, b = mul(dinv, v), ring.neg(mul(dinv, t))
            c, d = ring.neg(mul(dinv, u)), mul(dinv, s)
            for row in self.left_inv:
                x, y = row[i], row[j]
                row[i] = add(mul(x, a), mul(y, c))
                row[j] = add(mul(x, b), mul(y, d))

    def scale_col(self, j, u):
        ring = self.ring
        mul = ring.mul
        for row in self.n:
            row[j] = mul(row[j], u)
        if self.right is not None:
            for row in self.right:
                row[j] = mul(row[j], u)
        if self.right_inv is not None:
            uinv = ring.inv(u)
            self.right_inv[j] = [mul(uinv, x) for x in self.right_inv[j]]

    def addmul_col(self, j, k, c):
        ring = self.ring
        add, mul = ring.add, ring.mul
        for row in self.n:
            row[j] = add(row[j], mul(c, row[k]))
        if self.right is not None:
            for row in self.right:
                row[j] = add(row[j], mul(c, row[k]))
        if self.right_inv is not None:
            nc = ring.neg(c)
            ri = self.right_inv
            ri[k] = [add(x, mul(nc, y)) for x, y in zip(ri[k], ri[j])]

    def cols2(self, i, j, s, t, u, v):
        ring = self.ring
        add, mul = ring.add, ring.mul
        for row in self.n:
            x, y = row[i], row[j]
            row[i] = add(mul(s, x), mul(t, y))
            row[j] = add(mul(u, x), mul(v, y))
        if self.right is not None:
            for row in self.right:
                x, y = row[i], row[j]
                row[i] = add(mul(s, x), mul(t, y))
                row[j] = add(mul(u, x), mul(v, y))
        if self.right_inv is not None:
            det = ring.sub(mul(s, v), mul(t, u))
            dinv = ring.inv(det)
            a, b = mul(dinv, v), ring.neg(mul(dinv, u))
            c, d = ring.neg(mul(dinv, t)), mul(dinv, s)
            ri = self.right_inv
            new_i = [add(mul(a, x), mul(b, y)) for x, y in zip(ri[i], ri[j])]
            new_j = [add(mul(c, x), mul(d, y)) for x, y in zip(ri[i], ri[j])]
            ri[i], ri[j] = new_i, new_j


@contextmanager
def _elementwise():
    saved = rings._Worksheet
    rings._Worksheet = _ElementwiseWorksheet
    try:
        yield
    finally:
        rings._Worksheet = saved


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


def _elimination_results(a, rng_seed):
    rng = random.Random(rng_seed)
    ring = a.ring
    solvable = a.mul(_random_matrix(ring, a.cols, 2, 0.6, rng))
    arbitrary = _random_matrix(ring, a.rows, 2, 0.6, rng)
    return {
        "normal_form": normal_form(a),
        "solve(solvable)": solve(a, solvable),
        "solve(arbitrary)": solve(a, arbitrary),
        "kernel_data": kernel_data(a),
        "cokernel_data": cokernel_data(a),
        "cokernel_projection": cokernel_projection(a),
    }


def _hom_ext_results(x, y):
    he = HomExtResult(x, y)
    return {"hom": he.hom, "ext": he.ext,
            "_hom_vecs": he._hom_vecs, "_ext_vecs": he._ext_vecs}


def test_each_kernel_matches_elementwise_arithmetic():
    # Direct, because elimination never reaches some kernels on some rings:
    # over the fields and Feps the pivot divides every entry, so no gcdex
    # step calls a 2x2 combination.
    for ring in RINGS:
        rng = random.Random("direct:%s" % ring)
        kern = rings._kernels(ring)
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
            cols = [list(pair) for pair in zip(ri, rj)]
            kern.col_axpy(cols, 0, 1, s)
            assert cols == [[add(x, mul(s, y)), y] for x, y in zip(ri, rj)]
            cols = [list(pair) for pair in zip(ri, rj)]
            kern.col_comb(cols, 0, 1, s, t, u, v)
            assert cols == [[add(mul(s, x), mul(t, y)), add(mul(u, x), mul(v, y))]
                            for x, y in zip(ri, rj)]
            for x in ri:
                assert kern.is_zero(x) == ring.is_zero(x)


def test_elimination_matches_elementwise_ops():
    for ring in RINGS:
        rng = random.Random("kernels:%s" % ring)
        for idx, a in enumerate(_matrices(ring, rng)):
            new = _elimination_results(a, idx)
            with _elementwise():
                ref = _elimination_results(a, idx)
            for key in ref:
                _assert_identical(new[key], ref[key],
                                  "%s over %s, matrix %d" % (key, ring, idx))


def test_hom_ext_matches_elementwise_ops():
    for ring in RINGS:
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


def test_reference_is_in_use():
    with _elementwise():
        ws = rings._diagonal_sheet(ExactMatrix.identity(ZZ, 2))
    assert type(ws) is _ElementwiseWorksheet


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
