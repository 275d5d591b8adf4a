"""elimination.is_invertible against the rule it replaced: a square matrix is
invertible when every diagonal entry of its two-sided diagonalisation
(_diagonal_sheet) is a unit.

is_invertible runs one forward elimination instead: full rank over Q and
F_p, full rank of the constant terms mod p over F_p[e]/(e^n), and over Z
and Z/m a last fraction-free pivot, +-det, that is +-1 or coprime to m.
The matrices are chosen where those shortcuts could go wrong: unimodular
integer matrices with large entries, determinants that share exactly one
prime with a composite m, nonzero nilpotent determinants, rationals with
~10^30 numerators over ~10^12 denominators, the empty matrix (invertible,
its determinant the empty product) and non-square shapes (never).  All
nine rings of test_homology.test_is_exceptional_matches_solve_rule are
covered.

Before the forward pass, elimination._invertible peels every row whose one entry
is a unit, and a singleton that is not a unit, or a row the peel empties,
decides False.  Its cases: chains of unit singletons that decide everything
with no forward pass, non-unit singletons (2 over Z, 3 over Z/6, e over
F_2[e]/(e^2)), singletons that leave a zero row or a zero column, non-square
row counts and rows on the columns from first=1 on, as the exceptional
check hands them.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_invertibility.py
"""

import random
from fractions import Fraction

from quivlat import elimination
from quivlat.elimination import (
    _diagonal_sheet,
    _invertible,
    _nonzeros,
    is_invertible,
)
from quivlat.rings import (
    ExactMatrix,
    Feps,
    GF,
    QQ,
    ZZ,
    Zmod,
)

RINGS = (ZZ, QQ, GF(2), GF(3), Zmod(4), Zmod(6), Zmod(12), Feps(2, 2), Feps(3, 3))


def _invertible_by_diagonal(mat):
    if mat.rows != mat.cols:
        return False
    ws = _diagonal_sheet(mat.ring, _nonzeros(mat.entries, mat.ring), mat.cols)
    return all(mat.ring.is_unit(d) for d in ws.diagonal(mat.rows))


def _check(mats):
    """is_invertible agrees with the reference on every matrix; returns the
    set of answers seen."""
    seen = set()
    for mat in mats:
        want = _invertible_by_diagonal(mat)
        assert is_invertible(mat) == want, (str(mat.ring), mat)
        seen.add(want)
    return seen


def _entry(ring, rng):
    if ring == ZZ:
        return rng.randint(-3, 3)
    if ring == QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.choice(list(ring.elements()))


def _random(ring, rows, cols, density, rng, entry=_entry):
    return ExactMatrix(ring, rows, cols, tuple(
        tuple(entry(ring, rng) if rng.random() < density else ring.zero for _ in range(cols))
        for _ in range(rows)))


def _unimodular(ring, n, steps, big, rng):
    """A product of elementary matrices I + c*E_ij, c up to big in size,
    with its rows permuted and one row negated: determinant +-1."""
    rows = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = ring.canon(rng.randint(-big, big))
        rows[i] = [ring.add(x, ring.mul(c, y)) for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    rows[0] = [ring.neg(x) for x in rows[0]]
    return ExactMatrix(ring, n, n, rows)


def _with_determinant(ring, n, d, rng, big=9):
    """U * diag(d, 1, ..., 1) * V for unimodular U and V: determinant +-d."""
    diag = ExactMatrix(ring, n, n, tuple(
        tuple((d if i == 0 else ring.one) if i == j else ring.zero for j in range(n))
        for i in range(n)))
    return _unimodular(ring, n, 3 * n, big, rng).mul(diag).mul(_unimodular(ring, n, 3 * n, big, rng))


def test_random_squares_and_shapes_on_every_ring():
    for ring in RINGS:
        rng = random.Random("random:%s" % ring)
        mats = [ExactMatrix(ring, 0, 0, ())]
        for n in range(1, 8):
            for density in (0.3, 0.7, 1.0):
                mats += [_random(ring, n, n, density, rng) for _ in range(6)]
        mats += [_unimodular(ring, n, 3 * n, 5, rng) for n in range(1, 7)]
        shapes = [(0, 1), (1, 0), (0, 3), (3, 0), (2, 3), (3, 2), (4, 7), (7, 4)]
        mats += [_random(ring, r, c, 0.8, rng) for r, c in shapes]
        assert _check(mats) == {False, True}, str(ring)
        assert is_invertible(ExactMatrix(ring, 0, 0, ()))
        # a matrix of full row or column rank that is not square
        for r, c in ((2, 3), (3, 2)):
            wide = ExactMatrix(ring, r, c, tuple(
                tuple(ring.one if i == j else ring.zero for j in range(c)) for i in range(r)))
            assert not is_invertible(wide)


def test_integer_determinant_must_be_a_unit_not_just_nonzero():
    rng = random.Random("integers")
    mats = []
    for n in range(1, 9):
        mats += [_unimodular(ZZ, n, 6 * n, 10 ** 6, rng) for _ in range(3)]
        mats += [_with_determinant(ZZ, n, d, rng) for d in (2, -3, 6, 0)]
    assert max(abs(x).bit_length() for m in mats for row in m.entries for x in row) > 100
    assert _check(mats) == {False, True}
    assert all(is_invertible(m) for m in mats[:3])
    assert not is_invertible(ExactMatrix(ZZ, 1, 1, ((2,),)))


def test_modular_determinant_sharing_one_prime_with_the_modulus():
    for ring, shared, coprime in ((Zmod(6), (2, 3, 4), (1, 5, 7)),
                                  (Zmod(12), (2, 3, 4, 9, 8), (1, 5, 7, 11))):
        rng = random.Random("modular:%s" % ring)
        mats = []
        for n in range(1, 7):
            for d in shared + coprime:
                mats.append(_with_determinant(ring, n, ring.canon(d), rng))
        assert _check(mats) == {False, True}, str(ring)
        assert not is_invertible(ExactMatrix(ring, 1, 1, ((ring.canon(shared[0]),),)))
        assert is_invertible(ExactMatrix(ring, 1, 1, ((ring.canon(coprime[1]),),)))


def test_truncated_nilpotent_determinants():
    for ring in (Feps(2, 2), Feps(3, 3)):
        rng = random.Random("feps:%s" % ring)
        e = ring.canon([0, 1])
        one_plus_e = ring.canon([1, 1])
        mats = [ExactMatrix.identity(ring, k).scale(e) for k in (1, 2, 3)]
        for n in range(1, 6):
            # determinant e: nonzero and nilpotent
            mats.append(_with_determinant(ring, n, e, rng))
            # determinant 1 + e and 1: units whose matrices carry e-terms
            mats.append(_with_determinant(ring, n, one_plus_e, rng))
            mats.append(_unimodular(ring, n, 3 * n, 2, rng).scale(one_plus_e))
            # constant terms singular, higher terms of full rank
            mats.append(ExactMatrix.identity(ring, n).scale(e).add(
                _random(ring, n, n, 0.6, rng, lambda r, g: r.canon(g.randrange(r.p)))
                .scale(e)))
        assert _check(mats) == {False, True}, str(ring)
        assert not any(is_invertible(m) for m in mats[:3])
        assert is_invertible(ExactMatrix.identity(ring, 3))


def _huge(ring, rng):
    return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 12))


def test_rationals_with_huge_entries():
    rng = random.Random("huge")
    mats = []
    for n in range(1, 8):
        mats.append(_random(QQ, n, n, 1.0, rng, _huge))
        mats.append(_random(QQ, n, n, 0.5, rng, _huge))
        if n > 1:
            inner = rng.randint(1, n - 1)
            mats.append(_random(QQ, n, inner, 1.0, rng, _huge).mul(
                _random(QQ, inner, n, 1.0, rng, _huge)))
            rows = [list(row) for row in _random(QQ, n, n, 1.0, rng, _huge).entries]
            rows[-1] = [x * Fraction(7, 3) for x in rows[0]]
            mats.append(ExactMatrix(QQ, n, n, rows))
    assert _check(mats) == {False, True}


class _ForwardCount:
    """Counts the forward passes elimination._invertible enters while in use."""

    def __enter__(self):
        self.calls, self.real = 0, elimination._forward

        def counted(*args):
            self.calls += 1
            return self.real(*args)
        elimination._forward = counted
        return self

    def __exit__(self, *exc):
        elimination._forward = self.real


def _triangular(ring, n, diagonal, rng, shuffle=True):
    """Lower triangular with the given diagonal and random entries below
    it, rows and columns permuted: each row is a singleton once the columns
    of the rows above it are peeled."""
    rows = [[diagonal[i] if i == j else _entry(ring, rng) if j < i else ring.zero
             for j in range(n)] for i in range(n)]
    perm = list(range(n))
    if shuffle:
        rng.shuffle(rows)
        rng.shuffle(perm)
    return ExactMatrix(ring, n, n, tuple(tuple(row[j] for j in perm) for row in rows))


def _units(ring):
    if ring in (ZZ, QQ):
        return [ring.one, ring.neg(ring.one)] + ([Fraction(-2, 7)] if ring == QQ else [])
    return [x for x in ring.elements() if ring.is_unit(x)]


def test_chains_of_unit_singletons_decide_with_no_forward_pass():
    for ring in RINGS:
        rng = random.Random("chains:%s" % ring)
        units = _units(ring)
        mats = [_triangular(ring, n, [rng.choice(units) for _ in range(n)], rng)
                for n in range(1, 9) for _ in range(4)]
        with _ForwardCount() as count:
            assert _check(mats) == {True}, str(ring)
        assert count.calls == 0, str(ring)


def test_a_singleton_that_is_not_a_unit_decides_false():
    e = Feps(2, 2).canon([0, 1])
    for ring, bad in ((ZZ, 2), (Zmod(6), 3), (Feps(2, 2), e), (Zmod(12), 8), (ZZ, 0)):
        rng = random.Random("non-unit:%s" % ring)
        units, mats = _units(ring), []
        for n in range(1, 7):
            for k in range(n):   # the non-unit sits on the chain at depth k
                diagonal = [rng.choice(units) for _ in range(n)]
                diagonal[k] = ring.canon(bad)
                mats.append(_triangular(ring, n, diagonal, rng))
        with _ForwardCount() as count:
            assert _check(mats) == {False}, str(ring)
        assert count.calls == 0, str(ring)
        assert not _invertible(ring, [{0: ring.canon(bad)}], 1)


def test_singletons_that_leave_a_zero_row_or_a_zero_column():
    for ring in RINGS:
        one, zero = ring.one, ring.zero
        two = ring.add(one, one)
        mats = [
            # two singletons in one column: peeling either empties the other
            ExactMatrix(ring, 2, 2, ((one, zero), (one, zero))),
            ExactMatrix(ring, 3, 3, ((one, zero, zero), (one, zero, one), (zero, zero, one))),
            # a zero row from the start, beside a singleton
            ExactMatrix(ring, 2, 2, ((one, zero), (zero, zero))),
            # after the peel three rows touch two columns: the last is zero
            ExactMatrix(ring, 4, 4, ((one, zero, zero, zero), (one, one, one, zero),
                                     (one, one, two, zero), (zero, one, one, zero))),
        ]
        with _ForwardCount() as count:
            assert _check(mats) == {False}, str(ring)
        assert count.calls == 0, str(ring)


def test_what_the_peel_leaves_goes_to_the_forward_pass():
    """A peeled chain above a dense block: the block alone decides."""
    for ring in RINGS:
        rng = random.Random("rest:%s" % ring)
        units, mats = _units(ring), []
        for n in range(2, 7):
            for k in range(1, n):
                block = _random(ring, n - k, n - k, 1.0, rng)
                rows = [list(row) for row in _triangular(
                    ring, n, [rng.choice(units) for _ in range(n)], rng, shuffle=False).entries]
                for i in range(n - k):
                    rows[k + i][k:] = block.entries[i]
                mats.append(ExactMatrix(ring, n, n, rows))
        with _ForwardCount() as count:
            _check(mats)
        assert count.calls > 0, str(ring)


def test_row_counts_that_are_not_square_and_columns_from_first():
    for ring in RINGS:
        rng = random.Random("first:%s" % ring)
        one = ring.one
        # unit singletons alone, one row too many or too few
        assert not _invertible(ring, [{0: one}, {1: one}, {0: one, 1: one}], 2)
        assert not _invertible(ring, [{0: one}], 2)
        assert _invertible(ring, [{1: one}], 2, 1)
        assert _invertible(ring, [], 3, 3) and not _invertible(ring, [], 3, 2)
        for n in range(1, 7):
            for mat in (_random(ring, n, n, 0.4, rng),
                        _triangular(ring, n, [rng.choice(_units(ring)) for _ in range(n)], rng)):
                want = _invertible_by_diagonal(mat)
                shifted = [{k + 1: x for k, x in row.items()}
                           for row in _nonzeros(mat.entries, ring)]
                assert _invertible(ring, shifted, n + 1, 1) == want, (str(ring), mat)
                assert not _invertible(ring, _nonzeros(mat.entries, ring), n + 1, 0)


def test_a_dense_check_reaches_the_forward_pass():
    for ring in RINGS:
        rng = random.Random("dense:%s" % ring)
        mat = _random(ring, 5, 5, 1.0, rng,
                      lambda r, g: g.choice([x for x in _units(r) if r.nonzero(x)]))
        with _ForwardCount() as count:
            _check([mat])
        assert count.calls == 1, str(ring)


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
