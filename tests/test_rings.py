"""Ring kernel soundness: normal forms, solvers, and module presentations.

The oracles here are independent of the elimination code: brute-force
enumeration of finite modules, sympy's Smith form over the integers, and
direct checks of the defining equations of each output.
"""

import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from quivlat.elimination import (
    ModulePresentation,
    cokernel,
    cokernel_data,
    cokernel_projection,
    constant_rank,
    howell_rows,
    invert,
    is_invertible,
    kernel_basis,
    kernel_data,
    normal_form,
    presentation_base_change,
    solve,
)
from quivlat.errors import DimensionMismatch, IncompatibleRing, ParseError
from quivlat.quiver import Rep
from quivlat.rings import (
    ExactMatrix,
    Feps,
    GF,
    QQ,
    RingSpec,
    ZZ,
    Zmod,
    apply_hom,
    block_diag,
    canonical_hom,
)

CHAIN_RINGS = (ZZ, Zmod(4), Zmod(6), Feps(2, 2))


def rand_matrix(ring, rows, cols, rng, span=20):
    if ring.is_finite:
        pool = list(ring.elements())
        pick = lambda: rng.choice(pool)
    else:
        pick = lambda: ring.canon(rng.randint(-span, span))
    ents = tuple(tuple(pick() for _ in range(cols)) for _ in range(rows))
    return ExactMatrix(ring, rows, cols, ents)


def matvec(ring, mat, vec):
    """Matrix times column vector using only scalar ring operations."""
    out = []
    for i in range(mat.rows):
        acc = ring.zero
        for j in range(mat.cols):
            acc = ring.add(acc, ring.mul(mat.entries[i][j], vec[j]))
        out.append(acc)
    return tuple(out)


def divides(ring, a, b):
    """a | b in the ring, by scalar solvability."""
    return ring.solve_scalar(a, b) is not None


# ---------------------------------------------------------------------------
# ring element arithmetic


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5), Zmod(6), Zmod(8), Feps(2, 2), Feps(3, 3)])
def test_ring_axioms_on_samples(ring):
    rng = random.Random(11)
    if ring.is_finite and ring.size <= 32:
        sample = list(ring.elements())
    else:
        sample = [ring.canon(rng.randint(-9, 9)) for _ in range(12)]
    for a in sample:
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.canon(a) == a
    for _ in range(60):
        a, b, c = (rng.choice(sample) for _ in range(3))
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))


@pytest.mark.parametrize("ring", [Zmod(4), Zmod(6), Zmod(12), Feps(2, 2), Feps(3, 2)])
def test_ann_gen_generates_annihilator(ring):
    for a in ring.elements():
        g = ring.ann_gen(a)
        assert ring.mul(a, g) == ring.zero
        killed = [x for x in ring.elements() if ring.mul(a, x) == ring.zero]
        spanned = [ring.mul(g, y) for y in ring.elements()]
        assert set(killed) == set(spanned)


def test_ann_gen_domains():
    assert ZZ.ann_gen(0) == 1
    assert ZZ.ann_gen(5) == 0
    assert QQ.ann_gen(Fraction(0)) == Fraction(1)
    assert QQ.ann_gen(Fraction(3, 7)) == Fraction(0)


def test_units_and_inverses():
    for ring in (Zmod(6), Feps(2, 2), GF(7)):
        for a in ring.elements():
            if ring.is_unit(a):
                assert ring.mul(a, ring.inv(a)) == ring.one
            else:
                with pytest.raises(IncompatibleRing):
                    ring.inv(a)


def test_feps_entry_from_json_rejects_non_int_coefficients():
    from quivlat.errors import ParseError
    ring = Feps(2, 2)
    assert ring.entry_from_json([1, 3]) == (1, 1)
    for bad in ([1.7, True], [1, 1.0], [True, 0], ["1", 0]):
        with pytest.raises(ParseError):
            ring.entry_from_json(bad)


@pytest.mark.parametrize("bad", ["10", [1.7, 0], [True, 1], 1.5, None],
                         ids=["string", "float-coeff", "bool-coeff", "float", "none"])
def test_feps_matrix_entries_reject_non_int_coefficients(bad):
    from quivlat.errors import ParseError
    with pytest.raises(ParseError):
        ExactMatrix(Feps(2, 2), 1, 1, ((bad,),))


def test_integer_entries_are_stored_as_plain_ints():
    import enum

    class E(enum.IntEnum):
        A = 3

    m, plain = ExactMatrix(ZZ, 1, 1, ((E.A,),)), ExactMatrix(ZZ, 1, 1, ((3,),))
    assert type(m.entries[0][0]) is int
    assert m == plain and repr(m) == repr(plain)


@pytest.mark.parametrize("combine", [
    lambda a, b: a.add(b), lambda a, b: a.mul(b), solve, lambda a, b: a.hstack(b),
    lambda a, b: a.vstack(b), lambda a, b: block_diag(a.ring, [a, b])],
    ids=["add", "mul", "solve", "hstack", "vstack", "block_diag"])
def test_mixed_ring_refusals_name_both_rings(combine):
    with pytest.raises(IncompatibleRing, match=r"^mixed rings Z and F:3$"):
        combine(ExactMatrix.identity(ZZ, 1), ExactMatrix.identity(GF(3), 1))


PSI_12 =318665857834031151167461     # least strong pseudoprime to bases 2..37
PSI_13 = 3317044064679887385961981    # least strong pseudoprime to bases 2..41


def test_prime_parameters_below_the_proof_bound():
    from quivlat.errors import ParseError
    for make in (GF, lambda p: Feps(p, 2)):
        with pytest.raises(ParseError):
            make(PSI_12)
        largest_prime_below = 3317044064679887385961813
        assert make(largest_prime_below).p == largest_prime_below


def test_prime_parameters_at_or_above_the_proof_bound():
    from quivlat.errors import NotComputable
    next_prime = 3317044064679887385962123
    for p in (PSI_13, next_prime):
        for make in (GF, lambda p: Feps(p, 2)):
            with pytest.raises(NotComputable, match=str(PSI_13)):
                make(p)
        with pytest.raises(NotComputable):
            RingSpec.parse("F:%d" % p)


def _semiprime_above_proof_bound():
    from quivlat.rings import _is_prime
    p = 2 ** 46
    while not _is_prime(p):
        p += 1
    q = p + 2
    while not _is_prime(q):
        q += 1
    return p, p * q


def test_large_semiprime_moduli_answer_exactly():
    """Moduli with two primes above 2^16, once refused as unfactorable, now
    answer exactly: constant_rank and has_nilpotent_kernel read gcds alone."""
    import signal

    def hung(signum, frame):
        raise AssertionError("a large modulus did not answer")

    p, big = _semiprime_above_proof_bound()
    semiprime = 100000007 * 100000037
    mersenne = (2 ** 61 - 1) * (2 ** 89 - 1)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for m, q in ((big, p), (semiprime, 100000007), (mersenne, 2 ** 61 - 1)):
            ring = Zmod(m)
            assert constant_rank(ModulePresentation.from_invariant_factors(ring, [0])) == 1
            assert constant_rank(ModulePresentation.from_invariant_factors(ring, [0, q])) is None
            assert constant_rank(ModulePresentation.from_invariant_factors(
                ring, [q, m // q])) == 1
            assert not canonical_hom(ring, Zmod(q)).has_nilpotent_kernel
            assert canonical_hom(Zmod(q * m), Zmod(m)).has_nilpotent_kernel
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_factorize_small_and_provably_prime_cofactors():
    from quivlat.errors import NotProjective
    q = 65537
    big_square = Zmod(q ** 2)
    assert constant_rank(ModulePresentation.from_invariant_factors(
        big_square, [0, 0, 1])) == 2
    assert constant_rank(ModulePresentation.from_invariant_factors(
        big_square, [0, q ** 2])) == 2
    with pytest.raises(NotProjective):
        constant_rank(ModulePresentation.from_invariant_factors(big_square, [0, q]))
    nilpotent = {(m, d): canonical_hom(Zmod(m), Zmod(d)).has_nilpotent_kernel
                 for m in (4, 6, 8, 9, 12) for d in range(2, m + 1) if m % d == 0}
    assert sorted(k for k, v in nilpotent.items() if v) == [
        (4, 2), (8, 2), (8, 4), (9, 3), (12, 6)]
    ranks = {m: [constant_rank(ModulePresentation.from_invariant_factors(Zmod(m), f))
                 for f in ([0, 0], [0, 1], [1, 1], [])]
             for m in (4, 6, 8, 9, 12)}
    assert ranks == {m: [2, 1, 0, 0] for m in (4, 6, 8, 9, 12)}
    assert constant_rank(ModulePresentation.from_invariant_factors(Zmod(12), [3, 4])) == 1
    assert constant_rank(ModulePresentation.from_invariant_factors(Zmod(12), [4, 0])) is None


@pytest.mark.parametrize("bad", ["1_0", "٣", "  3", "3 ", "+3", "3/ 4", "1/-2",
                                 "1/0", "", "-", "/2", "3/", "1/2/3", "3\n", "0x10",
                                 "1" * 5000])
def test_rational_literals_are_ascii_with_a_positive_denominator(bad):
    from quivlat.errors import ParseError
    with pytest.raises(ParseError):
        QQ.entry_from_json(bad)


def test_rational_literals_round_trip():
    for text, value in (("3", Fraction(3)), ("-0", Fraction(0)), ("6/4", Fraction(3, 2)),
                        ("-7/2", Fraction(-7, 2)), ("007/0010", Fraction(7, 10))):
        assert QQ.entry_from_json(text) == value
    for value in (Fraction(0), Fraction(5), Fraction(-3, 4), Fraction(10 ** 40 + 1, 7)):
        back = QQ.entry_from_json(QQ.entry_to_json(value))
        assert back == value and type(back) is Fraction


def test_clear_position_raises_when_gcdex_does_not_shrink(monkeypatch):
    import signal
    from quivlat.errors import TheoremViolation

    def swap(self, a, b):
        # unimodular, but leaves the pivot as large as before
        return b, self.zero, self.one, self.one, self.zero

    def hung(signum, frame):
        raise AssertionError("_clear_position did not terminate")

    monkeypatch.setattr(RingSpec, "gcdex", swap)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(TheoremViolation):
            normal_form(ExactMatrix.from_rows(ZZ, [[2], [3]]))
        with pytest.raises(TheoremViolation):
            normal_form(ExactMatrix.from_rows(Zmod(12), [[4, 6]]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_ring_spec_parse_round_trip():
    for ring in (ZZ, QQ, GF(2), GF(97), Zmod(4), Zmod(360), Feps(2, 2), Feps(5, 4)):
        assert RingSpec.parse(str(ring)) == ring
    from quivlat.errors import ParseError
    for bad in ("F:4", "Zmod:1", "Feps:6:2", "Feps:2:0", "R", "Zmod:x"):
        with pytest.raises(ParseError):
            RingSpec.parse(bad)


@pytest.mark.parametrize("text", [
    "F:\u0663", "Zmod:1_0", "F: 3", "F:+3", "Feps:2:+2", "Feps:\uff12:2",
    "Zmod:0x10", "F:3.0", "F:3:", "Z:", "Q:0", "Feps:2", "F:" + "9" * 5000])
def test_ring_spec_parameters_are_ascii_decimal(text):
    from quivlat.errors import ParseError
    with pytest.raises(ParseError):
        RingSpec.parse(text)


@pytest.mark.parametrize("text", [
    "Z", "Q", "F:2", "F:97", "Zmod:4", "Zmod:360", "Feps:2:2", "Feps:5:4", "Feps:3:64"])
def test_ring_spec_text_round_trips(text):
    assert str(RingSpec.parse(text)) == text


def test_ring_spec_parse_and_rep_records_refuse_non_strings():
    from quivlat.errors import ParseError
    from quivlat.quiver import Rep
    for spec in (5, None, ["Z"]):
        with pytest.raises(ParseError):
            RingSpec.parse(spec)
        with pytest.raises(ParseError):
            Rep.from_json({"ring": spec, "quiver": {"vertices": 1, "arrows": []},
                           "dims": [1], "mats": []})


def test_feps_truncation_order_is_bounded_up_front():
    from quivlat.errors import NotComputable
    from quivlat.rings import _FEPS_MAX_ORDER
    assert Feps(2, _FEPS_MAX_ORDER).n == _FEPS_MAX_ORDER
    for n in (_FEPS_MAX_ORDER + 1, 300000000):
        with pytest.raises(NotComputable, match="order %d exceeds the bound %d" % (
                n, _FEPS_MAX_ORDER)):
            Feps(2, n)


# ---------------------------------------------------------------------------
# normal forms against defining equations and sympy


def check_normal_form_contract(a):
    ring = a.ring
    res = normal_form(a)
    assert res.left.mul(a).mul(res.right) == res.nf
    assert res.left.mul(res.left_inverse) == ExactMatrix.identity(ring, a.rows)
    assert res.left_inverse.mul(res.left) == ExactMatrix.identity(ring, a.rows)
    assert res.right.mul(res.right_inverse) == ExactMatrix.identity(ring, a.cols)
    assert res.right_inverse.mul(res.right) == ExactMatrix.identity(ring, a.cols)
    if res.kind in ("Smith", "Howell"):
        diag = []
        for i in range(a.rows):
            for j in range(a.cols):
                if i == j:
                    diag.append(res.nf.entries[i][j])
                else:
                    assert ring.is_zero(res.nf.entries[i][j])
        for d in diag:
            assert ring.canon(d) == d
        for d, e in zip(diag, diag[1:]):
            assert divides(ring, d, e)
    return res


@pytest.mark.parametrize("ring", CHAIN_RINGS, ids=str)
def test_normal_form_random_contract(ring):
    rng = random.Random(hash(str(ring)) & 0xFFFF)
    for _ in range(130):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        check_normal_form_contract(rand_matrix(ring, rows, cols, rng))


def test_smith_matches_sympy():
    rng = random.Random(5)
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(ZZ, rows, cols, rng)
        mine = [normal_form(a).nf.entries[i][i] for i in range(min(rows, cols))]
        ref = smith_normal_form(Matrix(a.rows, a.cols, [v for r in a.entries for v in r]))
        theirs = [abs(ref[i, i]) for i in range(min(rows, cols))]
        assert mine == theirs


def fp_rank(p, entries):
    """Row rank over F_p by plain integer elimination."""
    rows = [[v % p for v in row] for row in entries]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_rref_over_fields():
    rng = random.Random(6)
    for ring in (QQ, GF(2), GF(5)):
        for _ in range(60):
            a = rand_matrix(ring, rng.randint(0, 5), rng.randint(0, 5), rng, span=6)
            res = check_normal_form_contract(a)
            assert res.kind == "ReducedEchelon"
            if ring.kind == "Q":
                ref = Matrix(a.rows, a.cols, [v for row in a.entries for v in row])
                want = ref.rref()[0]
                got = Matrix(a.rows, a.cols, [v for r in res.nf.entries for v in r])
                assert got == want
            else:
                pivots = fp_rank(ring.p, a.entries)
                mine = sum(1 for i in range(res.nf.rows)
                           if any(not ring.is_zero(v) for v in res.nf.entries[i]))
                assert mine == pivots


def _elementary(ring, size, op):
    """The matrix of one worksheet operation: op applied to the identity."""
    m = [[ring.one if i == j else ring.zero for j in range(size)] for i in range(size)]
    if len(op) == 2:
        i, j = op
        m[i], m[j] = m[j], m[i]
    elif len(op) == 3:
        i, j, c = op
        m[i][j] = ring.add(m[i][j], c)
    else:
        i, j, s, t, u, v = op
        m[i][i], m[i][j], m[j][i], m[j][j] = s, t, u, v
    return ExactMatrix(ring, size, size, tuple(map(tuple, m)))


def test_replayed_transforms_match_elementary_products():
    """The transforms replayed from a diagonalisation's recorded operations
    are the products of the operations' elementary matrices: left =
    E_K ... E_1 and right = F_1 ... F_L, multiplied out by ExactMatrix.mul."""
    from quivlat import elimination
    from quivlat.homology import differential
    from quivlat.quiver import Quiver
    from quivlat.verify import random_rep

    rng = random.Random(14)
    kronecker = Quiver(2, ((1, 2), (1, 2)))
    for ring in (ZZ, Zmod(4), Zmod(12), Feps(2, 2), Feps(3, 3)):
        mats = [rand_matrix(ring, r, c, rng, span=3)
                for r, c in ((0, 3), (3, 0), (1, 1), (4, 4), (6, 7), (8, 5))]
        mats += [differential(random_rep(ring, kronecker, (2, 3), rng),
                              random_rep(ring, kronecker, (2, 3), rng)) for _ in range(2)]
        for a in mats:
            ws = elimination._diagonal_sheet(ring, elimination._nonzeros(a.entries, ring), a.cols)
            left = ExactMatrix.identity(ring, a.rows)
            for op in ws.row_ops:
                left = _elementary(ring, a.rows, op).mul(left)
            right = ExactMatrix.identity(ring, a.cols)
            for op in ws.col_ops:
                right = right.mul(_elementary(ring, a.cols, op))
            res = normal_form(a)
            assert (res.nf, res.left, res.right) == (ws.matrix(), left, right), (ring, a)
            assert res.left_inverse.mul(left) == ExactMatrix.identity(ring, a.rows)
            assert res.right_inverse.mul(right) == ExactMatrix.identity(ring, a.cols)
            left_inv = list(zip(*res.left_inverse.entries))
            right_cols = list(zip(*right.entries))
            picks = [j for j in range(a.cols) if rng.random() < 0.5][::-1]
            assert (elimination._replayed(ring, a.cols, reversed(ws.col_ops), picks)
                    == [right_cols[j] for j in picks])
            picks = [i for i in range(a.rows) if rng.random() < 0.5][::-1]
            assert (elimination._replayed(ring, a.rows, reversed(ws.row_ops), picks, True)
                    == [left_inv[i] for i in picks])


# ---------------------------------------------------------------------------
# howell rows: canonical generating sets of row spans


def in_row_span(ring, rows, vec):
    if not rows:
        return all(ring.is_zero(v) for v in vec)
    mat = ExactMatrix(ring, len(rows), len(rows[0]), tuple(rows)).transpose()
    rhs = ExactMatrix(ring, len(vec), 1, tuple((v,) for v in vec))
    return solve(mat, rhs) is not None


@pytest.mark.parametrize("ring", [Zmod(4), Zmod(6), Zmod(8), Feps(2, 2)], ids=str)
def test_howell_rows_canonical_span(ring):
    rng = random.Random(7)
    for _ in range(60):
        n, width = rng.randint(0, 4), rng.randint(1, 4)
        rows = [tuple(ring.canon(rng.randint(-9, 9)) for _ in range(width))
                for _ in range(n)]
        h = howell_rows(ring, rows)
        for r in rows:
            assert in_row_span(ring, h, r)
        for r in h:
            assert in_row_span(ring, rows, r)
        assert howell_rows(ring, h) == h
        shuffled = rows[:]
        rng.shuffle(shuffled)
        if shuffled and n >= 2:
            c = rng.choice(list(ring.elements()))
            shuffled[0] = tuple(ring.add(x, ring.mul(c, y))
                                for x, y in zip(shuffled[0], shuffled[1]))
        assert howell_rows(ring, shuffled) == h


@pytest.mark.parametrize("ring", [Zmod(4), Zmod(6), Zmod(8), Feps(2, 2), Feps(3, 2)], ids=str)
def test_howell_rows_have_the_howell_property(ring):
    """Brute force over the whole span: every span element whose first j
    entries vanish combines the output rows leading at j or later, each
    pivot is its canonical generator, and each entry above a pivot is the
    first element, in ring.elements() order, of its coset modulo the pivot."""
    rng = random.Random(11)
    elements = list(ring.elements())
    for _ in range(40):
        width = rng.randint(1, 3)
        rows = [tuple(ring.zero if rng.random() < 0.3 else rng.choice(elements)
                      for _ in range(width)) for _ in range(rng.randint(0, 3))]
        h = howell_rows(ring, rows)
        leads = [next(j for j, x in enumerate(r) if not ring.is_zero(x)) for r in h]
        assert leads == sorted(set(leads)), (rows, h)
        span = span_closure(ring, rows, width)
        for j in range(width + 1):
            tail = span_closure(ring, [r for r, lead in zip(h, leads) if lead >= j], width)
            assert tail == {v for v in span if all(map(ring.is_zero, v[:j]))}, (rows, h, j)
        for i, (row, lead) in enumerate(zip(h, leads)):
            piv = row[lead]
            assert piv == ring.canonical_gen(piv), (rows, h)
            for above in h[:i]:
                coset = {ring.add(above[lead], ring.mul(c, piv)) for c in elements}
                assert above[lead] == next(e for e in elements if e in coset), (rows, h)


def test_howell_rows_sees_hidden_submodule():
    # over Z/4 the span of (2,) contains (2,) which plain echelon scaling loses
    ring = Zmod(4)
    h = howell_rows(ring, [(2, 1)])
    assert in_row_span(ring, h, (0, 2))


# ---------------------------------------------------------------------------
# kernels against exhaustive enumeration


def enumerate_kernel(a):
    """All column vectors x with a*x = 0, by brute force."""
    ring = a.ring
    return {vec for vec in product(list(ring.elements()), repeat=a.cols)
            if all(ring.is_zero(v) for v in matvec(ring, a, vec))}


def span_closure(ring, gens, width):
    seen = {tuple(ring.zero for _ in range(width))}
    frontier = list(seen)
    while frontier:
        base = frontier.pop()
        for g in gens:
            for c in ring.elements():
                nxt = tuple(ring.add(b, ring.mul(c, x)) for b, x in zip(base, g))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


@pytest.mark.parametrize("ring", [GF(2), GF(3), Zmod(4), Zmod(6), Feps(2, 2)], ids=str)
def test_kernel_basis_matches_enumeration(ring):
    rng = random.Random(8)
    for _ in range(25):
        rows, cols = rng.randint(0, 3), rng.randint(0, 3)
        a = rand_matrix(ring, rows, cols, rng)
        kb = kernel_basis(a)
        gens = [tuple(kb.entries[i][j] for i in range(kb.rows))
                for j in range(kb.cols)]
        want = enumerate_kernel(a)
        assert span_closure(ring, gens, a.cols) == want


def test_kernel_basis_over_z():
    rng = random.Random(9)
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a = rand_matrix(ZZ, rows, cols, rng)
        kb = kernel_basis(a)
        assert a.mul(kb).is_zero()
        flat = Matrix(a.rows, a.cols, [v for r in a.entries for v in r])
        assert kb.cols == a.cols - flat.rank()


def module_size(ring, factors):
    total = 1
    for d in factors:
        ideal = sum(1 for x in ring.elements()
                    if ring.solve_scalar(d, x) is not None)
        total *= ring.size // ideal
    return total


@pytest.mark.parametrize("ring", [Zmod(4), Zmod(6), Feps(2, 2)], ids=str)
def test_kernel_data_presents_the_kernel(ring):
    rng = random.Random(10)
    for _ in range(25):
        rows, cols = rng.randint(0, 3), rng.randint(0, 3)
        a = rand_matrix(ring, rows, cols, rng)
        pres, gens = kernel_data(a)
        want = enumerate_kernel(a)
        assert span_closure(ring, list(gens), a.cols) == want
        assert module_size(ring, pres.invariant_factors) == len(want)
        for g in gens:
            assert all(ring.is_zero(v) for v in matvec(ring, a, g))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3), Zmod(4), Zmod(6), Zmod(12),
                                  Feps(2, 2), Feps(3, 3)], ids=str)
def test_kernel_data_presentation_is_canonical(ring):
    # kernel_data reads its factors off the normal form without eliminating
    # again, so they must already be what from_invariant_factors produces
    rng = random.Random(11)
    for _ in range(20):
        a = rand_matrix(ring, rng.randint(0, 4), rng.randint(0, 5), rng, span=6)
        pres, _ = kernel_data(a)
        assert pres == ModulePresentation.from_invariant_factors(
            ring, pres.invariant_factors)


# ---------------------------------------------------------------------------
# cokernels against abelian group enumeration


def quotient_kill_counts(m, a):
    """For each divisor d of m, |{x in coker : d*x = 0}| by enumeration."""
    cols = [tuple(a.entries[i][j] % m for i in range(a.rows)) for j in range(a.cols)]
    zero = tuple(0 for _ in range(a.rows))
    span = {zero}
    frontier = [zero]
    while frontier:
        base = frontier.pop()
        for g in cols:
            nxt = tuple((b + x) % m for b, x in zip(base, g))
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    ambient = m ** a.rows
    counts = {}
    for d in range(1, m + 1):
        if m % d:
            continue
        killed = sum(1 for vec in product(range(m), repeat=a.rows)
                     if tuple((d * v) % m for v in vec) in span)
        counts[d] = killed // len(span)
    return counts, ambient // len(span)


def predicted_kill_counts(m, factors):
    import math
    vals = [m if f == 0 else f for f in factors]
    counts = {}
    for d in range(1, m + 1):
        if m % d:
            continue
        total = 1
        for f in vals:
            total *= math.gcd(d, f)
        counts[d] = total
    return counts


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_cokernel_invariants_match_group_enumeration(m):
    ring = Zmod(m)
    rng = random.Random(100 + m)
    for _ in range(12):
        rows, cols = rng.randint(1, 4), rng.randint(0, 4)
        a = rand_matrix(ring, rows, cols, rng)
        pres = cokernel(a)
        got, order = quotient_kill_counts(m, a)
        vals = [m if f == 0 else f for f in pres.invariant_factors]
        predicted_order = 1
        for v in vals:
            predicted_order *= v
        assert predicted_order == order
        assert predicted_kill_counts(m, pres.invariant_factors) == got


def test_cokernel_data_generators_project_to_basis():
    rng = random.Random(12)
    for ring in (ZZ, Zmod(6), Feps(2, 2)):
        for _ in range(20):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            a = rand_matrix(ring, rows, cols, rng)
            pres, gens = cokernel_data(a)
            assert len(gens) == len(pres.invariant_factors)
            for d, g in zip(pres.invariant_factors, gens):
                scaled = ExactMatrix(ring, a.rows, 1,
                                     tuple((ring.mul(d, v),) for v in g))
                # d * generator lands back in the column span
                assert solve(a, scaled) is not None


def test_cokernel_projection_contract():
    rng = random.Random(13)
    for ring in CHAIN_RINGS + (QQ, GF(3)):
        seen_none = seen_proj = False
        for _ in range(80):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            a = rand_matrix(ring, rows, cols, rng)
            pres = cokernel(a)
            pi = cokernel_projection(a)
            if not pres.is_free:
                assert pi is None
                seen_none = True
                continue
            seen_proj = True
            assert pi.rows == pres.free_rank
            assert pi.mul(a).is_zero()
            # rows must be completable to a basis: full-rank normal form
            nf = normal_form(pi).nf.entries
            if ring.is_field:   # reduced echelon: a nonzero row per pivot
                assert sum(1 for row in nf if any(row)) == pi.rows
            else:
                diag = [nf[i][i] for i in range(min(pi.rows, pi.cols))]
                assert sum(1 for d in diag if ring.is_unit(d)) == pi.rows
        assert seen_proj and (seen_none or ring.is_field)


# ---------------------------------------------------------------------------
# solve, invertibility, constant rank


@pytest.mark.parametrize("ring", CHAIN_RINGS + (QQ, GF(3)), ids=str)
def test_solve_round_trip(ring):
    rng = random.Random(14)
    for _ in range(60):
        rows, cols, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 2)
        a = rand_matrix(ring, rows, cols, rng)
        x0 = rand_matrix(ring, cols, k, rng)
        b = a.mul(x0)
        x = solve(a, b)
        assert x is not None
        assert a.mul(x) == b


def test_solve_detects_inconsistency():
    for ring in (QQ, GF(2), GF(3)):
        # rank 1: equal first two rows, a zero third row
        a = ExactMatrix(ring, 3, 2, ((1, 1), (1, 1), (0, 0)))
        assert solve(a, ExactMatrix(ring, 3, 1, ((1,), (0,), (0,)))) is None
        assert solve(a, ExactMatrix(ring, 3, 1, ((0,), (0,), (1,)))) is None
        b = ExactMatrix(ring, 3, 2, ((1, 0), (1, 0), (0, 0)))
        x = solve(a, b)
        assert x is not None and a.mul(x) == b
        assert solve(ExactMatrix.zeros(ring, 2, 0), ExactMatrix(ring, 2, 1, ((0,), (1,)))) is None
    a = ExactMatrix(ZZ, 2, 1, ((2,), (0,)))
    b = ExactMatrix(ZZ, 2, 1, ((1,), (0,)))
    assert solve(a, b) is None
    c = ExactMatrix(ZZ, 2, 1, ((0,), (3,)))
    assert solve(a, c) is None
    ring = Zmod(4)
    a4 = ExactMatrix(ring, 1, 1, ((2,),))
    assert solve(a4, ExactMatrix(ring, 1, 1, ((1,),))) is None
    assert solve(a4, ExactMatrix(ring, 1, 1, ((2,),))) is not None


def test_invert_round_trip():
    rng = random.Random(15)
    for ring in (ZZ, Zmod(6), GF(5), QQ, Feps(2, 2)):
        found = 0
        while found < 10:
            n = rng.randint(1, 4)
            a = rand_matrix(ring, n, n, rng, span=4)
            if not is_invertible(a):
                continue
            found += 1
            assert a.mul(invert(a)) == ExactMatrix.identity(ring, n)


def test_gf2_solve_invertibility_and_projection_exhaustively():
    """Every GF(2) matrix of every shape up to 3x3 against brute force:
    solve finds a solution exactly when some vector maps onto b, the matrix
    is invertible exactly when it maps GF(2)^n onto itself, and
    cokernel_projection has full row rank, kills a and has as many rows as
    the cokernel's dimension."""
    ring = GF(2)
    for rows, cols in product(range(4), repeat=2):
        sources = list(product((0, 1), repeat=cols))
        targets = list(product((0, 1), repeat=rows))
        for bits in product((0, 1), repeat=rows * cols):
            a = ExactMatrix(ring, rows, cols,
                            tuple(bits[i * cols:(i + 1) * cols] for i in range(rows)))
            image = {matvec(ring, a, x) for x in sources}
            for b in targets:
                bmat = ExactMatrix(ring, rows, 1, tuple((v,) for v in b))
                x = solve(a, bmat)
                assert (x is not None) == (b in image), (a, b)
                assert x is None or a.mul(x) == bmat
            assert is_invertible(a) == (rows == cols and len(image) == len(targets)), a
            pi = cokernel_projection(a)
            assert pi.cols == rows and pi.mul(a).is_zero()
            assert len(image) << pi.rows == len(targets)
            assert all(any(matvec(ring, pi.transpose(), w))
                       for w in product((0, 1), repeat=pi.rows) if any(w))


def test_constant_rank_distinguishes_projectives():
    from quivlat.errors import NotProjective
    # Z/2 over Z/6 is projective but has ranks 1 and 0 at the two primes
    pres = ModulePresentation.from_invariant_factors(Zmod(6), [2])
    assert constant_rank(pres) is None
    free = ModulePresentation.from_invariant_factors(Zmod(6), [0, 0])
    assert constant_rank(free) == 2
    # over a local ring torsion cannot be projective at all
    z4 = ModulePresentation.from_invariant_factors(Zmod(4), [2])
    with pytest.raises(NotProjective):
        constant_rank(z4)
    eps = ModulePresentation.from_invariant_factors(Feps(2, 2), [(0, 1)])
    with pytest.raises(NotProjective):
        constant_rank(eps)
    f = ModulePresentation.from_invariant_factors(GF(7), [0, 0, 0])
    assert constant_rank(f) == 3
    zero = ModulePresentation.from_invariant_factors(Zmod(6), [])
    assert constant_rank(zero) == 0


# ---------------------------------------------------------------------------
# ring homs and base change of presentations


def test_canonical_hom_is_a_ring_map():
    rng = random.Random(16)
    pairs = [(ZZ, GF(2)), (ZZ, Zmod(6)), (ZZ, QQ), (ZZ, Feps(3, 2)),
             (Zmod(4), Zmod(2)), (Zmod(6), Zmod(3)), (Feps(2, 2), GF(2)),
             (Feps(3, 3), Feps(3, 2))]
    for src, tgt in pairs:
        hom = canonical_hom(src, tgt)
        assert hom.apply(src.one) == tgt.one
        assert hom.apply(src.zero) == tgt.zero
        sample = [src.canon(rng.randint(-9, 9)) for _ in range(10)]
        for a in sample:
            for b in sample:
                assert hom.apply(src.add(a, b)) == tgt.add(hom.apply(a), hom.apply(b))
                assert hom.apply(src.mul(a, b)) == tgt.mul(hom.apply(a), hom.apply(b))


def test_presentation_base_change_examples():
    z2 = ModulePresentation.from_invariant_factors(ZZ, [2])
    assert presentation_base_change(z2, canonical_hom(ZZ, GF(2))).invariant_factors == (0,)
    assert presentation_base_change(z2, canonical_hom(ZZ, GF(3))).invariant_factors == ()
    assert presentation_base_change(z2, canonical_hom(ZZ, QQ)).invariant_factors == ()
    mixed = ModulePresentation.from_invariant_factors(ZZ, [0, 6])
    over4 = presentation_base_change(mixed, canonical_hom(ZZ, Zmod(4)))
    assert over4.invariant_factors == (2, 0)


def test_apply_hom_entrywise():
    hom = canonical_hom(ZZ, Zmod(4))
    a = ExactMatrix(ZZ, 2, 2, ((5, -1), (8, 3)))
    assert apply_hom(hom, a).entries == ((1, 3), (0, 3))


@pytest.mark.parametrize("make", [
    lambda: ExactMatrix.zeros(ZZ, 1.5, 2),
    lambda: ExactMatrix.zeros(ZZ, 2, True),
    lambda: ExactMatrix.zeros(ZZ, 0, -1),
    lambda: ExactMatrix.identity(ZZ, 2.0),
    lambda: ExactMatrix.identity(ZZ, False),
    lambda: ExactMatrix(ZZ, 1.0, 1, ((3,),)),
    lambda: ExactMatrix(ZZ, True, 1, ((3,),)),
    lambda: ExactMatrix(ZZ, 1, "1", ((3,),)),
], ids=["zeros-float", "zeros-bool", "zeros-negative", "identity-float",
        "identity-bool", "float-rows", "bool-rows", "string-cols"])
def test_matrix_shapes_must_be_exact_ints(make):
    with pytest.raises(DimensionMismatch):
        make()


I2, I3 = ExactMatrix.identity(ZZ, 2), ExactMatrix.identity(ZZ, 3)
# (call, error, message prefix) of refusals that no other test reaches
REFUSALS = {
    "size-Z": (lambda: ZZ.size, IncompatibleRing, "ring Z is not finite"),
    "elements-Q": (lambda: QQ.elements(), IncompatibleRing, "ring Q is not finite"),
    "canon-Feps-too-long": (lambda: Feps(2, 2).canon((1, 0, 1)), ParseError,
                            "coefficient list longer than truncation order"),
    "matrix-short-row": (lambda: ExactMatrix(ZZ, 1, 2, ((1,),)), DimensionMismatch,
                         "expected 2 columns, got 1"),
    "add-shape": (lambda: I2.add(I3), DimensionMismatch, "shape 2x2 vs 3x3"),
    "mul-inner": (lambda: I2.mul(I3), DimensionMismatch, "inner dimensions 2 vs 3"),
    "hstack-rows": (lambda: I2.hstack(I3), DimensionMismatch, "row counts 2 vs 3"),
    "vstack-cols": (lambda: I2.vstack(ExactMatrix.zeros(ZZ, 1, 3)), DimensionMismatch,
                    "column counts 2 vs 3"),
    "solve-rows": (lambda: solve(I2, I3), DimensionMismatch, "row counts 2 vs 3"),
    "invert-not-square": (lambda: invert(ExactMatrix.zeros(ZZ, 1, 2)), DimensionMismatch,
                          "only square matrices invert"),
    "howell_rows-ragged": (lambda: howell_rows(Zmod(4), [[1, 2], [1]]), DimensionMismatch,
                           "ragged rows"),
    "invert-singular-Z": (lambda: invert(ExactMatrix(ZZ, 1, 1, ((2,),))), IncompatibleRing,
                          "matrix is not invertible"),
}


@pytest.mark.parametrize("call, error, prefix", REFUSALS.values(), ids=REFUSALS)
def test_refusals_name_their_error(call, error, prefix):
    with pytest.raises(error, match="^" + re.escape(prefix)):
        call()


def test_block_diag_shape():
    a = ExactMatrix(ZZ, 1, 2, ((1, 2),))
    b = ExactMatrix(ZZ, 2, 1, ((3,), (4,)))
    c = block_diag(ZZ, [a, b])
    assert (c.rows, c.cols) == (3, 3)
    assert c.entries == ((1, 2, 0), (0, 0, 3), (0, 0, 4))


# ---------------------------------------------------------------------------
# property-based checks


@st.composite
def int_matrices(draw, max_dim=4, span=30):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    ents = tuple(tuple(draw(st.integers(-span, span)) for _ in range(cols))
                 for _ in range(rows))
    return ExactMatrix(ZZ, rows, cols, ents)


@given(int_matrices())
@settings(max_examples=80, deadline=None)
def test_property_smith_contract(a):
    check_normal_form_contract(a)


@given(int_matrices(max_dim=3, span=9), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_property_smith_commutes_with_reduction(a, m):
    ring = Zmod(m)
    hom = canonical_hom(ZZ, ring)
    direct = cokernel(apply_hom(hom, a))
    transported = presentation_base_change(cokernel(a), hom)
    assert direct.invariant_factors == transported.invariant_factors


@given(st.integers(2, 8), st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), max_size=4))
@settings(max_examples=60, deadline=None)
def test_property_howell_idempotent(m, rows):
    ring = Zmod(m)
    canon_rows = [tuple(ring.canon(v) for v in row) for row in rows]
    h = howell_rows(ring, canon_rows)
    assert howell_rows(ring, h) == h


@given(int_matrices(max_dim=4, span=9))
@settings(max_examples=60, deadline=None)
def test_property_kernel_membership(a):
    kb = kernel_basis(a)
    assert a.mul(kb).is_zero()


VALIDATED_RINGS = (ZZ, QQ, GF(2), GF(3), Zmod(4), Zmod(12), Feps(2, 2), Feps(3, 3))
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _canonical_int(ring, v):
    """The canonical element for the int v, written out per ring."""
    if ring.kind == "Z":
        return v
    if ring.kind == "Q":
        return Fraction(v)
    if ring.kind == "Feps":
        return (v % ring.p,) + (0,) * (ring.n - 1)
    return v % (ring.p if ring.kind == "F" else ring.m)


def _arrow_record(ring, rows, flat):
    """A record of the A2 representation whose one matrix has the given rows."""
    return {"ring": str(ring), "quiver": {"vertices": 2, "arrows": [[1, 2]]},
            "dims": [2, rows], "mats": [flat]}


@given(st.sampled_from(VALIDATED_RINGS),
       st.lists(st.lists(st.integers(-40, 40), min_size=2, max_size=2),
                min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_property_validating_constructors_canonicalise_ints(ring, rows):
    """The validating path still turns int input into canonical elements:
    Feps int -> tuple, Zmod and F reduced, Q int -> Fraction."""
    want = tuple(tuple(_canonical_int(ring, v) for v in row) for row in rows)
    record = _arrow_record(ring, len(rows), [v for row in rows for v in row])
    for mat in (ExactMatrix(ring, len(rows), 2, tuple(map(tuple, rows))),
                ExactMatrix.from_rows(ring, rows),
                Rep.from_json(record).mats[0]):
        assert mat.entries == want
        assert repr(mat.entries) == repr(want)   # equal types too


_NON_INT_ENTRIES = st.one_of(
    st.booleans(), st.floats(), st.none(),
    st.text(max_size=4).filter(lambda t: not _RATIONAL_TEXT.fullmatch(t)))


@given(st.sampled_from(VALIDATED_RINGS), _NON_INT_ENTRIES, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_property_validating_constructors_refuse_non_int_entries(ring, bad, pos):
    """bool, float, str and None entries raise ParseError on the validating path."""
    flat = [1, 2, 3, 4]
    flat[pos] = bad
    rows = (tuple(flat[:2]), tuple(flat[2:]))
    for make in (lambda: ExactMatrix(ring, 2, 2, rows),
                 lambda: ExactMatrix.from_rows(ring, rows),
                 lambda: Rep.from_json(_arrow_record(ring, 2, flat))):
        with pytest.raises(ParseError):
            make()
