"""Ring kernel soundness: normal forms, solvers, and module presentations.

The oracles here are independent of the elimination code: brute-force
enumeration of finite modules, sympy's Smith form over the integers, and
direct checks of the defining equations of each output.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from quivlat.rings import (
    ExactMatrix,
    Feps,
    GF,
    ModulePresentation,
    QQ,
    RingSpec,
    ZZ,
    Zmod,
    apply_hom,
    block_diag,
    canonical_hom,
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
                with pytest.raises(Exception):
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


PSI_12 = 318665857834031151167461     # least strong pseudoprime to bases 2..37
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


def test_factorize_refuses_large_semiprimes_quickly():
    import signal
    from quivlat.errors import NotComputable

    def hung(signum, frame):
        raise AssertionError("factorization did not stop")

    p, big = _semiprime_above_proof_bound()
    below_proof_bound = 100000007 * 100000037
    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for m in (big, below_proof_bound):
            free = ModulePresentation.from_invariant_factors(Zmod(m), [0])
            with pytest.raises(NotComputable, match="%d" % m):
                constant_rank(free)
        with pytest.raises(NotComputable, match="%d" % big):
            canonical_hom(Zmod(big), Zmod(p)).has_nilpotent_kernel
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_factorize_small_and_provably_prime_cofactors():
    from quivlat.rings import _factorize
    assert _factorize(4) == [(2, 2)]
    assert _factorize(6) == [(2, 1), (3, 1)]
    assert _factorize(8) == [(2, 3)]
    assert _factorize(9) == [(3, 2)]
    assert _factorize(12) == [(2, 2), (3, 1)]
    assert _factorize(65521 * 65537) == [(65521, 1), (65537, 1)]
    assert _factorize(3 * (2 ** 61 - 1)) == [(3, 1), (2 ** 61 - 1, 1)]
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
            res = normal_form(a)
            assert res.kind == "ReducedEchelon"
            assert res.left.mul(a) == res.nf
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
    for ring in CHAIN_RINGS:
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
            res = normal_form(pi)
            diag = [res.nf.entries[i][i] for i in range(min(pi.rows, pi.cols))]
            assert sum(1 for d in diag if ring.is_unit(d)) == pi.rows
        assert seen_none and seen_proj


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
    for ring in (ZZ, Zmod(6), GF(5), Feps(2, 2)):
        found = 0
        while found < 10:
            n = rng.randint(1, 4)
            a = rand_matrix(ring, n, n, rng, span=4)
            if not is_invertible(a):
                continue
            found += 1
            assert a.mul(invert(a)) == ExactMatrix.identity(ring, n)


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
