"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at scale and prints a single
verdict line so results can be read straight off the terminal.  All
arithmetic is exact, so every comparison below is tolerance zero.
"""

import random
import time

import pytest

import test_rings as ring_oracles
from test_summand_peel import generic_ext

from quivlat import (
    ExactMatrix,
    Feps,
    GF,
    NotSchurRoot,
    QQ,
    Rep,
    ZZ,
    Zmod,
    base_change,
    braid_act,
    canonical_hom,
    check_base_change,
    cokernel_data,
    constant_rank,
    decompose_rigid,
    direct_sum_many,
    euler_form,
    exceptional_lattice,
    generic_dims,
    hom_ext,
    is_exceptional,
    is_exceptional_pair,
    is_isomorphic_rigid,
    is_real_schur_root,
    is_rigid,
    left_mutate,
    lift_rigid,
    orbit_search,
    right_mutate,
    rigid_hom_ext_ranks,
    standard_sequence,
    tensor_free,
)
from quivlat.verify import (
    A2,
    A3,
    KRONECKER,
    LOOP,
    _bounded_conjugate,
    _orthogonal_multiset,
    random_rep,
)


def _checked(capsys, num, body):
    ok, detail = True, ""
    try:
        body()
    except Exception as exc:
        ok = False
        detail = "%s: %s" % (type(exc).__name__, exc)
    with capsys.disabled():
        print("\nACCEPTANCE %d: %s" % (num, "PASS" if ok else "FAIL " + detail))
    if not ok:
        pytest.fail(detail)


def _real_roots(quiver, max_total, bound):
    """All real Schur roots with total dimension at most max_total."""
    roots = []

    def walk(prefix, remaining):
        if len(prefix) == quiver.vertex_count:
            root = tuple(prefix)
            if any(root) and is_real_schur_root(quiver, root, bound=bound):
                roots.append(root)
            return
        for d in range(remaining + 1):
            walk(prefix + [d], remaining - d)

    walk([], max_total)
    return roots


def test_acceptance_1_euler_form_matches_hom_minus_ext(capsys):
    def body():
        rng = random.Random(10101)
        start = time.monotonic()
        pairs = 0
        for ring in (GF(2), GF(3), GF(5)):
            for quiver in (A2, A3, KRONECKER):
                for _ in range(24):
                    dx = tuple(rng.randint(0, 4)
                               for _ in range(quiver.vertex_count))
                    dy = tuple(rng.randint(0, 4)
                               for _ in range(quiver.vertex_count))
                    x = random_rep(ring, quiver, dx, rng)
                    y = random_rep(ring, quiver, dy, rng)
                    he = hom_ext(x, y)
                    lhs = he.hom.free_rank - he.ext.free_rank
                    assert lhs == euler_form(quiver, dx, dy), (ring, dx, dy)
                    pairs += 1
        elapsed = time.monotonic() - start
        assert pairs >= 200, pairs
        assert elapsed < 10.0, elapsed

    _checked(capsys, 1, body)


def test_acceptance_2_ext_commutes_with_base_change(capsys):
    def body():
        rng = random.Random(20202)
        homs = [canonical_hom(ZZ, t) for t in (GF(2), GF(3), Zmod(4), QQ)]
        quivers = (A2, A3, KRONECKER)
        for k in range(100):
            quiver = quivers[k % len(quivers)]
            dx = tuple(rng.randint(0, 3) for _ in range(quiver.vertex_count))
            dy = tuple(rng.randint(0, 3) for _ in range(quiver.vertex_count))
            x = random_rep(ZZ, quiver, dx, rng)
            y = random_rep(ZZ, quiver, dy, rng)
            for hom in homs:
                report = check_base_change(x, y, hom)
                assert report["ok"], (quiver, dx, dy, hom.target)

        # multiplication by 2 on the loop: hom vanishes but ext is Z/2,
        # which survives reduction mod 2 and dies mod 3
        x = Rep.from_matrix_rows(ZZ, LOOP, (1,), [[[0]]])
        y = Rep.from_matrix_rows(ZZ, LOOP, (1,), [[[2]]])
        he = hom_ext(x, y)
        assert he.hom.invariant_factors == ()
        assert he.ext.invariant_factors == (2,)
        for p, expected in ((2, (0,)), (3, ())):
            report = check_base_change(x, y, canonical_hom(ZZ, GF(p)))
            assert report["ok"]
            assert tuple(report["direct"].invariant_factors) == expected

    _checked(capsys, 2, body)


def test_acceptance_3_rigid_pair_ranks_match_generic_counts(capsys):
    def body():
        kronecker_case = None
        for quiver in (A2, A3, KRONECKER):
            roots = _real_roots(quiver, 11, bound=12)
            lattices = {root: exceptional_lattice(quiver, root, ZZ, bound=12)
                        for root in roots}
            table = {}
            for a in roots:
                for b in roots:
                    if sum(a) + sum(b) > 12:
                        continue
                    ranks = rigid_hom_ext_ranks(lattices[a], lattices[b])
                    expected = generic_dims(quiver, a, b, bound=12)
                    assert ranks == (expected.hom_rank, expected.ext_rank), (a, b)
                    # Schofield's recursion, independent of every lattice
                    assert ranks[1] == generic_ext(quiver, a, b, table), (a, b)
                    if quiver is KRONECKER and a == (0, 1) and b == (1, 2):
                        kronecker_case = ranks
        assert kronecker_case == (2, 0)

    _checked(capsys, 3, body)


def test_acceptance_4_exceptional_lattices_exist_and_are_unique(capsys):
    def body():
        rings = (ZZ, GF(3), Zmod(4), Zmod(6), Feps(2, 2))
        for quiver in (A2, A3, KRONECKER):
            for root in _real_roots(quiver, 8, bound=10):
                built = {}
                for ring in rings:
                    x = exceptional_lattice(quiver, root, ring, bound=10)
                    assert x.dims == root and is_exceptional(x)
                    built[ring] = x
                # independent second path: walk the orbit again from a
                # braid-shifted starting sequence, then compare per ring
                shifted = braid_act(standard_sequence(ZZ, quiver), 1)
                other = orbit_search(shifted, root, bound=10)
                assert other is not None, (quiver, root)
                for ring in rings:
                    cand = other if ring == ZZ else base_change(
                        other, canonical_hom(ZZ, ring))
                    assert is_isomorphic_rigid(built[ring], cand), (root, ring)
        for quiver, root in ((KRONECKER, (1, 1)), (A2, (2, 1))):
            with pytest.raises(NotSchurRoot):
                exceptional_lattice(quiver, root, ZZ, bound=10)

    _checked(capsys, 4, body)


DECOMPOSITION_RINGS = (ZZ, QQ, GF(3), Zmod(4), Zmod(6), Zmod(12), Feps(2, 2), Feps(3, 2))


def test_acceptance_5_decomposition_recovers_planted_summands(capsys):
    def body():
        for quiver in (A2, A3, KRONECKER):
            rng = random.Random(50505 + 7 * quiver.arrow_count)
            start = time.monotonic()
            for _ in range(20):
                planted = _orthogonal_multiset(quiver, rng)
                x = direct_sum_many(
                    [tensor_free(lat, mult) for _, mult, lat in planted])
                x = _bounded_conjugate(x, rng)
                worst = max((abs(v) for m in x.mats
                             for row in m.entries for v in row), default=0)
                assert worst <= 10
                want = sorted((tuple(root), mult) for root, mult, _ in planted)
                for ring in DECOMPOSITION_RINGS:
                    y = x if ring == ZZ else base_change(x, canonical_hom(ZZ, ring))
                    dec = decompose_rigid(y)
                    got = sorted((tuple(r.dims), m) for r, m in dec.summands)
                    assert got == want, (quiver, ring, want, got)
                    assert dec.certificate.is_isomorphism()
            elapsed = time.monotonic() - start
            assert elapsed < 60.0, (quiver, elapsed)

    _checked(capsys, 5, body)


def _sequence_orbit(quiver, member_bound, ring):
    """Braid orbit of the standard sequence, pruned by member size."""
    start = standard_sequence(ring, quiver)

    def key(seq):
        return tuple(r.dims for r in seq.items)

    seen = {key(start)}
    queue, out = [start], [start]
    while queue:
        seq = queue.pop()
        for i in range(1, len(seq.items)):
            for inverse in (False, True):
                nxt = braid_act(seq, i, inverse=inverse)
                if any(r.total_dim > member_bound for r in nxt.items):
                    continue
                k = key(nxt)
                if k not in seen:
                    seen.add(k)
                    queue.append(nxt)
                    out.append(nxt)
    return out


def test_acceptance_6_mutation_laws_hold_on_braid_orbits(capsys):
    def body():
        kinds = {"Unchanged", "UniversalExtension", "KernelOfUniversalMap",
                 "CokernelOfUniversalMap"}
        for ring in (ZZ, Zmod(4), Feps(2, 2)):
            for quiver in (A2, A3, KRONECKER):
                pairs = {}
                for seq in _sequence_orbit(quiver, 20, ring):
                    for x, y in zip(seq.items, seq.items[1:]):
                        pairs.setdefault((x.dims, y.dims), (x, y))
                assert pairs
                for x, y in pairs.values():
                    assert is_exceptional_pair(x, y)
                    left = left_mutate(x, y)
                    right = right_mutate(x, y)
                    assert left.kind in kinds and right.kind in kinds
                    assert is_isomorphic_rigid(right_mutate(left.rep, x).rep, y)
                    assert is_isomorphic_rigid(left_mutate(y, right.rep).rep, x)

            # sigma1 sigma2 sigma1 agrees with sigma2 sigma1 sigma2 itemwise
            checked = _sequence_orbit(A3, 20, ring)
            if ring == ZZ:
                checked.append(standard_sequence(GF(2), A3))
            for seq in checked:
                one = braid_act(braid_act(braid_act(seq, 1), 2), 1)
                two = braid_act(braid_act(braid_act(seq, 2), 1), 2)
                for u, v in zip(one.items, two.items):
                    assert u.dims == v.dims and is_isomorphic_rigid(u, v)

    _checked(capsys, 6, body)


def _kronecker_rep(ring, n1, n2, bits):
    cells = n1 * n2
    rows = []
    for a in range(2):
        base = a * cells
        rows.append([[(bits >> (base + i * n1 + j)) & 1 for j in range(n1)]
                     for i in range(n2)])
    return Rep.from_matrix_rows(ring, KRONECKER, (n1, n2), rows)


def _kronecker_rigid_bits(n1, n2):
    """Bit patterns of every rigid (n1, n2) pair of arrow matrices over F2.

    Rigidity means the self-commutator (f1, f2) -> (M f1 - f2 M, one block
    per arrow) is onto, which over F2 is a bitmask rank computation; the
    result is cross-validated against is_rigid in the test body before the
    big class is trusted.
    """
    cells = n1 * n2
    target = 2 * cells
    hits = []
    for bits in range(2 ** (2 * cells)):
        mats = []
        for a in range(2):
            base = a * cells
            mats.append([(bits >> (base + i * n1)) & ((1 << n1) - 1)
                         for i in range(n2)])
        rows = []
        # f1 basis e_rc: (M e_rc)[i, j] = M[i, r] when j == c
        for r in range(n1):
            for c in range(n1):
                mask = 0
                for a, m in enumerate(mats):
                    base = a * cells
                    for i in range(n2):
                        if m[i] >> r & 1:
                            mask |= 1 << (base + i * n1 + c)
                rows.append(mask)
        # f2 basis e_rc: (e_rc M)[i, j] = M[c, j] when i == r
        for r in range(n2):
            for c in range(n2):
                mask = 0
                for a, m in enumerate(mats):
                    mask |= m[c] << (a * cells + r * n1)
                rows.append(mask)
        rank = 0
        for col in range(target):
            bit = 1 << col
            piv = next((i for i in range(rank, len(rows)) if rows[i] & bit), -1)
            if piv < 0:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            lead = rows[rank]
            for i in range(rank + 1, len(rows)):
                if rows[i] & bit:
                    rows[i] ^= lead
            rank += 1
        if rank == target:
            hits.append(bits)
    return hits


def test_acceptance_7_rigid_mod2_reps_lift(capsys):
    def body():
        f2, z2 = GF(2), Zmod(2)
        drop_eps = canonical_hom(Feps(2, 2), f2)
        drop_z4 = canonical_hom(Zmod(4), z2)
        counts = {A2: 0, KRONECKER: 0}

        def check_lifts(x):
            counts[x.quiver] += 1
            for hom, reread in ((drop_eps, None), (drop_z4, z2)):
                base = x if reread is None else Rep.from_matrix_rows(
                    reread, x.quiver, x.dims,
                    [[list(row) for row in m.entries] for m in x.mats])
                lift = lift_rigid(base, hom)
                assert is_rigid(lift)
                for up, down in zip(lift.mats, base.mats):
                    for i in range(up.rows):
                        for j in range(up.cols):
                            assert hom.apply(up.entries[i][j]) == \
                                down.entries[i][j]

        for n1 in range(4):
            for n2 in range(4):
                for bits in range(2 ** (n1 * n2)):
                    rows = [[[(bits >> (i * n1 + j)) & 1 for j in range(n1)]
                             for i in range(n2)]]
                    x = Rep.from_matrix_rows(f2, A2, (n1, n2), rows)
                    if is_rigid(x):
                        check_lifts(x)

        rng = random.Random(70707)
        for n1 in range(4):
            for n2 in range(4):
                hits = set(_kronecker_rigid_bits(n1, n2))
                if n1 * n2 <= 6:
                    slow = {bits for bits in range(2 ** (2 * n1 * n2))
                            if is_rigid(_kronecker_rep(f2, n1, n2, bits))}
                    assert hits == slow, (n1, n2)
                else:
                    for bits in rng.sample(range(2 ** (2 * n1 * n2)), 500):
                        agree = (bits in hits) == is_rigid(
                            _kronecker_rep(f2, n1, n2, bits))
                        assert agree, (n1, n2, bits)
                for bits in sorted(hits):
                    check_lifts(_kronecker_rep(f2, n1, n2, bits))

        # orbit-stabilizer counts: full-rank matrices for the single arrow,
        # 7 + 1 + 2*3 + 6 + 2*7 + 2*42 + 168 = 286; for the double arrow
        # 7 one-sided classes + 2*6 + 2*42 + 2*1008 = 2119
        assert counts[A2] == 286, counts
        assert counts[KRONECKER] == 2119, counts

    _checked(capsys, 7, body)


def test_acceptance_8_normal_forms_match_oracles(capsys):
    def body():
        rng = random.Random(80808)
        checked = 0
        for ring in (ZZ, Zmod(4), Zmod(6), Feps(2, 2)):
            for _ in range(125):
                a = ring_oracles.rand_matrix(
                    ring, rng.randint(1, 6), rng.randint(1, 6), rng, span=20)
                ring_oracles.check_normal_form_contract(a)
                checked += 1
        assert checked >= 500, checked

        for m in range(2, 9):
            ring = Zmod(m)
            for _ in range(10):
                a = ring_oracles.rand_matrix(
                    ring, rng.randint(1, 3), rng.randint(1, 3), rng, span=20)
                pres, _ = cokernel_data(a)
                got, order = ring_oracles.quotient_kill_counts(m, a)
                predicted = ring_oracles.predicted_kill_counts(
                    m, pres.invariant_factors)
                assert predicted == got, (m, a.entries)
                assert order == ring_oracles.module_size(
                    ring, pres.invariant_factors)

        ring = Zmod(6)
        twisted, _ = cokernel_data(ExactMatrix(ring, 1, 1, ((2,),)))
        free, _ = cokernel_data(ExactMatrix(ring, 1, 1, ((0,),)))
        assert constant_rank(twisted) is None
        assert constant_rank(free) == 1

    _checked(capsys, 8, body)
