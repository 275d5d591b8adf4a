"""Exceptionality and orthogonality as invertible square matrices, against
the Hom/Ext definitions they replaced.

homology.is_exceptional(x) asks whether the self-differential of x, with
its first column removed, is invertible; homology._orthogonal(y, x) whether
the differential D(y, x) is.  The references read hom_ext: x is
exceptional when Ext(x, x) = 0 and End(x) is free of rank one, generated by
a unit multiple of the identity; y is orthogonal to x when Hom(y, x) and
Ext(y, x) both vanish.  Over F_p[e]/(e^n) elimination.is_invertible decides on
the residue field F_p; its reference is the unit test on every diagonal
entry of the diagonalised matrix.  All nine rings of
test_homology.test_is_exceptional_matches_solve_rule are covered.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_exceptional_criterion.py
"""

import random

from quivlat.elimination import (
    _diagonal_sheet,
    _nonzeros,
    is_invertible,
)
from quivlat.homology import _orthogonal, _unflatten_vertex, hom_ext, is_exceptional
from quivlat.mutation import braid_act, standard_sequence
from quivlat.quiver import Quiver, Rep, base_change
from quivlat.rings import (
    ExactMatrix,
    Feps,
    GF,
    QQ,
    ZZ,
    Zmod,
    canonical_hom,
)
from quivlat.structure import exceptional_lattice
from quivlat.verify import random_rep

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
K2 = Quiver(2, ((1, 2), (1, 2)))
RINGS = (ZZ, QQ, GF(2), GF(3), Zmod(4), Zmod(6), Zmod(12), Feps(2, 2), Feps(3, 3))
# real Schur roots with exceptional_lattice witnesses: Kronecker up to (5, 6)
# and its mirror (6, 5), and every positive root of A3
ROOTS = tuple((K2, (n, n + 1)) for n in range(6)) + tuple(
    (K2, (n + 1, n)) for n in range(6)) + tuple(
    (A3, d) for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)))


def _exceptional_by_hom_ext(x):
    """Ext(x, x) = 0 and End(x) = R * id, read off hom_ext(x, x)."""
    he = hom_ext(x, x)
    if not he.ext.is_zero or not (he.hom.is_free and he.hom.free_rank == 1):
        return False
    ring = x.ring
    gen = _unflatten_vertex(x, x, he._hom_vecs[0])
    # r * gen = id forces r * u = 1 for a diagonal entry u of gen
    u = next(m.entries[0][0] for m in gen if m.rows)
    return ring.is_unit(u) and all(
        m == ExactMatrix.identity(ring, m.rows).scale(u) for m in gen)


def _orthogonal_by_hom_ext(y, x):
    he = hom_ext(y, x)
    return he.hom.is_zero and he.ext.is_zero


def _perturbed(x, rng):
    """x with one entry of one arrow matrix raised by one."""
    a = rng.choice([k for k, m in enumerate(x.mats) if m.rows and m.cols])
    m = x.mats[a]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    ring = x.ring
    rows = [list(row) for row in m.entries]
    rows[r][c] = ring.add(rows[r][c], ring.one)
    mats = x.mats[:a] + (ExactMatrix(ring, m.rows, m.cols, rows),) + x.mats[a + 1:]
    return Rep(ring, x.quiver, x.dims, mats)


def test_is_exceptional_matches_hom_ext_on_random_reps():
    for ring in RINGS:
        rng = random.Random("random:%s" % ring)
        seen = set()
        for _ in range(40):
            q = rng.choice((A2, A3, K2))
            dims = tuple(rng.randint(0, 2) for _ in range(q.vertex_count))
            x = random_rep(ring, q, dims, rng)
            want = _exceptional_by_hom_ext(x)
            assert is_exceptional(x) == want, (str(ring), x)
            seen.add(want)
        assert seen == {False, True}, str(ring)


def test_is_exceptional_matches_hom_ext_on_lattices_and_perturbations():
    # a perturbed witness stays exceptional over Q, not always elsewhere
    seen = []
    for ring in RINGS:
        rng = random.Random("lattice:%s" % ring)
        for q, alpha in ROOTS:
            x = exceptional_lattice(q, alpha, ring)
            assert is_exceptional(x) and _exceptional_by_hom_ext(x), (str(ring), alpha)
            for _ in range(3 if sum(alpha) > 1 else 0):
                y = _perturbed(x, rng)
                want = _exceptional_by_hom_ext(y)
                assert is_exceptional(y) == want, (str(ring), alpha, y)
                seen.append(want)
    assert set(seen) == {False, True}


def test_orthogonal_matches_hom_ext_on_random_pairs():
    for ring in RINGS:
        rng = random.Random("pairs:%s" % ring)
        seen = set()
        for _ in range(40):
            q = rng.choice((A2, A3, K2))
            y, x = (random_rep(ring, q, tuple(rng.randint(0, 2) for _ in range(q.vertex_count)),
                               rng) for _ in range(2))
            want = _orthogonal_by_hom_ext(y, x)
            assert _orthogonal(y, x) == want, (str(ring), y, x)
            seen.add(want)
        assert seen == {False, True}, str(ring)


def _orbit_sequences(quiver, bound):
    """Every sequence of the braid orbit over Z from the standard one whose
    members all have total dimension at most bound."""
    start = standard_sequence(ZZ, quiver)
    seen = {start.dims_tuple()}
    out = [start]
    for seq in out:
        for i in range(1, len(seq)):
            for inverse in (False, True):
                nxt = braid_act(seq, i, inverse=inverse)
                key = nxt.dims_tuple()
                if key not in seen and all(r.total_dim <= bound for r in nxt.items):
                    seen.add(key)
                    out.append(nxt)
    return out


def test_orthogonal_matches_hom_ext_on_orbit_pairs():
    sequences = _orbit_sequences(K2, 11) + _orbit_sequences(A3, 4)
    for ring in RINGS:
        to_ring = canonical_hom(ZZ, ring)
        for seq in sequences:
            items = [base_change(r, to_ring) for r in seq.items]
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    assert _orthogonal(items[j], items[i]), (str(ring), seq, i, j)
                    assert _orthogonal_by_hom_ext(items[j], items[i])
                    # forward pairs: Hom or Ext may be nonzero
                    assert (_orthogonal(items[i], items[j])
                            == _orthogonal_by_hom_ext(items[i], items[j]))


def _invertible_by_diagonal(mat):
    ws = _diagonal_sheet(mat.ring, _nonzeros(mat.entries, mat.ring), mat.cols)
    return all(mat.ring.is_unit(d) for d in ws.diagonal(mat.rows))


def test_is_invertible_over_feps_matches_the_diagonal():
    for ring in (Feps(2, 2), Feps(3, 3)):
        rng = random.Random("feps:%s" % ring)
        one, e = ring.one, ring.canon([0, 1])
        # determinants e^k (nonzero nilpotent for k < n, zero after),
        # e - e^2, e, and a unit
        fixed = [ExactMatrix.identity(ring, k).scale(e) for k in (1, 2, 3)] + [
                 ExactMatrix(ring, 2, 2, ((one, e), (e, e))),
                 ExactMatrix(ring, 2, 2, ((one, 0), (0, e))),
                 ExactMatrix(ring, 2, 2, ((e, one), (one, 0))),
                 ExactMatrix(ring, 0, 0, ())]
        seen = set()
        for mat in fixed + [
                ExactMatrix(ring, n, n, tuple(
                    tuple(ring.canon([rng.randrange(ring.p) for _ in range(ring.n)])
                          for _ in range(n)) for _ in range(n)))
                for n in (1, 2, 3, 4) for _ in range(25)]:
            want = _invertible_by_diagonal(mat)
            assert is_invertible(mat) == want, (str(ring), mat)
            seen.add(want)
        assert not any(is_invertible(m) for m in fixed[:3])
        assert seen == {False, True}, str(ring)


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
