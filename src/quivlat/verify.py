"""Randomized self-check suites behind the command line's verify verb.

Each suite runs `size` independent cases from a seeded generator and
reports pass/fail counts with the first counterexample, so failures are
data rather than exceptions.  All suites are deterministic for a fixed
seed and size.  Their names, SUITES, are held by the package namespace,
so that the command line offers them without loading this module;
_RUNNERS pairs them, in order, with the suites.
"""

from __future__ import annotations

import random

from . import SUITES
from .errors import ParseError, QuivlatError
from .homology import check_base_change, hom_ext, is_exceptional, rigid_hom_ext_ranks
from .mutation import ExcSequence, _walk, braid_act, orbit_search, standard_sequence
from .quiver import (
    Quiver,
    Rep,
    base_change,
    direct_sum_many,
    euler_form,
    tensor_free,
)
from .elimination import invert
from .rings import ExactMatrix, Feps, GF, QQ, RingSpec, ZZ, Zmod, canonical_hom
from .structure import decompose_rigid, exceptional_lattice, generic_dims, is_isomorphic_rigid

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
A4 = Quiver(4, ((1, 2), (2, 3), (3, 4)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))
LOOP = Quiver(1, ((1, 1),))
_PLANTED_BOUND = 6      # the orbit bound of theoremC's planted roots and their lattices
_CONJUGATE_LIMIT = 10   # the largest entry a conjugated theoremC input may have


def _entry_pool(ring: RingSpec):
    if ring.is_finite:
        return list(ring.elements())
    return [ring.canon(v) for v in (-2, -1, 0, 1, 2)]


def random_rep(ring: RingSpec, quiver: Quiver, dims, rng: random.Random) -> Rep:
    pool = _entry_pool(ring)
    dims = tuple(dims)
    mats = []
    for a in range(quiver.arrow_count):
        r, c = dims[quiver.head(a)], dims[quiver.tail(a)]
        mats.append(ExactMatrix(ring, r, c, tuple(
            tuple(rng.choice(pool) for _ in range(c)) for _ in range(r))))
    return Rep(ring, quiver, dims, tuple(mats))


def random_unimodular(n: int, rng: random.Random, shears: int = 4) -> ExactMatrix:
    """Product of integer shear operations; determinant is exactly 1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(shears * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return ExactMatrix(ZZ, n, n, tuple(tuple(r) for r in m))


def conjugate_rep(x: Rep, mats, inverses) -> Rep:
    """Change of basis at every vertex; the result is isomorphic to x."""
    q = x.quiver
    new = tuple(mats[q.head(a)].mul(x.mats[a]).mul(inverses[q.tail(a)])
                for a in range(q.arrow_count))
    return Rep(x.ring, q, x.dims, new)


def _report(name, seed, size, outcomes):
    """The report of a suite from its cases' outcomes: None for a passing
    case, a counterexample for a failing one, of which the first is kept."""
    passes, failures, counterexample = 0, 0, None
    for ce in outcomes:
        if ce is None:
            passes += 1
        else:
            failures += 1
            if counterexample is None:
                counterexample = ce
    return {"suite": name, "seed": seed, "size": size,
            "cases": passes + failures, "passes": passes,
            "failures": failures, "counterexample": counterexample}


def _suite_euler(seed, size):
    rng = random.Random(seed)
    quivers = (A2, A3, KRONECKER)
    rings = (GF(2), GF(3), GF(5))
    for k in range(size):
        q = quivers[k % len(quivers)]
        ring = rings[(k // len(quivers)) % len(rings)]
        dx = tuple(rng.randint(0, 4) for _ in range(q.vertex_count))
        dy = tuple(rng.randint(0, 4) for _ in range(q.vertex_count))
        x = random_rep(ring, q, dx, rng)
        y = random_rep(ring, q, dy, rng)
        he = hom_ext(x, y)
        if he.hom.free_rank - he.ext.free_rank == euler_form(q, dx, dy):
            yield None
        else:
            yield {"quiver": q.to_json(), "ring": str(ring),
                   "dimsX": list(dx), "dimsY": list(dy)}


def _suite_basechange(seed, size):
    rng = random.Random(seed)
    quivers = (A2, KRONECKER, LOOP)
    homs = [canonical_hom(ZZ, t) for t in (GF(2), GF(3), Zmod(4), QQ)]

    def run_case(x, y, hom):
        rep = check_base_change(x, y, hom)
        if rep["ok"]:
            return None
        return {"quiver": x.quiver.to_json(), "target": str(hom.target),
                "dimsX": list(x.dims), "dimsY": list(y.dims),
                "transported": [str(d) for d in rep["transported"].invariant_factors],
                "direct": [str(d) for d in rep["direct"].invariant_factors]}

    # pinned witness: loop-quiver pair with Hom = 0 and Ext = Z/2
    wx = Rep.from_matrix_rows(ZZ, LOOP, (1,), [[[0]]])
    wy = Rep.from_matrix_rows(ZZ, LOOP, (1,), [[[2]]])
    for target in (GF(2), GF(3)):
        yield run_case(wx, wy, canonical_hom(ZZ, target))
    for k in range(size):
        q = quivers[k % len(quivers)]
        dx = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
        dy = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
        x = random_rep(ZZ, q, dx, rng)
        y = random_rep(ZZ, q, dy, rng)
        yield run_case(x, y, homs[k % len(homs)])


def _iso_items(a: ExcSequence, b: ExcSequence) -> bool:
    if len(a) != len(b):
        return False
    for u, v in zip(a.items, b.items):
        if u.dims != v.dims or not is_isomorphic_rigid(u, v):
            return False
    return True


def _suite_braid(seed, size):
    rng = random.Random(seed)
    quivers = (A2, A3, A4)
    rings = (ZZ, Zmod(4), Feps(2, 2))
    for k in range(size):
        q = quivers[k % len(quivers)]
        ring = rings[k // len(quivers) % len(rings)]
        seq = standard_sequence(ring, q)
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(1, len(seq) - 1)
            seq = braid_act(seq, i, inverse=rng.choice((False, True)))
        checks = []
        i = rng.randint(1, len(seq) - 1)
        checks.append(("inverse", _iso_items(
            braid_act(braid_act(seq, i), i, inverse=True), seq)))
        checks.append(("inverse2", _iso_items(
            braid_act(braid_act(seq, i, inverse=True), i), seq)))
        if len(seq) >= 3:
            j = rng.randint(1, len(seq) - 2)
            lhs = braid_act(braid_act(braid_act(seq, j), j + 1), j)
            rhs = braid_act(braid_act(braid_act(seq, j + 1), j), j + 1)
            checks.append(("adjacent", _iso_items(lhs, rhs)))
        if len(seq) >= 4:
            lhs = braid_act(braid_act(seq, 1), 3)
            rhs = braid_act(braid_act(seq, 3), 1)
            checks.append(("commute", _iso_items(lhs, rhs)))
        bad = [name for name, ok in checks if not ok]
        if not bad:
            yield None
        else:
            yield {"quiver": q.to_json(), "ring": str(ring), "failed": bad,
                   "sequence": [list(d) for d in seq.dims_tuple()]}


def _roots_for(quiver: Quiver, bound: int = 8):
    return sorted(_walk(quiver, bound, None).full()[1])


def _suite_theorem_a(seed, size):
    rng = random.Random(seed)
    quivers = (A2, A3, KRONECKER)
    for k in range(size):
        q = quivers[k % len(quivers)]
        roots = _roots_for(q)
        alpha, beta = rng.choice(roots), rng.choice(roots)
        try:
            xa = exceptional_lattice(q, alpha, ZZ, bound=8)
            xb = exceptional_lattice(q, beta, ZZ, bound=8)
            ranks = rigid_hom_ext_ranks(xa, xb)
            gd = generic_dims(q, alpha, beta, bound=8)
            ok = (ranks == (gd.hom_rank, gd.ext_rank)
                  and gd.hom_rank - gd.ext_rank == euler_form(q, alpha, beta))
        except QuivlatError:
            ok = False
        if ok:
            yield None
        else:
            yield {"quiver": q.to_json(), "alpha": list(alpha), "beta": list(beta)}


def _suite_theorem_b(seed, size):
    rng = random.Random(seed)
    quivers = (A2, A3, KRONECKER)
    rings = (ZZ, Zmod(4), Zmod(6), GF(3), Feps(2, 2))
    for k in range(size):
        q = quivers[k % len(quivers)]
        roots = _roots_for(q)
        alpha = rng.choice(roots)
        ring = rings[k % len(rings)]
        try:
            first = exceptional_lattice(q, alpha, ring, bound=8)
            # second path: search again from a braid-shifted starting sequence
            start = standard_sequence(ZZ, q)
            for _ in range(rng.randint(1, 2)):
                start = braid_act(start, rng.randint(1, len(start) - 1),
                                  inverse=rng.choice((False, True)))
            second_z = orbit_search(start, alpha, bound=max(8, sum(alpha) + 4))
            ok = (is_exceptional(first) and second_z is not None)
            if ok:
                second = second_z if ring == ZZ else base_change(
                    second_z, canonical_hom(ZZ, ring))
                ok = is_isomorphic_rigid(first, second)
        except QuivlatError:
            ok = False
        if ok:
            yield None
        else:
            yield {"quiver": q.to_json(), "alpha": list(alpha), "ring": str(ring)}


def _orthogonal_multiset(q: Quiver, rng: random.Random):
    """Random ext-orthogonal roots with multiplicities, nonempty."""
    roots = _roots_for(q, _PLANTED_BOUND)
    rng.shuffle(roots)
    lattices = {}
    chosen = []
    for root in roots:
        if len(chosen) == 2:
            break
        lattices.setdefault(root, exceptional_lattice(q, root, ZZ, bound=_PLANTED_BOUND))
        ok = True
        for other in chosen:
            a, b = lattices[root], lattices[other]
            if not (hom_ext(a, b).ext.is_zero and hom_ext(b, a).ext.is_zero):
                ok = False
                break
        if ok:
            chosen.append(root)
    return [(root, rng.randint(1, 2), lattices[root]) for root in chosen]


def _bounded_conjugate(x: Rep, rng: random.Random) -> Rep:
    for shears in (3, 2, 1, 0):
        mats = [random_unimodular(d, rng, shears) for d in x.dims]
        invs = [invert(m) for m in mats]
        out = conjugate_rep(x, mats, invs)
        worst = max((abs(v) for m in out.mats for row in m.entries for v in row),
                    default=0)
        if worst <= _CONJUGATE_LIMIT:
            return out
    return x


def _suite_theorem_c(seed, size):
    rng = random.Random(seed)
    quivers = (A2, A3, KRONECKER)
    rings = (GF(3), Zmod(6), Feps(2, 2), QQ)
    for k in range(size):
        q = quivers[k % len(quivers)]
        planted = _orthogonal_multiset(q, rng)
        if not planted:
            continue
        x = direct_sum_many([tensor_free(lat, m) for _, m, lat in planted])
        x = _bounded_conjugate(x, rng)
        want = sorted((tuple(root), m) for root, m, _ in planted)
        ring = rings[k % len(rings)]
        try:
            results = [decompose_rigid(x),
                       decompose_rigid(base_change(x, canonical_hom(ZZ, ring)))]
            got = [sorted((tuple(r.dims), m) for r, m in d.summands)
                   for d in results]
            ok = all(g == want for g in got)
            ok = ok and all(d.certificate.is_isomorphism() for d in results)
        except QuivlatError:
            ok = False
        if ok:
            yield None
        else:
            yield {"quiver": q.to_json(), "ring": str(ring), "planted": [
                {"dims": list(r), "multiplicity": m} for r, m, _ in planted]}


_RUNNERS = dict(zip(SUITES, (_suite_euler, _suite_basechange, _suite_braid, _suite_theorem_a,
                             _suite_theorem_b, _suite_theorem_c), strict=True))


def run_suite(name: str, seed: int = 0, size: int = 20) -> dict:
    """Run one named suite.  A name not in SUITES, or a seed or size that
    is not an exact int (a bool, a float, None), raises ParseError before
    anything runs, so a suite stays deterministic."""
    if name not in SUITES:
        raise ParseError("unknown suite %r; choose from %s" % (
            name, ", ".join(SUITES)))
    if type(seed) is not int or type(size) is not int:
        raise ParseError("an int seed and size expected, got %r and %r" % (seed, size))
    return _report(name, seed, size, _RUNNERS[name](seed, size))
