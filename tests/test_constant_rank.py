"""constant_rank and has_nilpotent_kernel over Z/m against prime factors.

elimination.constant_rank reads the summands of a module over Z/m off gcds
with m, and RingHom.has_nilpotent_kernel tests prime divisibility by a
power; no prime of m is found in either.  The references here factor m by plain trial
division and read the answers off the primes:

* at each q^k exactly dividing m, a factor with v_q(d) >= k (or d = 0) is a
  free summand, one with v_q(d) = 0 is a unit and drops out, and any other
  valuation is torsion, so the module is not projective.  Both must agree
  on the rank, on None (projective of differing local ranks) and on
  NotProjective, for every module R/(d_1) + ... + R/(d_j) below, and on
  raw presentations whose factors are not canonical divisors of m;
* the kernel of an onto map of finite rings is nilpotent, and nonzero,
  exactly when the sizes differ and the radical of the source's size (the
  product of its primes) divides the target's size.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_constant_rank.py
"""

import itertools
import math
from functools import lru_cache

from quivlat import rings
from quivlat.elimination import ModulePresentation, constant_rank
from quivlat.errors import NotProjective
from quivlat.homology import hom_ext
from quivlat.quiver import Quiver, Rep
from quivlat.rings import Feps, GF, Zmod, canonical_hom

BIG = 65537   # a prime above 2^16


@lru_cache(maxsize=None)
def _primes(n):
    """The prime factorization of n >= 1 as ((q, k), ...), by trial division."""
    out, q = [], 2
    while q * q <= n:
        k = 0
        while n % q == 0:
            n //= q
            k += 1
        if k:
            out.append((q, k))
        q += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _valuation_rank(pres):
    """The local free ranks from valuations, as "not projective", None or
    the common rank."""
    ranks = []
    for q, k in _primes(pres.ring.m):
        rank = 0
        for d in pres.invariant_factors:
            if d == 0:
                rank += 1
                continue
            v = 0
            while d % q == 0:
                d //= q
                v += 1
            if v >= k:
                rank += 1
            elif v > 0:
                return "not projective"
        ranks.append(rank)
    return ranks[0] if all(r == ranks[0] for r in ranks) else None


def _constant_rank(pres):
    try:
        return constant_rank(pres)
    except NotProjective:
        return "not projective"


def _cases():
    for m in range(2, 37):
        for j in range(3):
            for factors in itertools.combinations_with_replacement(range(m), j):
                yield ModulePresentation.from_invariant_factors(Zmod(m), factors)
    for m in range(2, 121):
        # R/(d) depends only on gcd(d, m), so three factors run over those
        gens = [d for d in range(m) if d == 0 or m % d == 0]
        for factors in itertools.combinations_with_replacement(gens, 3):
            yield ModulePresentation.from_invariant_factors(Zmod(m), factors)
    for m in (12, 30, 36, 60):
        # raw factors, neither canonical divisors of m nor below m
        raw = (-m, -6, -1, 1, 5, 7, 8, m - 2, m, m + 3, 2 * m, 3 * m + 4)
        for j in range(4):
            for factors in itertools.combinations_with_replacement(raw, j):
                yield ModulePresentation(Zmod(m), j, factors)
    for factors in ([0, 0, 1], [0, BIG ** 2], [0, BIG], [BIG, 1], [BIG, BIG]):
        yield ModulePresentation.from_invariant_factors(Zmod(BIG ** 2), factors)
    for factors in ([0, 3], [3, BIG], [0, 3 * BIG], [BIG ** 2, 3]):
        yield ModulePresentation.from_invariant_factors(Zmod(3 * BIG ** 2), factors)


def test_constant_rank_matches_valuations():
    seen = set()
    for pres in _cases():
        want = _valuation_rank(pres)
        assert _constant_rank(pres) == want, (pres.ring, pres.invariant_factors)
        seen.add(type(want))
    assert seen == {int, type(None), str}


def test_constant_rank_maps_only_the_invariant_factors():
    """Only the invariant factors are read: apply_hom is never called,
    so a Hom module of rank 900 costs 900 factors and no 900 x 900 matrix."""
    def refuse(hom, mat):
        raise AssertionError("constant_rank transported a relation matrix")
    saved, rings.apply_hom = rings.apply_hom, refuse
    try:
        x = Rep(Zmod(30), Quiver(1, ()), (30,), ())
        assert constant_rank(hom_ext(x, x).hom) == 900
        for m, factors in ((12, (2, 0)), (30, (0, 0)), (30, (6, 0)), (36, (4, 9))):
            pres = ModulePresentation.from_invariant_factors(Zmod(m), factors)
            assert _constant_rank(pres) == _valuation_rank(pres), (m, factors)
    finally:
        rings.apply_hom = saved


def test_a_unit_factor_is_a_zero_summand_on_every_ring():
    """R/(u) = 0 for a unit u, so a raw presentation with a unit factor is
    free of rank 0 beside its free summands, on the rings with m = 0 as over
    Z/m, where the gcd with m already drops it."""
    for ring in (rings.ZZ, rings.QQ, GF(3), Feps(2, 2), Zmod(6)):
        assert constant_rank(ModulePresentation(ring, 1, (ring.one,))) == 0, ring
        assert constant_rank(ModulePresentation(ring, 2, (ring.one, ring.zero))) == 1, ring


def test_nilpotent_kernel_matches_radicals():
    homs = [(Zmod(m), Zmod(d)) for m in range(2, 200)
            for d in range(2, m + 1) if m % d == 0]
    for p in (2, 3, 5):
        for n in range(1, 5):
            homs.append((Feps(p, n), GF(p)))
            homs.extend((Feps(p, n), Feps(p, k)) for k in range(1, n + 1))
    seen = set()
    for source, target in homs:
        s, t = source.size, target.size
        want = s != t and t % math.prod(q for q, _ in _primes(s)) == 0
        assert canonical_hom(source, target).has_nilpotent_kernel == want, (source, target)
        seen.add(want)
    assert seen == {False, True}


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
