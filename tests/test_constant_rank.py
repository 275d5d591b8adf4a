"""constant_rank over Z/m against q-adic valuations of the invariant factors.

rings.constant_rank reads the local parts of a module over Z/m off its base
changes along Z/m -> Z/q^k.  The reference here reads them off the
invariant factors d directly: at q^k, a factor with v_q(d) >= k (or d = 0)
is a free summand, one with v_q(d) = 0 is a unit and drops out, and any
other valuation is torsion, so the module is not projective.  Both must
agree on the rank, on None (projective of differing local ranks) and on
NotProjective, for every module R/(d_1) + ... + R/(d_j) below.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_constant_rank.py
"""

import itertools

from quivlat import rings
from quivlat.errors import NotProjective
from quivlat.homology import hom_ext
from quivlat.quiver import Quiver, Rep
from quivlat.rings import ModulePresentation, Zmod, _factorize, constant_rank

BIG = 65537   # a prime above the trial-division bound


def _valuation_rank(pres):
    """The local free ranks from valuations, as "not projective", None or
    the common rank."""
    ranks = []
    for q, k in _factorize(pres.ring.m):
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
                yield m, factors
    for m in (12, 30, 36):
        # R/(d) depends only on gcd(d, m), so three factors run over those
        gens = [d for d in range(m) if d == 0 or m % d == 0]
        for factors in itertools.combinations_with_replacement(gens, 3):
            yield m, factors
    for factors in ([0, 0, 1], [0, BIG ** 2], [0, BIG], [BIG, 1], [BIG, BIG]):
        yield BIG ** 2, factors


def test_constant_rank_matches_valuations():
    seen = set()
    for m, factors in _cases():
        pres = ModulePresentation.from_invariant_factors(Zmod(m), factors)
        want = _valuation_rank(pres)
        assert _constant_rank(pres) == want, (m, factors, pres.invariant_factors)
        seen.add(type(want))
    assert seen == {int, type(None), str}


def test_constant_rank_maps_only_the_invariant_factors():
    """Only the invariant factors are mapped: apply_hom is never called,
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


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
