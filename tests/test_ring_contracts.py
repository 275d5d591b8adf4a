"""The element contracts of every ring class, and the ring-hom truth table.

(a) gcdex, solve_scalar and unit_to_canonical satisfy their contracts,
    exhaustively on the finite rings and on samples over Z and Q.
(b) F:p and Zmod:p agree on every element method except gcdex, which over
    a field may pick any valid transform.
(c) Ring specs round-trip through str and parse, and a kind refuses
    parameters it does not take.
(d) The canonical homs: their values, which are onto with a nilpotent
    kernel, which are bijective and which have a section.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_ring_contracts.py
"""

import random
from fractions import Fraction

from quivlat.errors import IncompatibleBase, NotComputable, ParseError
from quivlat.rings import Feps, GF, QQ, RingSpec, ZZ, Zmod, canonical_hom, identity_hom

FINITE = (GF(2), GF(3), Zmod(4), Zmod(6), Zmod(12), Feps(2, 2), Feps(3, 2))
RINGS = (ZZ, QQ) + FINITE


def _raises(exc, f, *args, **kwargs):
    try:
        f(*args, **kwargs)
    except exc:
        return True
    return False


def _sample(ring):
    """Every element of a finite ring; small, signed and large values over Z and Q."""
    if ring.is_finite:
        return list(ring.elements())
    rng = random.Random("contracts:%s" % ring)
    ints = [0, 1, -1, 2, -2, 3, 6, -6, 12, 2 ** 70, -(3 ** 45)]
    ints += [rng.randint(-60, 60) for _ in range(10)]
    if ring == ZZ:
        return ints
    return [Fraction(v) for v in ints[:8]] + [
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(10)]


# ---------------------------------------------------------------------------
# (a) element contracts


def test_gcdex_contract():
    for ring in RINGS:
        add, mul = ring.add, ring.mul
        elems = _sample(ring)
        for a in elems:
            for b in elems:
                g, s, t, u, v = ring.gcdex(a, b)
                what = "%s gcdex(%r, %r) = %r" % (ring, a, b, (g, s, t, u, v))
                assert add(mul(s, a), mul(t, b)) == g, what
                assert ring.is_zero(add(mul(u, a), mul(v, b))), what
                assert ring.is_unit(ring.sub(mul(s, v), mul(t, u))), what
                assert ring.divides(g, a) and ring.divides(g, b), what


def test_solve_scalar_contract():
    for ring in RINGS:
        elems = _sample(ring)
        for a in elems:
            for c in elems:
                x = ring.solve_scalar(a, c)
                what = "%s solve_scalar(%r, %r) = %r" % (ring, a, c, x)
                if x is not None:
                    assert ring.mul(a, x) == c, what
                    assert ring.canon(x) == x, what
                elif ring.is_finite:
                    assert all(ring.mul(a, y) != c for y in elems), what
                elif ring == ZZ:
                    assert a == 0 or c % a != 0, what
                else:
                    assert a == 0 and c != 0, what
                assert ring.divides(a, c) == (x is not None), what


def test_unit_to_canonical_contract():
    for ring in RINGS:
        for x in _sample(ring):
            u = ring.unit_to_canonical(x)
            gen = ring.canonical_gen(x)
            what = "%s unit_to_canonical(%r) = %r" % (ring, x, u)
            assert ring.is_unit(u), what
            assert ring.mul(u, x) == gen, what
            assert ring.canonical_gen(gen) == gen, what
            assert ring.is_zero(ring.mul(ring.ann_gen(x), x)), what


def test_units_invert_and_elements_are_canonical():
    for ring in RINGS:
        for x in _sample(ring):
            assert ring.canon(x) == x and type(ring.canon(x)) is type(x)
            if ring.is_unit(x):
                assert ring.mul(ring.inv(x), x) == ring.one
                assert ring.pivot_size(x) == 1
            elif not ring.is_zero(x):
                assert ring.pivot_size(x) != 1


# ---------------------------------------------------------------------------
# (b) F:p is Z/p


def test_prime_field_agrees_with_integers_mod_p():
    for p in (2, 3, 5):
        field, mod = GF(p), Zmod(p)
        assert (field.zero, field.one, field.size) == (mod.zero, mod.one, mod.size)
        elems = list(field.elements())
        assert elems == list(mod.elements())
        for raw in range(-2 * p, 2 * p + 1):
            assert field.canon(raw) == mod.canon(raw)
            assert field.entry_from_json(raw) == mod.entry_from_json(raw)
        for x in elems:
            for name in ("neg", "is_zero", "is_unit", "canonical_gen", "ann_gen",
                         "unit_to_canonical", "entry_to_json"):
                assert getattr(field, name)(x) == getattr(mod, name)(x), (name, p, x)
            if x:   # pivoting weighs nonzero entries only
                assert field.inv(x) == mod.inv(x)
                assert field.pivot_size(x) == mod.pivot_size(x)
            for y in elems:
                for name in ("add", "sub", "mul", "solve_scalar", "divides"):
                    assert getattr(field, name)(x, y) == getattr(mod, name)(x, y), (
                        name, p, x, y)
                assert field.row_axpy([x, y], [y, x], x) == mod.row_axpy([x, y], [y, x], x)


# ---------------------------------------------------------------------------
# (c) specs


def test_specs_round_trip():
    for ring in RINGS + (GF(97), Zmod(360), Feps(5, 4), Feps(3, 1)):
        again = RingSpec.parse(str(ring))
        assert again == ring and hash(again) == hash(ring)
        assert repr(again) == repr(ring)
        assert isinstance(ring, RingSpec)
    assert repr(GF(3)) == "RingSpec(kind='F', p=3, m=0, n=0)"
    assert str(Feps(3, 2)) == "Feps:3:2" and str(Zmod(6)) == "Zmod:6"
    assert GF(3) != Zmod(3) and ZZ != QQ and GF(2) != Feps(2, 1)


def test_stray_parameters_are_refused():
    for kind, params in (("Z", {"p": 2}), ("Q", {"n": 1}), ("F", {"p": 3, "m": 5}),
                         ("F", {"p": 3, "n": 2}), ("Zmod", {"m": 4, "p": 2}),
                         ("Zmod", {"m": 4, "n": 1}), ("Feps", {"p": 2, "n": 2, "m": 3}),
                         ("F", {"p": 3.0}), ("Feps", {"p": 2, "n": True}),
                         ("Zmod", {"m": "4"}), ("R", {}), (None, {})):
        assert _raises(ParseError, RingSpec, kind, **params), (kind, params)


# ---------------------------------------------------------------------------
# (d) ring homs


# (source, target): (has_nilpotent_kernel, is_bijective, has a section)
HOMS = {
    (ZZ, ZZ): (False, True, True),
    (QQ, QQ): (False, True, True),
    (GF(3), GF(3)): (False, True, True),
    (Zmod(6), Zmod(6)): (False, True, True),
    (Feps(2, 2), Feps(2, 2)): (False, True, True),
    (ZZ, QQ): (False, False, False),
    (ZZ, GF(3)): (False, False, False),
    (ZZ, Zmod(4)): (False, False, False),
    (ZZ, Feps(3, 2)): (False, False, False),
    (Zmod(4), Zmod(2)): (True, False, True),
    (Zmod(12), Zmod(6)): (True, False, True),
    (Zmod(9), Zmod(3)): (True, False, True),
    (Zmod(6), Zmod(3)): (False, False, True),
    (Zmod(12), Zmod(4)): (False, False, True),
    (Feps(2, 2), GF(2)): (True, False, True),
    (Feps(3, 1), GF(3)): (False, True, True),
    (Feps(3, 2), Feps(3, 1)): (True, False, True),
    (Feps(2, 3), Feps(2, 2)): (True, False, True),
    (GF(3), Feps(3, 1)): (False, True, True),
    (GF(2), Feps(2, 2)): (False, False, False),
    (GF(3), Feps(3, 2)): (False, False, False),
}

# (source, target, x, apply(x))
VALUES = (
    (ZZ, QQ, 2, Fraction(2)),
    (ZZ, GF(3), -1, 2),
    (ZZ, Zmod(4), 7, 3),
    (ZZ, Feps(3, 2), 5, (2, 0)),
    (Zmod(12), Zmod(6), 11, 5),
    (Feps(2, 2), GF(2), (1, 1), 1),
    (Feps(3, 3), Feps(3, 2), (1, 2, 1), (1, 2)),
    (GF(2), Feps(2, 2), 1, (1, 0)),
    (GF(3), Feps(3, 1), 2, (2,)),
    (QQ, QQ, Fraction(1, 3), Fraction(1, 3)),
)

UNSUPPORTED = ((QQ, ZZ), (QQ, GF(2)), (GF(3), QQ), (GF(2), GF(3)), (GF(2), Zmod(2)),
               (Zmod(2), GF(2)), (Zmod(4), Zmod(3)), (Zmod(4), Zmod(8)),
               (Feps(2, 1), Feps(2, 2)), (Feps(2, 2), GF(3)), (Feps(2, 2), Zmod(2)),
               (Feps(2, 2), Feps(3, 1)), (Zmod(4), Feps(2, 2)), (GF(3), ZZ))


def test_hom_truth_table():
    for (source, target), (nilpotent, bijective, onto) in HOMS.items():
        hom = canonical_hom(source, target)
        what = "%s -> %s" % (source, target)
        assert hom.source == source and hom.target == target, what
        assert hom.has_nilpotent_kernel is nilpotent, what
        assert hom.is_bijective is bijective, what
        if not onto:
            assert _raises(NotComputable, hom.section, target.one), what
            continue
        for y in _sample(target):
            x = hom.section(y)
            assert source.canon(x) == x and hom.apply(x) == y, (what, y)


def test_hom_values_and_ring_map_laws():
    for source, target, x, image in VALUES:
        value = canonical_hom(source, target).apply(x)
        assert value == image and type(value) is type(image), (source, target, x)
    for source, target in HOMS:
        f = canonical_hom(source, target).apply
        assert f(source.one) == target.one and f(source.zero) == target.zero
        elems = _sample(source)[:12]
        for a in elems:
            assert target.canon(f(a)) == f(a)
            for b in elems:
                assert f(source.add(a, b)) == target.add(f(a), f(b))
                assert f(source.mul(a, b)) == target.mul(f(a), f(b))


def test_identity_hom_and_unsupported_pairs():
    for ring in RINGS:
        assert identity_hom(ring) == canonical_hom(ring, ring)
        assert identity_hom(ring).apply(ring.one) == ring.one
    for source, target in UNSUPPORTED:
        assert _raises(IncompatibleBase, canonical_hom, source, target), (source, target)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("all passed")
