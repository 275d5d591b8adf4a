"""The element contracts of every ring class, and the ring-hom truth table.

(a) gcdex, solve_scalar and unit_to_canonical satisfy their contracts,
    exhaustively on the finite rings and on samples over Z and Q; inv of
    a non-unit is refused with IncompatibleRing on every ring, and Q takes
    a field's divisibility step, not Z's Euclid on Fractions.
(b) F:p and Zmod:p agree on every element method except gcdex, which over
    a field may pick any valid transform.
(c) Ring specs round-trip through str and parse, and a kind refuses
    parameters it does not take.
(d) The canonical homs: their values, which are onto with a nilpotent
    kernel, which are bijective and which have a section; a ring map
    argument that is not a hom, or not one out of the ring it is applied
    over, is refused with ParseError or IncompatibleBase.
(e) The two contracts of RingSpec's docstring: what the forward pass asks
    of a ring (nonzero, p, _forward_ints and the unit verdict) and what the
    sheet asks (the arithmetic of (a), and p zero on an infinite ring).
    No algorithm reads a ring's kind: an AST scan of the package finds no
    .kind read of ring or *.ring outside the ring classes.  A ring class
    states only its own arithmetic: a scan of each class's own attributes
    finds none of the rules RingSpec derives restated.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_ring_contracts.py
"""

import ast
import os
import random
from fractions import Fraction

from quivlat import rings
from quivlat.errors import IncompatibleBase, IncompatibleRing, NotComputable, ParseError
from quivlat.homology import check_base_change, hom_ext
from quivlat.quiver import Quiver, base_change
from quivlat.rings import (
    ExactMatrix,
    Feps,
    GF,
    QQ,
    RingHom,
    RingSpec,
    ZZ,
    Zmod,
    _nonzeros,
    apply_hom,
    canonical_hom,
    identity_hom,
    is_invertible,
    presentation_base_change,
)
from quivlat.structure import exceptional_lattice, lift_rigid

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


def test_inv_of_a_non_unit_is_refused_on_every_ring():
    # Z/m and F:p once let pow's ValueError escape, and Q a ZeroDivisionError
    for ring in RINGS:
        for x in _sample(ring):
            if not ring.is_unit(x):
                assert _raises(IncompatibleRing, ring.inv, x), (str(ring), x)


def test_q_takes_the_divisibility_step():
    # Q subclasses Z: without its own _gcdex it would run Z's Euclid on Fractions
    nonzero = [a for a in _sample(QQ) if a]
    for a in nonzero:
        for b in nonzero:
            assert QQ.gcdex(a, b) == (a, 1, 0, -b / a, 1), (a, b)


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


def test_ring_map_arguments_are_refused_with_a_typed_error():
    # RingHom owns its two ends, and rings._check_hom owns "a RingHom out of
    # this ring" for every entry point handed one; each of these once
    # escaped as AttributeError, and identity_hom(None) returned a hom
    kronecker = Quiver(2, ((1, 2), (1, 2)))
    x = exceptional_lattice(kronecker, (1, 2))
    m = ExactMatrix.identity(ZZ, 2)
    pres = hom_ext(x, x).hom
    calls = (
        (RingHom, ZZ, None), (RingHom, None, ZZ), (canonical_hom, "Z", ZZ),
        (identity_hom, None), (exceptional_lattice, kronecker, (1, 2), "Z"),
        (apply_hom, None, m), (presentation_base_change, pres, None),
        (base_change, x, None), (check_base_change, x, x, None), (lift_rigid, x, None),
    )
    for f, *args in calls:
        assert _raises(ParseError, f, *args), (f.__name__, args)
    # a hom out of another ring is a mismatch, as before
    hom = canonical_hom(ZZ, GF(2))
    f2 = base_change(x, hom)
    for f, *args in ((apply_hom, hom, apply_hom(hom, m)), (base_change, f2, hom),
                     (presentation_base_change, hom_ext(f2, f2).hom, hom),
                     (check_base_change, f2, f2, hom), (lift_rigid, x, hom)):
        assert _raises(IncompatibleBase, f, *args), (f.__name__, args)


# ---------------------------------------------------------------------------
# (e) the forward pass's and the sheet's contracts


FORWARD = ("nonzero", "p", "_forward_ints", "is_unit")
SHEET = ("zero", "one", "add", "neg", "sub", "mul", "is_zero", "is_unit", "inv",
         "solve_scalar", "divides", "gcdex", "pivot_size", "unit_to_canonical",
         "canonical_gen", "ann_gen", "row_axpy", "row_comb", "dict_axpy", "is_finite")


def _rows(ring, seed, height=6, width=5):
    """Dict rows of a random matrix over ring, about half its cells zero."""
    rng = random.Random("rows:%s:%d" % (ring, seed))
    elems = _sample(ring)
    cells = [[rng.choice(elems) if rng.random() < 0.5 else ring.zero for _ in range(width)]
             for _ in range(height)]
    return _nonzeros(cells, ring)


def test_every_ring_has_both_contracts():
    for ring in RINGS:
        for name in FORWARD + (() if ring.is_field else SHEET):
            assert hasattr(ring, name), (str(ring), name)
        if not ring.is_field and not ring.is_finite:   # its sheet reads factors mod a gcd of minors
            assert ring.p == 0, str(ring)


def test_nonzero_is_the_negation_of_is_zero():
    for ring in RINGS:
        for x in _sample(ring):
            assert ring.nonzero(x) == (not ring.is_zero(x)), (str(ring), x)


def test_nonzeros_keeps_exactly_the_nonzero_cells():
    for ring in RINGS:
        rng = random.Random("cells:%s" % ring)
        cells = [[rng.choice(_sample(ring)) for _ in range(4)] for _ in range(4)]
        assert _nonzeros(cells, ring) == [
            {j: x for j, x in enumerate(row) if not ring.is_zero(x)} for row in cells], str(ring)


def test_forward_ints_gives_each_ring_what_it_needs():
    for ring in RINGS:
        for seed in range(5):
            rows = _rows(ring, seed)
            before = [dict(row) for row in rows]
            ints = ring._forward_ints(rows)
            what = "%s seed %d" % (ring, seed)
            if ring == ZZ or ring.is_field and ring.p:   # Z and F:p: as they are
                assert ints is rows and ints == before, what
                continue
            assert all(type(x) is int and x for row in ints for x in row.values()), what
            if ring == QQ:   # integral multiples of the input rows
                for row, out in zip(before, ints, strict=True):
                    assert row.keys() == out.keys(), what
                    scales = {Fraction(out[k]) / x for k, x in row.items()}
                    assert len(scales) <= 1 and 0 not in scales, what
            elif ring.m:   # least absolute residues, congruent mod m
                m = ring.m
                for row, out in zip(before, ints, strict=True):
                    assert row.keys() == out.keys(), what
                    assert all(out[k] % m == x and -m < 2 * out[k] <= m
                               for k, x in row.items()), what
            else:   # Feps: the constant terms
                assert ring.p and ints == [{k: x[0] for k, x in row.items() if x[0]}
                                           for row in before], what


def test_the_forward_unit_verdict_is_is_unit():
    """A 1x1 matrix is invertible exactly on a unit, which the peel of
    rings._invertible asks of its one entry.  With no singleton row the
    forward pass decides: [[1, 1], [y, y + x]], for a nonzero y with y + x
    nonzero (F:2 has none when x is 1), and [[1, 1, 0], [0, 1, 1], [1, 1, x]]
    have determinant x, and are invertible exactly when is_unit(x): mod p
    on the residue field F_p, else by is_unit of the int the pass ends on."""
    forward, entered = rings._forward, []

    def counted(*args):
        entered.append(args)
        return forward(*args)

    rings._forward = counted
    try:
        for ring in RINGS:
            one, zero = ring.one, ring.zero
            nonzero = [y for y in _sample(ring) if ring.nonzero(y)]
            for x in _sample(ring):
                mat = ExactMatrix(ring, 1, 1, ((x,),))
                assert is_invertible(mat) is ring.is_unit(x), (str(ring), x)
                mats = [ExactMatrix(ring, 3, 3, ((one, one, zero), (zero, one, one),
                                                 (one, one, x)))]
                y = next((y for y in nonzero if ring.nonzero(ring.add(y, x))), None)
                if y is not None:
                    mats.append(ExactMatrix(ring, 2, 2, ((one, one), (y, ring.add(y, x)))))
                for mat in mats:
                    del entered[:]
                    assert is_invertible(mat) is ring.is_unit(x), (str(ring), x, mat)
                    assert len(entered) == 1, (str(ring), x, mat)
    finally:
        rings._forward = forward


def _kind_reads(tree):
    """The lines of .kind reads of ring or *.ring outside the ring classes."""
    ring_classes = {"RingSpec"} | {cls.__name__ for cls, _ in rings._KINDS.values()}
    lines, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name in ring_classes:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "kind":
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "ring"
                    or isinstance(owner, ast.Attribute) and owner.attr == "ring"):
                lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_no_algorithm_reads_a_ring_kind():
    package = os.path.dirname(os.path.abspath(rings.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            found += ["%s:%d" % (name, line) for line in _kind_reads(tree)]
    assert not found, "ring kind read outside the ring classes at " + ", ".join(found)
    assert _kind_reads(ast.parse("def f(a, ring):\n    return a.ring.kind, ring.kind")) == [2, 2]


def test_ring_classes_restate_no_derived_rule():
    """RingSpec derives canonical_gen, divides, inv, is_zero and the
    divisibility _gcdex once; a class states its own only where its
    arithmetic differs: Feps's power-series inv and its is_zero on tuples,
    Z's Euclid and Z/m's reduction of it."""
    classes = [cls for cls, _ in rings._KINDS.values()]

    def own(name):
        return {cls.__name__ for cls in classes if name in vars(cls)}

    assert own("canonical_gen") == own("divides") == set()
    assert own("inv") == own("is_zero") == {"_Truncated"}
    assert own("_gcdex") == {"_Integers", "_Modular", "_Rationals"}
    assert vars(rings._Rationals)["_gcdex"] is RingSpec._gcdex   # not a step of its own


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("all passed")
