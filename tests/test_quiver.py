"""Quivers, representations, morphisms, and the constructions between them."""

import random
from fractions import Fraction

import pytest

from quivlat.errors import (
    CyclicQuiver,
    DimensionMismatch,
    Inconclusive,
    IncompatibleBase,
    IncompatibleRing,
    NonFreeCokernel,
    NotComputable,
    ParseError,
)
from quivlat.quiver import (
    Quiver,
    Rep,
    RepMorphism,
    base_change,
    cokernel_rep,
    direct_sum,
    direct_sum_injections,
    direct_sum_many,
    direct_sum_projections,
    euler_form,
    is_isomorphic_rigid,
    kernel_rep,
    projective_rep,
    tensor_free,
    tits_form,
)
from quivlat.rings import ExactMatrix, Feps, GF, QQ, ZZ, Zmod, canonical_hom

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
K2 = Quiver(2, ((1, 2), (1, 2)))
LOOP = Quiver(1, ((1, 1),))


def mk(ring, quiver, dims, rows):
    return Rep.from_matrix_rows(ring, quiver, dims, rows)


# ---------------------------------------------------------------------------
# quivers


def test_quiver_validation():
    with pytest.raises(ParseError):
        Quiver(-1, ())
    with pytest.raises(ParseError):
        Quiver(2, ((0, 1),))
    with pytest.raises(ParseError):
        Quiver(2, ((1, 3),))
    q = Quiver(3, ((3, 1), (1, 2)))
    assert q.tail(0) == 2 and q.head(0) == 0
    assert q.arrow_count == 2
    # the empty quiver is legal and carries exactly the zero representation
    assert Quiver(0, ()).vertex_count == 0


def test_quiver_json_round_trip():
    for q in (A2, A3, K2, LOOP):
        assert Quiver.from_json(q.to_json()) == q
    with pytest.raises(ParseError):
        Quiver.from_json({"vertices": 2})
    with pytest.raises(ParseError):
        Quiver.from_json({"vertices": 2, "arrows": [[1]]})


def test_quiver_from_json_rejects_non_integers():
    for bad in ({"vertices": 2.0, "arrows": [[1, 2]]},
                {"vertices": True, "arrows": []},
                {"vertices": 2, "arrows": [[1.5, 2]]},
                {"vertices": 2, "arrows": [[1, True]]}):
        with pytest.raises(ParseError):
            Quiver.from_json(bad)


def test_topological_order():
    assert A3.topological_order() == (0, 1, 2)
    assert Quiver(2, ((2, 1),)).topological_order() == (1, 0)
    # lex-smallest among valid orders: vertex 2 has no constraints
    assert Quiver(3, ((1, 3),)).topological_order() == (0, 1, 2)
    with pytest.raises(CyclicQuiver):
        LOOP.topological_order()
    with pytest.raises(CyclicQuiver):
        Quiver(2, ((1, 2), (2, 1))).topological_order()


def test_euler_and_tits_forms():
    assert euler_form(A2, (1, 0), (0, 1)) == -1
    assert euler_form(A2, (1, 1), (1, 1)) == 1
    assert euler_form(K2, (1, 0), (0, 1)) == -2
    assert tits_form(K2, (1, 1)) == 0
    assert tits_form(K2, (2, 3)) == 1
    assert tits_form(A2, (2, 1)) == 3
    assert tits_form(A3, (1, 1, 1)) == 1
    with pytest.raises(DimensionMismatch):
        euler_form(A2, (1,), (0, 1))


# ---------------------------------------------------------------------------
# representations


def test_rep_validation():
    with pytest.raises(DimensionMismatch):
        mk(QQ, A2, (1,), [[[1]]])
    with pytest.raises(DimensionMismatch):
        mk(QQ, A2, (1, 1), [[[1], [2]]])
    with pytest.raises(DimensionMismatch):
        mk(QQ, A2, (-1, 0), [[]])
    x = mk(QQ, A2, (1, 1), [[[Fraction(1, 2)]]])
    with pytest.raises(IncompatibleRing):
        direct_sum(x, mk(ZZ, A2, (1, 1), [[[1]]]))


def test_rep_json_round_trip():
    for rep in (Rep.simple(GF(2), A2, 1),
                mk(ZZ, K2, (2, 1), [[[1, 0]], [[3, -2]]]),
                mk(Feps(2, 2), LOOP, (1,), [[[(0, 1)]]]),
                Rep.zero(QQ, A3)):
        assert Rep.from_json(rep.to_json()) == rep
    with pytest.raises(ParseError):
        Rep.from_json({"ring": "Z", "dims": [1, 1]})
    with pytest.raises(ParseError):
        Rep.from_json({"ring": "Z", "quiver": A2.to_json(),
                       "dims": [1, 1], "mats": [[1, 2]]})


def test_rep_from_json_rejects_short_dims():
    record = Rep.simple(ZZ, A2, 1).to_json()
    record["dims"] = [1]
    with pytest.raises(ParseError):
        Rep.from_json(record)


def test_rep_from_json_rejects_non_integer_dims():
    for dims in ([1.9, 1], [True, 0]):
        record = Rep.simple(ZZ, A2, 1).to_json()
        record["dims"] = dims
        with pytest.raises(ParseError):
            Rep.from_json(record)


def test_simple_and_zero():
    s1 = Rep.simple(ZZ, A2, 1)
    assert s1.dims == (1, 0)
    assert s1.mats[0].rows == 0 and s1.mats[0].cols == 1
    assert Rep.zero(ZZ, A2).is_zero
    assert not s1.is_zero
    assert s1.total_dim == 1


def test_projective_reps():
    p1 = projective_rep(ZZ, A2, 1)
    assert p1.dims == (1, 1) and p1.mats[0].entries == ((1,),)
    assert projective_rep(ZZ, A2, 2).dims == (0, 1)
    pk = projective_rep(ZZ, K2, 1)
    assert pk.dims == (1, 2)
    # the two arrows hit independent basis vectors of the path space
    cols = {pk.mats[0].entries, pk.mats[1].entries}
    assert cols == {((1,), (0,)), ((0,), (1,))}
    assert projective_rep(ZZ, A3, 1).dims == (1, 1, 1)
    with pytest.raises(CyclicQuiver):
        projective_rep(ZZ, LOOP, 1)


# ---------------------------------------------------------------------------
# morphisms


def test_morphism_validation_and_compose():
    p1 = projective_rep(QQ, A2, 1)
    s1 = Rep.simple(QQ, A2, 1)
    top = RepMorphism(p1, s1, (ExactMatrix(QQ, 1, 1, ((Fraction(1),),)),
                               ExactMatrix(QQ, 0, 1, ())))
    assert not top.is_zero
    ident = RepMorphism.identity(p1)
    assert top.compose(ident).vertex_maps == top.vertex_maps
    assert ident.is_isomorphism()
    assert not top.is_isomorphism()
    # non-commuting square must be rejected
    with pytest.raises(DimensionMismatch):
        RepMorphism(p1, s1, (ExactMatrix(QQ, 1, 1, ((Fraction(1),),)),
                             ExactMatrix(QQ, 1, 1, ((Fraction(1),),))))
    s2 = Rep.simple(QQ, A2, 2)
    with pytest.raises(IncompatibleRing):
        RepMorphism(p1, Rep.simple(GF(2), A2, 1),
                    (ExactMatrix(GF(2), 1, 1, ((1,),)), ExactMatrix(GF(2), 0, 1, ())))
    bad = ExactMatrix(QQ, 1, 1, ((Fraction(1),),))
    with pytest.raises(Exception):
        RepMorphism(s2, s1, (bad, bad))


def test_direct_sum_structure():
    s1 = Rep.simple(ZZ, A2, 1)
    p1 = projective_rep(ZZ, A2, 1)
    both = direct_sum(s1, p1)
    assert both.dims == (2, 1)
    injs = direct_sum_injections(s1, p1)
    projs = direct_sum_projections(s1, p1)
    for k, (i, p) in enumerate(zip(injs, projs)):
        assert i.source.dims == (s1, p1)[k].dims
        assert p.compose(i).vertex_maps == RepMorphism.identity((s1, p1)[k]).vertex_maps
    # cross projections vanish
    assert projs[0].compose(injs[1]).is_zero
    assert direct_sum_many([s1, s1, s1]).dims == (3, 0)
    assert tensor_free(p1, 3).dims == (3, 3)
    assert tensor_free(p1, 0).is_zero


def test_base_change_entrywise():
    x = mk(ZZ, A2, (1, 1), [[[5]]])
    y = base_change(x, canonical_hom(ZZ, Zmod(4)))
    assert y.ring == Zmod(4) and y.mats[0].entries == ((1,),)
    z = base_change(x, canonical_hom(ZZ, QQ))
    assert z.mats[0].entries == ((Fraction(5),),)
    with pytest.raises(IncompatibleBase):
        base_change(y, canonical_hom(ZZ, QQ))


# ---------------------------------------------------------------------------
# kernels and cokernels of morphisms


def socle_inclusion(ring):
    s2 = Rep.simple(ring, A2, 2)
    p1 = projective_rep(ring, A2, 1)
    return RepMorphism(s2, p1, (ExactMatrix(ring, 1, 0, ((),)),
                                ExactMatrix.identity(ring, 1)))


def test_cokernel_rep_of_socle():
    for ring in (ZZ, QQ, GF(3)):
        coker, proj = cokernel_rep(socle_inclusion(ring))
        assert coker.dims == (1, 0)
        assert proj.source.dims == (1, 1) and proj.target is coker
        assert all(m.rows == coker.dims[i] for i, m in enumerate(proj.vertex_maps))


def test_kernel_rep_of_top():
    ring = QQ
    p1 = projective_rep(ring, A2, 1)
    s1 = Rep.simple(ring, A2, 1)
    top = RepMorphism(p1, s1, (ExactMatrix.identity(ring, 1),
                               ExactMatrix(ring, 0, 1, ())))
    ker, incl = kernel_rep(top)
    assert ker.dims == (0, 1)
    assert incl.target is p1
    composed = top.compose(incl)
    assert composed.is_zero


def test_cokernel_rep_torsion_rejected():
    single = Quiver(1, ())
    x = Rep.zero(ZZ, single)
    two = Rep(ZZ, single, (1,), ())
    double = RepMorphism(two, two, (ExactMatrix(ZZ, 1, 1, ((2,),)),))
    with pytest.raises(NonFreeCokernel):
        cokernel_rep(double)


def test_kernel_rep_unsupported_ring():
    single = Quiver(1, ())
    two = Rep(Zmod(4), single, (1,), ())
    f = RepMorphism(two, two, (ExactMatrix(Zmod(4), 1, 1, ((2,),)),))
    with pytest.raises(NotComputable):
        kernel_rep(f)


# ---------------------------------------------------------------------------
# isomorphism testing for rigid representations


def test_iso_rigid_basics():
    p1 = projective_rep(ZZ, A2, 1)
    assert is_isomorphic_rigid(p1, p1)
    twisted = mk(ZZ, A2, (1, 1), [[[-1]]])
    assert is_isomorphic_rigid(p1, twisted)
    assert is_isomorphic_rigid(p1, Rep.simple(ZZ, A2, 1)) is False
    s1 = Rep.simple(ZZ, A2, 1)
    s2 = Rep.simple(ZZ, A2, 2)
    assert is_isomorphic_rigid(s1, s2) is False


def test_iso_rigid_finite_enumeration():
    ring = GF(2)
    a = mk(ring, K2, (1, 2), [[[1], [0]], [[0], [1]]])
    b = mk(ring, K2, (1, 2), [[[0], [1]], [[1], [1]]])
    assert is_isomorphic_rigid(a, b)
    c = mk(ring, K2, (1, 2), [[[1], [0]], [[1], [0]]])
    assert is_isomorphic_rigid(a, c) is False


def test_iso_rigid_higher_rank_sum():
    ring = GF(3)
    p1 = projective_rep(ring, A2, 1)
    s1 = Rep.simple(ring, A2, 1)
    x = direct_sum(p1, s1)
    y = direct_sum(s1, p1)
    assert x.dims == y.dims and x != y
    assert is_isomorphic_rigid(x, y)


def test_iso_rigid_inconclusive_when_search_space_huge():
    ring = GF(5)
    p = projective_rep(ring, A2, 1)
    big = tensor_free(p, 3)
    other = direct_sum_many([p, p, mk(ring, A2, (1, 1), [[[2]]])])
    # End has rank 9, so 5^9 coefficient vectors exceed the enumeration cap
    with pytest.raises(Inconclusive):
        is_isomorphic_rigid(big, other)


def test_iso_rigid_unimodular_conjugation():
    rng = random.Random(3)
    from quivlat.verify import conjugate_rep, random_unimodular
    from quivlat.rings import invert
    x = direct_sum(projective_rep(ZZ, K2, 1), Rep.simple(ZZ, K2, 2))
    mats = [random_unimodular(d, rng) for d in x.dims]
    y = conjugate_rep(x, mats, [invert(m) for m in mats])
    assert y != x
    assert is_isomorphic_rigid(x, y)
