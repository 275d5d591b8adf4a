"""Quivers, representations, morphisms, and the constructions between them."""

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from quivlat.elimination import invert, is_invertible
from quivlat.errors import (
    CyclicQuiver,
    DimensionMismatch,
    IncompatibleBase,
    IncompatibleRing,
    NonFreeCokernel,
    NotComputable,
    NotRigid,
    ParseError,
)
from quivlat import elimination, quiver as quiver_module, rings
from quivlat.homology import hom_ext, is_rigid
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
    kernel_rep,
    projective_rep,
    tensor_free,
    tits_form,
)
from quivlat.rings import ExactMatrix, Feps, GF, QQ, ZZ, Zmod, canonical_hom
from quivlat.structure import is_isomorphic_rigid, rigid_isomorphism

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


@pytest.mark.parametrize("make", [
    lambda: Quiver(2.5, ()),
    lambda: Quiver("2", ()),
    lambda: Quiver(True, ()),
    lambda: Quiver(None, ()),
    lambda: Quiver(2, 5),
    lambda: Quiver(2, None),
    lambda: Quiver(2, ((1, 2, 3),)),
    lambda: Quiver(2, ((1,),)),
    lambda: Quiver(2, ((1, "2"),)),
    lambda: Quiver(2, ((1.0, 2.0),)),
    lambda: Quiver(2, ((1, True),)),
    lambda: Quiver(2, ("12",)),
    lambda: Quiver(2, (5,)),
], ids=["float-count", "str-count", "bool-count", "none-count", "int-arrows",
        "none-arrows", "triple", "single", "str-head", "float-pair", "bool-head",
        "str-pair", "int-arrow"])
def test_quiver_rejects_malformed_input_with_parse_error(make):
    # exact ints and (tail, head) pairs only: nothing is coerced with int(),
    # and no ValueError or TypeError leaks from unpacking or comparing
    with pytest.raises(ParseError):
        make()


def test_quiver_accepts_lists_and_stores_tuples():
    q = Quiver(3, [[1, 2], (2, 3)])
    assert q.arrows == ((1, 2), (2, 3)) and q == Quiver(3, ((1, 2), (2, 3)))
    assert hash(q) == hash(Quiver(3, ((1, 2), (2, 3))))


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
    # parallel arrows count twice towards the head's in-degree
    assert Quiver(3, ((3, 1), (3, 1), (2, 1))).topological_order() == (1, 2, 0)
    with pytest.raises(CyclicQuiver, match="loop at vertex 1"):
        LOOP.topological_order()
    with pytest.raises(CyclicQuiver, match="directed cycle"):
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


@pytest.mark.parametrize("call,error", [
    (lambda: euler_form(None, (1, 2), (1, 2)), ParseError),
    (lambda: tits_form(None, (1, 2)), ParseError),
    (lambda: tits_form("K2", (1, 2)), ParseError),
    (lambda: euler_form(K2, None, (1, 2)), DimensionMismatch),
    (lambda: euler_form(K2, (1, 2), 3), DimensionMismatch),
    (lambda: euler_form(K2, (1, 2.0), (1, 2)), DimensionMismatch),
    (lambda: tits_form(K2, (True, 2)), DimensionMismatch),
    (lambda: tits_form(K2, ("1", 2)), DimensionMismatch),
], ids=("euler(None)", "tits(None)", "tits(str)", "euler(K2, None)", "euler(K2, a, 3)",
        "euler(K2, float)", "tits(K2, bool)", "tits(K2, str)"))
def test_forms_refuse_what_is_not_a_vector_of_the_quiver(call, error):
    with pytest.raises(error):
        call()


def test_forms_take_vectors_with_negative_entries():
    # structure._summand_roots reads coordinates off differences of vectors
    assert euler_form(K2, (-1, 2), (3, -4)) == -3 - 8 - 2 * (-1) * (-4)
    assert tits_form(A2, [1, -1]) == 3


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


S1 = Rep.simple(ZZ, A2, 1)


@pytest.mark.parametrize("call, bad", [
    (lambda: Rep(A2, ZZ, (1, 1), (ExactMatrix.zeros(ZZ, 1, 1),)), A2),
    (lambda: Rep(ZZ, A2, (1, 1), (1,)), 1),
    (lambda: hom_ext(S1, 3), 3),
    (lambda: RepMorphism(None, S1, ()), None),
    (lambda: is_rigid(None), None),
    (lambda: base_change(S1, None), None),
    (lambda: ExactMatrix(None, 1, 1, ((1,),)), None),
], ids=["swapped-ring-quiver", "int-matrix", "hom_ext-int", "morphism-none",
        "is_rigid-none", "base_change-none", "matrix-ring-none"])
def test_values_of_the_wrong_type_are_refused_where_they_enter(call, bad):
    # each once escaped as an AttributeError from deep inside
    with pytest.raises(ParseError, match=re.escape(repr(bad))):
        call()


# an argument that is not an ExactMatrix, refused by rings._check_matrix where
# it enters, and the presentation or ring argument of the module layer, with
# the kind of value expected
I2 = ExactMatrix.identity(ZZ, 2)
MATRIX_PROBES = {
    "is_invertible-none": (lambda: is_invertible(None), "matrix", None),
    "is_invertible-rows": (lambda: is_invertible(((1, 0), (0, 1))), "matrix",
                           ((1, 0), (0, 1))),
    "invert-list": (lambda: invert([1]), "matrix", [1]),
    "invert-none": (lambda: invert(None), "matrix", None),
    "morphism-none-maps": (lambda: RepMorphism(S1, S1, (None, None)), "matrix", None),
    "morphism-rows-map": (lambda: RepMorphism(S1, S1, (((1,),), ExactMatrix.zeros(ZZ, 0, 0))),
                          "matrix", ((1,),)),
    "solve-none-lhs": (lambda: elimination.solve(None, I2), "matrix", None),
    "solve-none-rhs": (lambda: elimination.solve(I2, None), "matrix", None),
    "normal_form-none": (lambda: elimination.normal_form(None), "matrix", None),
    "cokernel-none": (lambda: elimination.cokernel(None), "matrix", None),
    "cokernel_data-none": (lambda: elimination.cokernel_data(None), "matrix", None),
    "cokernel_projection-none": (lambda: elimination.cokernel_projection(None), "matrix", None),
    "kernel_basis-list": (lambda: elimination.kernel_basis([1]), "matrix", [1]),
    "mul-none": (lambda: I2.mul(None), "matrix", None),
    "add-none": (lambda: I2.add(None), "matrix", None),
    "hstack-none": (lambda: I2.hstack(None), "matrix", None),
    "vstack-none": (lambda: I2.vstack(None), "matrix", None),
    "block_diag-none": (lambda: rings.block_diag(ZZ, [None]), "matrix", None),
    "apply_hom-none": (lambda: rings.apply_hom(rings.identity_hom(ZZ), None), "matrix", None),
    "constant_rank-none": (lambda: elimination.constant_rank(None), "module presentation", None),
    "presentation_base_change-none": (
        lambda: elimination.presentation_base_change(None, rings.identity_hom(ZZ)),
        "module presentation", None),
    "howell_rows-none": (lambda: elimination.howell_rows(None, []), "ring", None),
    "howell_rows-none-rows": (lambda: elimination.howell_rows(Zmod(4), None), "rows", None),
    "howell_rows-none-row": (lambda: elimination.howell_rows(Zmod(4), [None]), "row", None),
    "from_rows-none-rows": (lambda: ExactMatrix.from_rows(ZZ, None), "rows", None),
    "sub-none": (lambda: I2.sub(None), "matrix", None),
    "zeros-none": (lambda: ExactMatrix.zeros(None, 1, 1), "ring", None),
    "identity-none": (lambda: ExactMatrix.identity(None, 1), "ring", None),
    "block_diag-none-ring": (lambda: rings.block_diag(None, [I2]), "ring", None),
    "block_diag-none-blocks": (lambda: rings.block_diag(ZZ, None), "matrices", None),
    "from_invariant_factors-none": (
        lambda: elimination.ModulePresentation.from_invariant_factors(None, [1]), "ring", None),
    "matrix-none-entries": (lambda: ExactMatrix(ZZ, 1, 1, None), "rows", None),
    "matrix-none-row": (lambda: ExactMatrix(ZZ, 1, 1, (None,)), "row", None),
    "from_rows-none-row": (lambda: ExactMatrix.from_rows(ZZ, [None]), "row", None),
}


@pytest.mark.parametrize("call, what, bad", MATRIX_PROBES.values(), ids=MATRIX_PROBES)
def test_a_matrix_argument_that_is_not_an_exact_matrix_is_refused(call, what, bad):
    # each once escaped as an AttributeError or a TypeError
    with pytest.raises(ParseError, match="^%s expected, got %s$" % (what, re.escape(repr(bad)))):
        call()


# the same for the quiver layer: a representation refused by
# _check_compatible, a quiver by _check_quiver, a morphism by _check_morphism,
# a vertex by _vertex, arrow matrices and vertex maps by rings._items and a
# multiplicity that is not an exact int by tensor_free
QUIVER_PROBES = {
    "base_change-none": (lambda: base_change(None, rings.identity_hom(ZZ)),
                         "representation", None),
    "kernel_rep-none": (lambda: kernel_rep(None), "morphism", None),
    "cokernel_rep-none": (lambda: cokernel_rep(None), "morphism", None),
    "identity-none": (lambda: RepMorphism.identity(None), "representation", None),
    "tensor_free-none": (lambda: tensor_free(None, 1), "representation", None),
    "tensor_free-str": (lambda: tensor_free(S1, "a"), "multiplicity", "a"),
    "tensor_free-bool": (lambda: tensor_free(S1, True), "multiplicity", True),
    "projective_rep-none": (lambda: projective_rep(ZZ, None, 1), "quiver", None),
    "simple-none": (lambda: Rep.simple(ZZ, None, 1), "quiver", None),
    "zero-none": (lambda: Rep.zero(ZZ, None), "quiver", None),
    "simple-str": (lambda: Rep.simple(ZZ, K2, "a"), "vertex", "a"),
    "simple-bool": (lambda: Rep.simple(ZZ, K2, True), "vertex", True),
    "projective_rep-str": (lambda: projective_rep(ZZ, K2, "a"), "vertex", "a"),
    "projective_rep-bool": (lambda: projective_rep(ZZ, K2, True), "vertex", True),
    "compose-none": (lambda: RepMorphism.identity(S1).compose(None), "morphism", None),
    "direct_sum_many-none": (lambda: direct_sum_many([None]), "representation", None),
    "rep-none-mats": (lambda: Rep(ZZ, K2, (0, 0), None), "arrow matrices", None),
    "from_matrix_rows-none": (lambda: Rep.from_matrix_rows(ZZ, K2, (1, 1), None),
                              "arrow matrices", None),
    "from_matrix_rows-none-blocks": (
        lambda: Rep.from_matrix_rows(ZZ, K2, (1, 1), [None, None]), "rows", None),
    "from_matrix_rows-none-rows": (
        lambda: Rep.from_matrix_rows(ZZ, K2, (1, 1), [[None], [None]]), "row", None),
    "direct_sum_many-int": (lambda: direct_sum_many(5), "representations", 5),
    "morphism-none-maps": (lambda: RepMorphism(S1, S1, None), "vertex maps", None),
    "morphism-int-maps": (lambda: RepMorphism(S1, S1, -1), "vertex maps", -1),
    "morphism-float-maps": (lambda: RepMorphism(S1, S1, 1.5), "vertex maps", 1.5),
    "morphism-rep-maps": (lambda: RepMorphism(S1, S1, S1), "vertex maps", S1),
}


def test_tensor_free_refuses_a_multiplicity_past_the_cell_cap(monkeypatch):
    # 10**30 once escaped from [x] * k as an OverflowError, 2**62 as a
    # MemoryError; the charge is k times the total dimension
    for k in (10 ** 30, 2 ** 62):
        with pytest.raises(NotComputable, match="^%d copies of a rep of total dimension 1 "
                           "would fill %d cells, above the cap" % (k, k)):
            tensor_free(S1, k)
    with pytest.raises(NotComputable, match="total dimension 0 would fill %d cells" % 10 ** 30):
        tensor_free(Rep.zero(ZZ, K2), 10 ** 30)
    # the k-fold sum's k x k blocks, one at each arrow, are charged too, all
    # together: 5000 copies of a Kronecker (1,1) rep, 10**4 cells, would fill
    # two blocks of 25 million, and 4472 copies two of 20.0 million, each
    # just below the cap, and both are refused before a copy is made; 3000
    # copies, two blocks of 9 million, are admitted (and not built here)
    copies = []
    monkeypatch.setattr(quiver_module, "direct_sum_many", copies.extend)
    kronecker = mk(ZZ, K2, (1, 1), [[[1]], [[0]]])
    for k in (5000, 4472):
        with pytest.raises(NotComputable, match=r"^the arrow blocks of a direct sum of dims "
                           r"\(%d, %d\) would fill %d cells, above the cap" % (k, k, 2 * k * k)):
            tensor_free(kronecker, k)
    assert copies == []
    tensor_free(kronecker, 3000)
    assert len(copies) == 3000


def test_from_matrix_rows_refuses_a_wrong_arrow_count_as_rep_does():
    # three blocks for two arrows once escaped as an IndexError from Quiver.head
    one = [[1]]
    for blocks in ([one] * 3, [one], []):
        with pytest.raises(DimensionMismatch) as got:
            Rep.from_matrix_rows(ZZ, K2, (1, 1), blocks)
        with pytest.raises(DimensionMismatch) as want:
            Rep(ZZ, K2, (1, 1), [ExactMatrix(ZZ, 1, 1, one)] * len(blocks))
        assert str(got.value) == str(want.value) == "need 2 arrow matrices, got %d" % len(blocks)


@pytest.mark.parametrize("call, what, bad", QUIVER_PROBES.values(), ids=QUIVER_PROBES)
def test_a_quiver_layer_argument_of_the_wrong_type_is_refused(call, what, bad):
    # each once escaped as an AttributeError or a TypeError, or, for the
    # bool multiplicity and vertices, was read as 1
    with pytest.raises(ParseError, match="^%s expected, got %s$" % (what, re.escape(repr(bad)))):
        call()


X11 = mk(ZZ, A2, (1, 1), [[[1]]])
ONE, NONE = ExactMatrix.identity(ZZ, 1), ExactMatrix.zeros(ZZ, 0, 0)
# (call, error, message prefix) of the quiver layer's refusals that no
# other test reaches; the non-commuting maps reach the one check every
# morphism, Hom generators included, passes on construction
QUIVER_REFUSALS = {
    "simple-out-of-range": (lambda: Rep.simple(ZZ, K2, 3), DimensionMismatch,
                            "vertex 3 out of range"),
    "rep-arrow-ring": (lambda: Rep(ZZ, A2, (1, 1), (ExactMatrix.identity(GF(2), 1),)),
                       IncompatibleRing, "arrow 0 over F:2, rep over Z"),
    "rep-arrow-shape": (lambda: Rep(ZZ, A2, (1, 1), (ExactMatrix.zeros(ZZ, 2, 1),)),
                        DimensionMismatch, "arrow 0 matrix is 2x1, want 1x1"),
    "morphism-one-map": (lambda: RepMorphism(S1, S1, (ONE,)), DimensionMismatch,
                         "need one map per vertex"),
    "morphism-map-ring": (lambda: RepMorphism(S1, S1, (ExactMatrix.identity(GF(2), 1), NONE)),
                          IncompatibleRing, "vertex map ring mismatch"),
    "morphism-not-commuting": (lambda: RepMorphism(X11, X11, (ONE, ExactMatrix.zeros(ZZ, 1, 1))),
                               DimensionMismatch, "maps do not commute with arrow 1"),
    "compose-endpoints": (
        lambda: RepMorphism.identity(S1).compose(RepMorphism.identity(Rep.simple(ZZ, A2, 2))),
        IncompatibleBase, "composition endpoints do not match"),
    "direct_sum_many-empty": (lambda: direct_sum_many([]), DimensionMismatch,
                              "empty direct sum needs an ambient quiver"),
    "tensor_free-negative": (lambda: tensor_free(S1, -1), DimensionMismatch,
                             "negative multiplicity"),
}


@pytest.mark.parametrize("call, error, prefix", QUIVER_REFUSALS.values(), ids=QUIVER_REFUSALS)
def test_quiver_layer_refusals_name_their_error(call, error, prefix):
    with pytest.raises(error, match="^" + re.escape(prefix)):
        call()


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


def test_rep_hash_is_computed_once_and_not_copied(monkeypatch):
    calls = []
    matrix_hash = ExactMatrix.__hash__

    def counting(m):
        calls.append(m)
        return matrix_hash(m)

    monkeypatch.setattr(ExactMatrix, "__hash__", counting)
    x = mk(ZZ, K2, (2, 1), [[[1, 0]], [[3, -2]]])
    assert hash(x) == hash(x)
    assert len(calls) == 2          # one per arrow matrix, first hash only
    y = mk(ZZ, K2, (2, 1), [[[1, 0]], [[3, -2]]])
    assert y is not x and y == x and hash(y) == hash(x)
    # a copy or an unpickled rep hashes afresh: str hashes are per process
    for other in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert "_hash" not in vars(other)
        assert other == x and hash(other) == hash(x)


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


@pytest.mark.parametrize("dims", [(1.9, 1.2), ("1", "1"), (True, True), (1, 1.0), None],
                         ids=["float", "string", "bool", "one-float", "none"])
def test_rep_dims_must_be_exact_ints(dims):
    mats = (ExactMatrix(ZZ, 1, 1, ((1,),)), ExactMatrix(ZZ, 1, 1, ((2,),)))
    with pytest.raises(DimensionMismatch):
        Rep(ZZ, K2, dims, mats)
    with pytest.raises(DimensionMismatch):
        mk(ZZ, K2, dims, [[[1]], [[2]]])


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
    for ring in (ZZ, QQ, GF(3), Zmod(6), Feps(2, 2)):
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
    # over Z/6 the cokernel Z/3 of multiplication by 3 is projective, not free
    six = Rep(Zmod(6), single, (1,), ())
    with pytest.raises(NonFreeCokernel):
        cokernel_rep(RepMorphism(six, six, (ExactMatrix(Zmod(6), 1, 1, ((3,),)),)))


def test_kernel_rep_refuses_non_free_kernels():
    single = Quiver(1, ())
    # ker(2) over Zmod:4 is 2R, torsion; ker(3) over Zmod:6 is 2R, which is
    # projective (R = 2R + 3R) but not free
    for ring, c in ((Zmod(4), 2), (Zmod(6), 3)):
        line = Rep(ring, single, (1,), ())
        f = RepMorphism(line, line, (ExactMatrix(ring, 1, 1, ((c,),)),))
        with pytest.raises(NonFreeCokernel):
            kernel_rep(f)
    # a split surjection has a free kernel on every ring
    for ring in (Zmod(4), Zmod(6), Feps(2, 2)):
        x, y = Rep.simple(ring, A2, 1), projective_rep(ring, A2, 1)
        f = RepMorphism(y, x, (ExactMatrix.identity(ring, 1), ExactMatrix.zeros(ring, 0, 1)))
        ker, incl = kernel_rep(f)
        assert ker == Rep.simple(ring, A2, 2) and f.compose(incl).is_zero


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


def test_iso_rigid_large_hom_space_gives_a_verified_map():
    ring = GF(5)
    p = projective_rep(ring, A2, 1)
    big = tensor_free(p, 3)
    other = direct_sum_many([p, p, mk(ring, A2, (1, 1), [[[2]]])])
    # Hom has rank 9, 5^9 coefficient vectors
    assert is_isomorphic_rigid(big, other)
    iso = rigid_isomorphism(big, other)
    assert iso.source == big and iso.target == other and iso.is_isomorphism()


def test_rigid_isomorphism_needs_a_rigid_input():
    ring = GF(2)
    rigid = mk(ring, K2, (1, 2), [[[1], [0]], [[0], [1]]])
    loose = mk(ring, K2, (1, 2), [[[1], [0]], [[1], [0]]])
    assert is_rigid(rigid) and not is_rigid(loose)
    assert rigid_isomorphism(rigid, loose) is None
    assert rigid_isomorphism(loose, rigid) is None
    with pytest.raises(NotRigid):
        rigid_isomorphism(loose, loose)
    # unequal dimension vectors answer before any rigidity test
    assert rigid_isomorphism(loose, Rep.simple(ring, K2, 1)) is None


def test_iso_rigid_unimodular_conjugation():
    rng = random.Random(3)
    from quivlat.verify import conjugate_rep, random_unimodular
    from quivlat.elimination import invert
    x = direct_sum(projective_rep(ZZ, K2, 1), Rep.simple(ZZ, K2, 2))
    mats = [random_unimodular(d, rng) for d in x.dims]
    y = conjugate_rep(x, mats, [invert(m) for m in mats])
    assert y != x
    assert is_isomorphic_rigid(x, y)
