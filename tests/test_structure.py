"""Real Schur roots, exceptional lattices, decomposition, and lifting."""

import random

import pytest

from quivlat import mutation, structure
from quivlat.errors import (
    BoundExceeded,
    DimensionMismatch,
    NotNilpotentKernel,
    NotRigid,
    NotSchurRoot,
)
from quivlat.homology import hom_ext, is_exceptional, is_rigid
from quivlat.mutation import orbit_search, standard_sequence
from quivlat.quiver import (
    Quiver,
    Rep,
    base_change,
    direct_sum_many,
    euler_form,
    is_isomorphic_rigid,
    projective_rep,
    tensor_free,
)
from quivlat.rings import Feps, GF, QQ, ZZ, Zmod, canonical_hom, invert
from quivlat.structure import (
    SCHUR_BOUNDED_FALSE,
    SCHUR_PREFILTER_FALSE,
    SCHUR_REAL,
    decompose_rigid,
    exceptional_lattice,
    generic_dims,
    is_real_schur_root,
    lift_rigid,
    schur_root_status,
)
from quivlat.verify import conjugate_rep, random_unimodular

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
K2 = Quiver(2, ((1, 2), (1, 2)))

ALL_RINGS = (ZZ, QQ, GF(3), Zmod(4), Zmod(6), Feps(2, 2))


# ---------------------------------------------------------------------------
# Schur root classification


def test_schur_status_table():
    assert schur_root_status(A2, (1, 0)) == SCHUR_REAL
    assert schur_root_status(A2, (1, 1)) == SCHUR_REAL
    assert schur_root_status(A2, (2, 1)) == SCHUR_PREFILTER_FALSE
    assert schur_root_status(K2, (1, 1)) == SCHUR_PREFILTER_FALSE
    assert schur_root_status(K2, (2, 2)) == SCHUR_PREFILTER_FALSE
    assert schur_root_status(K2, (2, 3)) == SCHUR_REAL
    assert schur_root_status(K2, (5, 6), bound=8) == SCHUR_BOUNDED_FALSE
    assert schur_root_status(K2, (5, 6), bound=12) == SCHUR_REAL
    assert schur_root_status(A3, (1, 1, 1)) == SCHUR_REAL
    # disconnected support makes the quadratic form 2, caught by the prefilter
    assert schur_root_status(A3, (1, 0, 1)) == SCHUR_PREFILTER_FALSE


def test_is_real_schur_root_wrapper():
    assert is_real_schur_root(K2, (3, 4))
    assert not is_real_schur_root(K2, (1, 1))
    assert not is_real_schur_root(K2, (9, 10), bound=6)


# ---------------------------------------------------------------------------
# exceptional lattices


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_exceptional_lattice_over_all_rings(ring):
    for quiver, alpha in ((A2, (1, 1)), (K2, (1, 2)), (K2, (2, 3)), (A3, (1, 1, 1))):
        rep = exceptional_lattice(quiver, alpha, ring, bound=10)
        assert rep.ring == ring and rep.dims == alpha
        assert is_exceptional(rep)


def test_exceptional_lattice_rejections():
    with pytest.raises(NotSchurRoot):
        exceptional_lattice(K2, (1, 1))
    with pytest.raises(NotSchurRoot):
        exceptional_lattice(A2, (2, 1))
    with pytest.raises(BoundExceeded):
        exceptional_lattice(K2, (5, 6), bound=8)


def test_generic_dims_frozen():
    gd = generic_dims(K2, (0, 1), (1, 2), bound=10)
    assert (gd.hom_rank, gd.ext_rank) == (2, 0)
    gd = generic_dims(K2, (1, 2), (0, 1), bound=10)
    assert (gd.hom_rank, gd.ext_rank) == (0, 0)
    gd = generic_dims(A2, (1, 0), (0, 1), bound=10)
    assert (gd.hom_rank, gd.ext_rank) == (0, 1)
    gd = generic_dims(K2, (1, 0), (0, 1), bound=10)
    assert (gd.hom_rank, gd.ext_rank) == (0, 2)
    # the two overlapping intervals on A3 extend one way and map the other
    gd = generic_dims(A3, (1, 1, 0), (0, 1, 1), bound=10)
    assert (gd.hom_rank, gd.ext_rank) == (0, 1)
    gd = generic_dims(A3, (0, 1, 1), (1, 1, 0), bound=10)
    assert (gd.hom_rank, gd.ext_rank) == (1, 0)


@pytest.mark.parametrize("alpha", [(1.5, 2), (True, 2), ("1", "2"), 12], ids=repr)
def test_dimension_vectors_need_exact_ints(alpha):
    with pytest.raises(DimensionMismatch):
        exceptional_lattice(K2, alpha)
    with pytest.raises(DimensionMismatch):
        schur_root_status(K2, alpha)


@pytest.mark.parametrize("quiver", (A3, K2), ids=("A3", "kronecker"))
def test_generic_dims_are_the_ranks_over_q(quiver):
    roots = sorted(orbit_search(standard_sequence(ZZ, quiver), bound=7))
    to_q = canonical_hom(ZZ, QQ)
    for alpha in roots:
        xa = base_change(exceptional_lattice(quiver, alpha, bound=7), to_q)
        for beta in roots:
            xb = base_change(exceptional_lattice(quiver, beta, bound=7), to_q)
            he = hom_ext(xa, xb)
            gd = generic_dims(quiver, alpha, beta, bound=7)
            assert (gd.hom_rank, gd.ext_rank) == (he.hom.free_rank, he.ext.free_rank)
            assert gd.hom_rank - gd.ext_rank == euler_form(quiver, alpha, beta)


# ---------------------------------------------------------------------------
# the shared integral orbit walk


@pytest.fixture
def fresh_walks(monkeypatch):
    monkeypatch.setattr(structure, "_WALKS", {})


@pytest.mark.parametrize("largest_first", (False, True), ids=("smallest", "largest"))
@pytest.mark.parametrize("quiver", (A2, A3, K2), ids=("A2", "A3", "kronecker"))
def test_shared_walk_gives_the_fresh_search_witnesses(fresh_walks, quiver, largest_first):
    bound = 12
    roots = sorted(orbit_search(standard_sequence(ZZ, quiver), bound=bound),
                   key=sum, reverse=largest_first)
    for alpha in roots:
        fresh = orbit_search(standard_sequence(ZZ, quiver), alpha, bound=bound)
        assert structure._schur_witness(ZZ, quiver, alpha, bound) == fresh
        assert exceptional_lattice(quiver, alpha, bound=bound) == fresh
    assert list(structure._schur_orbit(ZZ, quiver, bound)) == list(
        orbit_search(standard_sequence(ZZ, quiver), bound=bound))


class _Deadline(BaseException):
    """Stands in for an interrupt or an alarm raised mid-walk."""


def test_interrupted_walk_does_not_poison_later_queries(fresh_walks, monkeypatch):
    original = mutation.braid_act
    calls = []

    def braid_act_failing_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise _Deadline()
        return original(*args, **kwargs)

    monkeypatch.setattr(mutation, "braid_act", braid_act_failing_once)
    with pytest.raises(_Deadline):
        schur_root_status(K2, (5, 6), bound=12)
    assert len(calls) == 3
    assert schur_root_status(K2, (5, 6), bound=12) == SCHUR_REAL
    fresh = orbit_search(standard_sequence(ZZ, K2), (5, 6), bound=12)
    assert structure._schur_witness(ZZ, K2, (5, 6), 12) == fresh


# ---------------------------------------------------------------------------
# decomposition of rigid lattices


def planted_sum(quiver, spec):
    parts = [tensor_free(exceptional_lattice(quiver, alpha, ZZ, bound=12), m)
             for alpha, m in spec]
    return direct_sum_many(parts)


def multiset(result):
    return sorted((tuple(rep.dims), m) for rep, m in result.summands)


def test_decompose_plain_sum():
    x = planted_sum(K2, [((0, 1), 1), ((1, 2), 2)])
    out = decompose_rigid(x)
    assert multiset(out) == [((0, 1), 1), ((1, 2), 2)]
    assert out.certificate.is_isomorphism()
    assert out.certificate.target.dims == x.dims
    # hom ordering puts the source of maps first
    assert out.ordering == ((0, 1), (1, 2))


def test_decompose_conjugated_sum_multi_prime():
    rng = random.Random(21)
    x = planted_sum(A3, [((1, 1, 1), 1), ((0, 1, 1), 1)])
    mats = [random_unimodular(d, rng) for d in x.dims]
    y = conjugate_rep(x, mats, [invert(m) for m in mats])
    for p in (2, 3, 5, 7):
        out = decompose_rigid(y, aux_prime=p)
        assert multiset(out) == [((0, 1, 1), 1), ((1, 1, 1), 1)]
        assert out.certificate.is_isomorphism()


def test_decompose_single_exceptional():
    x = exceptional_lattice(K2, (2, 3), ZZ, bound=10)
    out = decompose_rigid(x)
    assert multiset(out) == [((2, 3), 1)]


def test_decompose_zero_rep():
    out = decompose_rigid(Rep.zero(ZZ, A2))
    assert out.summands == ()
    assert out.certificate.is_isomorphism()


def test_decompose_rejects_non_rigid():
    from quivlat.quiver import direct_sum
    bad = direct_sum(Rep.simple(ZZ, A2, 1), Rep.simple(ZZ, A2, 2))
    with pytest.raises(NotRigid):
        decompose_rigid(bad)


def test_decompose_json_shape():
    x = planted_sum(A2, [((1, 1), 1), ((1, 0), 1)])
    out = decompose_rigid(x)
    blob = out.to_json()
    assert blob == {
        "summands": [{"dims": [1, 1], "multiplicity": 1},
                     {"dims": [1, 0], "multiplicity": 1}],
        "ordering": [[1, 1], [1, 0]],
        "verified": True,
    }


def test_decompose_respects_hom_order():
    # Hom(P1, S1) != 0 on A2 forces P1 before S1 in the ordering
    x = planted_sum(A2, [((1, 0), 1), ((1, 1), 2)])
    out = decompose_rigid(x)
    assert out.ordering == ((1, 1), (1, 0))
    assert multiset(out) == [((1, 0), 1), ((1, 1), 2)]


def test_reassembly_matches_input_through_iso_test():
    rng = random.Random(5)
    x = planted_sum(K2, [((0, 1), 1), ((1, 2), 1)])
    mats = [random_unimodular(d, rng) for d in x.dims]
    y = conjugate_rep(x, mats, [invert(m) for m in mats])
    out = decompose_rigid(y)
    rebuilt = direct_sum_many([tensor_free(rep, m) for rep, m in out.summands])
    assert is_isomorphic_rigid(rebuilt, y)


# ---------------------------------------------------------------------------
# rigidity lifting


def test_lift_rigid_truncated_and_modular():
    x = Rep.from_matrix_rows(GF(2), A2, (1, 1), [[[1]]])
    lifted = lift_rigid(x, canonical_hom(Feps(2, 2), GF(2)))
    assert lifted.ring == Feps(2, 2)
    assert base_change(lifted, canonical_hom(Feps(2, 2), GF(2))) == x
    assert is_rigid(lifted)

    x2 = Rep.from_matrix_rows(Zmod(2), K2, (1, 2), [[[1], [0]], [[0], [1]]])
    lifted2 = lift_rigid(x2, canonical_hom(Zmod(4), Zmod(2)))
    assert lifted2.ring == Zmod(4)
    assert base_change(lifted2, canonical_hom(Zmod(4), Zmod(2))) == x2
    assert is_rigid(lifted2)


def test_lift_rigid_identity_hom():
    x = Rep.simple(GF(3), A2, 1)
    from quivlat.rings import identity_hom
    assert lift_rigid(x, identity_hom(GF(3))) == x


def test_lift_rigid_guards():
    x = Rep.from_matrix_rows(Zmod(2), A2, (1, 1), [[[1]]])
    with pytest.raises(NotNilpotentKernel):
        lift_rigid(x, canonical_hom(Zmod(6), Zmod(2)))
    floppy = Rep.from_matrix_rows(GF(2), Quiver(1, ((1, 1),)), (1,), [[[1]]])
    with pytest.raises(NotRigid):
        lift_rigid(floppy, canonical_hom(Feps(2, 2), GF(2)))


def test_lift_rigid_many_f2_reps_to_both_targets():
    # all rigid Kronecker shapes with dims (1, 2): column pairs spanning F2^2
    reps = []
    for c0 in ((1, 0), (0, 1), (1, 1)):
        for c1 in ((1, 0), (0, 1), (1, 1)):
            if c0 != c1:
                reps.append(Rep.from_matrix_rows(
                    GF(2), K2, (1, 2), [[[c0[0]], [c0[1]]], [[c1[0]], [c1[1]]]]))
    assert len(reps) == 6
    for rep in reps:
        assert is_rigid(rep)
        up = lift_rigid(rep, canonical_hom(Feps(2, 2), GF(2)))
        assert is_rigid(up)
        z2 = Rep.from_matrix_rows(Zmod(2), K2, (1, 2),
                                  [[list(r) for r in m.entries] for m in rep.mats])
        up2 = lift_rigid(z2, canonical_hom(Zmod(4), Zmod(2)))
        assert is_rigid(up2)
        assert base_change(up2, canonical_hom(Zmod(4), Zmod(2))) == z2
