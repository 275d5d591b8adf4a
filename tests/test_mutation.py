"""Mutation of exceptional pairs and the braid action on sequences.

The worked cases on A2 pin the orientation conventions: mutating the pair
(P1, S1) on the left replaces it by (S2, P1), and the universal map in the
Hom case is evaluation X^h -> Y whose kernel or cokernel is the answer.
"""

import pytest

from quivlat.errors import (
    BoundExceeded,
    DimensionMismatch,
    NotComputable,
    PreconditionViolated,
)
from quivlat.homology import hom_ext, is_exceptional
from quivlat.mutation import (
    ExcSequence,
    braid_act,
    is_exceptional_pair,
    left_mutate,
    orbit_search,
    right_mutate,
    standard_sequence,
)
from quivlat.quiver import Quiver, Rep, is_isomorphic_rigid, projective_rep, tits_form
from quivlat.rings import GF, QQ, ZZ, Zmod

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
K2 = Quiver(2, ((1, 2), (1, 2)))
K3 = Quiver(2, ((1, 2), (1, 2), (1, 2)))
FREE2 = Quiver(2, ())


def trio(ring):
    return (Rep.simple(ring, A2, 1), Rep.simple(ring, A2, 2),
            projective_rep(ring, A2, 1))


# ---------------------------------------------------------------------------
# exceptional pairs


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=str)
def test_exceptional_pair_table(ring):
    s1, s2, p1 = trio(ring)
    assert is_exceptional_pair(s1, s2)
    assert is_exceptional_pair(p1, s1)
    assert is_exceptional_pair(s2, p1)
    # Hom(S2, P1) is the socle, so the flipped pair fails
    assert not is_exceptional_pair(p1, s2)
    # Ext(S1, S2) is nonzero, so the flipped pair fails
    assert not is_exceptional_pair(s2, s1)
    assert not is_exceptional_pair(s1, s1)


def test_exceptional_pair_rejects_nonexceptional_members():
    from quivlat.quiver import tensor_free
    s1, s2, _ = trio(ZZ)
    assert not is_exceptional_pair(tensor_free(s1, 2), s2)


# ---------------------------------------------------------------------------
# the four mutation cases on A2


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=str)
def test_left_mutation_cases(ring):
    s1, s2, p1 = trio(ring)
    ext_case = left_mutate(s1, s2)
    assert ext_case.kind == "UniversalExtension"
    assert ext_case.rep.dims == (1, 1)
    assert is_isomorphic_rigid(ext_case.rep, p1)

    ker_case = left_mutate(p1, s1)
    assert ker_case.kind == "KernelOfUniversalMap"
    assert ker_case.rep.dims == (0, 1)
    assert is_isomorphic_rigid(ker_case.rep, s2)

    coker_case = left_mutate(s2, p1)
    assert coker_case.kind == "CokernelOfUniversalMap"
    assert coker_case.rep.dims == (1, 0)
    assert is_isomorphic_rigid(coker_case.rep, s1)


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=str)
def test_right_mutation_cases(ring):
    s1, s2, p1 = trio(ring)
    ker_case = right_mutate(p1, s1)
    assert ker_case.kind == "KernelOfUniversalMap"
    assert is_isomorphic_rigid(ker_case.rep, s2)

    ext_case = right_mutate(s1, s2)
    assert ext_case.kind == "UniversalExtension"
    assert is_isomorphic_rigid(ext_case.rep, p1)

    coker_case = right_mutate(s2, p1)
    assert coker_case.kind == "CokernelOfUniversalMap"
    assert is_isomorphic_rigid(coker_case.rep, s1)


def test_unchanged_case_on_disconnected_quiver():
    s1 = Rep.simple(ZZ, FREE2, 1)
    s2 = Rep.simple(ZZ, FREE2, 2)
    res = left_mutate(s1, s2)
    assert res.kind == "Unchanged"
    assert res.rep == s2
    assert right_mutate(s1, s2).kind == "Unchanged"


def test_mutation_guards():
    s1, s2, p1 = trio(ZZ)
    with pytest.raises(PreconditionViolated):
        left_mutate(s2, s1)
    with pytest.raises(PreconditionViolated):
        left_mutate(p1, s2)
    z4 = Rep.simple(Zmod(4), A2, 1)
    w4 = Rep.simple(Zmod(4), A2, 2)
    with pytest.raises(NotComputable):
        left_mutate(z4, w4)


def test_mutation_witnesses_compose_to_zero():
    s1, s2, p1 = trio(QQ)
    ker_case = left_mutate(p1, s1)
    # kernel inclusion followed by the evaluation map dies
    assert ker_case.universal_map.compose(ker_case.witness_in).is_zero
    coker_case = left_mutate(s2, p1)
    assert coker_case.witness_out.compose(coker_case.universal_map).is_zero
    ext_case = left_mutate(s1, s2)
    # sub then quotient of the universal extension dies
    assert ext_case.witness_out.compose(ext_case.witness_in).is_zero


def test_universal_extension_on_kronecker():
    s1 = Rep.simple(ZZ, K2, 1)
    s2 = Rep.simple(ZZ, K2, 2)
    res = left_mutate(s1, s2)
    assert res.kind == "UniversalExtension"
    # Ext rank 2 means the middle has dimension (2, 1)
    assert res.rep.dims == (2, 1)
    assert is_exceptional(res.rep)
    back = right_mutate(res.rep, s1)
    assert is_isomorphic_rigid(back.rep, s2)


def test_left_then_right_inverse_on_samples():
    for ring in (ZZ, GF(2)):
        s1, s2, p1 = trio(ring)
        for x, y in ((s1, s2), (p1, s1), (s2, p1)):
            forward = left_mutate(x, y)
            back = right_mutate(forward.rep, x)
            assert is_isomorphic_rigid(back.rep, y)
            forward = right_mutate(x, y)
            back = left_mutate(y, forward.rep)
            assert is_isomorphic_rigid(back.rep, x)


# ---------------------------------------------------------------------------
# sequences and the braid action


def test_standard_sequence_orders_simples_by_sources():
    seq = standard_sequence(ZZ, A3)
    assert seq.dims_tuple() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rev = Quiver(2, ((2, 1),))
    assert standard_sequence(ZZ, rev).dims_tuple() == ((0, 1), (1, 0))


def test_sequence_validation():
    s1, s2, p1 = trio(ZZ)
    seq = ExcSequence((s1, s2))
    assert len(seq) == 2
    with pytest.raises(PreconditionViolated):
        ExcSequence((s2, s1))
    with pytest.raises(PreconditionViolated):
        ExcSequence((p1, s2))
    with pytest.raises(DimensionMismatch):
        ExcSequence(())


def test_braid_act_a2_orbit_cycles():
    seq = standard_sequence(ZZ, A2)
    once = braid_act(seq, 1)
    assert once.dims_tuple() == ((1, 1), (1, 0))
    twice = braid_act(once, 1)
    assert twice.dims_tuple() == ((0, 1), (1, 1))
    thrice = braid_act(twice, 1)
    assert thrice.dims_tuple() == ((1, 0), (0, 1))
    undone = braid_act(once, 1, inverse=True)
    assert undone.dims_tuple() == seq.dims_tuple()
    with pytest.raises(DimensionMismatch):
        braid_act(seq, 2)
    with pytest.raises(DimensionMismatch):
        braid_act(seq, 0)


def test_braid_relation_on_a3():
    for ring in (ZZ, GF(2)):
        seq = standard_sequence(ring, A3)
        lhs = braid_act(braid_act(braid_act(seq, 1), 2), 1)
        rhs = braid_act(braid_act(braid_act(seq, 2), 1), 2)
        assert lhs.dims_tuple() == rhs.dims_tuple()
        for a, b in zip(lhs.items, rhs.items):
            assert is_isomorphic_rigid(a, b)


def test_orbit_search_a2_complete():
    orbit = orbit_search(standard_sequence(ZZ, A2), bound=10)
    assert set(orbit) == {(1, 0), (0, 1), (1, 1)}
    for dims, rep in orbit.items():
        assert rep.dims == dims
        assert is_exceptional(rep)


def test_orbit_search_kronecker_roots():
    orbit = orbit_search(standard_sequence(ZZ, K2), bound=9)
    want = {(1, 0), (0, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 5), (5, 4)}
    assert want <= set(orbit)
    for dims in orbit:
        assert tits_form(K2, dims) == 1
    found = orbit_search(standard_sequence(ZZ, K2), (3, 4), bound=9)
    assert found is not None and found.dims == (3, 4)
    assert orbit_search(standard_sequence(ZZ, K2), (1, 1), bound=9) is None


def test_orbit_search_three_kronecker_fibonacci():
    # for three arrows the root dimensions follow every other Fibonacci number
    orbit = orbit_search(standard_sequence(ZZ, K3), bound=12)
    assert {(1, 0), (0, 1), (1, 3), (3, 1), (3, 8), (8, 3)} <= set(orbit)


def test_orbit_search_bound_guard():
    with pytest.raises(BoundExceeded):
        orbit_search(standard_sequence(ZZ, A2), bound=0)


@pytest.mark.parametrize("target", [(1.9, 2.2), (True, 2), ("1", "2"), 12], ids=repr)
def test_orbit_search_target_needs_exact_ints(target):
    with pytest.raises(DimensionMismatch):
        orbit_search(standard_sequence(ZZ, K2), target, bound=9)


@pytest.mark.parametrize("quiver,bound", [(A2, 12), (A3, 12), (K2, 12), (K3, 12)],
                         ids=("A2", "A3", "kronecker", "3-kronecker"))
def test_orbit_over_q_and_z_see_the_same_dims_in_order(quiver, bound):
    # mutation commutes with the flat base change Z -> Q, so the integral
    # walk alone decides which roots the orbit reaches, and in which order
    over_q = orbit_search(standard_sequence(QQ, quiver), bound=bound)
    over_z = orbit_search(standard_sequence(ZZ, quiver), bound=bound)
    assert list(over_q) == list(over_z)
