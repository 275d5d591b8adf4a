"""Mutation of exceptional pairs and the braid action on sequences.

The worked cases on A2 pin the orientation conventions: mutating the pair
(P1, S1) on the left replaces it by (S2, P1), and the universal map in the
Hom case is evaluation X^h -> Y whose kernel or cokernel is the answer.
"""

import re

import pytest

from quivlat import mutation, quiver as quiver_module, structure
from quivlat.elimination import (
    ModulePresentation,
    cokernel,
    kernel_basis,
)
from quivlat.errors import (
    BoundExceeded,
    DimensionMismatch,
    IncompatibleBase,
    IncompatibleRing,
    NeitherMonoNorEpi,
    NotSchurRoot,
    ParseError,
    PreconditionViolated,
    TheoremViolation,
)
from quivlat.homology import hom_ext, is_exceptional
from quivlat.mutation import (
    ExcSequence,
    _left_mutation,
    braid_act,
    is_exceptional_pair,
    left_mutate,
    orbit_search,
    right_mutate,
    standard_sequence,
)
from quivlat.quiver import (
    Quiver,
    Rep,
    RepMorphism,
    projective_rep,
    tensor_free,
    tits_form,
)
from quivlat.rings import (
    ExactMatrix,
    GF,
    QQ,
    ZZ,
    Zmod,
)
from quivlat.structure import decompose_rigid, exceptional_lattice, is_isomorphic_rigid
from test_orbit_walk import _orbit_members
from test_sparse_checks import _old_dims_orbit

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
K2 = Quiver(2, ((1, 2), (1, 2)))
K3 = Quiver(2, ((1, 2), (1, 2), (1, 2)))
FREE2 = Quiver(2, ())
POINT = Quiver(1, ())


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
    # a non-domain is no refusal: Zmod:4 mutates like Z
    z4 = Rep.simple(Zmod(4), A2, 1)
    w4 = Rep.simple(Zmod(4), A2, 2)
    out = left_mutate(z4, w4)
    assert out.kind == "UniversalExtension" and out.rep.dims == (1, 1)
    assert out.rep.ring == Zmod(4) and is_exceptional_pair(out.rep, z4)


@pytest.mark.parametrize("ring, dx, dy, rows", [
    (QQ, 1, 2, ((0,), (0,))),     # cokernel case, but not injective
    (QQ, 2, 1, ((0, 0),)),        # kernel case, but not surjective
    (ZZ, 1, 2, ((2,), (0,))),     # injective, torsion cokernel
    (ZZ, 2, 1, ((2, 4),)),        # free kernel of rank 1, onto over Q only
    (Zmod(4), 1, 2, ((2,), (0,))),
    (Zmod(4), 2, 1, ((2, 0),)),
], ids=str)
def test_left_mutation_refuses_a_universal_map_neither_split_mono_nor_epi(
        ring, dx, dy, rows):
    # hand-built Hom case: one generator X -> Y on the one-vertex quiver,
    # the dimension vector asks for one side and the map is not split there
    x, y = Rep(ring, POINT, (dx,), ()), Rep(ring, POINT, (dy,), ())
    gen = RepMorphism(x, y, (ExactMatrix(ring, dy, dx, rows),))
    hom = ModulePresentation.from_invariant_factors(ring, [ring.zero])
    ext = ModulePresentation.from_invariant_factors(ring, [])
    with pytest.raises(NeitherMonoNorEpi):
        _left_mutation(x, y, hom, ext, (gen.vertex_maps,), ())


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


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_right_mutation_witnesses_compose_to_zero(ring):
    # right mutation dualises left mutation, so each witness must come back
    # with its direction and its kernel/cokernel role exchanged
    s1, s2, p1 = trio(ring)
    ker_case = right_mutate(p1, s1)
    coev = ker_case.universal_map
    assert ker_case.kind == "KernelOfUniversalMap"
    assert (coev.source, coev.target) == (p1, tensor_free(s1, 1))
    assert (ker_case.witness_in.source, ker_case.witness_in.target) == (ker_case.rep, p1)
    assert ker_case.witness_out is None
    assert coev.compose(ker_case.witness_in).is_zero
    assert all(kernel_basis(m).cols == 0 for m in ker_case.witness_in.vertex_maps)

    coker_case = right_mutate(s2, p1)
    coev = coker_case.universal_map
    assert coker_case.kind == "CokernelOfUniversalMap"
    assert (coev.source, coev.target) == (s2, tensor_free(p1, 1))
    assert (coker_case.witness_out.source, coker_case.witness_out.target) == (
        tensor_free(p1, 1), coker_case.rep)
    assert coker_case.witness_in is None
    assert coker_case.witness_out.compose(coev).is_zero
    assert all(cokernel(m).is_zero for m in coker_case.witness_out.vertex_maps)

    ext_case = right_mutate(s1, s2)
    win, wout = ext_case.witness_in, ext_case.witness_out
    assert ext_case.kind == "UniversalExtension" and ext_case.universal_map is None
    # 0 -> Y^d -> E -> X -> 0
    assert (win.source, win.target, wout.source, wout.target) == (
        tensor_free(s2, 1), ext_case.rep, ext_case.rep, s1)
    assert wout.compose(win).is_zero
    assert all(kernel_basis(m).cols == 0 for m in win.vertex_maps)
    assert all(cokernel(m).is_zero for m in wout.vertex_maps)


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


def _record_checks(monkeypatch) -> list:
    """From here on, every RepMorphism commutation check as a (source,
    target, inside an evaluation map) triple."""
    checks, inside = [], []
    real_check, real_evaluation_map = RepMorphism.__post_init__, mutation._evaluation_map

    def check(self):
        checks.append((self.source, self.target, bool(inside)))
        real_check(self)

    def evaluation_map(*args):
        inside.append(True)
        try:
            return real_evaluation_map(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(RepMorphism, "__post_init__", check)
    for module in (mutation, structure):
        monkeypatch.setattr(module, "_evaluation_map", evaluation_map)
    return checks


@pytest.mark.parametrize("mutate", [left_mutate, right_mutate])
def test_hom_generators_are_checked_once_in_the_evaluation_map(monkeypatch, mutate):
    # Hom((1,2), (2,3)) over Z is free of rank 2: the two generators commute
    # exactly when the evaluation map X^2 -> Y does, so that is checked once
    x, y = exceptional_lattice(K2, (1, 2)), exceptional_lattice(K2, (2, 3))
    checks = _record_checks(monkeypatch)
    mutate(x, y)
    assert hom_ext(x, y).hom.free_rank == 2
    assert [inside for _, _, inside in checks].count(True) == 1
    assert [(s, t) for s, t, _ in checks].count((x, y)) == 0


def test_a_decompose_peel_checks_its_hom_generators_once(monkeypatch):
    xi = exceptional_lattice(K2, (1, 2))
    x = tensor_free(xi, 2)   # one summand of multiplicity 2: one peel
    checks = _record_checks(monkeypatch)
    (summand, multiplicity), = decompose_rigid(x).summands
    assert summand == xi and multiplicity == 2
    assert [inside for _, _, inside in checks].count(True) == 1
    assert [(s, t) for s, t, _ in checks].count((xi, x)) == 0


A4 = Quiver(4, ((1, 2), (2, 3), (3, 4)))


def _kind(x: Rep, y: Rep) -> str:
    he = hom_ext(x, y)
    return "Hom" if not he.hom.is_zero else "Ext" if not he.ext.is_zero else "Unchanged"


def test_braid_act_builds_only_the_checks_that_guard_its_members(monkeypatch):
    # the Z replays to the three deepest roots of a lattice-orbit pass, from
    # a memo of their own, and two Unchanged steps: a Hom-case step builds its
    # evaluation map and its split witness, and no other step builds a morphism
    built = []   # (x, y, RepMorphism constructions) per braid_act call
    counter = [0]
    real_check, real_braid_act = RepMorphism.__post_init__, mutation.braid_act

    def check(self):
        counter[0] += 1
        real_check(self)

    def braid_act(seq, i, *, inverse=False):
        counter[0] = 0
        out = real_braid_act(seq, i, inverse=inverse)
        built.append((seq[i - 1], seq[i], counter[0]))
        return out

    monkeypatch.setattr(RepMorphism, "__post_init__", check)
    monkeypatch.setattr(mutation, "braid_act", braid_act)
    for quiver, root in ((K2, (6, 7)), (K2, (6, 5)), (A4, (1, 1, 1, 1))):
        steps, first = mutation._walk(quiver, mutation._DEFAULT_BOUND, None).full()
        memo = {next(iter(steps)): standard_sequence(ZZ, quiver)}
        state = first[root]
        assert mutation._orbit_sequence(steps, memo, state)[state.index(root)].dims == root
    for inverse in (False, True):   # an Unchanged step each way
        mutation.braid_act(standard_sequence(ZZ, FREE2), 1, inverse=inverse)
    monkeypatch.undo()
    kinds = [(_kind(x, y), n) for x, y, n in built]
    assert {kind for kind, _ in kinds} == {"Hom", "Ext", "Unchanged"}
    assert all(n == (2 if kind == "Hom" else 0) for kind, n in kinds), kinds


@pytest.mark.parametrize("quiver,root,most", ((K2, (6, 7), 11), (K2, (6, 5), 8),
                                              (A4, (1, 1, 1, 1), 12)))
def test_a_cold_lattice_walks_only_as_far_as_its_root(quiver, root, most):
    # the three deepest replays of a lattice-orbit pass: their walks at the
    # default bound hold 59 and 125 states, and are expanded only until the
    # root is reached
    mutation._walk.cache_clear()
    assert exceptional_lattice(quiver, root).dims == root
    walk = mutation._walk(quiver, mutation._DEFAULT_BOUND, None)
    assert 0 < walk.expanded <= most, walk.expanded
    assert walk.reached < len(_old_dims_orbit(quiver, mutation._DEFAULT_BOUND)[0])


def test_an_expansion_that_raises_leaves_the_walk_as_it_was(monkeypatch):
    # _mutated_dims raises once, in its k-th call, for each k up to 40, on a
    # fresh walk of A4: at some k mid-expansion, after successors of the
    # state were found.  The walk keeps the states it had, and the next read
    # of the same cached walk is the walk read in one go
    want_steps, want_first = _old_dims_orbit(A4, 12)
    real = mutation._mutated_dims
    for k in range(1, 41):
        mutation._walk.cache_clear()
        calls = []

        def raising_once(f, e, c):
            calls.append(None)
            if len(calls) == k:
                raise TheoremViolation("planted")
            return real(f, e, c)

        monkeypatch.setattr(mutation, "_mutated_dims", raising_once)
        walk = mutation._walk(A4, 12, None)
        seen = []
        with pytest.raises(TheoremViolation, match="planted"):
            for _ in walk.states():
                seen.append((dict(walk.steps), dict(walk.first), walk.expanded))
        steps, first, expanded = seen[-1]
        assert walk.expanded == expanded and len(calls) == k
        assert list(walk.steps.items()) == list(steps.items()) and walk.reached == len(steps)
        assert list(walk.first.items()) == list(first.items())
        assert mutation._walk(A4, 12, None) is walk
        got_steps, got_first = mutation._walk(A4, 12, None).full()
        assert list(got_steps.items()) == list(want_steps.items()), k
        assert list(got_first.items()) == list(want_first.items()), k


def test_the_standard_start_over_any_ring_reads_the_one_walk_of_its_orbit():
    # orbit_search from the standard sequence, over Z or F:3, reads the walk
    # exceptional_lattice advanced, keyed None, and expands nothing more
    mutation._walk.cache_clear()
    lattice = exceptional_lattice(K2, (6, 7))
    walk = mutation._walk(K2, mutation._DEFAULT_BOUND, None)
    expanded = walk.expanded
    for ring in (ZZ, GF(3)):
        found = orbit_search(standard_sequence(ring, K2), (6, 7))
        assert found.ring == ring and found.dims == (6, 7)
        assert ring != ZZ or found == lattice
    assert mutation._walk.cache_info().currsize == 1
    assert walk.expanded == expanded


def test_the_standard_start_over_z_reads_the_replays_of_its_walk(monkeypatch):
    # after a cold exceptional_lattice, orbit_search from the standard
    # sequence over Z replays nothing: the walk keeps the sequences the
    # lattice replayed (_OrbitWalk.replays), and the search reads them.
    # Over F:3, or from a start equal to no member of them, it replays its own
    mutation._walk.cache_clear()
    built, real_check = [], RepMorphism.__post_init__
    monkeypatch.setattr(RepMorphism, "__post_init__",
                        lambda self: built.append(1) or real_check(self))
    lattice = exceptional_lattice(K2, (6, 7))
    assert len(built) > 0
    del built[:]
    found = orbit_search(standard_sequence(ZZ, K2), (6, 7))
    assert found == lattice and len(built) == 0
    walk = mutation._walk(K2, mutation._DEFAULT_BOUND, None)
    assert found is walk.replays()[walk.find((6, 7))][walk.find((6, 7)).index((6, 7))]
    replayed = len(walk.replays())
    assert orbit_search(standard_sequence(GF(3), K2), (6, 7)).ring == GF(3) and built
    assert len(walk.replays()) == replayed


CYCLIC = Quiver(3, ((1, 2), (2, 3), (3, 2)))


@pytest.mark.parametrize("start,bound,walks", [
    (braid_act(standard_sequence(GF(3), K2), 1), 12, 1),
    (braid_act(standard_sequence(ZZ, K2), 1, inverse=True), 12, 1),
    # n simples in another order: the standard walk is read for its start
    (braid_act(standard_sequence(ZZ, FREE2), 1), 4, 2),
    (ExcSequence((Rep.simple(ZZ, CYCLIC, 1),)), 4, 1),   # no standard sequence
], ids=("kronecker-F3", "kronecker-inverse", "free-swapped", "cyclic-partial"))
def test_any_other_start_keeps_a_walk_of_its_own(start, bound, walks):
    # the answers of the representation walk from that start, read off one
    # cached walk keyed by the start's dimension vectors
    mutation._walk.cache_clear()
    want = {rep.dims: rep for rep in _orbit_members(start, bound)}
    got = orbit_search(start, bound=bound)
    assert list(got) == list(want) and all(got[d] == want[d] for d in want)
    assert all(orbit_search(start, d, bound=bound) == want[d] for d in want)
    assert mutation._walk.cache_info().currsize == walks
    quiver, dims = start[0].quiver, start.dims_tuple()
    own = mutation._walk(quiver, bound, dims)
    assert own.start == dims and own.expanded == own.reached
    if walks == 2:
        assert mutation._walk(quiver, bound, None).expanded == 0
    assert mutation._walk.cache_info().currsize == walks


def test_a_warm_status_checks_its_root_once(monkeypatch):
    # the Tits form is read off the vector _check_dims returned, also in
    # the NotSchurRoot message of a vector it rejects
    for alpha in ((6, 7), (1, 1)):
        structure.schur_root_status(K2, alpha)
    calls, real = [], quiver_module._vector
    monkeypatch.setattr(quiver_module, "_vector", lambda q, d: calls.append(d) or real(q, d))
    assert structure.schur_root_status(K2, (6, 7)) == structure.SCHUR_REAL
    assert calls == [(6, 7)]
    with pytest.raises(NotSchurRoot, match=re.escape("tits form of [1, 1] is 0, not 1")):
        exceptional_lattice(K2, (1, 1))
    assert calls == [(6, 7), (1, 1)]


def _dual_rep(x: Rep, quiver: Quiver) -> Rep:
    return Rep(x.ring, quiver, x.dims, tuple(m.transpose() for m in x.mats))


def _eager_witnesses(mutate, x: Rep, y: Rep, out) -> tuple:
    """The three witnesses of out, a left extension or a right mutation,
    built at once from the parts they are made of: the extension blocks, or
    the left mutation of (DY, DX) on the opposite quiver with each of its
    witnesses dualised back."""
    if mutate is left_mutate:
        d = hom_ext(x, y).ext.free_rank
        return (None,) + mutation._sub_quot_witnesses(y, out.rep, tensor_free(x, d))
    q = x.quiver
    opposite = Quiver(q.vertex_count, tuple((h, t) for t, h in q.arrows))
    left = left_mutate(_dual_rep(y, opposite), _dual_rep(x, opposite))

    def back(f):
        return f and RepMorphism(_dual_rep(f.target, q), _dual_rep(f.source, q),
                                 tuple(m.transpose() for m in f.vertex_maps))

    return back(left.universal_map), back(left.witness_out), back(left.witness_in)


WITNESS_FIELDS = ("universal_map", "witness_in", "witness_out")


@pytest.mark.parametrize("mutate", [left_mutate, right_mutate], ids=lambda f: f.__name__)
@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=str)
def test_a_witness_read_later_runs_its_check_and_equals_an_eager_one(monkeypatch, mutate, ring):
    s1, s2, p1 = trio(ring)
    pairs = [(s1, s2), (p1, s1), (s2, p1),
             (Rep.simple(ring, K2, 1), Rep.simple(ring, K2, 2)),
             (Rep.simple(ring, FREE2, 1), Rep.simple(ring, FREE2, 2))]
    for x, y in pairs:
        out = mutate(x, y)
        lazy = "_recipe" in out.__dict__
        assert lazy == (mutate is right_mutate or out.kind == "UniversalExtension")
        checked = []
        real_check = RepMorphism.__post_init__
        monkeypatch.setattr(RepMorphism, "__post_init__",
                            lambda self: checked.append(self) or real_check(self))
        got = [getattr(out, name) for name in WITNESS_FIELDS]
        monkeypatch.undo()
        assert "_recipe" not in out.__dict__
        assert all(getattr(out, name) is w for name, w in zip(WITNESS_FIELDS, got))   # kept
        for w in got:
            if w is not None:
                assert any(c is w for c in checked) == lazy, (out.kind, x.dims, y.dims)
        if lazy:   # a left Hom case's witnesses are built with it, eagerly
            assert tuple(got) == _eager_witnesses(mutate, x, y, out), (out.kind, x.dims)
        assert sum(w is not None for w in got) == (0 if out.kind == "Unchanged" else 2)


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


SEQ = standard_sequence(ZZ, K2)

# wrong-type arguments to the mutation entry points; each is refused with
# ParseError where the value enters, not as an AttributeError or TypeError
# from deeper in, and bools and floats are not taken for ints
WRONG_TYPES = {
    "ExcSequence((3,))": lambda: ExcSequence((3,)),
    "ExcSequence((s1, 3))": lambda: ExcSequence((SEQ[0], 3)),
    "ExcSequence(None)": lambda: ExcSequence(None),
    "braid_act(seq, '1')": lambda: braid_act(SEQ, "1"),
    "braid_act(seq, 1.0)": lambda: braid_act(SEQ, 1.0),
    "braid_act(seq, True)": lambda: braid_act(SEQ, True),
    "braid_act(3, 1)": lambda: braid_act(3, 1),
    "braid_act(seq, 1, inverse='no')": lambda: braid_act(SEQ, 1, inverse="no"),
    "braid_act(seq, 1, inverse=None)": lambda: braid_act(SEQ, 1, inverse=None),
    "braid_act(seq, 1, inverse=1)": lambda: braid_act(SEQ, 1, inverse=1),
    "orbit_search(3)": lambda: orbit_search(3),
    "orbit_search(seq, bound='5')": lambda: orbit_search(SEQ, bound="5"),
    "orbit_search(seq, bound=5.0)": lambda: orbit_search(SEQ, bound=5.0),
    "left_mutate(s1, 3)": lambda: left_mutate(SEQ[0], 3),
    "standard_sequence(ZZ, 3)": lambda: standard_sequence(ZZ, 3),
    "standard_sequence(3, K2)": lambda: standard_sequence(3, K2),
}


@pytest.mark.parametrize("call", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_mutation_entry_points_refuse_wrong_types(call):
    with pytest.raises(ParseError):
        call()


DOUBLED = tensor_free(Rep.simple(ZZ, K2, 1), 2)   # rigid, but End has rank 4

# is_exceptional and is_exceptional_pair check their arguments before they
# hash them or decide: an unhashable argument is refused, not hashed, and a
# bad second member is refused whether or not the first is exceptional
EXCEPTIONALITY_PROBES = {
    "is_exceptional([1])": (lambda: is_exceptional([1]), ParseError),
    "is_exceptional_pair([1], s1)": (lambda: is_exceptional_pair([1], SEQ[0]), ParseError),
    "is_exceptional_pair(s1, [1])": (lambda: is_exceptional_pair(SEQ[0], [1]), ParseError),
    "is_exceptional_pair(x, [1])": (lambda: is_exceptional_pair(DOUBLED, [1]), ParseError),
    "is_exceptional_pair(x, None)": (lambda: is_exceptional_pair(DOUBLED, None), ParseError),
    "is_exceptional_pair(x, y over F:2)": (
        lambda: is_exceptional_pair(DOUBLED, Rep.simple(GF(2), K2, 2)), IncompatibleRing),
    "is_exceptional_pair(s1, y over F:2)": (
        lambda: is_exceptional_pair(SEQ[0], Rep.simple(GF(2), K2, 2)), IncompatibleRing),
    "is_exceptional_pair(x, y on A2)": (
        lambda: is_exceptional_pair(DOUBLED, Rep.simple(ZZ, A2, 2)), IncompatibleBase),
}


@pytest.mark.parametrize("call,error", EXCEPTIONALITY_PROBES.values(),
                         ids=EXCEPTIONALITY_PROBES)
def test_exceptionality_checks_refuse_before_they_hash_or_decide(call, error):
    assert not is_exceptional(DOUBLED)
    with pytest.raises(error):
        call()


# (call, error, message prefix) of the mutation layer's refusals that no
# other test reaches; orbit_search reads its target through
# quiver._check_dims, and once answered None for both of these
MUTATION_REFUSALS = {
    "ExcSequence-not-exceptional": (lambda: ExcSequence((DOUBLED,)), PreconditionViolated,
                                    "member 1 is not exceptional"),
    "orbit_search-wrong-length": (lambda: orbit_search(SEQ, (1, 2, 3)), DimensionMismatch,
                                  "need 2 dimensions, got 3"),
    "orbit_search-negative": (lambda: orbit_search(SEQ, (-1, 2)), DimensionMismatch,
                              "negative dimension"),
}


@pytest.mark.parametrize("call, error, prefix", MUTATION_REFUSALS.values(),
                         ids=MUTATION_REFUSALS)
def test_mutation_refusals_name_their_error(call, error, prefix):
    with pytest.raises(error, match="^" + re.escape(prefix)):
        call()


def test_mixed_members_are_refused_by_the_compatibility_check():
    s1, s2, _ = trio(ZZ)
    with pytest.raises(IncompatibleRing):
        ExcSequence((s1, Rep.simple(GF(2), A2, 2)))
    with pytest.raises(IncompatibleBase):
        ExcSequence((s1, Rep.simple(ZZ, K2, 2)))
    with pytest.raises(IncompatibleRing):
        left_mutate(s1, Rep.simple(GF(2), A2, 2))
    with pytest.raises(IncompatibleBase):
        right_mutate(Rep.simple(ZZ, K2, 1), s2)


@pytest.mark.parametrize("quiver,bound", [(A2, 12), (A3, 12), (K2, 12), (K3, 12)],
                         ids=("A2", "A3", "kronecker", "3-kronecker"))
def test_orbit_over_q_and_z_see_the_same_dims_in_order(quiver, bound):
    # mutation commutes with the flat base change Z -> Q, so the integral
    # walk alone decides which roots the orbit reaches, and in which order
    over_q = orbit_search(standard_sequence(QQ, quiver), bound=bound)
    over_z = orbit_search(standard_sequence(ZZ, quiver), bound=bound)
    assert list(over_q) == list(over_z)
