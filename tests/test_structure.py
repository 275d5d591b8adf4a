"""Real Schur roots, exceptional lattices, decomposition, and lifting."""

import random

import pytest

from test_orbit_walk import _orbit_members
from test_summand_peel import QUIVERS as PEEL_QUIVERS, TOTAL as PEEL_TOTAL
from test_summand_peel import TOTALS as PEEL_TOTALS, generic_ext

from quivlat import mutation, structure
from quivlat.elimination import invert, is_invertible
from quivlat.errors import (
    BoundExceeded,
    DimensionMismatch,
    NonFreeCokernel,
    NotNilpotentKernel,
    NotRigid,
    NotSchurRoot,
    ParseError,
    PeelFailure,
    TheoremViolation,
)
from quivlat.homology import hom_ext, is_exceptional, is_rigid
from quivlat.mutation import orbit_search, standard_sequence
from quivlat.quiver import (
    Quiver,
    Rep,
    base_change,
    direct_sum_many,
    euler_form,
    projective_rep,
    tensor_free,
)
from quivlat.rings import ExactMatrix, Feps, GF, QQ, ZZ, Zmod, canonical_hom
from quivlat.structure import (
    SCHUR_BOUNDED_FALSE,
    SCHUR_PREFILTER_FALSE,
    SCHUR_REAL,
    decompose_rigid,
    exceptional_lattice,
    generic_dims,
    is_isomorphic_rigid,
    is_real_schur_root,
    lift_rigid,
    rigid_isomorphism,
    schur_root_status,
)
from quivlat.verify import SUITES, conjugate_rep, random_unimodular, run_suite

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
K2 = Quiver(2, ((1, 2), (1, 2)))

ALL_RINGS = (ZZ, QQ, GF(3), Zmod(4), Zmod(6), Feps(2, 2))


# ---------------------------------------------------------------------------
# wrong-type arguments to the structure entry points

RIGID = Rep.simple(ZZ, K2, 1)

# each is refused with ParseError where the value enters, not as a TypeError
# or AttributeError from deeper in, and bools and floats are not taken for
# int bounds: mutation._check_bound owns the bound, quiver._check_dims the
# quiver and quiver._check_compatible the representation
WRONG_TYPES = {
    "schur_root_status(K2, a, bound='5')": lambda: schur_root_status(K2, (1, 2), bound="5"),
    "exceptional_lattice(K2, a, bound='5')": lambda: exceptional_lattice(K2, (1, 2), bound="5"),
    "generic_dims(K2, a, b, bound='5')": lambda: generic_dims(K2, (0, 1), (1, 2), bound="5"),
    "decompose_rigid(x, bound='5')": lambda: decompose_rigid(RIGID, bound="5"),
    "is_real_schur_root(K2, a, bound=None)": lambda: is_real_schur_root(K2, (1, 2), bound=None),
    "schur_root_status(None, a)": lambda: schur_root_status(None, (1, 2)),
    "exceptional_lattice(None, a)": lambda: exceptional_lattice(None, (1, 2)),
    "decompose_rigid(None)": lambda: decompose_rigid(None),
    "lift_rigid(None, hom)": lambda: lift_rigid(None, canonical_hom(ZZ, GF(2))),
    "is_exceptional(None)": lambda: is_exceptional(None),
    "schur_root_status(K2, a, bound=5.0)": lambda: schur_root_status(K2, (1, 2), bound=5.0),
    "schur_root_status(K2, a, bound=True)": lambda: schur_root_status(K2, (5, 6), bound=True),
    "decompose_rigid(x, bound=2.5)": lambda: decompose_rigid(RIGID, bound=2.5),
}


@pytest.mark.parametrize("call", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_structure_entry_points_refuse_wrong_types(call):
    with pytest.raises(ParseError):
        call()


def test_every_default_bound_is_the_one_constant(monkeypatch):
    # mutation._DEFAULT_BOUND is the one default: every public bound
    # parameter reads it, and rigid_isomorphism, which takes none,
    # decomposes at it
    for fn in (schur_root_status, is_real_schur_root, exceptional_lattice, generic_dims,
               decompose_rigid, orbit_search):
        assert fn.__kwdefaults__ == {"bound": mutation._DEFAULT_BOUND}, fn.__name__
    bounds = []
    decompose = structure._decompose

    def recording(x, rigid, bound):
        bounds.append(bound)
        return decompose(x, rigid, bound)

    monkeypatch.setattr(structure, "_decompose", recording)
    assert rigid_isomorphism(RIGID, RIGID) is not None
    assert bounds == [mutation._DEFAULT_BOUND] * 2


def test_a_bound_below_one_is_bound_exceeded():
    with pytest.raises(BoundExceeded):
        schur_root_status(K2, (1, 2), bound=0)
    with pytest.raises(BoundExceeded):
        decompose_rigid(RIGID, bound=0)


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
# the dimension-vector orbit walk and replayed witnesses

A3_OP = Quiver(3, ((2, 1), (3, 2)))
K3 = Quiver(2, ((1, 2), (1, 2), (1, 2)))
TRIANGLE = Quiver(3, ((1, 2), (2, 3), (1, 3)))
WALKED = [(K2, 20), (A3, 12), (A3_OP, 12), (K3, 14), (TRIANGLE, 10)]
WALKED_IDS = ("kronecker", "A3", "A3-opposite", "3-kronecker", "triangle")


@pytest.fixture
def fresh_replays():
    mutation._walk.cache_clear()


@pytest.mark.parametrize("quiver,bound", WALKED, ids=WALKED_IDS)
def test_dims_walk_visits_the_representation_walk_in_order(quiver, bound):
    members = _orbit_members(standard_sequence(ZZ, quiver), bound)
    assert list(mutation._walk(quiver, bound, None).full()[1]) == [r.dims for r in members]


@pytest.mark.parametrize("largest_first", (False, True), ids=("smallest", "largest"))
@pytest.mark.parametrize("quiver,bound", [(A2, 12)] + WALKED,
                         ids=("A2",) + WALKED_IDS)
def test_shared_walk_gives_the_fresh_search_witnesses(fresh_replays, quiver, bound,
                                                      largest_first):
    orbit = orbit_search(standard_sequence(ZZ, quiver), bound=bound)
    for alpha in sorted(orbit, key=sum, reverse=largest_first):
        assert exceptional_lattice(quiver, alpha, bound=bound) == orbit[alpha]
        assert schur_root_status(quiver, alpha, bound=bound) == SCHUR_REAL
    assert mutation._walk.cache_info().currsize == 1
    for state, seq in mutation._walk(quiver, bound, None).replays().items():
        assert seq.dims_tuple() == state


class _Deadline(BaseException):
    """Stands in for an interrupt or an alarm raised mid-replay."""


def test_interrupted_replay_does_not_poison_later_queries(fresh_replays, monkeypatch):
    original = mutation.braid_act
    calls = []

    def braid_act_failing_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise _Deadline()
        return original(*args, **kwargs)

    monkeypatch.setattr(mutation, "braid_act", braid_act_failing_once)
    with pytest.raises(_Deadline):
        exceptional_lattice(K2, (5, 6), bound=12)
    assert len(calls) == 3
    # the start and the two sequences whose braid_act returned, nothing more
    assert len(mutation._walk(K2, 12, None).replays()) == 3
    for state, seq in mutation._walk(K2, 12, None).replays().items():
        assert seq.dims_tuple() == state
    orbit = orbit_search(standard_sequence(ZZ, K2), bound=12)
    for alpha in ((5, 6), (3, 4), (6, 5)):
        assert exceptional_lattice(K2, alpha, bound=12) == orbit[alpha]


def test_schur_status_at_the_default_bound_needs_no_representations():
    import signal

    def hung(signum, frame):
        raise AssertionError("classification did not stop")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        assert schur_root_status(K2, (31, 32)) == SCHUR_BOUNDED_FALSE
        assert schur_root_status(K2, (29, 30)) == SCHUR_REAL
        assert schur_root_status(TRIANGLE, (20, 20, 21)) == SCHUR_BOUNDED_FALSE
        assert schur_root_status(TRIANGLE, (20, 19, 19)) == SCHUR_REAL
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_large_bounds_walk_and_replay_without_recursion(fresh_replays, monkeypatch):
    assert schur_root_status(K2, (4999, 5000), bound=10000) == SCHUR_REAL
    assert schur_root_status(K2, (5000, 5001), bound=10000) == SCHUR_BOUNDED_FALSE
    calls = []

    def braid_act_counting(seq, i, *, inverse=False):
        calls.append((i, inverse))
        return seq

    # replaying a braid word of length 4999 only counts its letters here
    monkeypatch.setattr(mutation, "braid_act", braid_act_counting)
    steps, first = mutation._walk(K2, 10000, None).full()
    start = {next(iter(steps)): standard_sequence(ZZ, K2)}
    mutation._orbit_sequence(steps, start, first[(4999, 5000)])
    assert len(calls) == 4999


# ---------------------------------------------------------------------------
# generic Hom and Ext, read off the exceptional witnesses over Q


@pytest.mark.parametrize("name", PEEL_QUIVERS)
def test_generic_ext_is_the_ext_of_the_exceptional_witnesses(name):
    """generic_dims against Schofield's recursion on every pair of roots up
    to total 12 (8 on the four-vertex quivers): the Ext rank is the
    recursion's, and hom - ext is the Euler form."""
    quiver, total = PEEL_QUIVERS[name], PEEL_TOTALS.get(name, PEEL_TOTAL)
    roots = [r for r in mutation._walk(quiver, total, None).full()[1]
             if any(r) and sum(r) <= total]
    assert len(roots) >= 3
    table = {}
    for alpha in roots:
        for beta in roots:
            gd = generic_dims(quiver, alpha, beta, bound=total)
            assert gd.ext_rank == generic_ext(quiver, alpha, beta, table), (alpha, beta)
            assert gd.hom_rank - gd.ext_rank == euler_form(quiver, alpha, beta), (alpha, beta)


def test_generic_dims_is_one_hom_ext_over_q(monkeypatch):
    # Schofield's recursion on these roots tests up to (12 * 12 * 13)^2
    # pairs of subdimension vectors; the witnesses need one hom_ext
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return hom_ext(x, y)

    monkeypatch.setattr(structure, "hom_ext", counting)
    dims = generic_dims(TRIANGLE, (11, 11, 12), (12, 11, 11))
    assert (dims.hom_rank, dims.ext_rank) == (22, 0)
    assert [(x.ring, x.dims, y.ring, y.dims) for x, y in calls] == [
        (QQ, (11, 11, 12), QQ, (12, 11, 11))]


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
    for ring in (ZZ, GF(2), GF(3), GF(5), GF(7), Zmod(6), Feps(2, 2)):
        out = decompose_rigid(y if ring == ZZ else base_change(y, canonical_hom(ZZ, ring)))
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


def test_decompose_below_a_summand_root_exceeds_the_bound():
    # the summand (2,3) is in no walk state within bound 3 or 4, so no state
    # reads the vector (3,5) as a sum of its roots
    x = planted_sum(K2, [((1, 2), 1), ((2, 3), 1)])
    for bound in (3, 4):
        with pytest.raises(BoundExceeded, match=r"\[3, 5\].*bound %d" % bound):
            decompose_rigid(x, bound=bound)
    assert multiset(decompose_rigid(x, bound=5)) == [((1, 2), 1), ((2, 3), 1)]


def test_decompose_replays_no_summand_built_at_its_bound(fresh_replays, monkeypatch):
    # the summands are read off the walk at the caller's bound, so the
    # lattices exceptional_lattice built there are not replayed again
    roots = [((n, n + 1), (n + 1, n + 2)) for n in range(2, 9)]
    sums = [direct_sum_many([exceptional_lattice(K2, r, bound=60) for r in pair])
            for pair in roots]
    original, calls = mutation.braid_act, []

    def braid_act_counting(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(mutation, "braid_act", braid_act_counting)
    for x, pair in zip(sums, roots):
        assert multiset(decompose_rigid(x, bound=60)) == [(r, 1) for r in pair]
    assert calls == []


@pytest.mark.parametrize("quiver,dims,roots", [
    (TRIANGLE, (16, 16, 18), {(8, 8, 9): 2}),
    (K2, (41, 43), {(20, 21): 1, (21, 22): 1}),
], ids=("triangle", "kronecker"))
def test_summand_roots_of_large_vectors(quiver, dims, roots):
    assert structure._summand_roots(quiver, dims, 60) == roots


def test_summand_roots_outside_the_walk_exceed_the_bound():
    # (29,76) = (8,21) + (21,55) on the 3-Kronecker quiver, and (21,55) is
    # first reached by the walk above bound 60
    with pytest.raises(BoundExceeded, match=r"\[29, 76\].*bound 60"):
        structure._summand_roots(K3, (29, 76), 60)


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


def test_decompose_refuses_an_evaluation_map_that_is_not_split_mono(monkeypatch):
    # split mono is read off the cokernel, by quiver._split: free, of rank
    # rows - cols
    x = planted_sum(K2, [((0, 1), 1), ((1, 2), 2)])

    def torsion(theta):
        raise NonFreeCokernel("vertex 1 cokernel has torsion")

    def wrong_rank(theta):
        return theta.target, None

    for fake in (torsion, wrong_rank):
        monkeypatch.setattr("quivlat.quiver.cokernel_rep", fake)
        with pytest.raises(PeelFailure, match=r"evaluation map of \[1, 2\] is not split mono"):
            decompose_rigid(x)


def test_hom_order_is_lex_least_and_refuses_a_cycle():
    # on A2, Hom(P1, S1) and Hom(S2, P1) are nonzero
    assert structure._hom_order(A2, [(0, 1), (1, 0), (1, 1)]) == [(0, 1), (1, 1), (1, 0)]
    # with no arrows <(1, 0), (1, 1)> and <(1, 1), (1, 0)> are both 1
    with pytest.raises(TheoremViolation, match="has a cycle"):
        structure._hom_order(Quiver(2, ()), [(1, 0), (1, 1)])


def test_reassembly_matches_input_through_iso_test():
    rng = random.Random(5)
    x = planted_sum(K2, [((0, 1), 1), ((1, 2), 1)])
    mats = [random_unimodular(d, rng) for d in x.dims]
    y = conjugate_rep(x, mats, [invert(m) for m in mats])
    out = decompose_rigid(y)
    rebuilt = direct_sum_many([tensor_free(rep, m) for rep, m in out.summands])
    assert is_isomorphic_rigid(rebuilt, y)


def _random_invertible(ring, n, rng):
    elems = list(ring.elements())
    while True:
        m = ExactMatrix(ring, n, n, tuple(tuple(rng.choice(elems) for _ in range(n))
                                          for _ in range(n)))
        if is_invertible(m):
            return m


@pytest.mark.parametrize("ring", [Zmod(6), Zmod(12), Feps(3, 2)], ids=str)
def test_rigid_isomorphism_of_conjugated_sums_over_non_domains(ring):
    rng = random.Random(str(ring))
    for quiver, roots in ((K2, ((1, 2), (2, 3))), (A3, ((1, 1, 1), (0, 1, 1))),
                          (A2, ((1, 0), (1, 1)))):
        parts = [exceptional_lattice(quiver, r, ring) for r in roots]
        x = direct_sum_many(parts)
        for y in (x, direct_sum_many(parts[::-1])):
            mats = [_random_invertible(ring, d, rng) for d in y.dims]
            y = conjugate_rep(y, mats, [invert(m) for m in mats])
            assert hom_ext(x, y).hom.free_rank >= 2
            iso = rigid_isomorphism(x, y)
            assert iso.source == x and iso.target == y and iso.is_isomorphism()


def test_rigid_isomorphism_reads_each_rigidity_once(monkeypatch):
    # hom_ext caches nothing, so each read is a fresh hom_ext(x, x); the
    # decompositions reuse the two reads rigid_isomorphism makes itself
    counts = {"is_rigid": 0, "rigid_isomorphism": 0}

    def counting(name):
        original = getattr(structure, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(structure, name, wrapper)

    counting("is_rigid")
    counting("rigid_isomorphism")
    assert run_suite("braid", 0, 20)["failures"] == 0
    assert counts == {"is_rigid": 374, "rigid_isomorphism": 187}


@pytest.mark.parametrize("suite", SUITES)
def test_isomorphism_and_decomposition_suites_pass(suite):
    """Every verify suite; basechange runs two pinned loop-quiver cases first."""
    report = run_suite(suite, seed=0, size=20)
    assert report["cases"] == 20 + 2 * (suite == "basechange") and report["failures"] == 0, report


@pytest.mark.parametrize("args", [(["euler"],), ("nope",), ("euler", None), ("euler", 1.5),
                                  ("euler", 0, None), ("euler", 0, "3"), ("euler", 0, 2.0),
                                  ("euler", 0, True)], ids=repr)
def test_run_suite_refuses_a_name_not_in_suites_and_a_seed_or_size_not_an_int(args):
    # a None seed would make the suite nondeterministic, and True run one case
    with pytest.raises(ParseError):
        run_suite(*args)


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


def test_lift_rigid_along_the_bijection_onto_feps_order_one():
    hom = canonical_hom(GF(3), Feps(3, 1))
    x = exceptional_lattice(K2, (2, 3), GF(3))
    y = base_change(x, hom)
    assert y.ring == Feps(3, 1)
    assert lift_rigid(y, hom) == x


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
