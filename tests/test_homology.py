"""Hom and Ext of representation pairs via the two-term complex.

Frozen values below were computed by hand from the defining equations
(commuting squares for Hom, the Euler form plus known projectives for Ext)
and double-checked against brute-force enumeration over small finite rings.
"""

import gc
import random
import types
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from quivlat.errors import IncompatibleRing, NotRigid, ParseError, PreconditionViolated
from quivlat.homology import (
    HomExtResult,
    _differential_rows,
    _elimination_offsets,
    check_base_change,
    differential,
    hom_ext,
    is_exceptional,
    is_rigid,
    rigid_hom_ext_ranks,
)
from quivlat.quiver import Quiver, Rep, euler_form, projective_rep, tensor_free, direct_sum
from quivlat.rings import ExactMatrix, Feps, GF, QQ, ZZ, Zmod, canonical_hom

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
K2 = Quiver(2, ((1, 2), (1, 2)))
LOOP = Quiver(1, ((1, 1),))


def jordan(ring, value):
    return Rep.from_matrix_rows(ring, LOOP, (1,), [[[value]]])


# ---------------------------------------------------------------------------
# the differential itself


def test_differential_one_dim_entries():
    x = Rep.from_matrix_rows(ZZ, A2, (1, 1), [[[3]]])
    y = Rep.from_matrix_rows(ZZ, A2, (1, 1), [[[5]]])
    d = differential(x, y)
    # d(f1, f2) = 5*f1 - f2*3 as a single row
    assert (d.rows, d.cols) == (1, 2)
    assert d.entries == ((5, -3),)


def test_differential_matches_direct_computation():
    """Apply d to random morphism candidates and compare against the
    commutator computed with plain matrix algebra."""
    rng = random.Random(2)
    ring = GF(5)
    for q in (A2, K2, A3):
        dims_x = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
        dims_y = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
        from quivlat.verify import random_rep
        x = random_rep(ring, q, dims_x, rng)
        y = random_rep(ring, q, dims_y, rng)
        d = differential(x, y)
        for _ in range(4):
            f = [tuple(tuple(rng.randrange(5) for _ in range(dims_x[i]))
                       for _ in range(dims_y[i])) for i in range(q.vertex_count)]
            # flatten column-major per vertex
            flat = []
            for i in range(q.vertex_count):
                for c in range(dims_x[i]):
                    for r in range(dims_y[i]):
                        flat.append(f[i][r][c])
            image = [0] * d.rows
            for rr in range(d.rows):
                image[rr] = sum(d.entries[rr][cc] * flat[cc]
                                for cc in range(d.cols)) % 5
            # direct commutator per arrow
            direct = []
            for a in range(q.arrow_count):
                t, h = q.tail(a), q.head(a)
                ya, xa = y.mats[a], x.mats[a]
                rows_h, cols_t = dims_y[h], dims_x[t]
                comm = [[0] * cols_t for _ in range(rows_h)]
                for r in range(rows_h):
                    for c in range(cols_t):
                        acc = 0
                        for k in range(dims_x[h]):
                            acc -= f[h][r][k] * xa.entries[k][c]
                        for k in range(dims_y[t]):
                            acc += ya.entries[r][k] * f[t][k][c]
                        comm[r][c] = acc % 5
                for c in range(cols_t):
                    for r in range(rows_h):
                        direct.append(comm[r][c])
            assert image == direct
    # Over Z and F_2[e]/(e^2), on a loop and on two vertices with loops and
    # parallel arrows, zero-dimensional vertices included: the placed rows,
    # in the vertex layout and in the elimination layout, against the
    # commutator Y_a f_t - f_h X_a multiplied out as matrices.
    two = Quiver(2, ((1, 1), (1, 2), (1, 2), (2, 2)))
    cases = [(LOOP, (2,), (3,)), (LOOP, (3,), (3,)), (LOOP, (0,), (2,)), (LOOP, (2,), (0,)),
             (two, (2, 3), (3, 2)), (two, (1, 3), (1, 3)), (two, (2, 1), (3, 1)),
             (two, (1, 2), (1, 3)), (two, (0, 3), (2, 1)), (two, (3, 0), (0, 2)),
             (two, (1, 0), (2, 0))]
    moved = 0
    for ring in (ZZ, Feps(2, 2)):
        pool = list(ring.elements()) if ring.is_finite else list(range(-4, 5))
        for q, dims_x, dims_y in cases:
            x = random_rep(ring, q, dims_x, rng)
            y = random_rep(ring, q, dims_y, rng)
            d = differential(x, y)
            off0 = _elimination_offsets(x, y)
            placed = _differential_rows(x, y, off0)[0]
            assert all(ring.nonzero(v) for row in placed for v in row.values())
            at = list(range(d.cols)) if off0 is None else [   # vertex column -> placed column
                o + k for o, a, b in zip(off0, dims_x, dims_y) for k in range(a * b)]
            moved += at != sorted(at)
            for _ in range(3):
                f = [ExactMatrix(ring, dims_y[v], dims_x[v], tuple(
                    tuple(rng.choice(pool) for _ in range(dims_x[v])) for _ in range(dims_y[v])))
                     for v in range(q.vertex_count)]
                flat = [m.entries[r][c] for m in f for c in range(m.cols) for r in range(m.rows)]
                direct = []
                for a in range(q.arrow_count):
                    t, h = q.tail(a), q.head(a)
                    comm = y.mats[a].mul(f[t]).sub(f[h].mul(x.mats[a]))
                    direct += [comm.entries[r][c]
                               for c in range(comm.cols) for r in range(comm.rows)]
                vec = ExactMatrix(ring, d.cols, 1, tuple((v,) for v in flat))
                assert [v for v, in d.mul(vec).entries] == direct, (ring, dims_x, dims_y)
                at_flat = dict(zip(at, flat))
                image = [ring.zero] * len(placed)
                for i, row in enumerate(placed):
                    for k, v in row.items():
                        image[i] = ring.add(image[i], ring.mul(v, at_flat[k]))
                assert image == direct, (ring, dims_x, dims_y)
    assert moved >= 4   # the elimination layout moved blocks


# ---------------------------------------------------------------------------
# frozen catalogs over small quivers


def a2_catalog(ring):
    s1 = Rep.simple(ring, A2, 1)
    s2 = Rep.simple(ring, A2, 2)
    p1 = projective_rep(ring, A2, 1)
    return {"S1": s1, "S2": s2, "P1": p1}


A2_HOM = {("S1", "S1"): 1, ("S1", "S2"): 0, ("S1", "P1"): 0,
          ("S2", "S1"): 0, ("S2", "S2"): 1, ("S2", "P1"): 1,
          ("P1", "S1"): 1, ("P1", "S2"): 0, ("P1", "P1"): 1}
A2_EXT = {key: 0 for key in A2_HOM}
A2_EXT[("S1", "S2")] = 1


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(7), Zmod(6), Feps(3, 2)], ids=str)
def test_a2_hom_ext_catalog(ring):
    cat = a2_catalog(ring)
    for (nx, ny), want_hom in A2_HOM.items():
        he = hom_ext(cat[nx], cat[ny])
        assert he.hom.is_free and he.hom.free_rank == want_hom, (nx, ny)
        assert he.ext.is_free and he.ext.free_rank == A2_EXT[(nx, ny)], (nx, ny)


def test_kronecker_values():
    s1 = Rep.simple(ZZ, K2, 1)
    s2 = Rep.simple(ZZ, K2, 2)
    p1 = projective_rep(ZZ, K2, 1)
    he = hom_ext(s1, s2)
    assert (he.hom.free_rank, he.ext.free_rank) == (0, 2)
    he = hom_ext(s2, p1)
    assert (he.hom.free_rank, he.ext.free_rank) == (2, 0)
    he = hom_ext(p1, s2)
    # P1's top is S1, so nothing maps onto the sink simple
    assert (he.hom.free_rank, he.ext.free_rank) == (0, 0)
    assert (hom_ext(p1, p1).hom.free_rank, hom_ext(p1, p1).ext.free_rank) == (1, 0)
    # P1 surjects onto its top S1 and nothing else maps there
    assert (hom_ext(p1, s1).hom.free_rank, hom_ext(p1, s1).ext.free_rank) == (1, 0)


def test_loop_quiver_torsion():
    x, y = jordan(ZZ, 0), jordan(ZZ, 2)
    he = hom_ext(x, y)
    assert he.hom.invariant_factors == ()
    assert he.ext.invariant_factors == (2,)
    end = hom_ext(y, y)
    assert end.hom.invariant_factors == (0,)
    assert end.ext.invariant_factors == (0,)


def test_loop_quiver_nilpotent_over_truncated_ring():
    ring = Feps(2, 2)
    eps = jordan(ring, (0, 1))
    he = hom_ext(eps, eps)
    # commuting with eps is no condition, so End is everything
    assert he.hom.free_rank == 1 and he.ext.free_rank == 1


def test_hom_generators_are_morphisms_and_span():
    ring = GF(2)
    s2 = Rep.simple(ring, K2, 2)
    p1 = projective_rep(ring, K2, 1)
    gens = hom_ext(s2, p1).hom_generators
    assert len(gens) == 2
    seen = set()
    for c0, c1 in product(range(2), repeat=2):
        maps = tuple(
            gens[0].vertex_maps[i].scale(c0).add(gens[1].vertex_maps[i].scale(c1))
            for i in range(2))
        seen.add(tuple(m.entries for m in maps))
    # four distinct morphisms, the whole Hom space over F2
    assert len(seen) == 4


def test_ext_cocycles_shape():
    s1 = Rep.simple(ZZ, K2, 1)
    s2 = Rep.simple(ZZ, K2, 2)
    co = hom_ext(s1, s2).ext_cocycles
    assert len(co) == 2
    for cocycle in co:
        assert len(cocycle) == K2.arrow_count
        for a, mat in enumerate(cocycle):
            assert (mat.rows, mat.cols) == (1, 1)


def test_hom_ext_checked():
    x = Rep.simple(ZZ, A2, 1)
    y = Rep.simple(ZZ, A2, 2)
    assert hom_ext(x, y) is not hom_ext(x, y)   # no result is kept
    with pytest.raises(IncompatibleRing):
        hom_ext(x, Rep.simple(GF(2), A2, 2))
    from quivlat.errors import IncompatibleBase
    with pytest.raises(IncompatibleBase):
        hom_ext(x, Rep.simple(ZZ, A3, 1))


# hom_ext, HomExtResult and differential check the pair, in
# _differential_rows, before either member's ring is read
S1 = Rep.simple(ZZ, A2, 1)
PAIR_PROBES = {
    "%s(%s)" % (fn.__name__, label): (fn, args, error)
    for fn in (hom_ext, HomExtResult, differential)
    for label, args, error in (
        ("None, None", (None, None), ParseError),
        ("None, x", (None, S1), ParseError),
        ("x, None", (S1, None), ParseError),
        ("[1], x", ([1], S1), ParseError),
        ("x, [1]", (S1, [1]), ParseError),
        ("x, y over F:2", (S1, Rep.simple(GF(2), A2, 2)), IncompatibleRing),
    )
}


@pytest.mark.parametrize("fn,args,error", PAIR_PROBES.values(), ids=PAIR_PROBES)
def test_pair_is_checked_before_its_ring_is_read(fn, args, error):
    with pytest.raises(error):
        fn(*args)


# ---------------------------------------------------------------------------
# rigidity and exceptionality


def test_rigidity_basics():
    assert is_rigid(Rep.zero(ZZ, A2))
    assert is_rigid(Rep.simple(ZZ, A2, 1))
    assert is_rigid(projective_rep(ZZ, K2, 1))
    mixed = direct_sum(Rep.simple(ZZ, A2, 1), Rep.simple(ZZ, A2, 2))
    assert not is_rigid(mixed)
    # Jordan block over Z deforms, so it is not rigid
    assert not is_rigid(jordan(ZZ, 2))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), Zmod(4), Zmod(6), Feps(2, 2)], ids=str)
def test_exceptional_basics(ring):
    p1 = projective_rep(ring, K2, 1)
    assert is_exceptional(p1)
    assert is_exceptional(Rep.simple(ring, A2, 1))
    assert not is_exceptional(Rep.zero(ring, A2))
    doubled = tensor_free(Rep.simple(ring, A2, 1), 2)
    # rigid but End has rank 4
    assert is_rigid(doubled) and not is_exceptional(doubled)


def test_one_diagonalisation_per_hom_ext(monkeypatch):
    from quivlat import elimination, homology
    calls = []
    diagonalize = elimination._Worksheet.diagonalize

    def counted(ws):
        calls.append((ws.rows, ws.cols))
        return diagonalize(ws)

    monkeypatch.setattr(elimination._Worksheet, "diagonalize", counted)
    homology._exceptional.cache_clear()
    x = projective_rep(Zmod(6), K2, 1)
    hom_ext(x, x)
    assert len(calls) == 1
    # exceptionality is read without hom_ext, and diagonalises nothing more
    assert is_exceptional(x)
    assert len(calls) == 1
    assert is_exceptional(x)
    assert len(calls) == 1


@pytest.mark.parametrize("ring", [ZZ, Zmod(6), Feps(2, 2), QQ, GF(3)], ids=str)
def test_witnesses_are_replayed_only_when_read(monkeypatch, ring):
    """Hom and Ext as modules replay no transform: hom_ext, is_rigid,
    rigid_hom_ext_ranks and cokernel read the diagonal alone, or over the
    fields the rank profile of one forward elimination, with no
    back-substitution.  The first read of the Hom generators replays the
    right transform once, or back-substitutes once, the first read of the
    Ext cocycles the inverse left one once (over the fields they are unit
    vectors, and need nothing), and a zero side replays nothing."""
    from quivlat import elimination
    calls = Counter()

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(elimination._Worksheet, "diagonalize",
                        counted("diagonalize", elimination._Worksheet.diagonalize))
    for name in ("_replayed", "_forward", "_back_substitute"):
        monkeypatch.setattr(elimination, name, counted(name, getattr(elimination, name)))
    s1, s2 = Rep.simple(ring, K2, 1), Rep.simple(ring, K2, 2)
    p1 = projective_rep(ring, K2, 1)
    for x, y in ((s1, s2), (s2, p1)):
        he = hom_ext(x, y)
        assert he.hom.is_free and he.ext.is_free
        assert is_rigid(x) and is_rigid(y)
        rigid_hom_ext_ranks(x, y)
    # one elimination per hom_ext call: each pair's own, two is_rigid, and
    # rigid_hom_ext_ranks's two is_rigid and its hom_ext
    calls_made = 2 * 6
    eliminated = "_forward" if ring.is_field else "diagonalize"
    assert calls == {eliminated: calls_made}
    ext_pair, hom_pair = hom_ext(s1, s2), hom_ext(s2, p1)
    calls_made += 2
    for he in (ext_pair, hom_pair):
        assert elimination.cokernel(he.differential) == he.ext
    assert calls == {eliminated: calls_made + 2}
    assert ext_pair.hom.is_zero and ext_pair.ext.free_rank == 2
    assert hom_pair.hom.free_rank == 2 and hom_pair.ext.is_zero
    # over the sheet rings each side's first read is one _replayed
    hom_read = {"_back_substitute" if ring.is_field else "_replayed": 1}
    both_read = {"_back_substitute": 1} if ring.is_field else {"_replayed": 2}
    assert len(hom_pair.hom_generators) == 2
    assert calls == {eliminated: calls_made + 2, **hom_read}
    for _ in range(2):
        assert len(ext_pair.ext_cocycles) == 2
        assert len(hom_pair.hom_generators) == 2
        assert calls == {eliminated: calls_made + 2, **both_read}
    assert ext_pair.hom_generators == () and hom_pair.ext_cocycles == ()
    assert calls == {eliminated: calls_made + 2, **both_read}


def _reachable(root):
    """{id: object} of what root holds, through instance dicts, containers
    and closures; not through classes, modules or a function's globals."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return seen


def test_result_keeps_no_worksheet(monkeypatch):
    """An exceptional self-pair over Z (Hom free of rank 1, Ext zero) keeps
    neither the worksheet's N nor its row operations, and once its Hom
    generators are read, no operation list at all.  A pair with Ext alone
    keeps only the row operations, until its cocycles are read.  A pair
    whose sheet paused at a residual keeps that sheet until its first
    witness read, which resumes it, and then neither N nor the sheet.
    None of them holds a matrix of the differential's shape until its
    differential is first read."""
    from quivlat import elimination, homology
    sheets = []

    class Recorded(elimination._Worksheet):
        def __init__(self, *args):
            sheets.append(self)
            super().__init__(*args)

    def dense_differentials(he):
        d = homology.differential(he.x, he.y)
        return [m for m in _reachable(he).values()
                if isinstance(m, ExactMatrix) and (m.rows, m.cols) == (d.rows, d.cols)]

    monkeypatch.setattr(elimination, "_Worksheet", Recorded)
    x = projective_rep(ZZ, K2, 1)
    he = hom_ext(x, x)
    (ws,) = sheets
    assert he.hom.is_free and he.hom.free_rank == 1 and he.ext.is_zero
    assert ws.row_ops and ws.col_ops
    held = _reachable(he)
    assert not {id(ws), id(ws.n), id(ws.row_ops)} & held.keys()
    assert not {id(row) for row in ws.n} & held.keys()
    assert id(ws.col_ops) in held   # until the Hom generators are read
    assert dense_differentials(he) == []
    assert len(he.hom_generators) == 1
    held = _reachable(he)
    assert not {id(ws), id(ws.row_ops), id(ws.col_ops)} & held.keys()
    assert dense_differentials(he) == []
    # a nonzero Ext waits with the row operations alone
    he = hom_ext(Rep.simple(ZZ, K2, 1), Rep.simple(ZZ, K2, 2))
    ws = sheets[-1]
    held = _reachable(he)
    assert he.hom.is_zero and id(ws.row_ops) in held
    assert not {id(ws), id(ws.n), id(ws.col_ops)} & held.keys()
    assert len(he.ext_cocycles) == 2
    assert id(ws.row_ops) not in _reachable(he)
    assert dense_differentials(he) == []
    # D = [[2, -2], [0, 0]] has no unit entry: its sheet pauses at step 0
    x = Rep.from_matrix_rows(ZZ, K2, (1, 1), [[[2]], [[0]]])
    first = len(sheets)
    he = hom_ext(x, x)
    ws = sheets[first]
    assert ws.paused == 0 and he.hom.free_rank == 1 and he.ext.invariant_factors == (2, 0)
    assert id(ws) in _reachable(he) and dense_differentials(he) == []
    assert len(he.hom_generators) == 1 and ws.paused is None
    held = _reachable(he)   # the Ext side waits with the row operations alone
    assert id(ws.row_ops) in held and not {id(ws), id(ws.n), id(ws.col_ops)} & held.keys()
    assert len(he.ext_cocycles) == 2
    held = _reachable(he)
    assert not {id(ws), id(ws.n), id(ws.row_ops), id(ws.col_ops)} & held.keys()
    assert not {id(row) for row in ws.n} & held.keys()
    assert dense_differentials(he) == []
    d = he.differential   # the first read builds it, and the result keeps it
    assert dense_differentials(he) == [d] and d.entries == ((2, -2), (0, 0))


@pytest.mark.parametrize("ring", [QQ, GF(3)], ids=str)
def test_field_result_keeps_echelon_rows_until_read(monkeypatch, ring):
    """Over a field the Hom side keeps the forward pass's echelon rows for
    its back-substitution until the Hom generators are read, and then none;
    the Ext side keeps no rows at all, and a zero Hom keeps none either."""
    from quivlat import elimination
    passes = []
    forward = elimination._forward

    def recorded(ring, rows, cols):
        out = forward(ring, rows, cols)
        passes.append(out[2])
        return out

    monkeypatch.setattr(elimination, "_forward", recorded)

    def rows_held(he, rows):
        return {id(row) for row in rows} & _reachable(he).keys()

    p1 = projective_rep(ring, K2, 1)
    he = hom_ext(p1, p1)
    (rows,) = passes
    assert he.hom.free_rank == 1 and he.ext.is_zero
    assert rows_held(he, rows)
    assert len(he.hom_generators) == 1 and he.ext_cocycles == ()
    assert not rows_held(he, rows)
    he = hom_ext(Rep.simple(ring, K2, 1), Rep.simple(ring, K2, 2))
    assert he.hom.is_zero and he.ext.free_rank == 2
    assert not rows_held(he, passes[-1])
    assert len(he.ext_cocycles) == 2 and not rows_held(he, passes[-1])


def _exceptional_by_solve(x):
    """is_exceptional as first written: solve r * generator = identity."""
    from quivlat.elimination import solve
    from quivlat.rings import ExactMatrix
    he = hom_ext(x, x)
    if not he.ext.is_zero or not (he.hom.is_free and he.hom.free_rank == 1):
        return False
    ring = x.ring
    gen_vec = he._hom_vecs[0]
    # the identity morphism, flattened column-major vertex by vertex
    id_vec = tuple(ring.one if r == c else ring.zero
                   for d in x.dims for c in range(d) for r in range(d))
    a = ExactMatrix(ring, len(gen_vec), 1, tuple((v,) for v in gen_vec))
    b = ExactMatrix(ring, len(id_vec), 1, tuple((v,) for v in id_vec))
    sol = solve(a, b)
    return sol is not None and ring.is_unit(sol.entries[0][0])


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3), Zmod(4), Zmod(6), Zmod(12),
                                  Feps(2, 2), Feps(3, 3)], ids=str)
def test_is_exceptional_matches_solve_rule(ring):
    from quivlat.verify import random_rep
    rng = random.Random(12)
    found = 0
    for _ in range(30):
        q = rng.choice((A2, A3, K2))
        dims = tuple(rng.randint(0, 2) for _ in range(q.vertex_count))
        x = random_rep(ring, q, dims, rng)
        want = _exceptional_by_solve(x)
        assert is_exceptional(x) == want
        found += want
    assert found


def test_rigid_hom_ext_ranks_contract():
    x = Rep.simple(ZZ, K2, 2)
    y = projective_rep(ZZ, K2, 1)
    assert rigid_hom_ext_ranks(x, y) == (2, 0)
    assert rigid_hom_ext_ranks(Rep.simple(ZZ, K2, 1), x) == (0, 2)
    with pytest.raises(PreconditionViolated) as refused:
        rigid_hom_ext_ranks(jordan(ZZ, 2), jordan(ZZ, 2))
    # one refusal for non-rigid input, as decompose_rigid and lift_rigid raise
    assert type(refused.value) is NotRigid and "first" in str(refused.value)
    with pytest.raises(NotRigid, match="second"):
        rigid_hom_ext_ranks(x, jordan(ZZ, 2))
    # projectivity of Hom over Z/6 holds even where ranks jump between primes
    x6 = Rep.simple(Zmod(6), K2, 2)
    y6 = projective_rep(Zmod(6), K2, 1)
    assert rigid_hom_ext_ranks(x6, y6) == (2, 0)


# ---------------------------------------------------------------------------
# Euler identity and base change


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_property_euler_identity(a, b, c, d, rnd):
    from quivlat.verify import random_rep
    ring = GF(3)
    x = random_rep(ring, K2, (a, b), rnd)
    y = random_rep(ring, K2, (c, d), rnd)
    he = hom_ext(x, y)
    assert he.hom.free_rank - he.ext.free_rank == euler_form(K2, x.dims, y.dims)


def test_base_change_torsion_witness():
    x, y = jordan(ZZ, 0), jordan(ZZ, 2)
    for p, want in ((2, (0,)), (3, ())):
        rep = check_base_change(x, y, canonical_hom(ZZ, GF(p)))
        assert rep["ok"]
        assert rep["transported"].invariant_factors == want
        assert rep["direct"].invariant_factors == want


def test_base_change_random_integral_pairs():
    rng = random.Random(4)
    from quivlat.verify import random_rep
    targets = [GF(2), GF(3), Zmod(4), QQ]
    for k in range(40):
        q = (A2, K2, LOOP)[k % 3]
        x = random_rep(ZZ, q, tuple(rng.randint(0, 3) for _ in range(q.vertex_count)), rng)
        y = random_rep(ZZ, q, tuple(rng.randint(0, 3) for _ in range(q.vertex_count)), rng)
        rep = check_base_change(x, y, canonical_hom(ZZ, targets[k % 4]))
        assert rep["ok"]
