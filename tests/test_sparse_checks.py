"""The mutation layer's checks on sparse rows, against the dense code they
replaced, kept here as the reference.

Every replayed mutation asks is_exceptional of each member, _orthogonal of
each backward pair and RepMorphism's commutativity check of each witness.
They now run on sparse rows: homology._differential_rows places the
nonzeros of the arrow matrices into one dict per row, elimination._invertible
decides on those rows (it peels unit singleton rows and hands what is left
to elimination._forward), ExactMatrix.mul adds one row of the right factor per
nonzero of the left one, and the orbit walk (mutation._OrbitWalk)
computes the two mutations of an adjacent pair once per walk, and expands
only as far as its reader asks.  elimination._forward is also the one forward pass of
Hom/Ext over Q and F_p, of the field reductions and of the Z residual, which
ran on dense lists before.  Each must give exactly what the dense code gave:

  (a) the sparse rows and homology.differential, which densifies them,
      equal the dense placement they replaced (_dense_differential) entry
      for entry, with column 0 (_orthogonal) and without it
      (is_exceptional);
  (b) _forward equals the dense forward pass kept here (_dense_forward),
      with the same pivot columns, pivot rows and row values, and
      _back_substitute the dense back-substitution, on random matrices, on
      every matrix the checks hand _invertible while building exceptional
      lattices, on every field forward input of the output digest's matrix
      cases and on Z residuals; is_invertible equals the dense rule;
  (c) mul equals the product of sums of products (the rings' old dot);
  (d) the walk equals the walk without the memo, insertion order
      included; read lazily, it finds each root in the oracle's state with
      the oracle's parent chain, a vector of Tits form 1 off it exhausts it,
      and the summand roots and orbit_search's targets read off it are
      those read off the walk in full;
  (e) over Zmod:4 the (20,21) Kronecker lattice's pivots stay small, where
      Bareiss on [0, m) grew 669-bit minors;
  (f) rational zeros that are not QQ.zero (QQ.canon(0), the JSON literal
      "0/7", a loop cell that cancels) never reach _forward's rows, and
      hom_ext over Q and F_p places each pair once and hands those rows to
      _forward with no scan of the dense cells (elimination._nonzeros).

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_sparse_checks.py
"""

import math
import random
from collections import deque
from fractions import Fraction
from itertools import accumulate

from quivlat import elimination, homology, mutation, structure
from quivlat.elimination import (
    _back_substitute,
    _forward,
    _nonzeros,
    _Worksheet,
    is_invertible,
    kernel_data,
    solve,
)
from quivlat.errors import QuivlatError
from quivlat.homology import _differential_rows, differential, hom_ext, is_exceptional
from quivlat.mutation import _mutated_dims, orbit_search, standard_sequence
from quivlat.quiver import Quiver, Rep, _check_compatible, base_change, euler_form, tits_form
from quivlat.rings import (
    QQ,
    ZZ,
    ExactMatrix,
    Feps,
    GF,
    RingHom,
    RingSpec,
    Zmod,
    apply_hom,
)
from quivlat.structure import exceptional_lattice
from quivlat.verify import random_rep, random_unimodular
from test_summand_peel import QUIVERS as PEEL_QUIVERS, TOTAL as PEEL_TOTAL, TOTALS as PEEL_TOTALS
from test_summand_peel import _peel, _vectors as peel_vectors

RINGS = (ZZ, QQ, GF(2), GF(3), Zmod(4), Zmod(6), Feps(2, 2), Feps(3, 3))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))
K3 = Quiver(2, ((1, 2), (1, 2), (1, 2)))
A3 = Quiver(3, ((1, 2), (2, 3)))
A3_OP = Quiver(3, ((2, 1), (3, 2)))
A4 = Quiver(4, ((1, 2), (2, 3), (3, 4)))
TRIANGLE = Quiver(3, ((1, 2), (2, 3), (1, 3)))
D4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
LOOP = Quiver(1, ((1, 1),))
CYCLE_WITH_LOOP = Quiver(2, ((1, 2), (2, 1), (2, 2)))


def _entry(ring, rng):
    """A random entry, zero half the time; over Q often a proper fraction."""
    if rng.random() < 0.5:
        return ring.zero
    if ring.kind == "Q":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if ring.kind == "Feps":
        return ring.canon([rng.randrange(ring.p) for _ in range(ring.n)])
    return ring.canon(rng.randint(-3, 3))


def _rep(ring, quiver, dims, rng):
    mats = tuple(
        ExactMatrix._of(ring, dims[quiver.head(a)], dims[quiver.tail(a)], tuple(
            tuple(_entry(ring, rng) for _ in range(dims[quiver.tail(a)]))
            for _ in range(dims[quiver.head(a)])))
        for a in range(quiver.arrow_count))
    return Rep(ring, quiver, tuple(dims), mats)


def _as_dicts(mat):
    zero = mat.ring.zero
    return [{j: x for j, x in enumerate(row) if x != zero} for row in mat.entries]


def _dense(ring, rows, cols):
    zero = ring.zero
    return ExactMatrix._of(ring, len(rows), cols, tuple(
        tuple(row.get(j, zero) for j in range(cols)) for row in rows))


class _Recorder:
    """Stands in for module.<name>, _forward or _invertible, and keeps the
    matrix it is passed: its ring, its rows re-keyed from column 0 (an
    _invertible call's columns start at first) and its column count."""

    def __init__(self, module=homology, name="_invertible"):
        self.seen = []
        self.module, self.name = module, name
        self.real = getattr(module, name)

    def __call__(self, ring, rows, cols, first=0):
        self.seen.append((ring, [{k - first: v for k, v in row.items()} for row in rows],
                          cols - first))
        return self.real(ring, rows, cols, first) if first else self.real(ring, rows, cols)

    def __enter__(self):
        setattr(self.module, self.name, self)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.real)


# ---------------------------------------------------------------------------
# (a) sparse rows by placement


SHAPES = ((KRONECKER, ((2, 3), (3, 2), (0, 2), (2, 0), (0, 0))),
          (A3, ((1, 2, 1), (2, 0, 1), (1, 1, 1))),
          (LOOP, ((3,), (1,), (0,))),
          (CYCLE_WITH_LOOP, ((2, 3), (1, 0), (0, 2))))


def _c0_offsets(x: Rep, y: Rep) -> list:
    """C0's block offsets, one per vertex, then its rank; the pair checked."""
    _check_compatible(x, y)
    return list(accumulate((a * b for a, b in zip(x.dims, y.dims)), initial=0))


def _dense_differential(x: Rep, y: Rep) -> ExactMatrix:
    """homology.differential as it was, placed densely: the row of arrow a
    at (c, r) holds row r of Y_a in the block of its tail and column c of
    -X_a in the block of its head, added in a loop's one shared cell."""
    off0 = _c0_offsets(x, y)
    ring, q, cols, zero = x.ring, x.quiver, off0[-1], x.ring.zero
    data = []
    for a in range(q.arrow_count):
        t, h = q.tail(a), q.head(a)
        yt, yh, xh = y.dims[t], y.dims[h], x.dims[h]
        ya = y.mats[a].entries
        neg_xa_cols = x.mats[a].neg().transpose().entries
        for c in range(x.dims[t]):
            start = off0[t] + c * yt
            neg_col = neg_xa_cols[c]
            for r in range(yh):
                row = [zero] * cols
                row[start:start + yt] = ya[r]
                row[off0[h] + r:off0[h] + xh * yh:yh] = neg_col
                if t == h:
                    row[start + r] = ring.add(ya[r][r], neg_col[c])
                data.append(tuple(row))
    return ExactMatrix._of(ring, len(data), cols, tuple(data))


def test_sparse_rows_equal_the_differential():
    rng = random.Random(20)
    for ring in RINGS:
        for quiver, dims_list in SHAPES:
            for dx in dims_list:
                for dy in dims_list:
                    x, y = _rep(ring, quiver, dx, rng), _rep(ring, quiver, dy, rng)
                    want = _dense_differential(x, y)
                    d = differential(x, y)
                    assert (d.rows, d.cols, d.entries) == (want.rows, want.cols, want.entries)
                    assert all(type(v) is type(ring.zero) for row in d.entries for v in row)
                    rows, cols = _differential_rows(x, y)
                    assert cols == want.cols and rows == _as_dicts(want), (str(ring), dx, dy)
                    assert all(v != ring.zero for row in rows for v in row.values())


def test_the_checks_eliminate_the_differential_with_and_without_column_0():
    rng = random.Random(21)
    cases = ((KRONECKER, ((1, 2), (2, 3), (0, 1), (1, 0))),
             (A3, ((1, 1, 0), (1, 1, 1), (0, 0, 1))))
    for ring in RINGS:
        for quiver, dims_list in cases:
            reps = [_rep(ring, quiver, d, rng) for d in dims_list]
            for x in reps:
                assert euler_form(quiver, x.dims, x.dims) == 1
                homology._exceptional.cache_clear()
                with _Recorder() as rec:
                    got = is_exceptional(x)
                (_, rows, cols), = rec.seen
                d = _dense_differential(x, x)
                rest = ExactMatrix._of(ring, d.rows, d.cols - 1,
                                       tuple(row[1:] for row in d.entries))
                assert cols == rest.cols and rows == _as_dicts(rest)
                assert got == _dense_is_invertible(rest)
            for y in reps:
                for x in reps:
                    homology._orthogonal.cache_clear()
                    with _Recorder() as rec:
                        got = homology._orthogonal(y, x)
                    (_, rows, cols), = rec.seen
                    d = _dense_differential(y, x)
                    assert cols == d.cols and rows == _as_dicts(d)
                    assert got == _dense_is_invertible(d)
    # a loop's two overlapping terms add, and a zero sum is no entry
    loop = Rep(ZZ, LOOP, (1,), (ExactMatrix(ZZ, 1, 1, ((5,),)),))
    assert _differential_rows(loop, loop) == ([{}], 1)


# ---------------------------------------------------------------------------
# (b) the forward pass on sparse rows


def _dense_forward(mat: ExactMatrix) -> tuple:
    """The forward pass on dense lists that elimination._forward replaced, as it
    was: the pivot columns, the pivot rows, the int rows and p (0 for Z).
    Over F_p it works mod p and scales each pivot row to pivot 1; over Q
    (each row scaled by the lcm of its denominators) and Z it is Bareiss
    with lazy stamps.  Each column's pivot is the candidate row with the
    most zeros, the lowest index on ties."""
    ring, p = mat.ring, mat.ring.p
    if ring.kind == "Q":
        zero, rows = ring.zero, []
        for row in mat.entries:
            lcm = math.lcm(*[x.denominator for x in row if x is not zero])
            rows.append([0 if x is zero else x.numerator * (lcm // x.denominator)
                         for x in row])
    else:
        rows = [list(row) for row in mat.entries]
    pivot_cols, pivot_rows = [], []
    free = list(range(mat.rows))
    stamp, den = [1] * mat.rows, 1
    for c in range(mat.cols):
        cands = [i for i in free if rows[i][c]]
        if not cands:
            continue
        r = max(cands, key=lambda i: rows[i].count(0))
        free.remove(r)
        cands.remove(r)
        pivot_cols.append(c)
        pivot_rows.append(r)
        piv = rows[r]
        if p:
            if piv[c] != 1:
                inv = pow(piv[c], -1, p)
                piv = rows[r] = [x * inv % p for x in piv]
            for j in cands:
                f = rows[j][c]
                rows[j] = [(x - f * y) % p if y else x for x, y in zip(rows[j], piv)]
            continue
        if stamp[r] != den:
            piv = rows[r] = [x * den // stamp[r] for x in piv]
        den = piv[c]
        for j in cands:
            row, s = rows[j], stamp[j]
            f = row[c]
            rows[j] = [(den * x - f * y) // s if x or y else 0 for x, y in zip(row, piv)]
            stamp[j] = den
    return pivot_cols, pivot_rows, rows, p


def _dense_back_substitute(pivot_cols, echelon, free_cols, p):
    """elimination._back_substitute as it was, on dense echelon rows, scanning
    every later pivot column."""
    r = len(echelon)
    d = echelon[-1][pivot_cols[-1]] if r and not p else 1
    w = [None] * r
    for i in range(r - 1, -1, -1):
        row = echelon[i]
        acc = [row[f] * d for f in free_cols]
        for k in range(i + 1, r):
            c = row[pivot_cols[k]]
            if c:
                acc = [x - c * y if y else x for x, y in zip(acc, w[k])]
        w[i] = [x % p for x in acc] if p else [x // row[pivot_cols[i]] for x in acc]
    return w, d


def _constant_terms(mat):
    """A F_p[e]/(e^n) matrix mod e, over F_p."""
    return apply_hom(RingHom(mat.ring, GF(mat.ring.p)), mat)


def _dense_is_invertible(mat):
    """is_invertible as it was: one dense forward pass, over Feps on the
    constant terms."""
    if mat.ring.kind == "Feps":
        mat = _constant_terms(mat)
    if mat.rows != mat.cols:
        return False
    pivot_rows, rows = _dense_forward(mat)[1:3]
    if len(pivot_rows) < mat.rows:
        return False
    if mat.ring.kind in ("Z", "Zmod") and rows:
        return mat.ring.is_unit(rows[pivot_rows[-1]][-1])
    return True


def _least_residues(mat):
    """A Z/m matrix on least absolute residues, as a matrix over Z."""
    m = mat.ring.m
    return ExactMatrix._of(ZZ, mat.rows, mat.cols, tuple(
        tuple(x - m if 2 * x > m else x for x in row) for row in mat.entries))


def _check_forward(mat):
    """is_invertible against the dense rule, and _forward's pivot positions,
    row values and back-substitution against the dense pass's on what
    _forward eliminates: over Z/m the least absolute residues, over Feps the
    constant terms."""
    assert is_invertible(mat) == _dense_is_invertible(mat), (str(mat.ring), mat)
    pivot_cols, pivot_rows, rows = _forward(mat.ring, _as_dicts(mat), mat.cols)
    dense = {"Zmod": _least_residues, "Feps": _constant_terms}.get(mat.ring.kind, lambda a: a)(mat)
    want_cols, want_rows, want, p = _dense_forward(dense)
    assert (pivot_cols, pivot_rows) == (want_cols, want_rows), (str(mat.ring), mat)
    assert rows == [{k: x for k, x in enumerate(row) if x} for row in want], (str(mat.ring), mat)
    free_cols = sorted(set(range(mat.cols)).difference(pivot_cols))
    assert (_back_substitute(pivot_cols, [rows[r] for r in pivot_rows], free_cols, p)
            == _dense_back_substitute(pivot_cols, [want[r] for r in want_rows], free_cols, p))


def test_sparse_forward_matches_the_dense_rule_on_random_matrices():
    rng = random.Random(22)
    for ring in RINGS:
        elements = [_entry(ring, rng) for _ in range(40)]
        nonzero = [x for x in elements if x != ring.zero] or [ring.one]
        for _ in range(30):
            n = rng.randint(0, 9)
            cols = n if rng.random() < 0.8 else rng.randint(0, 9)
            density = rng.uniform(0.05, 1.0)
            mat = ExactMatrix._of(ring, n, cols, tuple(
                tuple(rng.choice(nonzero) if rng.random() < density else ring.zero
                      for _ in range(cols)) for _ in range(n)))
            _check_forward(mat)
        for n in range(8):   # unimodular, so the last pivot decides
            _check_forward(apply_hom(RingHom(ZZ, ring), random_unimodular(n, rng)))


def _lattice_pass_matrices():
    """Every matrix is_exceptional and _orthogonal eliminate while building
    the exceptional lattices of the Kronecker roots (n, n +- 1), n <= 6,
    and the A4 interval roots over Z, F:3, Zmod:4 and Feps:2:2, caches
    emptied first."""
    roots = ([(KRONECKER, (n, n + k)) for n in range(7) for k in (1, -1) if n + k >= 0]
             + [(A4, tuple(int(i <= v < j) for v in range(4)))
                for i in range(4) for j in range(i + 1, 5)])
    roots.sort(key=lambda qr: -sum(qr[1]))
    for cache in (homology._exceptional, homology._orthogonal, mutation._walk):
        cache.cache_clear()
    with _Recorder() as rec:
        for quiver, root in roots:
            for ring in ("Z", "F:3", "Zmod:4", "Feps:2:2"):
                exceptional_lattice(quiver, root, RingSpec.parse(ring))
    return rec.seen


def test_sparse_forward_on_every_lattice_check():
    seen = _lattice_pass_matrices()
    assert len(seen) > 100
    for ring, rows, cols in seen:
        _check_forward(_dense(ring, rows, cols))


def test_a_seeded_lattice_pass_decides_every_check_by_the_peel():
    """The roots of a lattice-orbit pass, in a seeded order, largest first,
    over the four rings of _lattice_pass_matrices, caches emptied: every
    check _invertible answers is decided by peeling unit singleton rows,
    and no forward pass is entered.  A dense random check still enters one."""
    rng = random.Random("lattice-orbit:1:0")
    roots = ([(KRONECKER, (n, n + k)) for n in range(7) for k in (1, -1) if n + k >= 0]
             + [(A4, tuple(int(i <= v < j) for v in range(4)))
                for i in range(4) for j in range(i + 1, 5)])
    rng.shuffle(roots)
    roots.sort(key=lambda qr: -sum(qr[1]))
    for cache in (homology._exceptional, homology._orthogonal, mutation._walk):
        cache.cache_clear()
    verdicts, entered, inside = [], [], []
    real_check, real_forward = homology._invertible, elimination._forward

    def check(*args):
        inside.append(True)
        try:
            verdicts.append(real_check(*args))
        finally:
            inside.pop()
        return verdicts[-1]

    def forward(*args):
        entered.append(bool(inside))
        return real_forward(*args)

    homology._invertible, elimination._forward = check, forward
    try:
        for quiver, root in roots:
            for ring in ("Z", "F:3", "Zmod:4", "Feps:2:2"):
                exceptional_lattice(quiver, root, RingSpec.parse(ring))
        assert len(verdicts) > 100 and True in verdicts
        assert True not in entered
        mat = ExactMatrix(ZZ, 3, 3, ((1, 2, 3), (4, 5, 6), (7, 8, 10)))
        assert is_invertible(mat) is False and entered[-1:] == [False]
    finally:
        homology._invertible, elimination._forward = real_check, real_forward


def test_forward_on_every_field_input_of_the_digest_matrix_cases():
    """The forward inputs of normal_form, solve, kernel_data, cokernel_data,
    cokernel_projection and the rest over Q, F:2 and F:3, on the seeded
    matrices whose outputs tests/test_output_digest.py hashes."""
    from test_output_digest import _matrix_cases
    with _Recorder(elimination, "_forward") as rec:
        for spec, _, run in _matrix_cases(random.Random(20261018)):
            if spec in ("Q", "F:2", "F:3"):
                try:
                    run()
                except QuivlatError:   # howell_rows refuses the fields
                    pass
    assert len(rec.seen) > 300
    for ring, rows, cols in rec.seen:
        assert all(x for row in rows for x in row.values())
        _check_forward(_dense(ring, rows, cols))


def test_forward_on_z_residuals():
    """The Z residual a paused sheet hands _forward (_Worksheet.diagonal),
    on the Kronecker (4,5) pairs of tests/test_z_invariants.py."""
    residuals = 0
    for seed in range(20):
        rng = random.Random("z-invariants:%d" % seed)
        x, y = (random_rep(ZZ, KRONECKER, (4, 5), rng) for _ in range(2))
        a = differential(x, y)
        with _Recorder(elimination, "_forward") as rec:
            ws = _Worksheet(ZZ, _nonzeros(a.entries, ZZ), a.cols)
            ws.diagonalize()
            ws.diagonal(a.rows)
        for ring, rows, cols in rec.seen:
            residuals += 1
            _check_forward(_dense(ring, rows, cols))
    assert residuals >= 5


# ---------------------------------------------------------------------------
# (c) mul over nonzeros


def _old_dot(ring, xs, ys):
    """The sum of products x*y as the rings' dot methods computed it."""
    if ring.kind in ("Z", "Q"):
        return sum([x * y for x, y in zip(xs, ys)], ring.zero)
    if ring.kind in ("F", "Zmod"):
        return sum(x * y for x, y in zip(xs, ys)) % ring.size
    p, n = ring.p, ring.n
    out = [0] * n
    for a, b in zip(xs, ys):
        for i, ai in enumerate(a):
            if ai:
                for j in range(n - i):
                    if b[j]:
                        out[i + j] += ai * b[j]
    return tuple(c % p for c in out)


def _old_mul(a, b):
    if a.cols == 0:
        return ExactMatrix.zeros(a.ring, a.rows, b.cols)
    bt = tuple(zip(*b.entries))
    return ExactMatrix._of(a.ring, a.rows, b.cols, tuple(
        tuple(_old_dot(a.ring, row, col) for col in bt) for row in a.entries))


def test_mul_equals_the_sum_of_products():
    rng = random.Random(23)
    for ring in RINGS:
        for _ in range(25):
            n, k, m = (rng.randint(0, 5) for _ in range(3))
            a = _rep(ring, Quiver(2, ((1, 2),)), (k, n), rng).mats[0]
            b = _rep(ring, Quiver(2, ((1, 2),)), (m, k), rng).mats[0]
            got, want = a.mul(b), _old_mul(a, b)
            assert (got.rows, got.cols) == (want.rows, want.cols) == (n, m)
            assert got.entries == want.entries, (str(ring), a, b)
            assert all(type(x) is type(ring.zero) for row in got.entries for x in row)


# ---------------------------------------------------------------------------
# (d) the dimension-vector walk


def _old_dims_orbit(quiver, bound):
    """The whole walk (steps, first) from the standard start, each pair's
    mutations computed at every visit."""
    start = tuple(tuple(int(v == w) for w in range(quiver.vertex_count))
                  for v in quiver.topological_order())
    steps, first = {start: None}, {}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for dims in state:
            first.setdefault(dims, state)
        for i in range(1, len(state)):
            e, f = state[i - 1], state[i]
            c = euler_form(quiver, e, f)
            for inverse in (False, True):
                pair = (f, _mutated_dims(e, f, c)) if inverse else (
                    _mutated_dims(f, e, c), e)
                nxt = state[:i - 1] + pair + state[i + 1:]
                if nxt not in steps and max(map(sum, nxt)) <= bound:
                    steps[nxt] = (state, i, inverse)
                    queue.append(nxt)
    return steps, first


WALKS = [(quiver, bound) for quiver in (KRONECKER, K3, A3, A3_OP, TRIANGLE, D4)
         for bound in (1, 12, 60)]


def test_dims_orbit_equals_the_walk_without_the_memo():
    for quiver, bound in WALKS:
        steps, first = mutation._walk.__wrapped__(quiver, bound, None).full()
        want_steps, want_first = _old_dims_orbit(quiver, bound)
        assert list(steps.items()) == list(want_steps.items()), (quiver, bound)
        assert list(first.items()) == list(want_first.items()), (quiver, bound)


def _chain(steps, state):
    """state and its breadth-first parents back to the start, each with
    the step that first reached it."""
    out = [(state, steps[state])]
    while out[-1][1] is not None:
        state = out[-1][1][0]
        out.append((state, steps[state]))
    return out


def test_the_lazy_walk_finds_each_root_where_the_exhaustive_one_does():
    """A fresh walk, asked for every root of the oracle walk in a seeded
    shuffled order, sees each first in the oracle's state, with the
    oracle's parent chain, before it is exhausted at bound 60; read in full
    afterwards it is the oracle, items and order."""
    rng = random.Random("lazy walk")
    for quiver, bound in WALKS:
        want_steps, want_first = _old_dims_orbit(quiver, bound)
        roots = list(want_first)
        rng.shuffle(roots)
        walk = mutation._walk.__wrapped__(quiver, bound, None)
        for root in roots:
            state = walk.find(root)
            assert state == want_first[root], (quiver, bound, root)
            assert _chain(walk.steps, state) == _chain(want_steps, state), (quiver, root)
        assert walk.expanded < len(want_steps) or bound < 60, (quiver, bound)
        steps, first = walk.full()
        assert walk.expanded == walk.reached == len(want_steps), (quiver, bound)
        assert list(steps.items()) == list(want_steps.items()), (quiver, bound)
        assert list(first.items()) == list(want_first.items()), (quiver, bound)


def test_a_tits_form_one_vector_off_the_walk_exhausts_it():
    """(1, 2, 1) on the triangle has Tits form 1 and is no root: asking for
    it exhausts the walk, which is then the oracle, and answers None."""
    assert tits_form(TRIANGLE, (1, 2, 1)) == 1
    for bound in (1, 12, 60):
        walk = mutation._walk.__wrapped__(TRIANGLE, bound, None)
        assert walk.find((1, 2, 1)) is None
        assert walk.expanded == walk.reached
        want_steps, want_first = _old_dims_orbit(TRIANGLE, bound)
        assert list(walk.steps.items()) == list(want_steps.items()), bound
        assert list(walk.first.items()) == list(want_first.items()), bound
        mutation._walk.cache_clear()
        assert structure.schur_root_status(TRIANGLE, (1, 2, 1), bound=bound) == "bounded_false"
        assert orbit_search(standard_sequence(ZZ, TRIANGLE), (1, 2, 1), bound=bound) is None


def test_summand_roots_and_targets_read_off_the_lazy_walk_as_off_the_full_one():
    """On every vector of test_summand_peel, _summand_roots (bound 60) and
    orbit_search with that target (bound the vectors' total), each on a
    fresh walk that expands only as far as it reads, answer as they do on
    the walk read in full."""
    for name, quiver in PEEL_QUIVERS.items():
        total = PEEL_TOTALS.get(name, PEEL_TOTAL)
        start = standard_sequence(ZZ, quiver)
        lazy = {}
        for dims in peel_vectors(quiver, total):
            mutation._walk.cache_clear()
            lazy[dims] = _peel(quiver, dims), orbit_search(start, dims, bound=total)
        mutation._walk(quiver, 60, None).full()
        found = orbit_search(start, bound=total)
        for dims, (roots, rep) in lazy.items():
            assert roots == _peel(quiver, dims), (name, dims)
            assert rep == found.get(dims), (name, dims)


# ---------------------------------------------------------------------------
# (e) small minors over Z/m


def test_zmod_pivots_stay_small_on_the_20_21_lattice():
    x = base_change(exceptional_lattice(KRONECKER, (20, 21), ZZ), RingHom(ZZ, Zmod(4)))
    rows, cols = _differential_rows(x, x)
    rest = [{k - 1: v for k, v in row.items() if k} for row in rows]
    pivot_cols, pivot_rows, ints = _forward(x.ring, rest, cols - 1)
    assert len(pivot_rows) == cols - 1 == 840
    assert max(abs(ints[r][c]).bit_length() for r, c in zip(pivot_rows, pivot_cols)) < 8
    assert is_exceptional(x)



# ---------------------------------------------------------------------------
# (f) rational zeros that are not QQ.zero


def _fresh_zeros():
    """Zeros as quivlat's inputs make them: none of them is QQ.zero."""
    zeros = [QQ.canon(0), QQ.entry_from_json("0/7"), QQ.add(Fraction(2, 3), Fraction(-2, 3))]
    assert all(z == 0 and z is not QQ.zero for z in zeros)
    return zeros


def _forward_runs(run, name="_forward"):
    """run's result and, per call of elimination.<name> it makes, the rows passed
    and the pivot columns, pivot rows and rows _forward returns on them."""
    with _Recorder(elimination, name) as rec:
        out = run()
    return out, [(rows, elimination._forward(ring, [dict(r) for r in rows], cols))
                 for ring, rows, cols in rec.seen]


def _assert_dense_forward(rows, got, a):
    """The rows hold no zero, and _forward on them pivots and ends as the
    dense pass on a."""
    assert all(x for row in rows for x in row.values()), a
    want_cols, want_rows, want, _ = _dense_forward(a)
    assert got == (want_cols, want_rows, [{k: x for k, x in enumerate(r) if x} for r in want]), a


def test_rational_zeros_that_are_not_qq_zero():
    rng = random.Random(24)
    zeros = _fresh_zeros()
    nonzero = [Fraction(1, 2), Fraction(-2, 3), QQ.one, Fraction(3)]
    for _ in range(40):
        n, cols = rng.randint(1, 7), rng.randint(1, 7)
        fresh = ExactMatrix._of(QQ, n, cols, tuple(
            tuple(rng.choice(nonzero) if rng.random() < 0.3 else rng.choice(zeros)
                  for _ in range(cols)) for _ in range(n)))
        canon = ExactMatrix._of(QQ, n, cols, tuple(
            tuple(x if x else QQ.zero for x in row) for row in fresh.entries))
        b = ExactMatrix._of(QQ, n, 1, tuple((rng.choice(zeros + nonzero),) for _ in range(n)))
        cases = [(lambda a=fresh: kernel_data(a), fresh, "_forward"),
                 (lambda: solve(fresh, b), fresh.hstack(b), "_forward")]
        if n == cols:
            cases.append((lambda: is_invertible(fresh), fresh, "_invertible"))
        for run, a, name in cases:
            out, ((rows, got),) = _forward_runs(run, name)
            _assert_dense_forward(rows, got, a)
        assert kernel_data(fresh) == kernel_data(canon)
        assert solve(fresh, b) == solve(canon, b)
        assert is_invertible(fresh) == _dense_is_invertible(canon) == is_invertible(canon)
    # a loop whose two terms cancel on the diagonal cells of the differential:
    # row (c, r) meets Y_a's row r and X_a's column c at column 2c + r
    xa = ExactMatrix._of(QQ, 2, 2, ((Fraction(1, 2), zeros[0]), (Fraction(3), Fraction(1, 2))))
    loop = Rep(QQ, LOOP, (2,), (xa,))
    want = _dense_differential(loop, loop)
    cancelled = [(i, i) for i in range(4)]
    assert all(want.entries[i][k] == 0 for i, k in cancelled)
    placed, cols = _differential_rows(loop, loop)
    assert cols == 4 and not any(k in placed[i] for i, k in cancelled)
    assert differential(loop, loop).entries == want.entries
    he, ((rows, got),) = _forward_runs(lambda: hom_ext(loop, loop))
    assert he.differential.entries == want.entries and rows == placed == _as_dicts(want)
    _assert_dense_forward(rows, got, want)
    assert he.hom.free_rank == 2 and he.ext.free_rank == 2


def test_hom_ext_places_once_and_eliminates_the_placed_rows():
    """hom_ext places each pair once and densifies nothing; over Q and F_p
    it hands the placed rows to _forward, and the sheet rings start their
    sheet from them.  On every ring elimination._nonzeros never scans dense
    cells, save a Z sheet's paused residual, for its invariant factors.
    The differential is densified on its first read alone, and equals the
    dense placement."""
    rng = random.Random(25)
    placed, layouts, scanned, densified = [], [], [], []
    real_place, real_scan, real_densify = (
        homology._differential_rows, elimination._nonzeros, homology._densified)

    def place(x, y, off0=None):
        rows, cols = real_place(x, y, off0)
        placed.append(([dict(row) for row in rows], cols))
        layouts.append(off0)
        return rows, cols

    def scan(rows, ring):
        scanned.append(rows)
        return real_scan(rows, ring)

    def densify(ring, rows, cols):
        densified.append(cols)
        return real_densify(ring, rows, cols)

    sheet_class, sheets = elimination._Worksheet, []

    class Built(sheet_class):
        def __init__(self, ring, rows, cols):
            sheets.append(([dict(row) for row in rows], cols))
            super().__init__(ring, rows, cols)

    homology._differential_rows, elimination._nonzeros, elimination._Worksheet = place, scan, Built
    homology._densified = densify
    moved = 0
    try:
        for ring in RINGS:
            for quiver, dims_list in SHAPES:
                for dx in dims_list:
                    x, y = _rep(ring, quiver, dx, rng), _rep(ring, quiver, dims_list[0], rng)
                    del placed[:], layouts[:], scanned[:], sheets[:], densified[:]
                    with _Recorder(elimination, "_forward") as rec:
                        he = hom_ext(x, y)
                    assert len(placed) == 1 and densified == [], str(ring)
                    # placed in the elimination layout: each C0 block of the
                    # dense placement moved whole to its elimination offset
                    vertex_off = _c0_offsets(x, y)
                    off0 = vertex_off if layouts[0] is None else layouts[0]
                    moved += layouts[0] is not None
                    to = [off0[v] + k - vertex_off[v] for v in range(len(x.dims))
                          for k in range(vertex_off[v], vertex_off[v + 1])]
                    assert placed[0][0] == [{to[k]: v for k, v in row.items()}
                                            for row in _as_dicts(_dense_differential(x, y))]
                    if ring.is_field:
                        assert [(rows, cols) for _, rows, cols in rec.seen] == placed
                    else:   # the sheet starts from the placed rows
                        assert sheets[0] == placed[0], str(ring)
                    assert not scanned or ring.kind == "Z", str(ring)
                    assert he.differential.entries == _dense_differential(x, y).entries
                    assert len(densified) == 1 and he.differential is he.differential
                    assert not any(rows is he.differential.entries for rows in scanned)
        assert moved
    finally:
        homology._differential_rows, elimination._nonzeros = real_place, real_scan
        homology._densified, elimination._Worksheet = real_densify, sheet_class

if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
