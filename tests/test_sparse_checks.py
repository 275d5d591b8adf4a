"""The mutation layer's checks on sparse rows, against the dense code they
replaced, kept here as the reference.

Every replayed mutation asks is_exceptional of each member, _orthogonal of
each backward pair and RepMorphism's commutativity check of each witness.
They now run on sparse rows: homology._differential_rows places the
nonzeros of the arrow matrices into one dict per row, rings._sparse_forward
eliminates those rows, ExactMatrix.mul adds one row of the right factor per
nonzero of the left one, and _dims_orbit computes the two mutations of an
adjacent pair once per walk.  Each must give exactly what the dense code
gave:

  (a) the sparse rows equal differential entry for entry, with column 0
      (_orthogonal) and without it (is_exceptional);
  (b) is_invertible equals the dense _forward rule, with the same pivots
      and the same last pivot up to sign, on random square matrices and on
      every matrix the checks see while building exceptional lattices;
  (c) mul equals the product of sums of products (the rings' old dot);
  (d) _dims_orbit equals the walk without the memo, insertion order
      included;
  (e) over Zmod:4 the (20,21) Kronecker lattice's pivots stay small, where
      Bareiss on [0, m) grew 669-bit minors.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_sparse_checks.py
"""

import random
from collections import deque
from fractions import Fraction

from quivlat import homology, mutation, structure
from quivlat.homology import _differential_rows, differential, is_exceptional
from quivlat.mutation import _dims_orbit, _mutated_dims
from quivlat.quiver import Quiver, Rep, base_change, euler_form
from quivlat.rings import (
    QQ,
    ZZ,
    ExactMatrix,
    Feps,
    GF,
    RingHom,
    RingSpec,
    Zmod,
    _forward,
    _sparse_forward,
    apply_hom,
    is_invertible,
)
from quivlat.structure import exceptional_lattice
from quivlat.verify import random_unimodular

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
    """Stands in for homology._sparse_forward and keeps what it is passed."""

    def __init__(self):
        self.seen = []
        self.real = homology._sparse_forward

    def __call__(self, ring, rows, cols):
        self.seen.append((ring, [dict(row) for row in rows], cols))
        return self.real(ring, rows, cols)

    def __enter__(self):
        homology._sparse_forward = self
        return self

    def __exit__(self, *exc):
        homology._sparse_forward = self.real


# ---------------------------------------------------------------------------
# (a) sparse rows by placement


SHAPES = ((KRONECKER, ((2, 3), (3, 2), (0, 2), (2, 0), (0, 0))),
          (A3, ((1, 2, 1), (2, 0, 1), (1, 1, 1))),
          (LOOP, ((3,), (1,), (0,))),
          (CYCLE_WITH_LOOP, ((2, 3), (1, 0), (0, 2))))


def test_sparse_rows_equal_the_differential():
    rng = random.Random(20)
    for ring in RINGS:
        for quiver, dims_list in SHAPES:
            for dx in dims_list:
                for dy in dims_list:
                    x, y = _rep(ring, quiver, dx, rng), _rep(ring, quiver, dy, rng)
                    d = differential(x, y)
                    rows, cols = _differential_rows(x, y)
                    assert cols == d.cols and rows == _as_dicts(d), (str(ring), dx, dy)
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
                homology.is_exceptional.cache_clear()
                with _Recorder() as rec:
                    got = is_exceptional(x)
                (_, rows, cols), = rec.seen
                d = differential(x, x)
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
                    d = differential(y, x)
                    assert cols == d.cols and rows == _as_dicts(d)
                    assert got == _dense_is_invertible(d)
    # a loop's two overlapping terms add, and a zero sum is no entry
    loop = Rep(ZZ, LOOP, (1,), (ExactMatrix(ZZ, 1, 1, ((5,),)),))
    assert _differential_rows(loop, loop) == ([{}], 1)


# ---------------------------------------------------------------------------
# (b) the forward pass on sparse rows


def _constant_terms(mat):
    """A F_p[e]/(e^n) matrix mod e, over F_p."""
    return apply_hom(RingHom(mat.ring, GF(mat.ring.p)), mat)


def _dense_is_invertible(mat):
    """is_invertible as it was: one dense _forward, over Feps on the
    constant terms."""
    if mat.ring.kind == "Feps":
        mat = _constant_terms(mat)
    if mat.rows != mat.cols:
        return False
    pivot_rows, rows = _forward(mat)[1:3]
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
    """is_invertible against the dense rule, and _sparse_forward's pivot
    positions and values against _forward's on what _sparse_forward
    eliminates: over Z/m the least absolute residues, over Feps the
    constant terms."""
    assert is_invertible(mat) == _dense_is_invertible(mat), (str(mat.ring), mat)
    pivot_cols, pivot_rows, rows, _ = _sparse_forward(mat.ring, _as_dicts(mat), mat.cols)
    dense = {"Zmod": _least_residues, "Feps": _constant_terms}.get(mat.ring.kind, lambda a: a)(mat)
    want_cols, want_rows, want = _forward(dense)[:3]
    assert (pivot_cols, pivot_rows) == (want_cols, want_rows)
    assert ([rows[r][c] for r, c in zip(pivot_rows, pivot_cols)]
            == [want[r][c] for r, c in zip(want_rows, want_cols)])


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
    for cache in (homology.is_exceptional, homology._orthogonal,
                  homology._hom_ext_cached, mutation._dims_orbit):
        cache.cache_clear()
    structure._BUILT.clear()
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
    """_dims_orbit from the standard start, each pair's mutations computed
    at every visit."""
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


def test_dims_orbit_equals_the_walk_without_the_memo():
    for quiver in (KRONECKER, K3, A3, A3_OP, TRIANGLE, D4):
        for bound in (1, 12, 60):
            steps, first = _dims_orbit.__wrapped__(quiver, bound)
            want_steps, want_first = _old_dims_orbit(quiver, bound)
            assert list(steps.items()) == list(want_steps.items()), (quiver, bound)
            assert list(first.items()) == list(want_first.items()), (quiver, bound)


# ---------------------------------------------------------------------------
# (e) small minors over Z/m


def test_zmod_pivots_stay_small_on_the_20_21_lattice():
    x = base_change(exceptional_lattice(KRONECKER, (20, 21), ZZ), RingHom(ZZ, Zmod(4)))
    rows, cols = _differential_rows(x, x)
    rest = [{k - 1: v for k, v in row.items() if k} for row in rows]
    pivot_cols, pivot_rows, ints, _ = _sparse_forward(x.ring, rest, cols - 1)
    assert len(pivot_rows) == cols - 1 == 840
    assert max(abs(ints[r][c]).bit_length() for r, c in zip(pivot_rows, pivot_cols)) < 8
    assert is_exceptional(x)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
