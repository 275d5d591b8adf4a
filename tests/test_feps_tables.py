"""The table kernels of the small Feps rings against the loop kernels.

A ring Feps:p:n with p**n at most rings._FEPS_TABLE_SIZE reads mul,
row_axpy and dict_axpy off tables of all its products and sums
(rings._table_kernels); a larger ring runs the loops of _Truncated, which
stay the reference.  Every Feps ring runs RingSpec's element-wise row_comb,
which only howell_rows calls: a sheet over a local ring takes no gcdex step
(tests/test_worksheet_kernels.py).  Every element and every multiplier of each ring up to
and at the cap is checked against them: equal values of equal repr.  The
tables live in the instance only, so RingSpec equality, hash, copies and
pickles are those of the fields and of the state without them, and an
elimination on a table ring and on a loop-only copy of it gives identical
results.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_feps_tables.py
"""

import copy
import pickle
import random

from quivlat import rings
from quivlat.rings import ExactMatrix, Feps, RingSpec, _Truncated

TABLE_RINGS = [Feps(p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
               for n in range(1, 5) if p ** n <= rings._FEPS_TABLE_SIZE]
LOOP_RINGS = (Feps(3, 3), Feps(2, 5), Feps(7, 2))
STATE = ["kind", "p", "m", "n", "zero", "one", "_ranges"]


def _same(a, b):
    assert a == b and repr(a) == repr(b), (a, b)


def _loop_only(ring):
    """A ring equal to ring that runs the loop kernels."""
    loop = copy.copy(ring)
    for name in rings._TABLE_KERNELS:
        loop.__dict__.pop(name, None)
    return loop


def test_the_cap_is_a_ring_size_and_its_ring_has_tables():
    at_cap = Feps(5, 2)
    assert at_cap.size == rings._FEPS_TABLE_SIZE
    assert at_cap in TABLE_RINGS and len(TABLE_RINGS) == 14
    for ring in TABLE_RINGS:
        assert all(name in ring.__dict__ for name in rings._TABLE_KERNELS), ring


def test_mul_matches_the_loop_on_every_pair():
    for ring in TABLE_RINGS:
        els = list(ring.elements())
        for a in els:
            for b in els:
                _same(ring.mul(a, b), _Truncated.mul(ring, a, b))


def test_row_kernels_match_the_loops_on_every_element_and_multiplier():
    for ring in TABLE_RINGS:
        els = list(ring.elements())
        # one position per pair (x, y), zero pairs included
        xs = [x for x in els for _ in els]
        ys = [y for _ in els for y in els]
        for c in els:
            _same(ring.row_axpy(xs, ys, c), _Truncated.row_axpy(ring, xs, ys, c))


def test_rings_above_the_cap_run_the_loops():
    for ring in LOOP_RINGS:
        assert ring.size > rings._FEPS_TABLE_SIZE
        assert not set(rings._TABLE_KERNELS) & ring.__dict__.keys()
        assert ring.row_axpy.__func__ is _Truncated.row_axpy
        assert ring.row_comb.__func__ is RingSpec.row_comb
        assert ring.mul.__func__ is _Truncated.mul


def test_equality_hash_copy_and_pickle_ignore_the_tables():
    for ring in TABLE_RINGS + list(LOOP_RINGS):
        twin = RingSpec.parse(str(ring))
        assert twin == ring and hash(twin) == hash(ring)
        assert hash(ring) == hash((ring.kind, ring.p, ring.m, ring.n))
        assert ring != Feps(ring.p, ring.n + 1)
        assert list(ring.__getstate__()) == STATE
        data = pickle.dumps(ring)
        assert b"row_axpy" not in data and b"row_comb" not in data
        assert pickle.loads(data).__getstate__() == ring.__getstate__()
        for other in (pickle.loads(data), copy.copy(ring), copy.deepcopy(ring)):
            assert type(other) is type(ring) and other == ring
            assert hash(other) == hash(ring) and repr(other) == repr(ring)
            assert other.__dict__.keys() == ring.__dict__.keys()
            els = list(ring.elements())[:6]
            for a in els:
                _same(other.row_axpy(els, els[::-1], a), ring.row_axpy(els, els[::-1], a))


def test_eliminations_on_tables_and_loops_are_identical():
    for ring in (Feps(2, 2), Feps(3, 2), Feps(2, 4), Feps(5, 2)):
        loop = _loop_only(ring)
        assert loop == ring and "mul" not in loop.__dict__
        rng = random.Random("elim:%s" % ring)
        els = list(ring.elements())
        for _ in range(12):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            rows = tuple(tuple(rng.choice(els) for _ in range(c)) for _ in range(r))
            rhs = tuple(tuple(rng.choice(els) for _ in range(2)) for _ in range(r))
            fast, slow = ExactMatrix(ring, r, c, rows), ExactMatrix(loop, r, c, rows)
            a, b = rings.normal_form(fast), rings.normal_form(slow)
            for name in ("nf", "left", "right", "left_inverse", "right_inverse"):
                _same(getattr(a, name).entries, getattr(b, name).entries)
            for fn in (rings.kernel_data, rings.cokernel_data):
                (pa, va), (pb, vb) = fn(fast), fn(slow)
                _same((pa.invariant_factors, va), (pb.invariant_factors, vb))
            _same(rings.kernel_basis(fast).entries, rings.kernel_basis(slow).entries)
            xa = rings.solve(fast, ExactMatrix(ring, r, 2, rhs))
            xb = rings.solve(slow, ExactMatrix(loop, r, 2, rhs))
            _same(xa and xa.entries, xb and xb.entries)


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
