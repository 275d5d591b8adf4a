"""orbit_search against the representation walk it replaced.

mutation.orbit_search walks the braid orbit on dimension vectors alone
(mutation._walk) and replays only the braid words of the states whose members
it returns.  The reference is the breadth-first search that mutated
representations on every edge: same generator order, each generator
followed by its inverse, and a sequence with a member of total dimension
above the bound never enqueued.  From the standard sequence and from
braid-shifted starts, one of them with a member above the bound, both must
see the same dimension vectors in the same order with equal witnesses.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_orbit_walk.py
"""

import signal
from collections import deque

from quivlat.mutation import braid_act, orbit_search, standard_sequence
from quivlat.quiver import Quiver
from quivlat.rings import Feps, QQ, ZZ, Zmod

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
A3_OP = Quiver(3, ((2, 1), (3, 2)))
K2 = Quiver(2, ((1, 2), (1, 2)))
K3 = Quiver(2, ((1, 2), (1, 2), (1, 2)))
TRIANGLE = Quiver(3, ((1, 2), (2, 3), (1, 3)))
WALKED = {"kronecker": (K2, 20), "A3": (A3, 12), "A3-opposite": (A3_OP, 12),
          "3-kronecker": (K3, 14), "triangle": (TRIANGLE, 10)}
# braid words (generator, inverse) applied to the standard sequence
WORDS = ((), ((1, False),), ((1, False), (1, True), (2, True)))


def _orbit_members(start, bound):
    """Each dimension vector of the pruned braid orbit with its first
    witness, found by mutating representations on every edge."""
    yielded = set()
    seen = {start.dims_tuple()}
    queue = deque([start])
    while queue:
        seq = queue.popleft()
        for rep in seq.items:
            if rep.dims not in yielded:
                yielded.add(rep.dims)
                yield rep
        for i in range(1, len(seq)):
            for inverse in (False, True):
                nxt = braid_act(seq, i, inverse=inverse)
                if any(r.total_dim > bound for r in nxt.items):
                    continue
                key = nxt.dims_tuple()
                if key in seen:
                    continue
                seen.add(key)
                queue.append(nxt)


def _start(ring, quiver, word):
    seq = standard_sequence(ring, quiver)
    for i, inverse in word:
        seq = braid_act(seq, min(i, len(seq) - 1), inverse=inverse)
    return seq


def _check_against_the_representation_walk(start, bound):
    want = {rep.dims: rep for rep in _orbit_members(start, bound)}
    got = orbit_search(start, bound=bound)
    assert list(got) == list(want), (start, bound)
    assert all(got[d] == want[d] for d in want), (start, bound)
    for target in (next(iter(want)), list(want)[-1]):
        assert orbit_search(start, target, bound=bound) == want[target], target
    non_root = (2,) * len(target)
    assert non_root not in want
    assert orbit_search(start, non_root, bound=bound) is None


def test_orbit_search_is_the_representation_walk_over_z():
    for name, (quiver, bound) in dict(WALKED, A2=(A2, 12)).items():
        for word in WORDS:
            _check_against_the_representation_walk(_start(ZZ, quiver, word), bound)


def test_orbit_search_is_the_representation_walk_over_q():
    for quiver, bound in ((A3, 12), (K2, 16)):
        for word in WORDS:
            _check_against_the_representation_walk(_start(QQ, quiver, word), bound)


def test_a_start_above_the_bound_is_visited():
    # (2, 2, 1) has total 5, above the bound 4: the start is visited, but
    # no successor that keeps that member is enqueued, even when the member
    # the step mutates is within the bound
    start = _start(ZZ, TRIANGLE, ((1, True), (2, False)))
    assert start.dims_tuple() == ((0, 1, 0), (2, 2, 1), (1, 1, 0))
    _check_against_the_representation_walk(start, 4)
    assert (2, 2, 1) in orbit_search(start, bound=4)
    assert (2, 2, 1) not in orbit_search(standard_sequence(ZZ, TRIANGLE), bound=4)


def test_non_root_at_the_default_bound_is_answered_from_dimension_vectors():
    def hung(signum, frame):
        raise AssertionError("orbit_search did not stop within 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        assert orbit_search(standard_sequence(ZZ, K2), (1, 1)) is None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_non_domain_walks_answer_once_they_leave_the_start():
    # mutation runs over every ring, so answers past the start's members
    # are members over the start's ring, with the Z orbit's dims
    z_dims = list(orbit_search(standard_sequence(ZZ, K2), bound=12))
    for ring in (Zmod(4), Feps(2, 2)):
        start = standard_sequence(ring, K2)
        for k, dims in enumerate(start.dims_tuple()):
            assert orbit_search(start, dims) is start[k]
        for target in ((1, 2), (2, 1)):
            found = orbit_search(start, target)
            assert found.ring == ring and found.dims == target
        assert orbit_search(start, (1, 1)) is None
        assert list(orbit_search(start, bound=12)) == z_dims


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
