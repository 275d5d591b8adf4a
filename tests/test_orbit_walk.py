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

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import deque

from quivlat import mutation
from quivlat.errors import NotComputable
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


# A wild star, centre 1 and arms 2..6 -> 1: at bound 10 its walk holds
# 197,040 states, and at bound 30 2,581,320 (927 MB).
STAR = '{"vertices": 6, "arrows": [[2, 1], [3, 1], [4, 1], [5, 1], [6, 1]]}'
SCHUR_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quivlat.cli import main
sys.exit(main(["schur", "--quiver", sys.argv[1], "--dims", "3,0,1,1,2,2", "--format", "json"]))
"""


def test_a_walk_past_the_state_cap_is_refused_within_seconds():
    # once this ran past 40 s and 608 MB; the walk now stops at its state cap
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "star.json")
        with open(path, "w") as f:
            f.write(STAR)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SCHUR_CHILD, path], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
        seconds = time.perf_counter() - start
    report = json.loads(proc.stdout)
    assert proc.returncode == 1 and report["error"] == "NotComputable", (proc.stdout, proc.stderr)
    assert report["message"] == ("the orbit walk at bound 60 would hold 100002 states, above "
                                 "the cap 100000"), report
    assert seconds < 5, seconds


def test_a_refused_expansion_commits_nothing():
    original = mutation._MAX_WALK_STATES
    mutation._MAX_WALK_STATES = 5
    mutation._walk.cache_clear()   # a walk cached by another test is expanded already
    try:
        walk = mutation._walk(K2, 100, None)
        try:
            walk.full()
        except NotComputable as exc:
            assert "above the cap 5" in str(exc), exc
        else:
            raise AssertionError("the walk passed its cap")
        states, expanded = list(walk._states), walk.expanded
        assert len(states) <= 5 and len(walk.steps) == len(states)
        assert set(walk.first.values()) <= set(states)
        try:   # asked again, it refuses again and still commits nothing
            walk.full()
        except NotComputable:
            pass
        assert walk._states == states and walk.expanded == expanded
    finally:
        mutation._MAX_WALK_STATES = original
        mutation._walk.cache_clear()


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
