"""One frozen SHA-256 over quivlat's outputs on seeded inputs.

A change that should keep every value (a refactor, a faster kernel) must
keep this digest.  It hashes the repr of:

- normal_form, solve, kernel_data, kernel_basis, cokernel, cokernel_data,
  cokernel_projection and howell_rows on seeded random matrices up to 6x6,
  0xn and nx0 included, over ten rings;
- hom_ext invariants, hom_generators and ext_cocycles on small Kronecker
  and A4 pairs;
- orbit_search witnesses (Kronecker at bound 14, A3 at bound 7) and braid
  words, over Z, Z/4 and F_2[e]/(e^2);
- decompose_rigid summands, certificates and evaluations on planted sums.

Representations and morphisms are hashed by their entries (their own repr
shows only dimensions), module presentations by their ring, generator
count and invariant factors; a QuivlatError is hashed by its class and message.
A change that alters values on purpose updates DIGEST and says so in
CHANGES.md.

INVARIANT_DIGEST hashes, over the same cases, only what no choice of
pivots or witnesses can move: invariant factors and generator counts,
normal forms and their kind, whether a system is solvable and a cokernel
projection exists, Howell rows and the kernel generators of the rings that
canonicalise them, orbit dimension vectors, and decomposition dimension
vectors with multiplicities.  A change of elimination order may move
DIGEST, never INVARIANT_DIGEST.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_output_digest.py
"""

import functools
import hashlib
import random
import sys
from fractions import Fraction

from quivlat.elimination import (
    ModulePresentation,
    cokernel,
    cokernel_data,
    cokernel_projection,
    howell_rows,
    invert,
    kernel_basis,
    kernel_data,
    normal_form,
    solve,
)
from quivlat.errors import QuivlatError
from quivlat.homology import hom_ext
from quivlat.mutation import ExcSequence, braid_act, orbit_search, standard_sequence
from quivlat.quiver import Quiver, Rep, RepMorphism, base_change, direct_sum_many, tensor_free
from quivlat.rings import (
    ExactMatrix,
    RingSpec,
    ZZ,
    canonical_hom,
)
from quivlat.structure import decompose_rigid, exceptional_lattice
from quivlat.verify import conjugate_rep, random_rep, random_unimodular

DIGEST = "308f62c02fa36a678a973c4014946ed7ef2272a8fd4af84f98c2890ade615495"
INVARIANT_DIGEST = "ec93c1b3b6d82723487f06c9114d1ba935cc1ac25e3098be659124eee9476ebc"

KRONECKER = Quiver(2, ((1, 2), (1, 2)))
A3 = Quiver(3, ((1, 2), (2, 3)))
A4 = Quiver(4, ((1, 2), (2, 3), (3, 4)))

MATRIX_RINGS = ("Z", "Q", "F:2", "F:3", "Zmod:4", "Zmod:6", "Zmod:12",
                "Feps:2:2", "Feps:3:2", "Feps:3:3")
PAIRS = ((KRONECKER, (2, 3), (2, 3)), (KRONECKER, (1, 2), (3, 4)),
         (A4, (1, 2, 1, 1), (2, 1, 1, 2)))
PLANTED = ((KRONECKER, (((2, 3), 2), ((1, 2), 2))),
           (KRONECKER, (((0, 1), 1), ((1, 2), 1))),
           (A3, (((0, 1, 1), 2), ((1, 1, 1), 2))))


def _plain(obj):
    """obj with every Rep, RepMorphism, ExcSequence and ModulePresentation
    spelled out, the last as its ring, generators and invariant factors."""
    if isinstance(obj, ModulePresentation):
        return (str(obj.ring), obj.generators, obj.invariant_factors)
    if isinstance(obj, Rep):
        return (str(obj.ring), obj.dims, tuple(m.entries for m in obj.mats))
    if isinstance(obj, RepMorphism):
        return (_plain(obj.source), _plain(obj.target),
                tuple(m.entries for m in obj.vertex_maps))
    if isinstance(obj, ExcSequence):
        return tuple(_plain(r) for r in obj.items)
    if isinstance(obj, dict):
        return tuple((k, _plain(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (tuple, list)):
        return tuple(_plain(v) for v in obj)
    return obj


def _matrix(ring, rows, cols, rng):
    if ring.is_finite:
        pool = list(ring.elements())
    else:
        pool = list(range(-3, 4))
        if ring.kind == "Q":
            pool += [Fraction(1, 2), Fraction(-2, 3)]
    pool += [0] * (len(pool) // 2)   # sparse enough for rank drops
    return ExactMatrix(ring, rows, cols, tuple(
        tuple(ring.canon(rng.choice(pool)) for _ in range(cols)) for _ in range(rows)))


def _matrix_cases(rng):
    for spec in MATRIX_RINGS:
        ring = RingSpec.parse(spec)
        shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
        shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(10)]
        for rows, cols in shapes:
            a = _matrix(ring, rows, cols, rng)
            b = a.mul(_matrix(ring, cols, 2, rng))
            yield spec, "normal_form", lambda: normal_form(a)
            yield spec, "solve", lambda: solve(a, b)
            yield spec, "solve", lambda: solve(a, _matrix(ring, rows, 1, rng))
            yield spec, "kernel_data", lambda: kernel_data(a)
            yield spec, "kernel_basis", lambda: kernel_basis(a)
            yield spec, "cokernel", lambda: cokernel(a)
            yield spec, "cokernel_data", lambda: cokernel_data(a)
            yield spec, "cokernel_projection", functools.partial(cokernel_projection, a)
            yield spec, "howell_rows", lambda: howell_rows(ring, a.entries)


def _hom_ext_cases(rng):
    for spec in ("Z", "Q", "F:2", "Zmod:4", "Feps:2:2"):
        ring = RingSpec.parse(spec)
        for quiver, dx, dy in PAIRS:
            x, y = random_rep(ring, quiver, dx, rng), random_rep(ring, quiver, dy, rng)

            def read(x=x, y=y):
                he = hom_ext(x, y)
                return he.hom, he.ext, he.hom_generators, he.ext_cocycles
            yield spec, "hom_ext", read


def _braid_word(seq, word):
    for letter in word:
        seq = braid_act(seq, abs(letter), inverse=letter < 0)
    return seq


def _orbit_cases():
    for spec in ("Z", "Zmod:4", "Feps:2:2"):
        ring = RingSpec.parse(spec)
        kron, a3 = standard_sequence(ring, KRONECKER), standard_sequence(ring, A3)
        yield spec, "orbit_search", lambda: orbit_search(kron, bound=14)
        yield spec, "orbit_search", lambda: orbit_search(a3, bound=7)
        yield spec, "braid_act", lambda: _braid_word(kron, (1, 1, -1, -1, -1))
        for word in ((1,), (-2,), (1, 2), (2, -1, 2), (1, 2, 1, -2)):
            yield spec, "braid_act", lambda word=word: _braid_word(a3, word)


def _decompose_cases(rng):
    for quiver, planted in PLANTED:
        x = direct_sum_many([tensor_free(exceptional_lattice(quiver, root, ZZ, bound=12), m)
                             for root, m in planted])
        mats = [random_unimodular(d, rng, 2) for d in x.dims]
        x = conjugate_rep(x, mats, [invert(m) for m in mats])
        for spec in ("Z", "Q", "F:3", "Zmod:6", "Feps:2:2"):
            ring = RingSpec.parse(spec)
            y = x if ring == ZZ else base_change(x, canonical_hom(ZZ, ring))

            def read(y=y):
                d = decompose_rigid(y)
                return d.summands, d.ordering, d.certificate, d.evaluations
            yield spec, "decompose_rigid", read


def _invariant(name, out):
    """The part of a case's result that no pivot or witness choice moves."""
    if name == "normal_form":
        return out.nf.entries, out.kind
    if name == "solve":
        return out is None
    if name in ("kernel_data", "cokernel_data"):
        out = out[0]
    if name in ("kernel_data", "cokernel_data", "cokernel"):
        return out.generators, out.invariant_factors
    if name == "kernel_basis":
        return out.rows, out.cols, None if out.ring.is_domain else out.entries
    if name == "cokernel_projection":
        return out is None or (out.rows, out.cols)
    if name == "hom_ext":
        return out[0].invariant_factors, out[1].invariant_factors
    if name == "orbit_search":
        return sorted(out)
    if name == "braid_act":
        return out.dims_tuple()
    if name == "decompose_rigid":
        return tuple((rep.dims, m) for rep, m in out[0]), out[1]
    return out   # howell_rows: canonical


@functools.lru_cache(maxsize=None)
def output_digests() -> tuple:
    """SHA-256s over every case, in order: its ring, its entry point and
    the repr of its result or error; then of its invariants alone."""
    rng = random.Random(20261018)
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old is not None:
        sys.set_int_max_str_digits(0)   # Z cocycles outgrow the default limit
    digest, invariant = hashlib.sha256(), hashlib.sha256()
    try:
        for family in (_matrix_cases(rng), _hom_ext_cases(rng), _orbit_cases(),
                       _decompose_cases(rng)):
            for spec, name, run in family:
                try:
                    out = run()
                    inv = _invariant(name, out)
                    out = _plain(out)
                except QuivlatError as exc:
                    out = inv = (type(exc).__name__, str(exc))
                digest.update(repr((spec, name, out)).encode())
                invariant.update(repr((spec, name, inv)).encode())
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)
    return digest.hexdigest(), invariant.hexdigest()


def test_cokernel_projections_of_the_seeded_matrices():
    """On every seeded matrix a of the digest, over all ten rings, a free
    cokernel's projection pi kills a, maps onto R^k (pi X = I solves) and
    has a row per free summand; a cokernel with torsion has none.  Every
    case runs, in order, so the matrices are the digest's own."""
    projections = 0
    for spec, name, run in _matrix_cases(random.Random(20261018)):
        try:
            pi = run()
        except QuivlatError:   # howell_rows over the domains
            continue
        if name != "cokernel_projection":
            continue
        a = run.args[0]
        pres = cokernel(a)
        if not pres.is_free:
            assert pi is None, (spec, a)
            continue
        projections += 1
        assert (pi.rows, pi.cols) == (pres.free_rank, a.rows), (spec, a)
        assert pi.mul(a).is_zero(), (spec, a)
        assert solve(pi, ExactMatrix.identity(a.ring, pi.rows)) is not None, (spec, a)
    assert projections > 100


def test_output_digest_is_frozen():
    assert output_digests()[0] == DIGEST


def test_invariant_digest_is_frozen():
    assert output_digests()[1] == INVARIANT_DIGEST


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
