"""Kernel and cokernel representations and direct-sum blocks, each built in
one place, against the code they replaced, kept here as the reference.

quiver._subrep builds the subrepresentation on the images of injective
vertex maps, solving incls[head] k = X_a incls[tail] for each arrow.
kernel_rep is _subrep on kernel_data's inclusions, and cokernel_rep is the
transpose dual (quiver._dual) of _subrep on the dual of the target, on the
transposed cokernel projections.  quiver._block_inclusions lays out the
leading and trailing blocks of a direct sum for direct_sum_injections and
mutation._sub_quot_witnesses.  Each must give exactly what the loops they
replaced gave:

  (a) kernel_rep and cokernel_rep equal the reference copies on seeded
      morphisms over Z, Q, F:3, Zmod:4, Zmod:6 and Feps:2:2 (random
      combinations of Hom generators, scalar multiples of the identity,
      evaluation maps of exceptional pairs): the same representation and
      the same morphism, entry for entry and of the same type, or
      NonFreeCokernel from both at the same vertex;
  (b) direct_sum_injections and the _sub_quot_witnesses matrices equal the
      block matrices built by hand, on direct sums and on extension
      middles;
  (c) quiver._split, which reads each vertex map's cokernel presentation
      off the elimination that gives its kernel, decides and answers as
      the two-elimination rule did, kernel_rep then all(cokernel(m).is_zero
      ...), and _subrep, one solve per head vertex, builds what one solve
      per arrow built: on the morphisms of (a) and on a quiver with two
      arrows into one head, a loop and a vertex with no incoming arrow.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_quotient_duality.py
"""

import random

from quivlat import rings
from quivlat.errors import NonFreeCokernel, TheoremViolation
from quivlat.homology import hom_ext
from quivlat.mutation import _evaluation_map, _extension_middle, _sub_quot_witnesses
from quivlat.quiver import (
    Quiver,
    Rep,
    RepMorphism,
    _split,
    _subrep,
    cokernel_rep,
    direct_sum,
    direct_sum_injections,
    kernel_rep,
    tensor_free,
)
from quivlat.rings import QQ, ZZ, ExactMatrix, Feps, GF, Zmod, solve
from quivlat.structure import exceptional_lattice
from quivlat.verify import _entry_pool, random_rep

RINGS = (ZZ, QQ, GF(3), Zmod(4), Zmod(6), Feps(2, 2))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))
A3 = Quiver(3, ((1, 2), (2, 3)))
TRIANGLE = Quiver(3, ((1, 2), (2, 3), (1, 3)))
# (quiver, dimension vectors of the random reps)
SHAPES = (
    (KRONECKER, ((1, 1), (1, 2), (2, 2), (0, 2), (2, 0))),
    (A3, ((1, 1, 1), (1, 2, 1), (0, 1, 2), (2, 1, 0))),
    (TRIANGLE, ((1, 1, 1), (1, 1, 2), (0, 2, 1))),
)
# arrows 1 -> 2 and the loop 2 -> 2 into vertex 2, two into vertex 3, none
# into vertex 1
LOOPED = Quiver(3, ((1, 2), (2, 2), (1, 3), (2, 3)))
LOOPED_DIMS = ((1, 1, 1), (1, 2, 1), (2, 1, 1), (0, 1, 2))


# ---------------------------------------------------------------------------
# the reference: kernel_rep, cokernel_rep, direct_sum_injections and
# _sub_quot_witnesses as they were


def _kernel_rep_as_it_was(f: RepMorphism) -> tuple:
    ring = f.source.ring
    x = f.source
    q = x.quiver
    incls = []
    for i, m in enumerate(f.vertex_maps):
        pres, gens = rings.kernel_data(m)
        if not pres.is_free:
            raise NonFreeCokernel("vertex %d kernel is not free" % (i + 1))
        incls.append(ExactMatrix._of(ring, len(gens), m.cols, tuple(gens)).transpose())
    dims = tuple(m.cols for m in incls)
    mats = []
    for a in range(q.arrow_count):
        t, h = q.tail(a), q.head(a)
        rhs = x.mats[a].mul(incls[t])
        ka = solve(incls[h], rhs)
        if ka is None:
            raise TheoremViolation("kernel is not arrow-stable")
        mats.append(ka)
    ker = Rep(ring, q, dims, tuple(mats))
    incl = RepMorphism(ker, x, tuple(incls))
    return ker, incl


def _cokernel_rep_as_it_was(f: RepMorphism) -> tuple:
    ring = f.source.ring
    y = f.target
    q = y.quiver
    projs = []
    for i, m in enumerate(f.vertex_maps):
        pi = rings.cokernel_projection(m)
        if pi is None:
            raise NonFreeCokernel("vertex %d cokernel has torsion" % (i + 1))
        projs.append(pi)
    dims = tuple(p.rows for p in projs)
    mats = []
    for a in range(q.arrow_count):
        t, h = q.tail(a), q.head(a)
        rhs = projs[h].mul(y.mats[a]).transpose()
        ca_t = solve(projs[t].transpose(), rhs)
        if ca_t is None:
            raise TheoremViolation("cokernel maps do not descend")
        mats.append(ca_t.transpose())
    cok = Rep(ring, q, dims, tuple(mats))
    proj = RepMorphism(y, cok, tuple(projs))
    return cok, proj


def _injections_as_they_were(x: Rep, y: Rep) -> tuple:
    s = direct_sum(x, y)
    ring = x.ring
    inj_x, inj_y = [], []
    for i in range(x.quiver.vertex_count):
        dx, dy = x.dims[i], y.dims[i]
        inj_x.append(ExactMatrix.identity(ring, dx).vstack(ExactMatrix.zeros(ring, dy, dx)))
        inj_y.append(ExactMatrix.zeros(ring, dx, dy).vstack(ExactMatrix.identity(ring, dy)))
    return RepMorphism(x, s, tuple(inj_x)), RepMorphism(y, s, tuple(inj_y))


def _witnesses_as_they_were(sub: Rep, middle: Rep, quot: Rep) -> tuple:
    ring = middle.ring
    incl, proj = [], []
    for i in range(middle.quiver.vertex_count):
        ds, dq = sub.dims[i], quot.dims[i]
        incl.append(ExactMatrix.identity(ring, ds).vstack(ExactMatrix.zeros(ring, dq, ds)))
        proj.append(ExactMatrix.zeros(ring, dq, ds).hstack(ExactMatrix.identity(ring, dq)))
    return (RepMorphism(sub, middle, tuple(incl)),
            RepMorphism(middle, quot, tuple(proj)))


# ---------------------------------------------------------------------------
# bit-identity


def _bits(m: ExactMatrix) -> tuple:
    """A matrix's ring, shape and entries with their types: Fraction(1) and
    1 are equal but not the same output."""
    return (m.ring, m.rows, m.cols,
            tuple(tuple((type(v), v) for v in row) for row in m.entries))


def _rep_bits(x: Rep) -> tuple:
    return x.ring, x.quiver, x.dims, tuple(map(_bits, x.mats))


def _morphism_bits(f: RepMorphism) -> tuple:
    return (_rep_bits(f.source), _rep_bits(f.target),
            tuple(map(_bits, f.vertex_maps)))


def _outcome(construction, f):
    """(rep bits, morphism bits) of the construction's answer, or the
    NonFreeCokernel it raised, with its message."""
    try:
        rep, witness = construction(f)
    except NonFreeCokernel as exc:
        return "NonFreeCokernel", str(exc)
    return _rep_bits(rep), _morphism_bits(witness)


# ---------------------------------------------------------------------------
# seeded morphisms


def _combination(x: Rep, y: Rep, rng: random.Random):
    """A random combination of the Hom generators of (x, y), or None when
    Hom(x, y) has none."""
    gens = hom_ext(x, y)._generator_maps
    if not gens:
        return None
    pool = _entry_pool(x.ring)
    maps = [ExactMatrix.zeros(x.ring, y.dims[i], x.dims[i])
            for i in range(x.quiver.vertex_count)]
    for g in gens:
        c = rng.choice(pool)
        maps = [m.add(gi.scale(c)) for m, gi in zip(maps, g)]
    return RepMorphism(x, y, tuple(maps))


def _scalar(x: Rep, c) -> RepMorphism:
    return RepMorphism(x, x, tuple(ExactMatrix.identity(x.ring, d).scale(c)
                                   for d in x.dims))


def _morphisms(ring, seed: int = 0) -> list:
    """Random combinations of Hom generators between random reps, the
    scalar multiples 2 and 3 of the identity and, over Feps:2:2, e times
    it (NonFreeCokernel at the first vertex of positive dimension over Z,
    Zmod:4, Zmod:6 and Feps:2:2), and the evaluation maps of the Kronecker
    exceptional pairs."""
    rng = random.Random("quotients:%s:%d" % (ring, seed))
    out = _random_morphisms(ring, rng, SHAPES)
    for a, b in (((1, 0), (0, 1)), ((0, 1), (1, 2)), ((1, 2), (2, 3)), ((0, 1), (1, 0))):
        x, y = exceptional_lattice(KRONECKER, a, ring), exceptional_lattice(KRONECKER, b, ring)
        gens = hom_ext(x, y)._generator_maps
        if gens:
            out.append(_evaluation_map(x, y, gens))
    return out


def _random_morphisms(ring, rng: random.Random, shapes) -> list:
    """_morphisms' combinations and scalar multiples on the given shapes."""
    out = []
    for quiver, dims_list in shapes:
        reps = [random_rep(ring, quiver, dims, rng) for dims in dims_list]
        for x in reps:
            for y in reps:
                f = _combination(x, y, rng)
                if f is not None:
                    out.append(f)
            out += [_scalar(x, ring.canon(2)), _scalar(x, ring.canon(3))]
            if ring == Feps(2, 2):
                out.append(_scalar(x, (0, 1)))
    return out


def test_kernel_and_cokernel_reps_equal_the_loops_they_replaced():
    seen = set()
    for ring in RINGS:
        for f in _morphisms(ring):
            for new, old, what in ((kernel_rep, _kernel_rep_as_it_was, "kernel"),
                                   (cokernel_rep, _cokernel_rep_as_it_was, "cokernel")):
                answer = _outcome(new, f)
                assert answer == _outcome(old, f), (str(ring), what, f)
                seen.add((str(ring), what, answer[0] == "NonFreeCokernel"))
    # every ring answers both; the non-fields and Z also refuse
    for ring in RINGS:
        for what in ("kernel", "cokernel"):
            assert (str(ring), what, False) in seen, (str(ring), what)
    for ring, what in (("Z", "cokernel"), ("Zmod:4", "kernel"), ("Zmod:4", "cokernel"),
                       ("Zmod:6", "kernel"), ("Zmod:6", "cokernel"),
                       ("Feps:2:2", "kernel"), ("Feps:2:2", "cokernel")):
        assert (ring, what, True) in seen, (ring, what)


def test_non_free_refusals_name_the_same_vertex():
    # a zero first vertex puts the refusal at vertex 2
    x = random_rep(Zmod(6), KRONECKER, (0, 2), random.Random(5))
    two = _scalar(x, 2)
    for new, old, says in ((kernel_rep, _kernel_rep_as_it_was, "vertex 2 kernel is not free"),
                           (cokernel_rep, _cokernel_rep_as_it_was, "vertex 2 cokernel has torsion")):
        assert _outcome(new, two) == _outcome(old, two) == ("NonFreeCokernel", says)


def test_direct_sum_injections_equal_the_blocks_built_by_hand():
    for ring in RINGS:
        rng = random.Random("injections:%s" % ring)
        for quiver, dims_list in SHAPES:
            reps = [random_rep(ring, quiver, dims, rng) for dims in dims_list]
            for x in reps:
                for y in reps:
                    new = tuple(map(_morphism_bits, direct_sum_injections(x, y)))
                    old = tuple(map(_morphism_bits, _injections_as_they_were(x, y)))
                    assert new == old, (str(ring), x.dims, y.dims)


def test_sub_quot_witnesses_equal_the_blocks_built_by_hand():
    for ring in RINGS:
        rng = random.Random("witnesses:%s" % ring)
        for quiver, dims_list in SHAPES:
            reps = [random_rep(ring, quiver, dims, rng) for dims in dims_list[:3]]
            for x in reps:
                for y in reps:
                    # the extension middle of (x, y) by every Ext cocycle, and
                    # the split one
                    cocycles = hom_ext(x, y).ext_cocycles
                    for sub, middle, quot in (
                            (y, _extension_middle(x, y, cocycles), tensor_free(x, len(cocycles))),
                            (y, direct_sum(y, x), x)):
                        new = tuple(map(_morphism_bits, _sub_quot_witnesses(sub, middle, quot)))
                        old = tuple(map(_morphism_bits,
                                        _witnesses_as_they_were(sub, middle, quot)))
                        assert new == old, (str(ring), x.dims, y.dims)


# ---------------------------------------------------------------------------
# (c) the split test and _subrep against the eliminations and solves they
# replaced


def _split_as_it_was(f: RepMorphism, epi: bool):
    """quiver._split as it was: the kernel or cokernel representation, its
    dimension vector, and for epi a second elimination per vertex map."""
    try:
        out = (_kernel_rep_as_it_was if epi else _cokernel_rep_as_it_was)(f)
    except NonFreeCokernel:
        return None
    src, tgt = f.source.dims, f.target.dims
    dims = tuple(a - b for a, b in (zip(src, tgt) if epi else zip(tgt, src)))
    if out[0].dims != dims or epi and not all(
            rings.cokernel(m).is_zero for m in f.vertex_maps):
        return None
    return out


def _subrep_as_it_was(x: Rep, incls) -> Rep:
    """quiver._subrep as it was: one solve per arrow."""
    q = x.quiver
    mats = []
    for a in range(q.arrow_count):
        k = solve(incls[q.head(a)], x.mats[a].mul(incls[q.tail(a)]))
        if k is None:
            raise TheoremViolation("subspaces are not arrow-stable")
        mats.append(k)
    return Rep(x.ring, q, tuple(m.cols for m in incls), tuple(mats))


def _oracle_morphisms(ring) -> list:
    """The morphisms of (a), then those of the same kinds on LOOPED."""
    return _morphisms(ring) + _random_morphisms(
        ring, random.Random("looped:%s" % ring), ((LOOPED, LOOPED_DIMS),))


def _split_bits(answer):
    return None if answer is None else (_rep_bits(answer[0]), _morphism_bits(answer[1]))


def test_split_decides_as_the_two_elimination_rule_did():
    seen, count = set(), 0
    for ring in RINGS:
        for f in _oracle_morphisms(ring):
            count += 1
            for epi in (True, False):
                answer = _split_bits(_split(f, epi))
                assert answer == _split_bits(_split_as_it_was(f, epi)), (str(ring), epi, f)
                seen.add((epi, answer is None, f.source.quiver == LOOPED))
    assert count > 396
    # both verdicts on both sides, on the file's quivers and on LOOPED
    assert seen == {(epi, none, looped) for epi in (True, False)
                    for none in (True, False) for looped in (True, False)}, seen


def _dual_of(x: Rep) -> Rep:
    q = x.quiver
    return Rep(x.ring, Quiver(q.vertex_count, tuple((h, t) for t, h in q.arrows)),
               x.dims, tuple(m.transpose() for m in x.mats))


def test_subrep_solves_once_per_head_as_once_per_arrow():
    looped = 0
    for ring in RINGS:
        for f in _oracle_morphisms(ring):
            # the inclusions kernel_rep and cokernel_rep hand _subrep
            for build, ambient, transpose in ((kernel_rep, f.source, False),
                                              (cokernel_rep, f.target, True)):
                try:
                    witness = build(f)[1]
                except NonFreeCokernel:
                    continue
                if transpose:
                    ambient = _dual_of(ambient)
                incls = [m.transpose() if transpose else m for m in witness.vertex_maps]
                new, old = _subrep(ambient, incls), _subrep_as_it_was(ambient, incls)
                assert _rep_bits(new) == _rep_bits(old), (str(ring), f)
                looped += f.source.quiver == LOOPED
    assert looped > 0


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
