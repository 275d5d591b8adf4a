"""The summand roots of decompose_rigid against a multiset search.

structure._summand_roots reads the summand roots of a dimension vector off
the first state of the orbit walk, an exceptional sequence, in whose basis
the vector has nonnegative coordinates on members with no Ext between them.
The reference is an exhaustive search: every multiset of pairwise
ext-orthogonal real Schur roots summing to the vector, with Ext read off
Schofield's recursion on dimension vectors (generic_ext, below).  The
recursion lives here, not in the package, whose one route to Ext is
hom_ext; the other tests read it from this file as their reference for
generic Ext.  For every vector up to total 12 (8 on the four-vertex
quivers) the roots must be found exactly when the search finds one
multiset, and must be that multiset.  And every splitting section
decompose_rigid takes on planted sums is a morphism with proj * section
the identity.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_summand_peel.py
"""

import itertools
import operator
import random

from quivlat import structure
from quivlat.elimination import invert
from quivlat.errors import BoundExceeded
from quivlat.mutation import _walk
from quivlat.quiver import (Quiver, RepMorphism, base_change, direct_sum_many, euler_form,
                            tensor_free)
from quivlat.rings import ZZ, RingSpec, canonical_hom
from quivlat.verify import conjugate_rep, random_unimodular

QUIVERS = {
    "A2": Quiver(2, ((1, 2),)),
    "A3": Quiver(3, ((1, 2), (2, 3))),
    "kronecker": Quiver(2, ((1, 2), (1, 2))),
    "3-kronecker": Quiver(2, ((1, 2), (1, 2), (1, 2))),
    "triangle": Quiver(3, ((1, 2), (2, 3), (1, 3))),
    "A3-reversed": Quiver(3, ((2, 1), (3, 2))),
    "4-kronecker": Quiver(2, ((1, 2),) * 4),
    "D4": Quiver(4, ((1, 4), (2, 4), (3, 4))),
    "A4-alternating": Quiver(4, ((1, 2), (3, 2), (3, 4))),
}
TOTAL = 12
# the search is slowest on four vertices: 494 vectors up to total 8, 1,819 up to 12
TOTALS = {"D4": 8, "A4-alternating": 8}


def generic_subdims(quiver, alpha, table):
    """The dimension vectors of the subrepresentations of a general
    representation of dimension alpha, alpha itself first.

    Schofield's recursion ("General representations of quivers", Proc. LMS
    1992, section 6): beta is one exactly when ext(beta, alpha - beta) is 0,
    and ext(beta, gamma) is the largest -<beta', gamma> over the generic
    subdimension vectors beta' of beta.  table, {dimension vector: its
    generic subdimension vectors} for this quiver, is the caller's: it is
    filled for every vector below alpha by increasing total, so each test
    reads only finished entries and nothing recurses, and later calls on
    the same table read what is filled.  It holds up to prod(alpha_i + 1)
    vectors, each tested against up to as many.
    """
    if alpha in table:
        return table[alpha]
    arrows = [(quiver.tail(a), quiver.head(a)) for a in range(quiver.arrow_count)]
    for gamma in sorted(itertools.product(*(range(d + 1) for d in alpha)), key=sum):
        if gamma in table:
            continue
        subs = [gamma]
        for beta in itertools.product(*(range(d + 1) for d in gamma)):
            rest = [g - b for g, b in zip(gamma, beta)]
            w = rest[:]                 # <v, rest> is the dot product v . w
            for t, h in arrows:
                w[t] -= rest[h]
            if beta != gamma and all(sum(map(operator.mul, v, w)) >= 0
                                     for v in table[beta]):
                subs.append(beta)
        table[gamma] = tuple(subs)
    return table[alpha]


def generic_ext(quiver, alpha, beta, table):
    """ext(alpha, beta), the rank of Ext between general representations;
    for real Schur roots, between their exceptional representations.  table
    is generic_subdims' table for this quiver."""
    return max(-euler_form(quiver, sub, beta)
               for sub in generic_subdims(quiver, alpha, table))


def _vectors(quiver, total):
    return [d for d in itertools.product(range(total + 1), repeat=quiver.vertex_count)
            if 0 < sum(d) <= total]


def _root_combinations(quiver, dims, table):
    """All multisets of pairwise ext-orthogonal real Schur roots summing to
    dims, found by backtracking over the roots below dims; table is the
    quiver's subdimension table, shared across calls."""

    def ext(quiver, alpha, beta):
        return generic_ext(quiver, alpha, beta, table)

    cands = sorted(d for d in _walk(quiver, sum(dims), None).full()[1]
                   if any(d) and all(a <= b for a, b in zip(d, dims)))
    sols = []

    def extend(idx, remaining, chosen):
        if not any(remaining):
            sols.append(tuple(chosen))
            return
        if idx == len(cands):
            return
        beta = cands[idx]
        extend(idx + 1, remaining, chosen)
        if not all(ext(quiver, beta, g) == 0 == ext(quiver, g, beta) for g, _ in chosen):
            return
        for m in itertools.count(1):
            rest = tuple(r - m * b for r, b in zip(remaining, beta))
            if any(v < 0 for v in rest):
                break
            extend(idx + 1, rest, chosen + [(beta, m)])

    extend(0, dims, [])
    return sols


def _peel(quiver, dims):
    try:
        return tuple(sorted(structure._summand_roots(quiver, dims, 60).items()))
    except BoundExceeded:
        return None


def test_peel_takes_the_one_multiset_the_search_finds():
    for name, quiver in QUIVERS.items():
        peeled, table = 0, {}
        for dims in _vectors(quiver, TOTALS.get(name, TOTAL)):
            sols = _root_combinations(quiver, dims, table)
            want = tuple(sorted(sols[0])) if len(sols) == 1 else None
            assert _peel(quiver, dims) == want, (name, dims, sols)
            peeled += want is not None
        assert peeled > TOTAL, (name, peeled)


# quiver, then (summand root, multiplicity) of a planted sum of exceptional
# lattices
PLANTED = (("kronecker", (((1, 2), 2), ((0, 1), 1))),
           ("A3", (((0, 1, 1), 2), ((1, 1, 1), 1))),
           ("triangle", (((0, 0, 1), 2), ((0, 1, 1), 1), ((1, 1, 2), 1))))


def test_splitting_sections_split_the_projections():
    sections = []
    structure_section = structure._morphism_section

    def spy(proj):
        section = structure_section(proj)
        sections.append((proj, section))
        return section

    structure._morphism_section = spy
    rng = random.Random(5)
    try:
        for name, planted in PLANTED:
            quiver = QUIVERS[name]
            x = direct_sum_many([tensor_free(structure.exceptional_lattice(quiver, root), m)
                                 for root, m in planted])
            mats = [random_unimodular(d, rng, 2) for d in x.dims]
            x = conjugate_rep(x, mats, [invert(m) for m in mats])
            for spec in ("Z", "Q", "F:3", "Zmod:6", "Feps:2:2"):
                ring = RingSpec.parse(spec)
                y = x if ring == ZZ else base_change(x, canonical_hom(ZZ, ring))
                del sections[:]
                structure.decompose_rigid(y)
                assert len(sections) == len(planted), (name, spec)
                for proj, section in sections:
                    assert (proj.compose(section).vertex_maps
                            == RepMorphism.identity(proj.target).vertex_maps), (name, spec)
                    mid, quot, maps = proj.source, proj.target, section.vertex_maps
                    for a in range(quiver.arrow_count):
                        t, h = quiver.tail(a), quiver.head(a)
                        assert (maps[h].mul(quot.mats[a]).entries
                                == mid.mats[a].mul(maps[t]).entries), (name, spec, a)
    finally:
        structure._morphism_section = structure_section


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
