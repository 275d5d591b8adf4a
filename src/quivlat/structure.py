"""Real Schur roots, exceptional lattices, and decomposition of rigid objects.

The three constructive results living here:

  - A dimension vector is a real Schur root exactly when some exceptional
    representation carries it; the braid orbit of the simple sequence
    reaches every such vector, so a bounded orbit search decides the
    question up to its bound.
  - For every real Schur root there is an exceptional representation over
    any supported ring: run the orbit search with integer matrices and
    base-change the witness.
  - A rigid representation on free modules decomposes, uniquely up to
    ordering, as a direct sum of multiples of exceptional representations;
    the decomposition is found by a bounded search over candidate roots and
    certified by an explicit isomorphism assembled from evaluation maps and
    splitting sections.

Classification and construction share one integral orbit walk per quiver
and bound: schur_root_status, exceptional_lattice, generic_dims and the
candidate roots of decompose_rigid all read witnesses over Z from it, and
each query advances the walk only as far as it needs.  Nothing is searched
over Q: mutation commutes with the flat base change Z -> Q, so both orbits
pass through the same dimension vectors in the same order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import (
    AmbiguousDecomposition,
    BoundExceeded,
    DimensionMismatch,
    IncompatibleBase,
    NotComputable,
    NotNilpotentKernel,
    NotRigid,
    NotSchurRoot,
    PeelFailure,
    TheoremViolation,
)
from .homology import differential, hom_ext, is_exceptional, is_rigid, _unflatten_vertex
from .mutation import _evaluation_map, _orbit_members, standard_sequence
from .quiver import (
    Quiver,
    Rep,
    RepMorphism,
    _exact_dims,
    base_change,
    cokernel_rep,
    direct_sum_many,
    euler_form,
    tensor_free,
    tits_form,
)
from .rings import (
    ExactMatrix,
    GF,
    RingHom,
    RingSpec,
    ZZ,
    canonical_hom,
    kernel_basis,
    normal_form,
    solve,
)

SCHUR_REAL = "real_schur"
SCHUR_PREFILTER_FALSE = "prefilter_false"
SCHUR_BOUNDED_FALSE = "bounded_false"


# (ring, quiver, bound) -> (member generator, dict dims -> first witness)
_WALKS = {}


def _walk(ring: RingSpec, quiver: Quiver, bound: int, alpha=None) -> dict:
    """Witnesses of the shared braid-orbit walk, advanced until alpha is seen.

    One walk of the standard sequence per (ring, quiver, bound) serves every
    query: it resumes where the last query stopped, so no prefix of the
    orbit is searched twice.  With alpha None the walk is run to the end.
    A walk whose advance raised is dropped, so a later query starts afresh
    instead of reading a half-consumed walk as exhausted.
    """
    key = (ring, quiver, bound)
    walk = _WALKS.get(key)
    if walk is None:
        walk = _WALKS[key] = (
            _orbit_members(standard_sequence(ring, quiver), bound), {})
    members, found = walk
    if alpha not in found:
        try:
            for rep in members:
                found[rep.dims] = rep
                if rep.dims == alpha:
                    break
        except BaseException:
            _WALKS.pop(key, None)
            raise
    return found


def _schur_orbit(ring: RingSpec, quiver: Quiver, bound: int) -> dict:
    """All dimension vectors of braid-orbit members within the bound."""
    return _walk(ring, quiver, bound)


def _schur_witness(ring: RingSpec, quiver: Quiver, alpha: tuple,
                   bound: int) -> Optional[Rep]:
    """First braid-orbit member of dimension vector alpha, or None."""
    return _walk(ring, quiver, bound, alpha).get(alpha)


def _check_dim_vector(quiver: Quiver, alpha) -> tuple:
    alpha = _exact_dims(alpha)
    if len(alpha) != quiver.vertex_count:
        raise DimensionMismatch("dimension vector length %d, need %d" % (
            len(alpha), quiver.vertex_count))
    if any(d < 0 for d in alpha):
        raise DimensionMismatch("negative entry in dimension vector")
    return alpha


def schur_root_status(quiver: Quiver, alpha, *, bound: int = 60) -> str:
    """Classify alpha: real Schur root, rejected by the Tits form, or unknown.

    "prefilter_false" is definitive (an exceptional representation forces
    euler_form(alpha, alpha) = 1); "bounded_false" only says the pruned
    orbit did not reach alpha.  The orbit is walked over Z: by flatness,
    mutation over Z and over Q passes through the same dimension vectors,
    and the integral witness found here is the one exceptional_lattice
    builds from.
    """
    alpha = _check_dim_vector(quiver, alpha)
    if tits_form(quiver, alpha) != 1:
        return SCHUR_PREFILTER_FALSE
    if _schur_witness(ZZ, quiver, alpha, bound) is not None:
        return SCHUR_REAL
    return SCHUR_BOUNDED_FALSE


def is_real_schur_root(quiver: Quiver, alpha, *, bound: int = 60) -> bool:
    return schur_root_status(quiver, alpha, bound=bound) == SCHUR_REAL


def _integral_witness(quiver: Quiver, alpha, bound: int) -> Rep:
    """Exceptional lattice over Z carrying alpha; raises if none is found."""
    alpha = _check_dim_vector(quiver, alpha)
    status = schur_root_status(quiver, alpha, bound=bound)
    if status == SCHUR_PREFILTER_FALSE:
        raise NotSchurRoot("tits form of %r is %d, not 1" % (
            list(alpha), tits_form(quiver, alpha)))
    if status == SCHUR_BOUNDED_FALSE:
        raise BoundExceeded(
            "no exceptional representation of %r found within bound %d" % (
                list(alpha), bound))
    return _schur_witness(ZZ, quiver, alpha, bound)


def exceptional_lattice(quiver: Quiver, alpha, ring: RingSpec = ZZ,
                        *, bound: int = 60) -> Rep:
    """Exceptional representation of dimension vector alpha over the ring.

    The witness is the integral one that classified alpha, transported
    along the canonical map from Z; the result is re-verified to be
    exceptional over the target ring.
    """
    over_z = _integral_witness(quiver, alpha, bound)
    out = over_z if ring == ZZ else base_change(over_z, canonical_hom(ZZ, ring))
    if not is_exceptional(out):
        raise TheoremViolation(
            "constructed representation of %r is not exceptional over %s" % (
                list(over_z.dims), ring))
    return out


@dataclass(frozen=True)
class GenericDims:
    """Hom and Ext ranks of the exceptional pair for two real Schur roots."""

    hom_rank: int
    ext_rank: int


def generic_dims(quiver: Quiver, alpha, beta, *, bound: int = 60) -> GenericDims:
    """Hom and Ext ranks between the exceptional representations over Q.

    Read off as free ranks over Z of the integral witnesses from the shared
    orbit walk; by flatness these are the dimensions over Q.
    """
    reps = [_integral_witness(quiver, root, bound) for root in (alpha, beta)]
    he = hom_ext(reps[0], reps[1])
    dims = GenericDims(he.hom.free_rank, he.ext.free_rank)
    if dims.hom_rank - dims.ext_rank != euler_form(quiver, reps[0].dims, reps[1].dims):
        raise TheoremViolation("hom - ext does not match the bilinear form")
    return dims


# ---------------------------------------------------------------------------
# decomposition of rigid representations


@dataclass(frozen=True)
class RigidDecomposition:
    """Summands with multiplicities, in an order with no backwards maps.

    certificate is a verified isomorphism from the direct sum of
    tensor_free(rep, multiplicity) blocks, taken in listed order, onto the
    decomposed representation; evaluations are the split monomorphisms used
    while peeling, innermost last.
    """

    summands: tuple          # ((Rep, multiplicity), ...)
    ordering: tuple          # dimension vectors, same order
    certificate: RepMorphism
    evaluations: tuple       # RepMorphism per peel step

    def to_json(self) -> dict:
        return {
            "summands": [{"dims": list(rep.dims), "multiplicity": m}
                         for rep, m in self.summands],
            "ordering": [list(d) for d in self.ordering],
            "verified": True,
        }


def _vertex_split_mono(m: ExactMatrix) -> bool:
    """Split injectivity of one vertex map: all invariant factors units."""
    ring = m.ring
    if m.cols == 0:
        return True
    if m.cols > m.rows:
        return False
    if ring.is_field:
        return kernel_basis(m).cols == 0
    nf = normal_form(m).nf
    return all(ring.is_unit(nf.entries[j][j]) for j in range(m.cols))


def _splitting_section(proj: RepMorphism) -> RepMorphism:
    """Morphism section of a projection whose kernel has no extensions back.

    Solves the combined linear system: commutation with every arrow plus
    vertexwise proj * section = identity.
    """
    mid, quot = proj.source, proj.target
    ring = mid.ring
    q = mid.quiver
    comm = differential(quot, mid)
    sec_rows = []
    rhs_entries = []
    n0 = comm.cols
    off = [0]
    for i in range(q.vertex_count):
        off.append(off[-1] + quot.dims[i] * mid.dims[i])
    for i in range(q.vertex_count):
        pi = proj.vertex_maps[i]
        for c in range(quot.dims[i]):
            for rr in range(quot.dims[i]):
                row = [ring.zero] * n0
                for k in range(mid.dims[i]):
                    row[off[i] + c * mid.dims[i] + k] = pi.entries[rr][k]
                sec_rows.append(tuple(row))
                rhs_entries.append(ring.one if rr == c else ring.zero)
    a = ExactMatrix(ring, comm.rows + len(sec_rows), n0,
                    comm.entries + tuple(sec_rows))
    b = ExactMatrix(ring, a.rows, 1,
                    tuple((ring.zero,) for _ in range(comm.rows))
                    + tuple((v,) for v in rhs_entries))
    sol = solve(a, b)
    if sol is None:
        raise PeelFailure("projection admits no morphism section")
    vec = tuple(sol.entries[k][0] for k in range(n0))
    return RepMorphism(quot, mid, _unflatten_vertex(quot, mid, vec))


def _candidate_roots(quiver: Quiver, dims, bound: int):
    """Real Schur roots componentwise below dims, lexicographically sorted.

    Candidates have total dimension at most sum(dims), so the exhaustive
    orbit enumeration can be capped there regardless of the search bound.
    """
    orbit = _schur_orbit(ZZ, quiver, min(bound, sum(dims)))
    return sorted(d for d in orbit
                  if any(d) and all(a <= b for a, b in zip(d, dims)))


def _root_combinations(quiver: Quiver, dims, cands, ext_orthogonal):
    """All multisets of pairwise ext-orthogonal candidates summing to dims."""
    sols = []

    def extend(idx, remaining, chosen):
        if not any(remaining):
            sols.append(tuple(chosen))
            return
        if idx == len(cands):
            return
        beta = cands[idx]
        extend(idx + 1, remaining, chosen)
        if not all(ext_orthogonal(beta, g) and ext_orthogonal(g, beta)
                   for g, _ in chosen):
            return
        caps = [r // b for r, b in zip(remaining, beta) if b]
        top = min(caps) if caps else 0
        for m in range(1, top + 1):
            rest = tuple(r - m * b for r, b in zip(remaining, beta))
            if any(v < 0 for v in rest):
                break
            extend(idx + 1, rest, chosen + [(beta, m)])

    extend(0, tuple(dims), [])
    return sols


def _hom_order(roots, fp_reps):
    """Order roots so nonzero Hom only points forward; lex-least tie-break."""
    succ = {r: [] for r in roots}
    indeg = {r: 0 for r in roots}
    for a, b in itertools.permutations(roots, 2):
        if not hom_ext(fp_reps[a], fp_reps[b]).hom.is_zero:
            succ[a].append(b)
            indeg[b] += 1
    ready = [r for r in roots if indeg[r] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        r = heapq.heappop(ready)
        out.append(r)
        for s in succ[r]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(out) != len(roots):
        raise TheoremViolation("Hom relation between summands has a cycle")
    return out


def decompose_rigid(x: Rep, *, aux_prime: int = 2, bound: int = 60) -> RigidDecomposition:
    """Decompose a rigid representation into exceptional summands, certified.

    The multiset of summand roots is pinned down by a bounded search: every
    multiset of pairwise ext-orthogonal real Schur roots summing to the
    dimension vector gives a rigid representation, and two distinct ones of
    equal dimension vector cannot both exist, so exactly one combination
    must survive.  The summands are then rebuilt over the base ring, peeled
    off by split evaluation maps, and reassembled into an isomorphism that
    is checked vertexwise.
    """
    ring = x.ring
    if ring.kind not in ("Z", "Q", "F"):
        raise NotComputable(
            "decomposition needs Z, Q or a prime field, not %s" % ring)
    quiver = x.quiver
    quiver.topological_order()
    if not is_rigid(x):
        raise NotRigid("representation has nonzero self-extensions")
    if x.is_zero:
        cert = RepMorphism(Rep.zero(ring, quiver), x,
                           tuple(ExactMatrix.zeros(ring, 0, 0)
                                 for _ in range(quiver.vertex_count)))
        return RigidDecomposition((), (), cert, ())

    fp = ring if ring.kind == "F" else GF(aux_prime)
    eff_bound = min(bound, sum(x.dims))
    cands = _candidate_roots(quiver, x.dims, bound)
    fp_reps = {d: exceptional_lattice(quiver, d, fp, bound=eff_bound)
               for d in cands}

    def ext_orthogonal(a, b):
        return hom_ext(fp_reps[a], fp_reps[b]).ext.is_zero

    sols = _root_combinations(quiver, x.dims, cands, ext_orthogonal)
    if len(sols) != 1:
        raise AmbiguousDecomposition(
            "%d candidate root combinations for dims %r" % (
                len(sols), list(x.dims)))
    multiplicity = dict(sols[0])
    roots = _hom_order(sorted(multiplicity), fp_reps)

    lattices = {d: exceptional_lattice(quiver, d, ring, bound=eff_bound)
                for d in roots}
    for a, b in itertools.product(roots, repeat=2):
        if not hom_ext(lattices[a], lattices[b]).ext.is_zero:
            raise TheoremViolation(
                "summands %r and %r have extensions over %s" % (a, b, ring))

    current = x
    embed = RepMorphism.identity(x)   # current -> x through the chosen sections
    partial = {}                      # root -> morphism tensor_free(X_i, m_i) -> x
    evaluations = []
    for root in reversed(roots):
        xi, mi = lattices[root], multiplicity[root]
        he = hom_ext(xi, current)
        if not he.hom.is_free or he.hom.free_rank != mi:
            raise PeelFailure(
                "Hom(%r, rest) has presentation %r, expected free rank %d" % (
                    list(root), list(he.hom.invariant_factors), mi))
        theta = _evaluation_map(xi, current, he.hom_generators)
        if not all(_vertex_split_mono(m) for m in theta.vertex_maps):
            raise PeelFailure("evaluation map of %r is not split mono" % (
                list(root),))
        quot, proj = cokernel_rep(theta)
        section = _splitting_section(proj)
        evaluations.append(theta)
        partial[root] = embed.compose(theta)
        embed = embed.compose(section)
        current = quot
    if not current.is_zero:
        raise PeelFailure("peeling left a nonzero remainder %r" % (
            list(current.dims),))

    summands = tuple((lattices[r], multiplicity[r]) for r in roots)
    total = direct_sum_many([tensor_free(lattices[r], multiplicity[r])
                             for r in roots])
    maps = []
    for i in range(quiver.vertex_count):
        m = ExactMatrix.zeros(ring, x.dims[i], 0)
        for r in roots:
            m = m.hstack(partial[r].vertex_maps[i])
        maps.append(m)
    certificate = RepMorphism(total, x, tuple(maps))
    if not certificate.is_isomorphism():
        raise TheoremViolation("assembled decomposition map is not invertible")
    return RigidDecomposition(summands, tuple(roots), certificate,
                              tuple(evaluations))


def lift_rigid(x: Rep, hom: RingHom) -> Rep:
    """Lift a rigid representation along a nilpotent-kernel quotient.

    Entries are lifted by the canonical section of the hom; the result maps
    back to the input exactly and inherits rigidity, which is re-verified.
    """
    if hom.target != x.ring:
        raise IncompatibleBase(
            "representation over %s, hom lands in %s" % (x.ring, hom.target))
    if not (hom.has_nilpotent_kernel or hom.is_bijective):
        raise NotNilpotentKernel(
            "kernel of %s -> %s is not nilpotent" % (hom.source, hom.target))
    if not is_rigid(x):
        raise NotRigid("only rigid representations lift rigidly")
    mats = []
    for m in x.mats:
        rows = tuple(tuple(hom.section(v) for v in row) for row in m.entries)
        mats.append(ExactMatrix(hom.source, m.rows, m.cols, rows))
    lifted = Rep(hom.source, x.quiver, x.dims, tuple(mats))
    if base_change(lifted, hom) != x:
        raise TheoremViolation("section failed to invert the hom entrywise")
    if not is_rigid(lifted):
        raise TheoremViolation("lift of a rigid representation is not rigid")
    return lifted
