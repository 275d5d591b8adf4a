"""Real Schur roots, exceptional lattices, and decomposition of rigid objects.

The three constructive results living here:

  - A dimension vector is a real Schur root exactly when some exceptional
    representation carries it; the braid orbit of the simple sequence
    reaches every such vector, so a bounded orbit search decides the
    question up to its bound.
  - For every real Schur root there is an exceptional representation over
    any supported ring: run the orbit search with integer matrices and
    base-change the witness.
  - A rigid representation on free modules, over any supported ring,
    decomposes uniquely up to ordering as a direct sum of multiples of
    exceptional representations; the summand roots are peeled off the
    dimension vector with Kac's splitting criterion on generic Ext in
    integers, and the decomposition is certified by an explicit
    isomorphism assembled from evaluation maps (mutation._evaluation_map)
    and splitting sections, which homology._morphism_section solves for in
    the Hom complex, whose layout homology alone knows.
    Two rigid representations with one dimension vector are therefore
    isomorphic, through the certificates.

Classification walks the braid orbit of the standard sequence on dimension
vectors alone (mutation._dims_orbit, the walk orbit_search reads too), so
schur_root_status and the summand roots of decompose_rigid build no
representation; nor do generic_dims and the test whether a root splits
off, which read Schofield's recursion for generic Ext on dimension
vectors.  A witness is built only by exceptional_lattice: the braid word
that first reached its root is replayed over Z from the standard sequence
(mutation._orbit_sequence), and every sequence built on the way is kept
for later replays.  Nothing is searched over Q: mutation commutes with the
flat base change Z -> Q, so both orbits pass through the same dimension
vectors in the same order.
"""

from __future__ import annotations

import itertools
import operator

from .errors import (
    BoundExceeded,
    IncompatibleBase,
    NonFreeCokernel,
    NotNilpotentKernel,
    NotRigid,
    NotSchurRoot,
    PeelFailure,
    TheoremViolation,
)
from ._record import Record
from .homology import _morphism_section, hom_ext, is_exceptional, is_rigid
from .mutation import _dims_orbit, _evaluation_map, _orbit_sequence, standard_sequence
from .quiver import (
    Quiver,
    Rep,
    RepMorphism,
    _check_compatible,
    _check_dims,
    _lex_least_order,
    base_change,
    cokernel_rep,
    direct_sum_many,
    euler_form,
    tensor_free,
    tits_form,
)
from .rings import ExactMatrix, RingHom, RingSpec, ZZ, canonical_hom, invert

SCHUR_REAL = "real_schur"
SCHUR_PREFILTER_FALSE = "prefilter_false"
SCHUR_BOUNDED_FALSE = "bounded_false"


# (quiver, bound) -> {state of _dims_orbit(quiver, bound): its integral ExcSequence}
_BUILT = {}


def schur_root_status(quiver: Quiver, alpha, *, bound: int = 60) -> str:
    """Classify alpha: real Schur root, rejected by the Tits form, or unknown.

    "prefilter_false" is definitive (an exceptional representation forces
    euler_form(alpha, alpha) = 1); "bounded_false" only says the pruned
    orbit did not reach alpha.  The orbit is walked on dimension vectors,
    which the mutation formulas determine, so no representation is built;
    exceptional_lattice replays a witness for alpha only when asked.
    """
    alpha = _check_dims(quiver, alpha)
    if tits_form(quiver, alpha) != 1:
        return SCHUR_PREFILTER_FALSE
    if alpha in _dims_orbit(quiver, bound)[1]:
        return SCHUR_REAL
    return SCHUR_BOUNDED_FALSE


def is_real_schur_root(quiver: Quiver, alpha, *, bound: int = 60) -> bool:
    return schur_root_status(quiver, alpha, bound=bound) == SCHUR_REAL


def _require_real_schur(quiver: Quiver, alpha, bound: int) -> tuple:
    """alpha, checked; NotSchurRoot or BoundExceeded unless the orbit walk
    within bound reaches it.  No witness is replayed."""
    alpha = _check_dims(quiver, alpha)
    status = schur_root_status(quiver, alpha, bound=bound)
    if status == SCHUR_PREFILTER_FALSE:
        raise NotSchurRoot("tits form of %r is %d, not 1" % (
            list(alpha), tits_form(quiver, alpha)))
    if status == SCHUR_BOUNDED_FALSE:
        raise BoundExceeded(
            "no exceptional representation of %r found within bound %d" % (
                list(alpha), bound))
    return alpha


def _integral_witness(quiver: Quiver, alpha, bound: int) -> Rep:
    """orbit_search's witness over Z for alpha; raises if there is none."""
    alpha = _require_real_schur(quiver, alpha, bound)
    steps, first = _dims_orbit(quiver, bound)
    if (quiver, bound) not in _BUILT:   # steps begin at the standard sequence
        _BUILT[quiver, bound] = {next(iter(steps)): standard_sequence(ZZ, quiver)}
    state = first[alpha]
    return _orbit_sequence(steps, _BUILT[quiver, bound], state)[state.index(alpha)]


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


class GenericDims(Record):
    """Hom and Ext ranks of the exceptional pair for two real Schur roots."""

    _fields = ("hom_rank", "ext_rank")

    def __init__(self, hom_rank: int, ext_rank: int):
        self.__dict__.update(hom_rank=hom_rank, ext_rank=ext_rank)


def generic_dims(quiver: Quiver, alpha, beta, *, bound: int = 60) -> GenericDims:
    """Hom and Ext ranks between the exceptional representations over Q.

    Both roots must be reached by the orbit walk within the bound.  The Ext
    rank is Schofield's recursion on dimension vectors (_generic_ext), and
    the Hom rank follows from the Euler form, hom - ext = <alpha, beta>; no
    witness is built.
    """
    alpha, beta = (_require_real_schur(quiver, root, bound) for root in (alpha, beta))
    ext = _generic_ext(quiver, alpha, beta)
    return GenericDims(ext + euler_form(quiver, alpha, beta), ext)


# ---------------------------------------------------------------------------
# decomposition of rigid representations


class RigidDecomposition(Record):
    """Summands with multiplicities, in an order with no backwards maps.

    certificate is a verified isomorphism from the direct sum of
    tensor_free(rep, multiplicity) blocks, taken in listed order, onto the
    decomposed representation; evaluations are the split monomorphisms used
    while peeling, innermost last.
    """

    _fields = ("summands",      # ((Rep, multiplicity), ...)
               "ordering",      # dimension vectors, same order
               "certificate",   # RepMorphism
               "evaluations")   # RepMorphism per peel step

    def __init__(self, summands: tuple, ordering: tuple, certificate: RepMorphism,
                 evaluations: tuple):
        self.__dict__.update(summands=summands, ordering=ordering, certificate=certificate,
                             evaluations=evaluations)

    def to_json(self) -> dict:
        return {
            "summands": [{"dims": list(rep.dims), "multiplicity": m}
                         for rep, m in self.summands],
            "ordering": [list(d) for d in self.ordering],
            "verified": True,
        }


# quiver -> {dimension vector: its generic subdimension vectors}
_SUBDIMS = {}


def _generic_subdims(quiver: Quiver, alpha: tuple) -> tuple:
    """The dimension vectors of the subrepresentations of a general
    representation of dimension alpha, alpha itself first.

    Schofield's recursion: beta is one exactly when ext(beta, alpha - beta)
    is 0, and ext(beta, gamma) is the largest -<beta', gamma> over the
    generic subdimension vectors beta' of beta.  The table is filled for
    every vector below alpha by increasing total, so each test reads only
    finished entries and nothing recurses.
    """
    table = _SUBDIMS.setdefault(quiver, {})
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


def _generic_ext(quiver: Quiver, alpha: tuple, beta: tuple) -> int:
    """ext(alpha, beta), the rank of Ext between general representations;
    for real Schur roots, between their exceptional representations."""
    return max(-euler_form(quiver, sub, beta)
               for sub in _generic_subdims(quiver, alpha))


def _generic_ext_into(quiver: Quiver, alpha: tuple, beta: tuple) -> int:
    """ext(alpha, beta) read off beta's table alone: the largest
    -<alpha, beta - beta'> over the generic subdimension vectors beta' of
    beta, since the generic quotients of beta are the beta - beta'."""
    return max(-euler_form(quiver, alpha, tuple(map(operator.sub, beta, sub)))
               for sub in _generic_subdims(quiver, beta))


def _summand_roots(quiver: Quiver, dims: tuple, bound: int) -> dict:
    """Summand roots of a rigid dimension vector, with multiplicities.

    Kac: a general representation of dimension beta + rest splits as
    beta (+) rest exactly when ext(beta, rest) = 0 = ext(rest, beta).  So
    every real Schur root the orbit walk reaches is taken off the remainder
    while that holds; both exts read only the root's table, never the
    remainder's.  No summand is larger than dims, so the walk is capped
    at sum(dims) whatever the bound.
    """
    rem, taken = dims, {}
    for beta in _dims_orbit(quiver, min(bound, sum(dims)))[1]:
        while any(beta) and all(b <= r for b, r in zip(beta, rem)):
            rest = tuple(map(operator.sub, rem, beta))
            if _generic_ext(quiver, beta, rest) or _generic_ext_into(quiver, rest, beta):
                break
            taken[beta] = taken.get(beta, 0) + 1
            rem = rest
    if any(rem):
        raise BoundExceeded(
            "summand roots of %r lie outside bound %d" % (list(rem), bound))
    return taken


def _hom_order(quiver: Quiver, roots):
    """Order roots so nonzero Hom only points forward; lex-least tie-break.

    The roots are pairwise ext-orthogonal, so Hom between their exceptional
    representations has rank <a, b>.
    """
    succ = {r: [] for r in roots}
    for a, b in itertools.permutations(roots, 2):
        if euler_form(quiver, a, b) > 0:
            succ[a].append(b)
    out = _lex_least_order(roots, succ)
    if out is None:
        raise TheoremViolation("Hom relation between summands has a cycle")
    return out


def decompose_rigid(x: Rep, *, bound: int = 60) -> RigidDecomposition:
    """Decompose a rigid representation into exceptional summands, certified.

    Works over every supported ring.  The summand roots are read off the
    dimension vector: each real Schur root within the bound is split off
    the remainder while generic Ext, computed in integers from the root
    alone, vanishes both ways; BoundExceeded if a remainder is left.  The
    summands are then built over the base ring, checked to have no
    extensions there, peeled off by split evaluation maps, and reassembled
    into an isomorphism that is checked vertexwise.
    """
    ring = x.ring
    quiver = x.quiver
    quiver.topological_order()
    if not is_rigid(x):
        raise NotRigid("representation has nonzero self-extensions")
    if x.is_zero:
        cert = RepMorphism(Rep.zero(ring, quiver), x,
                           tuple(ExactMatrix.zeros(ring, 0, 0)
                                 for _ in range(quiver.vertex_count)))
        return RigidDecomposition((), (), cert, ())

    multiplicity = _summand_roots(quiver, x.dims, bound)
    roots = _hom_order(quiver, sorted(multiplicity))

    eff_bound = min(bound, sum(x.dims))
    lattices = {d: exceptional_lattice(quiver, d, ring, bound=eff_bound)
                for d in roots}
    for a, b in itertools.permutations(roots, 2):   # each is exceptional, so rigid
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
        theta = _evaluation_map(xi, current, tuple(g.vertex_maps for g in he.hom_generators))
        # On every shipped ring a map is split mono exactly when its
        # cokernel is free of rank rows - cols.
        try:
            quot, proj = cokernel_rep(theta)
        except NonFreeCokernel:
            quot = None
        if quot is None or quot.dims != tuple(
                map(operator.sub, current.dims, theta.source.dims)):
            raise PeelFailure("evaluation map of %r is not split mono" % (
                list(root),))
        section = _morphism_section(proj)
        if section is None:
            raise PeelFailure("projection admits no morphism section")
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
    maps = tuple(ExactMatrix.zeros(ring, x.dims[i], 0).hstack(
        *(partial[r].vertex_maps[i] for r in roots)) for i in range(quiver.vertex_count))
    certificate = RepMorphism(total, x, maps)
    if not certificate.is_isomorphism():
        raise TheoremViolation("assembled decomposition map is not invertible")
    return RigidDecomposition(summands, tuple(roots), certificate,
                              tuple(evaluations))


def rigid_isomorphism(x: Rep, y: Rep) -> RepMorphism | None:
    """An isomorphism x -> y when at least one of them is rigid, else None.

    Rigid representations of one dimension vector have the same summands,
    so the map is y's decomposition certificate after the inverse of x's,
    and it is checked vertexwise.  None when the dimension vectors differ
    or exactly one of x and y is rigid; NotRigid when neither is.
    """
    _check_compatible(x, y)
    if x.dims != y.dims or is_rigid(x) != is_rigid(y):
        return None
    # decompose_rigid raises NotRigid when neither is rigid
    to_x, to_y = decompose_rigid(x).certificate, decompose_rigid(y).certificate
    iso = RepMorphism(x, y, tuple(b.mul(invert(a)) for a, b in zip(
        to_x.vertex_maps, to_y.vertex_maps)))
    if not iso.is_isomorphism():
        raise TheoremViolation("composed certificates are not invertible")
    return iso


def is_isomorphic_rigid(x: Rep, y: Rep) -> bool:
    """Whether x and y, at least one of them rigid, are isomorphic."""
    return rigid_isomorphism(x, y) is not None


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
        mats.append(ExactMatrix._of(hom.source, m.rows, m.cols, rows))
    lifted = Rep(hom.source, x.quiver, x.dims, tuple(mats))
    if base_change(lifted, hom) != x:
        raise TheoremViolation("section failed to invert the hom entrywise")
    if not is_rigid(lifted):
        raise TheoremViolation("lift of a rigid representation is not rigid")
    return lifted
