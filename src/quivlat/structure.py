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
    exceptional representations; the summand roots are the coordinates of
    the dimension vector in one exceptional sequence of the orbit walk,
    read with the Euler form alone, and the decomposition is certified by
    an explicit isomorphism assembled from evaluation maps
    (mutation._evaluation_map), split mono by the test mutation shares
    (quiver._split), and splitting sections, which
    homology._morphism_section solves for in the Hom complex, whose layout
    homology alone knows.  Two rigid representations with one dimension
    vector are therefore isomorphic, through the certificates.

Classification walks the braid orbit of the standard sequence on dimension
vectors alone (mutation._walk), so schur_root_status and the summand roots
of decompose_rigid build no representation.  The orbit has one walk per
bound: orbit_search from the standard sequence, over any ring, reads the
same cached walk.  Each reader advances it only until it has its answer:
the walk is breadth-first, so the state a root is first seen in, and the
braid word to it, are the same whether the walk stops there or runs on,
and no output depends on how far it has gone.  A witness is built only by
exceptional_lattice: the braid word that first reached its root is
replayed over Z from the standard sequence (mutation._first_member, the
witness read orbit_search makes too), and every sequence built on the
way is kept with the walk for later replays (mutation._OrbitWalk.replays),
which orbit_search from the standard sequence over Z reads as well.
generic_dims reads Hom and Ext off two such witnesses over Q, so hom_ext
is the one route to both.
Nothing is searched over Q: mutation commutes with the flat base change
Z -> Q, so both orbits pass through the same dimension vectors in the
same order.
"""

from __future__ import annotations

import itertools

from .errors import (
    BoundExceeded,
    IncompatibleBase,
    NotNilpotentKernel,
    NotRigid,
    NotSchurRoot,
    PeelFailure,
    TheoremViolation,
)
from ._record import Record
from .homology import _morphism_section, hom_ext, is_exceptional, is_rigid
from .mutation import _DEFAULT_BOUND, _check_bound, _evaluation_map, _first_member, _walk
from .quiver import (
    Quiver,
    Rep,
    RepMorphism,
    _check_compatible,
    _check_dims,
    _euler_form,
    _lex_least_order,
    _split,
    base_change,
    direct_sum_many,
    euler_form,
    tensor_free,
)
from .elimination import invert
from .rings import ExactMatrix, QQ, RingHom, RingSpec, ZZ, _check_hom, canonical_hom

SCHUR_REAL = "real_schur"
SCHUR_PREFILTER_FALSE = "prefilter_false"
SCHUR_BOUNDED_FALSE = "bounded_false"


def schur_root_status(quiver: Quiver, alpha, *, bound: int = _DEFAULT_BOUND) -> str:
    """Classify alpha: real Schur root, rejected by the Tits form, or unknown.

    "prefilter_false" is definitive (an exceptional representation forces
    euler_form(alpha, alpha) = 1); "bounded_false" only says the pruned
    orbit did not reach alpha.  The orbit is walked on dimension vectors,
    which the mutation formulas determine, so no representation is built;
    exceptional_lattice replays a witness for alpha only when asked.
    """
    return _status(quiver, alpha, bound)[1]


def _status(quiver: Quiver, alpha, bound: int) -> tuple:
    """alpha, checked, and its schur_root_status: the bound and alpha are
    checked here once for every root reader of this module.  The walk is
    advanced until it sees alpha, and exhausted only when it never does."""
    _check_bound(bound)
    alpha = _check_dims(quiver, alpha)
    if _euler_form(quiver, alpha, alpha) != 1:   # the Tits form of the vector just checked
        return alpha, SCHUR_PREFILTER_FALSE
    found = _walk(quiver, bound, None).find(alpha) is not None
    return alpha, SCHUR_REAL if found else SCHUR_BOUNDED_FALSE


def is_real_schur_root(quiver: Quiver, alpha, *, bound: int = _DEFAULT_BOUND) -> bool:
    return schur_root_status(quiver, alpha, bound=bound) == SCHUR_REAL


def _require_real_schur(quiver: Quiver, alpha, bound: int) -> tuple:
    """alpha, checked; NotSchurRoot or BoundExceeded unless the orbit walk
    within bound reaches it.  No witness is replayed."""
    alpha, status = _status(quiver, alpha, bound)
    if status == SCHUR_PREFILTER_FALSE:
        raise NotSchurRoot("tits form of %r is %d, not 1" % (
            list(alpha), _euler_form(quiver, alpha, alpha)))
    if status == SCHUR_BOUNDED_FALSE:
        raise BoundExceeded(
            "no exceptional representation of %r found within bound %d" % (
                list(alpha), bound))
    return alpha


def _integral_witness(quiver: Quiver, alpha, bound: int) -> Rep:
    """orbit_search's witness over Z for alpha; raises if there is none.
    The walk is read only as far as alpha's first state, which
    _require_real_schur has reached, and that state's parent chain is
    replayed (mutation._first_member, orbit_search's witness read) through
    the walk's replays over Z (mutation._OrbitWalk.replays)."""
    alpha = _require_real_schur(quiver, alpha, bound)
    walk = _walk(quiver, bound, None)
    return _first_member(walk, walk.replays(), alpha)


def exceptional_lattice(quiver: Quiver, alpha, ring: RingSpec = ZZ,
                        *, bound: int = _DEFAULT_BOUND) -> Rep:
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


def generic_dims(quiver: Quiver, alpha, beta, *, bound: int = _DEFAULT_BOUND) -> GenericDims:
    """Hom and Ext ranks between the exceptional representations over Q.

    Both roots must be reached by the orbit walk within the bound, and are
    checked before either witness is built.  The ranks are those of one
    hom_ext of exceptional_lattice's witnesses over Q; by the source paper
    they are also the ranks of Hom and Ext between the exceptional lattices
    over any supported ring, which are projective.
    """
    alpha, beta = (_require_real_schur(quiver, root, bound) for root in (alpha, beta))
    he = hom_ext(*(exceptional_lattice(quiver, root, QQ, bound=bound) for root in (alpha, beta)))
    return GenericDims(he.hom.free_rank, he.ext.free_rank)


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


def _summand_roots(quiver: Quiver, dims: tuple, bound: int) -> dict:
    """Summand roots of a rigid dimension vector, with multiplicities, read
    off one state of the orbit walk within bound.

    A state (b_1, ..., b_n) is an exceptional sequence, so <b_j, b_i> = 0
    for j > i and <b_i, b_i> = 1: its vectors are a basis, and the
    coordinates of dims are read from the last one back, c_i = <b_i, dims -
    sum_{j>i} c_j b_j>.  The first state, in walk order, whose coordinates
    are all nonnegative and with <b_i, b_j> >= 0 for i < j both used is
    taken.  Hom and Ext are not both nonzero on an exceptional pair, so
    those roots are pairwise ext-orthogonal real Schur roots summing to
    dims: the canonical decomposition (Kac, Schofield), which is unique.
    The walk is expanded only as the iteration reaches its end, so it stops
    at the state taken; the walk order is fixed, so that state is the one
    the whole walk gives.  BoundExceeded, naming dims, when no state is
    taken, the walk then exhausted.
    """
    for state in _walk(quiver, bound, None).states():
        rem, coords = dims, {}
        for beta in reversed(state):
            coords[beta] = c = _euler_form(quiver, beta, rem)
            rem = tuple(r - c * b for r, b in zip(rem, beta))
        if any(rem):
            raise TheoremViolation("walk state %r is not a basis" % (state,))
        used = [b for b in state if coords[b]]
        if min(coords.values()) >= 0 and all(
                _euler_form(quiver, a, b) >= 0 for a, b in itertools.combinations(used, 2)):
            return {b: coords[b] for b in used}
    raise BoundExceeded(
        "summand roots of %r lie outside bound %d" % (list(dims), bound))


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


def decompose_rigid(x: Rep, *, bound: int = _DEFAULT_BOUND) -> RigidDecomposition:
    """Decompose a rigid representation into exceptional summands, certified.

    Works over every supported ring.  The summand roots are read off the
    dimension vector, as its coordinates in the first exceptional sequence
    of the orbit walk in which they are nonnegative on members with no Ext
    between them (_summand_roots); BoundExceeded, naming the vector, if no
    sequence within the bound has that.  The summands are then
    exceptional_lattice's over the base ring at the same bound, off the
    same walk, so no witness it has built already is replayed again; they
    are checked to have no extensions there, peeled off by split
    evaluation maps, and reassembled into an isomorphism that is checked
    vertexwise.
    """
    _check_compatible(x, x)
    _check_bound(bound)
    x.quiver.topological_order()
    return _decompose(x, is_rigid(x), bound)


def _decompose(x: Rep, rigid: bool, bound: int) -> RigidDecomposition:
    """decompose_rigid's body, for x and bound checked and x's quiver
    acyclic, with x's rigidity already read."""
    if not rigid:
        raise NotRigid("representation has nonzero self-extensions")
    ring = x.ring
    quiver = x.quiver
    if x.is_zero:
        return RigidDecomposition((), (), RepMorphism.identity(x), ())

    multiplicity = _summand_roots(quiver, x.dims, bound)
    roots = _hom_order(quiver, sorted(multiplicity))
    lattices = {d: exceptional_lattice(quiver, d, ring, bound=bound) for d in roots}
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
        theta = _evaluation_map(xi, current, he._generator_maps)
        split = _split(theta, False)
        if split is None:
            raise PeelFailure("evaluation map of %r is not split mono" % (
                list(root),))
        quot, proj = split
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
    if x.dims != y.dims:
        return None
    rigid = is_rigid(x)
    if rigid != is_rigid(y):
        return None
    x.quiver.topological_order()
    # each rigidity is read once; _decompose raises NotRigid when neither is
    to_x, to_y = (_decompose(z, rigid, _DEFAULT_BOUND).certificate for z in (x, y))
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
    _check_compatible(x, x)
    _check_hom(hom)
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
