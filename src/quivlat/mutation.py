"""Mutation of exceptional pairs and the braid action on exceptional sequences.

An exceptional pair (X, Y) has both members exceptional and no morphisms or
extensions backwards: Hom(Y, X) = Ext(Y, X) = 0.  Over Z, Q and the prime
fields the forward direction then falls into exactly one of three cases,
Hom and Ext cannot both be nonzero, and the mutated object is built from
explicit witnesses:

  - Hom = Ext = 0: nothing to do, the pair simply transposes.
  - Ext(X, Y) free of rank d: the universal (co)extension with X^d or Y^d.
  - Hom(X, Y) free of rank h: the universal evaluation map X^h -> Y (left)
    or coevaluation X -> Y^h (right), which is forced to be vertexwise
    injective or vertexwise surjective; the mutation is its cokernel or
    kernel.

Every mutation revalidates that the output pair is exceptional, so a false
case split cannot escape silently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import (
    BoundExceeded,
    DimensionMismatch,
    NeitherMonoNorEpi,
    NonFreeCokernel,
    NotComputable,
    PreconditionViolated,
    TheoremViolation,
)
from .homology import hom_ext, is_exceptional
from .quiver import (
    Quiver,
    Rep,
    RepMorphism,
    _exact_dims,
    cokernel_rep,
    kernel_rep,
    tensor_free,
)
from .rings import ExactMatrix, RingSpec, block_diag, cokernel, kernel_basis

_MUTATION_RINGS = ("Z", "Q", "F")


def is_exceptional_pair(x: Rep, y: Rep) -> bool:
    """Both exceptional and no maps or extensions from y back to x."""
    if not is_exceptional(x) or not is_exceptional(y):
        return False
    back = hom_ext(y, x)
    return back.hom.is_zero and back.ext.is_zero


@dataclass(frozen=True)
class MutationResult:
    """Mutated representation plus the witnesses that produced it.

    kind is one of Unchanged, UniversalExtension, KernelOfUniversalMap,
    CokernelOfUniversalMap.  universal_map is the evaluation map in the two
    Hom cases.  witness_in is the monomorphism into the middle or ambient
    term (sub inclusion, kernel inclusion); witness_out is the epimorphism
    out of it (quotient projection, cokernel projection).
    """

    kind: str
    rep: Rep
    universal_map: Optional[RepMorphism] = None
    witness_in: Optional[RepMorphism] = None
    witness_out: Optional[RepMorphism] = None


def _require_mutation_ring(ring: RingSpec):
    if ring.kind not in _MUTATION_RINGS:
        raise NotComputable(
            "mutation needs Z, Q or a prime field, not %s" % ring)


def _vertexwise_mono(f: RepMorphism) -> bool:
    return all(kernel_basis(m).cols == 0 for m in f.vertex_maps)


def _vertexwise_epi(f: RepMorphism) -> bool:
    return all(cokernel(m).is_zero for m in f.vertex_maps)


def _free_rank_or_violation(pres, label: str) -> int:
    if not pres.is_free:
        raise TheoremViolation(
            "%s of an exceptional pair is not free: factors %r" % (
                label, list(pres.invariant_factors)))
    return pres.free_rank


def _evaluation_map(x: Rep, y: Rep, gens) -> RepMorphism:
    """Universal map X^h -> Y with block columns the Hom generators."""
    ring = x.ring
    h = len(gens)
    src = tensor_free(x, h)
    maps = []
    for i in range(x.quiver.vertex_count):
        m = ExactMatrix.zeros(ring, y.dims[i], 0)
        for g in gens:
            m = m.hstack(g.vertex_maps[i])
        maps.append(m)
    return RepMorphism(src, y, tuple(maps))


def _coevaluation_map(x: Rep, y: Rep, gens) -> RepMorphism:
    """Universal map X -> Y^h with block rows the Hom generators."""
    ring = x.ring
    h = len(gens)
    tgt = tensor_free(y, h)
    maps = []
    for i in range(x.quiver.vertex_count):
        m = ExactMatrix.zeros(ring, 0, x.dims[i])
        for g in gens:
            m = m.vstack(g.vertex_maps[i])
        maps.append(m)
    return RepMorphism(x, tgt, tuple(maps))


def _extension_middle(x: Rep, y: Rep, cocycles) -> Rep:
    """Middle term of 0 -> Y -> E -> X^d -> 0 with the given classes."""
    ring = x.ring
    q = x.quiver
    d = len(cocycles)
    dims = tuple(y.dims[i] + d * x.dims[i] for i in range(q.vertex_count))
    mats = []
    for a in range(q.arrow_count):
        t, h = q.tail(a), q.head(a)
        c = ExactMatrix.zeros(ring, y.dims[h], 0)
        for z in cocycles:
            c = c.hstack(z[a])
        top = y.mats[a].hstack(c)
        bottom = ExactMatrix.zeros(ring, d * x.dims[h], y.dims[t]).hstack(
            block_diag(ring, [x.mats[a]] * d))
        mats.append(top.vstack(bottom))
    return Rep(ring, q, dims, tuple(mats))


def _coextension_middle(x: Rep, y: Rep, cocycles) -> Rep:
    """Middle term of 0 -> Y^d -> E -> X -> 0 with the given classes."""
    ring = x.ring
    q = x.quiver
    d = len(cocycles)
    dims = tuple(d * y.dims[i] + x.dims[i] for i in range(q.vertex_count))
    mats = []
    for a in range(q.arrow_count):
        t, h = q.tail(a), q.head(a)
        c = ExactMatrix.zeros(ring, 0, x.dims[t])
        for z in cocycles:
            c = c.vstack(z[a])
        top = block_diag(ring, [y.mats[a]] * d).hstack(c)
        bottom = ExactMatrix.zeros(ring, x.dims[h], d * y.dims[t]).hstack(
            x.mats[a])
        mats.append(top.vstack(bottom))
    return Rep(ring, q, dims, tuple(mats))


def _sub_quot_witnesses(sub: Rep, middle: Rep, quot: Rep):
    """Inclusion of the leading block and projection onto the trailing one."""
    ring = middle.ring
    incl, proj = [], []
    for i in range(middle.quiver.vertex_count):
        ds, dq = sub.dims[i], quot.dims[i]
        incl.append(ExactMatrix.identity(ring, ds).vstack(
            ExactMatrix.zeros(ring, dq, ds)))
        proj.append(ExactMatrix.zeros(ring, dq, ds).hstack(
            ExactMatrix.identity(ring, dq)))
    return (RepMorphism(sub, middle, tuple(incl)),
            RepMorphism(middle, quot, tuple(proj)))


def _check_output_pair(first: Rep, second: Rep):
    if not is_exceptional_pair(first, second):
        raise TheoremViolation("mutated pair failed the exceptionality check")


def left_mutate(x: Rep, y: Rep, *, check_result: bool = True) -> MutationResult:
    """Left mutation of the exceptional pair (X, Y); (L, X) is again exceptional."""
    _require_mutation_ring(x.ring)
    if not is_exceptional_pair(x, y):
        raise PreconditionViolated("(x, y) is not an exceptional pair")
    he = hom_ext(x, y)
    hom_zero, ext_zero = he.hom.is_zero, he.ext.is_zero
    if hom_zero and ext_zero:
        out = MutationResult("Unchanged", y)
    elif not hom_zero and not ext_zero:
        raise TheoremViolation(
            "exceptional pair with Hom and Ext both nonzero")
    elif hom_zero:
        d = _free_rank_or_violation(he.ext, "Ext")
        middle = _extension_middle(x, y, he.ext_cocycles)
        win, wout = _sub_quot_witnesses(y, middle, tensor_free(x, d))
        out = MutationResult("UniversalExtension", middle,
                             witness_in=win, witness_out=wout)
    else:
        _free_rank_or_violation(he.hom, "Hom")
        ev = _evaluation_map(x, y, he.hom_generators)
        mono, epi = _vertexwise_mono(ev), _vertexwise_epi(ev)
        if mono and epi:
            raise TheoremViolation("universal map is an isomorphism")
        if epi:
            ker, incl = kernel_rep(ev)
            out = MutationResult("KernelOfUniversalMap", ker,
                                 universal_map=ev, witness_in=incl)
        elif mono:
            try:
                cok, proj = cokernel_rep(ev)
            except NonFreeCokernel as exc:
                raise TheoremViolation(
                    "universal map has torsion cokernel: %s" % exc) from exc
            out = MutationResult("CokernelOfUniversalMap", cok,
                                 universal_map=ev, witness_out=proj)
        else:
            raise NeitherMonoNorEpi(
                "universal map X^h -> Y is neither injective nor surjective")
    if check_result:
        _check_output_pair(out.rep, x)
    return out


def right_mutate(x: Rep, y: Rep, *, check_result: bool = True) -> MutationResult:
    """Right mutation of the exceptional pair (X, Y); (Y, R) is again exceptional."""
    _require_mutation_ring(x.ring)
    if not is_exceptional_pair(x, y):
        raise PreconditionViolated("(x, y) is not an exceptional pair")
    he = hom_ext(x, y)
    hom_zero, ext_zero = he.hom.is_zero, he.ext.is_zero
    if hom_zero and ext_zero:
        out = MutationResult("Unchanged", x)
    elif not hom_zero and not ext_zero:
        raise TheoremViolation(
            "exceptional pair with Hom and Ext both nonzero")
    elif hom_zero:
        d = _free_rank_or_violation(he.ext, "Ext")
        middle = _coextension_middle(x, y, he.ext_cocycles)
        win, wout = _sub_quot_witnesses(tensor_free(y, d), middle, x)
        out = MutationResult("UniversalExtension", middle,
                             witness_in=win, witness_out=wout)
    else:
        _free_rank_or_violation(he.hom, "Hom")
        coev = _coevaluation_map(x, y, he.hom_generators)
        mono, epi = _vertexwise_mono(coev), _vertexwise_epi(coev)
        if mono and epi:
            raise TheoremViolation("universal map is an isomorphism")
        if epi:
            ker, incl = kernel_rep(coev)
            out = MutationResult("KernelOfUniversalMap", ker,
                                 universal_map=coev, witness_in=incl)
        elif mono:
            try:
                cok, proj = cokernel_rep(coev)
            except NonFreeCokernel as exc:
                raise TheoremViolation(
                    "universal map has torsion cokernel: %s" % exc) from exc
            out = MutationResult("CokernelOfUniversalMap", cok,
                                 universal_map=coev, witness_out=proj)
        else:
            raise NeitherMonoNorEpi(
                "universal map X -> Y^h is neither injective nor surjective")
    if check_result:
        _check_output_pair(y, out.rep)
    return out


# ---------------------------------------------------------------------------
# exceptional sequences and the braid action


@dataclass(frozen=True)
class ExcSequence:
    """Sequence of exceptional representations with no backwards Hom or Ext."""

    items: tuple

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise DimensionMismatch("empty sequence")
        q, ring = items[0].quiver, items[0].ring
        for r in items:
            if r.quiver != q or r.ring != ring:
                raise PreconditionViolated(
                    "sequence members must share quiver and ring")
        for j, r in enumerate(items):
            if not is_exceptional(r):
                raise PreconditionViolated(
                    "member %d is not exceptional" % (j + 1))
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                back = hom_ext(items[j], items[i])
                if not (back.hom.is_zero and back.ext.is_zero):
                    raise PreconditionViolated(
                        "backwards Hom or Ext from member %d to %d" % (
                            j + 1, i + 1))
        object.__setattr__(self, "items", items)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, k):
        return self.items[k]

    def dims_tuple(self) -> tuple:
        return tuple(r.dims for r in self.items)

    def __repr__(self):
        return "ExcSequence(%r)" % (list(self.dims_tuple()),)


def standard_sequence(ring: RingSpec, quiver: Quiver) -> ExcSequence:
    """Simples ordered so that every arrow points forward in the sequence.

    Uses the lexicographically smallest topological order of the vertices;
    only acyclic quivers admit one.
    """
    order = quiver.topological_order()
    items = tuple(Rep.simple(ring, quiver, v + 1) for v in order)
    return ExcSequence(items)


def braid_act(seq: ExcSequence, i: int, *, inverse: bool = False) -> ExcSequence:
    """Apply the i-th braid generator (1-based) to adjacent members i, i+1.

    The generator replaces (X, Y) at positions i, i+1 by (left mutation, X);
    its inverse replaces them by (Y, right mutation).
    """
    if not 1 <= i <= len(seq) - 1:
        raise DimensionMismatch("generator index %d out of range" % i)
    x, y = seq.items[i - 1], seq.items[i]
    if inverse:
        new_pair = (y, right_mutate(x, y, check_result=False).rep)
    else:
        new_pair = (left_mutate(x, y, check_result=False).rep, x)
    items = seq.items[:i - 1] + new_pair + seq.items[i + 1:]
    return ExcSequence(items)


def _orbit_members(start: ExcSequence, bound: int):
    """Each dimension vector of the pruned braid orbit with its first witness.

    Breadth-first from start, generators in index order, each followed by
    its inverse; a sequence with a member of total dimension above the bound
    is never enqueued.  Yields member representations, one per dimension
    vector, in the order first seen.
    """
    if bound < 1:
        raise BoundExceeded("bound must be positive")
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


def orbit_search(start: ExcSequence, target_dims=None, *, bound: int = 60):
    """Breadth-first search of the braid orbit of a sequence.

    Explores generators in index order, each followed by its inverse, and
    never enqueues a sequence containing a member whose total dimension
    exceeds the bound, which makes the reachable state space finite and the
    traversal deterministic.  With target_dims set (exact ints), returns the
    first member representation found with that dimension vector, or None
    when the pruned orbit is exhausted.  Without it, returns a dict mapping
    each dimension vector seen to its first witness representation.
    Classification and construction in structure share one such walk of the
    integral standard sequence per quiver and bound.
    """
    members = _orbit_members(start, bound)
    if target_dims is None:
        return {rep.dims: rep for rep in members}
    target_dims = _exact_dims(target_dims)
    return next((rep for rep in members if rep.dims == target_dims), None)
