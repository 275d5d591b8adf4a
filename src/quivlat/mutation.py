"""Mutation of exceptional pairs and the braid action on exceptional sequences.

An exceptional pair (X, Y) has both members exceptional and no morphisms or
extensions backwards: Hom(Y, X) = Ext(Y, X) = 0.  Over every supported
ring the forward direction then falls into exactly one of three cases,
Hom and Ext cannot both be nonzero, and the mutated object is built from
explicit witnesses:

  - Hom = Ext = 0: nothing to do, the pair simply transposes.
  - Ext(X, Y) free of rank d: the universal extension of X^d by Y.
  - Hom(X, Y) free of rank h: the universal evaluation map X^h -> Y, which
    is forced to be split injective or split surjective at every vertex;
    the mutation is its cokernel or kernel, and the mutation's dimension
    vector, fixed by the Euler form (_mutated_dims), says which.

Right mutation is the transpose dual of left mutation on the opposite
quiver, so the case split above is written once.  Every mutation
revalidates that the output pair is exceptional, so a false case split
cannot escape silently.

The braid orbit is walked once, on dimension vectors (_dims_orbit), which
the Euler form fixes for every mutation; _orbit_sequence builds a state's
sequence by replaying the braid word that first reached it.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Optional

from .errors import (
    BoundExceeded,
    DimensionMismatch,
    NeitherMonoNorEpi,
    NonFreeCokernel,
    PreconditionViolated,
    TheoremViolation,
)
from ._record import Record
from .homology import _orthogonal, hom_ext, is_exceptional
from .quiver import (
    Quiver,
    Rep,
    RepMorphism,
    _exact_dims,
    cokernel_rep,
    euler_form,
    kernel_rep,
    tensor_free,
)
from .rings import ExactMatrix, RingSpec, block_diag, cokernel


def is_exceptional_pair(x: Rep, y: Rep) -> bool:
    """Both exceptional and no maps or extensions from y back to x.

    Each is one invertible square matrix: a self-differential with one
    column removed per member, and the differential D(y, x) for the pair
    (homology.is_exceptional, homology._orthogonal).
    """
    return is_exceptional(x) and is_exceptional(y) and _orthogonal(y, x)


class MutationResult(Record):
    """Mutated representation plus the witnesses that produced it.

    kind is one of Unchanged, UniversalExtension, KernelOfUniversalMap,
    CokernelOfUniversalMap.  universal_map is the evaluation map X^h -> Y
    (left) or the coevaluation X -> Y^h (right) in the two Hom cases.
    witness_in is the monomorphism into the middle or ambient term (sub
    inclusion, kernel inclusion); witness_out is the epimorphism out of it
    (quotient projection, cokernel projection).
    """

    _fields = ("kind", "rep", "universal_map", "witness_in", "witness_out")

    def __init__(self, kind: str, rep: Rep, universal_map: Optional[RepMorphism] = None,
                 witness_in: Optional[RepMorphism] = None,
                 witness_out: Optional[RepMorphism] = None):
        self.__dict__.update(kind=kind, rep=rep, universal_map=universal_map,
                             witness_in=witness_in, witness_out=witness_out)


def _pair_hom_ext(x: Rep, y: Rep):
    """hom_ext(x, y) once the pair is checked to be exceptional."""
    if not is_exceptional_pair(x, y):
        raise PreconditionViolated("(x, y) is not an exceptional pair")
    return hom_ext(x, y)


def _free_rank_or_violation(pres, label: str) -> int:
    if not pres.is_free:
        raise TheoremViolation(
            "%s of an exceptional pair is not free: factors %r" % (
                label, list(pres.invariant_factors)))
    return pres.free_rank


def _evaluation_map(x: Rep, y: Rep, gens) -> RepMorphism:
    """Universal map X^h -> Y with block columns the Hom generators, each a
    tuple of vertex maps.  It commutes with the arrows exactly when every
    generator does, so its RepMorphism check is the generators' check."""
    src = tensor_free(x, len(gens))
    maps = tuple(ExactMatrix.zeros(x.ring, y.dims[i], 0).hstack(*(g[i] for g in gens))
                 for i in range(x.quiver.vertex_count))
    return RepMorphism(src, y, maps)


def _extension_middle(x: Rep, y: Rep, cocycles) -> Rep:
    """Middle term of 0 -> Y -> E -> X^d -> 0 with the given classes."""
    ring = x.ring
    q = x.quiver
    d = len(cocycles)
    dims = tuple(y.dims[i] + d * x.dims[i] for i in range(q.vertex_count))
    mats = []
    for a in range(q.arrow_count):
        t, h = q.tail(a), q.head(a)
        top = y.mats[a].hstack(*(z[a] for z in cocycles))
        bottom = ExactMatrix.zeros(ring, d * x.dims[h], y.dims[t]).hstack(
            block_diag(ring, [x.mats[a]] * d))
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


def _left_mutation(x: Rep, y: Rep, hom, ext, gens, cocycles) -> MutationResult:
    """Left mutation of (X, Y) from the presentations of Hom(X, Y) and
    Ext(X, Y), the Hom generators and the Ext cocycles, each generator a
    tuple of vertex maps and each cocycle one of arrow matrices."""
    if hom.is_zero and ext.is_zero:
        return MutationResult("Unchanged", y)
    if not hom.is_zero and not ext.is_zero:
        raise TheoremViolation(
            "exceptional pair with Hom and Ext both nonzero")
    if hom.is_zero:
        d = _free_rank_or_violation(ext, "Ext")
        middle = _extension_middle(x, y, cocycles)
        win, wout = _sub_quot_witnesses(y, middle, tensor_free(x, d))
        return MutationResult("UniversalExtension", middle,
                              witness_in=win, witness_out=wout)
    h = _free_rank_or_violation(hom, "Hom")
    ev = _evaluation_map(x, y, gens)
    # the mutation's dimension vector says which side the map is split on
    dims = _mutated_dims(y.dims, x.dims, h)
    epi = dims != tuple(b - h * a for a, b in zip(x.dims, y.dims))
    try:
        out, witness = (kernel_rep if epi else cokernel_rep)(ev)
    except NonFreeCokernel:
        out = None
    # a free kernel of the right rank does not make a map onto over Z:
    # (2 4) has one, so a split epi needs every cokernel zero as well
    if (out is None or out.dims != dims
            or epi and not all(cokernel(m).is_zero for m in ev.vertex_maps)):
        raise NeitherMonoNorEpi("universal map is not split %s" % (
            "surjective" if epi else "injective"))
    if epi:
        return MutationResult("KernelOfUniversalMap", out,
                              universal_map=ev, witness_in=witness)
    return MutationResult("CokernelOfUniversalMap", out,
                          universal_map=ev, witness_out=witness)


def _dual(x: Rep) -> Rep:
    """Transpose dual on the opposite quiver: every arrow matrix transposed."""
    opposite = Quiver(x.quiver.vertex_count,
                      tuple((h, t) for t, h in x.quiver.arrows))
    return Rep(x.ring, opposite, x.dims, tuple(m.transpose() for m in x.mats))


def _dual_map(f: Optional[RepMorphism], duals: dict) -> Optional[RepMorphism]:
    """The transpose dual Df : DY -> DX of f : X -> Y.  duals maps
    representations to their duals built already; other ends are dualised."""
    if f is None:
        return None
    dy, dx = duals.get(f.target), duals.get(f.source)
    return RepMorphism(_dual(f.target) if dy is None else dy,
                       _dual(f.source) if dx is None else dx,
                       tuple(m.transpose() for m in f.vertex_maps))


_DUAL_KIND = {"KernelOfUniversalMap": "CokernelOfUniversalMap",
              "CokernelOfUniversalMap": "KernelOfUniversalMap"}


def left_mutate(x: Rep, y: Rep) -> MutationResult:
    """Left mutation of the exceptional pair (X, Y); (L, X) is again exceptional."""
    he = _pair_hom_ext(x, y)
    out = _left_mutation(x, y, he.hom, he.ext,
                         tuple(g.vertex_maps for g in he.hom_generators), he.ext_cocycles)
    if not is_exceptional_pair(out.rep, x):
        raise TheoremViolation("mutated pair failed the exceptionality check")
    return out


def right_mutate(x: Rep, y: Rep) -> MutationResult:
    """Right mutation of the exceptional pair (X, Y); (Y, R) is again exceptional.

    R is the transpose dual of the left mutation of (DY, DX) on the opposite
    quiver, and duality swaps kernels with cokernels, inclusions with
    projections.  Hom(DY, DX) and Ext(DY, DX) are those of (X, Y) transposed.
    """
    he = _pair_hom_ext(x, y)
    dx = _dual(x)
    dual = _left_mutation(
        _dual(y), dx, he.hom, he.ext,
        tuple(tuple(m.transpose() for m in g.vertex_maps) for g in he.hom_generators),
        tuple(tuple(m.transpose() for m in z) for z in he.ext_cocycles))
    rep = _dual(dual.rep)
    # the double dual of a representation is that representation
    duals = {dx: x, dual.rep: rep}
    out = MutationResult(_DUAL_KIND.get(dual.kind, dual.kind), rep,
                         universal_map=_dual_map(dual.universal_map, duals),
                         witness_in=_dual_map(dual.witness_out, duals),
                         witness_out=_dual_map(dual.witness_in, duals))
    if not is_exceptional_pair(y, out.rep):
        raise TheoremViolation("mutated pair failed the exceptionality check")
    return out


# ---------------------------------------------------------------------------
# exceptional sequences and the braid action


class ExcSequence(Record):
    """Sequence of exceptional representations with no backwards Hom or Ext.

    Construction checks each member (is_exceptional) and each backward
    pair (homology._orthogonal) as one invertible square matrix of sparse
    rows, so it builds no Hom or Ext module and caches no backward
    differential in hom_ext.
    """

    _fields = ("items",)

    def __init__(self, items: tuple):
        self.__dict__["items"] = items
        self.__post_init__()

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
                if not _orthogonal(items[j], items[i]):
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
        new_pair = (y, right_mutate(x, y).rep)
    else:
        new_pair = (left_mutate(x, y).rep, x)
    items = seq.items[:i - 1] + new_pair + seq.items[i + 1:]
    return ExcSequence(items)


def _mutated_dims(f: tuple, e: tuple, c: int) -> tuple:
    """Dimension vector of a mutation, from those of the pair alone.

    With e = dim X, f = dim Y and c = <e, f> the Euler form, dim L_X Y =
    +-(f - c e) and dim R_Y X = +-(e - c f), signed nonnegative
    (Crawley-Boevey 1993, Ringel 1994); any other vector breaks the theorem.
    """
    v = tuple(b - c * a for a, b in zip(e, f))
    if not any(v) or min(v) < 0 < max(v):
        raise TheoremViolation("mutation of %r past %r has dimension vector "
                               "+-%r" % (list(f), list(e), list(v)))
    return tuple(abs(x) for x in v)


@lru_cache(maxsize=None)
def _dims_orbit(quiver: Quiver, bound: int, start: Optional[tuple] = None) -> tuple:
    """orbit_search's walk from start, the dimension vectors of a sequence
    (by default the standard one), on dimension vectors alone.

    Returns (steps, first): steps maps each state to its parent state and
    the generator (i, inverse) that first reached it, None for the start;
    first maps each dimension vector to the state it is first seen in, in
    that order.
    """
    if bound < 1:
        raise BoundExceeded("bound must be positive")
    start = start or tuple(tuple(int(v == w) for w in range(quiver.vertex_count))
                           for v in quiver.topological_order())
    steps, first = {start: None}, {}
    moves = {}   # (e, f) -> its generator's pair and its inverse's, once per walk
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for dims in state:
            first.setdefault(dims, state)
        for i in range(1, len(state)):
            e, f = state[i - 1], state[i]
            if (e, f) not in moves:
                c = euler_form(quiver, e, f)
                moves[e, f] = (_mutated_dims(f, e, c), e), (f, _mutated_dims(e, f, c))
            for inverse, pair in zip((False, True), moves[e, f]):
                nxt = state[:i - 1] + pair + state[i + 1:]
                if nxt not in steps and max(map(sum, nxt)) <= bound:
                    steps[nxt] = (state, i, inverse)
                    queue.append(nxt)
    return steps, first


def _orbit_sequence(steps: dict, memo: dict, state: tuple) -> ExcSequence:
    """The sequence of a state of the _dims_orbit walk with these steps.

    Replays the braid word of the state's breadth-first parents from the
    nearest state in memo, which holds at least the start.  A sequence is
    stored in memo only once its braid_act has returned, so an interrupted
    replay leaves nothing half built behind.
    """
    path = []
    while state not in memo:
        path.append(state)
        state = steps[state][0]
    seq = memo[state]
    for state in reversed(path):
        _, i, inverse = steps[state]
        seq = memo[state] = braid_act(seq, i, inverse=inverse)
    return seq


def orbit_search(start: ExcSequence, target_dims=None, *, bound: int = 60):
    """Breadth-first search of the braid orbit of a sequence.

    Explores generators in index order, each followed by its inverse, and
    never enqueues a sequence containing a member whose total dimension
    exceeds the bound (the start is always visited), which makes the
    reachable state space finite and the traversal deterministic.  With
    target_dims set (exact ints), returns the first member representation
    found with that dimension vector, or None when the pruned orbit is
    exhausted.  Without it, returns a dict mapping each dimension vector
    seen to its first witness representation.  The walk is on dimension
    vectors (_dims_orbit); only the states whose members are returned are
    replayed, through a memo that lives for this call.
    """
    if target_dims is not None:
        target_dims = _exact_dims(target_dims)
    dims = start.dims_tuple()
    steps, first = _dims_orbit(start[0].quiver, bound, dims)
    memo = {dims: start}
    found = {alpha: _orbit_sequence(steps, memo, state)[state.index(alpha)]
             for alpha, state in first.items() if target_dims in (None, alpha)}
    return found if target_dims is None else found.get(target_dims)
