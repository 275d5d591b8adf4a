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
    vector, fixed by the Euler form (_mutated_dims), says which.  The split
    test is quiver._split's, which the summand peel of structure shares.

Right mutation is the transpose dual of left mutation on the opposite
quiver, so the case split above is written once.  Every mutation
revalidates that the output pair is exceptional, so a false case split
cannot escape silently.

A step builds only the checks that guard its representation: the
evaluation map (whose RepMorphism check is the Hom generators'), the split
witness, the Rep checks of the duals and the exceptionality of the output
pair.  The other witnesses, those of a left extension and all three of a
right mutation, are built on the first read of one of them
(MutationResult._built_on_read) and run their own checks then; a result
copies and pickles with its recipe until that read, and with its
witnesses after it.  braid_act reads only .rep, so it builds none of them,
and a lattice-orbit pass (seed 1) makes 18 RepMorphism checks.

The braid orbit is walked once, on dimension vectors, which the Euler form
fixes for every mutation, and only as far as its readers ask (_OrbitWalk):
a root's first state and the braid word that reached it are fixed once the
breadth-first walk reaches it, so stopping there changes no answer.  The
walk is one cached object per orbit and bound (_walk): from the standard
sequence's vectors it is the same for orbit_search over any ring and for
structure's readers.  _orbit_sequence builds a state's sequence by
replaying that word, and _first_member reads a root's witness off it.  The
walk from the standard sequence's vectors also keeps its replays over Z
(_OrbitWalk.replays), the one memo of them, which structure's witnesses
and orbit_search from the standard sequence over Z both read, so a braid
word is replayed over Z once per walk.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .errors import (
    BoundExceeded,
    DimensionMismatch,
    NeitherMonoNorEpi,
    ParseError,
    PreconditionViolated,
    TheoremViolation,
)
from ._record import Record
from .homology import _orthogonal, hom_ext, is_exceptional
from .quiver import (
    Quiver,
    Rep,
    RepMorphism,
    _block_inclusions,
    _check_compatible,
    _check_dims,
    _check_quiver,
    _dual,
    _euler_form,
    _opposite,
    _split,
    tensor_free,
)
from .rings import ExactMatrix, RingSpec, ZZ, _check_ring, block_diag

# The total-dimension bound of every orbit walk a caller does not bound:
# the one default of each public bound and of the CLI's --bound.
_DEFAULT_BOUND = 60


def is_exceptional_pair(x: Rep, y: Rep) -> bool:
    """Both exceptional and no maps or extensions from y back to x.

    Each is one invertible square matrix: a self-differential with one
    column removed per member, and the differential D(y, x) for the pair
    (homology.is_exceptional, homology._orthogonal).  The pair is checked
    to be of one quiver over one ring first, whatever x is.
    """
    _check_compatible(x, y)
    return is_exceptional(x) and is_exceptional(y) and _orthogonal(y, x)


class MutationResult(Record):
    """Mutated representation plus the witnesses that produced it.

    kind is one of Unchanged, UniversalExtension, KernelOfUniversalMap,
    CokernelOfUniversalMap.  universal_map is the evaluation map X^h -> Y
    (left) or the coevaluation X -> Y^h (right) in the two Hom cases.
    witness_in is the monomorphism into the middle or ambient term (sub
    inclusion, kernel inclusion); witness_out is the epimorphism out of it
    (quotient projection, cokernel projection).

    A left mutation's Hom case builds its two witnesses eagerly, since the
    checks that guard its rep are theirs.  The witnesses of a left
    extension and of every right mutation are built on the first read of
    any of the three, and kept (_built_on_read): until then the result
    holds their recipe, a module-level function and its arguments, in their
    place, so it copies and pickles as it stands, recipe or witnesses.  A
    witness built late runs its RepMorphism check when it is built.
    """

    _fields = ("kind", "rep", "universal_map", "witness_in", "witness_out")

    def __init__(self, kind: str, rep: Rep, universal_map: Optional[RepMorphism] = None,
                 witness_in: Optional[RepMorphism] = None,
                 witness_out: Optional[RepMorphism] = None):
        self.__dict__.update(kind=kind, rep=rep, universal_map=universal_map,
                             witness_in=witness_in, witness_out=witness_out)

    @classmethod
    def _built_on_read(cls, kind: str, rep: Rep, build, *args) -> "MutationResult":
        """A result whose three witnesses are build(*args), called on the
        first read of one of them."""
        out = cls.__new__(cls)
        out.__dict__.update(kind=kind, rep=rep, _recipe=(build, args))
        return out

    def __getattr__(self, name):
        # reached only for a name not in __dict__: a witness not built yet
        recipe = self.__dict__.get("_recipe")
        if recipe is None or name not in self._fields:
            raise AttributeError(name)
        build, args = recipe
        self.__dict__.update(zip(self._fields[2:], build(*args)))
        del self.__dict__["_recipe"]
        return self.__dict__[name]


def _pair_hom_ext(x: Rep, y: Rep):
    """hom_ext(x, y) once is_exceptional_pair has checked the pair to be
    compatible and exceptional."""
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
    incl, trail = _block_inclusions(middle.ring, sub.dims, quot.dims)
    return (RepMorphism(sub, middle, incl),
            RepMorphism(middle, quot, tuple(m.transpose() for m in trail)))


def _extension_witnesses(x: Rep, y: Rep, middle: Rep, d: int) -> tuple:
    """The witnesses of the universal extension 0 -> Y -> E -> X^d -> 0."""
    return (None,) + _sub_quot_witnesses(y, middle, tensor_free(x, d))


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
        return MutationResult._built_on_read("UniversalExtension", middle,
                                             _extension_witnesses, x, y, middle, d)
    h = _free_rank_or_violation(hom, "Hom")
    ev = _evaluation_map(x, y, gens)
    # the mutation's dimension vector says which side the map is split on
    epi = _mutated_dims(y.dims, x.dims, h) != tuple(b - h * a for a, b in zip(x.dims, y.dims))
    split = _split(ev, epi)
    if split is None:
        raise NeitherMonoNorEpi("universal map is not split %s" % (
            "surjective" if epi else "injective"))
    out, witness = split
    if epi:
        return MutationResult("KernelOfUniversalMap", out,
                              universal_map=ev, witness_in=witness)
    return MutationResult("CokernelOfUniversalMap", out,
                          universal_map=ev, witness_out=witness)


def _dual_map(f: Optional[RepMorphism], duals: dict, quiver: Quiver) -> Optional[RepMorphism]:
    """The transpose dual Df : DY -> DX of f : X -> Y, on quiver, the
    opposite of f's.  duals maps representations to their duals built
    already; other ends are dualised."""
    if f is None:
        return None
    dy, dx = duals.get(f.target), duals.get(f.source)
    return RepMorphism(_dual(f.target, quiver) if dy is None else dy,
                       _dual(f.source, quiver) if dx is None else dx,
                       tuple(m.transpose() for m in f.vertex_maps))


def _dual_witnesses(dual: MutationResult, duals: dict, quiver: Quiver) -> tuple:
    """A right mutation's witnesses, those of the left mutation dual to it
    dualised back to quiver: inclusions and projections trade places."""
    return (_dual_map(dual.universal_map, duals, quiver),
            _dual_map(dual.witness_out, duals, quiver),
            _dual_map(dual.witness_in, duals, quiver))


_DUAL_KIND = {"KernelOfUniversalMap": "CokernelOfUniversalMap",
              "CokernelOfUniversalMap": "KernelOfUniversalMap"}


def left_mutate(x: Rep, y: Rep) -> MutationResult:
    """Left mutation of the exceptional pair (X, Y); (L, X) is again exceptional."""
    he = _pair_hom_ext(x, y)
    out = _left_mutation(x, y, he.hom, he.ext, he._generator_maps, he.ext_cocycles)
    if not is_exceptional_pair(out.rep, x):
        raise TheoremViolation("mutated pair failed the exceptionality check")
    return out


def right_mutate(x: Rep, y: Rep) -> MutationResult:
    """Right mutation of the exceptional pair (X, Y); (Y, R) is again exceptional.

    R is the transpose dual of the left mutation of (DY, DX) on the opposite
    quiver, and duality swaps kernels with cokernels, inclusions with
    projections.  Hom(DY, DX) and Ext(DY, DX) are those of (X, Y) transposed.
    The step builds one opposite quiver, and its witnesses are dualised back
    on their first read (_dual_witnesses).
    """
    he = _pair_hom_ext(x, y)
    q = x.quiver
    opposite = _opposite(q)
    dx = _dual(x, opposite)
    dual = _left_mutation(
        _dual(y, opposite), dx, he.hom, he.ext,
        tuple(tuple(m.transpose() for m in g) for g in he._generator_maps),
        tuple(tuple(m.transpose() for m in z) for z in he.ext_cocycles))
    rep = _dual(dual.rep, q)
    # the double dual of a representation is that representation
    out = MutationResult._built_on_read(_DUAL_KIND.get(dual.kind, dual.kind), rep,
                                        _dual_witnesses, dual, {dx: x, dual.rep: rep}, q)
    if not is_exceptional_pair(y, out.rep):
        raise TheoremViolation("mutated pair failed the exceptionality check")
    return out


# ---------------------------------------------------------------------------
# exceptional sequences and the braid action


class ExcSequence(Record):
    """Sequence of exceptional representations with no backwards Hom or Ext.

    Construction checks each member (is_exceptional) and each backward
    pair (homology._orthogonal) as one invertible square matrix of sparse
    rows, so it builds no Hom or Ext module.
    """

    _fields = ("items",)

    def __init__(self, items: tuple):
        self.__dict__["items"] = items
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.items, (tuple, list)):
            raise ParseError("sequence of representations expected, got %r" % (self.items,))
        items = tuple(self.items)
        if not items:
            raise DimensionMismatch("empty sequence")
        for r in items:
            _check_compatible(items[0], r)
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
    _check_ring(ring)
    _check_quiver(quiver)
    order = quiver.topological_order()
    items = tuple(Rep.simple(ring, quiver, v + 1) for v in order)
    return ExcSequence(items)


def braid_act(seq: ExcSequence, i: int, *, inverse: bool = False) -> ExcSequence:
    """Apply the i-th braid generator (1-based) to adjacent members i, i+1.

    The generator replaces (X, Y) at positions i, i+1 by (left mutation, X);
    its inverse replaces them by (Y, right mutation).  inverse must be an
    exact bool.
    """
    if not isinstance(seq, ExcSequence) or type(i) is not int or type(inverse) is not bool:
        raise ParseError("an ExcSequence, an int and a bool inverse expected, got %r, %r "
                         "and %r" % (seq, i, inverse))
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


def _check_bound(bound) -> None:
    """The one check of an orbit walk's bound, where an entry point takes
    it: ParseError unless an exact int (a bool or a float is not one),
    BoundExceeded below 1.  _walk, being cached, would take True for 1
    and 5.0 for 5, so it checks nothing and is handed checked bounds."""
    if type(bound) is not int:
        raise ParseError("an int bound expected, got %r" % (bound,))
    if bound < 1:
        raise BoundExceeded("bound must be positive")


class _OrbitWalk:
    """orbit_search's walk from start, the dimension vectors of a sequence
    (by default the standard one), on dimension vectors alone, advanced
    only as far as a reader asks.

    steps maps each state reached to its parent state and the generator
    (i, inverse) that first reached it, None for the start; first maps
    each dimension vector to the state it is first seen in, in that order.
    Both only grow, and reached states are expanded in the order they were
    reached, a breadth-first walk: a state's parent chain and the state a
    vector is first seen in are fixed once it is reached, the same whether
    the walk stops there or runs on.  first is recorded when a state is
    reached, not when it is expanded: the queue is FIFO, so the mapping
    and its order are the same, and a lookup stops one level earlier.

    Three reads: find(alpha), the state alpha is first seen in, expanding
    until it is seen, or None once the walk is exhausted; states(), the
    states in walk order, expanding as the iteration goes; full(), the
    whole walk as (steps, first).  An expansion commits its successors
    only once all are computed, so one interrupted by an exception leaves
    the walk as it was; the move memo only gains pairs whose two mutations
    were both computed.  start is the state the walk began from; expanded
    and reached count the states expanded and reached so far, for a caller
    to read.  replays() is the memo of a walk from the standard sequence's
    vectors: its states replayed over Z.
    """

    def __init__(self, quiver: Quiver, bound: int, start: tuple):
        self.quiver, self.bound, self.start = quiver, bound, start
        self.steps, self.first = {start: None}, dict.fromkeys(start, start)
        self._states = [start]   # in walk order, the first self.expanded expanded
        self._moves = {}   # (e, f) -> its generator's pair and its inverse's
        self.expanded = 0
        self._replays = None   # built on the first replays()

    @property
    def reached(self) -> int:
        return len(self._states)

    def _expand(self) -> None:
        """Expand the next state, committing its successors at the end."""
        state, steps, bound = self._states[self.expanded], self.steps, self.bound
        new = {}
        for i in range(1, len(state)):
            e, f = state[i - 1], state[i]
            moves = self._moves.get((e, f))
            if moves is None:
                c = _euler_form(self.quiver, e, f)
                moves = self._moves[e, f] = ((_mutated_dims(f, e, c), e),
                                             (f, _mutated_dims(e, f, c)))
            for inverse, pair in zip((False, True), moves):
                nxt = state[:i - 1] + pair + state[i + 1:]
                if nxt not in steps and nxt not in new and max(map(sum, nxt)) <= bound:
                    new[nxt] = (state, i, inverse)
        steps.update(new)
        self._states += new
        for nxt in new:
            for dims in nxt:
                self.first.setdefault(dims, nxt)
        self.expanded += 1

    def find(self, alpha: tuple) -> Optional[tuple]:
        while alpha not in self.first and self.expanded < len(self._states):
            self._expand()
        return self.first.get(alpha)

    def states(self):
        k = 0
        while True:
            while k == len(self._states) > self.expanded:
                self._expand()
            if k == len(self._states):
                return
            yield self._states[k]
            k += 1

    def full(self) -> tuple:
        while self.expanded < len(self._states):
            self._expand()
        return self.steps, self.first

    def replays(self) -> dict:
        """{state: its ExcSequence over Z} for the states replayed so far
        (_orbit_sequence), from the start, the standard sequence over Z,
        built on the first call: read only on a walk from the standard
        sequence's vectors.  It expands nothing: a replayed state's parent
        chain is fixed once the walk reaches it."""
        if self._replays is None:
            self._replays = {self.start: standard_sequence(ZZ, self.quiver)}
        return self._replays


# Lattice-orbit pass 0 hits it 184 times in 186 calls; the largest working
# set measured, on a workload pass or a tier-1 test, is 109 walks
# (test_summand_peel).
@lru_cache(maxsize=512)
def _walk(quiver: Quiver, bound: int, start: Optional[tuple]) -> _OrbitWalk:
    """The one walk of quiver within bound from start, the standard
    sequence's vectors when None, kept as far as it has been read.  The
    standard start is keyed None alone, whoever reads it and whatever the
    ring of its sequence (orbit_search maps it there), so its orbit is
    walked once."""
    return _OrbitWalk(quiver, bound, start or tuple(
        tuple(int(v == w) for w in range(quiver.vertex_count))
        for v in quiver.topological_order()))


def _orbit_sequence(steps: dict, memo: dict, state: tuple) -> ExcSequence:
    """The sequence of a state of the orbit walk with these steps.

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


def _first_member(walk: _OrbitWalk, memo: dict, alpha: tuple) -> Optional[Rep]:
    """The member with dimension vector alpha of the sequence of the state
    walk first sees alpha in, replayed through memo (_orbit_sequence);
    None when the walk never sees alpha.  orbit_search's witnesses and
    structure's integral ones are all read here."""
    state = walk.find(alpha)
    return None if state is None else _orbit_sequence(walk.steps, memo, state)[state.index(alpha)]


def orbit_search(start: ExcSequence, target_dims=None, *, bound: int = _DEFAULT_BOUND):
    """Breadth-first search of the braid orbit of a sequence.

    Explores generators in index order, each followed by its inverse, and
    never enqueues a sequence containing a member whose total dimension
    exceeds the bound (the start is always visited), which makes the
    reachable state space finite and the traversal deterministic.  With
    target_dims set (a dimension vector of the start's quiver, refused with
    DimensionMismatch as Rep refuses one), returns the first member
    representation found with that dimension vector, or None when the
    pruned orbit is exhausted.  Without it, returns a dict mapping each
    dimension vector seen to its first witness representation.  The walk
    is on dimension vectors (_OrbitWalk), read with a target only until
    the target is seen; only the states whose members are returned are
    replayed, through a memo that lives for this call, save from the
    standard sequence over Z, whose replays the walk keeps
    (_OrbitWalk.replays).  The walk depends on the start's dimension
    vectors alone, so there is one per orbit and bound: a start with the
    standard sequence's vectors, over any ring, reads the walk structure's
    readers read, _walk(quiver, bound, None), and any other start its own.
    """
    if not isinstance(start, ExcSequence):
        raise ParseError("an ExcSequence expected, got %r" % (start,))
    quiver, dims = start[0].quiver, start.dims_tuple()
    _check_bound(bound)
    if target_dims is not None:
        target_dims = _check_dims(quiver, target_dims)
    # only n simples can be the standard start, and as a sequence they stand
    # in a topological order: the quiver is acyclic, so the None walk exists
    standard = len(dims) == quiver.vertex_count and max(map(sum, dims)) == 1 and (
        _walk(quiver, bound, None).start == dims)
    walk = _walk(quiver, bound, None if standard else dims)
    memo = {dims: start}
    if standard and start[0].ring == ZZ and walk.replays()[dims] == start:
        memo = walk.replays()   # the replays structure's witness reads made
    if target_dims is None:
        return {alpha: _first_member(walk, memo, alpha) for alpha in walk.full()[1]}
    return _first_member(walk, memo, target_dims)
