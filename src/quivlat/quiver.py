"""Quivers, representations on free modules, and morphisms between them.

A representation assigns a free module R^d_i to every vertex and an exact
matrix to every arrow.  The matrix of an arrow a sends column vectors at
the tail of a to column vectors at its head, so composition of maps is
matrix multiplication on the left.  Vertices are numbered from 1 in all
external formats; zero-dimensional vertices give 0xk matrices and every
operation must cope with those.

Subrepresentations on the images of injective vertex maps are built in one
place (_subrep), and a quotient is the transpose dual (_dual) of a
subrepresentation of the dual: kernel_rep and cokernel_rep share that
construction, and direct sums lay out their blocks in one place
(_block_inclusions).  Whether a morphism is split mono or split epi at
every vertex is decided in one place too (_split), for the mutation of
exceptional pairs and the summand peel of rigid decomposition alike; its
epi test eliminates each vertex map once, for its kernel and its cokernel
together.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .errors import (
    CyclicQuiver,
    DimensionMismatch,
    IncompatibleBase,
    IncompatibleRing,
    NonFreeCokernel,
    ParseError,
    TheoremViolation,
)
from ._record import Record
from .elimination import is_invertible, solve
from .rings import (
    ExactMatrix,
    RingHom,
    RingSpec,
    apply_hom,
    block_diag,
)
from . import elimination as _elimination
from . import rings as _rings

DimVector = tuple  # tuple[int, ...], one entry per vertex


def _lex_least_order(nodes, succ):
    """The lexicographically least topological order of nodes, as a list,
    where succ[v] lists the heads of the edges out of v (Kahn's algorithm
    with a heap); None when the edges have a cycle."""
    indeg = dict.fromkeys(nodes, 0)
    for v in indeg:
        for w in succ[v]:
            indeg[w] += 1
    ready = [v for v in indeg if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order if len(order) == len(indeg) else None


# Largest vertex dimension Rep.from_json reads.  A block of zero size has no
# entries in the record, so a larger dimension would cost its rows while
# parsing; hom_ext refuses far smaller ones (rings._MAX_HOM_CELLS).
_MAX_DIMENSION = 10_000


def _json_int(value) -> int:
    """An integer read from JSON; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("integer expected, got %r" % (value,))
    return value


class Quiver(Record):
    """Finite quiver: vertex count plus a tuple of (tail, head) pairs, 1-based."""

    _fields = ("vertex_count", "arrows")

    def __init__(self, vertex_count: int, arrows: tuple = ()):
        self.__dict__.update(vertex_count=vertex_count, arrows=arrows)
        self.__post_init__()

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return (self.vertex_count, self.arrows) == (other.vertex_count, other.arrows)
        return NotImplemented

    def __hash__(self):
        return hash((self.vertex_count, self.arrows))

    def __post_init__(self):
        n = self.vertex_count
        if type(n) is not int or n < 0:
            raise ParseError("vertex count must be a nonnegative int, got %r" % (n,))
        try:
            arrows = tuple(self.arrows)
        except TypeError:
            raise ParseError("arrows must be a sequence, got %r" % (self.arrows,)) from None
        for a in arrows:
            if (not isinstance(a, (tuple, list)) or len(a) != 2
                    or any(type(v) is not int for v in a)):
                raise ParseError("arrow must be a (tail, head) pair of ints, got %r" % (a,))
            if not all(1 <= v <= n for v in a):
                raise ParseError("arrow %r out of range" % (a,))
        object.__setattr__(self, "arrows", tuple(tuple(a) for a in arrows))

    @property
    def arrow_count(self) -> int:
        return len(self.arrows)

    def tail(self, a: int) -> int:
        """0-based tail vertex of arrow a."""
        return self.arrows[a][0] - 1

    def head(self, a: int) -> int:
        """0-based head vertex of arrow a."""
        return self.arrows[a][1] - 1

    def topological_order(self) -> tuple:
        """Lexicographically smallest topological order, 0-based vertices."""
        out = [[] for _ in range(self.vertex_count)]
        for a in range(self.arrow_count):
            t, h = self.tail(a), self.head(a)
            if t == h:
                raise CyclicQuiver("loop at vertex %d" % (t + 1))
            out[t].append(h)
        order = _lex_least_order(range(self.vertex_count), out)
        if order is None:
            raise CyclicQuiver("quiver has a directed cycle")
        return tuple(order)

    def to_json(self) -> dict:
        return {"vertices": self.vertex_count,
                "arrows": [[t, h] for t, h in self.arrows]}

    @staticmethod
    def from_json(data) -> "Quiver":
        try:
            n, arrows = data["vertices"], data["arrows"]
        except (KeyError, TypeError) as exc:
            raise ParseError("malformed quiver record") from exc
        return Quiver(n, arrows)


def _exact_dims(dims) -> tuple:
    """A dimension vector as a tuple of exact ints; anything else is refused."""
    try:
        dims = tuple(dims)
    except TypeError:
        raise DimensionMismatch(
            "dimension vector must be a sequence, got %r" % (dims,)) from None
    if any(type(d) is not int for d in dims):
        raise DimensionMismatch(
            "dimension vector entries must be ints, got %r" % (dims,))
    return dims


def _check_quiver(quiver) -> None:
    """Refuse with ParseError what is not a Quiver: the one check of every
    quiver an entry point is handed, where it enters."""
    if not isinstance(quiver, Quiver):
        raise ParseError("quiver expected, got %r" % (quiver,))


def _vector(quiver: Quiver, dims) -> tuple:
    """A vector of the quiver's lattice: exact ints, one per vertex, of a
    checked quiver.  The forms take any such vector, differences of
    dimension vectors included."""
    _check_quiver(quiver)
    dims = _exact_dims(dims)
    if len(dims) != quiver.vertex_count:
        raise DimensionMismatch("need %d dimensions, got %d" % (
            quiver.vertex_count, len(dims)))
    return dims


def _vertex(quiver: Quiver, v) -> int:
    """The 0-based index of vertex v, 1-based, of a checked quiver:
    ParseError unless v is an exact int (a bool is not one),
    DimensionMismatch out of range."""
    _check_quiver(quiver)
    if type(v) is not int:
        raise ParseError("vertex expected, got %r" % (v,))
    if not 1 <= v <= quiver.vertex_count:
        raise DimensionMismatch("vertex %d out of range" % v)
    return v - 1


def _check_dims(quiver: Quiver, dims) -> tuple:
    """A dimension vector of the quiver: a _vector with no negative entry.
    Rep and the root readers of structure all check here, so each refusal
    reads the same whichever of them is called."""
    dims = _vector(quiver, dims)
    if any(d < 0 for d in dims):
        raise DimensionMismatch("negative dimension")
    return dims


def euler_form(quiver: Quiver, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """Bilinear form sum_i a_i b_i - sum_{arrows} a_tail b_head of two
    _vectors of the quiver."""
    return _euler_form(quiver, _vector(quiver, alpha), _vector(quiver, beta))


def tits_form(quiver: Quiver, alpha: Sequence[int]) -> int:
    alpha = _vector(quiver, alpha)
    return _euler_form(quiver, alpha, alpha)


def _euler_form(quiver: Quiver, alpha: tuple, beta: tuple) -> int:
    """euler_form of two vectors already checked."""
    total = sum(a * b for a, b in zip(alpha, beta))
    for t, h in quiver.arrows:
        total -= alpha[t - 1] * beta[h - 1]
    return total


class Rep(Record):
    """Representation of a quiver on free modules over a fixed ring."""

    def __init__(self, ring: RingSpec, quiver: Quiver, dims: tuple, mats: tuple = ()):
        self.__dict__.update(ring=ring, quiver=quiver, dims=dims, mats=mats)
        self.__post_init__()

    def __post_init__(self):
        _rings._check_ring(self.ring)
        dims = _check_dims(self.quiver, self.dims)
        object.__setattr__(self, "dims", dims)
        mats = _rings._items(self.mats, "arrow matrices")
        if len(mats) != self.quiver.arrow_count:
            raise DimensionMismatch("need %d arrow matrices, got %d" % (
                self.quiver.arrow_count, len(mats)))
        for a, m in enumerate(mats):
            _rings._check_matrix(m)
            if m.ring != self.ring:
                raise IncompatibleRing("arrow %d over %s, rep over %s" % (
                    a, m.ring, self.ring))
            want = (dims[self.quiver.head(a)], dims[self.quiver.tail(a)])
            if (m.rows, m.cols) != want:
                raise DimensionMismatch("arrow %d matrix is %dx%d, want %dx%d" % (
                    a, m.rows, m.cols, want[0], want[1]))
        object.__setattr__(self, "mats", mats)

    def __repr__(self):
        return "Rep(%s, dims=%r)" % (self.ring, list(self.dims))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return ((self.ring, self.quiver, self.dims, self.mats)
                    == (other.ring, other.quiver, other.dims, other.mats))
        return NotImplemented

    def __hash__(self):
        # once per instance: every lookup in homology's caches hashes its arguments
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.ring, self.quiver, self.dims, self.mats))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # str hashes are salted per process: copies and pickles hash afresh
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    @staticmethod
    def from_matrix_rows(ring: RingSpec, quiver: Quiver, dims: Sequence[int],
                         mats_rows: Sequence[Sequence[Sequence]]) -> "Rep":
        dims = _check_dims(quiver, dims)
        blocks = _rings._items(mats_rows, "arrow matrices")
        if len(blocks) != quiver.arrow_count:   # refused as Rep refuses it
            return Rep(ring, quiver, dims, blocks)
        return Rep(ring, quiver, dims, tuple(
            ExactMatrix(ring, dims[quiver.head(a)], dims[quiver.tail(a)], rows)
            for a, rows in enumerate(blocks)))

    @staticmethod
    def zero(ring: RingSpec, quiver: Quiver) -> "Rep":
        _check_quiver(quiver)
        dims = (0,) * quiver.vertex_count
        mats = tuple(ExactMatrix.zeros(ring, 0, 0) for _ in range(quiver.arrow_count))
        return Rep(ring, quiver, dims, mats)

    @staticmethod
    def simple(ring: RingSpec, quiver: Quiver, vertex: int) -> "Rep":
        """Simple representation concentrated at a vertex (1-based)."""
        v0 = _vertex(quiver, vertex)
        dims = tuple(1 if v == v0 else 0 for v in range(quiver.vertex_count))
        mats = tuple(
            ExactMatrix.zeros(ring, dims[quiver.head(a)], dims[quiver.tail(a)])
            for a in range(quiver.arrow_count))
        return Rep(ring, quiver, dims, mats)

    def to_json(self) -> dict:
        return {"ring": str(self.ring),
                "quiver": self.quiver.to_json(),
                "dims": list(self.dims),
                "mats": [m.to_json() for m in self.mats]}

    @staticmethod
    def from_json(data) -> "Rep":
        try:
            ring = RingSpec.parse(data["ring"])
            quiver = Quiver.from_json(data["quiver"])
            dims = tuple(_json_int(d) for d in data["dims"])
            raw_mats = list(data["mats"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("malformed representation record") from exc
        if len(dims) != quiver.vertex_count:
            raise ParseError("need %d dimensions, got %d" % (
                quiver.vertex_count, len(dims)))
        for i, d in enumerate(dims, 1):
            if d < 0:
                raise ParseError("negative dimension %d at vertex %d" % (d, i))
            if d > _MAX_DIMENSION:
                raise ParseError("dimension %d at vertex %d exceeds the cap %d"
                                 % (d, i, _MAX_DIMENSION))
        if len(raw_mats) != quiver.arrow_count:
            raise ParseError("need %d arrow matrices, got %d" % (
                quiver.arrow_count, len(raw_mats)))
        mats = []
        for a, flat in enumerate(raw_mats):
            r = dims[quiver.head(a)]
            c = dims[quiver.tail(a)]
            if not isinstance(flat, list) or len(flat) != r * c:
                raise ParseError("arrow %d needs %d entries" % (a, r * c))
            entries = [ring.entry_from_json(x) for x in flat]
            rows = tuple(tuple(entries[i * c:(i + 1) * c]) for i in range(r))
            mats.append(ExactMatrix._of(ring, r, c, rows))   # entries are canonical
        return Rep(ring, quiver, dims, tuple(mats))


def _check_compatible(x: Rep, y: Rep):
    """Two representations of one quiver over one ring, else refused."""
    if not isinstance(x, Rep) or not isinstance(y, Rep):
        raise ParseError("representation expected, got %r" % (y if isinstance(x, Rep) else x,))
    if x.quiver != y.quiver:
        raise IncompatibleBase("representations of different quivers")
    if x.ring != y.ring:
        raise IncompatibleRing("representations over %s and %s" % (x.ring, y.ring))


class RepMorphism(Record):
    """Vertexwise linear maps commuting with every arrow; checked on construction."""

    _fields = ("source", "target", "vertex_maps")

    def __init__(self, source: Rep, target: Rep, vertex_maps: tuple):
        self.__dict__.update(source=source, target=target, vertex_maps=vertex_maps)
        self.__post_init__()

    def __post_init__(self):
        x, y = self.source, self.target
        _check_compatible(x, y)
        maps = _rings._items(self.vertex_maps, "vertex maps")
        if len(maps) != x.quiver.vertex_count:
            raise DimensionMismatch("need one map per vertex")
        for i, m in enumerate(maps):
            _rings._check_matrix(m)
            if (m.rows, m.cols) != (y.dims[i], x.dims[i]):
                raise DimensionMismatch("vertex %d map is %dx%d, want %dx%d" % (
                    i + 1, m.rows, m.cols, y.dims[i], x.dims[i]))
            if m.ring != x.ring:
                raise IncompatibleRing("vertex map ring mismatch")
        q = x.quiver
        for a in range(q.arrow_count):
            t, h = q.tail(a), q.head(a)
            lhs = maps[h].mul(x.mats[a])
            rhs = y.mats[a].mul(maps[t])
            if lhs.entries != rhs.entries:
                raise DimensionMismatch(
                    "maps do not commute with arrow %d" % (a + 1))
        object.__setattr__(self, "vertex_maps", maps)

    def __repr__(self):
        return "RepMorphism(%r -> %r)" % (list(self.source.dims), list(self.target.dims))

    @staticmethod
    def identity(rep: Rep) -> "RepMorphism":
        _check_compatible(rep, rep)
        maps = tuple(ExactMatrix.identity(rep.ring, d) for d in rep.dims)
        return RepMorphism(rep, rep, maps)

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        """self after other."""
        _check_morphism(other)
        if other.target != self.source:
            raise IncompatibleBase("composition endpoints do not match")
        maps = tuple(a.mul(b) for a, b in zip(self.vertex_maps, other.vertex_maps))
        return RepMorphism(other.source, self.target, maps)

    @property
    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.vertex_maps)

    def is_isomorphism(self) -> bool:
        return all(m.rows == m.cols and is_invertible(m) for m in self.vertex_maps)


# ---------------------------------------------------------------------------
# constructions


def direct_sum(x: Rep, y: Rep) -> Rep:
    return direct_sum_many([x, y])


def _check_blocks(quiver: Quiver, dims: DimVector) -> None:
    """Refuse with NotComputable (rings._check_read) a direct sum of these
    dims when the dense blocks it fills at its arrows, together, are more
    than the cap allows: the sum holds them all at once."""
    cells = sum(dims[head - 1] * dims[tail - 1] for tail, head in quiver.arrows)
    _rings._check_read(cells, 1, "the arrow blocks of a direct sum of dims %r", tuple(dims))


def direct_sum_many(reps: Sequence[Rep]) -> Rep:
    """The direct sum in the listed order: one block_diag per arrow, each
    charged (_check_blocks) before any is built."""
    reps = _rings._items(reps, "representations")
    if not reps:
        raise DimensionMismatch("empty direct sum needs an ambient quiver")
    x = reps[0]
    for r in reps:
        _check_compatible(x, r)
    dims = tuple(map(sum, zip(*(r.dims for r in reps))))
    _check_blocks(x.quiver, dims)
    mats = tuple(block_diag(x.ring, [r.mats[a] for r in reps])
                 for a in range(x.quiver.arrow_count))
    return Rep(x.ring, x.quiver, dims, mats)


def _block_inclusions(ring: RingSpec, lead, trail) -> tuple:
    """Per vertex i, the inclusions of R^lead[i] and R^trail[i] as the
    leading and trailing blocks of R^(lead[i] + trail[i]): two tuples."""
    eye, zeros = ExactMatrix.identity, ExactMatrix.zeros
    pairs = tuple(zip(lead, trail))
    return (tuple(eye(ring, m).vstack(zeros(ring, n, m)) for m, n in pairs),
            tuple(zeros(ring, m, n).vstack(eye(ring, n)) for m, n in pairs))


def direct_sum_injections(x: Rep, y: Rep) -> tuple:
    """Canonical injections of x and y into direct_sum(x, y)."""
    s = direct_sum(x, y)
    inj_x, inj_y = _block_inclusions(x.ring, x.dims, y.dims)
    return RepMorphism(x, s, inj_x), RepMorphism(y, s, inj_y)


def direct_sum_projections(x: Rep, y: Rep) -> tuple:
    """Canonical projections of direct_sum(x, y): the injections transposed."""
    return tuple(RepMorphism(inj.target, inj.source,
                             tuple(m.transpose() for m in inj.vertex_maps))
                 for inj in direct_sum_injections(x, y))


def tensor_free(x: Rep, k: int) -> Rep:
    """x tensored with R^k: the k-fold direct sum in block-diagonal form."""
    _check_compatible(x, x)
    if type(k) is not int:
        raise ParseError("multiplicity expected, got %r" % (k,))
    if k < 0:
        raise DimensionMismatch("negative multiplicity")
    if k == 0:
        return Rep.zero(x.ring, x.quiver)
    # k copies fill at least k cells per unit of total dimension, and their
    # sum a k-fold block at each arrow: both charged before [x] * k, which
    # overflows or runs out of memory on a huge k
    total = sum(x.dims)
    _rings._check_read(k, total or 1, "%d copies of a rep of total dimension %d", k, total)
    _check_blocks(x.quiver, tuple(k * d for d in x.dims))
    return direct_sum_many([x] * k)


def base_change(x: Rep, hom: RingHom) -> Rep:
    """Transport a representation along a ring hom, entry by entry."""
    _check_compatible(x, x)
    _rings._check_hom(hom, x.ring)
    mats = tuple(apply_hom(hom, m) for m in x.mats)
    return Rep(hom.target, x.quiver, x.dims, mats)


def projective_rep(ring: RingSpec, quiver: Quiver, vertex: int) -> Rep:
    """Representation with path basis: at vertex j, the paths vertex -> j.

    Only defined for acyclic quivers, where path counts are finite.  The
    arrow a acts by appending a to paths ending at its tail.
    """
    v0 = _vertex(quiver, vertex)
    quiver.topological_order()  # raises CyclicQuiver when not acyclic
    paths = {j: [] for j in range(quiver.vertex_count)}
    queue = [((), v0)]
    while queue:
        path, at = queue.pop(0)
        paths[at].append(path)
        for a in range(quiver.arrow_count):
            if quiver.tail(a) == at:
                queue.append((path + (a,), quiver.head(a)))
    for j in paths:
        paths[j] = sorted(paths[j])
    index = {j: {p: i for i, p in enumerate(paths[j])} for j in paths}
    dims = tuple(len(paths[j]) for j in range(quiver.vertex_count))
    mats = []
    for a in range(quiver.arrow_count):
        t, h = quiver.tail(a), quiver.head(a)
        m = [[ring.zero] * dims[t] for _ in range(dims[h])]
        for col, p in enumerate(paths[t]):
            m[index[h][p + (a,)]][col] = ring.one
        mats.append(ExactMatrix._of(ring, dims[h], dims[t],
                                    tuple(tuple(r) for r in m)))
    return Rep(ring, quiver, dims, tuple(mats))


# ---------------------------------------------------------------------------
# kernels and cokernels of morphisms


def _opposite(quiver: Quiver) -> Quiver:
    """The quiver with every arrow reversed."""
    return Quiver(quiver.vertex_count, tuple((h, t) for t, h in quiver.arrows))


def _dual(x: Rep, opposite: Quiver) -> Rep:
    """Transpose dual on the opposite quiver, which the caller holds: every
    arrow matrix transposed.  A caller that dualises back hands in the
    quiver it started from, so a dual pair builds one opposite quiver; the
    result is validated as every Rep is."""
    return Rep(x.ring, opposite, x.dims, tuple(m.transpose() for m in x.mats))


def _subrep(x: Rep, incls) -> Rep:
    """The subrepresentation of x on the images of the injective vertex maps
    incls, which the arrows must preserve.  Its arrow map k_a is the one
    solution of incls[head] k_a = X_a incls[tail]: one solve per head
    vertex, on the right-hand sides of that head's arrows side by side,
    whose solution is theirs side by side, since incls[head] is injective."""
    q, ring = x.quiver, x.ring
    into = {}   # head -> its arrows, in order
    for a in range(q.arrow_count):
        into.setdefault(q.head(a), []).append(a)
    mats = [None] * q.arrow_count
    for h, arrows in into.items():
        rhs = [x.mats[a].mul(incls[q.tail(a)]) for a in arrows]
        k = solve(incls[h], rhs[0].hstack(*rhs[1:]) if len(rhs) > 1 else rhs[0])
        if k is None:
            raise TheoremViolation("subspaces are not arrow-stable")  # pragma: no cover
        start = 0
        for a, b in zip(arrows, rhs):
            mats[a] = k if len(rhs) == 1 else ExactMatrix._of(
                ring, k.rows, b.cols, tuple(row[start:start + b.cols] for row in k.entries))
            start += b.cols
    return Rep(ring, q, tuple(m.cols for m in incls), tuple(mats))


def _check_morphism(f) -> None:
    """Refuse with ParseError what is not a RepMorphism."""
    if not isinstance(f, RepMorphism):
        raise ParseError("morphism expected, got %r" % (f,))


def kernel_rep(f: RepMorphism) -> tuple:
    """Kernel subrepresentation and its inclusion, whose columns are
    kernel_data's vectors.  Like cokernel_rep, works over every ring exactly
    when every vertexwise kernel is free, as it always is over a field or
    Z, and raises NonFreeCokernel otherwise."""
    _check_morphism(f)
    return _kernel_rep(f, False)


def _kernel_rep(f: RepMorphism, onto: bool):
    """kernel_rep of a checked morphism.  Each vertex map is eliminated once
    (elimination._hom_ext_data), which gives its kernel's presentation and
    vectors and its cokernel's presentation; with onto, None as soon as a
    vertex map's cokernel is not zero."""
    incls = []
    for i, m in enumerate(f.vertex_maps):
        pres, vectors, coker, _ = _elimination._hom_ext_data(
            m.ring, _elimination._nonzeros(m.entries, m.ring), m.cols)
        if onto and not coker.is_zero:
            return None
        if not pres.is_free:
            raise NonFreeCokernel("vertex %d kernel is not free" % (i + 1))
        gens = vectors()
        incls.append(ExactMatrix._of(m.ring, len(gens), m.cols, tuple(gens)).transpose())
    ker = _subrep(f.source, incls)
    return ker, RepMorphism(ker, f.source, incls)


def cokernel_rep(f: RepMorphism) -> tuple:
    """Cokernel representation and its projection.

    A quotient is the transpose dual of a subrepresentation: the rows of
    each vertex's cokernel_projection span a submodule of the dual, which
    the dual arrows preserve, and the cokernel is the dual of that
    subrepresentation of the dual of the target.  Works over every
    supported ring exactly when every vertexwise cokernel is free, as it
    always is over a field; otherwise the quotient carries torsion or is
    projective but not free, no representation on free modules presents
    it, and NonFreeCokernel is raised.
    """
    _check_morphism(f)
    projs = []
    for i, m in enumerate(f.vertex_maps):
        pi = _elimination.cokernel_projection(m)
        if pi is None:
            raise NonFreeCokernel("vertex %d cokernel has torsion" % (i + 1))
        projs.append(pi)
    q = f.target.quiver
    sub = _subrep(_dual(f.target, _opposite(q)), [p.transpose() for p in projs])
    cok = _dual(sub, q)
    return cok, RepMorphism(f.target, cok, projs)


def _split(f: RepMorphism, epi: bool):
    """kernel_rep(f) if epi, else cokernel_rep(f), when f is split epi, or
    split mono, at every vertex; None otherwise.

    Split means three things here: the kernel or cokernel is free, so its
    representation exists; its dimension vector is source - target (epi)
    or target - source (mono); and, for epi, every vertex map is onto.  A
    free kernel of the right rank does not make a map onto: (2 4) over Z
    has one.  With a free target, onto is split epi, and a free cokernel of
    rank target - source is split mono.  The epi test reads each vertex
    map's cokernel presentation off the one elimination that gives its
    kernel (_kernel_rep); the mono test calls cokernel_rep.
    """
    try:
        out = _kernel_rep(f, True) if epi else cokernel_rep(f)
    except NonFreeCokernel:
        return None
    src, tgt = f.source.dims, f.target.dims
    dims = tuple(a - b for a, b in (zip(src, tgt) if epi else zip(tgt, src)))
    if out is None or out[0].dims != dims:
        return None
    return out
