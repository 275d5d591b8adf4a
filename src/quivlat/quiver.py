"""Quivers, representations on free modules, and morphisms between them.

A representation assigns a free module R^d_i to every vertex and an exact
matrix to every arrow.  The matrix of an arrow a sends column vectors at
the tail of a to column vectors at its head, so composition of maps is
matrix multiplication on the left.  Vertices are numbered from 1 in all
external formats; zero-dimensional vertices give 0xk matrices and every
operation must cope with those.
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
from .rings import (
    ExactMatrix,
    RingHom,
    RingSpec,
    apply_hom,
    block_diag,
    is_invertible,
    solve,
)
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


def _check_dims(quiver: Quiver, dims) -> tuple:
    """A dimension vector of the quiver: exact ints, one per vertex, none
    negative.  Rep and the root readers of structure all check here, so
    each refusal reads the same whichever of them is called."""
    dims = _exact_dims(dims)
    if len(dims) != quiver.vertex_count:
        raise DimensionMismatch("need %d dimensions, got %d" % (
            quiver.vertex_count, len(dims)))
    if any(d < 0 for d in dims):
        raise DimensionMismatch("negative dimension")
    return dims


def euler_form(quiver: Quiver, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """Bilinear form sum_i a_i b_i - sum_{arrows} a_tail b_head."""
    alpha, beta = tuple(alpha), tuple(beta)
    if len(alpha) != quiver.vertex_count or len(beta) != quiver.vertex_count:
        raise DimensionMismatch("dimension vector length mismatch")
    total = sum(a * b for a, b in zip(alpha, beta))
    for a in range(quiver.arrow_count):
        total -= alpha[quiver.tail(a)] * beta[quiver.head(a)]
    return total


def tits_form(quiver: Quiver, alpha: Sequence[int]) -> int:
    return euler_form(quiver, alpha, alpha)


class Rep(Record):
    """Representation of a quiver on free modules over a fixed ring."""

    def __init__(self, ring: RingSpec, quiver: Quiver, dims: tuple, mats: tuple = ()):
        self.__dict__.update(ring=ring, quiver=quiver, dims=dims, mats=mats)
        self.__post_init__()

    def __post_init__(self):
        dims = _check_dims(self.quiver, self.dims)
        object.__setattr__(self, "dims", dims)
        mats = tuple(self.mats)
        if len(mats) != self.quiver.arrow_count:
            raise DimensionMismatch("need %d arrow matrices, got %d" % (
                self.quiver.arrow_count, len(mats)))
        for a, m in enumerate(mats):
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
        # once per instance: every cached hom_ext lookup hashes its arguments
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
        mats = []
        for a, rows in enumerate(mats_rows):
            r, c = dims[quiver.head(a)], dims[quiver.tail(a)]
            mats.append(ExactMatrix(ring, r, c, tuple(tuple(row) for row in rows)))
        return Rep(ring, quiver, dims, tuple(mats))

    @staticmethod
    def zero(ring: RingSpec, quiver: Quiver) -> "Rep":
        dims = (0,) * quiver.vertex_count
        mats = tuple(ExactMatrix.zeros(ring, 0, 0) for _ in range(quiver.arrow_count))
        return Rep(ring, quiver, dims, mats)

    @staticmethod
    def simple(ring: RingSpec, quiver: Quiver, vertex: int) -> "Rep":
        """Simple representation concentrated at a vertex (1-based)."""
        if not 1 <= vertex <= quiver.vertex_count:
            raise DimensionMismatch("vertex %d out of range" % vertex)
        dims = tuple(1 if v == vertex - 1 else 0 for v in range(quiver.vertex_count))
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


class RepMorphism(Record):
    """Vertexwise linear maps commuting with every arrow; checked on construction."""

    _fields = ("source", "target", "vertex_maps")

    def __init__(self, source: Rep, target: Rep, vertex_maps: tuple):
        self.__dict__.update(source=source, target=target, vertex_maps=vertex_maps)
        self.__post_init__()

    def __post_init__(self):
        x, y = self.source, self.target
        if x.quiver != y.quiver:
            raise IncompatibleBase("morphism between different quivers")
        if x.ring != y.ring:
            raise IncompatibleRing("morphism between %s and %s" % (x.ring, y.ring))
        maps = tuple(self.vertex_maps)
        if len(maps) != x.quiver.vertex_count:
            raise DimensionMismatch("need one map per vertex")
        for i, m in enumerate(maps):
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
        maps = tuple(ExactMatrix.identity(rep.ring, d) for d in rep.dims)
        return RepMorphism(rep, rep, maps)

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        """self after other."""
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


def _check_compatible(x: Rep, y: Rep):
    if x.quiver != y.quiver:
        raise IncompatibleBase("representations of different quivers")
    if x.ring != y.ring:
        raise IncompatibleRing("representations over %s and %s" % (x.ring, y.ring))


def direct_sum(x: Rep, y: Rep) -> Rep:
    return direct_sum_many([x, y])


def direct_sum_many(reps: Sequence[Rep]) -> Rep:
    """The direct sum in the listed order: one block_diag per arrow."""
    if not reps:
        raise DimensionMismatch("empty direct sum needs an ambient quiver")
    x = reps[0]
    for r in reps[1:]:
        _check_compatible(x, r)
    dims = tuple(map(sum, zip(*(r.dims for r in reps))))
    mats = tuple(block_diag(x.ring, [r.mats[a] for r in reps])
                 for a in range(x.quiver.arrow_count))
    return Rep(x.ring, x.quiver, dims, mats)


def direct_sum_injections(x: Rep, y: Rep) -> tuple:
    """Canonical injections of x and y into direct_sum(x, y)."""
    s = direct_sum(x, y)
    ring = x.ring
    inj_x, inj_y = [], []
    for i in range(x.quiver.vertex_count):
        dx, dy = x.dims[i], y.dims[i]
        ix = ExactMatrix.identity(ring, dx).vstack(ExactMatrix.zeros(ring, dy, dx))
        iy = ExactMatrix.zeros(ring, dx, dy).vstack(ExactMatrix.identity(ring, dy))
        inj_x.append(ix)
        inj_y.append(iy)
    return RepMorphism(x, s, tuple(inj_x)), RepMorphism(y, s, tuple(inj_y))


def direct_sum_projections(x: Rep, y: Rep) -> tuple:
    """Canonical projections of direct_sum(x, y): the injections transposed."""
    return tuple(RepMorphism(inj.target, inj.source,
                             tuple(m.transpose() for m in inj.vertex_maps))
                 for inj in direct_sum_injections(x, y))


def tensor_free(x: Rep, k: int) -> Rep:
    """x tensored with R^k: the k-fold direct sum in block-diagonal form."""
    if k < 0:
        raise DimensionMismatch("negative multiplicity")
    if k == 0:
        return Rep.zero(x.ring, x.quiver)
    return direct_sum_many([x] * k)


def base_change(x: Rep, hom: RingHom) -> Rep:
    """Transport a representation along a ring hom, entry by entry."""
    if x.ring != hom.source:
        raise IncompatibleBase("rep over %s, hom expects %s" % (x.ring, hom.source))
    mats = tuple(apply_hom(hom, m) for m in x.mats)
    return Rep(hom.target, x.quiver, x.dims, mats)


def projective_rep(ring: RingSpec, quiver: Quiver, vertex: int) -> Rep:
    """Representation with path basis: at vertex j, the paths vertex -> j.

    Only defined for acyclic quivers, where path counts are finite.  The
    arrow a acts by appending a to paths ending at its tail.
    """
    quiver.topological_order()  # raises CyclicQuiver when not acyclic
    if not 1 <= vertex <= quiver.vertex_count:
        raise DimensionMismatch("vertex %d out of range" % vertex)
    v0 = vertex - 1
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


def kernel_rep(f: RepMorphism) -> tuple:
    """Kernel subrepresentation and its inclusion, whose columns are
    kernel_data's vectors.  Like cokernel_rep, works over every ring exactly
    when every vertexwise kernel is free, as it always is over a field or
    Z, and raises NonFreeCokernel otherwise."""
    ring = f.source.ring
    x = f.source
    q = x.quiver
    incls = []
    for i, m in enumerate(f.vertex_maps):
        pres, gens = _rings.kernel_data(m)
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
            raise TheoremViolation("kernel is not arrow-stable")  # pragma: no cover
        mats.append(ka)
    ker = Rep(ring, q, dims, tuple(mats))
    incl = RepMorphism(ker, x, tuple(incls))
    return ker, incl


def cokernel_rep(f: RepMorphism) -> tuple:
    """Cokernel representation and its projection.

    Works over every supported ring exactly when every vertexwise cokernel
    is free, as it always is over a field; otherwise the quotient carries
    torsion or is projective but not free, no representation on free
    modules presents it, and NonFreeCokernel is raised.
    """
    ring = f.source.ring
    y = f.target
    q = y.quiver
    projs = []
    for i, m in enumerate(f.vertex_maps):
        pi = _rings.cokernel_projection(m)
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
            raise TheoremViolation("cokernel maps do not descend")  # pragma: no cover
        mats.append(ca_t.transpose())
    cok = Rep(ring, q, dims, tuple(mats))
    proj = RepMorphism(y, cok, tuple(projs))
    return cok, proj
