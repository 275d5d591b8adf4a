"""Quivers, representations on free modules, and morphisms between them.

A representation assigns a free module R^d_i to every vertex and an exact
matrix to every arrow.  The matrix of an arrow a sends column vectors at
the tail of a to column vectors at its head, so composition of maps is
matrix multiplication on the left.  Vertices are numbered from 1 in all
external formats; zero-dimensional vertices give 0xk matrices and every
operation must cope with those.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    CyclicQuiver,
    DimensionMismatch,
    Inconclusive,
    IncompatibleBase,
    IncompatibleRing,
    NonFreeCokernel,
    NotComputable,
    ParseError,
    TheoremViolation,
)
from .rings import (
    ExactMatrix,
    RingHom,
    RingSpec,
    apply_hom,
    block_diag,
    is_invertible,
    kernel_basis,
    solve,
)
from . import rings as _rings

DimVector = tuple  # tuple[int, ...], one entry per vertex


def _json_int(value) -> int:
    """An integer read from JSON; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("integer expected, got %r" % (value,))
    return value


@dataclass(frozen=True)
class Quiver:
    """Finite quiver: vertex count plus a tuple of (tail, head) pairs, 1-based."""

    vertex_count: int
    arrows: tuple = ()

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ParseError("negative vertex count")
        fixed = []
        for a in self.arrows:
            t, h = a
            if not (1 <= t <= self.vertex_count and 1 <= h <= self.vertex_count):
                raise ParseError("arrow %r out of range" % (a,))
            fixed.append((int(t), int(h)))
        object.__setattr__(self, "arrows", tuple(fixed))

    @property
    def arrow_count(self) -> int:
        return len(self.arrows)

    def tail(self, a: int) -> int:
        """0-based tail vertex of arrow a."""
        return self.arrows[a][0] - 1

    def head(self, a: int) -> int:
        """0-based head vertex of arrow a."""
        return self.arrows[a][1] - 1

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except CyclicQuiver:
            return False

    def topological_order(self) -> tuple:
        """Lexicographically smallest topological order, 0-based vertices."""
        n = self.vertex_count
        indeg = [0] * n
        out = [[] for _ in range(n)]
        for a in range(self.arrow_count):
            t, h = self.tail(a), self.head(a)
            if t == h:
                raise CyclicQuiver("loop at vertex %d" % (t + 1))
            indeg[h] += 1
            out[t].append(h)
        import heapq
        ready = [v for v in range(n) if indeg[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != n:
            raise CyclicQuiver("quiver has a directed cycle")
        return tuple(order)

    def to_json(self) -> dict:
        return {"vertices": self.vertex_count,
                "arrows": [[t, h] for t, h in self.arrows]}

    @staticmethod
    def from_json(data) -> "Quiver":
        try:
            n = _json_int(data["vertices"])
            arrows = tuple((_json_int(t), _json_int(h)) for t, h in data["arrows"])
        except (KeyError, TypeError, ValueError) as exc:
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


@dataclass(frozen=True)
class Rep:
    """Representation of a quiver on free modules over a fixed ring."""

    ring: RingSpec
    quiver: Quiver
    dims: tuple
    mats: tuple = ()

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != self.quiver.vertex_count:
            raise DimensionMismatch("need %d dimensions, got %d" % (
                self.quiver.vertex_count, len(dims)))
        if any(d < 0 for d in dims):
            raise DimensionMismatch("negative dimension")
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

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    @staticmethod
    def from_matrix_rows(ring: RingSpec, quiver: Quiver, dims: Sequence[int],
                         mats_rows: Sequence[Sequence[Sequence]]) -> "Rep":
        dims = tuple(int(d) for d in dims)
        if len(dims) != quiver.vertex_count:
            raise DimensionMismatch("need %d dimensions, got %d" % (
                quiver.vertex_count, len(dims)))
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
            mats.append(ExactMatrix(ring, r, c, rows))
        return Rep(ring, quiver, dims, tuple(mats))


@dataclass(frozen=True)
class RepMorphism:
    """Vertexwise linear maps commuting with every arrow; checked on construction."""

    source: Rep
    target: Rep
    vertex_maps: tuple

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
    _check_compatible(x, y)
    dims = tuple(a + b for a, b in zip(x.dims, y.dims))
    mats = tuple(block_diag(x.ring, [x.mats[a], y.mats[a]])
                 for a in range(x.quiver.arrow_count))
    return Rep(x.ring, x.quiver, dims, mats)


def direct_sum_many(reps: Sequence[Rep]) -> Rep:
    if not reps:
        raise DimensionMismatch("empty direct sum needs an ambient quiver")
    out = reps[0]
    for r in reps[1:]:
        out = direct_sum(out, r)
    return out


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
    """Canonical projections of direct_sum(x, y) onto x and y."""
    s = direct_sum(x, y)
    ring = x.ring
    pr_x, pr_y = [], []
    for i in range(x.quiver.vertex_count):
        dx, dy = x.dims[i], y.dims[i]
        px = ExactMatrix.identity(ring, dx).hstack(ExactMatrix.zeros(ring, dx, dy))
        py = ExactMatrix.zeros(ring, dy, dx).hstack(ExactMatrix.identity(ring, dy))
        pr_x.append(px)
        pr_y.append(py)
    return RepMorphism(s, x, tuple(pr_x)), RepMorphism(s, y, tuple(pr_y))


def tensor_free(x: Rep, k: int) -> Rep:
    """x tensored with R^k: the k-fold direct sum in block-diagonal form."""
    if k < 0:
        raise DimensionMismatch("negative multiplicity")
    if k == 0:
        return Rep.zero(x.ring, x.quiver)
    dims = tuple(d * k for d in x.dims)
    mats = tuple(block_diag(x.ring, [x.mats[a]] * k)
                 for a in range(x.quiver.arrow_count))
    return Rep(x.ring, x.quiver, dims, mats)


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
        mats.append(ExactMatrix(ring, dims[h], dims[t],
                                tuple(tuple(r) for r in m)))
    return Rep(ring, quiver, dims, tuple(mats))


# ---------------------------------------------------------------------------
# kernels and cokernels of morphisms


def kernel_rep(f: RepMorphism) -> tuple:
    """Kernel subrepresentation and its inclusion; ring must be a field or Z."""
    ring = f.source.ring
    if ring.kind not in ("Z", "Q", "F"):
        raise NotComputable("representation kernels need a field or Z, not %s" % ring)
    x = f.source
    q = x.quiver
    incls = [kernel_basis(m) for m in f.vertex_maps]
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

    Works over fields always, and over Z exactly when every vertexwise
    cokernel is free; otherwise the quotient carries torsion and no
    representation on free modules presents it, so NonFreeCokernel.
    """
    ring = f.source.ring
    if ring.kind not in ("Z", "Q", "F"):
        raise NotComputable("representation cokernels need a field or Z, not %s" % ring)
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


# ---------------------------------------------------------------------------
# isomorphism testing for rigid representations

_ISO_ENUM_LIMIT = 10 ** 6
_ISO_INT_DIM_LIMIT = 8


def is_isomorphic_rigid(x: Rep, y: Rep) -> bool:
    """Decide isomorphism of rigid representations by bounded search.

    Equal rank vectors with a rank-one Hom space reduce to testing one
    generator for vertexwise invertibility.  Otherwise coefficients of the
    Hom generating set are enumerated: completely over finite rings (up to
    10^6 combinations, hence a definite answer), and over Z and Q with
    coefficients in {-1, 0, 1} up to 8 generators, where exhaustion raises
    Inconclusive rather than guessing.
    """
    _check_compatible(x, y)
    if x.dims != y.dims:
        return False
    if x == y:
        return True
    from .homology import hom_ext
    gens = hom_ext(x, y).hom_generators
    r = len(gens)
    if r == 0:
        return False

    def maps_invertible(maps) -> bool:
        return all(is_invertible(m) for m in maps)

    if r == 1:
        return maps_invertible(gens[0].vertex_maps)
    ring = x.ring
    base = [g.vertex_maps for g in gens]
    if ring.is_finite and ring.size ** r <= _ISO_ENUM_LIMIT:
        coeff_space = itertools.product(list(ring.elements()), repeat=r)
        complete = True
    elif ring.kind in ("Z", "Q") and r <= _ISO_INT_DIM_LIMIT:
        coeff_space = itertools.product((0, 1, -1), repeat=r)
        complete = False
    else:
        raise Inconclusive("Hom space too large for bounded search (%d generators)" % r)
    zero = ring.zero
    for coeffs in coeff_space:
        if all(ring.canon(c) == zero for c in coeffs):
            continue
        combo = []
        for i in range(x.quiver.vertex_count):
            m = ExactMatrix.zeros(ring, y.dims[i], x.dims[i])
            for c, g in zip(coeffs, base):
                if ring.canon(c) != zero:
                    m = m.add(g[i].scale(c))
            combo.append(m)
        if maps_invertible(combo):
            return True
    if complete:
        return False
    raise Inconclusive("bounded coefficient search exhausted")
