"""Hom and Ext of quiver representations via a two-term complex of free modules.

For representations X and Y over the same ring, the vertexwise maps form
C0 = prod_i Hom(X_i, Y_i) and the arrowwise obstructions form
C1 = prod_a Hom(X_tail(a), Y_head(a)).  The differential takes f to the
tuple of failures to commute, Y_a f_tail(a) - f_head(a) X_a.  Its kernel is
the morphism module Hom(X, Y) and its cokernel is Ext^1(X, Y); both come
out finitely presented with canonical invariant factors because C0 and C1
are finite free.

Identifications are column-major throughout: a map into Hom(R^c, R^r) sits
at flat index c * r_rows + r inside its block, blocks ordered by arrow in C1
and, in the public vertex layout of differential() and of every vector read
back, by vertex in C0.  That layout is known here alone: _differential_rows
places the complex, _unflatten_vertex reads a C0 vector back as vertex maps,
and _morphism_section solves the complex for the section of a projection
that structure.decompose_rigid splits each summand off with: on the placed
rows, the projection's own rows added, with no dense matrix.  differential()
alone densifies the complex, for its public readers.

HomExtResult eliminates the rows in their own elimination layout instead,
the C0 blocks in a fill-reducing order (_elimination_offsets): every
elimination pivots column by column from the left, and a column meets
deg(v) = sum_{a: v->w} dim Y_w + sum_{a: u->v} dim X_u rows of C1 when it
is in the block of vertex v.  Placing the sparse blocks first is Markowitz's
minimum-degree rule (Mgmt. Sci. 1957; Amestoy, Davis and Duff's AMD, SIAM
J. Matrix Anal. Appl. 1996) on the complex's vertex blocks: for Kronecker
(4,5) x (4,5) the dense core left after the sparse columns shrinks from
24 x 25 to 15 x 16.  The rows keep their order, so Ext cocycles need no map
back; Hom vectors are mapped back to the vertex layout once, on their first
read (HomExtResult._hom_vecs), and not at all when the order is the vertex
order.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate

from .errors import NotProjective, NotRigid, TheoremViolation
from .quiver import Rep, RepMorphism, _check_compatible, base_change, tits_form
from .elimination import (
    _certified_hom_ext,
    _hom_ext_data,
    _invertible,
    _nonzeros,
    _solve,
    constant_rank,
    presentation_base_change,
)
from .rings import ExactMatrix, RingHom, _check_read


def _elimination_offsets(x: Rep, y: Rep):
    """The C0 block offsets, by vertex, of the elimination layout, after
    checking the pair; None when that layout is the vertex layout.

    The vertices go in ascending order of deg(v), the C1 rows one column of
    their block meets (see the module docstring), ties to the larger block,
    then to the lower vertex.  It reads the dims and the quiver alone.
    """
    _check_compatible(x, y)
    dx, dy = x.dims, y.dims
    deg = [0] * len(dx)
    for t, h in x.quiver.arrows:
        deg[t - 1] += dy[h - 1]
        deg[h - 1] += dx[t - 1]
    sizes = [a * b for a, b in zip(dx, dy)]
    order = [v for v in sorted(range(len(dx)), key=lambda v: (deg[v], -sizes[v], v)) if sizes[v]]
    if order == sorted(order):
        return None
    off0 = [0] * len(dx)   # an empty block is never read
    for v, start in zip(order, accumulate((sizes[v] for v in order), initial=0)):
        off0[v] = start
    return off0


def _differential_rows(x: Rep, y: Rep, off0=None, integral=False) -> tuple:
    """The differential f -> (Y_a f_tail - f_head X_a) as (rows, cols), each
    row a dict from column to nonzero entry, placed from the nonzeros of Y_a
    and -X_a: the row of arrow a at (c, r) holds row r of Y_a in the block
    of its tail and column c of -X_a in the block of its head.  The two meet
    in one cell only when a is a loop, where they add; a zero sum is no entry.
    The rows of an arrow are allocated empty and the nonzeros scattered into
    them (triplet assembly; Davis, Direct Methods for Sparse Linear Systems,
    SIAM 2006, ch. 2): Y_a[r][k] into the rows (c, r) for every c < dim X_t,
    then -X_a[i][c] into the rows (c, r) for every r < dim Y_h, so the work
    is the nonzeros times those dims, with no pass per row, and each row's
    keys come in the order a row-by-row build gives them.
    The block of vertex v starts at column off0[v], by default the vertex
    layout; HomExtResult hands in the elimination layout's offsets, so the
    rows are placed there in the one pass.  With integral, over Q, the rows
    of arrow a are placed as ints, scaled by one integer, the lcm of the
    denominators of X_a's and Y_a's entries (_integral_entries): a row
    scaling, which keeps the kernel, the zero pattern and every pivot
    choice, and which HomExtResult's elimination reads mod a prime.

    The C1 rows over C0 columns bound what is built from them: the sheet's
    dense residual, differential(), and the fill-in of elimination._forward.  A
    placed row is charged at least the size of a dict (8 cells) and a column
    at least that of the set that indexes it in an elimination (32 cells),
    so a complex with C0 or C1 empty still pays for the other.  A pair
    whose (C1 + 32) x (C0 + 8) cells are more than rings._MAX_HOM_CELLS is
    refused with NotComputable (rings._check_read) before any row is placed.
    The Hom generators are charged when they are read.
    """
    _check_compatible(x, y)
    sizes = [a * b for a, b in zip(x.dims, y.dims)]
    c0 = sum(sizes)
    if off0 is None:
        off0 = list(accumulate(sizes, initial=0))
    q, add, neg, nonzero = x.quiver, x.ring.add, x.ring.neg, x.ring.nonzero
    c1 = sum(x.dims[t - 1] * y.dims[h - 1] for t, h in q.arrows)
    _check_read(c1 + 32, c0 + 8, "the Hom complex of %r and %r", x.dims, y.dims)
    rows = []
    for a in range(q.arrow_count):
        t, h = q.tail(a), q.head(a)
        xt, yt, yh = x.dims[t], y.dims[t], y.dims[h]
        block = [{} for _ in range(xt * yh)]   # the row at (c, r) is block[c * yh + r]
        ya, xa = y.mats[a].entries, x.mats[a].entries
        if integral:
            ya, xa = _integral_entries(ya, xa)
        for r, w in enumerate(ya):
            for k, v in enumerate(w, off0[t]):
                if nonzero(v):   # into the rows (c, r), at column k + c * yt
                    for row, key in zip(block[r::yh], range(k, k + xt * yt, yt)):
                        row[key] = v
        for i, w in enumerate(xa):
            for c, v in enumerate(w):
                if nonzero(v):   # into the rows (c, r), at column off0[h] + i * yh + r
                    v = neg(v)
                    for key, row in enumerate(block[c * yh:c * yh + yh], off0[h] + i * yh):
                        # the terms meet only in a loop's cell (c, r)
                        row[key] = add(row[key], v) if t == h and key in row else v
        rows += [{k: v for k, v in row.items() if nonzero(v)} for row in block] if t == h else block
    return rows, c0


def _integral_entries(*mats) -> list:
    """The entries of the Fraction matrices mats as ints, all scaled by the
    lcm of their denominators."""
    lcm = math.lcm(*[v.denominator for m in mats for w in m for v in w])
    if lcm == 1:   # integral already: no denominator to read again
        return [[[v.numerator for v in w] for w in m] for m in mats]
    return [[[v.numerator * (lcm // v.denominator) for v in w] for w in m] for m in mats]


def _rank_bound(x: Rep, y: Rep) -> int:
    """An upper bound on the rank of the differential, read off the dims:
    the rows of arrow a span at most the maps Y_a g - h X_a, a space of
    dimension x_t y_h - dim ker X_a * dim coker Y_a, and ker X_a has
    dimension at least x_t - x_h, coker Y_a at least y_h - y_t."""
    q, dx, dy = x.quiver, x.dims, y.dims
    return sum(dx[t] * dy[h] - max(0, dx[t] - dx[h]) * max(0, dy[h] - dy[t])
               for t, h in ((q.tail(a), q.head(a)) for a in range(q.arrow_count)))


def differential(x: Rep, y: Rep) -> ExactMatrix:
    """The Hom complex's matrix in the vertex layout: _differential_rows(x,
    y) densified, each absent entry the ring's zero.  In the package only
    HomExtResult.differential reads it: every elimination of the complex
    runs on the placed rows."""
    rows, cols = _differential_rows(x, y)
    dense = [[x.ring.zero] * cols for _ in rows]
    for full, row in zip(dense, rows):
        for k, v in row.items():
            full[k] = v
    return ExactMatrix._of(x.ring, len(dense), cols, tuple(map(tuple, dense)))


def _unflatten(x: Rep, shapes, vec):
    """Split a flat vector into column-major blocks of the given shapes."""
    mats = []
    pos = 0
    for r_, c_ in shapes:
        block = vec[pos:pos + r_ * c_]
        entries = tuple(tuple(block[c * r_ + r] for c in range(c_)) for r in range(r_))
        mats.append(ExactMatrix._of(x.ring, r_, c_, entries))
        pos += r_ * c_
    return tuple(mats)


def _unflatten_vertex(x: Rep, y: Rep, vec):
    """Split a C0 vector into one matrix per vertex."""
    return _unflatten(x, zip(y.dims, x.dims), vec)


def _morphism_section(proj: RepMorphism):
    """A morphism section of a projection, or None when it has none (it
    has one when its kernel has no extensions back).

    One system, solved on dict rows in the vertex layout
    (elimination._solve): the rows of Hom(quot, mid)'s differential as
    _differential_rows places them, for commutation with every arrow, then
    proj_i * s_i = I column by column: for column c of s_i, the nonzeros of
    proj's vertex map at vertex i, moved to that column's cells, against
    e_c.  No dense matrix is built, save the right-hand side.
    """
    mid, quot, ring = proj.source, proj.target, proj.source.ring
    rows, cols = _differential_rows(quot, mid)
    rhs, off = [(ring.zero,)] * len(rows), 0   # zero on the commutation rows
    for pi, q, m in zip(proj.vertex_maps, quot.dims, mid.dims):
        nonzeros = _nonzeros(pi.entries, ring)
        for c in range(q):   # column c of s_i, at columns off...
            rows += [{k + off: v for k, v in row.items()} for row in nonzeros]
            rhs += [(ring.one if r == c else ring.zero,) for r in range(q)]
            off += m
    sol = _solve(ring, rows, cols, ExactMatrix._of(ring, len(rows), 1, tuple(rhs)))
    return None if sol is None else RepMorphism(
        quot, mid, _unflatten_vertex(quot, mid, [x for x, in sol.entries]))


class HomExtResult:
    """Hom and Ext of a fixed pair, with explicit witnesses built on demand.

    hom and ext are module presentations with canonical invariant factors.
    hom_generators lists one morphism per Hom invariant factor, in the same
    order (torsion then free), each checked to commute as a RepMorphism;
    ext_cocycles likewise lists, per Ext factor, a C1 tuple of matrices
    mapping onto that generator of the cokernel.  Each read charges the
    cells it fills, and one of more than rings._MAX_HOM_CELLS cells is
    refused with NotComputable; the invariant factors read none.  Inside the
    package the generators are read unchecked, as tuples of vertex maps
    (_generator_maps): left_mutate, right_mutate and decompose_rigid hand
    them to mutation._evaluation_map, whose one RepMorphism check is the
    check that they all commute.

    Construction places the differential once (_differential_rows), in the
    elimination layout (_elimination_offsets: C0's vertex blocks in
    ascending order of the C1 rows their columns meet), and eliminates the
    placed rows once, on every ring, densifying nothing; both modules are
    read off that pass, the witnesses and the dense self.differential each
    on its first read.  self.differential and every vector read back are in
    the vertex layout: the Hom vectors are mapped back once, on their first
    read (_hom_vecs), and not at all when the two layouts agree, and the
    Ext cocycles need no map, since the rows keep their order.  The sparse
    blocks cleared first leave a smaller dense core: on a 2-core Xeon,
    Python 3.11, homext-sweep (25 s runs, 10 alternating pairs, medians)
    reads ops_per_s 1241 -> 1405 on seed 1 and 1240 -> 1472 on seed 2,
    vertex layout against this one.  Over Q and F_p
    that pass is one forward elimination, with no transform; the Hom side
    keeps the echelon rows until its generators, the reduced kernel basis
    (one per non-pivot column), are first read and back-substitute them.
    The Ext cocycles are the unit vectors at the rows that are not pivot
    rows.  Over Q the rows are placed as ints, each arrow's block scaled by
    the lcm of the denominators of X_a's and Y_a's entries, a row scaling
    that keeps every pivot choice, and the rank is first read off their
    image mod 32749 (elimination._certified_hom_ext), unless the dims
    bound it below full rank (_rank_bound).  A full-rank image certifies
    both modules, and the exact pass, Bareiss on the ints, waits for the
    first witness read; otherwise it runs at once.  Either way the modules
    and witnesses are the exact pass's, on Fractions as before;
    self.differential keeps its Fractions.
    Over Z, Z/m and Feps the construction diagonalises the placed rows:
    every unit pivot on them, then only the unit-free residual densely
    (elimination._Worksheet).  The unit pivots' column operations and scalings
    stay one record per pivot until a witness read expands them, and the
    modules are read off the diagonal past the unit pivots' identity
    block.  The first read of hom_generators replays the
    recorded operations on just the wanted columns of the right transform,
    and that of ext_cocycles on those of the inverse left transform.  Until
    then each side keeps only its own operation list (none when its module
    is zero), and after its read none.  The pause is the sheet's own: every
    sheet pauses after its unit pivots, and reading its diagonal resumes it
    on every ring but Z (elimination._Worksheet.diagonal).  Over Z it reads the
    factors of the residual modulo a multiple of them instead; both sides
    keep the paused sheet until the first witness read resumes it and lets
    it go.
    """

    def __init__(self, x: Rep, y: Rep):
        off0 = _elimination_offsets(x, y)   # checks the pair before x.ring is read
        integral = x.ring.is_field and not x.ring.p   # over Q
        rows, cols = _differential_rows(x, y, off0, integral)
        self.x, self.y, self._off0 = x, y, off0
        self.hom, self._read_hom, self.ext, self._read_ext = (
            _certified_hom_ext(x.ring, rows, cols, _rank_bound(x, y)) if integral
            else _hom_ext_data(x.ring, rows, cols))

    @cached_property
    def differential(self) -> ExactMatrix:
        return differential(self.x, self.y)

    @cached_property
    def _hom_vecs(self):
        vecs = self._read_hom()
        del self._read_hom
        if self._off0 is not None:   # back to the vertex layout
            cols = [k for o, a, b in zip(self._off0, self.x.dims, self.y.dims)
                    for k in range(o, o + a * b)]
            vecs = [tuple(v[k] for k in cols) for v in vecs]
        return vecs

    @cached_property
    def _ext_vecs(self):
        vecs = self._read_ext()
        del self._read_ext
        return vecs

    @cached_property
    def _generator_maps(self):
        return tuple(_unflatten_vertex(self.x, self.y, v) for v in self._hom_vecs)

    @cached_property
    def hom_generators(self):
        return tuple(RepMorphism(self.x, self.y, maps) for maps in self._generator_maps)

    @cached_property
    def ext_cocycles(self):
        q = self.x.quiver   # one C1 block per arrow
        shapes = [(self.y.dims[q.head(a)], self.x.dims[q.tail(a)])
                  for a in range(q.arrow_count)]
        return tuple(_unflatten(self.x, shapes, v) for v in self._ext_vecs)

    def __repr__(self):
        return "HomExtResult(hom=%r, ext=%r)" % (
            list(self.hom.invariant_factors), list(self.ext.invariant_factors))


def hom_ext(x: Rep, y: Rep) -> HomExtResult:
    """Hom(X, Y) and Ext^1(X, Y) with witnesses, computed afresh on every
    call: nothing is cached, so a caller keeps the result to reuse it.  A
    pair that is not of one quiver over one ring is refused, and so is one
    whose Hom complex is too large, both by _differential_rows before any
    row is placed; and so is a read of Hom generators or Ext cocycles too
    large (rings._MAX_HOM_CELLS)."""
    return HomExtResult(x, y)


def is_rigid(x: Rep) -> bool:
    """True when Ext^1(X, X) vanishes."""
    return hom_ext(x, x).ext.is_zero


def is_exceptional(x: Rep) -> bool:
    """True when X is rigid and r -> r * id is an isomorphism R -> End(X).

    That holds exactly when the self-differential D is invertible with the
    column k of one diagonal cell removed: write f = f_k * id + u with
    u_k = 0, then D f = D u, so ker D = R * id and coker D = 0 exactly when
    u -> D u is bijective.  The cell taken is the first of the first
    nonzero vertex, column 0, since the vertices before it have no cells.
    A split exact 0 -> R -> C0 -> C1 -> 0 forces <d, d> = 1, which makes
    the rest square; any other d (the zero rep too) is not exceptional.
    The one invertibility check, elimination._invertible, decides that on the
    sparse rows with column 0 popped, with no dense differential and no
    transform on any ring; peeling unit singleton rows decides every
    lattice check measured.  The argument is checked before the cached
    _exceptional hashes it.
    """
    _check_compatible(x, x)
    return _exceptional(x)


# Every sequence check and every construction asks again: lattice-orbit pass
# 0 hits it 144 times in 236 calls.  The largest working set measured, on a
# workload pass or a tier-1 test, is 442 reps (test_exceptional_criterion).
@lru_cache(maxsize=2048)
def _exceptional(x: Rep) -> bool:
    if tits_form(x.quiver, x.dims) != 1:
        return False
    rows, cols = _differential_rows(x, x)
    for row in rows:
        row.pop(0, None)
    return _invertible(x.ring, rows, cols, 1)


# Lattice-orbit pass 0 hits it 73 times in 112 calls; the largest working set
# measured is 452 pairs (test_exceptional_criterion).
@lru_cache(maxsize=2048)
def _orthogonal(y: Rep, x: Rep) -> bool:
    """True when Hom(Y, X) = Ext^1(Y, X) = 0: D(Y, X) is invertible, since
    its kernel is Hom and its cokernel Ext.  D has <y, x> more columns than
    rows, so a pair with nonzero Euler form fails on its shape alone, and a
    pair hom_ext refuses raises the same error here.  Like is_exceptional
    it asks elimination._invertible once, on sparse rows, and builds no Hom or
    Ext."""
    return _invertible(y.ring, *_differential_rows(y, x))


def rigid_hom_ext_ranks(x: Rep, y: Rep) -> tuple:
    """Local free ranks of Hom and Ext for a pair of rigid representations.

    For rigid X and Y both modules are projective, so each has a local
    rank function; a rank entry is None when that function is non-constant
    (possible only over Z/m with composite m).  Raises NotRigid, naming
    the argument, when x or y is not rigid.  Non-projective output for
    verified rigid input would falsify the theorem, hence TheoremViolation.
    """
    if not is_rigid(x):
        raise NotRigid("the first representation, x, is not rigid")
    if not is_rigid(y):
        raise NotRigid("the second representation, y, is not rigid")
    he = hom_ext(x, y)
    try:
        hr = constant_rank(he.hom)
        er = constant_rank(he.ext)
    except NotProjective as exc:
        raise TheoremViolation(
            "rigid pair has non-projective Hom or Ext: %s" % exc) from exc
    return hr, er


def check_base_change(x: Rep, y: Rep, hom: RingHom) -> dict:
    """Compare Ext transported along a ring hom against direct recomputation.

    Ext^1 is the cokernel of a map of finite free modules, and cokernels
    commute with any base change, so the two presentations must agree; the
    report carries both invariant-factor lists and an ok flag.
    """
    he = hom_ext(x, y)
    transported = presentation_base_change(he.ext, hom)
    direct = hom_ext(base_change(x, hom), base_change(y, hom)).ext
    return {
        "ok": transported.invariant_factors == direct.invariant_factors,
        "transported": transported,
        "direct": direct,
    }
