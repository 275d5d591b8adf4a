"""Hom and Ext of quiver representations via a two-term complex of free modules.

For representations X and Y over the same ring, the vertexwise maps form
C0 = prod_i Hom(X_i, Y_i) and the arrowwise obstructions form
C1 = prod_a Hom(X_tail(a), Y_head(a)).  The differential takes f to the
tuple of failures to commute, Y_a f_tail(a) - f_head(a) X_a.  Its kernel is
the morphism module Hom(X, Y) and its cokernel is Ext^1(X, Y); both come
out finitely presented with canonical invariant factors because C0 and C1
are finite free.

Identifications are column-major throughout: a map into Hom(R^c, R^r) sits
at flat index c * r_rows + r inside its block, blocks ordered by vertex in
C0 and by arrow in C1.  That layout is known here alone: _differential_rows
places the complex, _unflatten_vertex reads a C0 vector back as vertex maps,
and _morphism_section solves the complex for the section of a projection
that structure.decompose_rigid splits each summand off with.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate

from .errors import NotComputable, NotProjective, PreconditionViolated, TheoremViolation
from .quiver import Rep, RepMorphism, _check_compatible, base_change, euler_form
from .rings import (
    ExactMatrix,
    RingHom,
    _MAX_HOM_CELLS,
    _check_read,
    _hom_ext_data,
    _forward,
    block_diag,
    constant_rank,
    presentation_base_change,
    solve,
)


def _differential_rows(x: Rep, y: Rep) -> tuple:
    """The differential f -> (Y_a f_tail - f_head X_a) as (rows, cols), each
    row a dict from column to nonzero entry, placed from the nonzeros of Y_a
    and -X_a: the row of arrow a at (c, r) holds row r of Y_a in the block
    of its tail and column c of -X_a in the block of its head.  The two meet
    in one cell only when a is a loop, where they add; a zero sum is no entry.
    A pair that needs more than _MAX_HOM_CELLS cells is refused with
    NotComputable before any row is placed.
    """
    _check_compatible(x, y)
    off0 = list(accumulate((a * b for a, b in zip(x.dims, y.dims)), initial=0))
    q, add, neg, nonzero = x.quiver, x.ring.add, x.ring.neg, x.ring.nonzero
    cells = off0[-1]   # C0, then (C1 + C0) * C0
    for t, h in q.arrows:
        cells += x.dims[t - 1] * y.dims[h - 1]
    cells *= off0[-1]
    if cells > _MAX_HOM_CELLS:
        raise NotComputable("the Hom complex of %r and %r needs %d cells, above the cap %d"
                            % (x.dims, y.dims, cells, _MAX_HOM_CELLS))
    rows = []
    for a in range(q.arrow_count):
        t, h = q.tail(a), q.head(a)
        yt, yh = y.dims[t], y.dims[h]
        ya = [[(k, v) for k, v in enumerate(w, off0[t]) if nonzero(v)] for w in y.mats[a].entries]
        for c, col in enumerate(x.mats[a].transpose().entries):
            neg_col = [(off0[h] + i * yh, neg(v)) for i, v in enumerate(col) if nonzero(v)]
            for r in range(yh):
                row = {k + c * yt: v for k, v in ya[r]}
                for k, v in neg_col:   # the terms meet only in a loop's cell (c, r)
                    k += r
                    row[k] = add(row[k], v) if k in row else v
                rows.append({k: v for k, v in row.items() if nonzero(v)} if t == h else row)
    return rows, off0[-1]


def _densified(ring, rows, cols) -> ExactMatrix:
    """The matrix of dict rows, each absent entry the ring's zero."""
    dense = [[ring.zero] * cols for _ in rows]
    for full, row in zip(dense, rows):
        for k, v in row.items():
            full[k] = v
    return ExactMatrix._of(ring, len(dense), cols, tuple(map(tuple, dense)))


def differential(x: Rep, y: Rep) -> ExactMatrix:
    """_differential_rows(x, y) densified: the Hom complex's matrix, whose
    placed rows HomExtResult eliminates without densifying them."""
    return _densified(x.ring, *_differential_rows(x, y))


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

    Solves the combined linear system: commutation with every arrow (the
    differential of Hom(quot, mid)) plus vertexwise proj * section =
    identity, one block of proj's vertex map per column of the section.
    """
    mid, quot = proj.source, proj.target
    ring = mid.ring
    a = differential(quot, mid).vstack(block_diag(ring, [
        pi for pi, d in zip(proj.vertex_maps, quot.dims) for _ in range(d)]))
    # vec of each identity, the same read by rows or by columns
    ones = tuple((ring.one if r == c else ring.zero,)
                 for d in quot.dims for c in range(d) for r in range(d))
    b = ExactMatrix._of(ring, a.rows, 1, ((ring.zero,),) * (a.rows - len(ones)) + ones)
    sol = solve(a, b)
    if sol is None:
        return None
    return RepMorphism(quot, mid, _unflatten_vertex(quot, mid, [x for x, in sol.entries]))


class HomExtResult:
    """Hom and Ext of a fixed pair, with explicit witnesses built on demand.

    hom and ext are module presentations with canonical invariant factors.
    hom_generators lists one morphism per Hom invariant factor, in the same
    order (torsion then free); ext_cocycles likewise lists, per Ext factor,
    a C1 tuple of matrices mapping onto that generator of the cokernel, and
    refuses with NotComputable a read of more than _MAX_HOM_CELLS cells.

    Construction places the differential once (_differential_rows) and
    eliminates the placed rows once, on every ring, densifying nothing;
    both modules are read off that pass, the witnesses and the dense
    self.differential each on its first read.  Over Q and F_p
    that pass is one forward elimination, with no transform; the Hom side
    keeps the echelon rows until its generators, the reduced kernel basis
    (one per non-pivot column), are first read and back-substitute them.
    The Ext cocycles are the unit vectors at the rows that are not pivot
    rows.
    Over Z, Z/m and Feps the construction diagonalises the placed rows:
    every unit pivot on them, then only the unit-free residual densely
    (rings._Worksheet).  The first read of hom_generators replays the
    recorded operations on just the wanted columns of the right transform,
    and that of ext_cocycles on those of the inverse left transform.  Until
    then each side keeps only its own operation list (none when its module
    is zero), and after its read none.  The pause is the sheet's own: every
    sheet pauses after its unit pivots, and reading its diagonal resumes it
    on every ring but Z (rings._Worksheet.diagonal).  Over Z it reads the
    factors of the residual modulo a multiple of them instead; both sides
    keep the paused sheet until the first witness read resumes it and lets
    it go.
    """

    def __init__(self, x: Rep, y: Rep):
        self.x, self.y = x, y
        self.hom, self._read_hom, self.ext, self._read_ext = _hom_ext_data(
            x.ring, *_differential_rows(x, y))

    @cached_property
    def differential(self) -> ExactMatrix:
        return differential(self.x, self.y)

    @cached_property
    def _hom_vecs(self):
        vecs = self._read_hom()
        del self._read_hom
        return vecs

    @cached_property
    def _ext_vecs(self):
        # C1 cells per Ext factor; C0 may be empty, so the Hom complex's cap saw none
        _check_read(len(self.ext.invariant_factors), self.ext.generators,
                    "the Ext cocycles of %r and %r" % (self.x.dims, self.y.dims))
        vecs = self._read_ext()
        del self._read_ext
        return vecs

    @cached_property
    def hom_generators(self):
        return tuple(RepMorphism(self.x, self.y, _unflatten_vertex(self.x, self.y, v))
                     for v in self._hom_vecs)

    @cached_property
    def ext_cocycles(self):
        q = self.x.quiver   # one C1 block per arrow
        shapes = [(self.y.dims[q.head(a)], self.x.dims[q.tail(a)])
                  for a in range(q.arrow_count)]
        return tuple(_unflatten(self.x, shapes, v) for v in self._ext_vecs)

    def __repr__(self):
        return "HomExtResult(hom=%r, ext=%r)" % (
            list(self.hom.invariant_factors), list(self.ext.invariant_factors))


@lru_cache(maxsize=None)
def _hom_ext_cached(x: Rep, y: Rep) -> HomExtResult:
    return HomExtResult(x, y)


def hom_ext(x: Rep, y: Rep) -> HomExtResult:
    """Hom(X, Y) and Ext^1(X, Y) with witnesses; results are cached.  A
    pair whose Hom complex is too large is refused (_differential_rows), and
    so is a read of Ext cocycles too large (_MAX_HOM_CELLS)."""
    _check_compatible(x, y)
    return _hom_ext_cached(x, y)


def is_rigid(x: Rep) -> bool:
    """True when Ext^1(X, X) vanishes."""
    return hom_ext(x, x).ext.is_zero


@lru_cache(maxsize=None)
def is_exceptional(x: Rep) -> bool:
    """True when X is rigid and r -> r * id is an isomorphism R -> End(X).

    That holds exactly when the self-differential D is invertible with the
    column k of one diagonal cell removed: write f = f_k * id + u with
    u_k = 0, then D f = D u, so ker D = R * id and coker D = 0 exactly when
    u -> D u is bijective.  The cell taken is the first of the first
    nonzero vertex, column 0, since the vertices before it have no cells.
    A split exact 0 -> R -> C0 -> C1 -> 0 forces <d, d> = 1, which makes
    the rest square; any other d (the zero rep too) is not exceptional.
    The one forward elimination, rings._forward, decides that on sparse
    rows, with no dense differential and no transform on any ring.  Cached
    like hom_ext: every sequence check and every construction asks it again.
    """
    if euler_form(x.quiver, x.dims, x.dims) != 1:
        return False
    rows, cols = _differential_rows(x, x)
    rest = [{k - 1: v for k, v in row.items() if k} for row in rows]
    return _forward(x.ring, rest, cols - 1)[3]


@lru_cache(maxsize=None)
def _orthogonal(y: Rep, x: Rep) -> bool:
    """True when Hom(Y, X) = Ext^1(Y, X) = 0: D(Y, X) is invertible, since
    its kernel is Hom and its cokernel Ext.  D has <y, x> more columns than
    rows, so a pair with nonzero Euler form fails on its shape alone, and a
    pair hom_ext refuses raises the same error here.  Like is_exceptional
    it runs rings._forward once on sparse rows and builds no Hom or Ext."""
    return _forward(y.ring, *_differential_rows(y, x))[3]


def rigid_hom_ext_ranks(x: Rep, y: Rep) -> tuple:
    """Local free ranks of Hom and Ext for a pair of rigid representations.

    For rigid X and Y both modules are projective, so each has a local
    rank function; a rank entry is None when that function is non-constant
    (possible only over Z/m with composite m).  Non-projective output for
    verified rigid input would falsify the theorem, hence TheoremViolation.
    """
    if not is_rigid(x):
        raise PreconditionViolated("first representation is not rigid")
    if not is_rigid(y):
        raise PreconditionViolated("second representation is not rigid")
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
