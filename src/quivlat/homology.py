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
C0 and by arrow in C1.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    IncompatibleBase,
    IncompatibleRing,
    NotProjective,
    PreconditionViolated,
    TheoremViolation,
)
from .quiver import Rep, RepMorphism, base_change
from .rings import (
    ExactMatrix,
    RingHom,
    _hom_ext_data,
    constant_rank,
    presentation_base_change,
)


def _offsets(sizes):
    out = [0]
    for s in sizes:
        out.append(out[-1] + s)
    return out


def differential(x: Rep, y: Rep) -> ExactMatrix:
    """Matrix of f -> (Y_a f_tail - f_head X_a) over the flattened complex."""
    if x.quiver != y.quiver:
        raise IncompatibleBase("representations of different quivers")
    if x.ring != y.ring:
        raise IncompatibleRing("representations over %s and %s" % (x.ring, y.ring))
    ring = x.ring
    q = x.quiver
    n = q.vertex_count
    c0_sizes = [x.dims[i] * y.dims[i] for i in range(n)]
    c1_sizes = [x.dims[q.tail(a)] * y.dims[q.head(a)] for a in range(q.arrow_count)]
    off0 = _offsets(c0_sizes)
    off1 = _offsets(c1_sizes)
    rows, cols = off1[-1], off0[-1]
    data = [[ring.zero] * cols for _ in range(rows)]
    for a in range(q.arrow_count):
        t, h = q.tail(a), q.head(a)
        ya, xa = y.mats[a], x.mats[a]
        for c in range(x.dims[t]):
            for r in range(y.dims[h]):
                row = off1[a] + c * y.dims[h] + r
                for rr in range(y.dims[t]):
                    col = off0[t] + c * y.dims[t] + rr
                    data[row][col] = ring.add(data[row][col], ya.entries[r][rr])
                for cc in range(x.dims[h]):
                    col = off0[h] + cc * y.dims[h] + r
                    data[row][col] = ring.sub(data[row][col], xa.entries[cc][c])
    return ExactMatrix(ring, rows, cols, tuple(tuple(r) for r in data))


def _unflatten_vertex(x: Rep, y: Rep, vec):
    """Split a C0 vector into one matrix per vertex."""
    ring = x.ring
    mats = []
    pos = 0
    for i in range(x.quiver.vertex_count):
        r_, c_ = y.dims[i], x.dims[i]
        block = vec[pos:pos + r_ * c_]
        entries = tuple(tuple(block[c * r_ + r] for c in range(c_)) for r in range(r_))
        mats.append(ExactMatrix(ring, r_, c_, entries))
        pos += r_ * c_
    return tuple(mats)


def _unflatten_arrow(x: Rep, y: Rep, vec):
    """Split a C1 vector into one matrix per arrow."""
    ring = x.ring
    q = x.quiver
    mats = []
    pos = 0
    for a in range(q.arrow_count):
        r_, c_ = y.dims[q.head(a)], x.dims[q.tail(a)]
        block = vec[pos:pos + r_ * c_]
        entries = tuple(tuple(block[c * r_ + r] for c in range(c_)) for r in range(r_))
        mats.append(ExactMatrix(ring, r_, c_, entries))
        pos += r_ * c_
    return tuple(mats)


class HomExtResult:
    """Hom and Ext of a fixed pair, with explicit witnesses available.

    hom and ext are module presentations with canonical invariant factors.
    hom_generators lists one morphism per Hom invariant factor, in the same
    order (torsion then free); ext_cocycles likewise lists, per Ext factor,
    a C1 tuple of matrices mapping onto that generator of the cokernel.

    Construction diagonalises the differential exactly once, tracking the
    right transform (whose columns give the Hom generators) and the inverse
    of the left transform (whose columns give the Ext cocycles); both
    modules are read off that one worksheet.
    """

    def __init__(self, x: Rep, y: Rep):
        self.x = x
        self.y = y
        self.differential = differential(x, y)
        self.hom, self._hom_vecs, self.ext, self._ext_vecs = _hom_ext_data(self.differential)
        self._hom_gens = None
        self._ext_cocycles = None

    @property
    def hom_generators(self):
        if self._hom_gens is None:
            self._hom_gens = tuple(
                RepMorphism(self.x, self.y, _unflatten_vertex(self.x, self.y, v))
                for v in self._hom_vecs)
        return self._hom_gens

    @property
    def ext_cocycles(self):
        if self._ext_cocycles is None:
            self._ext_cocycles = tuple(
                _unflatten_arrow(self.x, self.y, v) for v in self._ext_vecs)
        return self._ext_cocycles

    def __repr__(self):
        return "HomExtResult(hom=%r, ext=%r)" % (
            list(self.hom.invariant_factors), list(self.ext.invariant_factors))


@lru_cache(maxsize=None)
def _hom_ext_cached(x: Rep, y: Rep) -> HomExtResult:
    return HomExtResult(x, y)


def hom_ext(x: Rep, y: Rep) -> HomExtResult:
    """Hom(X, Y) and Ext^1(X, Y) with witnesses; results are cached."""
    if x.quiver != y.quiver:
        raise IncompatibleBase("representations of different quivers")
    if x.ring != y.ring:
        raise IncompatibleRing("representations over %s and %s" % (x.ring, y.ring))
    return _hom_ext_cached(x, y)


def is_rigid(x: Rep) -> bool:
    """True when Ext^1(X, X) vanishes."""
    return hom_ext(x, x).ext.is_zero


def is_exceptional(x: Rep) -> bool:
    """True when X is rigid and r -> r * id is an isomorphism R -> End(X).

    Requires End(X) free of rank one with the identity as a unit multiple
    of the generator; a rank-one endomorphism ring whose generator is not
    a unit multiple of the identity is rejected.
    """
    he = hom_ext(x, x)
    if not he.ext.is_zero:
        return False
    if not (he.hom.is_free and he.hom.free_rank == 1):
        return False
    ring = x.ring
    gen = _unflatten_vertex(x, x, he._hom_vecs[0])
    # r * gen = id forces r * u = 1 for any diagonal entry u of gen, so gen
    # must be u * id for that unit u.
    u = next(m.entries[0][0] for m in gen if m.rows)
    return ring.is_unit(u) and all(
        m == ExactMatrix.identity(ring, m.rows).scale(u) for m in gen)


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
