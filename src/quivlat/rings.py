"""Exact linear algebra over a small family of computable commutative rings.

Supported rings and their element representations:

* ``Z``          -- the integers, plain ``int``
* ``Q``          -- the rationals, ``fractions.Fraction``
* ``F:p``        -- the prime field F_p, ``int`` in ``[0, p)``
* ``Zmod:m``     -- Z/m for any m >= 2, ``int`` in ``[0, m)``
* ``Feps:p:n``   -- F_p[e]/(e^n), a length-``n`` tuple of coefficient ints

All arithmetic is exact.  Intermediate entries of integer reductions can
grow far beyond machine word size, so everything stays on Python ints.

The normal form produced by :func:`normal_form` is a two-sided canonical
form ``left * M * right`` with invertible transforms: reduced row echelon
over the fields, the classical divisibility-chain diagonal over Z, and the
same diagonal shape with canonical ideal generators over Z/m and the
truncated polynomial rings (both principal ideal rings).  Row spans over
the latter two are canonicalised separately by a Howell-form pass, which
is what :func:`kernel_basis` uses for its generating sets; the Howell form
of a row span may need more rows than the input matrix has, so it cannot
serve as the shape-preserving two-sided form.

Over Z, Z/m and Feps one diagonalisation records its row and column
operations and builds no transform; each caller replays the operations on
just what it reads.  :func:`normal_form` replays them on identities, for
all four transforms.  :func:`solve` replays the left transform on the
right-hand side and the right transform on the diagonal solution.
:func:`kernel_data`, :func:`kernel_basis`, :func:`cokernel_data` and
:func:`cokernel_projection` replay them on a few columns of the right or
inverse left transform.  These, :func:`cokernel`, and Hom and Ext of a
quiver pair read one elimination, ``_hom_ext_data``, and both modules off
its diagonal; each side's replay is deferred until its vectors (the
kernel vectors or Hom generators, the cokernel vectors or Ext cocycles)
are first read, and until then that side keeps only its own operation
list.  The diagonalisation first eliminates every unit pivot on sparse
rows and makes only the unit-free residual dense, and every sheet pauses
there.  That unit phase records one entry per pivot for its column
operations and one for the scaling of its pivots to canonical generators,
and the first replay of a side, or read of its list, expands that side's
records into operations, once; the unit pivots are read as one identity
block, whose units Hom and Ext both drop, so the modules are read off the
diagonal past it alone.  Reading its diagonal resumes it, save over Z: there it stays
paused, which keeps every entry a minor of the input, and reads the
residual's invariant factors modulo g, the gcd of the last pivot row of
the one forward elimination below, minors of the residual of order its
rank, with no worksheet; the first vector read resumes it from there.  Only
:func:`solve` and :func:`normal_form`, which replay whole transforms,
resume the sheet before they read its diagonal.  One pass clears a
pivot's column by row steps, and its row by the same pass on the residual
transposed.

Over Q and F_p all of these instead run the one forward elimination,
``_forward``, on sparse rows (dicts from column to nonzero entry) with no
row moves, column operations or transforms (fraction-free over Q), which
updates only the rows not yet pivots.  Rank, cokernels, and Hom and Ext
as modules follow from its rank profile; the kernel vectors back-substitute
its echelon rows at the non-pivot columns, Hom's on first read.
:func:`normal_form` back-substitutes [a | I], and :func:`solve` [a | b].
:func:`is_invertible` and the mutation layer's exceptional checks ask one
check, ``_invertible``, on every ring: it peels each row whose one entry is
a unit (the singleton step of sparse direct solvers), which decides the
exceptional checks alone, and runs the same pass on whatever is left.  On
every ring :func:`cokernel_projection` is the kernel read of a transposed,
since Hom(coker a, R) = ker(a^T).

Every read of vectors or of a transform charges the cells it fills
against one cap, _MAX_HOM_CELLS (_check_read), where it fills them.

Elimination takes one input on every ring: the ring, the rows as dicts
from column to nonzero entry, and the column count.  A public matrix entry
point reads its matrix's nonzeros once (``_nonzeros``); Hom and Ext of a
quiver pair pass the rows the Hom complex is placed as, and densify
nothing.  A :class:`ModulePresentation` is its ring, generator count and
invariant factors; ``from_invariant_factors`` eliminates its diagonal once,
to canonicalise arbitrary input.

Each ring is an instance of one class per family: integers (Z), rationals
(Q, with Z's arithmetic on Fractions), modular (F:p and Z/m in one
implementation) and truncated (Feps).  The class holds the element
arithmetic and the two row kernels that elimination, its replays and Howell
canonicalisation run on: plain ``x + c*y`` over Z and Q, one reduction mod
m per entry over Z/m, a truncated product over Feps, looked up in tables
of all products and sums when the ring has at most 25 elements, and a third,
``dict_axpy``, that the unit phase runs on sparse rows.  Over Feps the 2x2
kernel, ``row_comb``, is element-wise ``add``/``mul``: a sheet over a local
ring takes no gcdex step, so only Howell canonicalisation runs it there.
A column operation runs the kernels as a row operation on the residual
transposed, unless all it does is zero one entry of the pivot row or swap
two columns.  The kernels skip zero multiplicands, which dominate the
sparse differentials and the identity-like transforms, and the values they
store are bit-identical to element-wise ``add``/``mul``.
A ring hom is fixed by its two rings and picks its per-entry map once.
No algorithm reads a ring's kind: what the forward pass and the sheet ask
of a ring are two contracts, stated in :class:`RingSpec`'s docstring.

Entries are canonicalised once: ``ExactMatrix(...)`` canonicalises outside
input, and internal producers use the trusted ``ExactMatrix._of``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    IncompatibleBase,
    IncompatibleRing,
    NotComputable,
    NotProjective,
    ParseError,
    TheoremViolation,
)
from ._record import Record

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to all of _MR_WITNESSES (Sorenson & Webster,
# Math. Comp. 2017): below it _is_prime is proven, at or above it not.
_PRIME_PROOF_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < _PRIME_PROOF_BOUND
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# "n" or "n/d" in ASCII decimal digits; int() alone would also take "+3",
# " 3", "1_0" and non-ASCII digits, and "/-2" would give a negative denominator.
_RATIONAL_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# a ring spec parameter, by the same rule
_DECIMAL_LITERAL = re.compile(r"[0-9]+")


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# Largest truncation order n of Feps:p:n.  Every element is a length-n tuple
# and a product costs about n^2/2 coefficient products, so one matrix entry
# of a larger order already takes longer than a whole small elimination.
_FEPS_MAX_ORDER = 64


def _check_prime_provable(p: int):
    if p >= _PRIME_PROOF_BOUND:
        raise NotComputable(
            "primality of %d is not provable here: the test is proven only "
            "below %d" % (p, _PRIME_PROOF_BOUND))


class RingSpec(Record):
    """One of the supported coefficient rings.

    kind is "Z", "Q", "F" (prime field, parameter p), "Zmod" (parameter m)
    or "Feps" (truncated polynomials, parameters p and n).  RingSpec(...)
    returns an instance of the class of its kind (_KINDS), which checks its
    parameters and states its own element arithmetic:

    * zero, one, is_field, is_domain, is_finite, and size and elements()
      of a finite ring;
    * canon(x), the canonical element of liberal input; add, neg, mul;
      is_unit;
    * solve_scalar(a, c), some x with a*x = c, or None;
    * ann_gen(x), the canonical generator of the annihilator of x;
      unit_to_canonical(x), a unit u with u*x the canonical generator of
      the ideal (x), one when x is zero; pivot_size(x), the pivoting weight
      of a nonzero x, 1 exactly on units;
    * entry_from_json and entry_to_json;
    * row_axpy and dict_axpy, the row kernels of elimination (see _Integers).

    RingSpec derives the rest from these, once for every class:

    * sub(a, b) = add(a, neg(b)); divides(a, b), whether solve_scalar(a, b)
      has a solution; inv(a), the solution of solve_scalar(a, one), or
      IncompatibleRing when a is not a unit;
    * canonical_gen(x) = mul(unit_to_canonical(x), x);
    * gcdex(a, b) = (g, s, t, u, v) with s*a + t*b = g, u*a + v*b = 0 and
      s*v - t*u a unit, so the 2x2 transform is invertible: its cases with
      a zero argument, and otherwise _gcdex, whose default is the
      divisibility step (a, 1, 0, -b/a, 1) or (b, 0, 1, 1, -a/b), the whole
      gcd step of a field or a valuation ring (Q and Feps); Z runs Euclid,
      and Z/m reduces Z's transform mod m;
    * row_comb, the 2x2 row kernel, element-wise (Z, Q and Z/m run their
      own);
    * nonzero = bool and is_zero = not (Feps states its own).

    Feps states its own inv too, power-series inversion, which its
    solve_scalar reads.

    Only these classes read kind.  An algorithm asks a ring for what one of
    two contracts lists, and tests/test_ring_contracts.py pins both:

    1. The forward pass (_forward: the invertibility check _invertible,
       the field reductions, and Hom and Ext over Q and F_p) takes dict
       rows of nonzero entries, which _nonzeros and
       homology._differential_rows build with nonzero(x), true exactly
       when x is not zero.  It asks for p and _forward_ints(rows).  When p
       is nonzero the pass works mod p, on the rows' images in the residue
       field F_p, and a square matrix is invertible when it has full rank
       there: the ring is F_p or local over it.  When p is zero the pass
       is Bareiss on integer rows that are the input's up to units (scaled
       over Q, least absolute residues over Z/m), and is_unit(d) of the
       int d it ends on says whether a matrix with determinant +-d is
       invertible.  Before the pass, _invertible asks is_unit of an entry
       too, the one entry of a singleton row, which it peels when it is
       a unit.
    2. The sheet (_Worksheet, and solve, normal_form, and the kernel,
       cokernel, Hom and Ext reads over the other rings, which read it)
       asks for a principal ideal ring's arithmetic: canonical zero and
       one, add, neg, sub, mul, is_zero, is_unit, inv, solve_scalar,
       divides, gcdex, pivot_size, unit_to_canonical, canonical_gen and
       ann_gen, and the kernels row_axpy, row_comb and dict_axpy; row_comb
       only for a gcdex step, which a sheet over a local ring never takes
       (its pivot, of least valuation, divides the whole block left), so
       RingSpec's element-wise one serves Feps.  Every sheet pauses after
       its unit phase.  One over a finite ring resumes when its diagonal
       is read.  One over an infinite ring (only Z
       reaches a sheet) stays paused until a vector is read, and reads the
       residual's factors modulo the gcd of the minors the forward pass
       leaves, so that ring meets the first contract with p zero as well.

    Past these, an algorithm reads is_field (the forward pass or a sheet),
    is_domain (Smith or Howell form), p (the pass leaves F_p pivots at 1)
    and m (constant_rank reads Z/m's summands off gcds with m).
    """

    def __new__(cls, kind=None, p=0, m=0, n=0):
        # copy and pickle call the class of a kind with no arguments
        if cls is RingSpec:
            if not isinstance(kind, str) or kind not in _KINDS:
                raise ParseError("unknown ring kind %r" % (kind,))
            cls = _KINDS[kind][0]
        return object.__new__(cls)

    def __init__(self, kind, p=0, m=0, n=0):
        self.__dict__.update(kind=kind, p=p, m=m, n=n)
        self.__post_init__()

    def __post_init__(self):
        # a kind takes exact ints for the parameters _KINDS lists, and no others
        takes = _KINDS[self.kind][1]
        for name in ("p", "m", "n"):
            value = getattr(self, name)
            if type(value) is not int or (value and name not in takes):
                raise ParseError("bad parameter %s=%r for ring kind %s"
                                 % (name, value, self.kind))

    # -- textual spec ------------------------------------------------------

    def __str__(self) -> str:
        return ":".join([self.kind] + ["%d" % getattr(self, name)
                                       for name in _KINDS[self.kind][1]])

    def __repr__(self) -> str:
        return "RingSpec(kind=%r, p=%r, m=%r, n=%r)" % (self.kind, self.p, self.m, self.n)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return (self.kind, self.p, self.m, self.n) == (other.kind, other.p, other.m, other.n)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.p, self.m, self.n))

    @staticmethod
    def parse(text: str) -> "RingSpec":
        """The ring of "Z", "Q", "F:p", "Zmod:m" or "Feps:p:n", parameters
        in ASCII decimal digits only."""
        if not isinstance(text, str):
            raise ParseError("ring spec must be a string, got %r" % (text,))
        kind, *params = text.strip().split(":")
        names = _KINDS[kind][1] if kind in _KINDS else None
        if (names is None or len(names) != len(params)
                or not all(_DECIMAL_LITERAL.fullmatch(x) for x in params)):
            raise ParseError("bad ring spec %r" % text)
        try:
            values = [int(x) for x in params]
        except ValueError as exc:   # more digits than int() converts
            raise ParseError("bad ring spec %r" % text) from exc
        return RingSpec(kind, **dict(zip(names, values)))

    # -- what every class derives from its own arithmetic ---------------------

    # truthiness, 7x cheaper than != on Fractions; Feps tuples are always
    # truthy, so _Truncated has its own nonzero and is_zero
    nonzero = bool
    is_zero = staticmethod(operator.not_)

    @property
    def size(self) -> int:
        raise IncompatibleRing("ring %s is not finite" % self)

    def elements(self):
        """Iterate every element of a finite ring, deterministically."""
        raise IncompatibleRing("ring %s is not finite" % self)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def divides(self, a, b) -> bool:
        return self.solve_scalar(a, b) is not None

    def inv(self, a):
        x = self.solve_scalar(a, self.one)
        if x is None:
            raise IncompatibleRing("%r is not a unit of %s" % (a, self))
        return x

    def canonical_gen(self, x):
        return self.mul(self.unit_to_canonical(x), x)

    def gcdex(self, a, b):
        if self.is_zero(b):
            return a, self.one, self.zero, self.zero, self.one
        if self.is_zero(a):
            return b, self.zero, self.one, self.one, self.zero
        return self._gcdex(a, b)

    def _gcdex(self, a, b):
        """The divisibility step of nonzero a and b, the whole gcd step of a
        field or a valuation ring, where one of them divides the other."""
        q = self.solve_scalar(a, b)
        if q is not None:
            return a, self.one, self.zero, self.neg(q), self.one
        return b, self.zero, self.one, self.one, self.neg(self.solve_scalar(b, a))

    def row_comb(self, ri, rj, s, t, u, v):
        """(s*ri + t*rj, u*ri + v*rj), entry by entry; Z, Q and Z/m run
        their own, and Feps this one (contract 2 above)."""
        add, mul = self.add, self.mul
        return ([add(mul(s, x), mul(t, y)) for x, y in zip(ri, rj)],
                [add(mul(u, x), mul(v, y)) for x, y in zip(ri, rj)])

    def entry_from_json(self, value):
        if isinstance(value, int) and not isinstance(value, bool):
            return self.canon(value)
        raise ParseError("bad entry %r for ring %s" % (value, self))

    def entry_to_json(self, x):
        return x

    def _map_to(self, target):
        """The per-entry map of the canonical hom to a target other than
        this ring, or None when there is none (see RingHom)."""
        return None


class _Integers(RingSpec):
    """Z, on plain ints.

    Its two row kernels do plain ``x + c*y``; _Rationals inherits them with
    this arithmetic.  Each skips a position whose multiplicand is zero
    (row_comb one where both inputs are zero) and leaves its value as it
    is; element-wise arithmetic would compute that same value there, so the
    results are identical to it.  Each returns new lists: rows of the
    residual, of the residual transposed in a column pass, or of a replayed
    transform.
    """

    zero, one = 0, 1
    is_field, is_domain, is_finite = False, True, False

    def canon(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ParseError("integer entry expected, got %r" % (x,))
        return int(x)   # a plain int: an int subclass would keep its own repr

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    is_unit = frozenset((1, -1)).__contains__   # a C call: the unit phase asks it often

    def solve_scalar(self, a, c):
        if not c:
            return 0
        if not a:
            return None
        return c // a if c % a == 0 else None

    def _gcdex(self, a, b):
        g, s, t = _egcd(a, b)
        return g, s, t, -(b // g), a // g

    def ann_gen(self, x):
        return self.zero if x else self.one

    def unit_to_canonical(self, x):
        return -1 if x < 0 else 1

    def pivot_size(self, x) -> int:
        return abs(x)

    def _map_to(self, target):
        return target.canon   # Z is initial: an integer goes to its image

    def _forward_ints(self, rows):
        return rows   # consumed

    # -- row kernels of elimination ------------------------------------------

    def row_axpy(self, dst, src, c):
        """dst + c*src"""
        return [x + c * y if y else x for x, y in zip(dst, src)]

    def row_comb(self, ri, rj, s, t, u, v):
        """(s*ri + t*rj, u*ri + v*rj)"""
        return ([s * x + t * y if x or y else x for x, y in zip(ri, rj)],
                [u * x + v * y if x or y else y for x, y in zip(ri, rj)])

    _mod = 0   # _Modular's modulus; Z and Q reduce nothing

    def dict_axpy(self, row, items, c):
        """row += c*src in place, on a dict row, for src's nonzero (column,
        entry) items and c nonzero; an entry that cancels leaves row.
        _Modular runs it too, reducing mod m."""
        m, get = self._mod, row.get
        for k, y in items:
            x = get(k, 0) + c * y
            if m:
                x %= m
            if x:
                row[k] = x
            else:
                row.pop(k, None)


class _Rationals(_Integers):
    """Q, on Fractions, with the plain arithmetic and kernels of Z."""

    zero, one = Fraction(0), Fraction(1)
    is_field = True

    def canon(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise ParseError("rational entry expected, got %r" % (x,))

    is_unit = bool

    def solve_scalar(self, a, c):
        if not c:
            return self.zero
        if not a:
            return None
        return self.one / a * c

    _gcdex = RingSpec._gcdex   # a field's step, not Z's Euclid on Fractions

    def unit_to_canonical(self, x):
        return self.one / x if x else self.one

    def pivot_size(self, x) -> int:
        return 1

    def entry_from_json(self, value):
        if isinstance(value, str):
            match = _RATIONAL_LITERAL.fullmatch(value)
            try:
                if match:
                    return Fraction(int(match[1]), int(match[2] or "1"))
            except (ValueError, ZeroDivisionError) as exc:
                # a zero denominator, or more digits than int() converts
                raise ParseError("bad rational literal %r" % value) from exc
            raise ParseError("bad rational literal %r" % value)
        return super().entry_from_json(value)

    def entry_to_json(self, x):
        return int(x) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)

    def _forward_ints(self, rows):
        # each row scaled by the lcm of its denominators
        return [{k: x.numerator * (lcm // x.denominator) for k, x in row.items()}
                for row in rows for lcm in [math.lcm(*[x.denominator for x in row.values()])]]

    def _map_to(self, target):
        return None


class _Modular(RingSpec):
    """Z/m on ints in [0, m), and F:p as Z/p.

    Over a prime modulus the ideal arithmetic of Z/m is the field's: the
    gcd of a nonzero element with the modulus is 1.  Only gcdex differs
    from a field's own choice, and its value is a valid one over a field
    too.  The row kernels are those of Z with one reduction mod m per entry.
    """

    zero, one = 0, 1
    is_finite = True

    def __post_init__(self):
        super().__post_init__()
        field = self.kind == "F"
        if field:
            _check_prime_provable(self.p)
            if not _is_prime(self.p):
                raise ParseError("F:%d needs a prime" % self.p)
        elif self.m < 2:
            raise ParseError("Zmod needs modulus >= 2")
        self.__dict__.update(is_field=field, is_domain=field, _mod=self.p or self.m)

    @property
    def size(self) -> int:
        return self._mod

    def elements(self):
        return range(self._mod)

    def canon(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ParseError("integer entry expected, got %r" % (x,))
        return x % self._mod

    def add(self, a, b):
        return (a + b) % self._mod

    def neg(self, a):
        return -a % self._mod

    def mul(self, a, b):
        return a * b % self._mod

    def is_unit(self, a) -> bool:
        return math.gcd(a, self._mod) == 1

    def solve_scalar(self, a, c):
        if not c:
            return 0
        m = self._mod
        g = math.gcd(a, m)
        if c % g:
            return None
        mg = m // g
        return (c // g) * pow(a // g, -1, mg) % mg

    def _gcdex(self, a, b):   # Z's Bezout transform, reduced mod m
        return tuple([x % self._mod for x in _Integers._gcdex(self, a, b)])

    def ann_gen(self, x):
        return (self._mod // math.gcd(x, self._mod)) % self._mod

    def unit_to_canonical(self, x):
        if not x:
            return 1
        m = self._mod
        g = math.gcd(x, m)
        mg = m // g
        w = pow(x // g, -1, mg)
        for kk in range(g + 1):
            cand = w + kk * mg
            if math.gcd(cand % m, m) == 1:
                return cand % m
        raise IncompatibleRing("no unit lift found")  # pragma: no cover

    def pivot_size(self, x) -> int:
        return math.gcd(x, self._mod)

    def _forward_ints(self, rows):
        # F_p rows are consumed; Z/m ones lifted to least absolute residues,
        # which move the determinant by a multiple of m and keep the minors
        # as small as over Z
        m = self.m
        return rows if not m else [{k: x - m if 2 * x > m else x for k, x in row.items()}
                                   for row in rows]

    def _residue(self, x, pivot):
        """Canonical residue of x modulo the ideal (pivot)."""
        return x % math.gcd(pivot, self._mod)

    def _map_to(self, target):
        if self.is_field:   # F_p -> F_p[e]/(e^n), onto the constants
            if isinstance(target, _Truncated) and target.p == self.p:
                return target.canon
        elif (isinstance(target, _Modular) and not target.is_field
              and self.m % target.m == 0):
            return target.m.__rmod__   # x -> x % m'
        return None

    # -- row kernels of elimination ------------------------------------------

    def row_axpy(self, dst, src, c):
        m = self._mod
        return [(x + c * y) % m if y else x for x, y in zip(dst, src)]

    def row_comb(self, ri, rj, s, t, u, v):
        m = self._mod
        return ([(s * x + t * y) % m if x or y else x for x, y in zip(ri, rj)],
                [(u * x + v * y) % m if x or y else y for x, y in zip(ri, rj)])

    dict_axpy = _Integers.dict_axpy


class _Truncated(RingSpec):
    """F_p[e]/(e^n) on length-n tuples of coefficients in [0, p).

    Its row_axpy and dict_axpy unpack each multiplier once into the
    (i, c_i, range(n - i)) of its nonzero coefficients and reduce each entry
    mod p once, at the end; a zero entry is one equal to the zero tuple.  A
    ring of at most _FEPS_TABLE_SIZE elements instead reads mul and those
    two kernels off tables of all its products and sums (_table_kernels),
    one entry as sum[x][prod_c[y]]; they hold the loops' own values, and
    are kept out of pickles and copies, which rebuild them.  Its row_comb
    is RingSpec's element-wise one (contract 2 there), and its gcd step
    RingSpec's divisibility step: one of two elements divides the other.
    """

    is_field = is_domain = False
    is_finite = True

    def __post_init__(self):
        super().__post_init__()
        p, n = self.p, self.n
        _check_prime_provable(p)
        if not _is_prime(p):
            raise ParseError("Feps:%d:%d needs a prime" % (p, n))
        if n < 1:
            raise ParseError("Feps truncation order must be >= 1")
        if n > _FEPS_MAX_ORDER:
            raise NotComputable(
                "Feps truncation order %d exceeds the bound %d" % (n, _FEPS_MAX_ORDER))
        self.__dict__.update(zero=(0,) * n, one=(1,) + (0,) * (n - 1),
                             _ranges=tuple(range(n - i) for i in range(n)))
        self.__dict__.update(_table_kernels(self))

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in _TABLE_KERNELS}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.update(_table_kernels(self))

    @property
    def size(self) -> int:
        return self.p ** self.n

    def elements(self):
        return (tuple(reversed(t)) for t in
                itertools.product(range(self.p), repeat=self.n))

    def canon(self, x):
        """An int (constant) or a list or tuple of int coefficients."""
        if isinstance(x, int) and not isinstance(x, bool):
            return (x % self.p,) + (0,) * (self.n - 1)
        p = self.p
        coeffs = (tuple([c % p for c in x if type(c) is int])
                  if isinstance(x, (list, tuple)) else None)
        if coeffs is None or len(coeffs) != len(x):
            raise ParseError("bad entry %r for ring %s" % (x, self))
        if len(coeffs) > self.n:
            if any(coeffs[self.n:]):
                raise ParseError("coefficient list longer than truncation order")
            coeffs = coeffs[: self.n]
        return coeffs + (0,) * (self.n - len(coeffs))

    # canon takes exactly the JSON entry forms, and refuses others as bad entries
    entry_from_json = canon

    def entry_to_json(self, x):
        return list(x)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, n = self.p, self.n
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                for j in range(n - i):
                    bj = b[j]
                    if bj:
                        out[i + j] = (out[i + j] + ai * bj) % p
        return tuple(out)

    def is_zero(self, a) -> bool:
        return not any(a)

    nonzero = any   # a C call, cheaper than zero.__ne__

    def is_unit(self, a) -> bool:
        return a[0] != 0

    def inv(self, a):
        # power series inversion, coefficient by coefficient
        if a[0] == 0:
            raise IncompatibleRing("non-unit in truncated ring")
        p, n = self.p, self.n
        c0inv = pow(a[0], -1, p)
        out = [c0inv] + [0] * (n - 1)
        for kk in range(1, n):
            acc = 0
            for i in range(1, kk + 1):
                acc += a[i] * out[kk - i]
            out[kk] = (-c0inv * acc) % p
        return tuple(out)

    def _val(self, a) -> int:
        """e-adic valuation; n means zero."""
        for i, c in enumerate(a):
            if c:
                return i
        return self.n

    def solve_scalar(self, a, c):
        if self.is_zero(c):
            return self.zero
        if self.is_zero(a):
            return None
        va, vc = self._val(a), self._val(c)
        if va > vc:
            return None
        quot = self.mul(self.unit_to_canonical(a), c)
        return tuple(quot[va:]) + (0,) * va

    def ann_gen(self, x):
        w = self.n - self._val(x)
        if w >= self.n:
            return self.zero
        return tuple(1 if i == w else 0 for i in range(self.n))

    def unit_to_canonical(self, x):
        if self.is_zero(x):
            return self.one
        v = self._val(x)
        return self.inv(tuple(x[v:]) + (0,) * v)

    def pivot_size(self, x) -> int:
        return self._val(x) + 1

    def _forward_ints(self, rows):
        # the constant terms, the images in the residue field F_p
        return [{k: x[0] for k, x in row.items() if x[0]} for row in rows]

    def _residue(self, x, pivot):
        """Canonical residue of x modulo the ideal (pivot): the coefficients
        below the valuation of pivot."""
        v = self._val(pivot)
        return tuple(c if i < v else 0 for i, c in enumerate(x))

    def _map_to(self, target):
        if target.p != self.p:
            return None
        if isinstance(target, _Truncated):   # drop the orders from target.n on
            return operator.itemgetter(slice(target.n)) if target.n <= self.n else None
        return operator.itemgetter(0) if target.is_field else None   # F_p

    # -- row kernels of elimination ------------------------------------------

    def _terms(self, c):
        return [(i, ci, self._ranges[i]) for i, ci in enumerate(c) if ci]

    def _fma(self, x, terms, y):
        """x + c*y for a multiplier c unpacked by _terms."""
        out = list(x)
        for i, ci, js in terms:
            for j in js:
                out[i + j] += ci * y[j]
        p = self.p
        return tuple([v % p for v in out])

    def row_axpy(self, dst, src, c):
        z, fma, tc = self.zero, self._fma, self._terms(c)
        return [x if y == z else fma(x, tc, y) for x, y in zip(dst, src)]

    def dict_axpy(self, row, items, c):
        z, fma, tc, get = self.zero, self._fma, self._terms(c), row.get
        for k, y in items:
            x = fma(get(k, z), tc, y)
            if x != z:
                row[k] = x
            else:
                row.pop(k, None)


# Feps:p:n up to this many elements runs mul, row_axpy and dict_axpy on tables:
# the full tables take 0.09 MB and about 13 ms to build at 25 (Feps:5:2),
# 0.15 MB at 27 and 0.24 MB at 32.
_FEPS_TABLE_SIZE = 25
_TABLE_KERNELS = ("mul", "row_axpy", "dict_axpy")


# One entry per Feps ring built; the largest working set measured, on a
# workload pass or a tier-1 test, is 26 rings (test_feps_tables).
@functools.lru_cache(maxsize=128)
def _table_kernels(ring: _Truncated) -> dict:
    """The _TABLE_KERNELS of a small Feps ring, on tables of its products
    prod[c][y] and sums total[x][z], values shared with elements(); none
    for a larger ring."""
    if ring.size > _FEPS_TABLE_SIZE:
        return {}
    elements = {x: x for x in ring.elements()}
    prod = {c: {y: elements[_Truncated.mul(ring, c, y)] for y in elements} for c in elements}
    total = {x: {z: elements[ring.add(x, z)] for z in elements} for x in elements}
    zero = ring.zero

    def mul(a, b):
        return prod[a][b]

    def row_axpy(dst, src, c):
        pc = prod[c]
        return [x if y == zero else total[x][pc[y]] for x, y in zip(dst, src)]

    zero_element = elements[zero]   # the zero the tables hand out

    def dict_axpy(row, items, c):
        pc, get = prod[c], row.get
        for k, y in items:
            x = total[get(k, zero)][pc[y]]
            if x is not zero_element:
                row[k] = x
            else:
                row.pop(k, None)
    return dict(zip(_TABLE_KERNELS, (mul, row_axpy, dict_axpy)))


# kind -> (the class of its rings, the parameters its spec takes)
_KINDS = {
    "Z": (_Integers, ()),
    "Q": (_Rationals, ()),
    "F": (_Modular, ("p",)),
    "Zmod": (_Modular, ("m",)),
    "Feps": (_Truncated, ("p", "n")),
}

ZZ = RingSpec("Z")
QQ = RingSpec("Q")


def GF(p: int) -> RingSpec:
    return RingSpec("F", p=p)


def Zmod(m: int) -> RingSpec:
    return RingSpec("Zmod", m=m)


def Feps(p: int, n: int) -> RingSpec:
    return RingSpec("Feps", p=p, n=n)


# ---------------------------------------------------------------------------
# matrices


def _check_shape(rows, cols):
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise DimensionMismatch(
            "matrix dimensions must be nonnegative ints, got %r x %r" % (rows, cols))


def _check_ring(ring) -> None:
    """Refuse with ParseError what is not a RingSpec: the one check of
    every ring an entry point is handed, where it enters."""
    if not isinstance(ring, RingSpec):
        raise ParseError("ring expected, got %r" % (ring,))


def _items(values, what: str) -> tuple:
    """values as a tuple, or ParseError naming what was expected when they
    are not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise ParseError("%s expected, got %r" % (what, values)) from None


def _check_matrix(mat, ring: Optional[RingSpec] = None) -> None:
    """Refuse with ParseError what is not an ExactMatrix, and with
    IncompatibleRing, given a ring, a matrix over another: the one check
    of every matrix an entry point is handed, where it enters."""
    if not isinstance(mat, ExactMatrix):
        raise ParseError("matrix expected, got %r" % (mat,))
    if ring is not None and ring != mat.ring:
        raise IncompatibleRing("mixed rings %s and %s" % (ring, mat.ring))


class ExactMatrix(Record):
    """Immutable matrix over a RingSpec.  The constructor canonicalises
    outside input; code inside the package builds canonical entries with _of."""

    _fields = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: RingSpec, rows: int, cols: int, entries: tuple = ()):
        self.__dict__.update(ring=ring, rows=rows, cols=cols, entries=entries)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.ring, self.rows, self.cols, self.entries)
                    == (other.ring, other.rows, other.cols, other.entries))
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __post_init__(self):
        _check_ring(self.ring)
        _check_shape(self.rows, self.cols)
        data = _items(self.entries, "rows")
        if len(data) != self.rows:
            raise DimensionMismatch(
                "expected %d rows, got %d" % (self.rows, len(data)))
        canon = self.ring.canon
        fixed = []
        for row in data:
            row = tuple(canon(x) for x in _items(row, "row"))
            if len(row) != self.cols:
                raise DimensionMismatch(
                    "expected %d columns, got %d" % (self.cols, len(row)))
            fixed.append(row)
        object.__setattr__(self, "entries", tuple(fixed))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _of(ring: RingSpec, rows: int, cols: int, entries: tuple) -> "ExactMatrix":
        # Trusted, checking nothing: entries must be a tuple of `rows` tuples
        # of `cols` canonical elements, from ring arithmetic or copied from
        # matrices over the same ring.
        mat = object.__new__(ExactMatrix)
        mat.__dict__.update(ring=ring, rows=rows, cols=cols, entries=entries)
        return mat

    @staticmethod
    def from_rows(ring: RingSpec, rows: Sequence[Sequence]) -> "ExactMatrix":
        rows = [_items(r, "row") for r in _items(rows, "rows")]
        ncols = len(rows[0]) if rows else 0
        return ExactMatrix(ring, len(rows), ncols, tuple(rows))

    @staticmethod
    def zeros(ring: RingSpec, rows: int, cols: int) -> "ExactMatrix":
        _check_ring(ring)
        _check_shape(rows, cols)
        z = ring.zero
        return ExactMatrix._of(ring, rows, cols, ((z,) * cols,) * rows)

    @staticmethod
    def identity(ring: RingSpec, size: int) -> "ExactMatrix":
        _check_ring(ring)
        _check_shape(size, size)
        z, o = ring.zero, ring.one
        return ExactMatrix._of(
            ring, size, size,
            tuple(tuple(o if i == j else z for j in range(size)) for i in range(size)))

    # -- basic operations ----------------------------------------------------

    def _check_same_shape(self, other: "ExactMatrix"):
        _check_matrix(other, self.ring)
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape %dx%d vs %dx%d" % (
                self.rows, self.cols, other.rows, other.cols))

    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        add = self.ring.add
        data = tuple(tuple(add(a, b) for a, b in zip(ra, rb))
                     for ra, rb in zip(self.entries, other.entries))
        return ExactMatrix._of(self.ring, self.rows, self.cols, data)

    def sub(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return self.add(other.neg())

    def neg(self) -> "ExactMatrix":
        neg = self.ring.neg
        data = tuple(tuple(neg(a) for a in row) for row in self.entries)
        return ExactMatrix._of(self.ring, self.rows, self.cols, data)

    def scale(self, c) -> "ExactMatrix":
        c = self.ring.canon(c)
        mul = self.ring.mul
        data = tuple(tuple(mul(c, a) for a in row) for row in self.entries)
        return ExactMatrix._of(self.ring, self.rows, self.cols, data)

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        _check_matrix(other, self.ring)
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions %d vs %d" % (self.cols, other.rows))
        ring, zero, nonzero = self.ring, self.ring.zero, self.ring.nonzero
        data = []
        for row in self.entries:   # the sum of x * (row k of other), x = row[k] nonzero
            acc = [zero] * other.cols
            for x, other_row in zip(row, other.entries):
                if nonzero(x):
                    acc = ring.row_axpy(acc, other_row, x)
            data.append(tuple(acc))
        return ExactMatrix._of(ring, self.rows, other.cols, tuple(data))

    def transpose(self) -> "ExactMatrix":
        if self.rows and self.cols:
            data = tuple(zip(*self.entries))
        else:
            # degenerate shapes still need the right number of empty rows
            data = tuple(() for _ in range(self.cols))
        return ExactMatrix._of(self.ring, self.cols, self.rows, data)

    def hstack(self, *others: "ExactMatrix") -> "ExactMatrix":
        """self and the others side by side, in one copy."""
        for other in others:
            _check_matrix(other, self.ring)
            if self.rows != other.rows:
                raise DimensionMismatch("row counts %d vs %d" % (self.rows, other.rows))
        data = tuple(sum(parts, ()) for parts in zip(self.entries, *(m.entries for m in others)))
        return ExactMatrix._of(self.ring, self.rows, self.cols + sum(m.cols for m in others), data)

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        _check_matrix(other, self.ring)
        if self.cols != other.cols:
            raise DimensionMismatch("column counts %d vs %d" % (self.cols, other.cols))
        return ExactMatrix._of(self.ring, self.rows + other.rows, self.cols,
                               self.entries + other.entries)

    def is_zero(self) -> bool:
        z = self.ring.is_zero
        return all(z(x) for row in self.entries for x in row)

    def to_json(self) -> list:
        conv = self.ring.entry_to_json
        return [conv(x) for row in self.entries for x in row]


def block_diag(ring: RingSpec, blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    _check_ring(ring)
    blocks = _items(blocks, "matrices")
    for b in blocks:
        _check_matrix(b, ring)
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    z = ring.zero
    data = [[z] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            data[r0 + i][c0:c0 + b.cols] = b.entries[i]
        r0 += b.rows
        c0 += b.cols
    return ExactMatrix._of(ring, rows, cols, tuple(tuple(r) for r in data))


# ---------------------------------------------------------------------------
# two-sided diagonalisation, recorded as row and column operations



class _Worksheet:
    """A matrix N being diagonalised, and the operations that did it.

    N = left * M * right, where row_ops holds the row operations E_1 ... E_K
    in order, so left = E_K ... E_1, and col_ops the column operations
    F_1 ... F_L, so right = F_1 ... F_L.  Each operation is stored as the
    row operation that builds its own matrix from the identity, so a
    column operation col_j += c*col_k is stored as row_k += c*row_j, and
    ``_replay`` replays either list on the rows of any matrix X:

    * left * X = _replay(ring, X, row_ops)
    * left^-1 * X = _replay(ring, X, reversed(row_ops), True)
    * right * X = _replay(ring, X, reversed(col_ops))
    * right^-1 * X = _replay(ring, X, col_ops, True)

    No transform is built unless a caller replays one, and callers replay
    only what they read, when they read it: over Z the transforms' entries
    can run to many thousands of digits while N stays small.  A replay
    needs the ring and one operation list, not the sheet, so a caller that
    defers one keeps no N, unless the sheet is paused (diagonalize) and the
    caller keeps it to resume.

    The sheet starts from M's nonzeros as dict rows (column -> entry) and
    diagonalize first eliminates every unit pivot on them, with no gcd
    step: for each column in turn, the unit candidate with the fewest
    nonzeros, the lowest index on ties, as _forward picks, and sweeps
    again until no unit is left, since a column can gain one after its
    turn.  A column index of the rows finds the rows a step updates,
    and each update visits only the pivot row's nonzeros.  The step's
    column operations only zero the pivot row's other entries, so they are
    not applied, and are recorded as one record per pivot a at column c,
    [c, a, the pivot row's (column, entry) items], not one operation per
    entry; -1/a is computed, and appended to it, only when some row has an
    entry to clear in column c.  Swaps then put pivot t at (t, t), scaled to
    its canonical generator, which is recorded as one record of the
    pivots, [pivots], so N = I_t (+) S.  Reading row_ops or col_ops
    expands that list's records in place into the operations they stand
    for (_expanded), at their positions, once; a caller that defers a side holds the list itself,
    records and all, and expands it when it replays.  Only the unit-free
    residual S is made dense, as n.  Every sheet pauses there, and owns its
    pause: resume() diagonalises S with the dense steps below, recording
    their operations shifted by t, and diagonal() resumes the sheet on
    every ring but Z, whose factors it reads off S without.  Every dense
    operation runs through the ring's two row kernels: a row operation on
    N, and a column operation as the row operation of its transpose on N
    transposed (_pass), save a column swap and the column step that only
    zeroes an entry (_clear_position).

    An operation is (i, j), swapping rows i and j; (i, j, c), adding c times
    row j to row i, which for i == j scales row i by the unit 1 + c; or
    (i, j, s, t, u, v), replacing rows i and j by s*row_i + t*row_j and
    u*row_i + v*row_j, with s*v - t*u a unit.
    """

    def __init__(self, ring: RingSpec, rows: list, cols: int):
        # n is M's nonzeros as dict rows (rows, consumed) until diagonalize,
        # and the dense residual after it
        self.ring, self.rows, self.cols, self.n = ring, len(rows), cols, rows
        self.t = 0           # the unit pivots, at (0, 0) ... (t-1, t-1)
        self.paused = None   # t while the residual waits for resume
        self._row_ops, self._col_ops = [], []   # with the unit phase's records

    # a read of either list, as of any replay, expands the records (_expanded)
    row_ops = property(lambda self: _expanded(self.ring, self._row_ops))
    col_ops = property(lambda self: _expanded(self.ring, self._col_ops))

    _unit_axpy = None   # the unit phase's row step, if not the ring's dict_axpy

    def diagonalize(self):
        """The unit phase, where every sheet pauses.  Afterwards N = I_t (+)
        S, S unit-free and dense in n, and the sheet is paused at step t
        unless S is zero."""
        ring, rows, cols = self.ring, self.n, self.cols
        zero, is_unit, mul = ring.zero, ring.is_unit, ring.mul
        axpy = self._unit_axpy or ring.dict_axpy
        # col_rows[k] holds every row not yet a pivot with an entry at k,
        # and may hold rows whose entry there cancelled: a step adds the
        # rows it updated to the columns of the pivot row's entries
        col_rows = [set() for _ in range(cols)]
        for i, row in enumerate(rows):
            for k in row:
                col_rows[k].add(i)
        row_ops, col_ops, pivot_rows, pivot_cols, pivots = self._row_ops, self._col_ops, [], [], []
        # a sweep scans the columns a step changed since their last scan, the
        # others having no unit; it ends when there are none.  The re-sweeps
        # stay on measurement: over five seed-1 passes each of the
        # homext-sweep and lattice-orbit benchmarks they took an extra unit
        # pivot in 4 of the 85 distinct Z sheets, and with one sweep alone
        # the Z factors of homext-sweep pairs ran about 3-8% slower
        # in-process (the dense steps then take those pivots).
        dirty = [True] * cols
        while True in dirty:
            for c, cands in enumerate(col_rows):
                if not dirty[c]:
                    continue
                dirty[c] = False
                best = None   # (nonzeros, index) of the unit candidate
                for i in cands:
                    row = rows[i]
                    if is_unit(row.get(c, zero)) and (best is None or (len(row), i) < best):
                        best = len(row), i
                if best is None:
                    continue
                r = best[1]
                cands.discard(r)
                items = rows[r]
                rows[r] = {}   # a pivot row is a candidate no more
                a = items.pop(c)
                pivot_rows.append(r)
                pivot_cols.append(c)
                pivots.append(a)
                items = list(items.items())
                rec = [c, a, items]   # the pivot row's one record
                col_ops.append(rec)
                updated, neg_inv = [], None
                for j in cands:
                    row = rows[j]
                    b = row.pop(c, None)
                    if b is not None:
                        if neg_inv is None:   # -1/a, once some row has an entry to clear
                            neg_inv = ring.neg(ring.inv(a))
                            rec.append(neg_inv)
                        f = mul(neg_inv, b)
                        row_ops.append((j, r, f))
                        axpy(row, items, f)
                        updated.append(j)
                if updated:
                    for k, _ in items:
                        col_rows[k].update(updated)
                        dirty[k] = True
                cands.clear()
        t = self.t = len(pivots)
        res_rows = _moves(self.rows, pivot_rows, row_ops)[t:]
        res_cols = _moves(cols, pivot_cols, col_ops)[t:]
        row_ops.append([pivots])   # the record of their scaling to canonical generators
        self.n = [[rows[i].get(k, zero) for k in res_cols] for i in res_rows]
        self.paused = t if any(rows[i] for i in res_rows) else None

    def _row(self, op):
        """N <- E N for the row operation op, recorded."""
        self._row_ops.append(op)
        _replay(self.ring, self.n, (op,))

    # -- the dense steps, on the residual n ----------------------------------
    # Entries are canonical, so an entry is zero exactly when it equals
    # ring.zero: one comparison, where ring.is_zero would be a call.

    def _find_pivot(self, s):
        ring = self.ring
        zero = ring.zero
        best = None
        best_size = None
        for i in range(s, len(self.n)):
            row = self.n[i]
            for j in range(s, len(row)):
                x = row[j]
                if x == zero:
                    continue
                size = ring.pivot_size(x)
                if size == 1:
                    return i, j
                if best_size is None or size < best_size:
                    best, best_size = (i, j), size
        return best

    def _divisibility_size(self, x):
        """pivot_size, with zero above every nonzero element."""
        return math.inf if x == self.ring.zero else self.ring.pivot_size(x)

    def _pass(self, m, s, ops, transposed):
        """Clear column s of m below row s by row steps, recorded in ops:
        row_i -= q*row_s where m[s][s] divides the entry, q its quotient,
        else a gcdex step on rows s and i.  m is N, or N transposed for a
        column pass, whose row step is the column operation of its
        transpose on N.  Returns whether a gcdex step ran."""
        ring, gcdex_step = self.ring, False
        zero = ring.zero
        for i in range(s + 1, len(m)):
            b = m[i][s]
            if b == zero:
                continue
            q = ring.solve_scalar(m[s][s], b)
            if q is not None:
                op = (i, s, ring.neg(q))
                ops.append((s, i, op[2]) if transposed else op)
            else:
                _, sx, tx, ux, vx = ring.gcdex(m[s][s], b)
                op = (s, i, sx, tx, ux, vx)
                ops.append((s, i, sx, ux, tx, vx) if transposed else op)
                gcdex_step = True
            _replay(ring, m, (op,))
        return gcdex_step

    def _clear_position(self, s):
        """Clear row and column s of n but for the pivot n[s][s]: a row
        pass, then the column pass as a row pass on N transposed."""
        ring, n = self.ring, self.n
        zero, size = ring.zero, self._divisibility_size(n[s][s])
        while True:
            gcdex_step = self._pass(n, s, self._row_ops, False)
            # The row pass leaves column s as n[s][s]*e_s, so col_j += c*col_s
            # only zeroes n[s][j], until a gcdex column step mixes in col_j:
            # N is transposed only then, for the rest of the column pass.
            row = n[s]
            for j in range(s + 1, len(row)):
                b = row[j]
                if b == zero:
                    continue
                q = ring.solve_scalar(row[s], b)
                if q is None:   # the pass starts with a gcdex step at j
                    nt = list(map(list, zip(*n)))
                    gcdex_step = self._pass(nt, s, self._col_ops, True)
                    n[:] = map(list, zip(*nt))
                    break
                self._col_ops.append((s, j, ring.neg(q)))
                row[j] = zero
            # A pass of solve_scalar steps alone leaves row and column s
            # clear: a row step changes no entry of row s, and a column step
            # no entry of column s.  A gcdex step can leave them unclear, so
            # another pass follows; each gcdex step replaces the pivot a by a
            # gcd of a and an entry a does not divide, which strictly shrinks
            # its size.  That bounds the number of passes.
            if not gcdex_step:
                return
            new_size = self._divisibility_size(n[s][s])
            if new_size >= size:
                raise TheoremViolation(
                    "gcdex step did not shrink pivot %r at position %d over %s"
                    % (n[s][s], s, ring))
            size = new_size

    def resume(self):
        """Diagonalise the residual of a paused sheet: its pivots, then the
        divisibility chain with zeros sinking to the end, then canonical
        generators on its diagonal, each operation recorded shifted by t."""
        if self.paused is None:
            return
        self.paused = None
        ring, n, t = self.ring, self.n, self.t
        done = self._row_ops, self._col_ops
        self._row_ops, self._col_ops = [], []
        limit = min(len(n), self.cols - t)
        for s in range(limit):
            piv = self._find_pivot(s)
            if piv is None:
                break
            if piv[0] != s:
                self._row((s, piv[0]))
            if piv[1] != s:   # a column swap
                j = piv[1]
                self._col_ops.append((s, j))
                for row in n:
                    row[s], row[j] = row[j], row[s]
            self._clear_position(s)
        # divisibility chain, zeros sinking to the end
        changed = True
        while changed:
            changed = False
            for i in range(limit - 1):
                a, b = n[i][i], n[i + 1][i + 1]
                if ring.divides(a, b):
                    continue
                self._row((i, i + 1, ring.one))
                self._clear_position(i)
                changed = True
        # canonical generators on the diagonal (a zero's unit is one)
        for i in range(limit):
            u = ring.unit_to_canonical(n[i][i])
            if u != ring.one:
                self._row((i, i, ring.sub(u, ring.one)))
        for ops, own in zip(done, (self._row_ops, self._col_ops)):
            ops += [(op[0] + t, op[1] + t) + op[2:] for op in own] if t else own
        self._row_ops, self._col_ops = done

    def diagonal(self, length: int) -> list:
        """The canonical diagonal, padded with zeros to the given length.

        The sheet owns its pause: over every ring but Z this resumes a
        paused sheet and reads its diagonal.  A paused sheet over Z stays
        paused, and its residual S is of minors of M, since
        every pivot before it was +-1, while its full diagonalisation blows
        them up.  The last pivot row of the one forward elimination,
        _forward, holds r-minors of S for r = rank S, one nonzero, so their
        gcd g is a nonzero multiple of every nonzero invariant factor of S,
        which _smith_mod reads off S mod g with no worksheet.
        """
        if self.ring.is_finite:
            self.resume()
        n, width = self.n, self.cols - self.t
        if self.paused is None:
            diag = [n[i][i] for i in range(min(len(n), width))]
        else:
            pivot_rows, rows = _forward(self.ring, _nonzeros(n, self.ring), width)[1:]
            diag = _smith_mod(n, math.gcd(*rows[pivot_rows[-1]].values()), len(pivot_rows))
        diag = [self.ring.one] * self.t + diag
        return diag[:length] + [self.ring.zero] * (length - len(diag))

    def matrix(self) -> ExactMatrix:
        """N: the unit pivots' identity block, then the residual."""
        ring, t = self.ring, self.t
        rows = _unit_columns(ring, self.rows, range(t))
        for row, rest in zip(rows, [[ring.zero] * (self.cols - t)] * t + self.n):
            row += rest
        return ExactMatrix._of(ring, self.rows, self.cols, tuple(map(tuple, rows)))


def _expanded(ring: RingSpec, ops: list) -> list:
    """ops, a sheet's row or column operations, with the records its unit
    phase left in them expanded in place into the operations they stand
    for, at their positions: [c, a, items], of a pivot a at column c
    whose row's other entries are items, -1/a appended or not, into
    (c, k, -y/a) for each (k, y);
    [pivots] into (s, s, u - 1) for the pivot a at s, u its
    unit_to_canonical, where a is not one.  The first read expands them,
    and a later one finds none."""
    if list in map(type, ops):
        mul, one = ring.mul, ring.one
        ops[:] = [op for rec in ops for op in (
            (rec,) if type(rec) is tuple
            else [(rec[0], k, mul(f, y)) for f in rec[3:] or [ring.neg(ring.inv(rec[1]))]
                  for k, y in rec[2]] if rec[1:]
            else [(s, s, ring.sub(ring.unit_to_canonical(a), one))
                  for s, a in enumerate(rec[0]) if a != one])]
    return ops


def _moves(size, targets, ops) -> list:
    """Record in ops the swaps that bring index targets[t] to position t,
    for each t in turn; return the order of the indices after them."""
    order = list(range(size))
    for t, i in enumerate(targets):
        p = order.index(i, t)
        if p != t:
            ops.append((t, p))
            order[t], order[p] = i, order[t]
    return order


def _smith_mod(rows: list, g: int, k: int) -> list:
    """The first k invariant factors over Z of the int matrix rows (dense
    lists), given that each divides g: its diagonal over Z/g, a factor
    that reads zero being g (Dumas, Saunders and Villard read integer
    Smith forms so, prime by prime).  It records no operation.  A unit
    pivot mod g is one Schur-complement step, a factor 1.  With no unit
    left, the block's content c divides out: Z/g becomes Z/(g/c), and the
    factors still to read gain c.  At content 1 some entry x is neither a
    unit nor divisible by every prime of g, so g = a*b, a the part of g
    over x's primes, b prime to it, and the two chains multiply (CRT):
    each part has fewer primes, which bounds the recursion."""
    out, h = [], 1   # the factors read, and the content divided out so far
    rows = [[x % g for x in row] for row in rows]
    while len(out) < k and g > 1:
        unit = next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row)
                     if math.gcd(x, g) == 1), None)
        if unit:
            i, j = unit
            piv = rows.pop(i)
            inv = pow(piv.pop(j), -1, g)
            for row in rows:
                f = row.pop(j) * inv % g
                if f:
                    row[:] = [(x - f * y) % g for x, y in zip(row, piv)]
            out.append(h)
            continue
        c = math.gcd(g, *itertools.chain(*rows))
        if c > 1:
            g, h, rows = g // c, h * c, [[x // c for x in row] for row in rows]
            continue
        parts = (math.gcd(g, pow(x, g.bit_length(), g)) for x in itertools.chain(*rows))
        a, rest = next(a for a in parts if 1 < a < g), k - len(out)
        return out + [h * u * v for u, v in zip(_smith_mod(rows, a, rest),
                                                _smith_mod(rows, g // a, rest))]
    return out + [h] * (k - len(out))


def _diagonal_sheet(ring: RingSpec, rows: list, cols: int) -> _Worksheet:
    """The matrix of rows, dicts from column to nonzero entry (consumed),
    with cols columns, diagonalised in full, its operations recorded."""
    ws = _Worksheet(ring, rows, cols)
    ws.diagonalize()
    ws.resume()
    return ws


def _replay(ring: RingSpec, x, ops, inverse=False):
    """Do the operations ops in order, each inverted if inverse, on the
    rows of x (a list of row lists) in place; return x."""
    for op in ops:
        if len(op) == 2:
            i, j = op
            x[i], x[j] = x[j], x[i]
        elif len(op) == 3:
            i, j, c = op
            if inverse:
                c = (ring.sub(ring.inv(ring.add(ring.one, c)), ring.one)
                     if i == j else ring.neg(c))
            x[i] = ring.row_axpy(x[i], x[j], c)
        else:
            i, j, s, t, u, v = op
            if inverse:
                mul = ring.mul
                dinv = ring.inv(ring.sub(mul(s, v), mul(t, u)))
                s, t, u, v = (mul(dinv, v), ring.neg(mul(dinv, t)),
                              ring.neg(mul(dinv, u)), mul(dinv, s))
            x[i], x[j] = ring.row_comb(x[i], x[j], s, t, u, v)
    return x


def _unit_columns(ring: RingSpec, size, picks) -> list:
    """The rows of the size-row matrix whose columns are e_p (p in picks).
    Every read of a sheet's vectors or transforms starts here, so this
    charges the cells it fills (_check_read)."""
    _check_read(len(picks), size)
    zero, one = ring.zero, ring.one
    return [[one if p == r else zero for p in picks] for r in range(size)]


def _replayed(ring: RingSpec, size, ops, picks, inverse=False) -> list:
    """Columns picks of the transform the operations ops build from the
    size x size identity (see _Worksheet), as tuples: ops replayed, each
    inverted if inverse, on just those columns of the identity."""
    return list(zip(*_replay(ring, _unit_columns(ring, size, picks), ops, inverse)))


def _field_rref(a: ExactMatrix) -> tuple:
    """The pivot columns and the nonzero rows of the reduced row echelon
    form of a over Q or F_p, from one _field_reduce."""
    pivot_cols, _, reduced = _field_reduce(a)
    if a.ring.p:   # the pivots are 1 already
        return pivot_cols, reduced
    zero = a.ring.zero
    return pivot_cols, [[Fraction(x, row[c]) if x else zero for x in row]
                        for c, row in zip(pivot_cols, reduced)]


# ---------------------------------------------------------------------------
# public normal-form API


class NormalFormResult(Record):
    """Canonical form nf = left * input * right with invertible transforms."""

    _fields = ("nf", "left", "right", "kind", "left_inverse", "right_inverse")

    def __init__(self, nf: ExactMatrix, left: ExactMatrix, right: ExactMatrix, kind: str,
                 left_inverse: ExactMatrix, right_inverse: ExactMatrix):
        self.__dict__.update(nf=nf, left=left, right=right, kind=kind,
                             left_inverse=left_inverse, right_inverse=right_inverse)


def normal_form(mat: ExactMatrix) -> NormalFormResult:
    """Canonical two-sided form over the matrix ring.

    Over Q and F_p this is the reduced row echelon form (kind
    "ReducedEchelon", right transform the identity), read off the reduced
    row echelon form R = left * [mat | I] of one row reduction: left is the
    identity block of R, so it is canonical too, and left^-1 is the columns
    of [mat | I] at R's pivots, since R has the identity there.  Over Z it
    is the divisibility-chain diagonal with nonnegative entries (kind
    "Smith").  Over Z/m and the truncated rings it is the divisibility-chain
    diagonal with canonical ideal generators (kind "Howell").  Over these
    three the transforms are the diagonalisation's operations replayed on
    identities.
    """
    _check_matrix(mat)
    ring = mat.ring
    if ring.is_field:
        k = mat.cols
        # (rows + cols)^2 cells cover [mat | I] and the cols x cols right transform
        _check_read(mat.rows + k, mat.rows + k)
        aug = mat.hstack(ExactMatrix.identity(ring, mat.rows))
        pivots, rows = _field_rref(aug)
        ident = ExactMatrix.identity(ring, k)
        return NormalFormResult(
            ExactMatrix._of(ring, mat.rows, k, tuple(tuple(r[:k]) for r in rows)),
            ExactMatrix._of(ring, mat.rows, mat.rows, tuple(tuple(r[k:]) for r in rows)),
            ident, "ReducedEchelon",
            ExactMatrix._of(ring, mat.rows, mat.rows,
                            tuple(tuple(r[c] for c in pivots) for r in aug.entries)),
            ident)
    ws = _diagonal_sheet(ring, _nonzeros(mat.entries, ring), mat.cols)

    def replayed(size, ops, inverse=False):
        rows = _replay(ring, _unit_columns(ring, size, range(size)), ops, inverse)
        return ExactMatrix._of(ring, size, size, tuple(map(tuple, rows)))

    kind = "Smith" if ring.is_domain else "Howell"
    return NormalFormResult(
        ws.matrix(), replayed(mat.rows, ws.row_ops), replayed(mat.cols, reversed(ws.col_ops)),
        kind, replayed(mat.rows, reversed(ws.row_ops), True), replayed(mat.cols, ws.col_ops, True))


def solve(a: ExactMatrix, b: ExactMatrix) -> Optional[ExactMatrix]:
    """Some X with a*X = b, or None when the system is unsolvable.

    Over Q and F_p X is read off the reduced row echelon form of [a | b],
    with zero at every non-pivot column of a; the system is unsolvable
    exactly when a pivot falls in b.  Over the other rings a sheet
    diagonalises a, and each diagonal entry solves its row of the
    transformed b by ring.solve_scalar alone: a zero pivot solves a zero
    right-hand side, to zero, and nothing else.  The diagonal's rows past
    a.cols are such zero padding.  The a.cols x b.cols block the sheet
    fills is charged first (_check_read); over Q and F_p the rows of X
    that no pivot sets share one zero row.
    """
    _check_matrix(a)
    _check_matrix(b, a.ring)
    if a.rows != b.rows:
        raise DimensionMismatch("row counts %d vs %d" % (a.rows, b.rows))
    ring = a.ring
    if ring.is_field:
        pivots, rows = _field_rref(a.hstack(b))
        if pivots and pivots[-1] >= a.cols:
            return None
        x = [(ring.zero,) * b.cols] * a.cols
        for c, row in zip(pivots, rows):
            x[c] = tuple(row[a.cols:])
        return ExactMatrix._of(ring, a.cols, b.cols, tuple(x))
    ws = _diagonal_sheet(ring, _nonzeros(a.entries, ring), a.cols)
    c = _replay(ring, [list(row) for row in b.entries], ws.row_ops)
    _check_read(a.cols, b.cols)
    y = [[ring.zero] * b.cols for _ in range(a.cols)]
    for i, d in enumerate(ws.diagonal(a.rows)):
        for jc in range(b.cols):
            val = ring.solve_scalar(d, c[i][jc])
            if val is None:
                return None
            if i < a.cols:   # past a.cols, d is padding and val is zero
                y[i][jc] = val
    x = _replay(ring, y, reversed(ws.col_ops))
    return ExactMatrix._of(ring, a.cols, b.cols, tuple(tuple(r) for r in x))


def is_invertible(mat: ExactMatrix) -> bool:
    """Square with a unit determinant, decided on mat's nonzeros
    (_nonzeros) by the one invertibility check, _invertible."""
    _check_matrix(mat)
    return _invertible(mat.ring, _nonzeros(mat.entries, mat.ring), mat.cols)


def _invertible(ring: RingSpec, rows: list, cols: int, first: int = 0) -> bool:
    """Whether dict rows (consumed) on the columns first..cols-1 are a
    square matrix with a unit determinant.

    First the singleton step of sparse direct solvers: a row whose one
    entry u, at column c, is a unit gives det = +-u * det(the rest without
    row and column c), on any commutative ring, so it is peeled and c
    dropped from every other row, which may leave another singleton.  A
    singleton that is not a unit, or an emptied row, makes det a non-unit
    multiple (a product is a unit only if each factor is).  What is left
    goes to the one forward elimination, _forward: invertible when it has
    full rank, mod p when ring.p is nonzero (Nakayama over Feps), else when
    is_unit of its last pivot, +-det, holds.
    """
    if len(rows) != cols - first:
        return False
    queue = [i for i, row in enumerate(rows) if len(row) < 2]
    if queue:
        by_col = [[] for _ in range(cols)]
        for i, row in enumerate(rows):
            for k in row:
                by_col[k].append(i)
        while queue:
            i = queue.pop()
            if not rows[i]:
                return False
            c, u = rows[i].popitem()   # row i is done, and left empty
            if not ring.is_unit(u):
                return False
            for j in by_col[c]:
                if j != i:
                    del rows[j][c]
                    if len(rows[j]) == 1:   # an emptied row is queued already
                        queue.append(j)
        rows = [row for row in rows if row]
        if len(set().union(*rows)) < len(rows):   # a zero column
            return False
    if not rows:
        return True
    pivot_cols, pivot_rows, ints = _forward(ring, rows, cols)
    return len(pivot_rows) == len(rows) and (
        ring.p != 0 or ring.is_unit(ints[pivot_rows[-1]][pivot_cols[-1]]))


def _forward(ring: RingSpec, rows: list, cols: int) -> tuple:
    """The one forward elimination, with no transform, of rows that are
    dicts from column to nonzero entry.

    Returns the pivot columns, the pivot rows' indices and the int rows,
    and no verdict: _invertible reads its own off them.  It runs on
    ring._forward_ints(rows), the first contract of RingSpec: mod p when
    ring.p is nonzero (over F_p, and over Feps on the constant terms),
    each pivot row scaled to pivot 1, else Bareiss (over Z, Q on rows
    scaled by the lcm of their denominators, and Z/m on least absolute
    residues).  Only rows not yet pivots are
    updated, and none moves; a column's pivot is the candidate with the
    fewest nonzeros, the lowest index on ties.  A row a step skips (zero in
    its column) keeps the stamp of its last update, and the next step that
    touches or picks it folds in the skipped exact rescaling.  So each pivot
    row ends fraction-free, of minors, and the last pivot is the leading
    minor of the pivot rows and columns: +-det at full square rank.
    """
    p, ints = ring.p, ring._forward_ints(rows)   # p is 0 for Z, Q and Z/m
    col_rows = [set() for _ in range(cols)]   # the rows not yet pivots, by column
    for i, row in enumerate(ints):
        for k in row:
            col_rows[k].add(i)
    pivot_cols, pivot_rows, stamp, den = [], [], [1] * len(ints), 1
    for c in range(cols):
        cands = col_rows[c]
        if not cands:
            continue
        r = min([(len(ints[i]), i) for i in cands])[1]
        pivot_cols.append(c)
        pivot_rows.append(r)
        piv = ints[r]
        for k in piv:   # r leaves the index, and cands
            col_rows[k].discard(r)
        if p and piv[c] != 1:
            inv = pow(piv[c], -1, p)
            piv = ints[r] = {k: x * inv % p for k, x in piv.items()}
        elif not p:
            if stamp[r] != den:
                piv = ints[r] = {k: x * den // stamp[r] for k, x in piv.items()}
            den = piv[c]
        rest = [(k, y) for k, y in piv.items() if k != c]
        for j in cands:
            row, f = ints[j], ints[j].pop(c)
            if p:
                for k, y in rest:
                    x = (row.get(k, 0) - f * y) % p
                    if x:
                        row[k] = x
                        col_rows[k].add(j)
                    else:
                        del row[k]
                        col_rows[k].discard(j)
                continue
            # Bareiss's (den*t - t[c]*piv) / previous, for the row
            # t = row*previous/s brought up to date, in one pass
            s, stamp[j] = stamp[j], den
            new = {k: x for k, v in row.items() if (x := (den * v - f * piv.get(k, 0)) // s)}
            if len(new) < len(row):   # an entry cancelled
                for k in row.keys() - new.keys():
                    col_rows[k].discard(j)
            for k, y in rest:
                if k not in row:
                    new[k] = -f * y // s
                    col_rows[k].add(j)
            ints[j] = new
    return pivot_cols, pivot_rows, ints


def invert(mat: ExactMatrix) -> ExactMatrix:
    _check_matrix(mat)
    if mat.rows != mat.cols:
        raise DimensionMismatch("only square matrices invert")
    out = solve(mat, ExactMatrix.identity(mat.ring, mat.rows))
    if out is None or not out.mul(mat).sub(ExactMatrix.identity(mat.ring, mat.rows)).is_zero():
        raise IncompatibleRing("matrix is not invertible")
    return out


# ---------------------------------------------------------------------------
# Howell canonicalisation of row spans (principal ideal rings)


def howell_rows(ring: RingSpec, rows: Iterable[Sequence]) -> list[tuple]:
    """Howell-canonical generating rows for the span of the given rows.

    Only meaningful over Z/m and the truncated rings, where row spans
    classify submodules of free modules.  The result is canonical: any two
    generating sets of the same span produce identical output.

    One pass over a queue of rows fills one echelon slot per leading column,
    saturating as it triangulates (Storjohann and Mulders, ESA 1998).  A row
    whose column has a slot is merged into it by a gcdex transform, and the
    other output row, zero in that column, goes back on the queue.  When the
    queue runs dry, the leftmost slot row whose annihilator multiple
    ann_gen(pivot) * row has not been queued yet queues it, unless it is
    zero.  Rows queued from then on lead further right, so that slot row is
    final; a slot row replaced before its turn needs no multiple, since its
    multiple combines the multiple of its replacement and the other output
    row of the merge.  So every span element whose first j entries vanish
    combines the slot rows leading at j or later: the Howell property.  Each
    row that arrives at a column sends at most two rows on to later columns,
    so the pass ends, by induction on the columns.  Last, each pivot becomes
    its canonical associate and the entries above it their residues modulo
    it; this normalised form of a span is unique (Howell, 1986).
    """
    _check_ring(ring)
    if ring.is_domain:
        raise IncompatibleRing("Howell form needs a finite principal ideal ring")
    width = None
    queue = []
    for row in _items(rows, "rows"):
        row = tuple(ring.canon(x) for x in _items(row, "row"))
        width = len(row) if width is None else width
        if len(row) != width:
            raise DimensionMismatch("ragged rows")
        if any(not ring.is_zero(x) for x in row):
            queue.append(list(row))
    if width is None:
        return []
    slots: dict[int, list] = {}
    fresh = set()   # leads of slot rows whose annihilator multiple is not queued yet
    while queue or fresh:
        if not queue:
            lead = min(fresh)
            fresh.remove(lead)
            row = slots[lead]
            ann = ring.ann_gen(row[lead])
            if not ring.is_zero(ann):
                queue.append([ring.mul(ann, x) for x in row])
            continue
        row = queue.pop()
        lead = next((j for j, x in enumerate(row) if ring.nonzero(x)), width)
        if lead == width:
            continue
        if lead in slots:
            other = slots[lead]
            _, s, t, u, v = ring.gcdex(other[lead], row[lead])
            row, rest = ring.row_comb(other, row, s, t, u, v)
            queue.append(rest)
        slots[lead] = row
        fresh.add(lead)
    # normalise pivots and reduce entries above each pivot
    order = sorted(slots)
    out = [slots[lead] for lead in order]
    for idx, row in enumerate(out):
        lead = order[idx]
        u = ring.unit_to_canonical(row[lead])
        if u != ring.one:
            out[idx] = row = [ring.mul(u, x) for x in row]
    for idx in range(len(out)):
        for above in range(idx):
            lead = order[idx]
            piv = out[idx][lead]
            x = out[above][lead]
            target = ring._residue(x, piv)
            diff = ring.sub(x, target)
            q = ring.solve_scalar(piv, diff)
            if q is not None and not ring.is_zero(q):
                out[above] = ring.row_axpy(out[above], out[idx], ring.neg(q))
    return [tuple(r) for r in out]


# ---------------------------------------------------------------------------
# kernels, cokernels, module presentations


# Most cells, object references, one allocation may fill.  Each is charged
# where it is filled: homology._differential_rows charges the Hom complex it
# places, and a read of vectors or of a transform charges what it reads, in
# _unit_columns on a sheet and in _field_hom_ext's readers and normal_form
# over Q and F_p; solve charges its solution block on a sheet.  A decision
# (invariant factors, is_rigid) reads no vector, so it pays for its complex
# alone; that of the Kronecker (30,29) self-pair of the bound-60 orbit is
# charged 3.1 million cells.
_MAX_HOM_CELLS = 2 * 10 ** 7


def _check_read(count: int, length: int, what: str = "%d vectors of %d entries",
                *args) -> None:
    """Refuse with NotComputable to fill count vectors of length entries
    when that is more than _MAX_HOM_CELLS cells; what % args, by default
    what % (count, length), names them, formatted only for a refusal."""
    cells = count * length
    if cells > _MAX_HOM_CELLS:
        raise NotComputable("%s would fill %d cells, above the cap %d"
                            % (what % (args or (count, length)), cells, _MAX_HOM_CELLS))


def _back_substitute(pivot_cols: list, echelon: list, free_cols: list, p: int) -> tuple:
    """Clear _forward's echelon rows above each pivot, at the free
    (non-pivot) columns only, visiting each row's own nonzeros alone.

    Returns (w, d): w[i] lists, at free_cols, d times row i of the reduced
    row echelon form, whose pivot columns hold d at its own pivot and zero
    elsewhere.  Mod p, d is 1.  Over Z, d is the last pivot D and the rows
    come bottom up as R_i = (D*U_i - sum_{k>i} U_i[pc_k]*R_k) / U_i[pc_i],
    exactly: each R_k is of minors (Cramer), so no entry exceeds Hadamard's
    bound and no intermediate one its square.
    """
    d = echelon[-1][pivot_cols[-1]] if echelon and not p else 1
    step = {c: k for k, c in enumerate(pivot_cols)}
    at = {f: t for t, f in enumerate(free_cols)}
    w = [None] * len(echelon)
    for i in range(len(echelon) - 1, -1, -1):
        row, pc = echelon[i], pivot_cols[i]
        acc = [0] * len(free_cols)
        for col, c in row.items():
            t = at.get(col)
            if t is not None:
                acc[t] += c * d
            elif col != pc:
                acc = [x - c * y if y else x for x, y in zip(acc, w[step[col]])]
        w[i] = [x % p for x in acc] if p else [x // row[pc] for x in acc]
    return w, d


def _field_reduce(a: ExactMatrix) -> tuple:
    """Row reduction over Q or F_p with no transform: the one forward
    elimination, _forward, then _back_substitute.  Returns the pivot columns,
    the pivot rows' indices and the reduced rows, d times those of the rref:
    over F_p that form, over Q ints within Hadamard's bound."""
    pivot_cols, pivot_rows, rows = _forward(a.ring, _nonzeros(a.entries, a.ring), a.cols)
    free_cols = sorted(set(range(a.cols)).difference(pivot_cols))
    w, d = _back_substitute(pivot_cols, [rows[r] for r in pivot_rows], free_cols, a.ring.p)
    reduced = [[0] * a.cols for _ in w]
    for row, c, part in zip(reduced, pivot_cols, w):
        row[c] = d
        for f, x in zip(free_cols, part):
            row[f] = x
    return pivot_cols, pivot_rows, reduced


def _nonzeros(rows, ring) -> list:
    """Rows as dicts from column to nonzero entry: most zeros are the
    ring's own, and ring.nonzero finds the rest."""
    zero, nonzero = ring.zero, ring.nonzero
    return [{j: x for j, x in enumerate(row) if x is not zero and nonzero(x)} for row in rows]


def _field_hom_ext(ring: RingSpec, rows: list, cols: int) -> tuple:
    """_hom_ext_data over Q or F_p, read off the rank profile of the one
    forward elimination, _forward, of rows.  Every invariant factor is zero.

    The kernel vectors are the reduced kernel basis: one per non-pivot
    column f, with 1 at f and minus the rref's entry at f at each pivot; their
    function keeps the echelon rows and back-substitutes when called.  The
    cokernel vectors are the unit vectors at the rows that are not pivot
    rows: the pivot rows have full rank, so a column that vanishes on them
    vanishes, and these vectors complement the column span.
    """
    p, zero, one, height = ring.p, ring.zero, ring.one, len(rows)
    pivot_cols, pivot_rows, rows = _forward(ring, rows, cols)
    free_cols = sorted(set(range(cols)).difference(pivot_cols))
    ext_rows = sorted(set(range(height)).difference(pivot_rows))
    read_hom = read_ext = list
    if free_cols:
        echelon = [rows[r] for r in pivot_rows]

        def read_hom():
            _check_read(len(free_cols), cols)
            w, d = _back_substitute(pivot_cols, echelon, free_cols, p)
            vecs = []
            for t, f in enumerate(free_cols):
                vec = [zero] * cols
                vec[f] = one
                for pc, part in zip(pivot_cols, w):
                    if part[t]:
                        vec[pc] = -part[t] % p if p else Fraction(-part[t], d)
                vecs.append(tuple(vec))
            return vecs
    if ext_rows:
        def read_ext():
            _check_read(len(ext_rows), height)
            return [tuple(one if k == i else zero for k in range(height)) for i in ext_rows]
    return (ModulePresentation(ring, len(free_cols), (zero,) * len(free_cols)), read_hom,
            ModulePresentation(ring, height, (zero,) * len(ext_rows)), read_ext)


def kernel_data(a: ExactMatrix) -> tuple:
    """Kernel presentation plus generating vectors aligned with its factors.

    The kernel of a map of free modules decomposes as one summand per
    diagonal entry d of the two-sided normal form, namely the annihilator
    ideal of (d), which is cyclic: generated by ann_gen(d) and isomorphic
    to R modulo the annihilator of that generator.  A non-zero-divisor d
    (every nonzero d over a domain) contributes nothing.  The k-th returned
    vector generates the summand of the k-th invariant factor (torsion in
    chain order, then one vector per free summand), matching cokernel_data.
    Both are read off the one elimination of _hom_ext_data, as Hom is.
    Over the fields the vectors are the reduced kernel basis, from one
    forward elimination and its back-substitution; over the other rings
    they are columns of right, replayed once the sheet resumes from its
    pause.  A read of more than _MAX_HOM_CELLS cells is refused with
    NotComputable.
    """
    _check_matrix(a)
    pres, vectors = _hom_ext_data(a.ring, _nonzeros(a.entries, a.ring), a.cols)[:2]
    return pres, vectors()


def kernel_basis(a: ExactMatrix) -> ExactMatrix:
    """Matrix whose columns generate {x : a*x = 0}.

    Over the fields and Z the columns are a basis of the kernel (free).
    Over Z/m and the truncated rings they are the Howell-canonical
    generating set of the kernel submodule.
    """
    _, gens = kernel_data(a)
    ring = a.ring
    if not ring.is_domain:
        gens = howell_rows(ring, gens)
    if not gens:
        return ExactMatrix.zeros(ring, a.cols, 0)
    return ExactMatrix._of(ring, a.cols, len(gens), tuple(zip(*gens)))


class ModulePresentation(Record):
    """A finitely presented module, held as its invariant factors alone:
    the direct sum of the R/(d).  generators counts the generators it was
    presented on: a cokernel's matrix rows, or a kernel's factors.

    invariant_factors lists canonical ideal generators in divisibility
    order with units omitted; a zero stands for a free summand and zeros
    come last.
    """

    _fields = ("ring", "generators", "invariant_factors")

    def __init__(self, ring: RingSpec, generators: int, invariant_factors: tuple):
        self.__dict__.update(ring=ring, generators=generators,
                             invariant_factors=invariant_factors)

    @property
    def is_free(self) -> bool:
        return all(self.ring.is_zero(d) for d in self.invariant_factors)

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if self.ring.is_zero(d))

    @property
    def is_zero(self) -> bool:
        return not self.invariant_factors

    @staticmethod
    def from_invariant_factors(ring: RingSpec, factors: Sequence) -> "ModulePresentation":
        """Presentation of a direct sum of cyclic modules R/(d)."""
        _check_ring(ring)
        diag = [ring.canon(d) for d in _items(factors, "invariant factors")]
        return _hom_ext_data(ring, [{} if ring.is_zero(d) else {i: d} for i, d in enumerate(diag)],
                             len(diag))[2]


def _check_presentation(pres) -> None:
    """Refuse with ParseError what is not a ModulePresentation."""
    if not isinstance(pres, ModulePresentation):
        raise ParseError("module presentation expected, got %r" % (pres,))


def _chain_order(ring: RingSpec, diag: Sequence) -> list:
    """The positions of a canonical diagonal's invariant factors: the
    torsion ones in chain order, then the zeros; units are dropped."""
    return ([i for i, d in enumerate(diag) if not ring.is_zero(d) and not ring.is_unit(d)]
            + [i for i, d in enumerate(diag) if ring.is_zero(d)])


def cokernel(a: ExactMatrix) -> ModulePresentation:
    """Presentation of R^rows / (column span of a), invariant factors canonical."""
    _check_matrix(a)
    return _hom_ext_data(a.ring, _nonzeros(a.entries, a.ring), a.cols)[2]


def cokernel_data(a: ExactMatrix) -> tuple[ModulePresentation, list[tuple]]:
    """Cokernel presentation plus preimage vectors of its generators.

    The k-th returned vector maps onto the k-th listed invariant-factor
    generator of the cokernel under the projection R^rows -> coker: the
    column of left^-1 at that generator's diagonal position.  Both are
    read off the one elimination of _hom_ext_data, as Ext is.  Over the
    fields the vectors are unit vectors, read off one forward elimination.
    A read of more than _MAX_HOM_CELLS cells is refused with NotComputable.
    """
    _check_matrix(a)
    pres, vectors = _hom_ext_data(a.ring, _nonzeros(a.entries, a.ring), a.cols)[2:]
    return pres, vectors()


def cokernel_projection(a: ExactMatrix) -> Optional[ExactMatrix]:
    """Projection matrix onto the cokernel of a when that cokernel is free.

    Returns a (free rank x rows) matrix pi with pi * a = 0 whose rows map
    R^rows onto coker(a), or None when the cokernel has a torsion summand
    and no such free presentation exists.  Hom(coker a, R) is the kernel
    of a transposed, and a free cokernel is its own double dual, so the
    rows of pi are the kernel vectors of a transposed (kernel_data).  a and
    its transpose share their torsion, so the cokernel of a is free exactly
    when that of a transposed is: one elimination of a transposed
    (_hom_ext_data) reads both, and a torsion cokernel reads no vector.  A
    read of more than _MAX_HOM_CELLS cells is refused with NotComputable.
    """
    _check_matrix(a)
    _, vectors, coker = _hom_ext_data(a.ring, _nonzeros(a.transpose().entries, a.ring),
                                      a.rows)[:3]
    if not coker.is_free:
        return None
    rows = vectors()
    return ExactMatrix._of(a.ring, len(rows), a.rows, tuple(rows))


def _hom_ext_data(ring: RingSpec, rows: list, cols: int) -> tuple:
    """The kernel and cokernel presentations of the matrix of rows (consumed)
    with cols columns, from one elimination, each followed by a function
    that returns kernel_data's or cokernel_data's vectors: _field_hom_ext
    over Q and F_p, _sheet_hom_ext elsewhere, on the sheet as it pauses
    after its unit phase (_Worksheet.diagonalize).  Reading its diagonal
    resumes it save over Z, and there it stays paused until a vector is
    read.  It is the one read of cokernel, kernel_data, cokernel_data,
    cokernel_projection, from_invariant_factors and Hom and Ext: the
    input, not the caller, decides how far the sheet runs."""
    if ring.is_field:
        return _field_hom_ext(ring, rows, cols)
    ws = _Worksheet(ring, rows, cols)
    ws.diagonalize()
    return _sheet_hom_ext(ws)


def _sheet_hom_ext(ws: _Worksheet) -> tuple:
    """_hom_ext_data over Z, Z/m and Feps, read off the sheet ws: a matrix
    after its unit phase (_Worksheet), paused there unless it had no
    residual, or diagonalised in full.

    With N = left * a * right diagonal, the kernel of a is right times that
    of N: one cyclic summand per column j, the annihilator of N's entry
    d_j.  It is generated by g_j = ann_gen(d_j) and is R / ann(g_j), so its
    factor is ann_gen(g_j): a unit, dropped, when d_j is a non-zero-divisor,
    and zero, a free summand, when d_j is zero.  Its vector is g_j times
    column j of right.  The cokernel's generators sit at the non-unit
    diagonal positions, their vectors the columns of left^-1 there.  Both
    sides list torsion in chain order, then the free summands.

    The diagonal's first t entries are the unit pivots, an identity block:
    a unit's annihilator is zero and both sides drop units, so ann_gen and
    the chain order run on the positions past it alone.  The diagonal is
    read without building a transform, and each function expands the unit
    phase's records in its own list (_expanded), once, and replays the
    operations on just the wanted columns when called (_replayed).  It
    keeps its own operation list and not N, and nothing for a zero
    module.  Reading the diagonal resumes a paused sheet save
    over Z (_Worksheet.diagonal): there both functions keep the paused
    sheet until one of them is called, and the first call resumes it, so
    the vectors are a full diagonalisation's, and lets it go.
    """
    ring, height, cols, t = ws.ring, ws.rows, ws.cols, ws.t
    diag = ws.diagonal(max(height, cols))[t:]   # past I_t, whose units both sides drop
    gens = [ring.ann_gen(d) for d in diag[:cols - t]]
    hom_diag = [ring.ann_gen(g) for g in gens]
    js, idx = _chain_order(ring, hom_diag), _chain_order(ring, diag[:height - t])
    row_ops, col_ops = ws._row_ops, ws._col_ops
    paused = [ws] if ws.paused is not None else []   # until the first read

    def resume():
        if paused:
            paused.pop().resume()

    read_hom = read_ext = list
    if js:
        def read_hom():
            resume()
            picked = _replayed(ring, cols, reversed(_expanded(ring, col_ops)),
                               [t + j for j in js])
            return [col if ring.is_zero(hom_diag[j]) else tuple(ring.mul(gens[j], x) for x in col)
                    for j, col in zip(js, picked)]
    if idx:
        def read_ext():
            resume()
            return _replayed(ring, height, reversed(_expanded(ring, row_ops)), [t + i for i in idx],
                             True)
    return (ModulePresentation(ring, len(js), tuple(hom_diag[j] for j in js)), read_hom,
            ModulePresentation(ring, height, tuple(diag[i] for i in idx)), read_ext)


def constant_rank(pres: ModulePresentation) -> Optional[int]:
    """Local free rank when the module is projective of constant rank.

    A finitely presented module is projective exactly when it is locally
    free.  Over the principal ideal domains Z, Q and F_p and the local
    rings F_p[e]/(e^n) that means free: every factor is zero or a unit,
    whose summand R/(u) is zero.  Over Z/m a summand R/(d) is R/(g) with
    g = gcd(d, m): free when g = m, zero when g = 1, and otherwise
    projective exactly when gcd(g, m/g) = 1, when it is the summand of R on
    the primes of g.  The torsion g split m into coprime parts by gcds
    alone (factor refinement, Bach, Driscoll & Shallit 1993), each part b
    dividing or coprime to every g, so the rank on b is the free count
    plus the number of g that b divides; no prime of m is needed.  Raises
    NotProjective when a summand is not projective; returns the parts'
    common rank, or None when they differ (possible only over Z/m with
    composite m).
    """
    _check_presentation(pres)
    ring, m, factors = pres.ring, pres.ring.m, pres.invariant_factors
    if not m:
        if any(not ring.is_zero(d) and not ring.is_unit(d) for d in factors):
            raise NotProjective("not free over %s: invariant factors %r" % (ring, list(factors)))
        return pres.free_rank
    free, torsion = 0, []
    for g in (math.gcd(d, m) for d in factors):
        if g == m:
            free += 1
        elif g > 1:
            if math.gcd(g, m // g) != 1:
                raise NotProjective("not projective over %s: the summand R/(%d)" % (ring, g))
            torsion.append(g)
    parts = [m]
    for g in torsion:
        parts = [c for b in parts for c in (math.gcd(b, g), b // math.gcd(b, g)) if c > 1]
    ranks = {free + sum(g % b == 0 for g in torsion) for b in parts}
    return ranks.pop() if len(ranks) == 1 else None


# ---------------------------------------------------------------------------
# ring homomorphisms


def _identity(x):
    return x


class RingHom(Record):
    """The canonical unital homomorphism from source to target.

    The supported ones are the identity; Z -> any ring and F_p ->
    F_p[e]/(e^n), which send an integer to its image; and the onto maps
    Z/m -> Z/m' for m' dividing m, F_p[e]/(e^n) -> F_p and F_p[e]/(e^n) ->
    F_p[e]/(e^k) for k <= n.  Any other pair raises IncompatibleBase.  The
    per-entry map ``apply`` is chosen once, at construction, by the
    source's class.
    """

    _fields = ("source", "target")

    def __init__(self, source: RingSpec, target: RingSpec):
        self.__dict__.update(source=source, target=target)
        self.__post_init__()

    def __post_init__(self):
        s, t = self.source, self.target
        if not isinstance(s, RingSpec) or not isinstance(t, RingSpec):
            raise ParseError("ring hom ends must be RingSpecs, got %r and %r" % (s, t))
        apply = _identity if s == t else s._map_to(t)
        if apply is None:
            raise IncompatibleBase("no canonical hom from %s to %s" % (s, t))
        object.__setattr__(self, "apply", apply)

    @property
    def _onto(self) -> bool:
        """The bijections, and every map out of Z/m or F_p[e]/(e^n)."""
        return self.is_bijective or not self.source.is_domain

    @property
    def has_nilpotent_kernel(self) -> bool:
        """Onto with nonzero nilpotent kernel.

        The rings are finite here, and the kernel of an onto map of finite
        rings is nilpotent exactly when every prime of the source's size s
        divides the target's size t, that is when s divides t^e for e the
        bit length of s, which bounds every exponent in s; no prime of s is
        needed.  For Z/m -> Z/m' that is every prime of m dividing m' (the
        prime-power towers p^k -> p^j, j < k, are the typical case); for
        the truncations it holds whenever the order genuinely drops.
        """
        if not self._onto or self.is_bijective:
            return False
        s = self.source.size
        return pow(self.target.size, s.bit_length(), s) == 0

    @property
    def is_bijective(self) -> bool:
        """The identity, and the maps between finite rings of one size: the
        onto ones, and F_p -> F_p[e]/(e), which is injective."""
        s, t = self.source, self.target
        return s == t or (s.is_finite and s.size == t.size)

    def section(self, x):
        """Canonical preimage of x for the onto maps: the source's canonical
        form of x, or for F_p -> F_p[e]/(e) the canonical map back."""
        if not self._onto:
            raise NotComputable("no canonical section from %s to %s"
                                % (self.source, self.target))
        if self.source.is_domain and self.source != self.target:
            return RingHom(self.target, self.source).apply(x)
        return self.source.canon(x)


def _check_hom(hom, ring: Optional[RingSpec] = None):
    """A RingHom, and with ring given one whose source is ring, else
    refused: the one check of every hom an entry point is handed."""
    if not isinstance(hom, RingHom):
        raise ParseError("ring hom expected, got %r" % (hom,))
    if ring is not None and ring != hom.source:
        raise IncompatibleBase("over %s, hom expects %s" % (ring, hom.source))


def identity_hom(ring: RingSpec) -> RingHom:
    return RingHom(ring, ring)


def canonical_hom(source: RingSpec, target: RingSpec) -> RingHom:
    """The canonical hom between two supported rings, when one exists."""
    return RingHom(source, target)


def apply_hom(hom: RingHom, mat: ExactMatrix) -> ExactMatrix:
    """Entrywise transport of a matrix along a ring hom."""
    _check_matrix(mat)
    _check_hom(hom, mat.ring)
    f = hom.apply   # every per-entry map returns canonical target entries
    data = tuple(tuple(f(x) for x in row) for row in mat.entries)
    return ExactMatrix._of(hom.target, mat.rows, mat.cols, data)


def presentation_base_change(pres: ModulePresentation, hom: RingHom) -> ModulePresentation:
    """Invariant factors of M tensored along the hom, recanonicalised."""
    _check_presentation(pres)
    _check_hom(hom, pres.ring)
    return ModulePresentation(hom.target, pres.generators,
                              _mapped_factors(pres.invariant_factors, hom))


def _mapped_factors(factors: Sequence, hom: RingHom) -> tuple:
    """Invariant factors of a module with these, tensored along the hom:
    the images' canonical generators, units dropped and zeros last."""
    diag = [hom.target.canonical_gen(hom.apply(d)) for d in factors]
    return tuple(diag[i] for i in _chain_order(hom.target, diag))
