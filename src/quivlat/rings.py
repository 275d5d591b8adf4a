"""Coefficient rings, exact matrices over them, and ring homomorphisms.

Supported rings and their element representations:

* ``Z``          -- the integers, plain ``int``
* ``Q``          -- the rationals, ``fractions.Fraction``
* ``F:p``        -- the prime field F_p, ``int`` in ``[0, p)``
* ``Zmod:m``     -- Z/m for any m >= 2, ``int`` in ``[0, m)``
* ``Feps:p:n``   -- F_p[e]/(e^n), a length-``n`` tuple of coefficient ints

All arithmetic is exact.  Intermediate entries of integer reductions can
grow far beyond machine word size, so everything stays on Python ints.

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

Every read of vectors or of a transform, and every dense block a
construction fills, charges the cells it fills against one cap,
_MAX_HOM_CELLS (_check_read), where it fills them.

Elimination over these rings (normal forms, solve, invert, Howell rows,
kernels, cokernels, module presentations and the Hom and Ext reads) is
quivlat.elimination, which imports from here.  This module imports it
only on first use of a public name it defined before elimination was
split off (__getattr__), which resolves to the object elimination defines.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DimensionMismatch,
    IncompatibleBase,
    IncompatibleRing,
    NotComputable,
    ParseError,
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
    two contracts lists, and tests/test_ring_contracts.py pins both; the
    algorithms are quivlat.elimination's:

    1. The forward pass (elimination._forward: the invertibility check
       elimination._invertible, the field reductions, and Hom and Ext over
       Q and F_p) takes dict rows of nonzero entries, which
       elimination._nonzeros and homology._differential_rows build with
       nonzero(x), true exactly when x is not zero.  It asks for p and
       _forward_ints(rows).  When p is nonzero the pass works mod p, on
       the rows' images in the residue field F_p, and a square matrix is
       invertible when it has full rank there: the ring is F_p or local
       over it.  When p is zero the pass is Bareiss on integer rows that
       are the input's up to units (scaled over Q, least absolute residues
       over Z/m), and is_unit(d) of the int d it ends on says whether a
       matrix with determinant +-d is invertible.  Before the pass,
       elimination._invertible asks is_unit of an entry too, the one
       entry of a singleton row, which it peels when it is a unit.
    2. The sheet (elimination._Worksheet, and elimination's solve,
       normal_form, and the kernel, cokernel, Hom and Ext reads over the
       other rings, which read it)
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
    and m (elimination.constant_rank reads Z/m's summands off gcds with m).
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
# the cap on what one allocation fills


# Most cells, object references, one allocation may fill.  Each is charged
# where it is filled: homology._differential_rows charges the Hom complex it
# places, quiver.direct_sum_many each arrow's dense block, and a read of
# vectors or of a transform charges what it reads, in
# elimination._unit_columns on a sheet and in elimination._field_modules'
# readers and elimination.normal_form over Q and F_p; elimination._solve,
# the core of solve and of the splitting sections, charges its solution
# block on a sheet.  A decision (invariant factors, is_rigid) reads no
# vector, so it pays for its complex alone; that of the Kronecker (30,29)
# self-pair of the bound-60 orbit is charged 3.1 million cells.
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


# ---------------------------------------------------------------------------
# the names the elimination layer took over

# The public names quivlat.elimination defines that this module defined
# before the elimination layer was split off; callers that read them here,
# as perfbench/tracing.py does, still find them.
_MOVED = frozenset((
    "ModulePresentation", "NormalFormResult", "cokernel", "cokernel_data",
    "cokernel_projection", "constant_rank", "howell_rows", "invert", "is_invertible",
    "kernel_basis", "kernel_data", "normal_form", "presentation_base_change", "solve"))


def __getattr__(name: str):
    """A name of _MOVED, read off quivlat.elimination when asked (PEP 562).
    elimination imports this module, so this one imports it only here."""
    if name not in _MOVED:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import elimination
    return getattr(elimination, name)
