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

Each public function eliminates once, tracking only the transforms it
reads: :func:`normal_form` all four (over the fields one row reduction);
:func:`solve` the left and right transforms; :func:`is_invertible` none;
:func:`kernel_data` and :func:`kernel_basis` the right transform;
:func:`cokernel` none; :func:`cokernel_data` the inverse left transform;
:func:`cokernel_projection` the left transform.  Hom and Ext of a quiver
pair share one elimination tracking the right and inverse left transforms.
``ModulePresentation.from_invariant_factors`` diagonalises its diagonal
relation matrix once, to canonicalise arbitrary input.

Elimination does its row and column operations through one small kernel
table per ring kind (plain ``x + c*y`` over Z, the same on numerator and
denominator ints with one ``Fraction`` built per stored entry over Q, one
reduction mod m per entry over F_p and Z/m, a truncated product over
Feps), chosen once per worksheet.  The kernels skip zero multiplicands,
which dominate the sparse differentials and the identity-like transforms,
and the values they store are bit-identical to element-wise
``RingSpec.add``/``RingSpec.mul``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
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


# Trial division in _factorize stops below this; a cofactor left below its
# square has no two prime factors, so it is prime.
_TRIAL_DIVISION_BOUND = 1 << 16


def _factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 by trial division below
    _TRIAL_DIVISION_BOUND.  The cofactor left is accepted when it is 1,
    below the bound squared, or proven prime by _is_prime; otherwise
    NotComputable is raised instead of dividing on without end."""
    out = []
    n = m
    d = 2
    while d * d <= n and d < _TRIAL_DIVISION_BOUND:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if n > 1:
        if (n >= _TRIAL_DIVISION_BOUND ** 2
                and not (n < _PRIME_PROOF_BOUND and _is_prime(n))):
            raise NotComputable(
                "cannot factor %d: the cofactor %d has no prime factor below "
                "%d and is not provably prime" % (m, n, _TRIAL_DIVISION_BOUND))
        out.append((n, 1))
    return out


def _check_prime_provable(p: int):
    if p >= _PRIME_PROOF_BOUND:
        raise NotComputable(
            "primality of %d is not provable here: the test is proven only "
            "below %d" % (p, _PRIME_PROOF_BOUND))


@dataclass(frozen=True)
class RingSpec:
    """One of the supported coefficient rings.

    kind is "Z", "Q", "F" (prime field, parameter p), "Zmod" (parameter m)
    or "Feps" (truncated polynomials, parameters p and n).
    """

    kind: str
    p: int = 0
    m: int = 0
    n: int = 0

    def __post_init__(self):
        if self.kind in ("Z", "Q"):
            if self.p or self.m or self.n:
                raise ParseError("%s takes no parameters" % self.kind)
        elif self.kind == "F":
            _check_prime_provable(self.p)
            if not _is_prime(self.p):
                raise ParseError("F:%d needs a prime" % self.p)
        elif self.kind == "Zmod":
            if self.m < 2:
                raise ParseError("Zmod needs modulus >= 2")
        elif self.kind == "Feps":
            _check_prime_provable(self.p)
            if not _is_prime(self.p):
                raise ParseError("Feps:%d:%d needs a prime" % (self.p, self.n))
            if self.n < 1:
                raise ParseError("Feps truncation order must be >= 1")
        else:
            raise ParseError("unknown ring kind %r" % (self.kind,))

    # -- textual spec ------------------------------------------------------

    def __str__(self) -> str:
        if self.kind == "F":
            return "F:%d" % self.p
        if self.kind == "Zmod":
            return "Zmod:%d" % self.m
        if self.kind == "Feps":
            return "Feps:%d:%d" % (self.p, self.n)
        return self.kind

    @staticmethod
    def parse(text: str) -> "RingSpec":
        parts = text.strip().split(":")
        try:
            if parts[0] == "Z" and len(parts) == 1:
                return ZZ
            if parts[0] == "Q" and len(parts) == 1:
                return QQ
            if parts[0] == "F" and len(parts) == 2:
                return RingSpec("F", p=int(parts[1]))
            if parts[0] == "Zmod" and len(parts) == 2:
                return RingSpec("Zmod", m=int(parts[1]))
            if parts[0] == "Feps" and len(parts) == 3:
                return RingSpec("Feps", p=int(parts[1]), n=int(parts[2]))
        except ValueError as exc:
            raise ParseError("bad ring spec %r" % text) from exc
        raise ParseError("bad ring spec %r" % text)

    # -- structural properties --------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind in ("Q", "F")

    @property
    def is_domain(self) -> bool:
        return self.kind in ("Z", "Q", "F")

    @property
    def is_finite(self) -> bool:
        return self.kind in ("F", "Zmod", "Feps")

    @property
    def size(self) -> int:
        if self.kind == "F":
            return self.p
        if self.kind == "Zmod":
            return self.m
        if self.kind == "Feps":
            return self.p ** self.n
        raise IncompatibleRing("ring %s is not finite" % self)

    def elements(self):
        """Iterate every element of a finite ring, deterministically."""
        if self.kind == "F":
            return range(self.p)
        if self.kind == "Zmod":
            return range(self.m)
        if self.kind == "Feps":
            return (tuple(reversed(t)) for t in
                    itertools.product(range(self.p), repeat=self.n))
        raise IncompatibleRing("ring %s is not finite" % self)

    # -- element arithmetic ------------------------------------------------

    @property
    def zero(self):
        if self.kind == "Q":
            return _FRACTION_ZERO
        if self.kind == "Feps":
            return (0,) * self.n
        return 0

    @property
    def one(self):
        if self.kind == "Q":
            return _FRACTION_ONE
        if self.kind == "Feps":
            return (1,) + (0,) * (self.n - 1)
        return 1

    def canon(self, x):
        """Canonical representative of x, accepting liberal input forms."""
        k = self.kind
        if k == "Z":
            if isinstance(x, bool) or not isinstance(x, int):
                raise ParseError("integer entry expected, got %r" % (x,))
            return x
        if k == "Q":
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int) and not isinstance(x, bool):
                return Fraction(x)
            raise ParseError("rational entry expected, got %r" % (x,))
        if k in ("F", "Zmod"):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ParseError("integer entry expected, got %r" % (x,))
            return x % (self.p if k == "F" else self.m)
        # Feps: accept an int (constant) or a list or tuple of int coefficients
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

    def add(self, a, b):
        k = self.kind
        if k == "F":
            return (a + b) % self.p
        if k == "Zmod":
            return (a + b) % self.m
        if k == "Feps":
            p = self.p
            return tuple((x + y) % p for x, y in zip(a, b))
        return a + b

    def neg(self, a):
        k = self.kind
        if k == "F":
            return -a % self.p
        if k == "Zmod":
            return -a % self.m
        if k == "Feps":
            p = self.p
            return tuple(-x % p for x in a)
        return -a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        k = self.kind
        if k == "F":
            return a * b % self.p
        if k == "Zmod":
            return a * b % self.m
        if k == "Feps":
            p, n = self.p, self.n
            out = [0] * n
            for i, ai in enumerate(a):
                if ai:
                    for j in range(n - i):
                        bj = b[j]
                        if bj:
                            out[i + j] = (out[i + j] + ai * bj) % p
            return tuple(out)
        return a * b

    def dot(self, xs, ys) -> object:
        """Sum of products; one reduction at the end where that is cheaper."""
        k = self.kind
        if k == "F":
            return sum(x * y for x, y in zip(xs, ys)) % self.p
        if k == "Zmod":
            return sum(x * y for x, y in zip(xs, ys)) % self.m
        if k == "Feps":
            p, n = self.p, self.n
            out = [0] * n
            for a, b in zip(xs, ys):
                for i, ai in enumerate(a):
                    if ai:
                        for j in range(n - i):
                            if b[j]:
                                out[i + j] += ai * b[j]
            return tuple(c % p for c in out)
        total = self.zero
        for x, y in zip(xs, ys):
            total += x * y
        return total

    def is_zero(self, a) -> bool:
        if self.kind == "Feps":
            return not any(a)
        return a == 0

    def is_unit(self, a) -> bool:
        k = self.kind
        if k == "Z":
            return a in (1, -1)
        if k in ("Q", "F"):
            return not self.is_zero(a)
        if k == "Zmod":
            return math.gcd(a, self.m) == 1
        return a[0] != 0

    def inv(self, a):
        k = self.kind
        if k == "Z":
            if a in (1, -1):
                return a
            raise IncompatibleRing("%r is not an integer unit" % a)
        if k == "Q":
            return _FRACTION_ONE / a
        if k == "F":
            return pow(a, -1, self.p)
        if k == "Zmod":
            return pow(a, -1, self.m)
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

    # -- divisibility and ideals -------------------------------------------

    def _val(self, a) -> int:
        """e-adic valuation in a truncated ring; n means zero."""
        for i, c in enumerate(a):
            if c:
                return i
        return self.n

    def solve_scalar(self, a, c):
        """Some x with a*x = c, or None."""
        if self.is_zero(c):
            return self.zero
        k = self.kind
        if self.is_zero(a):
            return None
        if k == "Z":
            return c // a if c % a == 0 else None
        if k in ("Q", "F"):
            return self.mul(self.inv(a), c)
        if k == "Zmod":
            m = self.m
            g = math.gcd(a, m)
            if c % g:
                return None
            mg = m // g
            if mg == 1:
                return 0
            return (c // g) * pow(a // g, -1, mg) % mg
        va, vc = self._val(a), self._val(c)
        if va > vc:
            return None
        unit = tuple(a[va:]) + (0,) * va
        quot = self.mul(self.inv(unit), c)
        return tuple(quot[va:]) + (0,) * va

    def divides(self, a, b) -> bool:
        return self.solve_scalar(a, b) is not None

    def gcdex(self, a, b):
        """Return (g, s, t, u, v) with s*a + t*b = g, u*a + v*b = 0 and
        s*v - t*u a unit, so the 2x2 transform is invertible."""
        if self.is_zero(b):
            return a, self.one, self.zero, self.zero, self.one
        if self.is_zero(a):
            return b, self.zero, self.one, self.one, self.zero
        k = self.kind
        if k in ("Q", "F"):
            return a, self.one, self.zero, self.neg(self.mul(b, self.inv(a))), self.one
        if k == "Z":
            g, s, t = _egcd(a, b)
            return g, s, t, -(b // g), a // g
        if k == "Zmod":
            m = self.m
            g, s, t = _egcd(a, b)
            return g % m, s % m, t % m, (-(b // g)) % m, (a // g) % m
        va, vb = self._val(a), self._val(b)
        if va <= vb:
            q = self.solve_scalar(a, b)
            return a, self.one, self.zero, self.neg(q), self.one
        q = self.solve_scalar(b, a)
        return b, self.zero, self.one, self.one, self.neg(q)

    def canonical_gen(self, x):
        """The canonical generator of the ideal (x)."""
        k = self.kind
        if k == "Z":
            return abs(x)
        if k in ("Q", "F"):
            return self.zero if self.is_zero(x) else self.one
        if k == "Zmod":
            return math.gcd(x, self.m) % self.m
        v = self._val(x)
        if v >= self.n:
            return self.zero
        return tuple(1 if i == v else 0 for i in range(self.n))

    def ann_gen(self, x):
        """Canonical generator of the annihilator ideal of x."""
        k = self.kind
        if k in ("Z", "Q", "F"):
            return self.one if self.is_zero(x) else self.zero
        if k == "Zmod":
            m = self.m
            return (m // math.gcd(x, m)) % m
        v = self._val(x)
        w = self.n - v
        if w >= self.n:
            return self.one if v >= self.n else self.zero
        return tuple(1 if i == w else 0 for i in range(self.n))

    def unit_to_canonical(self, x):
        """A unit u with u*x equal to canonical_gen(x)."""
        k = self.kind
        if self.is_zero(x):
            return self.one
        if k == "Z":
            return -1 if x < 0 else 1
        if k in ("Q", "F"):
            return self.inv(x)
        if k == "Zmod":
            m = self.m
            g = math.gcd(x, m)
            d = x // g
            mg = m // g
            w = 0 if mg == 1 else pow(d, -1, mg)
            for kk in range(g + 1):
                cand = w + kk * mg
                if math.gcd(cand % m, m) == 1:
                    return cand % m
            raise IncompatibleRing("no unit lift found")  # pragma: no cover
        v = self._val(x)
        unit_part = tuple(x[v:]) + (0,) * v
        return self.inv(unit_part)

    def pivot_size(self, x) -> int:
        """Selection weight for pivoting; 1 exactly on units."""
        k = self.kind
        if k == "Z":
            return abs(x)
        if k in ("Q", "F"):
            return 1
        if k == "Zmod":
            return math.gcd(x, self.m)
        return self._val(x) + 1

    # -- JSON entry forms ---------------------------------------------------

    def entry_from_json(self, value):
        if self.kind == "Q" and isinstance(value, str):
            match = _RATIONAL_LITERAL.fullmatch(value)
            try:
                if match:
                    return Fraction(int(match[1]), int(match[2] or "1"))
            except (ValueError, ZeroDivisionError) as exc:
                # a zero denominator, or more digits than int() converts
                raise ParseError("bad rational literal %r" % value) from exc
            raise ParseError("bad rational literal %r" % value)
        if self.kind == "Feps" and isinstance(value, (list, tuple)):
            return self.canon(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return self.canon(value)
        raise ParseError("bad entry %r for ring %s" % (value, self))

    def entry_to_json(self, x):
        if self.kind == "Q":
            return int(x) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)
        if self.kind == "Feps":
            return list(x)
        return x


ZZ = RingSpec("Z")
QQ = RingSpec("Q")
_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


def GF(p: int) -> RingSpec:
    return RingSpec("F", p=p)


def Zmod(m: int) -> RingSpec:
    return RingSpec("Zmod", m=m)


def Feps(p: int, n: int) -> RingSpec:
    return RingSpec("Feps", p=p, n=n)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable matrix with canonicalised entries over a RingSpec."""

    ring: RingSpec
    rows: int
    cols: int
    entries: tuple = ()

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        data = self.entries
        if len(data) != self.rows:
            raise DimensionMismatch(
                "expected %d rows, got %d" % (self.rows, len(data)))
        canon = self.ring.canon
        fixed = []
        for row in data:
            row = tuple(canon(x) for x in row)
            if len(row) != self.cols:
                raise DimensionMismatch(
                    "expected %d columns, got %d" % (self.cols, len(row)))
            fixed.append(row)
        object.__setattr__(self, "entries", tuple(fixed))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(ring: RingSpec, rows: Sequence[Sequence]) -> "ExactMatrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return ExactMatrix(ring, len(rows), ncols, tuple(rows))

    @staticmethod
    def zeros(ring: RingSpec, rows: int, cols: int) -> "ExactMatrix":
        z = ring.zero
        return ExactMatrix(ring, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @staticmethod
    def identity(ring: RingSpec, size: int) -> "ExactMatrix":
        z, o = ring.zero, ring.one
        return ExactMatrix(
            ring, size, size,
            tuple(tuple(o if i == j else z for j in range(size)) for i in range(size)))

    # -- basic operations ----------------------------------------------------

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.ring != other.ring:
            raise IncompatibleRing("mixed rings %s and %s" % (self.ring, other.ring))
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape %dx%d vs %dx%d" % (
                self.rows, self.cols, other.rows, other.cols))

    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        add = self.ring.add
        data = tuple(tuple(add(a, b) for a, b in zip(ra, rb))
                     for ra, rb in zip(self.entries, other.entries))
        return ExactMatrix(self.ring, self.rows, self.cols, data)

    def sub(self, other: "ExactMatrix") -> "ExactMatrix":
        return self.add(other.neg())

    def neg(self) -> "ExactMatrix":
        neg = self.ring.neg
        data = tuple(tuple(neg(a) for a in row) for row in self.entries)
        return ExactMatrix(self.ring, self.rows, self.cols, data)

    def scale(self, c) -> "ExactMatrix":
        c = self.ring.canon(c)
        mul = self.ring.mul
        data = tuple(tuple(mul(c, a) for a in row) for row in self.entries)
        return ExactMatrix(self.ring, self.rows, self.cols, data)

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise IncompatibleRing("mixed rings %s and %s" % (self.ring, other.ring))
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions %d vs %d" % (self.cols, other.rows))
        if self.cols == 0:
            return ExactMatrix.zeros(self.ring, self.rows, other.cols)
        dot = self.ring.dot
        bt = tuple(zip(*other.entries))
        data = tuple(tuple(dot(row, col) for col in bt) for row in self.entries)
        return ExactMatrix(self.ring, self.rows, other.cols, data)

    def transpose(self) -> "ExactMatrix":
        if self.rows and self.cols:
            data = tuple(zip(*self.entries))
        else:
            # degenerate shapes still need the right number of empty rows
            data = tuple(() for _ in range(self.cols))
        return ExactMatrix(self.ring, self.cols, self.rows, data)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise IncompatibleRing("mixed rings")
        if self.rows != other.rows:
            raise DimensionMismatch("row counts %d vs %d" % (self.rows, other.rows))
        data = tuple(ra + rb for ra, rb in zip(self.entries, other.entries))
        return ExactMatrix(self.ring, self.rows, self.cols + other.cols, data)

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise IncompatibleRing("mixed rings")
        if self.cols != other.cols:
            raise DimensionMismatch("column counts %d vs %d" % (self.cols, other.cols))
        return ExactMatrix(self.ring, self.rows + other.rows, self.cols,
                           self.entries + other.entries)

    def is_zero(self) -> bool:
        z = self.ring.is_zero
        return all(z(x) for row in self.entries for x in row)

    def to_json(self) -> list:
        conv = self.ring.entry_to_json
        return [conv(x) for row in self.entries for x in row]


def block_diag(ring: RingSpec, blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    z = ring.zero
    data = [[z] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        if b.ring != ring:
            raise IncompatibleRing("mixed rings in block sum")
        for i in range(b.rows):
            data[r0 + i][c0:c0 + b.cols] = b.entries[i]
        r0 += b.rows
        c0 += b.cols
    return ExactMatrix(ring, rows, cols, tuple(tuple(r) for r in data))


# ---------------------------------------------------------------------------
# two-sided diagonalisation with tracked transforms


class _PlainKernels:
    """Row and column kernels over Z: plain ``x + c*y``.

    Every kernel skips a position whose multiplicand is zero (the 2x2
    combinations one where both inputs are zero) and leaves its value as it
    is; element-wise arithmetic would compute that same value there, so the
    results are identical to it.  Row kernels return a new list; column
    kernels update ``row[j]`` in each row of a list of rows in place.
    """

    is_zero = staticmethod(operator.not_)

    def row_axpy(self, dst, src, c):
        """dst + c*src"""
        return [x + c * y if y else x for x, y in zip(dst, src)]

    def col_axpy(self, rows, j, k, c):
        """row[j] += c*row[k] in every row"""
        for row in rows:
            y = row[k]
            if y:
                row[j] = row[j] + c * y

    def row_comb(self, ri, rj, s, t, u, v):
        """(s*ri + t*rj, u*ri + v*rj)"""
        return ([s * x + t * y if x or y else x for x, y in zip(ri, rj)],
                [u * x + v * y if x or y else y for x, y in zip(ri, rj)])

    def col_comb(self, rows, i, j, s, t, u, v):
        """(row[i], row[j]) <- (s*row[i] + t*row[j], u*row[i] + v*row[j])"""
        for row in rows:
            x, y = row[i], row[j]
            if x or y:
                row[i] = s * x + t * y
                row[j] = u * x + v * y


def _q_comb(sn, sd, xn, xd, tn, td, yn, yd):
    """s*x + t*y as a Fraction, from the numerators and denominators."""
    if sd == 1 and xd == 1 and td == 1 and yd == 1:
        return Fraction(sn * xn + tn * yn)
    dx, dy = sd * xd, td * yd
    return Fraction(sn * xn * dy + tn * yn * dx, dx * dy)


class _RationalKernels:
    """The kernels of _PlainKernels over Q, on numerator and denominator ints.

    Each call reads the numerator and denominator of its multipliers once
    and those of each operand once per entry (``as_integer_ratio``),
    multiplies and adds on ints and stores one ``Fraction(n, d)`` per entry
    it writes, or ``Fraction(n)`` when every denominator involved is 1.
    Fraction normalises, so every stored value is the one ``x + c*y`` gives,
    repr included.  Zero multiplicands are skipped as in _PlainKernels.  The
    axpy kernels, which do almost all of the work over Q, are written out.
    """

    is_zero = staticmethod(operator.not_)

    def row_axpy(self, dst, src, c):
        cn, cd = c.as_integer_ratio()
        out = []
        for x, y in zip(dst, src):
            if y:
                xn, xd = x.as_integer_ratio()
                yn, yd = y.as_integer_ratio()
                if xd == 1 and yd == 1 and cd == 1:
                    x = Fraction(xn + cn * yn)
                else:
                    d = cd * yd
                    x = Fraction(xn * d + cn * yn * xd, xd * d)
            out.append(x)
        return out

    def col_axpy(self, rows, j, k, c):
        cn, cd = c.as_integer_ratio()
        for row in rows:
            y = row[k]
            if y:
                xn, xd = row[j].as_integer_ratio()
                yn, yd = y.as_integer_ratio()
                if xd == 1 and yd == 1 and cd == 1:
                    row[j] = Fraction(xn + cn * yn)
                else:
                    d = cd * yd
                    row[j] = Fraction(xn * d + cn * yn * xd, xd * d)

    def row_comb(self, ri, rj, s, t, u, v):
        pairs = [[x, y] for x, y in zip(ri, rj)]
        self.col_comb(pairs, 0, 1, s, t, u, v)
        return [x for x, _ in pairs], [y for _, y in pairs]

    def col_comb(self, rows, i, j, s, t, u, v):
        (sn, sd), (tn, td) = s.as_integer_ratio(), t.as_integer_ratio()
        (un, ud), (vn, vd) = u.as_integer_ratio(), v.as_integer_ratio()
        for row in rows:
            x, y = row[i], row[j]
            if x or y:
                xn, xd = x.as_integer_ratio()
                yn, yd = y.as_integer_ratio()
                row[i] = _q_comb(sn, sd, xn, xd, tn, td, yn, yd)
                row[j] = _q_comb(un, ud, xn, xd, vn, vd, yn, yd)


class _ModKernels:
    """The kernels of _PlainKernels over F_p and Z/m: one ``% m`` per entry."""

    is_zero = staticmethod(operator.not_)

    def __init__(self, m: int):
        self.m = m

    def row_axpy(self, dst, src, c):
        m = self.m
        return [(x + c * y) % m if y else x for x, y in zip(dst, src)]

    def col_axpy(self, rows, j, k, c):
        m = self.m
        for row in rows:
            y = row[k]
            if y:
                row[j] = (row[j] + c * y) % m

    def row_comb(self, ri, rj, s, t, u, v):
        m = self.m
        return ([(s * x + t * y) % m if x or y else x for x, y in zip(ri, rj)],
                [(u * x + v * y) % m if x or y else y for x, y in zip(ri, rj)])

    def col_comb(self, rows, i, j, s, t, u, v):
        m = self.m
        for row in rows:
            x, y = row[i], row[j]
            if x or y:
                row[i] = (s * x + t * y) % m
                row[j] = (u * x + v * y) % m


class _EpsKernels:
    """The kernels of _PlainKernels over F_p[e]/(e^n).

    Each call unpacks its multipliers once into the (i, c_i, range(n - i))
    of their nonzero coefficients; entries are reduced mod p once, at the end.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.zero = (0,) * n
        self.is_zero = self.zero.__eq__
        self._ranges = [range(n - i) for i in range(n)]

    def _terms(self, c):
        return [(i, ci, self._ranges[i]) for i, ci in enumerate(c) if ci]

    def _fma(self, x, terms, y, terms2=(), y2=None):
        """x + c*y (+ c2*y2) for multipliers unpacked by _terms."""
        out = list(x)
        for i, ci, js in terms:
            for j in js:
                out[i + j] += ci * y[j]
        for i, ci, js in terms2:
            for j in js:
                out[i + j] += ci * y2[j]
        p = self.p
        return tuple([v % p for v in out])

    def row_axpy(self, dst, src, c):
        z, fma, tc = self.zero, self._fma, self._terms(c)
        return [x if y == z else fma(x, tc, y) for x, y in zip(dst, src)]

    def col_axpy(self, rows, j, k, c):
        z, fma, tc = self.zero, self._fma, self._terms(c)
        for row in rows:
            y = row[k]
            if y != z:
                row[j] = fma(row[j], tc, y)

    def row_comb(self, ri, rj, s, t, u, v):
        z, fma = self.zero, self._fma
        ts, tt, tu, tv = map(self._terms, (s, t, u, v))
        pairs = list(zip(ri, rj))
        return ([x if x == y == z else fma(z, ts, x, tt, y) for x, y in pairs],
                [y if x == y == z else fma(z, tu, x, tv, y) for x, y in pairs])

    def col_comb(self, rows, i, j, s, t, u, v):
        z, fma = self.zero, self._fma
        ts, tt, tu, tv = map(self._terms, (s, t, u, v))
        for row in rows:
            x, y = row[i], row[j]
            if x != z or y != z:
                row[i] = fma(z, ts, x, tt, y)
                row[j] = fma(z, tu, x, tv, y)


_PLAIN_KERNELS = _PlainKernels()
_RATIONAL_KERNELS = _RationalKernels()


def _kernels(ring: RingSpec):
    """The row and column kernels of a ring, chosen by its kind."""
    if ring.kind == "Q":
        return _RATIONAL_KERNELS
    if ring.kind == "F":
        return _ModKernels(ring.p)
    if ring.kind == "Zmod":
        return _ModKernels(ring.m)
    if ring.kind == "Feps":
        return _EpsKernels(ring.p, ring.n)
    return _PLAIN_KERNELS


class _Worksheet:
    """Mutable matrix plus whichever transforms the caller asked for.

    Maintains N = left * M * right, left_inv = left^-1, right_inv = right^-1.
    Every row and column operation runs through the one kernel table of the
    ring's kind (``_kernels``).  The kernels skip zero multiplicands, so a
    sparse row costs little more than its nonzero entries; the values they
    store are bit-identical to element-wise ``ring.add``/``ring.mul``.
    """

    def __init__(self, mat: ExactMatrix, need_left, need_right,
                 need_left_inv, need_right_inv):
        self.ring = mat.ring
        self.kernels = _kernels(mat.ring)
        self.rows = mat.rows
        self.cols = mat.cols
        self.n = [list(row) for row in mat.entries]
        zero, one = mat.ring.zero, mat.ring.one
        ident = lambda k: [[one if i == j else zero for j in range(k)]
                           for i in range(k)]
        self.left = ident(mat.rows) if need_left else None
        self.left_inv = ident(mat.rows) if need_left_inv else None
        self.right = ident(mat.cols) if need_right else None
        self.right_inv = ident(mat.cols) if need_right_inv else None

    # row ops: N <- E N, left <- E left, left_inv <- left_inv E^-1
    # A scaling by u is the axpy x + (u - 1)*x of a row or column onto itself.

    def swap_rows(self, i, j):
        if i == j:
            return
        self.n[i], self.n[j] = self.n[j], self.n[i]
        if self.left is not None:
            self.left[i], self.left[j] = self.left[j], self.left[i]
        if self.left_inv is not None:
            for row in self.left_inv:
                row[i], row[j] = row[j], row[i]

    def scale_row(self, i, u):
        ring, kern = self.ring, self.kernels
        c = ring.sub(u, ring.one)
        self.n[i] = kern.row_axpy(self.n[i], self.n[i], c)
        if self.left is not None:
            self.left[i] = kern.row_axpy(self.left[i], self.left[i], c)
        if self.left_inv is not None:
            kern.col_axpy(self.left_inv, i, i, ring.sub(ring.inv(u), ring.one))

    def addmul_row(self, i, j, c):
        """row_i += c * row_j"""
        kern = self.kernels
        self.n[i] = kern.row_axpy(self.n[i], self.n[j], c)
        if self.left is not None:
            self.left[i] = kern.row_axpy(self.left[i], self.left[j], c)
        if self.left_inv is not None:
            kern.col_axpy(self.left_inv, j, i, self.ring.neg(c))

    def rows2(self, i, j, s, t, u, v):
        """(row_i, row_j) <- (s,t; u,v) (row_i, row_j); determinant a unit."""
        ring, kern = self.ring, self.kernels
        self.n[i], self.n[j] = kern.row_comb(self.n[i], self.n[j], s, t, u, v)
        if self.left is not None:
            self.left[i], self.left[j] = kern.row_comb(
                self.left[i], self.left[j], s, t, u, v)
        if self.left_inv is not None:
            mul = ring.mul
            det = ring.sub(mul(s, v), mul(t, u))
            dinv = ring.inv(det)
            a, b = mul(dinv, v), ring.neg(mul(dinv, t))
            c, d = ring.neg(mul(dinv, u)), mul(dinv, s)
            kern.col_comb(self.left_inv, i, j, a, c, b, d)

    # column ops: N <- N F, right <- right F, right_inv <- F^-1 right_inv

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.n:
            row[i], row[j] = row[j], row[i]
        if self.right is not None:
            for row in self.right:
                row[i], row[j] = row[j], row[i]
        if self.right_inv is not None:
            ri = self.right_inv
            ri[i], ri[j] = ri[j], ri[i]

    def scale_col(self, j, u):
        ring, kern = self.ring, self.kernels
        c = ring.sub(u, ring.one)
        kern.col_axpy(self.n, j, j, c)
        if self.right is not None:
            kern.col_axpy(self.right, j, j, c)
        if self.right_inv is not None:
            ri = self.right_inv
            ri[j] = kern.row_axpy(ri[j], ri[j], ring.sub(ring.inv(u), ring.one))

    def addmul_col(self, j, k, c):
        """col_j += c * col_k"""
        kern = self.kernels
        kern.col_axpy(self.n, j, k, c)
        if self.right is not None:
            kern.col_axpy(self.right, j, k, c)
        if self.right_inv is not None:
            ri = self.right_inv
            ri[k] = kern.row_axpy(ri[k], ri[j], self.ring.neg(c))

    def cols2(self, i, j, s, t, u, v):
        """(col_i, col_j) <- (col_i, col_j) (s,u; t,v): col_i' = s c_i + t c_j."""
        ring, kern = self.ring, self.kernels
        kern.col_comb(self.n, i, j, s, t, u, v)
        if self.right is not None:
            kern.col_comb(self.right, i, j, s, t, u, v)
        if self.right_inv is not None:
            mul = ring.mul
            det = ring.sub(mul(s, v), mul(t, u))
            dinv = ring.inv(det)
            a, b = mul(dinv, v), ring.neg(mul(dinv, u))
            c, d = ring.neg(mul(dinv, t)), mul(dinv, s)
            ri = self.right_inv
            ri[i], ri[j] = kern.row_comb(ri[i], ri[j], a, b, c, d)

    # -- the reduction -------------------------------------------------------

    def _find_pivot(self, s):
        ring = self.ring
        is_zero = self.kernels.is_zero
        best = None
        best_size = None
        for i in range(s, self.rows):
            row = self.n[i]
            for j in range(s, self.cols):
                x = row[j]
                if is_zero(x):
                    continue
                size = ring.pivot_size(x)
                if size == 1:
                    return i, j
                if best_size is None or size < best_size:
                    best, best_size = (i, j), size
        return best

    def _divisibility_size(self, x):
        """pivot_size, with zero above every nonzero element."""
        return math.inf if self.kernels.is_zero(x) else self.ring.pivot_size(x)

    def _clear_position(self, s):
        ring = self.ring
        is_zero = self.kernels.is_zero
        n = self.n
        size = self._divisibility_size(n[s][s])
        while True:
            for i in range(s + 1, self.rows):
                b = n[i][s]
                if is_zero(b):
                    continue
                a = n[s][s]
                q = ring.solve_scalar(a, b)
                if q is not None:
                    self.addmul_row(i, s, ring.neg(q))
                else:
                    g, sx, tx, ux, vx = ring.gcdex(a, b)
                    self.rows2(s, i, sx, tx, ux, vx)
            for j in range(s + 1, self.cols):
                b = n[s][j]
                if is_zero(b):
                    continue
                a = n[s][s]
                q = ring.solve_scalar(a, b)
                if q is not None:
                    self.addmul_col(j, s, ring.neg(q))
                else:
                    g, sx, tx, ux, vx = ring.gcdex(a, b)
                    self.cols2(s, j, sx, tx, ux, vx)
            if all(is_zero(n[i][s]) for i in range(s + 1, self.rows)):
                if all(is_zero(n[s][j]) for j in range(s + 1, self.cols)):
                    return
            # A pass of solve_scalar steps alone leaves row and column s
            # clear, so this pass made a gcdex step; each one replaces the
            # pivot a by a gcd of a and an entry a does not divide, which
            # strictly shrinks its size.  That bounds the number of passes.
            new_size = self._divisibility_size(n[s][s])
            if new_size >= size:
                raise TheoremViolation(
                    "gcdex step did not shrink pivot %r at position %d over %s"
                    % (n[s][s], s, ring))
            size = new_size

    def diagonalize(self):
        ring = self.ring
        limit = min(self.rows, self.cols)
        for s in range(limit):
            piv = self._find_pivot(s)
            if piv is None:
                break
            self.swap_rows(s, piv[0])
            self.swap_cols(s, piv[1])
            self._clear_position(s)
        # divisibility chain, zeros sinking to the end
        changed = True
        while changed:
            changed = False
            for i in range(limit - 1):
                a, b = self.n[i][i], self.n[i + 1][i + 1]
                if ring.divides(a, b):
                    continue
                self.addmul_row(i, i + 1, ring.one)
                self._clear_position(i)
                changed = True
        # canonical generators on the diagonal
        for i in range(limit):
            d = self.n[i][i]
            if ring.is_zero(d):
                continue
            u = ring.unit_to_canonical(d)
            if u != ring.one:
                self.scale_row(i, u)

    def rref(self):
        """Reduced row echelon over a field; column transforms untouched."""
        ring = self.ring
        is_zero = self.kernels.is_zero
        lead = 0
        for j in range(self.cols):
            piv = None
            for i in range(lead, self.rows):
                if not is_zero(self.n[i][j]):
                    piv = i
                    break
            if piv is None:
                continue
            self.swap_rows(lead, piv)
            v = self.n[lead][j]
            if v != ring.one:
                self.scale_row(lead, ring.inv(v))
            for i in range(self.rows):
                if i != lead and not is_zero(self.n[i][j]):
                    self.addmul_row(i, lead, ring.neg(self.n[i][j]))
            lead += 1
            if lead == self.rows:
                break

    def diagonal(self, length: int) -> list:
        """The diagonal of N, padded with zeros to the given length."""
        limit = min(self.rows, self.cols)
        zero = self.ring.zero
        return [self.n[i][i] if i < limit else zero for i in range(length)]

    def matrix(self) -> ExactMatrix:
        return ExactMatrix(self.ring, self.rows, self.cols,
                           tuple(tuple(r) for r in self.n))

    def left_matrix(self) -> ExactMatrix:
        return ExactMatrix(self.ring, self.rows, self.rows,
                           tuple(tuple(r) for r in self.left))

    def left_inv_matrix(self) -> ExactMatrix:
        return ExactMatrix(self.ring, self.rows, self.rows,
                           tuple(tuple(r) for r in self.left_inv))

    def right_matrix(self) -> ExactMatrix:
        return ExactMatrix(self.ring, self.cols, self.cols,
                           tuple(tuple(r) for r in self.right))

    def right_inv_matrix(self) -> ExactMatrix:
        return ExactMatrix(self.ring, self.cols, self.cols,
                           tuple(tuple(r) for r in self.right_inv))


def _diagonal_sheet(mat: ExactMatrix, need_left=False, need_right=False,
                    need_left_inv=False, need_right_inv=False) -> _Worksheet:
    ws = _Worksheet(mat, need_left, need_right, need_left_inv, need_right_inv)
    ws.diagonalize()
    return ws


# ---------------------------------------------------------------------------
# public normal-form API


@dataclass(frozen=True)
class NormalFormResult:
    """Canonical form nf = left * input * right with invertible transforms."""

    nf: ExactMatrix
    left: ExactMatrix
    right: ExactMatrix
    kind: str
    left_inverse: ExactMatrix
    right_inverse: ExactMatrix


def normal_form(mat: ExactMatrix) -> NormalFormResult:
    """Canonical two-sided form over the matrix ring.

    Over Q and F_p this is the reduced row echelon form (kind
    "ReducedEchelon", right transform the identity).  Over Z it is the
    divisibility-chain diagonal with nonnegative entries (kind "Smith").
    Over Z/m and the truncated rings it is the divisibility-chain diagonal
    with canonical ideal generators (kind "Howell").
    """
    ring = mat.ring
    if ring.is_field:
        ws = _Worksheet(mat, True, False, True, False)
        ws.rref()
        ident = ExactMatrix.identity(ring, mat.cols)
        return NormalFormResult(ws.matrix(), ws.left_matrix(), ident,
                                "ReducedEchelon", ws.left_inv_matrix(), ident)
    ws = _diagonal_sheet(mat, True, True, True, True)
    kind = "Smith" if ring.kind == "Z" else "Howell"
    return NormalFormResult(ws.matrix(), ws.left_matrix(), ws.right_matrix(),
                            kind, ws.left_inv_matrix(), ws.right_inv_matrix())


def solve(a: ExactMatrix, b: ExactMatrix) -> Optional[ExactMatrix]:
    """Some X with a*X = b, or None when the system is unsolvable."""
    if a.ring != b.ring:
        raise IncompatibleRing("mixed rings %s and %s" % (a.ring, b.ring))
    if a.rows != b.rows:
        raise DimensionMismatch("row counts %d vs %d" % (a.rows, b.rows))
    ring = a.ring
    ws = _diagonal_sheet(a, need_left=True, need_right=True)
    c = ws.left_matrix().mul(b)
    y = [[ring.zero] * b.cols for _ in range(a.cols)]
    for i, d in enumerate(ws.diagonal(a.rows)):
        for jc in range(b.cols):
            rhs = c.entries[i][jc]
            if ring.is_zero(d):
                if not ring.is_zero(rhs):
                    return None
                continue
            val = ring.solve_scalar(d, rhs)
            if val is None:
                return None
            y[i][jc] = val
    ymat = ExactMatrix(ring, a.cols, b.cols, tuple(tuple(r) for r in y))
    return ws.right_matrix().mul(ymat)


def is_invertible(mat: ExactMatrix) -> bool:
    if mat.rows != mat.cols:
        return False
    ring = mat.ring
    ws = _diagonal_sheet(mat)
    return all(ring.is_unit(d) for d in ws.diagonal(mat.rows))


def invert(mat: ExactMatrix) -> ExactMatrix:
    if mat.rows != mat.cols:
        raise DimensionMismatch("only square matrices invert")
    out = solve(mat, ExactMatrix.identity(mat.ring, mat.rows))
    if out is None or not out.mul(mat).sub(ExactMatrix.identity(mat.ring, mat.rows)).is_zero():
        raise IncompatibleRing("matrix is not invertible")
    return out


# ---------------------------------------------------------------------------
# Howell canonicalisation of row spans (principal ideal rings)


def _reduce_entry(ring: RingSpec, x, pivot):
    """Canonical residue of x modulo the ideal (pivot)."""
    if ring.kind == "Zmod":
        g = math.gcd(pivot, ring.m)
        return x % g if g else x
    # truncated ring: drop coefficients at or above the pivot valuation
    v = ring._val(pivot)
    return tuple(c if i < v else 0 for i, c in enumerate(x))


def _lead_index(ring: RingSpec, row) -> int:
    for j, x in enumerate(row):
        if not ring.is_zero(x):
            return j
    return len(row)


def howell_rows(ring: RingSpec, rows: Iterable[Sequence]) -> list[tuple]:
    """Howell-canonical generating rows for the span of the given rows.

    Only meaningful over Z/m and the truncated rings, where row spans
    classify submodules of free modules.  The result is canonical: any two
    generating sets of the same span produce identical output.
    """
    if ring.kind not in ("Zmod", "Feps"):
        raise IncompatibleRing("Howell form needs a finite principal ideal ring")
    width = None
    work = []
    for row in rows:
        row = tuple(ring.canon(x) for x in row)
        width = len(row) if width is None else width
        if len(row) != width:
            raise DimensionMismatch("ragged rows")
        if any(not ring.is_zero(x) for x in row):
            work.append(list(row))
    if width is None:
        return []

    def triangulate(items):
        # one echelon slot per leading column, merged by gcdex transforms
        slots: dict[int, list] = {}
        queue = list(items)
        while queue:
            row = queue.pop()
            lead = _lead_index(ring, row)
            if lead == width:
                continue
            if lead not in slots:
                slots[lead] = row
                continue
            other = slots[lead]
            a, b = other[lead], row[lead]
            g, s, t, u, v = ring.gcdex(a, b)
            new_a = [ring.add(ring.mul(s, x), ring.mul(t, y))
                     for x, y in zip(other, row)]
            new_b = [ring.add(ring.mul(u, x), ring.mul(v, y))
                     for x, y in zip(other, row)]
            slots[lead] = new_a
            queue.append(new_b)
        return slots

    slots = triangulate(work)
    # saturate: annihilator multiples of each pivot row stay in the span
    while True:
        extra = []
        for lead, row in slots.items():
            ann = ring.ann_gen(row[lead])
            if ring.is_zero(ann):
                continue
            cand = [ring.mul(ann, x) for x in row]
            clead = _lead_index(ring, cand)
            if clead == width:
                continue
            # reduce against existing slots to test novelty
            red = list(cand)
            while True:
                rl = _lead_index(ring, red)
                if rl == width or rl not in slots:
                    break
                piv = slots[rl][rl]
                q = ring.solve_scalar(piv, red[rl])
                if q is None:
                    break
                red = [ring.sub(x, ring.mul(q, y))
                       for x, y in zip(red, slots[rl])]
            if _lead_index(ring, red) < width:
                extra.append(cand)
        if not extra:
            break
        merged = list(slots.values()) + extra
        slots = triangulate(merged)
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
            target = _reduce_entry(ring, x, piv)
            diff = ring.sub(x, target)
            q = ring.solve_scalar(piv, diff)
            if q is not None and not ring.is_zero(q):
                out[above] = [ring.sub(a, ring.mul(q, b))
                              for a, b in zip(out[above], out[idx])]
    return [tuple(r) for r in out]


# ---------------------------------------------------------------------------
# kernels, cokernels, module presentations


def _kernel_read(ws: _Worksheet) -> tuple:
    """kernel_data read off a diagonalised sheet that tracks ``right``."""
    ring = ws.ring
    torsion_factors = []
    torsion_gens = []
    free_gens = []
    for j, d in enumerate(ws.diagonal(ws.cols)):
        g = ring.ann_gen(d)
        if ring.is_zero(g):
            continue
        col = tuple(row[j] for row in ws.right)
        if ring.is_unit(g):
            free_gens.append(col)
        else:
            torsion_factors.append(ring.ann_gen(g))
            torsion_gens.append(tuple(ring.mul(g, x) for x in col))
    # The diagonal is a canonical divisibility chain with zeros last, so
    # these factors are already the invariant factors: no second elimination.
    factors = tuple(torsion_factors) + (ring.zero,) * len(free_gens)
    relations = block_diag(ring, [ExactMatrix(ring, 1, 1, ((d,),)) for d in factors])
    return ModulePresentation(ring, len(factors), relations, factors), torsion_gens + free_gens


def kernel_data(a: ExactMatrix) -> tuple:
    """Kernel presentation plus generating vectors aligned with its factors.

    The kernel of a map of free modules decomposes as one summand per
    diagonal entry d of the two-sided normal form, namely the annihilator
    ideal of (d), which is cyclic: generated by ann_gen(d) and isomorphic
    to R modulo the annihilator of that generator.  A non-zero-divisor d
    (every nonzero d over a domain) contributes nothing.  The k-th returned
    vector generates the summand of the k-th invariant factor (torsion in
    chain order, then one vector per free summand), matching cokernel_data.
    """
    return _kernel_read(_diagonal_sheet(a, need_right=True))


def kernel_basis(a: ExactMatrix) -> ExactMatrix:
    """Matrix whose columns generate {x : a*x = 0}.

    Over the fields and Z the columns are a basis of the kernel (free).
    Over Z/m and the truncated rings they are the Howell-canonical
    generating set of the kernel submodule.
    """
    ring = a.ring
    _, gens = kernel_data(a)
    if ring.kind in ("Zmod", "Feps"):
        gens = howell_rows(ring, gens)
    if not gens:
        return ExactMatrix.zeros(ring, a.cols, 0)
    return ExactMatrix(ring, a.cols, len(gens), tuple(zip(*gens)))


@dataclass(frozen=True)
class ModulePresentation:
    """Finitely presented module R^generators / column span of relations.

    invariant_factors lists canonical ideal generators in divisibility
    order with units omitted; a zero stands for a free summand and zeros
    come last.
    """

    ring: RingSpec
    generators: int
    relations: ExactMatrix
    invariant_factors: tuple

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
        return cokernel(block_diag(ring, [ExactMatrix(ring, 1, 1, ((d,),)) for d in factors]))


def _chain_factors(ring: RingSpec, diag: Sequence) -> tuple:
    """Invariant factors from a canonical diagonal: drop units, zeros last."""
    torsion = [d for d in diag if not ring.is_zero(d) and not ring.is_unit(d)]
    free = sum(1 for d in diag if ring.is_zero(d))
    return tuple(torsion + [ring.zero] * free)


def _cokernel_read(ws: _Worksheet, a: ExactMatrix) -> tuple:
    """Cokernel presentation of a, plus one vector per generator.

    Read off a diagonalised sheet of a.  The generators sit at the non-unit
    diagonal positions, torsion in chain order and then the free ones.  The
    vector of a generator is its preimage (a column of left_inv) when the
    sheet tracks left_inv, else its projection row (a row of left) when the
    sheet tracks left; with neither, no vectors are returned.
    """
    ring = a.ring
    diag = ws.diagonal(a.rows)
    idx = ([i for i, d in enumerate(diag) if not ring.is_zero(d) and not ring.is_unit(d)]
           + [i for i, d in enumerate(diag) if ring.is_zero(d)])
    pres = ModulePresentation(ring, a.rows, a, tuple(diag[i] for i in idx))
    if ws.left_inv is not None:
        return pres, [tuple(row[i] for row in ws.left_inv) for i in idx]
    if ws.left is not None:
        return pres, [tuple(ws.left[i]) for i in idx]
    return pres, []


def cokernel(a: ExactMatrix) -> ModulePresentation:
    """Presentation of R^rows / (column span of a), invariant factors canonical."""
    return _cokernel_read(_diagonal_sheet(a), a)[0]


def cokernel_data(a: ExactMatrix) -> tuple[ModulePresentation, list[tuple]]:
    """Cokernel presentation plus preimage vectors of its generators.

    The k-th returned vector maps onto the k-th listed invariant-factor
    generator of the cokernel under the projection R^rows -> coker.
    """
    return _cokernel_read(_diagonal_sheet(a, need_left_inv=True), a)


def cokernel_projection(a: ExactMatrix) -> Optional[ExactMatrix]:
    """Projection matrix onto the cokernel of a when that cokernel is free.

    Returns a (free rank x rows) matrix pi with pi * a = 0 whose rows map
    R^rows onto coker(a), or None when the cokernel has a torsion summand
    and no such free presentation exists.
    """
    pres, rows = _cokernel_read(_diagonal_sheet(a, need_left=True), a)
    if not pres.is_free:
        return None
    return ExactMatrix(a.ring, len(rows), a.rows, tuple(rows))


def _hom_ext_data(a: ExactMatrix) -> tuple:
    """kernel_data(a) + cokernel_data(a) from one diagonalisation of a."""
    ws = _diagonal_sheet(a, need_right=True, need_left_inv=True)
    return _kernel_read(ws) + _cokernel_read(ws, a)


def constant_rank(pres: ModulePresentation) -> Optional[int]:
    """Local free rank when the module is projective of constant rank.

    Returns None when projective with differing local ranks (possible only
    over Z/m with composite m); raises NotProjective otherwise.
    """
    ring = pres.ring
    factors = pres.invariant_factors
    if ring.kind in ("Z", "Q", "F", "Feps"):
        # local or domain cases: projective means free here
        for d in factors:
            if not ring.is_zero(d):
                raise NotProjective(
                    "invariant factor %r obstructs projectivity over %s" % (d, ring))
        return pres.free_rank
    ranks = []
    for q, k in _factorize(ring.m):
        qk = q ** k
        rank = 0
        for d in factors:
            if ring.is_zero(d):
                rank += 1
                continue
            v = 0
            x = d
            while x % q == 0:
                x //= q
                v += 1
            if v >= k:
                rank += 1
            elif v > 0:
                raise NotProjective(
                    "factor %r is %d-divisible but not fully at %d^%d" % (d, q, q, k))
        ranks.append(rank)
    if all(r == ranks[0] for r in ranks):
        return ranks[0]
    return None


# ---------------------------------------------------------------------------
# ring homomorphisms


_HOM_KINDS = (
    "Identity",
    "IntToRationals",
    "IntToPrimeField",
    "IntToIntegersMod",
    "IntToTruncatedPoly",
    "IntegersModToIntegersMod",
    "TruncatedPolyToPrimeField",
    "TruncatedPolyTruncate",
    "PrimeFieldToTruncatedPoly",
)


@dataclass(frozen=True)
class RingHom:
    """A supported unital homomorphism between two RingSpecs."""

    kind: str
    source: RingSpec
    target: RingSpec

    def __post_init__(self):
        if self.kind not in _HOM_KINDS:
            raise ParseError("unknown hom kind %r" % (self.kind,))
        s, t = self.source, self.target
        ok = {
            "Identity": s == t,
            "IntToRationals": s.kind == "Z" and t.kind == "Q",
            "IntToPrimeField": s.kind == "Z" and t.kind == "F",
            "IntToIntegersMod": s.kind == "Z" and t.kind == "Zmod",
            "IntToTruncatedPoly": s.kind == "Z" and t.kind == "Feps",
            "IntegersModToIntegersMod":
                s.kind == "Zmod" and t.kind == "Zmod" and s.m % t.m == 0,
            "TruncatedPolyToPrimeField":
                s.kind == "Feps" and t.kind == "F" and s.p == t.p,
            "TruncatedPolyTruncate":
                s.kind == "Feps" and t.kind == "Feps" and s.p == t.p and t.n <= s.n,
            "PrimeFieldToTruncatedPoly":
                s.kind == "F" and t.kind == "Feps" and s.p == t.p,
        }[self.kind]
        if not ok:
            raise IncompatibleBase(
                "no %s hom from %s to %s" % (self.kind, s, t))

    def apply(self, x):
        k = self.kind
        if k == "Identity":
            return x
        if k in ("IntToRationals", "IntToPrimeField", "IntToIntegersMod",
                 "IntToTruncatedPoly", "PrimeFieldToTruncatedPoly"):
            return self.target.canon(x)
        if k == "IntegersModToIntegersMod":
            return x % self.target.m
        if k == "TruncatedPolyToPrimeField":
            return x[0]
        return self.target.canon(x[: self.target.n])

    @property
    def has_nilpotent_kernel(self) -> bool:
        """Surjective with nonzero nilpotent kernel.

        For Z/m -> Z/m' this holds exactly when every prime of m divides
        m' and m != m' (the prime-power towers p^k -> p^j, j < k, are the
        typical case).  For truncations it holds exactly when the order
        genuinely drops.
        """
        k = self.kind
        if k == "IntegersModToIntegersMod":
            if self.source.m == self.target.m:
                return False
            rad = 1
            for q, _ in _factorize(self.source.m):
                rad *= q
            return self.target.m % rad == 0
        if k == "TruncatedPolyToPrimeField":
            return self.source.n > 1  # kernel (e), nilpotent; zero when n == 1
        if k == "TruncatedPolyTruncate":
            return self.target.n < self.source.n
        return False

    @property
    def is_bijective(self) -> bool:
        return self.kind == "Identity" or (
            self.kind == "TruncatedPolyToPrimeField" and self.source.n == 1) or (
            self.kind == "TruncatedPolyTruncate" and self.source.n == self.target.n) or (
            self.kind == "IntegersModToIntegersMod" and self.source.m == self.target.m)

    def section(self, x):
        """Canonical preimage of x for the surjective kinds."""
        k = self.kind
        if k == "Identity":
            return x
        if k == "IntegersModToIntegersMod":
            return x  # representative in [0, m') lifted as the same integer
        if k == "TruncatedPolyToPrimeField":
            return self.source.canon(x)
        if k == "TruncatedPolyTruncate":
            return self.source.canon(x)
        raise NotComputable("no canonical section for %s" % k)


def identity_hom(ring: RingSpec) -> RingHom:
    return RingHom("Identity", ring, ring)


def canonical_hom(source: RingSpec, target: RingSpec) -> RingHom:
    """The canonical hom between two supported rings, when one exists."""
    if source == target:
        return identity_hom(source)
    s, t = source.kind, target.kind
    if s == "Z":
        kind = {"Q": "IntToRationals", "F": "IntToPrimeField",
                "Zmod": "IntToIntegersMod", "Feps": "IntToTruncatedPoly"}.get(t)
        if kind:
            return RingHom(kind, source, target)
    if s == "Zmod" and t == "Zmod" and source.m % target.m == 0:
        return RingHom("IntegersModToIntegersMod", source, target)
    if s == "Feps" and t == "F" and source.p == target.p:
        return RingHom("TruncatedPolyToPrimeField", source, target)
    if s == "Feps" and t == "Feps" and source.p == target.p and target.n <= source.n:
        return RingHom("TruncatedPolyTruncate", source, target)
    if s == "F" and t == "Feps" and source.p == target.p:
        return RingHom("PrimeFieldToTruncatedPoly", source, target)
    raise IncompatibleBase("no canonical hom from %s to %s" % (source, target))


def apply_hom(hom: RingHom, mat: ExactMatrix) -> ExactMatrix:
    """Entrywise transport of a matrix along a ring hom."""
    if mat.ring != hom.source:
        raise IncompatibleBase(
            "matrix over %s, hom expects %s" % (mat.ring, hom.source))
    f = hom.apply
    data = tuple(tuple(f(x) for x in row) for row in mat.entries)
    return ExactMatrix(hom.target, mat.rows, mat.cols, data)


def presentation_base_change(pres: ModulePresentation, hom: RingHom) -> ModulePresentation:
    """Invariant factors of M tensored along the hom, recanonicalised."""
    if pres.ring != hom.source:
        raise IncompatibleBase("presentation over %s, hom expects %s" % (
            pres.ring, hom.source))
    tring = hom.target
    mapped = [tring.canonical_gen(hom.apply(d)) for d in pres.invariant_factors]
    kept = [d for d in mapped if d != tring.one]
    return ModulePresentation(tring, pres.generators,
                              apply_hom(hom, pres.relations),
                              _chain_factors(tring, kept))
