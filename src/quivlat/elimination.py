"""Elimination over the rings of quivlat.rings: normal forms, solving,
kernels, cokernels, module presentations, and the one elimination that
Hom and Ext of a quiver pair read.

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
against one cap, rings._MAX_HOM_CELLS (rings._check_read), where it fills
them.

Elimination takes one input on every ring: the ring, the rows as dicts
from column to nonzero entry, and the column count.  A public matrix entry
point reads its matrix's nonzeros once (``_nonzeros``); Hom and Ext of a
quiver pair pass the rows the Hom complex is placed as, and densify
nothing.  A :class:`ModulePresentation` is its ring, generator count and
invariant factors; ``from_invariant_factors`` eliminates its diagonal once,
to canonicalise arbitrary input.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    IncompatibleRing,
    NotProjective,
    ParseError,
    TheoremViolation,
)
from ._record import Record
from .rings import (
    ExactMatrix,
    RingHom,
    RingSpec,
    _check_hom,
    _check_matrix,
    _check_read,
    _check_ring,
    _items,
)


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
