"""The three workloads: seeded inputs, the timed operation, and its answer check.

Every input is generated here from the run seed and the pass index; quivlat
only ever receives the generated representations (in-process, or as JSON
files handed to the command-line driver).  Checks are independent of the
operation they check wherever the mathematics allows: Euler-form and length
identities, residue-field ranks of a differential built here, planted
summands, entrywise reduction.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

from quivlat import ExactMatrix, Quiver, Rep, RingSpec, exceptional_lattice, hom_ext

# Quivers as (vertex count, arrows as 1-based (tail, head) pairs).
A2 = (2, ((1, 2),))
A3 = (3, ((1, 2), (2, 3)))
A4 = (4, ((1, 2), (2, 3), (3, 4)))
KRONECKER = (2, ((1, 2), (1, 2)))

HOMEXT_RINGS = ("F:2", "Zmod:4", "Z", "Feps:2:2", "Q")
HOMEXT_SHAPES = (
    ("kron34", KRONECKER, (3, 4), (3, 4)),
    ("kron45", KRONECKER, (4, 5), (4, 5)),
    ("a4", A4, (2, 3, 3, 2), (3, 2, 2, 3)),
)
# A pass holds every (ring, shape) pair once, in shuffled order, so every
# pass has the same mix.

LATTICE_RINGS = ("Z", "F:3", "Zmod:4", "Feps:2:2")
LATTICE_KRONECKER_MAX_N = 6

LIFTS = (("Zmod:4", "Zmod:2"), ("Feps:2:2", "F:2"), ("Zmod:9", "Zmod:3"))
DECOMPOSE_RINGS = ("Z", "Q", "F:3")
BASECHANGE_FIELDS = ("F:2", "F:3", "F:5", "F:7")
BASECHANGE_MODULI = ("Zmod:4", "Zmod:6", "Zmod:8", "Zmod:9")
CONSTRUCT_RINGS = ("Z", "Q", "F:5", "Zmod:4")

# Per-op deadlines in seconds.  An op that misses one counts as failed.
DEADLINE_S = {"homext-sweep": 5.0, "lattice-orbit": 20.0, "structure-cli": 30.0}


# ---------------------------------------------------------------------------
# plain-data helpers


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, pass_index))


def euler_form(quiver, alpha, beta) -> int:
    _, arrows = quiver
    return (sum(a * b for a, b in zip(alpha, beta))
            - sum(alpha[t - 1] * beta[h - 1] for t, h in arrows))


def kronecker_roots(max_n: int) -> list:
    """Preprojective (n, n+1) and preinjective (n, n-1) Kronecker roots."""
    return ([(n, n + 1) for n in range(max_n + 1)]
            + [(n, n - 1) for n in range(1, max_n + 1)])


def interval_roots(vertices: int) -> list:
    """Positive roots of the linear quiver A_n: the thin intervals."""
    return [tuple(1 if i <= v < j else 0 for v in range(vertices))
            for i in range(vertices) for j in range(i + 1, vertices + 1)]


def _entry_pool(ring: str) -> list:
    if ring in ("Z", "Q"):
        return [-2, -1, 0, 1, 2]
    if ring.startswith("Feps:"):
        _, p, n = ring.split(":")
        out = [()]
        for _ in range(int(n)):
            out = [t + (c,) for t in out for c in range(int(p))]
        return out
    return list(range(int(ring.split(":")[1])))


def random_mats(ring: str, quiver, dims, rng: random.Random) -> list:
    """Uniform entries from the ring's pool; rows index the arrow's head."""
    pool = _entry_pool(ring)
    _, arrows = quiver
    return [[[rng.choice(pool) for _ in range(dims[t - 1])]
             for _ in range(dims[h - 1])] for t, h in arrows]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul(a, b, inner):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(len(b[0]) if b else 0)]
            for i in range(len(a))]


def exceptional_mats(quiver, root) -> list:
    """Integral matrices of the exceptional representation of a known root.

    Linear quivers: the interval module with identity maps.  Kronecker: the
    preprojective (n, n+1) with A = [I; 0], B = [0; I] or the preinjective
    (n+1, n) with A = [I | 0], B = [0 | I].
    """
    _, arrows = quiver
    if quiver == KRONECKER:
        a, b = root
        if b == a + 1:
            return [[[int(i == j) for j in range(a)] for i in range(b)],
                    [[int(i == j + 1) for j in range(a)] for i in range(b)]]
        if a == b + 1:
            return [[[int(j == i) for j in range(a)] for i in range(b)],
                    [[int(j == i + 1) for j in range(a)] for i in range(b)]]
        raise ValueError("not a Kronecker root handled here: %r" % (root,))
    return [[[1] * root[t - 1] for _ in range(root[h - 1])] for t, h in arrows]


def planted_sum(quiver, planted) -> tuple:
    """Block-diagonal integral sum of exceptional representations.

    planted lists (root, multiplicity); returns (dims, mats).
    """
    n, arrows = quiver
    blocks = [(root, exceptional_mats(quiver, root))
              for root, mult in planted for _ in range(mult)]
    dims = tuple(sum(root[v] for root, _ in blocks) for v in range(n))
    mats = []
    for a, (t, h) in enumerate(arrows):
        m = [[0] * dims[t - 1] for _ in range(dims[h - 1])]
        r0 = c0 = 0
        for root, bm in blocks:
            for i in range(root[h - 1]):
                for j in range(root[t - 1]):
                    m[r0 + i][c0 + j] = bm[a][i][j]
            r0 += root[h - 1]
            c0 += root[t - 1]
        mats.append(m)
    return dims, mats


def random_unimodular(n: int, rng: random.Random) -> tuple:
    """A product of +-1 shears and its exact inverse, both integral."""
    g, g_inv = _identity(n), _identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in g_inv:
            row[j] -= c * row[i]
    return g, g_inv


def conjugate(quiver, dims, mats, rng: random.Random) -> list:
    """Change of basis at every vertex: an isomorphic representation."""
    n, arrows = quiver
    changes = [random_unimodular(d, rng) for d in dims]
    out = []
    for (t, h), m in zip(arrows, mats):
        g_h = changes[h - 1][0]
        g_t_inv = changes[t - 1][1]
        if not m or not m[0]:
            out.append(m)
            continue
        out.append(_mat_mul(_mat_mul(g_h, m, dims[h - 1]), g_t_inv, dims[t - 1]))
    return out


def reduce_entry(ring: str, v: int) -> int:
    """Canonical residue of an integer entry in F:p or Zmod:m."""
    return v % int(ring.split(":")[1])


def rep_json(ring: str, quiver, dims, mats) -> dict:
    n, arrows = quiver
    return {"ring": ring,
            "quiver": {"vertices": n, "arrows": [list(a) for a in arrows]},
            "dims": list(dims),
            "mats": [[v for row in m for v in row] for m in mats]}


def residue_rank_check(quiver, dims, mats, p: int) -> bool:
    """Over F_p: the self-differential of X is onto with a one-dim kernel.

    d(f)_a = X_a f_tail - f_head X_a maps prod End(X_i) to prod Hom(X_t, X_h).
    Over a local ring with residue field F_p this says exactly that Ext(X, X)
    is zero and End(X) is free of rank one; over Z it is a necessary
    condition at the prime p.  mats hold integer residues.
    """
    n, arrows = quiver
    col_off, c = [], 0
    for d in dims:
        col_off.append(c)
        c += d * d
    ncols = c
    rows = []
    for a, (t, h) in enumerate(arrows):
        dt, dh = dims[t - 1], dims[h - 1]
        x = mats[a]
        for k in range(dh):
            for cc in range(dt):
                row = [0] * ncols
                # (X_a E_rs)[k][cc] = X_a[k][r] when cc == s, f at the tail
                for r in range(dt):
                    row[col_off[t - 1] + r * dt + cc] += x[k][r]
                # (E_rs X_a)[k][cc] = X_a[s][cc] when k == r, f at the head
                for s in range(dh):
                    row[col_off[h - 1] + k * dh + s] -= x[s][cc]
                rows.append([v % p for v in row])
    if ncols - len(rows) != 1:
        return False
    return _rank_mod_p(rows, ncols, p) == len(rows)


def _rank_mod_p(rows, ncols, p) -> int:
    rank = 0
    rows = [r for r in rows if any(r)]
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = [v * inv % p for v in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], prow)]
        rank += 1
    return rank


def _residue_entries(ring: str, mats, p: int):
    """Residues mod p of a rep's entries (constant term for Feps)."""
    def res(v):
        if isinstance(v, (tuple, list)):
            v = v[0]
        v = Fraction(v)
        return v.numerator * pow(v.denominator, -1, p) % p
    return [[[res(v) for v in row] for row in m] for m in mats]


def _prime_of(ring: str) -> int:
    m = int(ring.split(":")[1])
    return next(q for q in range(2, m + 1) if m % q == 0)


# Over Q the rank of an integral matrix equals its rank mod this prime unless
# the prime divides every maximal nonzero minor.
_LARGE_PRIME = 2147483647


def residue_primes(ring: str) -> tuple:
    """Primes at which residue_rank_check applies to an exceptional rep."""
    if ring == "Q":
        return (_LARGE_PRIME,)
    if ring == "Z":
        return (2, 3, _LARGE_PRIME)
    return (_prime_of(ring),)


def cyclic_length(ring: str, d) -> int:
    """Composition length of R/(d) for a local ring Zmod:p^k or Feps:p:n."""
    if ring.startswith("Feps:"):
        return next((i for i, c in enumerate(d) if c), len(d))
    m = int(ring.split(":")[1])
    p = _prime_of(ring)
    g = math.gcd(d, m)
    k = 0
    while g % p == 0 and g > 1:
        g //= p
        k += 1
    return k


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return list(v)
    return v


# ---------------------------------------------------------------------------
# workloads


class HomExtSweep:
    """Distinct random pairs over five rings and three shapes; no cache hits."""

    name = "homext-sweep"

    def __init__(self, seed: int, pass_index: int):
        rng = pass_rng(self.name, seed, pass_index)
        self.ops = []
        cats = [(ring, shape) for ring in HOMEXT_RINGS for shape in HOMEXT_SHAPES]
        rng.shuffle(cats)
        for ring, (label, quiver, dx, dy) in cats:
            spec = RingSpec.parse(ring)
            q = Quiver(*quiver)
            reps = []
            for dims in (dx, dy):
                mats = random_mats(ring, quiver, dims, rng)
                if ring == "Q":
                    mats = [[[Fraction(v) for v in row] for row in m] for m in mats]
                reps.append(Rep(spec, q, dims, tuple(
                    ExactMatrix(spec, dims[h - 1], dims[t - 1], tuple(map(tuple, m)))
                    for m, (t, h) in zip(mats, quiver[1]))))
            self.ops.append({"label": "%s/%s" % (ring, label), "ring": ring,
                             "quiver": quiver, "dims": (dx, dy), "args": tuple(reps)})

    def run(self, op):
        return hom_ext(*op["args"])

    def check(self, op, he):
        ring = op["ring"]
        answer = "hom=%s;ext=%s" % (
            [_jsonable(d) for d in he.hom.invariant_factors],
            [_jsonable(d) for d in he.ext.invariant_factors])
        chi = euler_form(op["quiver"], *op["dims"])
        if ring in ("Zmod:4", "Feps:2:2"):
            lengths = [sum(cyclic_length(ring, d) for d in pres.invariant_factors)
                       for pres in (he.hom, he.ext)]
            ok = lengths[0] - lengths[1] == 2 * chi
        else:
            ok = he.hom.free_rank - he.ext.free_rank == chi
        return ok, answer


class LatticeOrbit:
    """exceptional_lattice over four rings on a seeded ordering of roots.

    Roots come largest first, so each pass opens with the coldest, deepest
    orbit search and later searches reuse its cached hom_ext results; the
    order among roots of equal size is seeded.  Each root runs over Z first
    (the search) and then re-verifies over the other rings.  A fully
    shuffled order made the slowest ops, and so op_ms.tail, depend on which
    large root happened to come first, and op_ms.p50 on which ring did.
    """

    name = "lattice-orbit"

    def __init__(self, seed: int, pass_index: int, max_n: int = LATTICE_KRONECKER_MAX_N):
        rng = pass_rng(self.name, seed, pass_index)
        roots = ([(KRONECKER, r) for r in kronecker_roots(max_n)]
                 + [(A4, r) for r in interval_roots(4)])
        rng.shuffle(roots)
        roots.sort(key=lambda qr: -sum(qr[1]))
        self.ops = [{"label": ring, "ring": ring, "quiver": q, "root": root,
                     "args": (Quiver(*q), root, RingSpec.parse(ring))}
                    for q, root in roots for ring in LATTICE_RINGS]

    def run(self, op):
        return exceptional_lattice(*op["args"])

    def check(self, op, rep):
        answer = json.dumps(rep.to_json(), sort_keys=True, separators=(",", ":"))
        if rep.dims != op["root"] or str(rep.ring) != op["ring"]:
            return False, answer
        he = hom_ext(rep, rep)
        if not (he.hom.is_free and he.hom.free_rank == 1 and he.ext.is_zero):
            return False, answer
        mats = [m.entries for m in rep.mats]
        ok = all(residue_rank_check(op["quiver"], rep.dims,
                                    _residue_entries(op["ring"], mats, p), p)
                 for p in residue_primes(op["ring"]))
        return ok, answer


PLANTED_QUIVERS = ("A2", "A3", "kronecker")


def _planted_choice(rng: random.Random, max_total: int, kind=None) -> tuple:
    """A quiver and a multiset of pairwise ext-orthogonal exceptional roots.

    Adjacent Kronecker preprojectives (or preinjectives) are ext-orthogonal
    both ways, and so is any set of projectives (or of injectives) of a
    linear quiver.  kind picks the quiver; by default it is drawn too.
    """
    fixed = kind
    while True:
        kind = fixed or rng.choice(PLANTED_QUIVERS)
        if kind == "kronecker":
            quiver = KRONECKER
            n = rng.randint(0, 4)
            pair = [(n, n + 1), (n + 1, n + 2)]
            if rng.random() < 0.5:
                pair = [(n + 1, n), (n + 2, n + 1)]
            roots = pair
        else:
            quiver = A2 if kind == "A2" else A3
            v = quiver[0]
            projective = [tuple(int(u >= i) for u in range(v)) for i in range(v)]
            injective = [tuple(int(u <= i) for u in range(v)) for i in range(v)]
            family = rng.choice((projective, injective))
            roots = rng.sample(family, rng.randint(1, v))
        planted = [(r, rng.randint(0 if len(roots) > 1 else 1, 3)) for r in roots]
        planted = [(r, m) for r, m in planted if m]
        total = sum(sum(r) * m for r, m in planted)
        if planted and total <= max_total:
            return quiver, sorted(planted)


class StructureCli:
    """CLI verbs in fresh child processes on files written during set-up."""

    name = "structure-cli"

    def __init__(self, seed: int, pass_index: int, workdir: str, decompose_total: int = 12):
        rng = pass_rng(self.name, seed, pass_index)
        os.makedirs(workdir, exist_ok=True)
        self.ops = []

        def write(tag, payload):
            path = os.path.join(workdir, "%02d-%s.json" % (len(self.ops), tag))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            return path

        # Rings and quivers rotate with the pass index, so every run of nine
        # or more passes decomposes on each quiver over each ring.
        ring = DECOMPOSE_RINGS[pass_index % len(DECOMPOSE_RINGS)]
        kind = PLANTED_QUIVERS[pass_index // len(DECOMPOSE_RINGS) % len(PLANTED_QUIVERS)]
        quiver, planted = _planted_choice(rng, decompose_total, kind)
        dims, mats = planted_sum(quiver, planted)
        mats = conjugate(quiver, dims, mats, rng)
        if ring != "Z" and ring != "Q":
            mats = [[[reduce_entry(ring, v) for v in row] for row in m] for m in mats]
        path = write("decompose", rep_json(ring, quiver, dims, mats))
        self.ops.append({"label": "decompose", "argv": ["decompose", "--rep", path],
                         "expect": sorted([list(r), m] for r, m in planted)})

        for source, target in LIFTS:
            quiver, planted = _planted_choice(rng, 8)
            dims, mats = planted_sum(quiver, planted)
            mats = conjugate(quiver, dims, mats, rng)
            mats = [[[reduce_entry(target, v) for v in row] for row in m] for m in mats]
            data = rep_json(target, quiver, dims, mats)
            path = write("lift", data)
            self.ops.append({"label": "lift", "argv": ["lift", "--rep", path, "--ring", source],
                             "expect": data, "source": source})

        for target in (rng.choice(BASECHANGE_FIELDS), rng.choice(BASECHANGE_MODULI)):
            quiver = rng.choice((A2, A3, KRONECKER))
            paths = []
            for side in ("x", "y"):
                dims = tuple(rng.randint(0, 3) for _ in range(quiver[0]))
                paths.append(write("basechange-" + side,
                                   rep_json("Z", quiver, dims, random_mats("Z", quiver, dims, rng))))
            self.ops.append({"label": "basechange",
                             "argv": ["basechange", "--rep-x", paths[0], "--rep-y", paths[1],
                                      "--ring", target]})

        for _ in range(2):
            quiver = rng.choice((A3, KRONECKER))
            roots = kronecker_roots(2) if quiver == KRONECKER else interval_roots(3)
            root = rng.choice(roots)
            ring = rng.choice(CONSTRUCT_RINGS)
            qpath = write("quiver", {"vertices": quiver[0], "arrows": [list(a) for a in quiver[1]]})
            self.ops.append({"label": "construct",
                             "argv": ["construct", "--quiver", qpath, "--dims",
                                      ",".join(map(str, root)), "--ring", ring],
                             "quiver": quiver, "root": list(root), "ring": ring})

        for _ in range(2):
            quiver = rng.choice((A3, KRONECKER))
            ring = rng.choice(("Z", "F:2", "F:3"))
            dx, dy = (tuple(rng.randint(0, 3) for _ in range(quiver[0])) for _ in range(2))
            px = write("ext-x", rep_json(ring, quiver, dx, random_mats(ring, quiver, dx, rng)))
            py = write("ext-y", rep_json(ring, quiver, dy, random_mats(ring, quiver, dy, rng)))
            self.ops.append({"label": "ext", "argv": ["ext", "--rep-x", px, "--rep-y", py],
                             "chi": euler_form(quiver, dx, dy)})

        for op in self.ops:
            op["argv"] = op["argv"] + ["--format", "json"]

    @staticmethod
    def check(op, report):
        """report is the verb's parsed JSON output."""
        label = op["label"]
        if label == "decompose":
            got = sorted([s["dims"], s["multiplicity"]] for s in report["summands"])
            return got == op["expect"] and report.get("verified") is True
        if label == "lift":
            src, data = op["source"], op["expect"]
            lifted = report["rep"]
            if report["ring"] != src or lifted["ring"] != src or lifted["dims"] != data["dims"]:
                return False
            p = _prime_of(data["ring"])
            return (_residue_entries(src, [lifted["mats"]], p)
                    == _residue_entries(data["ring"], [data["mats"]], p))
        if label == "basechange":
            return report["ok"] is True
        if label == "construct":
            if report["dims"] != op["root"] or report["exceptional"] is not True:
                return False
            rep = report["rep"]
            quiver = op["quiver"]
            mats = []
            for (t, h), flat in zip(quiver[1], rep["mats"]):
                c = op["root"][t - 1]
                mats.append([flat[i * c:(i + 1) * c] for i in range(op["root"][h - 1])])
            return all(residue_rank_check(quiver, op["root"], _residue_entries(op["ring"], mats, p), p)
                       for p in residue_primes(op["ring"]))
        if label == "ext":
            return report["homFreeRank"] - report["extFreeRank"] == op["chi"]
        raise ValueError(label)
