"""The memory hom_ext takes on a large Hom module.

The one-vertex representation of dimension 40 with no arrows has a Hom
complex of 1600 columns and no rows: Hom(X, X) is free of rank 1600 and
Ext^1(X, X) is zero.  hom_ext reads both modules off the invariant factors
of one elimination of the placed rows, and builds no dense matrix: no
differential and no relation matrix, which at 1600 x 1600 would take some
20 MB of references alone.  Its tracemalloc peak stays below 2 MB, over
F_2 (one forward elimination) and over Z (a worksheet).

The Kronecker pair (1, 0), (0, 6000) has C0 = 0, so its Hom complex is
12000 empty rows, yet Ext is free of rank 12000 on 12000 generators:
reading its cocycles would fill 144 million cells.  In a child process
under a 1 GiB address-space limit the ranks answer and the read is refused
with NotComputable, over Z and over F_2, where it once raised MemoryError.
Each read charges the cells it fills, so the same cap refuses a vector read
on a bare matrix: the cokernel of the 12000 x 0 zero matrix over Z, the
kernel of the 0 x 12000 one over F_2, and the cokernel projection of the
12000 x 0 zero matrix over Z and over F_2, the kernel of its transpose,
each 12000 vectors of length 12000; the normal form of either zero
matrix, whose transforms are 12000 x 12000; and solve of the 1 x 12000
zero system over Z and Z/4, whose solution block is 12000 x 12000 (over
F_2 its rows share one zero row, and it answers).  A direct sum charges the
dense block it fills at each arrow before it builds any: tensor_free of a
Kronecker (1, 1) rep with k = 10^6, which once raised MemoryError, and
with k = 5000, two blocks of 25 million cells, is refused at once.

hom_ext keeps no result, so a child reading the Ext cocycles of 1000
distinct Z Kronecker (4, 5) pairs peaks below 60 MB RSS; it peaked at
167-188 MB while every result stayed cached.

The Hom complex is charged at least a dict per placed row and a set per
column, so a complex of many empty rows or columns is refused before it is
placed: the Kronecker pairs (n, 0), (0, n) for n = 2000 and 3000 (C0 = 0,
C1 = 2n^2 rows), which once raised MemoryError, and the one-vertex rep of
dimension 2000 (C0 = 4 million columns, C1 = 0), in Python and through
``quivlat ext``.  A decision that reads no vector pays for its complex
alone, so three cheap inputs the cap once refused answer under the same
limit: is_rigid of the one-vertex rep of dimension 67 and decompose_rigid
of the Kronecker sum (20,21) + (21,22), each within 2 s, and the cokernel
projection of the 4500 x 4500 identity over F_2, with no row.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_hom_ext_memory.py
"""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

from quivlat.homology import hom_ext
from quivlat.quiver import Quiver, Rep
from quivlat.rings import GF, ZZ

POINT = Quiver(1, ())
PEAK_BYTES = 2 * 10 ** 6


def hom_ext_peak(ring, dim=40):
    """The tracemalloc peak, in bytes, of hom_ext(x, x) for the one-vertex
    rep x of the given dimension, and its result."""
    x = Rep(ring, POINT, (dim,), ())
    tracemalloc.start()
    try:
        he = hom_ext(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, he


def test_dimension_40_point_rep_peaks_below_2_mb():
    for ring in (GF(2), ZZ):
        peak, he = hom_ext_peak(ring)
        assert he.hom.free_rank == 1600 and he.hom.is_free and he.ext.is_zero, str(ring)
        assert peak < PEAK_BYTES, (str(ring), peak)


# Run in the child: one JSON line per ring, the Ext rank and what reading
# the cocycles raised.
EXT_READ = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quivlat.homology import hom_ext
from quivlat.quiver import Quiver, Rep
from quivlat.rings import ExactMatrix, RingSpec
K = Quiver(2, ((1, 2), (1, 2)))
for spec in ("Z", "F:2"):
    ring = RingSpec.parse(spec)
    x = Rep(ring, K, (1, 0), (ExactMatrix.zeros(ring, 0, 1),) * 2)
    y = Rep(ring, K, (0, 6000), (ExactMatrix.zeros(ring, 6000, 0),) * 2)
    he = hom_ext(x, y)
    try:
        he.ext_cocycles
        raised = None
    except Exception as exc:
        raised = [type(exc).__name__, str(exc)]
    print(json.dumps([spec, he.ext.free_rank, raised]))
"""


def _run_capped(script: str) -> list:
    """The JSON lines a script prints in a child under the 1 GiB limit."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_an_ext_read_above_the_cap_is_refused_not_allocated():
    lines = _run_capped(EXT_READ)
    says = "12000 vectors of 12000 entries would fill 144000000 cells, above the cap"
    for (ring, rank, raised), spec in zip(lines, ("Z", "F:2"), strict=True):
        assert (ring, rank) == (spec, 12000)
        assert raised is not None and raised[0] == "NotComputable", (spec, raised)
        assert raised[1].startswith(says), (spec, raised)


# Run in the child: one JSON line per read, what it raised.
MATRIX_READ = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quivlat.elimination import cokernel_data, cokernel_projection, kernel_data, normal_form
from quivlat.rings import ExactMatrix, GF, ZZ
for read, mat in ((cokernel_data, ExactMatrix.zeros(ZZ, 12000, 0)),
                  (kernel_data, ExactMatrix.zeros(GF(2), 0, 12000)),
                  (cokernel_projection, ExactMatrix.zeros(ZZ, 12000, 0)),
                  (cokernel_projection, ExactMatrix.zeros(GF(2), 12000, 0)),
                  (normal_form, ExactMatrix.zeros(ZZ, 12000, 0)),
                  (normal_form, ExactMatrix.zeros(GF(2), 12000, 0)),
                  (normal_form, ExactMatrix.zeros(ZZ, 0, 12000)),
                  (normal_form, ExactMatrix.zeros(GF(2), 0, 12000))):
    try:
        read(mat)
        raised = None
    except Exception as exc:
        raised = [type(exc).__name__, str(exc)]
    print(json.dumps(raised))
"""


def test_a_matrix_vector_read_above_the_cap_is_refused_not_allocated():
    lines = _run_capped(MATRIX_READ)
    assert len(lines) == 8
    for raised in lines:
        assert raised is not None and raised[0] == "NotComputable", raised
        assert raised[1].startswith(
            "12000 vectors of 12000 entries would fill 144000000 cells, above the cap"), raised


# Run in the child: one JSON line per pair, what hom_ext raised.
HOM_COMPLEX = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quivlat.homology import hom_ext
from quivlat.quiver import Quiver, Rep
from quivlat.rings import ExactMatrix, RingSpec
K = Quiver(2, ((1, 2), (1, 2)))
for spec in ("F:2", "Z"):
    ring = RingSpec.parse(spec)
    pairs = [(Rep(ring, K, (n, 0), (ExactMatrix.zeros(ring, 0, n),) * 2),
              Rep(ring, K, (0, n), (ExactMatrix.zeros(ring, n, 0),) * 2)) for n in (2000, 3000)]
    point = Rep(ring, Quiver(1, ()), (2000,), ())
    for x, y in pairs + [(point, point)]:
        try:
            hom_ext(x, y)
            raised = None
        except Exception as exc:
            raised = [type(exc).__name__, str(exc)]
        print(json.dumps(raised))
"""


def test_a_hom_complex_of_empty_rows_or_columns_is_refused_not_placed():
    says = ("the Hom complex of (2000, 0) and (0, 2000) would fill 64000256 cells",
            "the Hom complex of (3000, 0) and (0, 3000) would fill 144000256 cells",
            "the Hom complex of (2000,) and (2000,) would fill 128000256 cells")
    for raised, start in zip(_run_capped(HOM_COMPLEX), says * 2, strict=True):
        assert raised is not None and raised[0] == "NotComputable", raised
        assert raised[1].startswith(start), raised


# Run in the child: one JSON line per call, the dims it answers or what it
# raised, and its seconds.
DIRECT_SUM = """
import json, resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quivlat.quiver import Quiver, Rep, direct_sum_many, tensor_free
from quivlat.rings import ExactMatrix, ZZ
K = Quiver(2, ((1, 2), (1, 2)))
x = Rep(ZZ, K, (1, 1), (ExactMatrix(ZZ, 1, 1, ((1,),)), ExactMatrix(ZZ, 1, 1, ((0,),))))
for run in (lambda: tensor_free(x, 10 ** 6), lambda: tensor_free(x, 5000),
            lambda: direct_sum_many([x] * 5000), lambda: tensor_free(x, 100)):
    start = time.perf_counter()
    try:
        out = [list(run().dims), None]
    except Exception as exc:
        out = [None, [type(exc).__name__, str(exc)]]
    print(json.dumps(out + [time.perf_counter() - start]))
"""


def test_a_direct_sum_block_above_the_cap_is_refused_not_allocated():
    # each arrow of the k-fold sum of a Kronecker (1, 1) rep is a k x k dense
    # block: k = 10**6 once died with MemoryError, and k = 5000 fills
    # 2 x 25 million cells; both are refused at once, k = 100 answers
    huge, tensor, summed, small = _run_capped(DIRECT_SUM)
    for (dims, raised, seconds), k in zip((huge, tensor, summed), (10 ** 6, 5000, 5000)):
        assert dims is None and raised[0] == "NotComputable", raised
        assert raised[1] == ("the %d x %d block of arrow 1 of a direct sum would fill %d "
                             "cells, above the cap 20000000" % (k, k, k * k)), raised
    assert huge[2] < 0.1 and tensor[2] < 0.1, (huge, tensor)
    assert small[:2] == [[100, 100], None], small


# Run in the child: one JSON line per ring, the shape solve answers or what
# it raised.
SOLVE = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quivlat.elimination import solve
from quivlat.rings import ExactMatrix, RingSpec
for spec in ("Z", "Zmod:4", "F:2"):
    a = ExactMatrix.zeros(RingSpec.parse(spec), 1, 12000)
    try:
        x = solve(a, a)
        print(json.dumps([spec, [x.rows, x.cols], None]))
    except Exception as exc:
        print(json.dumps([spec, None, [type(exc).__name__, str(exc)]]))
"""


def test_a_solution_block_above_the_cap_is_refused_not_allocated():
    # a sheet fills the 12000 x 12000 block of X; over a field the rows no
    # pivot sets share one zero row, so F:2 answers
    says = "12000 vectors of 12000 entries would fill 144000000 cells, above the cap"
    z, zmod, f2 = _run_capped(SOLVE)
    for spec, (ring, shape, raised) in zip(("Z", "Zmod:4"), (z, zmod)):
        assert ring == spec and shape is None, (spec, shape)
        assert raised[0] == "NotComputable" and raised[1].startswith(says), (spec, raised)
    assert f2 == ["F:2", [12000, 12000], None]


# Run in the child: the process's peak RSS, in MB, after reading the Ext
# cocycles of pairs of random Z Kronecker (4, 5) reps, all distinct.  The
# peak is VmHWM, which exec resets; ru_maxrss, read where /proc is missing,
# keeps the parent's peak at fork.
COCYCLE_LOOP = """
import json, random, resource, sys
from quivlat.homology import hom_ext
from quivlat.quiver import Quiver
from quivlat.rings import ZZ
from quivlat.verify import random_rep
K = Quiver(2, ((1, 2), (1, 2)))
rng = random.Random(1)
for _ in range(int(sys.argv[1])):
    hom_ext(random_rep(ZZ, K, (4, 5), rng), random_rep(ZZ, K, (4, 5), rng)).ext_cocycles
try:
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps(kb / 1024))
"""


def cocycle_loop_peak_mb(pairs=1000):
    """Peak RSS, in MB, of a child reading the Ext cocycles of that many
    distinct Z Kronecker (4, 5) pairs: hom_ext keeps no result, so it stays
    near the interpreter's own."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", COCYCLE_LOOP, str(pairs)], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_long_loop_of_distinct_pairs_keeps_no_results():
    # the results once stayed cached: 167 MB after 1000 pairs, 583 after 3000
    peak = cocycle_loop_peak_mb()
    assert peak < 60, peak


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_quivlat_ext_on_a_large_empty_kronecker_pair_exits_with_a_typed_error():
    # two records of about 100 bytes each; the pair's 18 million Hom complex
    # rows once raised MemoryError with a traceback
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for dims in ((3000, 0), (0, 3000)):
            paths.append(os.path.join(tmp, "%d_%d.json" % dims))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump({"ring": "Z", "quiver": {"vertices": 2, "arrows": [[1, 2], [1, 2]]},
                           "dims": list(dims), "mats": [[], []]}, fh)
        proc = subprocess.run(
            [sys.executable, "-m", "quivlat.cli", "ext", "--rep-x", paths[0],
             "--rep-y", paths[1], "--format", "json"],
            capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
            env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"] == "NotComputable", report
    assert report["message"].startswith(
        "the Hom complex of (3000, 0) and (0, 3000) would fill 144000256 cells"), report


# Run in the child: one JSON line per call, its answer and its seconds.
CHEAP_ANSWERS = """
import json, resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quivlat.homology import is_rigid
from quivlat.quiver import Quiver, Rep, direct_sum_many
from quivlat.elimination import cokernel_projection
from quivlat.rings import ExactMatrix, GF
from quivlat.structure import decompose_rigid, exceptional_lattice
K = Quiver(2, ((1, 2), (1, 2)))
point = Rep(GF(2), Quiver(1, ()), (67,), ())
pair = direct_sum_many([exceptional_lattice(K, (20, 21)), exceptional_lattice(K, (21, 22))])
eye = ExactMatrix.identity(GF(2), 4500)
for run in (lambda: is_rigid(point),
            lambda: [[list(rep.dims), m] for rep, m in decompose_rigid(pair).summands],
            lambda: cokernel_projection(eye).rows):
    start = time.perf_counter()
    answer = run()
    print(json.dumps([answer, time.perf_counter() - start]))
"""


def test_cheap_decisions_the_cap_once_refused_answer():
    lines = _run_capped(CHEAP_ANSWERS)
    (rigid, rigid_s), (summands, decompose_s), (rows, _) = lines
    assert rigid is True and rigid_s < 2, lines
    assert summands == [[[20, 21], 1], [[21, 22], 1]] and decompose_s < 2, lines
    assert rows == 0, lines


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
