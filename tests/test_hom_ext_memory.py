"""The memory hom_ext takes on a large Hom module.

The one-vertex representation of dimension 40 with no arrows has a Hom
complex of 1600 columns and no rows: Hom(X, X) is free of rank 1600 and
Ext^1(X, X) is zero.  hom_ext reads both modules off the invariant factors
of one elimination of the placed rows, and builds no dense matrix: no
differential and no relation matrix, which at 1600 x 1600 would take some
20 MB of references alone.  Its tracemalloc peak stays below 2 MB, over
F_2 (one forward elimination) and over Z (a worksheet).

The Kronecker pair (1, 0), (0, 6000) has C0 = 0, so its Hom complex needs
no cell, yet Ext is free of rank 12000 on 12000 generators: reading its
cocycles would fill 144 million cells.  In a child process under a 1 GiB
address-space limit the ranks answer and the read is refused with
NotComputable, over Z and over F_2, where it once raised MemoryError.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_hom_ext_memory.py
"""

import json
import os
import subprocess
import sys
import tracemalloc

from quivlat import homology
from quivlat.homology import hom_ext
from quivlat.quiver import Quiver, Rep
from quivlat.rings import GF, ZZ

POINT = Quiver(1, ())
PEAK_BYTES = 2 * 10 ** 6


def hom_ext_peak(ring, dim=40):
    """The tracemalloc peak, in bytes, of hom_ext(x, x) on a cold cache for
    the one-vertex rep x of the given dimension, and its result."""
    x = Rep(ring, POINT, (dim,), ())
    homology._hom_ext_cached.cache_clear()
    tracemalloc.start()
    try:
        he = hom_ext(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        homology._hom_ext_cached.cache_clear()
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


def test_an_ext_read_above_the_cap_is_refused_not_allocated():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", EXT_READ], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    says = "the Ext cocycles of (1, 0) and (0, 6000) need 144000000 cells, above the cap"
    for line, spec in zip(proc.stdout.splitlines(), ("Z", "F:2"), strict=True):
        ring, rank, raised = json.loads(line)
        assert (ring, rank) == (spec, 12000)
        assert raised is not None and raised[0] == "NotComputable", (spec, raised)
        assert raised[1].startswith(says), (spec, raised)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
