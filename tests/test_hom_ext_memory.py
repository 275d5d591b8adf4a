"""The memory hom_ext takes on a large Hom module.

The one-vertex representation of dimension 40 with no arrows has a Hom
complex of 1600 columns and no rows: Hom(X, X) is free of rank 1600 and
Ext^1(X, X) is zero.  hom_ext reads both modules off the invariant factors
of one elimination of the placed rows, and builds no dense matrix: no
differential and no relation matrix, which at 1600 x 1600 would take some
20 MB of references alone.  Its tracemalloc peak stays below 2 MB, over
F_2 (one forward elimination) and over Z (a worksheet).

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_hom_ext_memory.py
"""

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


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
