"""The braid orbit over non-domains against the base change of the Z orbit.

mutation.left_mutate and right_mutate run over every supported ring: on an
exceptional pair the universal map is split injective or split surjective
at every vertex, so its kernel or cokernel is free.  The reference is the
orbit over Z: orbit_search over Zmod:m or F_p[e]/(e^n) must see the Z
orbit's dimension vectors in the same order, and each witness must be
isomorphic to the base change of the Z witness.  Zmod:6 is not local; its
Hom modules stay free because hom - ext = <e, f> on every local factor,
with one side zero.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_ring_orbits.py
"""

from quivlat.mutation import orbit_search, standard_sequence
from quivlat.quiver import Quiver, base_change
from quivlat.rings import Feps, ZZ, Zmod, canonical_hom
from quivlat.structure import is_isomorphic_rigid

A3 = Quiver(3, ((1, 2), (2, 3)))
K2 = Quiver(2, ((1, 2), (1, 2)))
TRIANGLE = Quiver(3, ((1, 2), (2, 3), (1, 3)))
WALKED = ((K2, 12), (A3, 7), (TRIANGLE, 7))
RINGS = (Zmod(4), Zmod(9), Zmod(6), Feps(2, 2), Feps(3, 2))


def test_orbits_over_non_domains_are_base_changes_of_the_z_orbit():
    for quiver, bound in WALKED:
        z_orbit = orbit_search(standard_sequence(ZZ, quiver), bound=bound)
        assert len(z_orbit) > quiver.vertex_count, (quiver, bound)
        for ring in RINGS:
            orbit = orbit_search(standard_sequence(ring, quiver), bound=bound)
            assert list(orbit) == list(z_orbit), (quiver, str(ring))
            hom = canonical_hom(ZZ, ring)
            for dims, witness in orbit.items():
                assert witness.ring == ring
                assert is_isomorphic_rigid(
                    witness, base_change(z_orbit[dims], hom)), (quiver, str(ring), dims)


if __name__ == "__main__":
    import sys
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
    print("all passed on Python", sys.version.split()[0])
