"""One rule for dimension vectors, whoever reads them.

A dimension vector is exact ints, one per vertex, none negative
(quiver._check_dims).  A vector that is short, has a negative entry, a
float or a bool is refused with one DimensionMismatch message by Rep,
Rep.from_matrix_rows, schur_root_status, exceptional_lattice and
generic_dims alike.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_dimension_vectors.py
"""

from quivlat.errors import DimensionMismatch
from quivlat.quiver import Quiver, Rep
from quivlat.rings import ZZ
from quivlat.structure import exceptional_lattice, generic_dims, schur_root_status

KRONECKER = Quiver(2, ((1, 2), (1, 2)))

# each bad vector and the message every reader refuses it with
BAD = {
    (1,): "need 2 dimensions, got 1",
    (1, -1): "negative dimension",
    (1.0, 2): "dimension vector entries must be ints, got (1.0, 2)",
    (True, 1): "dimension vector entries must be ints, got (True, 1)",
}

READERS = {
    "Rep": lambda v: Rep(ZZ, KRONECKER, v, ()),
    "Rep.from_matrix_rows": lambda v: Rep.from_matrix_rows(ZZ, KRONECKER, v, []),
    "schur_root_status": lambda v: schur_root_status(KRONECKER, v),
    "exceptional_lattice": lambda v: exceptional_lattice(KRONECKER, v),
    "generic_dims, first": lambda v: generic_dims(KRONECKER, v, (1, 0)),
    "generic_dims, second": lambda v: generic_dims(KRONECKER, (1, 0), v),
}


def _refusal(read, vector):
    try:
        read(vector)
    except DimensionMismatch as exc:
        return str(exc)
    return None


def test_every_reader_refuses_a_bad_vector_with_one_message():
    for vector, says in BAD.items():
        got = {name: _refusal(read, vector) for name, read in READERS.items()}
        assert got == dict.fromkeys(READERS, says), vector


if __name__ == "__main__":
    test_every_reader_refuses_a_bad_vector_with_one_message()
    print("ok test_every_reader_refuses_a_bad_vector_with_one_message")
