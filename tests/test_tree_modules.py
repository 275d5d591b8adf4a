"""Every exceptional lattice the walk builds is a tree module.

Ringel ("Exceptional modules are tree modules", Linear Algebra Appl. 1998)
shows that an exceptional representation has a basis in which its
coefficient quiver is a tree: the vertices are the basis vectors, one edge
joins the basis vector c at the tail of an arrow to r at its head for each
nonzero entry (r, c) of the arrow's matrix.  The lattices over Z that
exceptional_lattice builds by mutation keep that form: for every root the
walk reaches at bound 40, on the quivers of test_summand_peel.py and the
wild 1=>2=>3, the coefficient quiver is connected with total - 1 edges, and
every entry is +-1.  A change to mutation or to the elimination order of
hom_ext that fills the lattices in fails here.

Stdlib only, so it also runs without pytest:
    PYTHONPATH=src python tests/test_tree_modules.py
"""

from quivlat.mutation import _walk
from quivlat.quiver import Quiver, Rep
from quivlat.rings import ZZ
from quivlat.structure import exceptional_lattice
from test_summand_peel import QUIVERS as PEEL_QUIVERS

QUIVERS = dict(PEEL_QUIVERS, wild=Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3))))
BOUND = 40


def coefficient_edges(x):
    """The coefficient quiver's edges, ((tail, c), (head, r), entry), one
    per nonzero entry of an arrow matrix."""
    q = x.quiver
    return [((q.tail(a), c), (q.head(a), r), v)
            for a, m in enumerate(x.mats)
            for r, row in enumerate(m.entries)
            for c, v in enumerate(row) if v]


def is_connected(dims, edges) -> bool:
    """Whether the basis vectors (vertex, index) are joined by edges."""
    parent = {(v, i): (v, i) for v, d in enumerate(dims) for i in range(d)}

    def root(node):
        while parent[node] != node:
            parent[node] = node = parent[parent[node]]
        return node
    for u, w, _ in edges:
        parent[root(u)] = root(w)
    return len({root(node) for node in parent}) <= 1


def test_every_lattice_at_bound_40_is_a_tree_module():
    counts = {}
    for name, quiver in QUIVERS.items():
        roots = list(_walk(quiver, BOUND, None).full()[1])
        for dims in roots:
            x = exceptional_lattice(quiver, dims, ZZ, bound=BOUND)
            edges = coefficient_edges(x)
            what = (name, dims)
            assert len(edges) == sum(dims) - 1, what
            assert all(v in (1, -1) for *_, v in edges), what
            assert is_connected(dims, edges), what
        counts[name] = len(roots)
    # the walk's roots at bound 40: every quiver contributes, the wild one most
    assert counts["kronecker"] == 40 and counts["triangle"] == 56, counts
    assert counts["wild"] == 132 and sum(counts.values()) == 279, counts


def test_the_tree_test_sees_a_filled_in_or_split_lattice():
    # a dense (2,2) on the Kronecker quiver: too many edges
    kron = QUIVERS["kronecker"]
    dense = Rep.from_matrix_rows(ZZ, kron, (2, 2), [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    assert len(coefficient_edges(dense)) > 3
    # the simple at 1 (+) the simple at 2: no edge, two components
    split = Rep.from_matrix_rows(ZZ, kron, (1, 1), [[[0]], [[0]]])
    assert coefficient_edges(split) == [] and not is_connected(split.dims, [])
    # a path joining three basis vectors is connected, and one at 2 alone is not
    path = Rep.from_matrix_rows(ZZ, kron, (1, 2), [[[1], [0]], [[0], [1]]])
    assert is_connected(path.dims, coefficient_edges(path))
    half = Rep.from_matrix_rows(ZZ, kron, (1, 2), [[[1], [0]], [[0], [0]]])
    assert not is_connected(half.dims, coefficient_edges(half))


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
