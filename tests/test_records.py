"""The twelve frozen value classes behave as the dataclasses they replace.

Each builds alike from positional and keyword arguments, defaults
included; is equal only to an equal instance of its own class, with an
equal hash; prints the repr the dataclass printed (the literals below are
that repr); refuses assignment and deletion with AttributeError; and
survives copy.deepcopy and pickle equal to itself, checked for every ring
kind and for a Rep, and for MutationResults whose witnesses are built on
their first read, copied both before and after one is read.
"""

import copy
import pickle

import pytest

from quivlat.elimination import ModulePresentation, NormalFormResult, normal_form
from quivlat.mutation import (ExcSequence, MutationResult, left_mutate, right_mutate,
                              standard_sequence)
from quivlat.quiver import Quiver, Rep, RepMorphism, projective_rep
from quivlat.rings import QQ, ZZ, ExactMatrix, Feps, GF, RingHom, RingSpec, Zmod
from quivlat.structure import GenericDims, RigidDecomposition

A2 = Quiver(2, ((1, 2),))
ONE = ExactMatrix(ZZ, 1, 1, ((1,),))
X = Rep(ZZ, A2, (1, 1), (ONE,))
ID = RepMorphism.identity(X)
SEQ = standard_sequence(ZZ, A2)
NF = normal_form(ONE)
Z_ = "RingSpec(kind='Z', p=0, m=0, n=0)"
ONE_ = "ExactMatrix(ring=%s, rows=1, cols=1, entries=((1,),))" % Z_

# class -> (positional arguments, the same as keywords, the repr of either)
CASES = {
    RingSpec: (("Zmod", 0, 4), {"kind": "Zmod", "m": 4},
               "RingSpec(kind='Zmod', p=0, m=4, n=0)"),
    ExactMatrix: ((ZZ, 1, 1, ((1,),)), {"ring": ZZ, "rows": 1, "cols": 1, "entries": ((1,),)},
                  ONE_),
    NormalFormResult: ((ONE, ONE, ONE, "Smith", ONE, ONE),
                       {"nf": ONE, "left": ONE, "right": ONE, "kind": "Smith",
                        "left_inverse": ONE, "right_inverse": ONE},
                       "NormalFormResult(nf=%s, left=%s, right=%s, kind='Smith', "
                       "left_inverse=%s, right_inverse=%s)" % ((ONE_,) * 5)),
    ModulePresentation: ((ZZ, 2, (0,)), {"ring": ZZ, "generators": 2, "invariant_factors": (0,)},
                         "ModulePresentation(ring=%s, generators=2, invariant_factors=(0,))"
                         % Z_),
    RingHom: ((ZZ, GF(2)), {"source": ZZ, "target": GF(2)},
              "RingHom(source=%s, target=RingSpec(kind='F', p=2, m=0, n=0))" % Z_),
    Quiver: ((2, ((1, 2),)), {"vertex_count": 2, "arrows": ((1, 2),)},
             "Quiver(vertex_count=2, arrows=((1, 2),))"),
    Rep: ((ZZ, A2, (1, 1), (ONE,)), {"ring": ZZ, "quiver": A2, "dims": (1, 1), "mats": (ONE,)},
          "Rep(Z, dims=[1, 1])"),
    RepMorphism: ((X, X, ID.vertex_maps), {"source": X, "target": X, "vertex_maps": ID.vertex_maps},
                  "RepMorphism([1, 1] -> [1, 1])"),
    MutationResult: (("Unchanged", X), {"kind": "Unchanged", "rep": X},
                     "MutationResult(kind='Unchanged', rep=Rep(Z, dims=[1, 1]), "
                     "universal_map=None, witness_in=None, witness_out=None)"),
    ExcSequence: ((SEQ.items,), {"items": SEQ.items}, "ExcSequence([(1, 0), (0, 1)])"),
    GenericDims: ((1, 0), {"hom_rank": 1, "ext_rank": 0}, "GenericDims(hom_rank=1, ext_rank=0)"),
    RigidDecomposition: ((((X, 1),), ((1, 1),), ID, ()),
                         {"summands": ((X, 1),), "ordering": ((1, 1),), "certificate": ID,
                          "evaluations": ()},
                         "RigidDecomposition(summands=((Rep(Z, dims=[1, 1]), 1),), "
                         "ordering=((1, 1),), certificate=RepMorphism([1, 1] -> [1, 1]), "
                         "evaluations=())"),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_construction_equality_hash_and_repr(cls):
    args, kwargs, text = CASES[cls]
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == repr(b) == text
    assert a != object() and object() != a


def test_defaults_and_equality_within_one_class():
    assert Quiver(3) == Quiver(3, ())
    assert ExactMatrix(ZZ, 0, 0) == ExactMatrix(ZZ, 0, 0, ())
    assert Rep(ZZ, Quiver(1), (2,)) == Rep(ZZ, Quiver(1), (2,), ())
    assert MutationResult("Unchanged", X) == MutationResult("Unchanged", X, None, None, None)
    assert RingSpec("F", p=5) == GF(5) and RingSpec.parse("Zmod:4") == Zmod(4)
    assert RingSpec("Z", 0, 0, 0) == ZZ
    assert QQ != ZZ and ZZ != QQ and GF(2) != Zmod(2) and Zmod(4) != Zmod(8)
    assert GenericDims(1, 0) != (1, 0) and ModulePresentation(ZZ, 1, ()) != ModulePresentation(
        QQ, 1, ())
    assert len({ZZ, RingSpec.parse("Z"), QQ, GF(2), RingSpec("F", p=2)}) == 3


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_fields_refuse_assignment_and_deletion(cls):
    args, kwargs, _ = CASES[cls]
    obj = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == kwargs[name]
    with pytest.raises(AttributeError):
        obj.extra = 1


RINGS = (ZZ, QQ, GF(2), GF(7), Zmod(4), Zmod(12), Feps(2, 2), Feps(3, 3))


@pytest.mark.parametrize("value", RINGS + (X, ONE, ID, SEQ, NF, RingHom(ZZ, Zmod(6))),
                         ids=repr)
def test_deepcopy_and_pickle_round_trips_are_equal(value):
    for twin in (copy.deepcopy(value), copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


S1, S2, P1 = Rep.simple(ZZ, A2, 1), Rep.simple(ZZ, A2, 2), projective_rep(ZZ, A2, 1)
MUTATIONS = {
    "left Hom case": lambda: left_mutate(P1, S1),
    "left extension": lambda: left_mutate(S1, S2),
    "right Hom case": lambda: right_mutate(P1, S1),
    "right extension": lambda: right_mutate(S1, S2),
}


@pytest.mark.parametrize("read", [False, True], ids=("unread", "read"))
@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS)
def test_mutation_results_round_trip_before_and_after_a_witness_is_read(mutate, read):
    value = mutate()
    if read:
        value.witness_in
    twins = (copy.deepcopy(value), copy.copy(value), pickle.loads(pickle.dumps(value)))
    for twin in twins:
        # a copy carries the recipe of witnesses not built yet, or the witnesses
        assert ("_recipe" in twin.__dict__) == ("_recipe" in value.__dict__)
    for twin in twins:
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value) and twin.witness_in is not None


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_copied_rings_keep_their_arithmetic(ring):
    twin = pickle.loads(pickle.dumps(ring))
    elements = list(ring.elements()) if ring.is_finite else [ring.canon(v) for v in (-2, 1, 3)]
    for a in elements[:6]:
        for b in elements[:6]:
            assert twin.mul(a, b) == ring.mul(a, b) and twin.add(a, b) == ring.add(a, b)
    rep = Rep(ring, A2, (1, 1), (ExactMatrix(ring, 1, 1, ((ring.one,),)),))
    assert pickle.loads(pickle.dumps(rep)) == rep
