"""The JSON loaders on generated values: they return or raise a QuivlatError.

RingSpec.parse, Quiver.from_json and Rep.from_json are where outside data
enters the package, and they call the constructors of RingSpec, Quiver,
ExactMatrix and Rep.  Each is fed JSON values straight, with no file and
no command line between: any JSON value at all, and records that have the
right keys with values that are often right, so that most examples reach
the constructors' own checks.  Whatever the value, the call returns an
instance or raises a QuivlatError, and nothing else escapes.  The runs
are derandomised and each example has a deadline.
"""

from datetime import timedelta

from hypothesis import given, settings, strategies as st

from quivlat.errors import QuivlatError
from quivlat.quiver import Quiver, Rep
from quivlat.rings import RingSpec

GOOD_SPECS = ("Z", "Q", "F:2", "F:3", "Zmod:6", "Feps:2:2", " Z")
SPECS = GOOD_SPECS + ("F:4", "Zmod:1", "Feps:3:0", "Feps:2:99", "Zmod:-4", "F:+3", "R", "",
                      "1/0")
leaves = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
          | st.sampled_from((2 ** 70, -2 ** 70, 10 ** 4, 10 ** 4 + 1))
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from(SPECS + ("1/2", "-3/4", "2/0", "x")) | st.text(max_size=5))
json_values = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=8)
small = st.integers(-1, 3)


def maybe(right):
    """Mostly a value of the right shape, else any JSON value."""
    return st.one_of(right, right, right, json_values)


quivers = st.fixed_dictionaries({
    "vertices": maybe(small),
    "arrows": maybe(st.lists(maybe(st.lists(maybe(small), min_size=2, max_size=2)),
                             max_size=3)),
})
QUIVERS = ({"vertices": 1, "arrows": []}, {"vertices": 2, "arrows": [[1, 2]]},
           {"vertices": 2, "arrows": [[1, 2], [1, 2]]}, {"vertices": 1, "arrows": [[1, 1]]})
entries = (st.integers(-3, 3) | st.lists(st.integers(-3, 3), max_size=3)
           | st.sampled_from(("1/2", "-3/4", "2/0", "x", 2 ** 70, 1.5, True)))


@st.composite
def reps(draw):
    """A representation record whose matrices fit its dimensions, often a
    valid one, with each field now and then replaced by any JSON value."""
    quiver = draw(st.sampled_from(QUIVERS))
    dims = draw(st.lists(st.integers(0, 2), min_size=quiver["vertices"],
                         max_size=quiver["vertices"]))
    sizes = [dims[h - 1] * dims[t - 1] for t, h in quiver["arrows"]]
    record = {"ring": draw(st.sampled_from(GOOD_SPECS * 3 + SPECS)), "quiver": quiver,
              "dims": dims,
              "mats": [draw(st.lists(entries, min_size=n, max_size=n)) for n in sizes]}
    for key in sorted(record):
        if draw(st.sampled_from((False,) * 5 + (True,))):
            record[key] = draw(json_values)
    return record


FUZZ = settings(derandomize=True, deadline=timedelta(seconds=1), max_examples=400)


def _returns_or_refuses(load, value, cls):
    try:
        result = load(value)
    except QuivlatError:
        return
    assert type(result) is cls or isinstance(result, cls), (value, result)


@given(maybe(st.sampled_from(SPECS)))
@FUZZ
def test_ring_specs(value):
    _returns_or_refuses(RingSpec.parse, value, RingSpec)


@given(maybe(quivers))
@FUZZ
def test_quiver_records(value):
    _returns_or_refuses(Quiver.from_json, value, Quiver)


@given(reps() | json_values)
@FUZZ
def test_representation_records(value):
    _returns_or_refuses(Rep.from_json, value, Rep)
