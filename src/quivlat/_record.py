"""The frozen base of the package's value classes.

A record sets its fields once, in its own ``__init__``, straight into its
``__dict__``; copy and pickle restore that dict the same way.  Any other
assignment or deletion raises AttributeError.  The generic methods here
read the fields a class lists in ``_fields``: two records are equal when
they are of one class and their fields are equal, they hash as the tuple
of their fields, and the repr lists the fields by keyword.

Four classes state their own ``__eq__`` and ``__hash__`` on their fields,
because the benchmark traffic calls them.  Per lattice-orbit op (seed 1,
passes 0-2, 276 ops, each pass in a fresh process), RingSpec takes 24.9
``__eq__`` calls and 4.5 hashes, Quiver 9.4 and 4.4, ExactMatrix 0.5 and
3.2, and Rep 0.2 and 5.6; the hashes come from lookups in the caches kept
for the exceptionality checks, the walk and its replays.  The generic
methods read through one ``operator.attrgetter`` per class measured about
2x slower on CPython 3.11 (RingSpec ``__eq__`` 135 -> 300 ns, Rep 560 ->
1300 ns), and 1.3-1.5x slower on a slower 2-core host (RingSpec 210 -> 280
ns, Rep 1400 -> 2150 ns).  Every other record uses the methods here:
ModulePresentation and RepMorphism took no ``__eq__`` or ``__hash__`` call
in those ops, nor in 3 passes of homext-sweep (45 ops), where hom_ext,
which caches nothing, hashes nothing either: an op takes 2 ``__eq__``
calls each of Quiver and RingSpec, in its pair's compatibility checks.
"""


class Record:
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
