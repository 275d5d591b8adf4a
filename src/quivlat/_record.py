"""The frozen base of the package's value classes.

A record sets its fields once, in its own ``__init__``, straight into its
``__dict__``; copy and pickle restore that dict the same way.  Any other
assignment or deletion raises AttributeError.  The generic methods here
read the fields a class lists in ``_fields``: two records are equal when
they are of one class and their fields are equal, they hash as the tuple
of their fields, and the repr lists the fields by keyword.  The classes
built most often state their own ``__eq__`` and ``__hash__`` on their
fields, which run faster than these generic ones.
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
