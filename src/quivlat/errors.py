"""Error taxonomy shared by the whole package.

Every failure that a caller can provoke raises a subclass of QuivlatError
carrying a stable machine-readable ``code``: the subclass's own name, which
QuivlatError.__init_subclass__ sets, so no class states it.  The CLI maps
these to exit status 1 and a structured error record; anything else
escaping is a bug.
Every class here is raised somewhere in the package; a class left with no
raiser is dead taxonomy and tests/test_unused_imports.py rejects it.
"""

from __future__ import annotations


class QuivlatError(Exception):
    """Base class for all domain errors."""

    code = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class DimensionMismatch(QuivlatError):
    """A dimension vector, matrix shape or index does not fit where it is used."""


class IncompatibleRing(QuivlatError):
    """Objects over different rings were combined."""


class IncompatibleBase(QuivlatError):
    """Ring hom endpoints do not match the objects being transported."""


class NotProjective(QuivlatError):
    """A module that was required to be projective is not."""


class NotComputable(QuivlatError):
    """The requested operation is not defined over the given ring."""


class NonFreeCokernel(QuivlatError):
    """A vertexwise cokernel or kernel is not free (torsion, or projective
    but not free), so no representation on free modules presents it."""


class PreconditionViolated(QuivlatError):
    """An input lacks a property the operation requires."""


class NeitherMonoNorEpi(QuivlatError):
    """Universal map dichotomy failed; signals a bug, not a caller error."""


class CyclicQuiver(QuivlatError):
    """The operation needs an acyclic quiver."""


class NotSchurRoot(QuivlatError):
    """The dimension vector is not a real Schur root."""


class BoundExceeded(QuivlatError):
    """The search bound is too small to decide the question."""


class NotRigid(PreconditionViolated):
    """The representation has nonzero self-extensions: the precondition
    of every rigid operation."""


class PeelFailure(QuivlatError):
    """Evaluation map failed to split off a summand; signals a bug."""


class NotNilpotentKernel(QuivlatError):
    """The ring hom to lift along has a kernel that is not nilpotent."""


class TheoremViolation(QuivlatError):
    """An invariant guaranteed by the structure theory failed to hold."""


class ParseError(QuivlatError):
    """Malformed external input (ring spec, quiver or representation file)."""
