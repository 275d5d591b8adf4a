"""Error taxonomy shared by the whole package.

Every failure that a caller can provoke raises a subclass of QuivlatError
carrying a stable machine-readable ``code``.  The CLI maps these to exit
status 1 and a structured error record; anything else escaping is a bug.
"""

from __future__ import annotations


class QuivlatError(Exception):
    """Base class for all domain errors."""

    code = "Error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class DimensionMismatch(QuivlatError):
    code = "DimensionMismatch"


class IncompatibleRing(QuivlatError):
    code = "IncompatibleRing"


class IncompatibleBase(QuivlatError):
    """Ring hom endpoints do not match the objects being transported."""

    code = "IncompatibleBase"


class NotProjective(QuivlatError):
    """A module that was required to be projective is not."""

    code = "NotProjective"


class NotComputable(QuivlatError):
    """The requested operation is not defined over the given ring."""

    code = "NotComputable"


class NonFreeCokernel(QuivlatError):
    """Vertexwise cokernel has torsion, so no representation on free modules exists."""

    code = "NonFreeCokernel"


class Inconclusive(QuivlatError):
    """A bounded search was exhausted without settling the question."""

    code = "Inconclusive"


class PreconditionViolated(QuivlatError):
    code = "PreconditionViolated"


class NeitherMonoNorEpi(QuivlatError):
    """Universal map dichotomy failed; signals a bug, not a caller error."""

    code = "NeitherMonoNorEpi"


class CyclicQuiver(QuivlatError):
    code = "CyclicQuiver"


class NotSchurRoot(QuivlatError):
    code = "NotSchurRoot"


class BoundExceeded(QuivlatError):
    code = "BoundExceeded"


class NotRigid(QuivlatError):
    code = "NotRigid"


class AmbiguousDecomposition(QuivlatError):
    """Candidate-root combination absent or not unique; signals a bug."""

    code = "AmbiguousDecomposition"


class PeelFailure(QuivlatError):
    """Evaluation map failed to split off a summand; signals a bug."""

    code = "PeelFailure"


class NotNilpotentKernel(QuivlatError):
    code = "NotNilpotentKernel"


class TheoremViolation(QuivlatError):
    """An invariant guaranteed by the structure theory failed to hold."""

    code = "TheoremViolation"


class ParseError(QuivlatError):
    """Malformed external input (ring spec, quiver or representation file)."""

    code = "ParseError"
