"""Exception hierarchy.

Every domain error names the offending entity (face, descriptor field,
ray, ...) in its message so batch reports stay actionable.
"""


class SncxError(Exception):
    """Base class for all domain errors raised by this package."""


# -- complex construction ---------------------------------------------------

class DuplicateFace(SncxError):
    pass


class DanglingFace(SncxError):
    pass


class GradingViolation(SncxError):
    pass


class BadDeltaStructure(SncxError):
    pass


class LevelNotDownwardClosed(SncxError):
    pass


class NotRegularCW(SncxError):
    """A face poset that is not the face poset of a regular CW complex."""


# -- structural operations --------------------------------------------------

class MissingDeltaStructure(SncxError):
    pass


class NoSuchFace(SncxError):
    pass


class NotAVertex(SncxError):
    pass


class NoFiltration(SncxError):
    pass


class HasFixedFace(SncxError):
    pass


class NotInvolution(SncxError):
    pass


class QuotientNotRegular(SncxError):
    pass


# -- homology / groups ------------------------------------------------------

class BoundaryNotSquareZero(SncxError):
    pass


class NotConnected(SncxError):
    pass


# -- transforms -------------------------------------------------------------

class DescriptorInvalid(SncxError):
    pass


class PairingNotUnique(SncxError):
    pass


class PairingIncomplete(SncxError):
    pass


class MatchingNotAcyclic(SncxError):
    pass


class NotMaximal(SncxError):
    pass


class BadMultiplicity(SncxError):
    pass


class ScriptError(SncxError):
    """Raised by script replay; carries the index of the first failing step."""

    def __init__(self, index, cause):
        self.index = index
        self.cause = cause
        super().__init__(f"step {index}: {type(cause).__name__}: {cause}")


# -- strata / fans ----------------------------------------------------------

class MissingParent(SncxError):
    pass


class ParentIncoherent(SncxError):
    pass


class NonPrimitiveRay(SncxError):
    pass


class NotSubsetClosed(SncxError):
    pass


# -- Newton polyhedra -------------------------------------------------------

class DimensionTooHigh(SncxError):
    pass


class EmptyInput(SncxError):
    pass


class NotFullDimensional(SncxError):
    pass
