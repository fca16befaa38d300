"""Exception types shared across the library."""


class OrthoError(Exception):
    """Base class for every error this library raises on purpose."""


class ShapeError(OrthoError, ValueError):
    """Inputs have mismatched or unsupported dimensions."""


class SpanMembershipError(OrthoError, ValueError):
    """A point does not lie in the span of the given frame."""


class GenerationError(OrthoError, RuntimeError):
    """Rejection sampling exceeded its iteration cap."""


class SymmetryError(OrthoError, ValueError):
    """A Gram matrix candidate is not symmetric."""


class DefinitenessError(OrthoError, ValueError):
    """A Gram matrix candidate is not positive definite.

    ``minor_index`` is the 1-based size of the first leading principal
    minor that failed to be strictly positive.
    """

    def __init__(self, message: str, minor_index: int):
        super().__init__(message)
        self.minor_index = minor_index


class DependentFrameError(OrthoError, ValueError):
    """Vectors offered as a frame are linearly dependent."""


class DuplicatePointError(OrthoError, ValueError):
    """A relation holds the same (frame, point) pair twice."""


class ChainOrderError(OrthoError, ValueError):
    """A chain member is not a subset of the next one."""


class ZeroVectorError(OrthoError, ValueError):
    """The zero vector was supplied where a nonzero one is required."""


class NoViolationError(OrthoError, ValueError):
    """A witness was requested for a pair that is already orthogonal."""


class UsageError(OrthoError, ValueError):
    """A command-line flag is invalid, or conflicts with another flag."""


class OutputLimitError(OrthoError, ValueError):
    """A value has more digits than the interpreter's int/str limit allows
    to write as text."""


class PreconditionError(OrthoError, ValueError):
    """An operation's documented precondition does not hold."""


class RelationParseError(OrthoError, ValueError):
    """A serialized object does not match its JSON schema.

    ``location`` points at the offending element, e.g. ``points[3].frame``.
    """

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
