"""Exception types shared across the library, and the helpers their messages use."""

import sys


def _text(value: object) -> str:
    """A str's repr, a tuple's or list's entry texts in parentheses, or
    ``str()``: an int or Fraction as its ``p/q`` text."""
    if isinstance(value, (tuple, list)):
        return f"({', '.join(map(_text, value))})"
    return repr(value) if isinstance(value, str) else str(value)


def _shown(value: object) -> str:
    """The one text for a value in an error message, :func:`_text`; past 80
    characters its first 60 and its length (a str's own), so that one long
    value cannot flood stderr; past the int/str limit a placeholder."""
    try:
        text = _text(value)
    except ValueError:
        return f"<a value over the {sys.get_int_max_str_digits()}-digit integer limit>"
    if len(text) <= 80:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:60]}... ({size} characters)"


def _ends(text: str) -> str:
    """``text``, or past 160 characters its first and last 80 around its
    length: both ends of a long path, argparse message or list survive."""
    if len(text) <= 160:
        return text
    return f"{text[:80]}... ({len(text)} characters) ...{text[-80:]}"


def _over_limit(what: str) -> str:
    """The one message for ``what``, a value with more digits than the
    interpreter's int/str limit lets ``int()`` or ``str()`` convert."""
    return f"{what} exceeds the {sys.get_int_max_str_digits()}-digit integer limit"


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


class RationalError(OrthoError, ValueError):
    """A value is not a Fraction, an int (not a bool) or a "p/q" string."""


class PreconditionError(OrthoError, ValueError):
    """An operation's documented precondition does not hold."""


class RelationParseError(OrthoError, ValueError):
    """A serialized object does not match its JSON schema.

    ``location`` points at the offending element, e.g. ``points[3].frame``.
    """

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
