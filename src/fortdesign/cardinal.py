"""Symbolic cardinal numbers: naturals plus the alephs of any natural index.

The universe is deliberately small: every decision the library makes reduces
to order and membership comparisons between finite cardinalities and
``aleph0, aleph1, ...``, with no bound on the index; only ``sweep``'s case
budget bounds the ladder it walks.  There is no exponentiation, no cofinality
and no ordinal machinery; block-family sizes that the constructions name but
never evaluate are carried symbolically by :class:`LambdaValue`.
"""

from __future__ import annotations

__all__ = ["ALEPH0", "ALEPH1", "Cardinal", "LambdaValue", "csum"]

import re
from typing import NamedTuple

# The one spelling of a natural number in text input, the one ``str``
# prints: ASCII digits without leading zeros, so that no other spelling
# (other scripts' digits, underscores, signs, leading zeros) is read as one.
_NATURAL = re.compile(r"0|[1-9][0-9]*")


def parse_natural(text: str) -> int:
    """Read a natural number in its canonical spelling, after ``.strip()``."""
    digits = text.strip()
    if _NATURAL.fullmatch(digits) is None:
        raise ValueError(f"malformed natural number {text!r}")
    return int(digits)


def parse_points(text: str) -> list[int]:
    """Read a comma-separated list of distinct naturals; a blank text has
    none.  An empty item or a repeated point raises ``ValueError``."""
    if not text.strip():
        return []
    points = [parse_natural(item) for item in text.split(",")]
    if len(set(points)) != len(points):
        raise ValueError(f"repeated point in {text!r}")
    return points


def _exactly(kind: type, value, what: str):
    """The value itself if its type is exactly ``kind``, so no bool is an int."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


class _Validated:
    """The first base of a record that validates in ``__new__``.

    A NamedTuple body may not define ``__new__``, so a validated record
    subclasses ``_Validated`` first and its fields' NamedTuple second.  This
    ``_make``, which ``_replace`` calls, goes through ``__new__``; with the
    bases the other way round, NamedTuple's own unchecked ``_make`` wins.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _CardinalFields(NamedTuple):
    infinite: bool
    value: int


class Cardinal(_Validated, _CardinalFields):
    """A natural number or an aleph of any natural index.

    The field order ``(infinite, value)`` is the cardinal order: every finite
    cardinal precedes every aleph, finites order by value, alephs order by
    index.  Ordering, equality and hashing are those of the tuple, so they
    run in C.  Instances are immutable and hashable.
    """

    __slots__ = ()

    def __new__(cls, infinite: bool, value: int) -> "Cardinal":
        # exact types, so no float, str or bool value and no int flag passes
        _exactly(int, value, "cardinal value")
        _exactly(bool, infinite, "cardinal flag infinite")
        if value < 0:
            raise ValueError(f"cardinal value must be >= 0, got {value}")
        return tuple.__new__(cls, (infinite, value))

    # the one ordering, named in the class so it can be wrapped and restored
    __lt__ = tuple.__lt__

    @classmethod
    def finite(cls, n: int) -> "Cardinal":
        # the exact-int test of __new__ first, so True is not read as 1
        if type(n) is int and 0 <= n < _SHARED_FINITES:
            return _FINITES[n]
        return cls(False, n)

    @classmethod
    def aleph(cls, index: int) -> "Cardinal":
        return cls(True, index)

    def __str__(self) -> str:
        return f"aleph{self.value}" if self.infinite else str(self.value)

    def __repr__(self) -> str:
        return f"Cardinal.aleph({self.value})" if self.infinite else f"Cardinal.finite({self.value})"

    @classmethod
    def parse(cls, text: str) -> "Cardinal":
        """Inverse of ``str``: ``"3"`` or ``"aleph1"``, in canonical ASCII."""
        text = text.strip()
        index = text.removeprefix("aleph")
        try:
            n = parse_natural(index)
        except ValueError:
            n = None
        # parse_natural strips, but "aleph 1" is not what str prints
        if n is None or index[:1].isspace():
            raise ValueError(f"malformed cardinal {text!r}")
        return cls.finite(n) if index == text else cls.aleph(n)


# Finite cardinals below this are built once and shared by every
# Cardinal.finite call: descriptors of small sets ask for them constantly.
_SHARED_FINITES = 64
_FINITES = tuple(Cardinal(False, n) for n in range(_SHARED_FINITES))

ALEPH0 = Cardinal.aleph(0)
ALEPH1 = Cardinal.aleph(1)
ZERO = Cardinal.finite(0)
ONE = Cardinal.finite(1)


def csum(a: Cardinal, b: Cardinal) -> Cardinal:
    """Cardinal addition: natural addition on finites, max otherwise."""
    if not (a.infinite or b.infinite):
        return Cardinal.finite(a.value + b.value)
    return max(a, b)


class _LambdaFields(NamedTuple):
    value: Cardinal | None
    family: str | None


class LambdaValue(_Validated, _LambdaFields):
    """A design's block-multiplicity: an exact cardinal or a named family size.

    ``Exact`` values must be nonzero.  Family sizes (``card(W)`` etc.) stay
    symbolic: evaluating them would require set-theoretic assumptions the
    existence arguments never need.
    """

    __slots__ = ()

    def __new__(
        cls, value: Cardinal | None = None, family: str | None = None
    ) -> "LambdaValue":
        if (value is None) == (family is None):
            raise ValueError("LambdaValue is either exact or a family size")
        if family is None:
            if _exactly(Cardinal, value, "design multiplicity") < ONE:
                raise ValueError("design multiplicity must be >= 1")
        elif not _exactly(str, family, "family-size label"):
            raise ValueError("family-size label must be nonempty")
        return tuple.__new__(cls, (value, family))

    @classmethod
    def exact(cls, value: Cardinal) -> "LambdaValue":
        return cls(value=value)

    @classmethod
    def family_size(cls, label: str) -> "LambdaValue":
        return cls(family=label)

    def __str__(self) -> str:
        if self.value is not None:
            return str(self.value)
        return f"card({self.family})"
