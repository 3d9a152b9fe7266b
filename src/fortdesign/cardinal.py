"""Symbolic cardinal numbers: naturals plus a short ladder of alephs.

The universe is deliberately small: every decision the library makes reduces
to order and membership comparisons between finite cardinalities and
``aleph0 .. aleph3``.  There is no exponentiation, no cofinality and no
ordinal machinery; block-family sizes that the constructions name but never
evaluate are carried symbolically by :class:`LambdaValue`.
"""

from __future__ import annotations

from dataclasses import dataclass

# Highest aleph index the symbolic universe admits.
MAX_ALEPH_INDEX = 3


@dataclass(frozen=True, order=True)
class Cardinal:
    """A natural number or an aleph with a small finite index.

    The field order ``(infinite, value)`` is the cardinal order: every finite
    cardinal precedes every aleph, finites order by value, alephs order by
    index.  Instances are immutable and hashable.
    """

    infinite: bool
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"cardinal value must be >= 0, got {self.value}")
        if self.infinite and self.value > MAX_ALEPH_INDEX:
            raise ValueError(
                f"aleph index {self.value} exceeds the supported ladder "
                f"(max {MAX_ALEPH_INDEX})"
            )

    @classmethod
    def finite(cls, n: int) -> "Cardinal":
        return cls(False, n)

    @classmethod
    def aleph(cls, index: int) -> "Cardinal":
        return cls(True, index)

    @property
    def is_finite(self) -> bool:
        return not self.infinite

    def __str__(self) -> str:
        return f"aleph{self.value}" if self.infinite else str(self.value)

    def __repr__(self) -> str:
        return f"Cardinal.aleph({self.value})" if self.infinite else f"Cardinal.finite({self.value})"

    @classmethod
    def parse(cls, text: str) -> "Cardinal":
        """Inverse of ``str``: ``"3"`` or ``"aleph1"``."""
        text = text.strip()
        if text.startswith("aleph"):
            suffix = text[len("aleph"):]
            if not suffix.isdigit():
                raise ValueError(f"malformed cardinal {text!r}")
            return cls.aleph(int(suffix))
        if not text.isdigit():
            raise ValueError(f"malformed cardinal {text!r}")
        return cls.finite(int(text))


ALEPH0 = Cardinal.aleph(0)
ALEPH1 = Cardinal.aleph(1)
ZERO = Cardinal.finite(0)
ONE = Cardinal.finite(1)


def csum(a: Cardinal, b: Cardinal) -> Cardinal:
    """Cardinal addition: natural addition on finites, max otherwise."""
    if a.is_finite and b.is_finite:
        return Cardinal.finite(a.value + b.value)
    return max(a, b)


# Labels for family sizes the constructions name but never evaluate.
FAMILY_W = "W"
FAMILY_L = "L"
FAMILY_W_CONTAINING_C = "{E in W : C subset E}"


@dataclass(frozen=True)
class LambdaValue:
    """A design's block-multiplicity: an exact cardinal or a named family size.

    ``Exact`` values must be nonzero.  Family sizes (``card(W)`` etc.) stay
    symbolic: evaluating them would require set-theoretic assumptions the
    existence arguments never need.
    """

    value: Cardinal | None = None
    family: str | None = None

    def __post_init__(self) -> None:
        if (self.value is None) == (self.family is None):
            raise ValueError("LambdaValue is either exact or a family size")
        if self.value is not None and self.value < ONE:
            raise ValueError("design multiplicity must be >= 1")
        if self.family is not None and not self.family:
            raise ValueError("family-size label must be nonempty")

    @classmethod
    def exact(cls, value: Cardinal) -> "LambdaValue":
        return cls(value=value)

    @classmethod
    def family_size(cls, label: str) -> "LambdaValue":
        return cls(family=label)

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        if self.value is not None:
            return str(self.value)
        return f"card({self.family})"
