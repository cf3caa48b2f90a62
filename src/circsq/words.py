"""Core word algebra over plain ASCII strings.

A word is a nonempty ASCII string, one character per symbol.  All functions
are pure; the heavier machinery in the other modules builds on these
primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import ascii_lowercase
from typing import NamedTuple

__all__ = [
    "InvalidWordError",
    "CircularWord",
    "PrimitiveRoot",
    "validate_word",
    "rotations",
    "canonical_rotation",
    "is_primitive",
    "primitive_root",
    "factors",
    "circular_factors",
    "rename_by_first_occurrence",
]


class InvalidWordError(ValueError):
    """An operation received an empty or non-ASCII word."""


def validate_word(w: str) -> str:
    """Return ``w`` unchanged if it is a usable word, else raise.

    A usable word is a nonempty ASCII string; each character is one symbol.
    """
    if not isinstance(w, str):
        raise InvalidWordError(f"expected a string word, got {type(w).__name__}")
    if not w:
        raise InvalidWordError("the empty word is not accepted")
    if not w.isascii():
        raise InvalidWordError("words must be ASCII, one character per symbol")
    return w


def rotations(w: str) -> list[str]:
    """All ``len(w)`` cyclic rotations of ``w``, starting with ``w`` itself.

    The list may contain duplicates when ``w`` is a proper power.
    """
    validate_word(w)
    return [w[i:] + w[:i] for i in range(len(w))]


def canonical_rotation(w: str) -> str:
    """The lexicographically least rotation of ``w``."""
    validate_word(w)
    return min(w[i:] + w[:i] for i in range(len(w)))


@dataclass(frozen=True)
class CircularWord:
    """A conjugacy class of words, stored by its least rotation.

    Any representative may be passed to the constructor; it is normalized,
    so two circular words compare equal exactly when their classes match.
    """

    canonical: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "canonical", canonical_rotation(self.canonical))

    @property
    def n(self) -> int:
        return len(self.canonical)

    def rotations(self) -> list[str]:
        return rotations(self.canonical)

    def __str__(self) -> str:
        return f"[{self.canonical}]"


class PrimitiveRoot(NamedTuple):
    root: str
    exponent: int


def is_primitive(w: str) -> bool:
    """True when ``w`` is not a repetition ``u * k`` with ``k >= 2``.

    Uses the doubling trick: ``w`` occurs inside ``w + w`` at an interior
    position exactly when ``w`` is a proper power.
    """
    validate_word(w)
    return (w + w).find(w, 1) == len(w)


def primitive_root(w: str) -> PrimitiveRoot:
    """The unique primitive ``u`` and ``k >= 1`` with ``u * k == w``."""
    validate_word(w)
    n = len(w)
    i = (w + w).find(w, 1)
    if n % i:  # the least self-matching shift always divides n
        raise AssertionError(f"shift {i} does not divide length {n} for {w!r}")
    return PrimitiveRoot(w[:i], n // i)


def factors(w: str, m: int) -> set[str]:
    """The set of distinct length-``m`` factors of ``w``."""
    validate_word(w)
    if not 1 <= m <= len(w):
        raise ValueError(f"factor length {m} out of range 1..{len(w)}")
    return {w[i : i + m] for i in range(len(w) - m + 1)}


def circular_factors(w: str, m: int) -> set[str]:
    """Length-``m`` factors of the periodic extension of ``w``.

    For ``m < len(w)`` this is the factor set of ``w * 2``; for larger ``m``
    it is the set of length-``m`` periodic windows, one per distinct
    rotation.  Computed from an explicit power of ``w`` long enough that
    every window starting inside the first period fits.
    """
    validate_word(w)
    if m < 1:
        raise ValueError(f"factor length {m} must be positive")
    n = len(w)
    power = w * (m // n + 2)
    return {power[i : i + m] for i in range(n)}


def rename_by_first_occurrence(w: str) -> str:
    """Relabel symbols so they first appear in the order a, b, c, ...

    This is the least word in the alphabet-permutation orbit of ``w``.
    """
    validate_word(w)
    table: dict[str, str] = {}
    out = []
    for ch in w:
        if ch not in table:
            if len(table) >= len(ascii_lowercase):
                raise InvalidWordError("more than 26 distinct symbols")
            table[ch] = ascii_lowercase[len(table)]
        out.append(table[ch])
    return "".join(out)

