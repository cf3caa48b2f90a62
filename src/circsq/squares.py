"""Distinct-square and power-factor counting for linear and circular words.

Square detection is a deliberately naive quadratic scan; it is the oracle
everything else is held to.  Power factors come from a period table: one
prefix function per start position gives the smallest period of every factor,
and with it each power factor's primitive root and exponent, with no
primitivity test per factor.  They are grouped into classes keyed by the
canonical rotation of their root, split by exponent parity.  The quadratic
routes (the rotation union for circular squares, a primitivity test on every
factor for power factors) are kept as the oracles the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .words import (
    CircularWord,
    _least_rotation_index,
    canonical_rotation,
    is_primitive,
    primitive_root,
    validate_word,
)

__all__ = [
    "SquareSet",
    "PowerClass",
    "ClassDecomposition",
    "distinct_squares",
    "distinct_squares_circular",
    "distinct_squares_circular_via_doubling",
    "power_factors",
    "class_decomposition",
    "odd_even_counts",
    "decomposition_report",
]


@dataclass(frozen=True)
class SquareSet:
    """A set of distinct squares (words of shape ``u + u``)."""

    squares: frozenset[str]

    def __post_init__(self) -> None:
        for s in self.squares:
            half = len(s) // 2
            if len(s) % 2 or not s or s[:half] != s[half:]:
                raise ValueError(f"{s!r} is not a square")

    @property
    def count(self) -> int:
        return len(self.squares)

    def __len__(self) -> int:
        return len(self.squares)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.squares))

    def __contains__(self, s: str) -> bool:
        return s in self.squares


def distinct_squares(w: str) -> SquareSet:
    """All distinct nonempty squares occurring as factors of ``w``."""
    validate_word(w)
    n = len(w)
    found: set[str] = set()
    for half in range(1, n // 2 + 1):
        for i in range(n - 2 * half + 1):
            if w[i : i + half] == w[i + half : i + 2 * half]:
                found.add(w[i : i + 2 * half])
    return SquareSet(frozenset(found))


def distinct_squares_circular(cw: CircularWord) -> SquareSet:
    """Squares occurring in any rotation of the circular word."""
    found: set[str] = set()
    for v in set(cw.rotations()):
        found |= distinct_squares(v).squares
    return SquareSet(frozenset(found))


def distinct_squares_circular_via_doubling(cw: CircularWord) -> SquareSet:
    """Squares of the doubled word no longer than one period.

    Equals :func:`distinct_squares_circular` and serves as its independent
    route: a single scan of ``w * 2`` instead of a union over rotations.
    """
    n = cw.n
    doubled = cw.canonical * 2
    found = {s for s in distinct_squares(doubled).squares if len(s) <= n}
    return SquareSet(frozenset(found))


def _power_table(w: str) -> dict[str, tuple[str, int]]:
    """Every power factor of ``w`` mapped to its primitive root and exponent.

    For each start ``i`` one prefix-function pass over ``w[i:]`` gives the
    longest border ``b`` of each factor ``w[i:i + m]``, so its smallest period
    is ``p = m - b``.  The factor is a power ``u ** k`` with ``k >= 2`` exactly
    when ``p`` divides ``m`` and ``p <= m / 2``; then ``u = w[i:i + p]`` and
    ``k = m // p``.  ``w`` must already be validated.
    """
    n = len(w)
    table: dict[str, tuple[str, int]] = {}
    for i in range(n - 1):
        border = [0] * (n - i)
        b = 0
        for j in range(i + 1, n):
            c = w[j]
            while b and w[i + b] != c:
                b = border[b - 1]
            if w[i + b] == c:
                b += 1
            border[j - i] = b
            m = j - i + 1
            if 2 * b >= m:
                p = m - b
                if m % p == 0:
                    f = w[i : j + 1]
                    if f not in table:
                        table[f] = (w[i : i + p], m // p)
    return table


def power_factors(w: str) -> set[str]:
    """All factors of ``w`` that are integer powers ``p * k`` with ``k >= 2``."""
    validate_word(w)
    return set(_power_table(w))


@dataclass(frozen=True)
class PowerClass:
    """The power factors of a host word sharing one primitive root class.

    ``root`` is the canonical rotation of the primitive root; ``members``
    are all factors ``q ** k`` (``k >= 2``) whose root is conjugate to it,
    split into ``even`` and ``odd`` by exponent parity.
    """

    root: str
    members: frozenset[str]
    even: frozenset[str]
    odd: frozenset[str]

    def __post_init__(self) -> None:
        if not is_primitive(self.root) or canonical_rotation(self.root) != self.root:
            raise ValueError(f"root {self.root!r} must be primitive and canonical")
        if self.even | self.odd != self.members or self.even & self.odd:
            raise ValueError("even/odd must partition the members")
        for m in self.members:
            root, k = primitive_root(m)
            if k < 2 or canonical_rotation(root) != self.root:
                raise ValueError(f"{m!r} is not a power of a conjugate of {self.root!r}")
            if (m in self.even) != (k % 2 == 0):
                raise ValueError(f"{m!r} is on the wrong parity side")

    @classmethod
    def _trusted(cls, root, members, even, odd) -> PowerClass:
        """A class built from the period table, which makes it valid by construction.

        Skips ``__post_init__``: re-deriving every member's root there costs
        more than building the class.  Only :func:`class_decomposition` uses it.
        """
        pc = object.__new__(cls)
        pc.__dict__.update(root=root, members=members, even=even, odd=odd)
        return pc

    @property
    def root_length(self) -> int:
        return len(self.root)

    @property
    def t(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClassDecomposition:
    """All power classes of a host word, roots pairwise non-conjugate."""

    host: str
    classes: tuple[PowerClass, ...]


def class_decomposition(w: str) -> ClassDecomposition:
    """Partition the power factors of ``w`` by primitive-root conjugacy."""
    validate_word(w)
    keys: dict[str, str] = {}  # primitive root -> its canonical rotation
    groups: dict[str, tuple[set[str], set[str]]] = {}  # key -> (members, even)
    for q, (root, k) in _power_table(w).items():
        key = keys.get(root)
        if key is None:
            if len(root) == 1:
                key = root  # a one-letter root is its own least rotation
            else:
                r = _least_rotation_index(root)  # a factor of w, already validated
                key = root[r:] + root[:r]
            keys[root] = key
        members, even = groups.setdefault(key, (set(), set()))
        members.add(q)
        if k % 2 == 0:
            even.add(q)
    classes = []
    for key in sorted(groups, key=lambda r: (len(r), r)):
        members, even = groups[key]
        classes.append(
            PowerClass._trusted(key, frozenset(members), frozenset(even), frozenset(members - even))
        )
    return ClassDecomposition(w, tuple(classes))


def odd_even_counts(t: int, l: int) -> tuple[int, int]:
    """Predicted ``(|odd|, |even|)`` for a class of ``t`` members, root length ``l``.

    Write ``t = r * l + s`` with ``0 <= s < l``; the members then fill whole
    exponent levels 2..r+1 plus ``s`` extras at level r+2, and the parity
    counts follow from which levels are odd.
    """
    if t < 0 or l < 1:
        raise ValueError(f"need t >= 0 and l >= 1, got t={t}, l={l}")
    r, s = divmod(t, l)
    if r % 2 == 0:
        return (r // 2 * l, r // 2 * l + s)
    return ((r - 1) // 2 * l + s, (r + 1) // 2 * l)


def decomposition_report(w: str) -> dict:
    """JSON-ready summary: square counts plus per-class sizes."""
    decomp = class_decomposition(w)
    return {
        "word": w,
        "n": len(w),
        "sq": distinct_squares(w).count,
        "sq_circular": distinct_squares_circular_via_doubling(CircularWord(w)).count,
        "classes": [
            {
                "root": pc.root,
                "l": pc.root_length,
                "t": pc.t,
                "even": len(pc.even),
                "odd": len(pc.odd),
            }
            for pc in decomp.classes
        ],
    }
