"""Distinct-square and power-factor counting for linear and circular words.

The sweeps count circular squares with a bit-parallel kernel,
:func:`_circular_square_count`: one integer bit plane per bit of the letter
codes, so each half length costs a few shifts and masks instead of a slice
comparison per start.  Listing squares, linear or circular, is one
deliberately naive quadratic scan, :func:`_square_scan`, which is also the
kernel's oracle and the independent route of the class-parity cross-check;
the rotation union :func:`distinct_squares_circular` is kept as the oracle of
the doubled-word listing.  Power factors come from one scan of the word's
periodic runs: a power ``q ** k`` (``k >= 2``, ``q`` primitive) lies in a
maximal ``|q|``-periodic run, and its presence implies ``q ** (k - 1)``, so a
class keyed by the canonical rotation of its root is fully given by each
conjugate's top exponent, with no primitivity test per factor.  Period 1,
the root of most classes, is one pass over the letter runs; a longer run's
conjugates are sliced once, for its root and its tops.  The sweeps read
those tops; :func:`class_decomposition` spells them out as validated
:class:`PowerClass` member sets split by exponent parity, which only the CLI
and the tests build; a primitivity test on every factor is kept as their
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .words import (
    CircularWord,
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


def _square_scan(s: str, n: int) -> set[str]:
    """The distinct squares of ``s`` no longer than ``n`` that start before ``n``.

    ``_square_scan(w, len(w))`` gives the linear squares of ``w``, and
    ``_square_scan(w + w, len(w))`` its circular ones: a factor of length at
    most ``n`` starting at ``i >= n`` equals the one starting at ``i - n``.
    """
    found = set()
    for half in range(1, n // 2 + 1):
        fits = len(s) - 2 * half + 1  # starts at which a square of this half fits in s
        for i in range(n if n < fits else fits):
            if s[i : i + half] == s[i + half : i + 2 * half]:
                found.add(s[i : i + 2 * half])
    return found


# ``_BIT_TABLES[b]`` translates each ASCII letter to bit ``b`` of its code, as "0" or "1".
_BIT_TABLES = tuple("".join("01"[c >> b & 1] for c in range(128)) for b in range(7))


def _circular_square_count(w: str) -> int:
    """``len(_square_scan(w + w, len(w)))``, bit-parallel; ``w`` must already be validated.

    Bit ``j`` of a plane is one bit of the code of ``(w + w)[j]``, with one
    plane per bit on which the letters' codes differ; any one of those bits
    tells two letters apart, so one plane then suffices.  For a half ``h``
    the OR over planes of ``P ^ (P >> h)`` has bit ``j`` set where letters
    ``j`` and ``j + h`` differ, so a square of half ``h`` starts at ``i``
    exactly where the complement holds ``h`` set bits from bit ``i`` on;
    ANDing it with itself shifted by doubling steps leaves those starts.
    Only starts below ``n`` count, and their windows end before bit
    ``2n - h``, below which the shifted planes are exact.  A start ``i`` with
    another at ``i - h`` repeats that square (the run has period ``h``), so
    it is dropped, and a set of slices is built only when two or more starts
    are left.
    """
    n = len(w)
    s = w + w
    reverse = s[::-1]  # int(..., 2) reads its first digit as the top bit
    letters = set(w)
    first = ord(w[0])
    differ = 0
    for c in letters:
        differ |= ord(c) ^ first
    if len(letters) == 2:
        differ &= -differ
    planes = [
        int(reverse.translate(_BIT_TABLES[b]), 2)
        for b in range(differ.bit_length())
        if differ >> b & 1
    ]
    low = (1 << n) - 1
    full = (1 << 2 * n) - 1
    total = 0
    for h in range(1, n // 2 + 1):
        mismatch = 0
        for p in planes:
            mismatch |= p ^ (p >> h)
        x = full ^ mismatch
        run = 1
        while 2 * run <= h:
            x &= x >> run
            run *= 2
        if run < h:
            x &= x >> (h - run)
        x &= low
        x &= ~(x << h)
        if not x:
            continue
        if not x & (x - 1):  # one start
            total += 1
            continue
        found = set()
        while x:
            bit = x & -x
            i = bit.bit_length() - 1
            found.add(s[i : i + 2 * h])
            x ^= bit
        total += len(found)
    return total


def distinct_squares(w: str) -> SquareSet:
    """All distinct nonempty squares occurring as factors of ``w``."""
    return SquareSet(frozenset(_square_scan(validate_word(w), len(w))))


def distinct_squares_circular(cw: CircularWord) -> SquareSet:
    """Squares occurring in any rotation of the circular word."""
    found: set[str] = set()
    for v in set(cw.rotations()):
        found |= distinct_squares(v).squares
    return SquareSet(frozenset(found))


def distinct_squares_circular_via_doubling(cw: CircularWord) -> SquareSet:
    """Squares of the doubled word no longer than one period.

    Equals :func:`distinct_squares_circular` and serves as its independent
    route: one scan of the first ``n`` starts of ``w * 2`` instead of a
    union over rotations.
    """
    return SquareSet(frozenset(_square_scan(cw.canonical * 2, cw.n)))


def _class_tops(w: str) -> tuple[tuple[str, int, int, dict[str, int]], ...]:
    """The power classes of ``w`` as ``(root, t, even, tops)``, by root length, then root.

    ``root`` is the canonical rotation of the class's primitive root, and
    ``tops`` maps each conjugate ``q`` of it whose square occurs to the
    largest ``k`` with ``q ** k`` a factor.  Where ``q ** k`` occurs so does
    ``q ** (k - 1)``, so the members are ``q ** k`` for ``k = 2 .. tops[q]``:
    ``t`` of them, ``even`` with an even exponent.

    A factor ``q ** k`` with ``|q| = p`` lies in a maximal ``p``-periodic run
    of length at least ``2p``.  Period 1 is one pass over the letter runs: a
    letter whose longest run has length ``k >= 2`` is the class
    ``(c, k - 1, k // 2, {c: k})``.  For each longer period ``p`` in
    ascending order the runs are ``w[a:b + p]`` for the maximal stretches
    ``[a, b)`` of positions with ``w[j] == w[j + p]`` and ``b - a >= p``;
    probing every ``p``-th position, restarting ``p`` past each stretch, hits
    every such stretch.  A run's ``p``-prefix is primitive unless it has a
    shorter period, and then the same interval was a run at that period
    already (a letter run's interval included), so a repeated interval is
    dropped.  A run is at least ``2p`` long, so its first ``p`` windows are
    every rotation of its ``p``-prefix: they are sliced once, the least of
    them is the class root, and the conjugate at offset ``i`` of them reaches
    exponent ``(b + p - a - i) // p`` in the run.  A period's classes are
    grouped and sorted only when it has a run.  ``w`` must already be
    validated.
    """
    n = len(w)
    seen: set[tuple[int, int]] = set()
    letter_tops: dict[str, int] = {}
    a = 0
    while a < n - 1:
        c = w[a]
        e = a + 1
        while e < n and w[e] == c:
            e += 1
        if e - a > 1:
            seen.add((a, e))
            if e - a > letter_tops.get(c, 0):
                letter_tops[c] = e - a
        a = e
    classes = [(c, k - 1, k // 2, {c: k}) for c, k in sorted(letter_tops.items())]
    for p in range(2, n // 2 + 1):
        groups: dict[str, dict[str, int]] | None = None  # canonical root -> conjugate -> top
        last = n - p  # w[j + p] exists for j < last
        j = p - 1
        while j < last:
            if w[j] != w[j + p]:
                j += p
                continue
            a = j
            while a and w[a - 1] == w[a - 1 + p]:
                a -= 1
            b = j + 1
            while b < last and w[b] == w[b + p]:
                b += 1
            j = e = b + p
            if b - a < p or (a, e) in seen:
                continue
            seen.add((a, e))
            conjugates = [w[i : i + p] for i in range(a, a + p)]
            if groups is None:
                groups = {}
            tops = groups.setdefault(min(conjugates), {})
            for i in range(min(p, b - p + 1 - a)):
                q = conjugates[i]
                k = (e - a - i) // p
                if k > tops.get(q, 0):
                    tops[q] = k
        if groups is None:
            continue
        for root in sorted(groups):
            tops = groups[root]
            t = even = 0
            for k in tops.values():
                t += k - 1
                even += k // 2
            classes.append((root, t, even, tops))
    return tuple(classes)


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
    classes = []
    for root, _, _, tops in _class_tops(validate_word(w)):
        even = frozenset(q * k for q, top in tops.items() for k in range(2, top + 1, 2))
        odd = frozenset(q * k for q, top in tops.items() for k in range(3, top + 1, 2))
        classes.append(PowerClass(root, even | odd, even, odd))
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
