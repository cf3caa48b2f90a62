"""Exhaustive verification sweeps and extremal search over circular words.

Available check ids (run one or all over a :class:`SweepConfig`):

- ``bound-5-3``: every circular word has at most 5n/3 distinct squares.
- ``bound-nonprimitive``: proper powers stay within 3n/2.
- ``circuit-rank``: small circuits per order are independent and their total
  is at most n minus the alphabet size; every circuit found is an elementary
  closed walk, so all circuits of an order span at most its cycle space.
- ``class-circuits``: a power class of size t with root length l produces a
  small circuit at each order l .. l+t-1.  One reach per class answers every
  order: the longest L such that every length-L window of the root repeated
  forever is a factor of the word; the circuit at order o is there exactly
  when o + 1 <= L.
- ``class-parity``: per-class odd/even counts obey the parity bounds and,
  for the usual level structure, the exact level formula; even totals
  reproduce the distinct-square count.
- ``splits``: split decompositions are edge-disjoint and sum to the root
  length, and never happen within one order of the root length.
- ``case-bounds``: classify each primitive word by how its circuit family
  splits and assert the bound that classification implies.
- ``count-chain``: on the doubled word, short-rooted power counts equal the
  realized small circuits (read from each class's reach) and are dominated
  by the total independence capacity, itself at most 2n.
- ``large-circuit``: built-in high-power instances where every near-top
  order is rank-deficient without its long circuit.

Sweeps enumerate canonical representatives: first-occurrence-renamed
words for linear-word properties, and for circular ones the words least
under rotation plus renaming, generated directly instead of filtered out of
the renamed words.  One loop runs the FKM necklace successor over renamed
prenecklaces on integer letter ids; it drops every prefix that holds a run
longer than the leading ``a`` run, since a rotation starting at that run
renames below the word, and its least-in-orbit test, on the ids, renames
only the rotations starting a run exactly as long as the leading one.  The
graph checks (``circuit-rank``, ``count-chain``, ``large-circuit``) cut each
order's factor graph as integer ids straight from the word and read its
facts from one bounded LRU memo keyed by the graph's code string and the
circuit cap, since the search reads nothing but the graph: the sorted
circuit lengths from the one circuit search in :mod:`circsq.rauzy`, the
exact rank of each prefix of the circuits so sorted, and whether every
circuit is an elementary closed walk, a guard that bounds their rank by the
cycle space's dimension and stops the elimination there.  Each check reads
its small circuits as a prefix of the sorted lengths.  ``circuit-rank``
stops at its first tree order, since every higher order is then a path.
The class checks (``class-parity``, ``class-circuits``, ``count-chain``)
read each power class as its conjugates' top exponents, from one scan of
the word's periodic runs, and count its members from them.  The bound checks
count circular squares with the bit-parallel kernel of :mod:`circsq.squares`;
``class-parity`` compares its even-power totals with linear squares listed by
the naive scan, a route independent of that kernel.  The checks that read
one word stream share its one pass per length, which the parent enumerates
into its suite's one ordered feed of chunks, swept in process or by one
pool, and compute a shared fact once per word.  A sweep can checkpoint, at
one cadence under any number of jobs, to a line-oriented file whose v3
header fingerprints its config.  Each per-word evaluator writes straight
into the :class:`CheckReport` of the chunk it sweeps: it appends violations,
flagged entries and a word its circuit cap skipped, offers its ratio as the
witness, and adds to stats through :meth:`CheckReport.count`.  Chunks, restored
levels and built-in instances are all :class:`CheckReport` values folded by
:meth:`CheckReport.merge`.
"""

from __future__ import annotations

import json
import multiprocessing
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, islice, product
from operator import itemgetter
from string import ascii_lowercase
from typing import Callable

from . import rauzy
from .rauzy import _MAX_CODED_VERTICES, DEFAULT_CIRCUIT_CAP, _index_graphs, circuit_root
from .squares import (
    _circular_square_count,
    _class_tops,
    _square_scan,
    odd_even_counts,
)
from .words import (
    circular_factors,
    is_primitive,
    rename_by_first_occurrence,
    validate_word,
)

__all__ = [
    "CHECK_ORDER",
    "SweepConfig",
    "CheckReport",
    "SuiteReport",
    "resolve_checks",
    "run_check",
    "run_suite",
    "check_large_circuit",
    "LARGE_CIRCUIT_INSTANCES",
    "search_extremal",
    "necklace_form",
    "circular_square_count",
]

_CHECKPOINT_MAGIC = "circsq-checkpoint v3"
_CHECKPOINT_FLUSH_EVERY = 2000  # stream words of a level between two records
_CHECKPOINT_LISTS = ("violations", "flagged", "skipped")
_CHECKPOINT_KEYS = frozenset(
    ("done", "last", "tested", "ratio", "witness", "stats") + _CHECKPOINT_LISTS
)


# ---------------------------------------------------------------------------
# canonical enumeration


def necklace_form(w: str) -> str:
    """Least representative under rotation plus alphabet renaming.

    The plain definition, kept as the oracle of the generated necklace stream.
    """
    best = rename_by_first_occurrence(w)
    for i in range(1, len(w)):
        cand = rename_by_first_occurrence(w[i:] + w[:i])
        if cand < best:
            best = cand
    return best


def _iter_rename_canonical(k: int, n: int):
    """Words whose symbols first appear in order a, b, c, ... (lex order)."""
    letters = ascii_lowercase[:k]
    buf: list[str] = []

    def rec(pos: int, used: int):
        if pos == n:
            yield "".join(buf)
            return
        for c in range(min(used + 1, k)):
            buf.append(letters[c])
            yield from rec(pos + 1, used + (1 if c == used else 0))
            buf.pop()

    yield from rec(0, 0)


_ID_LETTERS = bytes.maketrans(bytes(range(26)), ascii_lowercase.encode())  # id -> letter


def _is_orbit_least(ids: bytearray, run: list[int], lead: int) -> bool:
    """True when the renamed necklace with letter ids ``ids`` is its :func:`necklace_form`.

    Precondition: the word comes straight from :func:`_iter_necklaces`, so
    it is first-occurrence renamed, its own least plain rotation, and holds
    no run longer than ``lead``, the length of its leading ``a`` run;
    ``run[j]`` is the length of the run that ends at ``j``.  The orbit
    minimum is the renamed form of some rotation, and a rotation starting
    with the letter ``x`` renames to ``a^r`` and then ``b``, where ``r`` is
    the length of the ``x`` run it starts with.  A rotation that starts
    inside a run, or at a run shorter than ``lead``, has ``b`` where the
    word has ``a``, so it renames above the word.  Only the rotations that
    start a run of exactly ``lead`` letters are renamed, lazily, up to their
    first difference with the word; their first ``lead + 1`` letters already
    agree.  Such a run ends at ``e`` with ``run[e] == lead``, and none wraps
    into the leading one: a non-constant necklace does not end in ``a``.
    """
    n = len(ids)
    for e in range(2 * lead - 1, n):
        if run[e] != lead:
            continue
        s = e + 1 - lead
        names = {ids[s]: 0, ids[e + 1 - n]: 1}
        for j in range(lead + 1, n):
            c = ids[s + j - n]  # ids[(s + j) % n]
            x = names.get(c)
            if x is None:
                x = names[c] = len(names)
            if x != ids[j]:
                if x < ids[j]:
                    return False
                break
    return True


def _iter_necklaces(k: int, n: int):
    """Renamed words of length ``n`` over ``k`` letters that are their own :func:`necklace_form`.

    One loop, in one generator frame, over the FKM successor (Ruskey,
    Savage and Wang, "Generating necklaces", 1992) restricted to
    first-occurrence-renamed prenecklaces, in lex order.  It keeps the
    letter ids ``a``, the bound ``top[j] = min(max(a[:j]) + 2, k)`` on the
    letter at ``j``, and ``p``, the length of the longest Lyndon prefix.
    Each step increments the last letter ``a[i]`` (``i >= 1``) that is still
    below its bound, sets ``p = i + 1`` and refills the rest periodically,
    ``a[j] = a[j - p]``.  A word is a necklace candidate when ``p`` divides
    ``n``, and is kept when no rotation of it renames to a smaller word
    (unlabeled necklaces, as in Cattell, Ruskey, Sawada, Serra and Miers,
    2000), which :func:`_is_orbit_least` decides on the ids.

    Run prune: ``run[j]`` is the length of the run ending at ``j`` and
    ``lead`` the index of the first non-``a`` letter, which only decreases.
    A prefix holding a run longer than ``lead`` is dropped with every word
    extending it, since the rotation starting at that run renames below the
    word, and the successor search resumes at that run's end.  Only the
    incremented letter can close such a run: the refill copies the runs of
    the Lyndon prefix ``a[:p]``, ``run[j] = run[j - p]``, since ``a[:p]``
    ends in a non-``a`` letter and so cannot run on into the copy's leading
    ``a``.  The word string is joined only for kept words.
    """
    a = bytearray(n)  # letter ids; a renamed word starts with a
    run = list(range(1, n + 1))
    top = [2] + [min(2, k)] * (n - 1)  # top[0] = 2 stops the search at i = 0
    lead = n
    p = 1
    while True:
        if n % p == 0 and _is_orbit_least(a, run, lead):
            yield a.translate(_ID_LETTERS).decode()
        i = n - 1
        while True:
            while a[i] + 1 >= top[i]:
                i -= 1
            if i == 0:
                return
            c = a[i] = a[i] + 1
            r = run[i] = run[i - 1] + 1 if a[i - 1] == c else 1
            if i < lead:
                lead = i
            if r <= lead:
                break
        p = i + 1
        if p < n:
            t = top[i] if c + 1 < top[i] else min(c + 2, k)
            for j in range(p, n):
                a[j] = a[j - p]
                run[j] = run[j - p]
                top[j] = t


def circular_square_count(w: str) -> int:
    """Number of distinct squares across all rotations of ``w``.

    These are the squares of ``w + w`` no longer than ``len(w)``.  That set is
    the same for every rotation of ``w``, so ``w`` need not be its least
    rotation (swept necklaces already are; :func:`search_extremal` passes
    any word).  They are counted by the bit-parallel kernel of
    :mod:`circsq.squares`, not listed.
    """
    return _circular_square_count(validate_word(w))


# Every memo of the package.  The one-entry memos hold facts that several
# checks of a stream read, word by word; the graph memo holds the facts of
# the graphs a sweep's words share.  Each looks its function up per call, so
# a wrapper or patch installed there still sees every computation.
_square_count = lru_cache(maxsize=1)(lambda w: circular_square_count(w))
_classes = lru_cache(maxsize=1)(lambda w: _class_tops(w))
_split_point = lru_cache(maxsize=1)(lambda p: rauzy._split_point(p))
_split_circuits = lru_cache(maxsize=1)(lambda p, m: rauzy._split_circuits(p, m))

# Distinct graphs the memo keeps, one key space for every graph check.  The
# words of a level share most of their graphs: circuit-rank looks up 2,628
# graphs on the (3,8) level, 662 of them distinct, and 39,834 over a sweep to
# (3,10), 4,683 distinct, all of which fit (at 1,024 that sweep missed 8,512).
# count-chain's doubled necklaces hold 326 graphs among 2,035 circuit-bearing
# orders at (2,11), 580 among 4,075 at (2,12) and 552 among 4,975 at (3,9).
_GRAPH_MEMO = 8192
_graph_facts = lru_cache(maxsize=_GRAPH_MEMO)(
    lambda size, codes, cap: rauzy._graph_facts(size, codes, cap)
)


# ---------------------------------------------------------------------------
# configuration and reports


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one verification sweep."""

    alphabet_size: int = 2
    max_length: int = 8
    checks: frozenset[str] = field(default_factory=lambda: frozenset(CHECK_ORDER))
    canonicalize: bool = True
    checkpoint_path: str | None = None
    seed: int = 0
    jobs: int = 1
    circuit_cap: int = DEFAULT_CIRCUIT_CAP

    def __post_init__(self) -> None:
        if not 1 <= self.alphabet_size <= 26:
            raise ValueError(f"alphabet size {self.alphabet_size} out of range 1..26")
        if self.max_length < 1:
            raise ValueError("max length must be at least 1")
        if not self.checks:
            raise ValueError("at least one check id is required")
        unknown = set(self.checks) - set(CHECK_ORDER)
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.circuit_cap < 1:
            raise ValueError("circuit cap must be at least 1")


def resolve_checks(selector: str) -> frozenset[str]:
    """Turn ``"all"``, one check id or a comma list ``"a,b,..."`` of ids into a check set."""
    if selector == "all":
        return frozenset(CHECK_ORDER)
    ids = selector.split(",")
    for cid in ids:
        if cid not in CHECK_ORDER:
            raise ValueError(
                f"unknown check id {cid!r}; choose from {', '.join(CHECK_ORDER)} or all"
            )
    return frozenset(ids)


@dataclass
class CheckReport:
    """Outcome of one check: counts, violations, and the extremal witness."""

    check_id: str
    alphabet_size: int
    max_length: int
    canonicalize: bool
    seed: int
    jobs: int
    words_tested: int = 0
    violations: list[tuple[str, str]] = field(default_factory=list)
    flagged: list[tuple[str, str]] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    max_ratio: Fraction | None = None
    witness: str | None = None
    stats: dict[str, int] = field(default_factory=dict)

    @classmethod
    def for_config(cls, check_id: str, cfg: SweepConfig) -> "CheckReport":
        return cls(
            check_id=check_id,
            alphabet_size=cfg.alphabet_size,
            max_length=cfg.max_length,
            canonicalize=cfg.canonicalize,
            seed=cfg.seed,
            jobs=cfg.jobs,
        )

    @property
    def passed(self) -> bool:
        return not self.violations

    def count(self, key: str, val: int = 1) -> None:
        """Add ``val`` to the stat ``key``; a first count creates it, even at 0."""
        self.stats[key] = self.stats.get(key, 0) + val

    def merge(self, other: "CheckReport") -> None:
        """Fold in a report over words that come after this one's in stream order."""
        self.words_tested += other.words_tested
        self.violations.extend(other.violations)
        self.flagged.extend(other.flagged)
        self.skipped.extend(other.skipped)
        r = other.max_ratio
        if r is not None:
            self._offer(r.numerator, r.denominator, other.witness)
        for key, val in other.stats.items():
            self.count(key, val)

    def _offer(self, s: int, n: int, word: str) -> None:
        # Only a strictly greater ratio s/n replaces the witness, so the first
        # witness in stream order wins and --jobs N agrees with --jobs 1; the
        # Fraction is built only when it wins.
        r = self.max_ratio
        if r is None or s * r.denominator > r.numerator * n:
            self.max_ratio, self.witness = Fraction(s, n), word

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "config": {
                "alphabet_size": self.alphabet_size,
                "max_length": self.max_length,
                "canonicalize": self.canonicalize,
                "seed": self.seed,
                "jobs": self.jobs,
            },
            "words_tested": self.words_tested,
            "violations": [list(v) for v in self.violations],
            "flagged": [list(v) for v in self.flagged],
            "skipped": list(self.skipped),
            "max_ratio": None if self.max_ratio is None else str(self.max_ratio),
            "witness": self.witness,
            "stats": dict(sorted(self.stats.items())),
            "passed": self.passed,
        }


@dataclass
class SuiteReport:
    """Reports of several checks run over one configuration."""

    reports: list[CheckReport]

    @property
    def violations_total(self) -> int:
        return sum(len(r.violations) for r in self.reports)

    @property
    def passed(self) -> bool:
        return self.violations_total == 0

    def to_dict(self) -> dict:
        return {
            "reports": [r.to_dict() for r in self.reports],
            "violations_total": self.violations_total,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# per-word evaluators


def _eval_bound_5_3(w: str, cfg: SweepConfig, rep: CheckReport) -> None:
    n = len(w)
    s = _square_count(w)
    rep._offer(s, n, w)
    if 3 * s > 5 * n:
        rep.violations.append((w, f"Sq={s} exceeds 5n/3 with n={n}"))
    if 2 * s > 3 * n:
        rep.flagged.append((w, f"Sq={s} exceeds 3n/2 with n={n}"))
        rep.count("ratio_above_3_2")


def _eval_bound_nonprimitive(w: str, cfg: SweepConfig, rep: CheckReport) -> None:
    n = len(w)
    s = _square_count(w)
    rep._offer(s, n, w)
    if 2 * s > 3 * n:
        rep.violations.append((w, f"Sq={s} exceeds 3n/2 with n={n}"))


def _eval_circuit_rank(w: str, cfg: SweepConfig, rep: CheckReport) -> None:
    n = len(w)
    sc_total = 0
    for i, size, codes in _index_graphs(w, range(1, n)):
        if len(codes) == size - 1:
            # a connected graph with |E| = |V| - 1 is a tree, so every
            # length-(i+1) factor occurs once and every higher order is a path
            break
        facts = _graph_facts(size, codes, cfg.circuit_cap)
        if facts is None:
            rep.skipped.append(w)
            return
        lengths, ranks, closed = facts
        n_small = bisect_right(lengths, i)  # small: no longer than the order
        sc_total += n_small
        if ranks[n_small] != n_small:
            rep.violations.append((w, f"small circuits at order {i} are dependent"))
        if not closed:
            rep.violations.append((w, f"a circuit at order {i} is not an elementary closed walk"))
    bound = n - len(set(w))
    if sc_total > bound:
        rep.violations.append((w, f"sc={sc_total} exceeds n-|alphabet|={bound}"))
    rep.count("small_circuits", sc_total)


def _class_reach(w: str, p: str) -> int:
    """The largest ``L <= len(w)`` such that all ``len(p)`` windows of length ``L``
    of ``p`` repeated forever are factors of ``w``.

    A window occurs only if all its prefixes do, so the first window's reach
    is found by bisection over ``[0, len(w)]``.  ``L`` only shrinks from
    offset to offset, so at the other offsets it counts down from there.
    The reach is not seeded from the class's tops, whose prediction
    class-circuits checks against it.  For primitive ``p`` and an
    order ``o >= len(p)`` the class circuit of ``p`` at ``o`` has ``len(p)``
    distinct vertices, and it lies in the factor graph of ``w`` exactly when
    ``o + 1 <= reach``: one reach per class answers every order.  ``w`` is
    trusted and ``p`` is a class root.
    """
    ext = p * (len(w) // len(p) + 2)
    reach, hi = 0, len(w)
    while reach < hi:
        mid = (reach + hi + 1) // 2
        if ext[:mid] in w:
            reach = mid
        else:
            hi = mid - 1
    for i in range(1, len(p)):
        while reach and ext[i : i + reach] not in w:
            reach -= 1
    return reach


def _eval_class_circuits(w: str, cfg: SweepConfig, rep: CheckReport) -> None:
    predicted = 0
    realized = 0
    beyond = 0
    for p, t, _, _ in _classes(w):
        l = len(p)
        predicted += t
        reach = _class_reach(w, p)
        realized += max(0, min(t, reach - l))
        for order in range(max(l, reach), l + t):
            rep.violations.append((w, f"class {p} (t={t}) has no small circuit at order {order}"))
        beyond += max(0, reach - t - l)
    rep.count("predicted", predicted)
    rep.count("realized", realized)
    if beyond:
        rep.count("beyond_window", beyond)


def _has_level_structure(tops: dict[str, int], t: int, l: int) -> bool:
    """Exponent sets are {2..r+1} on every conjugate plus s extras at r+2.

    A conjugate's exponents run from 2 to its top, so only the tops are read:
    each must be r+1 or r+2, with exactly s at r+2.  Tops that pass give
    c*r + s members on the c conjugates present, and there are t = l*r + s of
    them, so every conjugate is present once r >= 1.
    """
    r, s = divmod(t, l)
    extras = 0
    for k in tops.values():
        if k == r + 2:
            extras += 1
        elif k != r + 1:
            return False
    return extras == s


def _eval_class_parity(w: str, cfg: SweepConfig, rep: CheckReport) -> None:
    even_total = 0
    for p, t, n_even, tops in _classes(w):
        l, n_odd = len(p), t - n_even
        even_total += n_even
        if not n_odd <= n_even <= n_odd + l:
            rep.violations.append(
                (w, f"class {p}: |O|={n_odd} |E|={n_even} l={l} breaks parity bounds")
            )
        if 2 * n_odd < t - l:
            rep.violations.append((w, f"class {p}: |O|={n_odd} below (t-l)/2 with t={t} l={l}"))
        if _has_level_structure(tops, t, l):
            if (n_odd, n_even) != odd_even_counts(t, l):
                rep.violations.append(
                    (w, f"class {p}: parity counts differ from the level formula")
                )
        else:
            rep.flagged.append((w, f"class {p}: exponent levels are not an initial run"))
            rep.count("irregular_classes")
    sq = len(_square_scan(w, len(w)))
    if even_total != sq:
        rep.violations.append((w, f"even-power total {even_total} differs from Sq={sq}"))


def _eval_splits(p: str, cfg: SweepConfig, rep: CheckReport) -> None:
    m = _split_point(p)  # a primitive sweep word: no revalidation
    if m is None:
        rep.count("never_splits")
        return
    l = len(p)
    if m > l - 2:
        rep.violations.append((p, f"splits at {m}, within one of the root length {l}"))
        return
    parts = _split_circuits(p, m)
    lengths = [c.length for c in parts]
    if sum(lengths) != l:
        rep.violations.append((p, f"split lengths {lengths} do not sum to {l}"))
    edges = [e for c in parts for e in c.edges]
    if len(edges) != len(set(edges)):
        rep.violations.append((p, "split components share an edge"))
    if set(edges) != circular_factors(p, m + 1):
        rep.violations.append((p, "split components do not cover the factor set"))
    rep.count("splitting_roots")


def _case_by_root(qlen: int, n: int) -> tuple[str, tuple[int, int]]:
    if 4 * qlen <= n:
        return "case2", (8, 13)
    if 3 * qlen <= n:
        return "case3", (3, 5)
    return "unclassified", (1, 0)


def _classify_case(w: str) -> tuple[str, tuple[int, int]]:
    """Which split shape ``w`` has and the (multiplier, bound) pair to assert.

    Returns a label and ``(a, b)`` such that the word must satisfy
    ``a * Sq <= b * n``.  Ties on the n/2 and n/4 thresholds go to the
    stricter bound.  ``w`` is a primitive sweep word, and so is each circuit
    root, so split points and circuits come straight from this module's
    split memos, without revalidation.
    """
    n = len(w)
    m = _split_point(w)
    if m is None or 2 * m <= n:
        return "case1", (2, 3)
    parts = _split_circuits(w, m)
    if len(parts) > 2:
        return _case_by_root(min(c.length for c in parts), n)
    parts = sorted(parts, key=lambda c: (-c.length, c.edges))
    q1 = circuit_root(parts[0])
    q2_len = parts[1].length
    m1 = _split_point(q1)
    if m1 is None or 2 * m1 <= n:
        return "case1", (2, 3)
    lengths = [c.length for c in _split_circuits(q1, m1)] + [q2_len]
    return _case_by_root(min(lengths), n)


def _eval_case_bounds(w: str, cfg: SweepConfig, rep: CheckReport) -> None:
    n = len(w)
    label, (a, b) = _classify_case(w)
    rep.count(label)
    if label == "unclassified":
        rep.violations.append((w, "no split shape fits; inspect by hand"))
        return
    s = _square_count(w)
    if a * s > b * n:
        rep.violations.append((w, f"{label}: Sq={s} exceeds {b}n/{a} with n={n}"))


def _eval_count_chain(w: str, cfg: SweepConfig, rep: CheckReport) -> None:
    n = len(w)
    doubled = w + w
    power_small = 0
    realized = 0
    for p, t, _, _ in _class_tops(doubled):
        l = len(p)
        if 2 * l >= n:
            continue
        power_small += t
        realized += max(0, min(t, _class_reach(doubled, p) - l))

    small_count = 0
    indep_total = 0
    for order, size, codes in _index_graphs(doubled, range(1, n + 1)):
        # never a tree: w + w walks back to its first vertex at position n
        indep_total += len(codes) - size + 1
        facts = _graph_facts(size, codes, cfg.circuit_cap)
        if facts is None:
            rep.skipped.append(w)
            return
        # small: no longer than the order, and shorter than half the word
        small_count += bisect_right(facts[0], min(order, (n - 1) // 2))

    if power_small != realized:
        rep.violations.append(
            (w, f"{power_small} short-rooted powers vs {realized} realized circuits")
        )
    if realized > small_count:
        rep.violations.append((w, f"realized={realized} exceeds small count {small_count}"))
    if small_count > indep_total:
        rep.violations.append((w, f"small count {small_count} exceeds capacity {indep_total}"))
    if indep_total > 2 * n:
        rep.violations.append((w, f"capacity {indep_total} exceeds 2n={2 * n}"))
    rep.count("power_small", power_small)
    rep.count("small_count", small_count)
    rep.count("indep_total", indep_total)


@dataclass(frozen=True)
class _CheckDef:
    evaluate: Callable[[str, SweepConfig, CheckReport], None]
    stream: str  # "necklace", "rename" or "nonprimitive"
    primitive_only: bool = False


_CHECK_DEFS = {
    "bound-5-3": _CheckDef(_eval_bound_5_3, "necklace"),
    "bound-nonprimitive": _CheckDef(_eval_bound_nonprimitive, "nonprimitive"),
    "circuit-rank": _CheckDef(_eval_circuit_rank, "rename"),
    "class-circuits": _CheckDef(_eval_class_circuits, "rename"),
    "class-parity": _CheckDef(_eval_class_parity, "rename"),
    "splits": _CheckDef(_eval_splits, "necklace", primitive_only=True),
    "case-bounds": _CheckDef(_eval_case_bounds, "necklace", primitive_only=True),
    "count-chain": _CheckDef(_eval_count_chain, "necklace", primitive_only=True),
}
# The swept checks in table order, then the fixed instances run after the sweeps.
CHECK_ORDER = (*_CHECK_DEFS, "large-circuit")


# ---------------------------------------------------------------------------
# enumeration streams


def _iter_nonprimitive(k: int, n: int, canonicalize: bool) -> list[str]:
    # a word has one primitive root, so the proper powers below are distinct
    return sorted(
        u * (n // l)
        for l in range(1, n)
        if n % l == 0
        for u in _level("necklace", k, l, canonicalize)
        if is_primitive(u)
    )


def _level(stream: str, k: int, n: int, canonicalize: bool):
    """The words of length ``n`` over ``k`` letters that ``stream`` sweeps, in lex order.

    Without ``canonicalize`` the ``necklace`` and ``rename`` streams are every
    word; otherwise ``rename`` is the first-occurrence-renamed words and
    ``necklace`` the necklace representatives (least under rotation plus
    renaming) generated directly by :func:`_iter_necklaces`.  The
    ``nonprimitive`` stream is :func:`_iter_nonprimitive`.  Every sweep and the
    exhaustive extremal search reads its words here.
    """
    if stream == "nonprimitive":
        return _iter_nonprimitive(k, n, canonicalize)
    if not canonicalize:
        return ("".join(w) for w in product(ascii_lowercase[:k], repeat=n))
    if stream == "necklace":
        return _iter_necklaces(k, n)
    return _iter_rename_canonical(k, n)


# ---------------------------------------------------------------------------
# checkpointing


def _is_record(data: object) -> bool:
    """True when ``data`` holds every checkpoint record key, each with a value of its type."""
    if not isinstance(data, dict) or not _CHECKPOINT_KEYS <= data.keys():
        return False
    if type(data["tested"]) is not int or type(data["done"]) is not bool:
        return False
    if not all(isinstance(data[name], list) for name in _CHECKPOINT_LISTS):
        return False
    pairs = data["violations"] + data["flagged"]
    if not all(isinstance(v, list) and len(v) == 2 for v in pairs):
        return False
    if not all(isinstance(x, str) for x in [x for v in pairs for x in v] + data["skipped"]):
        return False
    stats = data["stats"]
    if not isinstance(stats, dict) or any(type(v) is not int for v in stats.values()):
        return False
    optional = (data["last"], data["ratio"], data["witness"])
    if not all(x is None or isinstance(x, str) for x in optional):
        return False
    if data["ratio"] is not None:
        try:
            Fraction(data["ratio"])
        except (ValueError, ZeroDivisionError):
            return False
    return True


class _Checkpoint:
    """A suite's append-only progress file: a header, then level records.

    The header ``circsq-checkpoint v3 {json}`` fingerprints the config fields
    that change what a level holds (``canonicalize``, ``circuit_cap``); a file
    with any other header, v1 and v2 included, is neither reused nor appended
    to.  Each ``R check k n {json}`` record holds the level's counters, stats,
    witness, last finished word and whether it is done, plus only the
    ``violations``/``flagged``/``skipped`` entries added since the level's
    previous record.  The last valid record per key wins and the lists of all
    valid records of the key are concatenated in file order, so a sweep killed
    mid-write resumes to the uninterrupted report; a payload that is not a
    JSON object holding every record key, each with a value of its type, is
    skipped like a torn one.  Only the parent process reads and writes the
    file: :func:`run_suite` restores every level before it feeds the first
    word, then writes a record per open check every ``_CHECKPOINT_FLUSH_EVERY``
    words of a level's stream and one when the level is done, so the file is
    the same under any number of jobs and resumes under any number.  It is
    read once and each record is appended by its own open and close, so it is
    on disk before the sweep goes on; I/O problems are counted and silence
    further writes, and the sweep continues.  Without a path there is nothing
    to read and no record is built.
    """

    def __init__(self, cfg: SweepConfig) -> None:
        self.path = cfg.checkpoint_path
        fingerprint = {"canonicalize": cfg.canonicalize, "circuit_cap": cfg.circuit_cap}
        self.header = f"{_CHECKPOINT_MAGIC} {json.dumps(fingerprint, sort_keys=True)}"
        self.records: dict[tuple[str, int, int], dict] = {}
        # Per (check, length), how many entries of each list the file already holds.
        self._saved: dict[tuple[str, int], dict[str, int]] = {}
        self.io_errors = 0
        # How the next write opens the file and what it writes ahead of its
        # record: a whole new file unless _load finds a usable one.
        self._opening = ("w", self.header + "\n")
        if self.path:
            self._load()

    def _load(self) -> None:
        try:
            with open(self.path, encoding="ascii") as fh:
                text = fh.read()
        except FileNotFoundError:
            return
        except (OSError, UnicodeDecodeError):
            self.io_errors += 1
            return
        if (self.header + "\n").startswith(text):
            return  # empty, or cut inside its header: no record was ever written
        lines = text.splitlines()
        if lines[0] != self.header:
            self.io_errors += 1
            return
        # A line cut before its newline must not swallow the next record.
        self._opening = ("a", "" if text.endswith("\n") else "\n")
        for line in lines[1:]:
            parts = line.split(maxsplit=4)
            if len(parts) != 5 or parts[0] != "R":
                continue
            _, check, k_str, n_str, payload = parts
            try:
                key = (check, int(k_str), int(n_str))
                data = json.loads(payload)
            except ValueError:
                continue  # a record cut short by a killed sweep
            if not _is_record(data):
                continue  # valid JSON, but not a record
            prev = self.records.get(key)
            if prev is not None:
                for name in _CHECKPOINT_LISTS:
                    prev[name].extend(data[name])
                    data[name] = prev[name]
            self.records[key] = data

    def restore(self, n: int, level: CheckReport) -> tuple[str | None, bool]:
        """Load the record of length ``n`` into the empty ``level``; return (last word, done)."""
        data = self.records.get((level.check_id, level.alphabet_size, n))
        if data is None:
            return None, False
        level.words_tested = data["tested"]
        level.violations = [tuple(v) for v in data["violations"]]
        level.flagged = [tuple(v) for v in data["flagged"]]
        level.skipped = list(data["skipped"])
        if data["ratio"] is not None:
            level.max_ratio, level.witness = Fraction(data["ratio"]), data["witness"]
        level.stats = dict(data["stats"])
        self._saved[level.check_id, n] = {name: len(data[name]) for name in _CHECKPOINT_LISTS}
        return data["last"], data["done"]

    def save(self, n: int, level: CheckReport, last: str | None, done: bool) -> None:
        if not self.path or self.io_errors:
            return
        record = {
            "done": done,
            "last": last,
            "tested": level.words_tested,
            "ratio": None if level.max_ratio is None else str(level.max_ratio),
            "witness": level.witness,
            "stats": level.stats,
        }
        saved = self._saved.setdefault((level.check_id, n), dict.fromkeys(_CHECKPOINT_LISTS, 0))
        for name in _CHECKPOINT_LISTS:
            entries = getattr(level, name)
            record[name] = entries[saved[name] :]
            saved[name] = len(entries)
        key = f"{level.check_id} {level.alphabet_size} {n}"
        mode, lead = self._opening
        try:
            # Closing flushes: a record counts only once it is on disk, as resume reads it back.
            with open(self.path, mode, encoding="ascii") as fh:
                fh.write(f"{lead}R {key} {json.dumps(record, sort_keys=True)}\n")
        except OSError:
            self.io_errors += 1
        else:
            self._opening = ("a", "")


# ---------------------------------------------------------------------------
# runners


def _run_block(args: tuple) -> tuple[str, int, dict, dict, int]:
    """Sweep ``args = (stream, cfg, n, last, words)``; return ``(stream, n, parts, ends, size)``.

    Each check ``cid`` in ``last`` folds the words of the chunk after ``last[cid]``
    into a fresh ``parts[cid]``, and ``ends[cid]`` is the last one, if any;
    ``size`` is ``len(words)``.  The chunk's level, ``(stream, n)``, lets the
    parent fold the one feed of a suite level by level.
    """
    stream, cfg, n, last, words = args
    parts = {cid: CheckReport.for_config(cid, cfg) for cid in last}
    ends = {}
    feeds = [(cid, parts[cid], _CHECK_DEFS[cid], last[cid] or "") for cid in last]
    screen = any(cdef.primitive_only for _, _, cdef, _ in feeds)
    for w in words:
        proper_power = screen and not is_primitive(w)  # one primitivity test per word
        for cid, part, cdef, after in feeds:
            if w <= after or (cdef.primitive_only and proper_power):
                continue
            part.words_tested += 1
            cdef.evaluate(w, cfg, part)
            ends[cid] = w
    return stream, n, parts, ends, len(words)


def _feed(cfg: SweepConfig, opened: list[tuple[str, int, dict]]):
    """The :func:`_run_block` tasks of every level in ``opened``, in sweep order.

    ``opened`` holds ``(stream, n, restored)`` per level with an open check,
    ``restored`` being the snapshot of those checks' restored last words that
    every task of the level carries.  Each level is enumerated once, here, and
    cut in stream order into chunks of ``max(256, fed // 2J)`` words after
    ``fed`` of its words under J ``jobs``, none across a multiple of
    ``_CHECKPOINT_FLUSH_EVERY``.  Under a pool this runs in the pool's
    task-handler thread, so it reads nothing the parent's fold updates.
    """
    every, span = _CHECKPOINT_FLUSH_EVERY, 2 * cfg.jobs
    for stream, n, restored in opened:
        words = iter(_level(stream, cfg.alphabet_size, n, cfg.canonicalize))
        fed = 0
        while chunk := list(islice(words, min(every - fed % every, max(256, fed // span)))):
            fed += len(chunk)
            yield stream, cfg, n, restored, chunk


def run_check(check_id: str, cfg: SweepConfig) -> CheckReport:
    """Run one check over the whole configured range: a suite of that one check."""
    return run_suite(replace(cfg, checks=frozenset({check_id}))).reports[0]


_SPOT_CHECK_PAIRS = 1000


def _canonicalization_mismatches(cfg: SweepConfig) -> list[tuple[str, str]]:
    """Random pairs on which the square count changed under rotation plus renaming.

    Canonical sweeps stand on the square count being identical across a
    word's rotation and renaming orbit; each mismatch is a violation of the
    bound checks.  The pairs depend on the config alone, so a suite draws
    them once for all its bound checks.
    """
    rng = random.Random(cfg.seed ^ 0x5EED)
    choice = rng.choice
    letters = ascii_lowercase[: cfg.alphabet_size]
    mismatches = []
    for _ in range(_SPOT_CHECK_PAIRS):
        n = rng.randint(1, cfg.max_length)
        w = "".join([choice(letters) for _ in range(n)])
        rotated = w[n // 2 :] + w[: n // 2]
        table = str.maketrans(letters, "".join(rng.sample(letters, len(letters))))
        transformed = rotated.translate(table)
        if circular_square_count(w) != circular_square_count(transformed):
            mismatches.append((w, f"count changed under rotation/renaming to {transformed}"))
    return mismatches


def run_suite(cfg: SweepConfig) -> SuiteReport:
    """Run every configured check in the canonical order, one pass per stream and length.

    Each level, one stream's words of one length, first restores every check
    of the stream from its checkpoint record; the checks not done there are
    the level's open checks.  One ``map`` or ``pool.imap`` call then runs
    :func:`_feed`'s chunks of every level with an open check as
    :func:`_run_block` tasks, and the parent folds the ordered results level
    by level with :meth:`CheckReport.merge`.  At each multiple of
    ``_CHECKPOINT_FLUSH_EVERY`` words of a level every check past its restored
    word gets a record, and at the level's end each open check a done record,
    a level without words too, so the file is the same under any number of
    jobs.  Every suite has a :class:`_Checkpoint`; without a path it restores
    and saves nothing.  The pool is terminated however the fold ends: after a
    fold that finishes it has no work left, and after one that raises it must
    not run the rest of the feed.
    """
    reports = {cid: CheckReport.for_config(cid, cfg) for cid in CHECK_ORDER if cid in cfg.checks}
    swept = [cid for cid in reports if cid in _CHECK_DEFS]
    ckpt = _Checkpoint(cfg)
    plan = {}  # (stream, n) -> the level's reports, its open checks' last words, their snapshot
    for stream in dict.fromkeys(_CHECK_DEFS[cid].stream for cid in swept):
        ids = tuple(cid for cid in swept if _CHECK_DEFS[cid].stream == stream)
        for n in range(1, cfg.max_length + 1):
            levels = {cid: CheckReport.for_config(cid, cfg) for cid in ids}
            last = {}
            for cid, level in levels.items():
                word, done = ckpt.restore(n, level)
                if not done:
                    last[cid] = word
            plan[stream, n] = levels, last, dict(last)  # the fold updates ``last`` only
    tasks = _feed(cfg, [(s, n, snap) for (s, n), (_, _, snap) in plan.items() if snap])
    pool = multiprocessing.Pool(cfg.jobs) if cfg.jobs > 1 and swept else None
    try:
        blocks = groupby((pool.imap if pool else map)(_run_block, tasks), key=itemgetter(0, 1))
        at, block = next(blocks, (None, ()))
        for (stream, n), (levels, last, restored) in plan.items():
            if at == (stream, n):
                folded = 0
                for _, _, parts, ends, size in block:
                    for cid, part in parts.items():
                        levels[cid].merge(part)
                    last.update(ends)
                    folded += size
                    if folded % _CHECKPOINT_FLUSH_EVERY == 0:
                        for cid in last:
                            if last[cid] != restored[cid]:
                                ckpt.save(n, levels[cid], last[cid], done=False)
                at, block = next(blocks, (None, ()))
            for cid, level in levels.items():
                if cid in last:
                    ckpt.save(n, level, last[cid], done=True)
                reports[cid].merge(level)
    finally:
        if pool is not None:
            pool.terminate()  # joins the workers; close() would let them run every queued chunk
    mismatches = None
    for rep in map(reports.get, swept):
        if ckpt.io_errors:
            rep.stats["checkpoint_errors"] = ckpt.io_errors
        if cfg.canonicalize and rep.check_id in ("bound-5-3", "bound-nonprimitive"):
            if mismatches is None:
                mismatches = _canonicalization_mismatches(cfg)
            rep.violations.extend(mismatches)
            rep.stats["canonical_pairs_checked"] = _SPOT_CHECK_PAIRS
    if "large-circuit" in reports:
        for w, p, k in LARGE_CIRCUIT_INSTANCES:
            reports["large-circuit"].merge(check_large_circuit(w, p, k, cfg.circuit_cap))
    return SuiteReport(list(reports.values()))


# ---------------------------------------------------------------------------
# high-power instances: a long circuit is forced near the top orders

LARGE_CIRCUIT_INSTANCES: tuple[tuple[str, str, int], ...] = (
    ("ababababc", "ab", 4),
    ("abababababc", "ab", 5),
    ("abcabcabcabca", "abc", 4),
    ("abcabcabcabcab", "abc", 4),
    ("aabaabaabaaba", "aab", 4),
)


def _validate_large_circuit_instance(w: str, p: str, k: int) -> None:
    validate_word(w)
    validate_word(p)
    if len(w) > _MAX_CODED_VERTICES:
        # the top orders of w + w have at most len(w) vertices
        raise ValueError(
            f"word length {len(w)} exceeds {_MAX_CODED_VERTICES}, the graph code's limit"
        )
    if not is_primitive(p):
        raise ValueError(f"hypothesis failed: p={p!r} is not primitive")
    if k < 4:
        raise ValueError(f"hypothesis failed: k={k} is below 4")
    n, l = len(w), len(p)
    r = n - k * l
    if not 0 < r < l:
        raise ValueError(f"hypothesis failed: n - k*l = {r} is not strictly between 0 and {l}")
    if p * k not in w + w:
        raise ValueError(f"hypothesis failed: p^{k} is not a circular factor of {w!r}")


def check_large_circuit(
    w: str, p: str, k: int, circuit_cap: int = DEFAULT_CIRCUIT_CAP
) -> CheckReport:
    """Verify rank deficiency of the short-circuit span at the top orders.

    ``w`` must contain ``p ** k`` circularly with ``k >= 4`` and
    ``0 < len(w) - k * len(p) < len(p)``.  On the doubled word, for each
    order in the top ``len(p)`` band, the circuits of length at most n/2
    must span strictly less than the full cycle space.  An instance with more
    than ``circuit_cap`` circuits at some order is skipped (listed in ``skipped``).
    """
    _validate_large_circuit_instance(w, p, k)
    if circuit_cap < 1:
        raise ValueError("circuit cap must be at least 1")
    n, l = len(w), len(p)
    rep = CheckReport(
        check_id="large-circuit",
        alphabet_size=len(set(w)),
        max_length=n,
        canonicalize=False,
        seed=0,
        jobs=1,
    )
    # The search runs at every order, trees included: rank >= chi must fire at chi = 0.
    for order, size, codes in _index_graphs(w + w, range(n - l + 1, n + 1)):
        chi = len(codes) - size + 1
        facts = _graph_facts(size, codes, circuit_cap)
        if facts is None:
            rep.skipped.append(w)
            break
        lengths, ranks, _ = facts
        rank = ranks[bisect_right(lengths, n // 2)]  # the circuits c with 2 * len(c) <= n
        if rank >= chi:
            rep.violations.append(
                (w, f"order {order}: short circuits span rank {rank} of chi {chi}")
            )
        rep.count("orders_checked")
    rep.words_tested = 1
    return rep


# ---------------------------------------------------------------------------
# extremal search


def _climb(n: int, letters: str, rng: random.Random):
    """Yield ``(word, Sq)`` pairs of a steepest-ascent hill climb, forever.

    Each climb starts at a random word and evaluates its single-letter
    substitutions in (position, letter) order, then moves to the first
    strictly best neighbour, or restarts when no neighbour beats the word.
    """
    while True:
        w = "".join(rng.choice(letters) for _ in range(n))
        s = circular_square_count(w)
        yield w, s
        while True:
            cand_count, cand_word = s, w
            for pos, ch in product(range(n), letters):
                if ch != w[pos]:
                    w2 = w[:pos] + ch + w[pos + 1 :]
                    s2 = circular_square_count(w2)
                    yield w2, s2
                    if s2 > cand_count:
                        cand_count, cand_word = s2, w2
            if cand_count == s:
                break
            s, w = cand_count, cand_word


def search_extremal(n: int, k: int, budget: int = 100_000, seed: int = 0) -> CheckReport:
    """Find a word of length ``n`` over ``k`` letters with many circular squares.

    When ``k ** n`` fits the budget the search is exhaustive: it sweeps the
    necklace level (one representative per rotation and renaming class), so
    ``evaluations`` is that level's size, not ``k ** n``.  Otherwise it
    hill-climbs (see :func:`_climb`) from seeded random restarts and stops
    after exactly ``budget`` evaluations, even inside a neighbourhood.  The
    witness is the least word among those evaluated with the highest count.
    The best ratio found must stay within 5/3; whether it passes 5/4 or 3/2
    is recorded.
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    rep = CheckReport.for_config("search", SweepConfig(k, n, seed=seed))
    if budget < 1:
        raise ValueError("budget must be at least 1")
    exhaustive = k**n <= budget
    if exhaustive:
        pairs = ((w, circular_square_count(w)) for w in _level("necklace", k, n, True))
    else:
        pairs = islice(_climb(n, ascii_lowercase[:k], random.Random(seed)), budget)
    best_count, best_word, evaluations = -1, "", 0
    for word, count in pairs:
        evaluations += 1
        if count > best_count or (count == best_count and word < best_word):
            best_count, best_word = count, word

    rep.words_tested = evaluations
    rep.max_ratio = Fraction(best_count, n)
    rep.witness = best_word
    if 3 * best_count > 5 * n:
        rep.violations.append((best_word, f"Sq={best_count} exceeds 5n/3 with n={n}"))
    rep.stats["exhaustive"] = int(exhaustive)
    rep.stats["evaluations"] = evaluations
    rep.stats["best_count"] = best_count
    rep.stats["above_5_4"] = int(4 * best_count > 5 * n)
    rep.stats["above_3_2"] = int(2 * best_count > 3 * n)
    return rep
