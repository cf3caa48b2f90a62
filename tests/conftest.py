"""Shared brute-force oracles for the test suite.

Everything here is written as plainly as possible, independent of the
library's own algorithms, so the two sides can disagree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def words_over(k: int, n: int) -> list[str]:
    return ["".join(t) for t in product("abcdefgh"[:k], repeat=n)]


def lyndon_least_rotation(w: str) -> str:
    """The least rotation of ``w`` from Duval's Lyndon factorization of ``w + w``.

    Each pass of the outer loop finds the next Lyndon factor (repeated) from
    ``i``; the least rotation starts at the last factor that begins in the
    first copy of ``w``.  No rotation is compared with another.
    """
    s, n = w + w, len(w)
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return s[start : start + n]


def naive_is_primitive(w: str) -> bool:
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[:d] * (n // d):
            return False
    return True


def brute_squares(w: str) -> set[str]:
    found = set()
    n = len(w)
    for i in range(n):
        for j in range(i + 2, n + 1, 2):
            s = w[i:j]
            h = len(s) // 2
            if s == s[:h] + s[:h]:
                found.add(s)
    return found


def brute_circular_squares(w: str) -> set[str]:
    out: set[str] = set()
    for i in range(len(w)):
        out |= brute_squares(w[i:] + w[:i])
    return out


def window_split_point(p: str) -> int | None:
    """The split point of primitive ``p``, growing ``m`` one window set at a time:
    the least ``m`` whose ``m + 1``-long circular windows are all distinct."""
    l = len(p)
    if len(set(p)) == l:
        return None
    doubled = p + p
    m = 1
    while len({doubled[i : i + m + 1] for i in range(l)}) < l:
        m += 1
    return m


def brute_extremal(k: int, n: int) -> tuple[int, str]:
    """The most distinct circular squares of any word of length ``n`` over ``k``
    letters, and the lexicographically least word that has that many."""
    best_count, best_word = -1, ""
    for w in words_over(k, n):  # lex order, so the first word at a count is the least
        count = len(brute_circular_squares(w))
        if count > best_count:
            best_count, best_word = count, w
    return best_count, best_word


def brute_power_factors(w: str) -> set[str]:
    found = set()
    n = len(w)
    for i in range(n):
        for j in range(i + 2, n + 1):
            if not naive_is_primitive(w[i:j]):
                found.add(w[i:j])
    return found


def naive_circuits(graph) -> set[tuple[str, ...]]:
    """All elementary circuits as edge tuples starting at their least vertex."""
    succ: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for e in graph.edges:  # sorted, so each successor list is sorted
        succ[e[:-1]].append(e[1:])
    found: set[tuple[str, ...]] = set()

    def close(cycle: list[str]) -> tuple[str, ...]:
        r = len(cycle)
        return tuple(cycle[i] + cycle[(i + 1) % r][-1] for i in range(r))

    def extend(path: list[str], start: str) -> None:
        for u in succ[path[-1]]:
            if u == start:
                found.add(close(path))
            elif u > start and u not in path:
                path.append(u)
                extend(path, start)
                path.pop()

    for s in sorted(graph.vertices):
        extend([s], s)
    return found


def linear_class_reach(w: str, p: str) -> int:
    """The largest ``L <= len(w)`` such that every length-``L`` window of ``p``
    repeated forever is a factor of ``w``, counted down one length at a time."""
    reach = len(w)
    ext = p * (reach // len(p) + 2)
    for i in range(len(p)):
        while reach and ext[i : i + reach] not in w:
            reach -= 1
    return reach


def contains_class_circuit(w: str, p: str, l: int) -> bool:
    """True when the order-``l`` subgraph of primitive ``p`` lies inside the factor
    graph of ``w``: every circular factor of ``p`` of length ``l`` or ``l + 1``
    is a factor of ``w``."""
    ring = p * (l // len(p) + 2)
    return all(
        {ring[i : i + m] for i in range(len(p))} <= {w[i : i + m] for i in range(len(w) - m + 1)}
        for m in (l, l + 1)
    )


def small_circuit_total(w: str) -> int:
    """Elementary circuits no longer than their order, over orders 1..len(w)-1.

    Circuits come from :func:`naive_circuits` on the library's factor graphs.
    """
    from circsq.rauzy import build_rauzy_graph

    return sum(
        sum(1 for c in naive_circuits(build_rauzy_graph(w, i)) if len(c) <= i)
        for i in range(1, len(w))
    )


def fraction_rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / lead[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], lead)]
        rank += 1
    return rank
