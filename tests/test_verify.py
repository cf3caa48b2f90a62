"""Sweep machinery: canonical enumeration, checks, checkpoints, jobs, search."""

import json
import pickle
import random
import sys

import pytest

from circsq import rauzy, verify
from circsq.verify import (
    CHECK_ORDER,
    LARGE_CIRCUIT_INSTANCES,
    CheckReport,
    SweepConfig,
    check_large_circuit,
    circular_square_count,
    necklace_form,
    resolve_checks,
    run_check,
    run_suite,
    search_extremal,
)
from circsq.cli import main
from circsq.rauzy import DEFAULT_CIRCUIT_CAP
from circsq.rauzy import _circuit_edges, _edge_vectors, _index_graphs, _unpack
from circsq.verify import _iter_nonprimitive, _iter_rename_canonical, _level
from circsq.words import is_primitive, rename_by_first_occurrence, rotations

from conftest import (
    brute_circular_squares,
    brute_extremal,
    contains_class_circuit,
    fraction_rank,
    linear_class_reach,
    naive_circuits,
    small_circuit_total,
    window_split_point,
    words_over,
)
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from pathlib import Path


def _cfg(check, k, n, **kw):
    return SweepConfig(alphabet_size=k, max_length=n, checks=frozenset({check}), **kw)


def _evaluate(evaluator, w, cfg=SweepConfig()):
    """The report one per-word evaluator writes for ``w`` into a fresh level."""
    rep = CheckReport.for_config("probe", cfg)
    evaluator(w, cfg, rep)
    return rep


# ---------------------------------------------------------------------------
# canonical enumeration


def test_necklace_form_is_orbit_minimum():
    for w in words_over(3, 5):
        orbit = set()
        for r in rotations(w):
            orbit.add(rename_by_first_occurrence(r))
        assert necklace_form(w) == min(orbit), w


def test_rename_canonical_enumeration_matches_filter():
    for n in range(1, 7):
        direct = list(_iter_rename_canonical(3, n))
        filtered = [w for w in words_over(3, n) if rename_by_first_occurrence(w) == w]
        assert direct == filtered


def test_canonical_enumeration_covers_all_orbits():
    for n in range(1, 7):
        canon = {w for w in _iter_rename_canonical(3, n) if necklace_form(w) == w}
        assert {necklace_form(w) for w in words_over(3, n)} == canon


def test_orbit_test_matches_all_rotations(monkeypatch):
    # every candidate the loop hands to the orbit test (a renamed necklace
    # with no run longer than its leading a run) comes with its own run
    # lengths and lead, and gets the verdict of renaming all its rotations
    least = verify._is_orbit_least
    candidates = []

    def recorded(ids, run, lead):
        verdict = least(ids, run, lead)
        candidates.append((ids.translate(verify._ID_LETTERS).decode(), list(run), lead, verdict))
        return verdict

    monkeypatch.setattr(verify, "_is_orbit_least", recorded)
    for k, top in ((1, 6), (2, 16), (3, 11), (4, 9), (5, 8)):
        for n in range(1, top + 1):
            list(verify._iter_necklaces(k, n))
    verdicts = {}
    for w, run, lead, verdict in candidates:
        assert run == [j + 1 - len(w[: j + 1].rstrip(c)) for j, c in enumerate(w)], w
        assert lead == len(w) - len(w.lstrip("a")) and max(run) <= lead, w
        expected = all(
            rename_by_first_occurrence(w[i:] + w[:i]) >= w for i in range(1, len(w))
        )
        assert verdict == expected, w
        verdicts[w] = verdict
    # 50 of these are constant words
    assert len(candidates) == 16_420
    assert sum(verdict for *_, verdict in candidates) == 11_256
    cases = {
        "a": True,
        "aaaa": True,  # constant
        "abab": True,  # here and below every rotation starts a run
        "abac": True,
        "abcb": False,  # bcba renames to abac
        "abacbc": True,
    }
    assert {w: verdicts[w] for w in cases} == cases
    # a b run longer than the leading a run: pruned before the orbit test
    assert "aabbb" not in verdicts and "aabbb" not in _level("necklace", 2, 5, True)


def test_necklace_stream_matches_the_filter_oracle():
    # the generated stream is the filtered one, in the filter's order; a word
    # least under rotation plus renaming is least under rotation alone, so
    # only those words go on to the oracle
    for k, top in ((1, 9), (2, 16), (3, 11), (4, 9), (5, 8)):
        for n in range(1, top + 1):
            oracle = [
                w
                for w in _iter_rename_canonical(k, n)
                if min(rotations(w)) == w and necklace_form(w) == w
            ]
            assert list(_level("necklace", k, n, True)) == oracle, (k, n)


def test_necklace_level_sizes_are_pinned():
    binary = [sum(1 for _ in _level("necklace", 2, n, True)) for n in range(1, 23)]
    # OEIS A000013: binary necklaces up to swapping the letters
    assert binary == [
        1, 2, 2, 4, 4, 8, 10, 20, 30, 56, 94, 180, 316, 596, 1096, 2068, 3856,
        7316, 13798, 26272, 49940, 95420,
    ]
    ternary = [sum(1 for _ in _level("necklace", 3, n, True)) for n in range(1, 15)]
    assert ternary == [
        1, 2, 3, 6, 9, 26, 53, 146, 369, 1002, 2685, 7434, 20441, 57046,
    ]


def test_necklace_stream_increases_through_its_own_forms():
    for k, n in ((2, 18), (3, 12)):
        words = list(_level("necklace", k, n, True))
        assert all(u < v for u, v in zip(words, words[1:])), (k, n)
        assert all(necklace_form(w) == w for w in words), (k, n)


def test_nonprimitive_stream():
    items = _iter_nonprimitive(2, 8, canonicalize=True)
    assert all(not is_primitive(w) for w in items)
    assert items == sorted(items)
    raw = _iter_nonprimitive(2, 8, canonicalize=False)
    expected = {w for w in words_over(2, 8) if not is_primitive(w)}
    assert set(raw) == expected


def test_circular_square_count_matches_brute_exhaustively():
    # the count scans only the n starts of w inside w + w
    for k, top in ((2, 12), (3, 8)):
        for n in range(1, top + 1):
            for w in words_over(k, n):
                assert circular_square_count(w) == len(brute_circular_squares(w)), w


def test_canonicalization_preserves_circular_count():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 12)
        w = "".join(rng.choice("abc") for _ in range(n))
        assert circular_square_count(w) == circular_square_count(necklace_form(w)), w


# ---------------------------------------------------------------------------
# individual checks


def test_bound_check_small_binary():
    rep = run_check("bound-5-3", _cfg("bound-5-3", 2, 4))
    assert rep.passed
    assert rep.max_ratio == Fraction(1, 2)
    assert rep.witness == "aa"
    assert rep.words_tested == 9  # canonical representatives up to length 4


def test_bound_check_unary():
    rep = run_check("bound-5-3", _cfg("bound-5-3", 1, 6))
    assert rep.passed
    assert rep.max_ratio == Fraction(1, 2)


def test_bound_checks_spot_check_their_canonicalization():
    rep = run_check("bound-5-3", _cfg("bound-5-3", 3, 6))
    assert rep.stats["canonical_pairs_checked"] == 1000
    assert rep.passed
    raw = run_check("bound-5-3", _cfg("bound-5-3", 3, 6, canonicalize=False))
    assert "canonical_pairs_checked" not in raw.stats


def test_bound_check_raw_mode_covers_everything():
    rep = run_check("bound-5-3", _cfg("bound-5-3", 2, 6, canonicalize=False))
    assert rep.passed
    assert rep.words_tested == sum(2**n for n in range(1, 7))


def test_nonprimitive_bound_check():
    rep = run_check("bound-nonprimitive", _cfg("bound-nonprimitive", 2, 12))
    assert rep.passed
    assert circular_square_count("abab") == 2


def test_circuit_rank_check():
    rep = run_check("circuit-rank", _cfg("circuit-rank", 3, 7))
    assert rep.passed
    assert rep.stats["small_circuits"] > 0
    assert not rep.skipped


def test_circuit_rank_respects_cap():
    rep = run_check("circuit-rank", _cfg("circuit-rank", 2, 6, circuit_cap=1))
    assert rep.skipped  # every word with two circuits at one order is skipped
    assert rep.passed


def test_class_circuits_check():
    rep = run_check("class-circuits", _cfg("class-circuits", 3, 8))
    assert rep.passed
    assert rep.stats["predicted"] == rep.stats["realized"]


def test_class_circuits_beyond_window_is_not_a_violation():
    from circsq.verify import _eval_class_circuits

    out = _evaluate(_eval_class_circuits, "aabaabxbaaba")
    assert not out.violations
    assert out.stats["beyond_window"] >= 1


def test_class_parity_check():
    rep = run_check("class-parity", _cfg("class-parity", 3, 8))
    assert rep.passed
    assert not rep.flagged  # every class carries the full level structure


def test_splits_check():
    rep = run_check("splits", _cfg("splits", 3, 8))
    assert rep.passed
    assert rep.stats["splitting_roots"] > 0
    assert rep.stats["never_splits"] > 0


def test_case_bounds_check():
    rep = run_check("case-bounds", _cfg("case-bounds", 2, 12))
    assert rep.passed
    assert rep.stats.get("case1", 0) > 0
    assert "unclassified" not in rep.stats


def test_count_chain_check():
    rep = run_check("count-chain", _cfg("count-chain", 2, 8))
    assert rep.passed
    assert rep.stats["power_small"] <= rep.stats["small_count"] <= rep.stats["indep_total"]


def test_count_chain_example_aab():
    from circsq.verify import _eval_count_chain

    out = _evaluate(_eval_count_chain, "aab")
    assert not out.violations
    assert out.stats["power_small"] == 1  # just the square of the letter a


def test_graph_evaluators_match_a_search_at_every_order():
    # circuit-rank stops at its first tree order (chi = 0); the public route
    # below shares the search but runs it at every order and takes chi from
    # the connectivity check
    from circsq.rauzy import (
        build_rauzy_graph,
        cyclomatic_number,
        enumerate_elementary_circuits,
    )
    from circsq.verify import _eval_circuit_rank, _eval_count_chain

    cfg = SweepConfig()
    for k, top in ((2, 9), (3, 6)):
        for n in range(2, top + 1):
            for w in words_over(k, n):
                rank = _evaluate(_eval_circuit_rank, w, cfg)
                assert rank.stats["small_circuits"] == small_circuit_total(w), w
                small = indep = 0
                for order in range(1, n + 1):
                    g = build_rauzy_graph(w + w, order)
                    circuits = enumerate_elementary_circuits(g)
                    small += sum(1 for c in circuits if c.length <= order and 2 * c.length < n)
                    indep += cyclomatic_number(g)
                chain = _evaluate(_eval_count_chain, w, cfg)
                assert (chain.stats["small_count"], chain.stats["indep_total"]) == (small, indep), w


def test_graph_evaluators_match_the_naive_oracles():
    # the evaluators' verdicts and stats against circuits from the naive
    # string search and ranks from Fraction elimination, at every order
    from circsq.rauzy import build_rauzy_graph, cyclomatic_number
    from circsq.verify import _eval_circuit_rank, _eval_count_chain

    def circuits_and_vectors(s, order):
        g = build_rauzy_graph(s, order)
        found = naive_circuits(g)
        vectors = [tuple(int(e in c) for e in g.edges) for c in found]
        return g, [len(c) for c in found], vectors

    cfg = SweepConfig()
    for k, top in ((2, 9), (3, 6)):
        for n in range(2, top + 1):
            for w in words_over(k, n):
                expected, sc = [], 0
                for i in range(1, n):
                    g, lengths, vectors = circuits_and_vectors(w, i)
                    small = [v for m, v in zip(lengths, vectors) if m <= i]
                    sc += len(small)
                    if fraction_rank(small) != len(small):
                        expected.append(f"small circuits at order {i} are dependent")
                    # what the evaluator's closed-walk guard stands in for
                    assert fraction_rank(vectors) <= cyclomatic_number(g), (w, i)
                if sc > n - len(set(w)):
                    expected.append(f"sc={sc} exceeds n-|alphabet|={n - len(set(w))}")
                rank = _evaluate(_eval_circuit_rank, w, cfg)
                assert [detail for _, detail in rank.violations] == expected, w
                assert rank.stats["small_circuits"] == sc == small_circuit_total(w), w
                small = indep = 0
                for order in range(1, n + 1):
                    g, lengths, _ = circuits_and_vectors(w + w, order)
                    small += sum(1 for m in lengths if m <= order and 2 * m < n)
                    indep += cyclomatic_number(g)
                chain = _evaluate(_eval_count_chain, w, cfg)
                assert chain.stats["small_count"] == small, w
                assert chain.stats["indep_total"] == indep, w


def test_circuit_rank_examples_direct():
    from circsq.verify import _eval_circuit_rank

    cfg = SweepConfig()
    out = _evaluate(_eval_circuit_rank, "aaa", cfg)
    assert not out.violations
    assert out.stats["small_circuits"] == 2  # loops at orders 1 and 2, within 3-1
    out = _evaluate(_eval_circuit_rank, "abc", cfg)
    assert not out.violations
    assert out.stats["small_circuits"] == 0


def test_circuit_rank_reports_a_walk_that_does_not_close(monkeypatch):
    # "aab" at order 1: a -> a is edge 0, a -> b edge 1, and b has no way back
    from circsq.verify import _eval_circuit_rank

    # the unmemoized facts run the patched search and leave the memo alone
    monkeypatch.setattr(verify, "_graph_facts", verify._graph_facts.__wrapped__)
    monkeypatch.setattr(rauzy, "_circuit_edges", lambda head, out, size, cap: [[0, 1]])
    out = _evaluate(_eval_circuit_rank, "aab")
    assert out.violations == [("aab", "a circuit at order 1 is not an elementary closed walk")]
    # a walk that closes but passes a vertex twice is no circuit either
    monkeypatch.setattr(rauzy, "_circuit_edges", lambda head, out, size, cap: [[0, 0]])
    out = _evaluate(_eval_circuit_rank, "aab")
    assert out.violations == [("aab", "a circuit at order 1 is not an elementary closed walk")]


def test_circuit_rank_memo_matches_cold_runs():
    # a graph's facts read back from the memo, whatever order and word it
    # was cut from, give each word the report a search from scratch gives it
    from circsq.verify import _eval_circuit_rank

    def cold(w, cfg):
        verify._graph_facts.cache_clear()
        return _evaluate(_eval_circuit_rank, w, cfg)

    cfg = SweepConfig()
    words = [
        w for k, top in ((2, 11), (3, 7)) for n in range(1, top + 1)
        for w in _iter_rename_canonical(k, n)
    ]
    verify._graph_facts.cache_clear()
    warm = [_evaluate(_eval_circuit_rank, w, cfg).to_dict() for w in words]
    for w, report in zip(words, warm):
        assert cold(w, cfg).to_dict() == report, w
    # the cap is part of the key: facts found under one cap never answer
    # another, in either order
    level = list(_iter_rename_canonical(2, 8))
    tight, loose = SweepConfig(circuit_cap=1), SweepConfig()
    expected = {
        cfg.circuit_cap: [w for w in level if cold(w, cfg).skipped] for cfg in (tight, loose)
    }
    assert expected[1] and not expected[DEFAULT_CIRCUIT_CAP]
    verify._graph_facts.cache_clear()
    for cfg in (tight, loose, tight):
        skipped = [w for w in level if _evaluate(_eval_circuit_rank, w, cfg).skipped]
        assert skipped == expected[cfg.circuit_cap], cfg.circuit_cap


def _primitive_necklaces(k, top):
    return [w for n in range(1, top + 1) for w in _level("necklace", k, n, True) if is_primitive(w)]


def test_count_chain_memo_matches_cold_runs():
    # a graph's circuit lengths read back from the memo give each doubled
    # word the report a search from scratch gives it
    from circsq.verify import _eval_count_chain

    def cold(w, cfg):
        verify._graph_facts.cache_clear()
        return _evaluate(_eval_count_chain, w, cfg)

    cfg = SweepConfig()
    words = _primitive_necklaces(2, 11) + _primitive_necklaces(3, 7)
    verify._graph_facts.cache_clear()
    warm = [_evaluate(_eval_count_chain, w, cfg).to_dict() for w in words]
    for w, report in zip(words, warm):
        assert cold(w, cfg).to_dict() == report, w
    # the cap is part of the key: facts found under one cap never answer
    # another, in either order
    level = _primitive_necklaces(2, 8)
    tight, loose = SweepConfig(circuit_cap=1), SweepConfig()
    expected = {
        cfg.circuit_cap: [w for w in level if cold(w, cfg).skipped] for cfg in (tight, loose)
    }
    assert "aab" in expected[1] and not expected[DEFAULT_CIRCUIT_CAP]
    verify._graph_facts.cache_clear()
    for cfg in (tight, loose, tight):
        skipped = [w for w in level if _evaluate(_eval_count_chain, w, cfg).skipped]
        assert skipped == expected[cfg.circuit_cap], cfg.circuit_cap


def test_graph_facts_rank_every_prefix_of_the_circuit_family(monkeypatch):
    # on every order of every word at the naive-oracle sizes, ranks[j] is the
    # exact rank of the j shortest circuits, even where the elimination
    # stopped once the rank reached the cycle space's dimension chi
    stopped = 0
    for k, top in ((2, 9), (3, 6)):
        for n in range(2, top + 1):
            for w in words_over(k, n):
                for i, size, codes in _index_graphs(w, range(1, n)):
                    head, out = _unpack(size, codes)
                    found = _circuit_edges(head, out, size, DEFAULT_CIRCUIT_CAP)
                    vectors = _edge_vectors(sorted(found, key=len), len(head))
                    lengths, ranks, closed = verify._graph_facts.__wrapped__(
                        size, codes, DEFAULT_CIRCUIT_CAP
                    )
                    assert closed and lengths == tuple(sorted(map(len, found))), (w, i)
                    assert ranks == tuple(
                        fraction_rank(vectors[:j]) for j in range(len(vectors) + 1)
                    ), (w, i)
                    stopped += len(vectors) > 1 and ranks[-2] == len(head) - size + 1
    assert stopped
    # walks that do not close may span more than chi, so the elimination
    # runs to the end: "aab" at order 1 has chi 1, and its edges a -> a and
    # a -> b, passed off as two circuits, have rank 2
    monkeypatch.setattr(rauzy, "_circuit_edges", lambda head, out, size, cap: [[0], [1]])
    (_, size, codes), = _index_graphs("aab", range(1, 2))
    assert verify._graph_facts.__wrapped__(size, codes, 1) == ((1, 1), (0, 1, 2), False)


def test_count_chain_memo_traffic_is_pinned():
    # a cold (2,11) sweep searches each of its 326 distinct graphs once and
    # reads the other 1,709 circuit-bearing orders back; a key that also held
    # the order or the word length would miss more often
    verify._graph_facts.cache_clear()
    assert run_check("count-chain", _cfg("count-chain", 2, 11)).passed
    info = verify._graph_facts.cache_info()
    assert (info.misses, info.hits) == (326, 1709)


def test_circuit_rank_memo_traffic_is_pinned():
    # the renamed words of a cold (3,8) sweep share their low-order graphs
    # across orders too: keyed by the graph alone, 664 of 3,740 lookups
    # search, where a key that also held the order searched 789
    verify._graph_facts.cache_clear()
    assert run_check("circuit-rank", _cfg("circuit-rank", 3, 8)).passed
    info = verify._graph_facts.cache_info()
    assert (info.misses, info.hits) == (664, 3076)


def test_graph_checks_share_the_memo():
    # facts that count-chain left in the memo answer circuit-rank and
    # large-circuit with the reports each gives from a cold memo, under a
    # cap that skips words and under the default cap
    for cap in (1, DEFAULT_CIRCUIT_CAP):
        cold, cold_hits = {}, {}
        for check in ("circuit-rank", "large-circuit"):
            verify._graph_facts.cache_clear()
            cold[check] = run_check(check, _cfg(check, 2, 8, circuit_cap=cap)).to_dict()
            cold_hits[check] = verify._graph_facts.cache_info().hits
        verify._graph_facts.cache_clear()
        run_check("count-chain", _cfg("count-chain", 2, 8, circuit_cap=cap))
        for check in ("circuit-rank", "large-circuit"):
            hits = verify._graph_facts.cache_info().hits
            warm = run_check(check, _cfg(check, 2, 8, circuit_cap=cap)).to_dict()
            assert warm == cold[check], (check, cap)
            if check == "circuit-rank":
                # it read some graphs count-chain had searched
                assert verify._graph_facts.cache_info().hits - hits > cold_hits[check]


def test_class_circuits_examples_direct():
    from circsq.verify import _eval_class_circuits

    cfg = SweepConfig()
    out = _evaluate(_eval_class_circuits, "aaaaaa", cfg)  # one class, root a, t = 5
    assert not out.violations
    assert out.stats["predicted"] == out.stats["realized"] == 5
    out = _evaluate(_eval_class_circuits, "abc", cfg)
    assert not out.violations
    assert out.stats["predicted"] == 0


def test_class_reach_matches_contains_class_circuit_at_every_order():
    # the class circuit of p at an order o >= |p| lies in the graph of w
    # exactly when o + 1 <= reach; reach <= n rules out order n, which has
    # no graph
    from circsq.verify import _class_reach

    for k, top in ((2, 9), (3, 6)):
        roots = [p for m in range(1, 5) for p in words_over(k, m) if is_primitive(p)]
        for n in range(1, top + 1):
            for w in words_over(k, n):
                for p in roots:
                    reach = _class_reach(w, p)
                    assert reach <= n, (w, p)
                    for order in range(len(p), n):
                        realized = contains_class_circuit(w, p, order)
                        assert (order + 1 <= reach) == realized, (w, p, order)


def test_class_reach_matches_the_countdown():
    # the bisection of the first window against one-step countdowns at every
    # offset, on each class root and on short roots that may not occur at all
    from circsq.squares import _class_tops
    from circsq.verify import _class_reach

    short = {
        k: [p for m in range(1, 4) for p in words_over(k, m) if is_primitive(p)] for k in (2, 3, 4)
    }

    def roots_of(w, k):
        return [p for p, _, _, _ in _class_tops(w)] + short[k]

    for n in range(1, 13):
        for u in _level("necklace", 2, n, True):
            if is_primitive(u):
                w = u + u
                for p in roots_of(w, 2):
                    assert _class_reach(w, p) == linear_class_reach(w, p), (w, p)
    rng = random.Random(24)
    for _ in range(2000):
        k = rng.randint(2, 4)
        w = "".join(rng.choice("abcd"[:k]) for _ in range(rng.randint(11, 24)))
        for p in roots_of(w, k):
            assert _class_reach(w, p) == linear_class_reach(w, p), (w, p)


def _power_class(root, tops):
    """A class given by its conjugates' top exponents, in the sweeps' shape
    ``(root, t, even, tops)``, and spelled out as a validated :class:`PowerClass`."""
    from circsq.squares import PowerClass

    members = {q * k for q, top in tops.items() for k in range(2, top + 1)}
    even = {m for m in members if len(m) // len(root) % 2 == 0}
    pc = PowerClass(root, frozenset(members), frozenset(even), frozenset(members - even))
    return (root, pc.t, len(pc.even), tops), pc


def test_class_circuits_reports_unrealized_classes_order_by_order(monkeypatch):
    # a swept word's classes are always realized; fed classes that are not,
    # the reach must give the violations, realized and beyond_window counts
    # the plain per-order test gives
    from circsq.verify import _eval_class_circuits

    def per_order(w, classes):
        n = len(w)

        def realizes(p, order):
            return order + 1 <= n and contains_class_circuit(w, p, order)

        violations, realized, beyond = [], 0, 0
        for p, t, _, _ in classes:
            l = len(p)
            for order in range(l, l + t):
                if realizes(p, order):
                    realized += 1
                else:
                    text = f"class {p} (t={t}) has no small circuit at order {order}"
                    violations.append((w, text))
            order = l + t
            while realizes(p, order):
                beyond += 1
                order += 1
        return violations, realized, beyond

    w = "abababba"  # (ab)^oo reaches 5: "ababab" and "babab" occur, "bababa" does not
    ab5, _ = _power_class("ab", {"ab": 4, "ba": 3})  # t = 5
    abb, _ = _power_class("abb", {"abb": 2, "bba": 2})  # "bbab" does not occur: reach 3
    a, _ = _power_class("a", {"a": 2})
    ab2, _ = _power_class("ab", {"ab": 2, "ba": 2})
    cases = [
        ([ab5, abb, a], [(ab5, 5), (ab5, 6), (abb, 3), (abb, 4), (a, 1)], 3, 0),
        ([ab2], [], 2, 1),
    ]
    for classes, missing, realized, beyond in cases:
        monkeypatch.setattr(verify, "_classes", lambda word: classes)
        out = _evaluate(_eval_class_circuits, w)
        expected = [
            (w, f"class {p} (t={t}) has no small circuit at order {o}")
            for (p, t, _, _), o in missing
        ]
        assert out.violations == expected
        assert (out.stats["realized"], out.stats.get("beyond_window", 0)) == (realized, beyond)
        assert per_order(w, classes) == (out.violations, realized, beyond)


def _set_level_structure(pc):
    """The set-based definition: every conjugate's exponent set is {2..r+1},
    or {2..r+2} on exactly s of them, with all conjugates present once r >= 1."""
    l = pc.root_length
    r, s = divmod(pc.t, l)
    base = set(range(2, r + 2))
    levels = {}
    for m in pc.members:
        levels.setdefault(m[:l], set()).add(len(m) // l)
    if any(exps not in (base, base | {r + 2}) for exps in levels.values()):
        return False
    if r and len(levels) < l:
        return False
    return sum(1 for exps in levels.values() if exps != base) == s


def test_level_structure_matches_the_set_definition():
    from circsq.squares import _class_tops, class_decomposition
    from circsq.verify import _has_level_structure

    for n in range(1, 9):
        for w in words_over(3, n):
            decomp = class_decomposition(w).classes
            for (p, t, _, tops), pc in zip(_class_tops(w), decomp, strict=True):
                assert p == pc.root, w
                assert _has_level_structure(tops, t, len(p)) == _set_level_structure(pc), (w, p)
    # a gap below a top cannot be written as tops: every exponent 2..top is there
    broken = [
        ("ab", {"ab": 3}),  # the conjugate "ba" is missing
        ("aab", {"aab": 3, "aba": 3}),  # two conjugates at r + 2 = 3, but s = 1
        ("ab", {"ab": 4, "ba": 2}),  # t = 4 puts every top at r + 1 = 3
    ]
    for root, tops in broken:
        (p, t, _, _), pc = _power_class(root, tops)
        assert not _has_level_structure(tops, t, len(p)) and not _set_level_structure(pc), tops
    (p, t, _, tops), pc = _power_class("ab", {"ab": 3, "ba": 2})
    assert _has_level_structure(tops, t, len(p)) and _set_level_structure(pc)


def test_case_classification_examples():
    from circsq.verify import _classify_case, _eval_case_bounds

    assert _classify_case("abc") == ("case1", (2, 3))
    out = _evaluate(_eval_case_bounds, "aabb")
    assert not out.violations
    assert circular_square_count("aabb") == 2


def test_case_classification_split_routes():
    from circsq.rauzy import decompose_split, split_point
    from circsq.verify import _classify_case

    # late split into a loop plus a long circuit, recursing onto the long root
    assert split_point("aaaaaab") == 5
    assert sorted(c.length for c in decompose_split("aaaaaab", 5)) == [1, 6]
    assert _classify_case("aaaaaab") == ("case2", (8, 13))
    # late split whose short candidate root sits between n/4 and n/3
    assert split_point("aabaabaabab") == 9
    assert sorted(c.length for c in decompose_split("aabaabaabab", 9)) == [3, 8]
    assert _classify_case("aabaabaabab") == ("case3", (3, 5))


def test_case_classification_matches_the_window_set_split_point(monkeypatch):
    # every primitive binary necklace to 14, classified once with the sorted
    # rotations and once with split points grown window set by window set
    from circsq.verify import _classify_case, _iter_necklaces

    words = [w for n in range(1, 15) for w in _iter_necklaces(2, n) if is_primitive(w)]
    expected = [_classify_case(w) for w in words]
    verify._split_point.cache_clear()
    verify._split_circuits.cache_clear()
    asked = set()
    monkeypatch.setattr(rauzy, "_split_point", lambda p: asked.add(p) or window_split_point(p))
    assert [_classify_case(w) for w in words] == expected
    assert asked.issuperset(words)  # the classification reads the patched route
    verify._split_point.cache_clear()
    verify._split_circuits.cache_clear()


def test_split_checks_share_one_split_memo(monkeypatch):
    # splits and case-bounds read one word's split point and circuits once,
    # straight from the memos: the sweeps skip split_point's validation
    from circsq.verify import _eval_case_bounds, _eval_splits

    def revalidated(p):
        raise AssertionError(f"a sweep revalidated {p!r}")

    monkeypatch.setattr(rauzy, "is_primitive", revalidated)
    point, circuits = verify._split_point, verify._split_circuits
    point.cache_clear()
    circuits.cache_clear()
    p = "aabaabaabab"  # splits at 9 into circuits of 3 and 8, then at 6 on the 8-root
    _evaluate(_eval_splits, p)
    assert (point.cache_info().hits, point.cache_info().misses) == (0, 1)
    assert (circuits.cache_info().hits, circuits.cache_info().misses) == (0, 1)
    _evaluate(_eval_case_bounds, p)
    # p's point and circuits read back once each; the 8-root's computed once
    assert (point.cache_info().hits, point.cache_info().misses) == (1, 2)
    assert (circuits.cache_info().hits, circuits.cache_info().misses) == (1, 2)


def test_class_parity_cross_checks_against_the_naive_scan(monkeypatch):
    # the even-power total is compared with squares listed by the naive scan,
    # never with the bit-parallel count that the bound checks read
    scanned = []
    scan = verify._square_scan
    monkeypatch.setattr(verify, "_square_scan", lambda s, n: scanned.append(s) or scan(s, n))

    def kernel(w):
        raise AssertionError("class-parity read the circular square count")

    monkeypatch.setattr(verify, "_circular_square_count", kernel)
    monkeypatch.setattr(verify, "circular_square_count", kernel)
    words = ["aabaab", "abacabacabac", "ab"]
    for w in words:
        assert not _evaluate(verify._eval_class_parity, w).violations
    assert scanned == words


# ---------------------------------------------------------------------------
# large-circuit instances


def test_large_circuit_builtin_instances():
    rep = run_check("large-circuit", _cfg("large-circuit", 2, 8))
    assert rep.passed
    assert rep.words_tested == len(LARGE_CIRCUIT_INSTANCES) >= 5


def test_large_circuit_single_instance():
    rep = check_large_circuit("ababababc", "ab", 4)
    assert rep.passed
    assert rep.stats["orders_checked"] == 2  # orders 8 and 9


def test_large_circuit_preconditions_name_the_failed_clause():
    with pytest.raises(ValueError, match="k=3"):
        check_large_circuit("abababc", "ab", 3)
    with pytest.raises(ValueError, match="not primitive"):
        check_large_circuit("ababababc", "abab", 4)
    with pytest.raises(ValueError, match="between 0"):
        check_large_circuit("abababab", "ab", 4)  # r == 0
    with pytest.raises(ValueError, match="circular factor"):
        check_large_circuit("abcbcbcbc", "ab", 4)
    with pytest.raises(ValueError, match="circuit cap must be at least 1"):
        check_large_circuit("ababababc", "ab", 4, 0)


def test_large_circuit_word_length_fits_the_graph_code():
    # the top orders of a 1,055-letter instance code every edge in one code
    # point; one letter more is refused before any graph is cut
    p = "a" * 209 + "b"
    rep = check_large_circuit(p * 5 + "c" * 5, p, 5)
    assert rep.passed and rep.stats["orders_checked"] == 210
    with pytest.raises(ValueError, match="1056 exceeds 1055"):
        check_large_circuit(p * 5 + "c" * 6, p, 5)


# ---------------------------------------------------------------------------
# runner machinery


def test_suite_runs_selected_checks_in_order():
    cfg = SweepConfig(2, 5, frozenset({"splits", "bound-5-3"}))
    suite = run_suite(cfg)
    assert [r.check_id for r in suite.reports] == ["bound-5-3", "splits"]
    assert suite.passed
    assert suite.violations_total == 0


def test_resolve_checks():
    assert resolve_checks("all") == frozenset(CHECK_ORDER)
    assert resolve_checks("splits") == frozenset({"splits"})
    with pytest.raises(ValueError):
        resolve_checks("nope")


def test_resolve_checks_takes_a_comma_list():
    pair = frozenset({"bound-5-3", "case-bounds"})
    assert resolve_checks("bound-5-3,case-bounds") == pair
    assert resolve_checks("case-bounds,bound-5-3,case-bounds") == pair
    for selector in ("bound-5-3,nope", "bound-5-3,", "all,splits"):
        with pytest.raises(ValueError, match="unknown check id"):
            resolve_checks(selector)
    with pytest.raises(ValueError, match="'nope'"):
        resolve_checks("bound-5-3,nope")
    cfg = SweepConfig(alphabet_size=2, max_length=10)
    listed = run_suite(replace(cfg, checks=resolve_checks("case-bounds,bound-5-3")))
    assert listed.to_json() == run_suite(replace(cfg, checks=pair)).to_json()


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(alphabet_size=0)
    with pytest.raises(ValueError):
        SweepConfig(checks=frozenset())
    with pytest.raises(ValueError):
        SweepConfig(checks=frozenset({"bogus"}))
    with pytest.raises(ValueError):
        SweepConfig(jobs=0)
    with pytest.raises(ValueError, match="max length"):
        SweepConfig(max_length=0)
    with pytest.raises(ValueError, match="circuit cap"):
        SweepConfig(circuit_cap=0)


def test_reports_are_deterministic():
    cfg = SweepConfig(2, 7, frozenset({"bound-5-3", "circuit-rank", "splits"}))
    assert run_suite(cfg).to_json() == run_suite(cfg).to_json()


# Per check: words tested, stats, counts of violations, flagged and skipped
# entries, max ratio and witness of an all-check suite.
_PINNED_REPORTS = {
    (2, 8, DEFAULT_CIRCUIT_CAP): [
        ("bound-5-3", 51, {"canonical_pairs_checked": 1000}, 0, 0, 0, "3/4", "aabaabab"),
        ("bound-nonprimitive", 13, {"canonical_pairs_checked": 1000}, 0, 0, 0, "3/4", "aabbaabb"),
        ("circuit-rank", 255, {"small_circuits": 873}, 0, 0, 0, None, None),
        ("class-circuits", 255, {"predicted": 870, "realized": 870}, 0, 0, 0, None, None),
        ("class-parity", 255, {}, 0, 0, 0, None, None),
        ("splits", 38, {"never_splits": 2, "splitting_roots": 36}, 0, 0, 0, None, None),
        ("case-bounds", 38, {"case1": 36, "case2": 2}, 0, 0, 0, None, None),
        (
            "count-chain", 38, {"indep_total": 425, "power_small": 164, "small_count": 164},
            0, 0, 0, None, None,
        ),
        ("large-circuit", 5, {"orders_checked": 13}, 0, 0, 0, None, None),
    ],
    (3, 6, 3): [
        ("bound-5-3", 47, {"canonical_pairs_checked": 1000}, 0, 0, 0, "2/3", "aabaab"),
        ("bound-nonprimitive", 9, {"canonical_pairs_checked": 1000}, 0, 0, 0, "2/3", "aabaab"),
        ("circuit-rank", 185, {"small_circuits": 310}, 0, 0, 0, None, None),
        ("class-circuits", 185, {"predicted": 310, "realized": 310}, 0, 0, 0, None, None),
        ("class-parity", 185, {}, 0, 0, 0, None, None),
        ("splits", 38, {"never_splits": 3, "splitting_roots": 35}, 0, 0, 0, None, None),
        ("case-bounds", 38, {"case1": 38}, 0, 0, 0, None, None),
        (
            "count-chain", 38, {"indep_total": 239, "power_small": 62, "small_count": 62},
            0, 0, 6, None, None,
        ),
        ("large-circuit", 5, {"orders_checked": 13}, 0, 0, 0, None, None),
    ],
}


def test_report_content_is_pinned_at_small_sizes():
    # which stats keys exist matters as much as their values: a stat set
    # only when nonzero (beyond_window, ratio_above_3_2, irregular_classes)
    # stays absent, and one always set is there at 0
    for (k, n, cap), expected in _PINNED_REPORTS.items():
        got = [
            (
                r.check_id,
                r.words_tested,
                r.stats,
                len(r.violations),
                len(r.flagged),
                len(r.skipped),
                None if r.max_ratio is None else str(r.max_ratio),
                r.witness,
            )
            for r in run_suite(SweepConfig(k, n, circuit_cap=cap)).reports
        ]
        assert got == expected, (k, n, cap)


def test_jobs_merge_equals_single_threaded():
    # every report of a suite under J jobs equals the one-job report; levels
    # 1 and 2 hold fewer words than five jobs
    for k, n, cap, canonicalize in (
        (2, 8, DEFAULT_CIRCUIT_CAP, True),
        (2, 8, 1, True),
        (3, 6, DEFAULT_CIRCUIT_CAP, True),
        (3, 6, 1, True),
        (2, 8, DEFAULT_CIRCUIT_CAP, False),
    ):
        cfg = SweepConfig(k, n, canonicalize=canonicalize, circuit_cap=cap)
        one = run_suite(cfg).to_dict()
        for jobs in (2, 3, 5):
            many = run_suite(replace(cfg, jobs=jobs)).to_dict()
            for rep in many["reports"]:
                rep["config"]["jobs"] = 1
            assert many == one, (k, n, cap, canonicalize, jobs)
        # each report of the fused all-check pass equals that check run alone
        for rep in one["reports"]:
            lone = run_check(rep["check"], replace(cfg, checks=frozenset({rep["check"]})))
            assert rep == lone.to_dict(), (k, n, cap, canonicalize, rep["check"])


class _RecordingPool:
    """A pool that runs each task in-process on its own copy and records the tasks.

    Beside each task it keeps a copy of the task's ``last`` as it was when the
    task was drawn, after the parent had folded every earlier result.  It
    counts its ``imap`` calls and names each of its ``close``, ``join`` and
    ``terminate`` calls in ``ended``.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.tasks = []
        self.imaps = 0
        self.ended = []

    def imap(self, fn, tasks):
        self.imaps += 1
        return self._run(fn, tasks)

    def _run(self, fn, tasks):
        for task in tasks:
            self.tasks.append((task, dict(task[3])))
            yield fn(pickle.loads(pickle.dumps(task)))

    def close(self):
        self.ended.append("close")

    def join(self):
        self.ended.append("join")

    def terminate(self):
        self.ended.append("terminate")


def _recording_pools(monkeypatch):
    """Pools that ``verify`` starts from now on, and each level it enumerates to sweep."""
    pools, levels = [], []

    def start(jobs):
        pools.append(_RecordingPool(jobs))
        return pools[-1]

    def level(stream, k, n, canonicalize):
        if sys._getframe(1).f_code.co_name == "_feed":  # not the nonprimitive stream's
            levels.append((stream, n))
        return _level(stream, k, n, canonicalize)

    monkeypatch.setattr(verify.multiprocessing, "Pool", start)
    monkeypatch.setattr(verify, "_level", level)
    return pools, levels


def test_jobs_feed_each_level_once_in_ordered_chunks(monkeypatch):
    # the parent enumerates each level once and feeds it to the pool in
    # chunks, in stream order, none of them across a checkpoint flush
    flush = 7
    monkeypatch.setattr(verify, "_CHECKPOINT_FLUSH_EVERY", flush)
    pools, levels = _recording_pools(monkeypatch)
    checks = frozenset({"bound-5-3", "bound-nonprimitive", "class-parity"})  # one per stream
    streams = ("necklace", "nonprimitive", "rename")
    for k, n, canonicalize in ((2, 9, True), (3, 6, True), (2, 7, False)):
        for jobs in (2, 3, 5):
            cfg = SweepConfig(k, n, checks, canonicalize, jobs=jobs)
            levels.clear()
            many = run_suite(cfg).to_dict()
            assert levels == [(s, m) for s in streams for m in range(1, n + 1)], (k, n, jobs)
            for rep in many["reports"]:
                rep["config"]["jobs"] = 1
            assert many == run_suite(replace(cfg, jobs=1)).to_dict(), (k, n, jobs)
            (pool,) = pools[-1:]
            assert pool.jobs == jobs
            fed, snaps = {}, {}
            for task, _ in pool.tasks:
                stream, _, m, last, words = task
                start = len(fed.setdefault((stream, m), []))
                assert words and start // flush == (start + len(words) - 1) // flush, (stream, m)
                assert snaps.setdefault((stream, m), last) is last  # one snapshot per level
                fed[stream, m] += words
            for s, m in levels:  # each level's chunks make up that level, in stream order
                assert fed.get((s, m), []) == list(_level(s, k, m, canonicalize)), (s, m)


def test_jobs_run_one_feed_per_suite(monkeypatch):
    # a suite over three streams makes one imap call, and its results come
    # back in stream and length order
    pools, _ = _recording_pools(monkeypatch)
    checks = frozenset({"bound-5-3", "bound-nonprimitive", "class-parity"})  # one per stream
    run_suite(SweepConfig(2, 9, checks, jobs=2))
    (pool,) = pools
    assert pool.imaps == 1
    order = [(stream, n) for (stream, _, n, _, _), _ in pool.tasks]
    levels = list(dict.fromkeys(order))
    streams = ("necklace", "nonprimitive", "rename")
    empty = ("nonprimitive", 1)  # the one level that holds no words
    assert levels == [(s, n) for s in streams for n in range(1, 10) if (s, n) != empty]
    assert order == sorted(order, key=levels.index)  # each level's chunks are consecutive
    assert pool.ended == ["terminate"]  # after the last result the workers are idle


def test_failed_sweep_terminates_the_pool(monkeypatch):
    # an evaluator that raises in mid-suite ends the pool by terminate, without
    # the join that would wait for every chunk still queued
    pools, _ = _recording_pools(monkeypatch)
    evaluate = verify._CHECK_DEFS["class-parity"].evaluate

    def failing(w, cfg, rep):
        if len(w) == 6:
            raise RuntimeError("evaluator failed")
        evaluate(w, cfg, rep)

    cdef = replace(verify._CHECK_DEFS["class-parity"], evaluate=failing)
    monkeypatch.setitem(verify._CHECK_DEFS, "class-parity", cdef)
    checks = frozenset({"bound-5-3", "class-parity"})
    with pytest.raises(RuntimeError, match="evaluator failed"):
        run_suite(SweepConfig(2, 9, checks, jobs=2))
    (pool,) = pools
    assert pool.ended == ["terminate"]


def test_jobs_tasks_share_the_restored_snapshot(monkeypatch, tmp_path):
    # every task of a level carries one snapshot of the restored last words,
    # unchanged however far the parent has folded when the task is drawn
    monkeypatch.setattr(verify, "_CHECKPOINT_FLUSH_EVERY", 5)
    cfg = SweepConfig(2, 8, frozenset({"bound-5-3", "case-bounds"}))
    whole = tmp_path / "whole.txt"
    run_suite(replace(cfg, checkpoint_path=str(whole)))
    lines = whole.read_text().splitlines(keepends=True)
    cut = next(i for i, line in enumerate(lines) if line.startswith("R case-bounds 2 8 "))
    restored = {}  # each check's last word in its latest record of the top level
    for line in lines[: cut + 1]:
        _, check, _, n, payload = line.split(maxsplit=4)
        if n == "8":
            restored[check] = json.loads(payload)["last"]
    assert len(restored) == 2 and None not in restored.values()  # open in mid-level
    pools, _ = _recording_pools(monkeypatch)
    expected = run_suite(cfg).to_dict()
    for jobs in (2, 3):
        torn = tmp_path / "torn.txt"
        torn.write_text("".join(lines[: cut + 1]))
        got = run_suite(replace(cfg, checkpoint_path=str(torn), jobs=jobs)).to_dict()
        for rep in got["reports"]:
            rep["config"]["jobs"] = 1
        assert got == expected, jobs
        top = [(task[3], seen) for task, seen in pools[-1].tasks if task[2] == 8]
        assert len(top) > 3 and all(snap is top[0][0] for snap, _ in top)
        assert all(seen == restored for _, seen in top)


def test_spot_check_runs_once_per_suite(monkeypatch):
    calls = 0
    count = verify.circular_square_count

    def counting(w):
        nonlocal calls
        calls += 1
        return count(w)

    def counted(cfg):
        nonlocal calls
        calls = 0
        verify._square_count.cache_clear()  # a word left in the memo would skip a count
        return run_suite(cfg), calls

    monkeypatch.setattr(verify, "circular_square_count", counting)
    lone = {c: counted(_cfg(c, 2, 8)) for c in ("bound-5-3", "bound-nonprimitive")}
    both, suite_calls = counted(SweepConfig(2, 8, frozenset(lone)))
    # the 1000 spot-check pairs, two counts each, are drawn once for both checks
    assert suite_calls == sum(n for _, n in lone.values()) - 2000
    for rep in both.reports:
        assert rep.stats["canonical_pairs_checked"] == 1000
        assert rep.to_dict() == lone[rep.check_id][0].reports[0].to_dict()


def test_spot_check_draws_are_pinned(monkeypatch):
    # the spot check draws its pairs in one fixed order: per pair the length,
    # then each letter, then the renaming permutation
    rng = random.Random(0 ^ 0x5EED)
    pairs = []
    for _ in range(1000):
        n = rng.randint(1, 6)
        w = "".join(rng.choice("abc") for _ in range(n))
        rotated = w[n // 2 :] + w[: n // 2]
        renamed = rng.sample("abc", 3)
        pairs.append((w, "".join(renamed["abc".index(ch)] for ch in rotated)))
    seen = []
    count = verify.circular_square_count
    monkeypatch.setattr(verify, "circular_square_count", lambda w: seen.append(w) or count(w))
    cfg = SweepConfig(3, 6, frozenset({"bound-5-3"}), seed=0)
    assert verify._canonicalization_mismatches(cfg) == []
    assert seen == [w for pair in pairs for w in pair]
    # a count that changes under rotation is reported on exactly its pairs
    monkeypatch.setattr(verify, "circular_square_count", lambda w: ord(w[0]))
    expected = [
        (w, f"count changed under rotation/renaming to {t}") for w, t in pairs if w[0] != t[0]
    ]
    assert expected and verify._canonicalization_mismatches(cfg) == expected


def test_checkpoint_resume_is_invisible(tmp_path):
    path = str(tmp_path / "progress.txt")
    run_check("bound-5-3", _cfg("bound-5-3", 2, 5, checkpoint_path=path))
    resumed = run_check("bound-5-3", _cfg("bound-5-3", 2, 8, checkpoint_path=path))
    fresh = run_check("bound-5-3", _cfg("bound-5-3", 2, 8))
    assert resumed.to_dict() == fresh.to_dict()
    lines = Path(path).read_text().splitlines()
    assert lines[0] == 'circsq-checkpoint v3 {"canonicalize": true, "circuit_cap": 1000000}'
    assert any(line.startswith("R bound-5-3 2 8") for line in lines)
    # a lone check's file resumed by a suite that shares its stream
    mixed = str(tmp_path / "mixed.txt")
    run_check("bound-5-3", _cfg("bound-5-3", 2, 5, checkpoint_path=mixed))
    both = frozenset({"bound-5-3", "case-bounds"})
    resumed = run_suite(SweepConfig(2, 8, both, checkpoint_path=mixed))
    assert resumed.to_json() == run_suite(SweepConfig(2, 8, both)).to_json()


def _cuts(text):
    """Offsets halfway through each line of ``text`` and right after it."""
    cuts = []
    offset = 0
    for line in text.splitlines(keepends=True):
        cuts.append(offset + len(line) // 2)  # inside the line
        offset += len(line)
        cuts.append(offset)  # after the line
    return cuts


def test_torn_checkpoint_resumes_to_the_uninterrupted_report(tmp_path, monkeypatch):
    # A budget of one circuit skips words at every level, and small flush
    # batches write several records per level, so the cuts below fall inside
    # the header and between and inside records that carry skipped words.
    # The second config interleaves the records of three checks of one stream.
    monkeypatch.setattr(verify, "_CHECKPOINT_FLUSH_EVERY", 5)
    fused = frozenset({"circuit-rank", "class-circuits", "class-parity"})
    configs = (_cfg("circuit-rank", 2, 8, circuit_cap=1), SweepConfig(2, 7, fused, circuit_cap=1))
    for i, cfg in enumerate(configs):
        whole = tmp_path / f"whole{i}.txt"
        run_suite(replace(cfg, checkpoint_path=str(whole)))
        expected = run_suite(cfg).to_json()
        text = whole.read_text()
        cuts = _cuts(text)
        assert cuts[-1] == len(text) and len(cuts) > 40
        torn = tmp_path / "torn.txt"
        for cut in cuts:
            torn.write_text(text[:cut])
            resumed = run_suite(replace(cfg, checkpoint_path=str(torn)))
            assert resumed.to_json() == expected, (cut, text[:cut].splitlines()[-1:])
            # the file the resumed sweep left behind resumes just as well
            again = run_suite(replace(cfg, checkpoint_path=str(torn)))
            assert again.to_json() == expected, cut


def test_checkpoint_from_another_config_is_not_reused(tmp_path):
    path = tmp_path / "progress.txt"
    run_check("bound-5-3", _cfg("bound-5-3", 2, 10, checkpoint_path=str(path)))
    written = path.read_text()
    raw = _cfg("bound-5-3", 2, 10, canonicalize=False, checkpoint_path=str(path))
    rep = run_check("bound-5-3", raw)
    assert rep.words_tested == 2046  # every binary word of length 1..10
    assert rep.stats["checkpoint_errors"] == 1
    assert path.read_text() == written  # neither reused nor appended to
    v2 = (
        b'circsq-checkpoint v2 {"canonicalize": true, "circuit_cap": 1000000}\n'
        b'R bound-5-3 2 1 {"done": true, "flagged": [], "last": "a", "ratio": "0", '
        b'"skipped": [], "stats": {}, "tested": 7, "violations": [], "witness": "a"}\n'
    )
    # this config's header, then a byte that is not ASCII: the file cannot be read
    unreadable = b'circsq-checkpoint v3 {"canonicalize": true, "circuit_cap": 1000000}\n\xff'
    fresh = run_check("bound-5-3", _cfg("bound-5-3", 2, 4)).to_dict()
    for old in (b"circsq-checkpoint v1\nR bound-5-3 2 1 {}\n", v2, unreadable):
        path.write_bytes(old)
        rep = run_check("bound-5-3", _cfg("bound-5-3", 2, 4, checkpoint_path=str(path))).to_dict()
        assert rep["stats"].pop("checkpoint_errors") == 1
        assert rep == fresh
        assert path.read_bytes() == old


def test_checkpoint_record_of_another_shape_is_skipped(tmp_path):
    # valid JSON that is not a record object, or a record with a value of the
    # wrong type, is skipped like a torn record, alone or after a valid record
    # of the same level, and the sweep reports what a fresh run reports
    cfg = _cfg("bound-5-3", 2, 5)
    fresh = run_suite(cfg).to_json()
    whole = tmp_path / "whole.txt"
    run_suite(replace(cfg, checkpoint_path=str(whole)))
    written = whole.read_text()
    header = written.splitlines(keepends=True)[0]
    record = json.loads(written.splitlines()[-1].split(maxsplit=4)[4])
    wrong = [
        ("tested", "x"), ("tested", True), ("tested", 1.0), ("done", 1), ("done", None),
        ("violations", {}), ("flagged", "x"), ("skipped", None), ("violations", [5]),
        ("flagged", [["w"]]), ("violations", [["w", 5]]), ("skipped", [5]),
        ("stats", []), ("stats", {"x": "1"}), ("stats", {"x": True}),
        ("last", 5), ("ratio", 1.5), ("ratio", "x"), ("ratio", "1/0"), ("witness", []),
    ]
    payloads = ["{}", "[]", "5"]
    payloads += [json.dumps({**record, key: value}) for key, value in wrong]
    lines = [f"R bound-5-3 2 5 {payload}" for payload in payloads]
    # not a record line: another tag on a payload that would change the report, or too few fields
    lines += [f"X bound-5-3 2 5 {json.dumps({**record, 'tested': 999})}", "junk"]
    path = tmp_path / "progress.txt"
    for line in lines:
        for text in (header, written):
            path.write_text(f"{text}{line}\n")
            resumed = run_suite(replace(cfg, checkpoint_path=str(path)))
            assert resumed.to_json() == fresh, (line, text)


def test_checkpoint_rerun_skips_but_reports_identically(tmp_path):
    path = str(tmp_path / "progress.txt")
    cfg = _cfg("splits", 2, 7, checkpoint_path=path)
    first = run_check("splits", cfg).to_dict()
    second = run_check("splits", cfg).to_dict()
    assert first == second


def test_checkpoint_io_failure_is_recoverable():
    cfg = _cfg("bound-5-3", 2, 4, checkpoint_path="/nonexistent/dir/progress.txt")
    rep = run_check("bound-5-3", cfg)
    assert rep.passed
    assert rep.words_tested == 9
    assert rep.stats["checkpoint_errors"] == 1


def test_failed_checkpoint_write_stops_every_later_write(tmp_path, monkeypatch):
    # the first write raises; the sweep goes on, writes nothing more and
    # reports the one error on every check
    attempts = []

    class FailingFile:
        def write(self, text):
            attempts.append(text)
            raise OSError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    def failing_open(path, mode="r", **kwargs):
        if mode == "r":
            return open(path, mode, **kwargs)
        return FailingFile()

    monkeypatch.setattr(verify, "open", failing_open, raising=False)
    cfg = SweepConfig(2, 6, frozenset({"bound-5-3", "class-parity"}))
    expected = run_suite(cfg).to_dict()
    got = run_suite(replace(cfg, checkpoint_path=str(tmp_path / "progress.txt"))).to_dict()
    assert len(attempts) == 1
    for rep in got["reports"]:
        assert rep["stats"].pop("checkpoint_errors") == 1
    assert got == expected


def test_no_checkpoint_path_opens_no_file(monkeypatch):
    # a suite without a checkpoint reads and writes nothing
    cfg = SweepConfig(2, 6, frozenset({"bound-5-3", "class-parity"}))
    expected = run_suite(cfg).to_dict()

    def no_open(*args, **kwargs):
        raise AssertionError("opened a file")

    monkeypatch.setattr(verify, "open", no_open, raising=False)
    assert run_suite(cfg).to_dict() == expected


def test_checkpoint_opens_its_file_once_per_record(tmp_path, monkeypatch):
    # each record, mid-level or done, is written by one open of its own
    monkeypatch.setattr(verify, "_CHECKPOINT_FLUSH_EVERY", 5)
    writes = []

    def counting_open(path, mode="r", **kwargs):
        if mode != "r":
            writes.append(mode)
        return open(path, mode, **kwargs)

    monkeypatch.setattr(verify, "open", counting_open, raising=False)
    path = tmp_path / "progress.txt"
    checks = frozenset({"bound-5-3", "class-parity"})
    run_suite(SweepConfig(2, 6, checks, checkpoint_path=str(path)))
    records = [line for line in path.read_text().splitlines() if line.startswith("R ")]
    assert any('"done": false' in line for line in records)
    assert writes == ["w"] + ["a"] * (len(records) - 1)


def test_checkpoint_kept_with_jobs(tmp_path):
    # two jobs keep the checkpoint: the file is written and the report is the
    # one-job report
    path = tmp_path / "progress.txt"
    rep = run_check("bound-5-3", _cfg("bound-5-3", 2, 5, checkpoint_path=str(path), jobs=2))
    assert "checkpoint_errors" not in rep.stats
    assert path.exists()
    got, solo = rep.to_dict(), run_check("bound-5-3", _cfg("bound-5-3", 2, 5)).to_dict()
    got["config"]["jobs"] = 1
    assert got == solo


def test_checkpoint_under_jobs(tmp_path, monkeypatch, capsys):
    # a --jobs 2 sweep writes a v3 file that reruns under one job or two
    # report identically, and the CLI warns about nothing
    path = tmp_path / "jobs.txt"
    base = ["verify", "--check", "all", "--max-len", "7", "--budget", "1", "--format", "json"]
    for jobs in ("2", "1", "2"):
        plain = main([*base, "--jobs", jobs]), capsys.readouterr()
        kept = main([*base, "--jobs", jobs, "--checkpoint", str(path)]), capsys.readouterr()
        assert kept == plain and plain[1].err == "", jobs
    lines = path.read_text().splitlines()
    assert lines[0] == 'circsq-checkpoint v3 {"canonicalize": true, "circuit_cap": 1}'
    assert sum('"done": true' in line for line in lines) == 8 * 7  # each check, each level
    # a single-job file torn inside an open level resumes under two jobs
    monkeypatch.setattr(verify, "_CHECKPOINT_FLUSH_EVERY", 5)
    fused = frozenset({"circuit-rank", "class-circuits", "class-parity"})
    cfg = SweepConfig(2, 7, fused, circuit_cap=1)
    whole = tmp_path / "whole.txt"
    run_suite(replace(cfg, checkpoint_path=str(whole)))
    expected = run_suite(cfg).to_dict()
    text = whole.read_text()
    torn = tmp_path / "torn.txt"
    resumed_open = 0
    for cut in _cuts(text)[1::5]:
        torn.write_text(text[:cut])
        resumed_open += '"done": false' in text[:cut].splitlines()[-1]
        for _ in range(2):  # the file the resumed sweep leaves behind resumes too
            got = run_suite(replace(cfg, checkpoint_path=str(torn), jobs=2)).to_dict()
            for rep in got["reports"]:
                rep["config"]["jobs"] = 1
            assert got == expected, (cut, text[:cut].splitlines()[-1:])
    assert resumed_open > 3


def test_checkpoint_file_is_the_same_under_any_jobs(tmp_path, monkeypatch):
    # Small flush batches put several records in each level.  The file is the
    # same under one, two and three jobs, holds open records, and a --jobs 2
    # file cut anywhere resumes under one job or two to the uninterrupted report;
    # cut after a line, the resumed sweep appends just what the whole one wrote.
    monkeypatch.setattr(verify, "_CHECKPOINT_FLUSH_EVERY", 5)
    checks = frozenset({"bound-5-3", "case-bounds", "class-parity"})  # two streams
    cfg = SweepConfig(2, 6, checks, circuit_cap=1)
    expected = run_suite(cfg).to_dict()
    files = {}
    for jobs in (1, 2, 3):
        path = tmp_path / f"jobs{jobs}.txt"
        run_suite(replace(cfg, checkpoint_path=str(path), jobs=jobs))
        files[jobs] = path.read_text()
    assert files[2] == files[1] and files[3] == files[1]
    text = files[2]
    assert sum('"done": false' in line for line in text.splitlines()) > 10
    torn = tmp_path / "torn.txt"
    for cut in _cuts(text):
        for jobs in (1, 2):
            torn.write_text(text[:cut])
            got = run_suite(replace(cfg, checkpoint_path=str(torn), jobs=jobs)).to_dict()
            for rep in got["reports"]:
                rep["config"]["jobs"] = 1
            assert got == expected, (cut, jobs, text[:cut].splitlines()[-1:])
            if text[:cut].endswith("\n"):
                assert torn.read_text() == text, (cut, jobs)


def test_benchmark_hooks_stay_public():
    # the per-layer benchmark wraps exactly these names from outside, names
    # each span by the module that defines the function, and counts pool
    # fan-out through the multiprocessing that verify binds
    import multiprocessing

    for name in ("run_check", "run_suite", "circular_square_count"):
        assert name in verify.__all__, name
        assert getattr(verify, name).__module__ == "circsq.verify", name
    assert verify.multiprocessing is multiprocessing


def test_all_lists_only_real_names():
    # a name deleted from a module but left in __all__ fails only at import *
    from circsq import rauzy, squares, words

    for module in (words, squares, rauzy, verify):
        names = module.__all__
        assert len(set(names)) == len(names), module.__name__
        assert [n for n in names if not hasattr(module, n)] == [], module.__name__


def test_every_memo_lives_in_verify():
    # the layer modules compute afresh; the memos that share a word's facts
    # between the checks of a sweep are verify's, sized to the sweeps' traffic
    from circsq import squares, words

    def memos(module):
        return {name for name, obj in vars(module).items() if hasattr(obj, "cache_info")}

    for module in (words, squares, rauzy):
        assert memos(module) == set(), module.__name__
    assert memos(verify) == {
        "_square_count", "_classes", "_split_point", "_split_circuits", "_graph_facts"
    }


def test_report_json_roundtrip():
    rep = run_check("bound-5-3", _cfg("bound-5-3", 2, 5))
    data = rep.to_dict()
    assert json.loads(json.dumps(data, sort_keys=True)) == data
    # brute force over all binary words of length <= 5 peaks at aabab
    assert data["max_ratio"] == "3/5"
    assert data["witness"] == "aabab"
    assert data["passed"] is True


def test_report_for_config_echo():
    rep = CheckReport.for_config("splits", SweepConfig(3, 9, frozenset({"splits"}), seed=5))
    assert rep.check_id == "splits"
    assert rep.alphabet_size == 3
    assert rep.max_length == 9
    assert rep.seed == 5


def test_witness_moves_only_on_a_strictly_greater_ratio():
    # the first witness in stream order keeps an equal ratio, offered or merged
    rep = CheckReport.for_config("probe", SweepConfig())
    rep._offer(2, 4, "aabb")
    rep._offer(3, 6, "aaabbb")
    assert (rep.max_ratio, rep.witness) == (Fraction(1, 2), "aabb")
    rep._offer(4, 7, "aabaabb")
    assert (rep.max_ratio, rep.witness) == (Fraction(4, 7), "aabaabb")
    tie = CheckReport.for_config("probe", SweepConfig())
    tie._offer(8, 14, "aabaabbaabaabb")
    rep.merge(tie)
    rep.merge(CheckReport.for_config("probe", SweepConfig()))
    assert (rep.max_ratio, rep.witness) == (Fraction(4, 7), "aabaabb")


# ---------------------------------------------------------------------------
# extremal search


def test_search_exhaustive_small():
    rep = search_extremal(4, 2, budget=1000, seed=0)
    assert rep.stats["exhaustive"] == 1
    assert rep.stats["best_count"] == 2
    assert rep.max_ratio == Fraction(1, 2)
    assert rep.passed


def test_exhaustive_search_matches_brute_force():
    # the necklace stream reaches every orbit: best count and least witness agree
    for k, top in ((2, 10), (3, 6)):
        for n in range(1, top + 1):
            rep = search_extremal(n, k, budget=k**n)
            assert rep.stats["exhaustive"] == 1
            assert (rep.stats["best_count"], rep.witness) == brute_extremal(k, n), (k, n)


def test_exhaustive_search_finds_the_known_binary_maxima():
    # known maxima of Sq([w]) past the brute-force sizes, with the least
    # witness and the size of the necklace level
    known = {
        16: (16, "aabaababaabaabab", 2068),
        18: (18, "aaaabaaabaaaabaaab", 7316),
        20: (19, "aaaaabaaaabaaabaaaab", 26272),
        21: (21, "aababaabababaabababab", 49940),
    }
    for n, (best, witness, evaluations) in known.items():
        rep = search_extremal(n, 2, budget=2**n)
        assert rep.stats["exhaustive"] == 1
        got = (rep.stats["best_count"], rep.witness, rep.stats["evaluations"])
        assert got == (best, witness, evaluations), n
        assert rep.passed


def test_search_unary():
    rep = search_extremal(6, 1, budget=10, seed=0)
    assert rep.stats["best_count"] == 3
    assert rep.max_ratio == Fraction(1, 2)


def test_search_two_letter_length_two():
    rep = search_extremal(2, 2, budget=100, seed=0)
    assert rep.max_ratio == Fraction(1, 2)
    assert rep.witness == "aa"


def test_search_hill_climb_is_deterministic_and_bounded():
    a = search_extremal(16, 2, budget=400, seed=3)
    b = search_extremal(16, 2, budget=400, seed=3)
    assert a.to_dict() == b.to_dict()
    assert a.stats["evaluations"] == 400
    assert a.stats["exhaustive"] == 0
    assert a.passed  # never above 5/3
    # a different seed may find a different witness but obeys the same bound
    c = search_extremal(16, 2, budget=400, seed=4)
    assert c.passed


def test_search_witness_is_the_least_word_at_the_best_count():
    # the first word found at the best count is not the least one in either case,
    # so a first-wins reduction fails here
    for n, budget, seed, ties in ((12, 300, 3, 12), (20, 2000, 0, 4)):
        pairs = list(islice(verify._climb(n, "ab", random.Random(seed)), budget))
        best = max(count for _, count in pairs)
        tied = [w for w, count in pairs if count == best]
        assert len(set(tied)) == ties and tied[0] != min(tied)
        rep = search_extremal(n, 2, budget, seed)
        assert (rep.stats["best_count"], rep.witness) == (best, min(tied))
        assert rep.stats["evaluations"] == budget


def test_search_validates_arguments():
    with pytest.raises(ValueError):
        search_extremal(0, 2)
    with pytest.raises(ValueError):
        search_extremal(4, 0)
    with pytest.raises(ValueError):
        search_extremal(4, 2, budget=0)
