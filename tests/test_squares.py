"""Squares, power factors, and power-class decompositions."""

import json
import random
from itertools import product

import pytest

from circsq.squares import (
    PowerClass,
    SquareSet,
    _circular_square_count,
    _class_tops,
    _square_scan,
    class_decomposition,
    decomposition_report,
    distinct_squares,
    distinct_squares_circular,
    distinct_squares_circular_via_doubling,
    odd_even_counts,
)
from circsq.words import (
    CircularWord,
    InvalidWordError,
    canonical_rotation,
    is_primitive,
    primitive_root,
    rotations,
)

from conftest import (
    brute_circular_squares,
    brute_power_factors,
    brute_squares,
    lyndon_least_rotation,
    words_over,
)

P3 = "abacabacabac"


def test_distinct_squares_examples():
    assert distinct_squares("aabaa").squares == {"aa"}
    assert brute_squares("aabaa") == {"aa"}
    assert distinct_squares("ab").count == 0
    got = distinct_squares(P3)
    assert got.squares == brute_squares(P3)
    assert got.squares == {q + q for q in rotations("abac")}
    assert got.count == 4


def test_distinct_squares_matches_brute_exhaustively():
    for n in range(1, 11):
        for w in words_over(2, n):
            assert distinct_squares(w).squares == brute_squares(w), w
    for n in range(1, 8):
        for w in words_over(3, n):
            assert distinct_squares(w).squares == brute_squares(w), w


def test_distinct_squares_circular_examples():
    assert distinct_squares_circular(CircularWord("ab")).count == 0
    assert distinct_squares_circular(CircularWord("aabb")).squares == {"aa", "bb"}
    assert distinct_squares_circular(CircularWord("aa")).squares == {"aa"}


def test_via_doubling_examples():
    assert distinct_squares_circular_via_doubling(CircularWord("aabb")).squares == {"aa", "bb"}
    assert distinct_squares_circular_via_doubling(CircularWord("ab")).count == 0
    assert distinct_squares_circular_via_doubling(CircularWord("aaa")).squares == {"aa"}


def test_circular_routes_agree_with_brute_exhaustively():
    for n in range(1, 11):
        for w in words_over(2, n):
            cw = CircularWord(w)
            expected = brute_circular_squares(w)
            assert distinct_squares_circular(cw).squares == expected, w
            assert distinct_squares_circular_via_doubling(cw).squares == expected, w


def test_circular_count_invariant_under_symmetries():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 14)
        w = "".join(rng.choice("abc") for _ in range(n))
        base = distinct_squares_circular(CircularWord(w)).count
        rot = w[n // 2 :] + w[: n // 2]
        assert distinct_squares_circular(CircularWord(rot)).count == base
        perm = dict(zip("abc", "cab"))
        permuted = "".join(perm[ch] for ch in w)
        assert distinct_squares_circular(CircularWord(permuted)).count == base
        assert distinct_squares_circular(CircularWord(w[::-1])).count == base


def test_circular_square_kernel_matches_the_scan_across_bit_planes():
    # letter codes that differ in several bit planes (all seven for "0a~ "),
    # two letters that differ in five (one plane is read), and ten digits
    for letters, top in (("0a~ ", 7), ("aZ", 12), ("0123456789", 4)):
        for n in range(1, top + 1):
            for w in map("".join, product(letters, repeat=n)):
                expected = _square_scan(w + w, n)
                assert expected == brute_circular_squares(w), w
                assert _circular_square_count(w) == len(expected), w


def test_circular_square_kernel_matches_the_scan_on_long_random_words():
    # planes of 40 to 128 bits, wider than one machine word
    rng = random.Random(16)
    alphabets = ("ab", "abc", "aZ", "0a~ ", "0123456789")
    for i in range(2000):
        letters = alphabets[i % len(alphabets)]
        n = rng.randint(20, 64)
        w = "".join(rng.choice(letters) for _ in range(n))
        expected = _square_scan(w + w, n)
        assert _circular_square_count(w) == len(expected), w
        if i < 50:
            assert expected == brute_circular_squares(w), w


def test_linear_square_count_at_most_length():
    for n in range(1, 15):
        for w in words_over(2, n):
            assert distinct_squares(w).count <= n, w
    for n in range(1, 11):
        for w in words_over(3, n):
            assert distinct_squares(w).count <= n, w


def test_square_set_validates_shape():
    with pytest.raises(ValueError):
        SquareSet(frozenset({"aba"}))
    with pytest.raises(ValueError):
        SquareSet(frozenset({"ab"}))
    assert sorted(SquareSet(frozenset({"bb", "aa"}))) == ["aa", "bb"]


def _brute_class_tops(w):
    """Every factor's primitive root and exponent, grouped by least rotation of
    the root: ``(root, t, even, tops)`` in the order :func:`_class_tops` uses."""
    members = {}
    n = len(w)
    for i in range(n):
        for j in range(i + 2, n + 1):
            q, k = primitive_root(w[i:j])
            if k >= 2:
                members.setdefault(lyndon_least_rotation(q), {})[w[i:j]] = (q, k)
    out = []
    for root in sorted(members, key=lambda r: (len(r), r)):
        tops = {}
        for q, k in members[root].values():
            tops[q] = max(tops.get(q, 0), k)
        even = sum(1 for _, k in members[root].values() if k % 2 == 0)
        out.append((root, len(members[root]), even, tops))
    return out


def test_class_tops_match_brute_force_exhaustively():
    # tops[q] is the largest k with q ** k a factor, and every factor that is a
    # proper power sits in its root's class; the doubled words are what
    # count-chain reads
    words = [w for n in range(1, 13) for w in words_over(2, n)]
    words += [w for n in range(1, 9) for w in words_over(3, n)]
    words += [w + w for n in range(1, 9) for w in words_over(2, n)]
    words += [w + w for n in range(1, 6) for w in words_over(3, n)]
    # and longer words, with more periods and longer letter runs
    rng = random.Random(23)
    for _ in range(2000):
        alphabet = "abcd"[: rng.randint(2, 4)]
        words.append("".join(rng.choice(alphabet) for _ in range(rng.randint(11, 20))))
    for w in words:
        assert list(_class_tops(w)) == _brute_class_tops(w), w


def test_class_tops_named_cases():
    # at p = 2 the run (0, 4) repeats the p = 1 interval: its prefix "aa" is no root
    assert _class_tops("aaaa") == (("a", 3, 2, {"a": 4}),)
    # a letter's class is its longest run, "aaa", whatever runs it has before
    assert _class_tops("aabaaab") == (("a", 2, 1, {"a": 3}),)
    assert _class_tops("bbaaab") == (("a", 2, 1, {"a": 3}), ("b", 1, 1, {"b": 2}))
    # the class of "ab" is fed by two runs, "abab" and "babab"; "ba" by the second only
    assert _class_tops("ababbabab") == (
        ("b", 1, 1, {"b": 2}),
        ("ab", 2, 2, {"ab": 2, "ba": 2}),
        ("abb", 1, 1, {"bab": 2}),
    )
    # "ab" tops at 2 in the first run and at 3 in the later one
    assert _class_tops("ababcababab") == (("ab", 3, 2, {"ab": 3, "ba": 2}),)


def test_power_entry_points_reject_invalid_words():
    for bad in ("", "ab\u00e9ab"):
        for fn in (class_decomposition, decomposition_report):
            with pytest.raises(InvalidWordError):
                fn(bad)


def test_class_decomposition_single_letter_run():
    decomp = class_decomposition("aaaaaa")
    assert len(decomp.classes) == 1
    pc = decomp.classes[0]
    assert pc.root == "a"
    assert pc.t == 5
    assert pc.even == {"aa", "aaaa", "aaaaaa"}
    assert pc.odd == {"aaa", "aaaaa"}


def test_class_decomposition_conjugate_squares():
    decomp = class_decomposition(P3)
    assert len(decomp.classes) == 1
    pc = decomp.classes[0]
    assert pc.root == canonical_rotation("abac") == "abac"
    assert pc.t == 5
    assert len(pc.even) == 4
    assert len(pc.odd) == 1
    assert pc.odd == {P3}


def test_class_decomposition_square_free_word():
    assert class_decomposition("abc").classes == ()


def test_class_decomposition_structure_exhaustive():
    words = [w for n in range(1, 11) for w in words_over(2, n)]
    words += [w for n in range(1, 8) for w in words_over(3, n)]
    for w in words:
        decomp = class_decomposition(w)
        members = set()
        roots = []
        total_even = 0
        for pc in decomp.classes:
            # the validating constructor accepts what the sweep builds unchecked
            assert PowerClass(pc.root, pc.members, pc.even, pc.odd) == pc
            assert pc.even | pc.odd == pc.members
            assert not pc.even & pc.odd
            members |= pc.members
            roots.append(pc.root)
            total_even += len(pc.even)
        assert members == brute_power_factors(w), w
        # roots are canonical and pairwise non-conjugate
        assert len(set(roots)) == len(roots)
        assert all(canonical_rotation(r) == r and is_primitive(r) for r in roots)
        # distinct squares are exactly the even-exponent powers
        assert total_even == distinct_squares(w).count, w


def test_class_parity_bounds_exhaustive():
    for n in range(1, 11):
        for w in words_over(2, n):
            for pc in class_decomposition(w).classes:
                n_odd, n_even, l, t = len(pc.odd), len(pc.even), pc.root_length, pc.t
                assert n_odd <= n_even <= n_odd + l, (w, pc.root)
                assert 2 * n_odd >= t - l, (w, pc.root)
    for n in range(1, 9):
        for w in words_over(3, n):
            for pc in class_decomposition(w).classes:
                n_odd, n_even, l, t = len(pc.odd), len(pc.even), pc.root_length, pc.t
                assert n_odd <= n_even <= n_odd + l, (w, pc.root)
                assert 2 * n_odd >= t - l, (w, pc.root)


def test_odd_even_counts_examples():
    assert odd_even_counts(5, 1) == (2, 3)
    assert odd_even_counts(5, 4) == (1, 4)
    assert odd_even_counts(0, 3) == (0, 0)
    with pytest.raises(ValueError):
        odd_even_counts(-1, 2)
    with pytest.raises(ValueError):
        odd_even_counts(3, 0)


def test_odd_even_counts_match_full_power_hosts():
    # hosts u^K carry one class with the full level structure
    for u in ["a", "ab", "abc", "aab", "abac"]:
        for big in range(2, 6):
            host = u * big
            decomp = class_decomposition(host)
            pcs = [pc for pc in decomp.classes if pc.root == canonical_rotation(u)]
            assert len(pcs) == 1
            pc = pcs[0]
            assert (len(pc.odd), len(pc.even)) == odd_even_counts(pc.t, pc.root_length), host


def test_power_class_validation():
    with pytest.raises(ValueError):
        PowerClass("ba", frozenset({"abab"}), frozenset({"abab"}), frozenset())
    with pytest.raises(ValueError):
        PowerClass("ab", frozenset({"abab"}), frozenset(), frozenset({"abab"}))
    with pytest.raises(ValueError):
        PowerClass("ab", frozenset({"abab"}), frozenset({"abab"}), frozenset({"abab"}))


def test_nonprimitive_circular_bound_small():
    # proper powers stay well within three halves of their length; the
    # verify suite pushes the same bound out to length 16
    for n in range(2, 10):
        for l in range(1, n):
            if n % l:
                continue
            for u in words_over(2, l):
                if not is_primitive(u):
                    continue
                w = u * (n // l)
                s = distinct_squares_circular_via_doubling(CircularWord(w)).count
                assert 2 * s <= 3 * n, w


def test_decomposition_report_roundtrip():
    report = decomposition_report("abacabacabac")
    assert report["n"] == 12
    assert report["sq"] == 4
    assert report["sq_circular"] == 4
    assert report["classes"] == [{"root": "abac", "l": 4, "t": 5, "even": 4, "odd": 1}]
    assert json.loads(json.dumps(report)) == report
