"""Word algebra: rotations, canonical forms, primitivity, factor sets."""

import pytest

from circsq.words import (
    CircularWord,
    InvalidWordError,
    canonical_rotation,
    circular_factors,
    factors,
    is_primitive,
    primitive_root,
    rename_by_first_occurrence,
    rotations,
    validate_word,
)

from conftest import lyndon_least_rotation, naive_is_primitive, words_over


P3 = "abacabacabac"


def test_rotations_examples():
    assert rotations("ab") == ["ab", "ba"]
    assert rotations("aa") == ["aa", "aa"]
    assert rotations("bab") == ["bab", "abb", "bba"]


def test_rotations_single_letter():
    assert rotations("a") == ["a"]


def test_canonical_rotation_examples():
    assert canonical_rotation("bab") == "abb"
    assert canonical_rotation("aaaa") == "aaaa"
    assert canonical_rotation("cab") == "abc"


def test_canonical_rotation_matches_lyndon_oracle_exhaustively():
    # Duval's factorization never compares two rotations, so it checks the
    # min over rotations from outside
    words = [w for n in range(1, 9) for w in words_over(3, n)]
    words += [w for n in range(9, 15) for w in words_over(2, n)]
    for w in words:
        assert canonical_rotation(w) == lyndon_least_rotation(w), w


def test_canonical_rotation_stable_across_rotations():
    for w in ["abacaba", "aabbab", "zzaaz", "ababab"]:
        forms = {canonical_rotation(r) for r in rotations(w)}
        assert forms == {canonical_rotation(w)}
        assert canonical_rotation(w) in rotations(w)


def test_circular_word_normalizes_and_compares_by_class():
    assert CircularWord("bab") == CircularWord("abb")
    assert CircularWord("bab").canonical == "abb"
    assert CircularWord("ab") != CircularWord("ba" + "a")
    assert hash(CircularWord("bba")) == hash(CircularWord("abb"))
    assert CircularWord("abb").n == 3


@pytest.mark.parametrize(
    "w,expected",
    [("aba", True), ("abab", False), ("a", True), ("aa", False), ("abcabc", False)],
)
def test_is_primitive_examples(w, expected):
    assert is_primitive(w) is expected


def test_primitivity_matches_naive_exhaustively():
    for n in range(1, 11):
        for w in words_over(2, n):
            assert is_primitive(w) == naive_is_primitive(w), w
    for n in range(1, 8):
        for w in words_over(3, n):
            assert is_primitive(w) == naive_is_primitive(w), w


def test_primitive_root_examples():
    assert primitive_root("aaaa") == ("a", 4)
    assert primitive_root("abab") == ("ab", 2)
    assert primitive_root("abac") == ("abac", 1)


def test_primitive_root_reconstructs_word():
    for n in range(1, 10):
        for w in words_over(2, n):
            root, k = primitive_root(w)
            assert root * k == w
            assert is_primitive(root)
            assert (k == 1) == is_primitive(w)
            assert (k == 1) == (len(set(rotations(w))) == len(w))


def test_factors_examples():
    assert factors(P3, 1) == {"a", "b", "c"}
    assert factors(P3, 2) == {"ab", "ba", "ac", "ca"}
    assert factors("aa", 2) == {"aa"}


def test_factors_range_errors():
    with pytest.raises(ValueError):
        factors("abc", 0)
    with pytest.raises(ValueError):
        factors("abc", 4)


def test_circular_factors_examples():
    assert circular_factors("abac", 3) == {"aba", "bac", "aca", "cab"}
    assert circular_factors("ab", 3) == {"aba", "bab"}
    assert circular_factors("abac", 1) == {"a", "b", "c"}


def test_circular_factors_long_windows_cover_every_rotation():
    # every rotation contributes its window, even past one full period
    assert circular_factors("abac", 6) == {"abacab", "bacaba", "acabac", "cabaca"}
    assert circular_factors("abac", 8) == {
        "abacabac",
        "bacabaca",
        "acabacab",
        "cabacaba",
    }


def test_circular_factors_match_doubled_word_below_period():
    for n in range(1, 11):
        for w in words_over(3, n):
            for m in range(1, n + 1):
                assert circular_factors(w, m) == factors(w + w, m), (w, m)


def test_circular_factors_count_equals_distinct_rotations_for_long_m():
    for n in range(1, 7):
        for w in words_over(3, n):
            distinct = len(set(rotations(w)))
            for m in range(n, 2 * n + 3):
                assert len(circular_factors(w, m)) == distinct, (w, m)


def test_circular_factors_integer_multiple_gives_class_size():
    # at whole multiples of the period the windows are powers of rotations,
    # so a non-primitive word yields its class size, not its length
    assert circular_factors("abab", 4) == {"abab", "baba"}
    assert len(circular_factors("abab", 8)) == 2


def test_rename_by_first_occurrence():
    assert rename_by_first_occurrence("cab") == "abc"
    assert rename_by_first_occurrence("bbxb") == "aaba"
    assert rename_by_first_occurrence("aab") == "aab"


@pytest.mark.parametrize(
    "fn",
    [
        validate_word,
        rotations,
        canonical_rotation,
        is_primitive,
        primitive_root,
    ],
)
def test_empty_word_rejected(fn):
    with pytest.raises(InvalidWordError):
        fn("")


def test_non_ascii_rejected():
    with pytest.raises(InvalidWordError):
        validate_word("abé")
