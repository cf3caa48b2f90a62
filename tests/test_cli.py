"""Command-line interface: formats and exit codes."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import circsq
from circsq.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_circular_text(capsys):
    code, out, _ = run_cli(capsys, "count", "--circular", "aabb")
    assert code == 0
    assert "Sq([aabb]) = 2" in out
    assert "aa" in out and "bb" in out


def test_count_linear_json(capsys):
    code, out, _ = run_cli(capsys, "count", "aabaa", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"word": "aabaa", "circular": False, "count": 1, "squares": ["aa"]}


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--circular", "aabb", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["square"], ["aa"], ["bb"]]


def test_classes_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "classes", "abacabacabac")
    assert code == 0
    assert "root abac" in out and "t=5" in out
    code, out, _ = run_cli(capsys, "classes", "abacabacabac", "--format", "json")
    data = json.loads(out)
    assert data["classes"][0]["root"] == "abac"
    assert data["sq"] == 4


def test_rauzy_dot_matches_low_order_graph(capsys):
    code, out, _ = run_cli(
        capsys, "rauzy", "abacabacabac", "--order", "1", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph")
    body = [line for line in out.splitlines() if "->" in line]
    assert len(body) == 4
    assert out.count("{") == out.count("}") == 1
    vertex_lines = [line for line in out.splitlines() if line.endswith('";')]
    assert len(vertex_lines) == 3


def test_rauzy_json(capsys):
    code, out, _ = run_cli(
        capsys, "rauzy", "abacabacabac", "--order", "2", "--format", "json"
    )
    data = json.loads(out)
    assert data["chi"] == 1
    assert sorted(data["vertices"]) == ["ab", "ac", "ba", "ca"]
    assert data["edges"] == ["aba", "aca", "bac", "cab"]


def test_rauzy_rejects_out_of_range_order(capsys):
    code, _, err = run_cli(capsys, "rauzy", "abc", "--order", "7")
    assert code == 2
    assert "out of range" in err


def test_graph_commands_require_order(capsys):
    for command in ("rauzy", "circuits"):
        code, out, err = run_cli(capsys, command, "abc")
        assert (code, out) == (2, ""), command
        assert "--order" in err, command


def test_circuits_text(capsys):
    code, out, _ = run_cli(capsys, "circuits", "abacabacabac", "--order", "1")
    assert code == 0
    assert "2 elementary circuits" in out
    assert "rank=2" in out and "chi=2" in out


def test_circuits_budget_errors_are_usage_errors(capsys):
    code, out, err = run_cli(capsys, "circuits", "abacabacabac", "--order", "1", "--budget", "1")
    assert (code, out) == (2, "")
    assert err.startswith("circsq: error: ") and err.rstrip().endswith("raise --budget")
    for budget in ("0", "-3"):
        code, _, err = run_cli(capsys, "circuits", "abacabacabac", "--order", "1",
                               "--budget", budget)
        assert code == 2
        assert err == "circsq: error: --budget must be at least 1\n"
    code, _, _ = run_cli(capsys, "circuits", "abacabacabac", "--order", "1", "--budget", "2")
    assert code == 0


def test_split_text(capsys):
    code, out, _ = run_cli(capsys, "split", "abac")
    assert code == 0
    assert "splits at 1" in out
    assert "2+2=4" in out


def test_split_never(capsys):
    code, out, _ = run_cli(capsys, "split", "ab")
    assert code == 0
    assert "never splits" in out


def test_split_rejects_non_primitive(capsys):
    code, _, err = run_cli(capsys, "split", "abab")
    assert code == 2
    assert "primitive" in err


# The string layer's output, held byte for byte: text and CSV as printed, JSON
# as its compact form, which the CLI prints sorted with an indent of 2.
_PINNED_TEXT = [
    (
        ('rauzy', 'abacabacabac', '--order', '1'),
        (
            'order 1: 3 vertices, 4 edges, chi=2\n  a -> b  [ab]\n  a -> c  [ac]\n'
            '  b -> a  [ba]\n  c -> a  [ca]\n'
        ),
    ),
    (
        # the CSV columns are the edge, its tail (start vertex) and its head
        ('rauzy', 'abacabacabac', '--order', '1', '--format', 'csv'),
        'edge,tail,head\r\nab,a,b\r\nac,a,c\r\nba,b,a\r\nca,c,a\r\n',
    ),
    (
        ('rauzy', 'abacabacabac', '--order', '2'),
        (
            'order 2: 4 vertices, 4 edges, chi=1\n  ab -> ba  [aba]\n  ac -> ca  [aca]\n'
            '  ba -> ac  [bac]\n  ca -> ab  [cab]\n'
        ),
    ),
    (
        ('rauzy', 'abacabacabac', '--order', '3'),
        (
            'order 3: 4 vertices, 4 edges, chi=1\n  aba -> bac  [abac]\n'
            '  aca -> cab  [acab]\n  bac -> aca  [baca]\n  cab -> aba  [caba]\n'
        ),
    ),
    (
        ('rauzy', 'aabaababaabaabab', '--order', '1'),
        (
            'order 1: 2 vertices, 3 edges, chi=2\n  a -> a  [aa]\n  a -> b  [ab]\n'
            '  b -> a  [ba]\n'
        ),
    ),
    (
        ('rauzy', 'aabaababaabaabab', '--order', '2'),
        (
            'order 2: 3 vertices, 4 edges, chi=2\n  aa -> ab  [aab]\n  ab -> ba  [aba]\n'
            '  ba -> aa  [baa]\n  ba -> ab  [bab]\n'
        ),
    ),
    (
        ('rauzy', 'aabaababaabaabab', '--order', '3'),
        (
            'order 3: 4 vertices, 5 edges, chi=2\n  aab -> aba  [aaba]\n'
            '  aba -> baa  [abaa]\n  aba -> bab  [abab]\n  baa -> aab  [baab]\n'
            '  bab -> aba  [baba]\n'
        ),
    ),
    (
        ('circuits', 'abacabacabac', '--order', '1', '--format', 'csv'),
        'index,length,vertices,vector\r\n0,2,a b,1 0 1 0\r\n1,2,a c,0 1 0 1\r\n',
    ),
    (
        ('circuits', 'abacabacabac', '--order', '2', '--format', 'csv'),
        'index,length,vertices,vector\r\n0,4,ab ba ac ca,1 1 1 1\r\n',
    ),
    (
        ('circuits', 'abacabacabac', '--order', '3', '--format', 'csv'),
        'index,length,vertices,vector\r\n0,4,aba bac aca cab,1 1 1 1\r\n',
    ),
    (
        ('circuits', 'aabaababaabaabab', '--order', '1', '--format', 'csv'),
        'index,length,vertices,vector\r\n0,1,a,1 0 0\r\n1,2,a b,0 1 1\r\n',
    ),
    (
        ('circuits', 'aabaababaabaabab', '--order', '2', '--format', 'csv'),
        'index,length,vertices,vector\r\n0,2,ab ba,0 1 0 1\r\n1,3,aa ab ba,1 1 1 0\r\n',
    ),
    (
        ('circuits', 'aabaababaabaabab', '--order', '3', '--format', 'csv'),
        (
            'index,length,vertices,vector\r\n0,2,aba bab,0 0 1 0 1\r\n'
            '1,3,aab aba baa,1 1 0 1 0\r\n'
        ),
    ),
    (
        ('classes', 'abacabacabac', '--format', 'csv'),
        'root,l,t,even,odd\r\nabac,4,5,4,1\r\n',
    ),
    (
        ('classes', 'aabaababaabaabab', '--format', 'csv'),
        (
            'root,l,t,even,odd\r\na,1,1,1,0\r\nab,2,2,2,0\r\naab,3,4,3,1\r\n'
            'aabab,5,2,2,0\r\naabaabab,8,1,1,0\r\n'
        ),
    ),
    (
        ('count', 'abaabaab'),
        'Sq(abaabaab) = 4\naa\naabaab\nabaaba\nbaabaa\n',
    ),
    (
        ('count', 'abaabaab', '--format', 'csv'),
        'square\r\naa\r\naabaab\r\nabaaba\r\nbaabaa\r\n',
    ),
    (
        ('count', '--circular', 'abaab'),
        'Sq([abaab]) = 3\naa\nabab\nbaba\n',
    ),
    (
        ('count', '--circular', 'abaab', '--format', 'csv'),
        'square\r\naa\r\nabab\r\nbaba\r\n',
    ),
    (
        ('classes', 'abacabacabac'),
        'word abacabacabac: n=12  Sq=4  Sq_circular=4\n  root abac  l=4  t=5  |E|=4  |O|=1\n',
    ),
    (
        ('classes', 'aabaababaabaabab'),
        (
            'word aabaababaabaabab: n=16  Sq=9  Sq_circular=16\n'
            '  root a  l=1  t=1  |E|=1  |O|=0\n  root ab  l=2  t=2  |E|=2  |O|=0\n'
            '  root aab  l=3  t=4  |E|=3  |O|=1\n  root aabab  l=5  t=2  |E|=2  |O|=0\n'
            '  root aabaabab  l=8  t=1  |E|=1  |O|=0\n'
        ),
    ),
    (
        ('classes', 'ab'),
        'word ab: n=2  Sq=0  Sq_circular=0\nno power classes\n',
    ),
    (
        ('rauzy', 'abacabacabac', '--order', '1', '--format', 'dot'),
        (
            'digraph factors_1 {\n  rankdir=LR;\n  "a";\n  "b";\n  "c";\n'
            '  "a" -> "b" [label="ab"];\n  "a" -> "c" [label="ac"];\n'
            '  "b" -> "a" [label="ba"];\n  "c" -> "a" [label="ca"];\n}\n'
        ),
    ),
    (
        ('circuits', 'aabaababaabaabab', '--order', '2'),
        (
            'order 2: 2 elementary circuits, 1 small, rank=2, chi=2\n'
            '  length 2: ab -> ba -> ab\n  length 3: aa -> ab -> ba -> aa\n'
        ),
    ),
    (
        ('split', 'abacabcab'),
        'abacabcab splits at 3; components of lengths 2+3+4=9\n',
    ),
    (
        ('split', 'ab'),
        'ab never splits\n',
    ),
    (
        ('verify', '--max-len', '7'),
        (
            'bound-5-3            ok               words=31       max_ratio=2/3      '
            'witness=aabaab\n'
            'bound-nonprimitive   ok               words=9        max_ratio=2/3      '
            'witness=aabaab\n'
            'circuit-rank         ok               words=127      max_ratio=-        witness=-\n'
            'class-circuits       ok               words=127      max_ratio=-        witness=-\n'
            'class-parity         ok               words=127      max_ratio=-        witness=-\n'
            'splits               ok               words=22       max_ratio=-        witness=-\n'
            'case-bounds          ok               words=22       max_ratio=-        witness=-\n'
            'count-chain          ok               words=22       max_ratio=-        witness=-\n'
            'large-circuit        ok               words=5        max_ratio=-        witness=-\n'
            'all checks passed\n'
        ),
    ),
    (
        ('verify', '--max-len', '7', '--format', 'csv'),
        (
            'check,words,violations,max_ratio,witness\r\nbound-5-3,31,0,2/3,aabaab\r\n'
            'bound-nonprimitive,9,0,2/3,aabaab\r\ncircuit-rank,127,0,,\r\n'
            'class-circuits,127,0,,\r\nclass-parity,127,0,,\r\nsplits,22,0,,\r\n'
            'case-bounds,22,0,,\r\ncount-chain,22,0,,\r\nlarge-circuit,5,0,,\r\n'
        ),
    ),
    (
        ('verify', '--check', 'circuit-rank,large-circuit', '--budget', '1', '--max-len', '4'),
        (
            'circuit-rank         ok               words=15       max_ratio=-        witness=-\n'
            '    skipped aaba\n    skipped aabb\n    skipped abaa\n    skipped abba\n'
            'large-circuit        ok               words=5        max_ratio=-        witness=-\n'
            '    skipped aabaabaabaaba\nincomplete: 5 word(s) skipped\n'
        ),
    ),
    (
        ('verify', '--check', 'circuit-rank,large-circuit', '--budget', '1', '--max-len', '4',
         '--format', 'csv'),
        (
            'check,words,violations,max_ratio,witness\r\ncircuit-rank,15,0,,\r\n'
            'large-circuit,5,0,,\r\n'
        ),
    ),
    (
        ('search', '--max-len', '6'),
        'best aabaab  Sq=4  ratio=2/3  (exhaustive, 8 evaluations)\n',
    ),
    (
        ('search', '--max-len', '6', '--format', 'csv'),
        'witness,ratio,evaluations\r\naabaab,2/3,8\r\n',
    ),
    (
        ('search', '--max-len', '12', '--budget', '300', '--seed', '3'),
        'best aaabaabaaaba  Sq=10  ratio=5/6  (hill-climbing, 300 evaluations)\n',
    ),
    (
        ('search', '--max-len', '12', '--budget', '300', '--seed', '3', '--format', 'csv'),
        'witness,ratio,evaluations\r\naaabaabaaaba,5/6,300\r\n',
    ),
    (
        ('search', '--max-len', '8', '--alphabet', '3', '--budget', '90', '--seed', '1'),
        'best abaababb  Sq=6  ratio=3/4  (hill-climbing, 90 evaluations)\n',
    ),
    (
        ('search', '--max-len', '8', '--alphabet', '3', '--budget', '90', '--seed', '1',
         '--format', 'csv'),
        'witness,ratio,evaluations\r\nabaababb,3/4,90\r\n',
    ),
    (
        ('search', '--max-len', '12', '--budget', '100', '--seed', '3'),
        'best aaabaabaaaba  Sq=10  ratio=5/6  (hill-climbing, 100 evaluations)\n',
    ),
    (
        ('search', '--max-len', '10', '--budget', '1024'),
        'best aababaabab  Sq=9  ratio=9/10  (exhaustive, 56 evaluations)\n',
    ),
    (
        ('search', '--max-len', '10', '--budget', '1023'),
        'best aababaabab  Sq=9  ratio=9/10  (hill-climbing, 1023 evaluations)\n',
    ),
    (
        ('search', '--max-len', '10', '--budget', '1023', '--format', 'csv'),
        'witness,ratio,evaluations\r\naababaabab,9/10,1023\r\n',
    ),
]

_PINNED_JSON = [
    (
        ('circuits', 'abacabacabac', '--order', '1', '--format', 'json'),
        (
            '{"chi": 2, "circuits": [{"length": 2, "vector": [1, 0, 1, 0], '
            '"vertices": ["a", "b"]}, {"length": 2, "vector": [0, 1, 0, 1], '
            '"vertices": ["a", "c"]}], "order": 1, "rank": 2, "small_circuits": 0, '
            '"word": "abacabacabac"}'
        ),
    ),
    (
        ('circuits', 'abacabacabac', '--order', '2', '--format', 'json'),
        (
            '{"chi": 1, "circuits": [{"length": 4, "vector": [1, 1, 1, 1], '
            '"vertices": ["ab", "ba", "ac", "ca"]}], "order": 2, "rank": 1, '
            '"small_circuits": 0, "word": "abacabacabac"}'
        ),
    ),
    (
        ('circuits', 'abacabacabac', '--order', '3', '--format', 'json'),
        (
            '{"chi": 1, "circuits": [{"length": 4, "vector": [1, 1, 1, 1], '
            '"vertices": ["aba", "bac", "aca", "cab"]}], "order": 3, "rank": 1, '
            '"small_circuits": 0, "word": "abacabacabac"}'
        ),
    ),
    (
        ('circuits', 'aabaababaabaabab', '--order', '1', '--format', 'json'),
        (
            '{"chi": 2, "circuits": [{"length": 1, "vector": [1, 0, 0], '
            '"vertices": ["a"]}, {"length": 2, "vector": [0, 1, 1], "vertices": ["a", '
            '"b"]}], "order": 1, "rank": 2, "small_circuits": 1, '
            '"word": "aabaababaabaabab"}'
        ),
    ),
    (
        ('circuits', 'aabaababaabaabab', '--order', '2', '--format', 'json'),
        (
            '{"chi": 2, "circuits": [{"length": 2, "vector": [0, 1, 0, 1], '
            '"vertices": ["ab", "ba"]}, {"length": 3, "vector": [1, 1, 1, 0], '
            '"vertices": ["aa", "ab", "ba"]}], "order": 2, "rank": 2, "small_circuits": 1, '
            '"word": "aabaababaabaabab"}'
        ),
    ),
    (
        ('circuits', 'aabaababaabaabab', '--order', '3', '--format', 'json'),
        (
            '{"chi": 2, "circuits": [{"length": 2, "vector": [0, 0, 1, 0, 1], '
            '"vertices": ["aba", "bab"]}, {"length": 3, "vector": [1, 1, 0, 1, 0], '
            '"vertices": ["aab", "aba", "baa"]}], "order": 3, "rank": 2, '
            '"small_circuits": 2, "word": "aabaababaabaabab"}'
        ),
    ),
    (
        ('classes', 'abacabacabac', '--format', 'json'),
        (
            '{"classes": [{"even": 4, "l": 4, "odd": 1, "root": "abac", "t": 5}], "n": 12, '
            '"sq": 4, "sq_circular": 4, "word": "abacabacabac"}'
        ),
    ),
    (
        ('classes', 'aabaababaabaabab', '--format', 'json'),
        (
            '{"classes": [{"even": 1, "l": 1, "odd": 0, "root": "a", "t": 1}, {"even": 2, '
            '"l": 2, "odd": 0, "root": "ab", "t": 2}, {"even": 3, "l": 3, "odd": 1, '
            '"root": "aab", "t": 4}, {"even": 2, "l": 5, "odd": 0, "root": "aabab", '
            '"t": 2}, {"even": 1, "l": 8, "odd": 0, "root": "aabaabab", "t": 1}], "n": 16, '
            '"sq": 9, "sq_circular": 16, "word": "aabaababaabaabab"}'
        ),
    ),
    (
        ('split', 'abacabcab', '--format', 'json'),
        (
            '{"component_lengths": [2, 3, 4], "component_roots": ["ab", "abc", "abac"], '
            '"splits_at": 3, "word": "abacabcab"}'
        ),
    ),
    (
        ('split', 'aabaababaabab', '--format', 'json'),
        (
            '{"component_lengths": [5, 8], "component_roots": ["aabab", "aabaabab"], '
            '"splits_at": 11, "word": "aabaababaabab"}'
        ),
    ),
    (
        ('count', '--circular', 'abaab', '--format', 'json'),
        '{"circular": true, "count": 3, "squares": ["aa", "abab", "baba"], "word": "abaab"}',
    ),
    (
        ('rauzy', 'aabaababaabaabab', '--order', '2', '--format', 'json'),
        (
            '{"chi": 2, "edges": ["aab", "aba", "baa", "bab"], "order": 2, '
            '"vertices": ["aa", "ab", "ba"], "word": "aabaababaabaabab"}'
        ),
    ),
    (
        ('split', 'ab', '--format', 'json'),
        '{"component_lengths": [], "splits_at": null, "word": "ab"}',
    ),
    (
        ('verify', '--check', 'bound-5-3', '--max-len', '4', '--format', 'json'),
        (
            '{"passed": true, "reports": [{"check": "bound-5-3", "config": {"alphabet_size": 2, '
            '"canonicalize": true, "jobs": 1, "max_length": 4, "seed": 0}, "flagged": [], '
            '"max_ratio": "1/2", "passed": true, "skipped": [], "stats": '
            '{"canonical_pairs_checked": 1000}, "violations": [], "witness": "aa", '
            '"words_tested": 9}], "violations_total": 0}'
        ),
    ),
    (
        ('search', '--max-len', '6', '--format', 'json'),
        (
            '{"check": "search", "config": {"alphabet_size": 2, "canonicalize": true, '
            '"jobs": 1, "max_length": 6, "seed": 0}, "flagged": [], "max_ratio": "2/3", '
            '"passed": true, "skipped": [], "stats": {"above_3_2": 0, "above_5_4": 0, '
            '"best_count": 4, "evaluations": 8, "exhaustive": 1}, "violations": [], '
            '"witness": "aabaab", "words_tested": 8}'
        ),
    ),
]

# A pinned command exits 0 unless it is listed here.
_PINNED_EXIT = {
    ('verify', '--check', 'circuit-rank,large-circuit', '--budget', '1', '--max-len', '4'): 3,
    ('verify', '--check', 'circuit-rank,large-circuit', '--budget', '1', '--max-len', '4',
     '--format', 'csv'): 3,
}


def test_string_layer_output_is_pinned(capsys):
    for argv, expected in _PINNED_TEXT:
        assert run_cli(capsys, *argv) == (_PINNED_EXIT.get(argv, 0), expected, ""), argv
    for argv, expected in _PINNED_JSON:
        printed = json.dumps(json.loads(expected), sort_keys=True, indent=2) + "\n"
        assert run_cli(capsys, *argv) == (0, printed, ""), argv


def test_every_command_and_format_is_pinned():
    # a new subcommand or --format choice needs a pinned case above
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    offered = set()
    for name, sub in commands.choices.items():
        (fmt,) = [a for a in sub._actions if a.dest == "format"]
        offered |= {(name, choice) for choice in fmt.choices}
    pinned = set()
    for argv, _ in _PINNED_TEXT + _PINNED_JSON:
        args = parser.parse_args(list(argv))
        pinned.add((args.command, args.format))
    assert len(commands.choices) == 7
    assert offered - pinned == set()


def test_empty_word_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "count", "")
    assert code == 2
    assert "empty" in err


def test_classes_rejects_non_ascii_word(capsys):
    code, out, err = run_cli(capsys, "classes", "abéab")
    assert code == 2
    assert "ASCII" in err and not out


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "count", "--bogus", "ab")
    assert code == 2


def test_dot_rejected_outside_rauzy(capsys):
    code, _, _ = run_cli(capsys, "count", "ab", "--format", "dot")
    assert code == 2


def test_verify_small_sweep_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--check",
        "bound-5-3",
        "--alphabet",
        "2",
        "--max-len",
        "6",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["reports"][0]["check"] == "bound-5-3"
    assert json.loads(json.dumps(data)) == data


def test_verify_text_lists_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "splits", "--max-len", "6")
    assert code == 0
    assert "splits" in out
    assert "all checks passed" in out


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "nope")
    assert code == 2
    assert "unknown check" in err


def test_verify_comma_list_runs_the_fused_suite(capsys):
    # a comma list gives the reports of the two-check config, in one pass
    from circsq.verify import SweepConfig, run_suite

    code, out, _ = run_cli(
        capsys, "verify", "--check", "bound-5-3,case-bounds",
        "--alphabet", "2", "--max-len", "10", "--format", "json",
    )
    assert code == 0
    cfg = SweepConfig(
        alphabet_size=2, max_length=10, checks=frozenset({"bound-5-3", "case-bounds"})
    )
    assert out == run_suite(cfg).to_json() + "\n"
    code, _, err = run_cli(capsys, "verify", "--check", "bound-5-3,nope")
    assert code == 2
    assert "unknown check id 'nope'" in err


def test_verify_exit_code_tracks_violations():
    # the exit contract is 1 when any report carries a violation
    from circsq.verify import CheckReport, SuiteReport, SweepConfig

    rep = CheckReport.for_config("bound-5-3", SweepConfig())
    rep.violations.append(("ab", "synthetic"))
    assert SuiteReport([rep]).passed is False


def test_verify_incomplete_sweep_has_its_own_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "circuit-rank", "--max-len", "6", "--budget", "1"
    )
    assert code == 3
    assert "skipped" in out
    assert "all checks passed" not in out
    skipped = sum(1 for line in out.splitlines() if line.strip().startswith("skipped "))
    assert out.splitlines()[-1] == f"incomplete: {skipped} word(s) skipped"


def test_verify_large_circuit_over_budget_is_incomplete(capsys):
    # at a budget of one circuit only aabaabaabaaba has an order over the cap
    code, out, _ = run_cli(capsys, "verify", "--check", "large-circuit", "--budget", "1")
    assert code == 3
    assert "skipped aabaabaabaaba" in out
    assert out.splitlines()[-1] == "incomplete: 1 word(s) skipped"


def test_verify_keeps_the_checkpoint_under_jobs(capsys, tmp_path):
    # --jobs 2 keeps the checkpoint without a warning, and a one-job rerun
    # from that file prints the same report
    path = tmp_path / "progress.txt"
    args = ("verify", "--check", "bound-5-3", "--max-len", "5", "--checkpoint", str(path))
    code, out, err = run_cli(capsys, *args, "--jobs", "2")
    assert code == 0
    assert err == ""
    assert path.exists()
    assert run_cli(capsys, *args) == (0, out, "")


def _holds_open_record(path: Path, key: str) -> bool:
    """True when ``path`` has a whole record line for ``key`` with ``"done": false``."""
    try:
        lines = path.read_text().split("\n")[:-1]  # drop a line still being written
    except FileNotFoundError:
        return False
    return any(line.startswith(key) and '"done": false' in line for line in lines)


def test_killed_sweep_resumes_to_the_uninterrupted_report(capsys, tmp_path):
    # One real child sweep is killed partway through its last level, right
    # after a periodic record; the same command then finishes it in-process.
    path = tmp_path / "progress.txt"
    base = ["verify", "--check", "circuit-rank", "--alphabet", "3", "--max-len", "11",
            "--budget", "1", "--format", "json"]
    argv = [*base, "--checkpoint", str(path)]
    src = str(Path(circsq.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.Popen(
        [sys.executable, "-m", "circsq", *argv], env=env, stdout=subprocess.DEVNULL
    )
    try:
        deadline = time.monotonic() + 300
        while not _holds_open_record(path, "R circuit-rank 3 11 "):
            assert child.poll() is None, "the sweep ended before it could be killed"
            assert time.monotonic() < deadline, "no record for length 11 in time"
            time.sleep(0.005)
    finally:
        child.kill()
        child.wait(timeout=60)
    left = path.read_text()
    assert '"done": true' not in left.split("R circuit-rank 3 11 ", 1)[1]
    resumed = run_cli(capsys, *argv)
    assert path.read_text().startswith(left)  # appended to, not rewritten
    fresh = run_cli(capsys, *base)
    assert resumed[0] == 3
    assert resumed[:2] == fresh[:2]


def test_verify_jobs_flag_matches_single_process(capsys):
    args = ["verify", "--check", "bound-5-3", "--alphabet", "2", "--max-len", "7",
            "--format", "json"]
    _, solo, _ = run_cli(capsys, *args, "--jobs", "1")
    _, duo, _ = run_cli(capsys, *args, "--jobs", "2")
    a, b = json.loads(solo), json.loads(duo)
    for rep in (*a["reports"], *b["reports"]):
        rep["config"].pop("jobs")
    assert a == b


def test_verify_all_checks_binary_length_12_exits_clean(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "all", "--alphabet", "2", "--max-len", "12"
    )
    assert code == 0
    assert "all checks passed" in out


def test_search_text(capsys):
    code, out, _ = run_cli(capsys, "search", "--max-len", "4", "--alphabet", "2")
    assert code == 0
    assert "ratio=1/2" in out
    assert "exhaustive" in out


def test_search_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--max-len", "10", "--alphabet", "2",
        "--budget", "64", "--seed", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["check"] == "search"
    assert data["passed"] is True


def test_search_argument_errors_are_usage_errors(capsys):
    for bad in (["--max-len", "3", "--alphabet", "30"], ["--max-len", "0"],
                ["--max-len", "3", "--budget", "0"]):
        code, out, err = run_cli(capsys, "search", *bad)
        assert (code, out) == (2, ""), bad
        assert err.startswith("circsq: error: ") and "Traceback" not in err, bad
