"""Command-line frontend.

Subcommands: count, classes, rauzy, circuits, split, verify, search.
Each subcommand builds its result once, as a JSON payload, text lines and,
where it offers CSV, a table, and :func:`_emit` prints the requested format.
Exit status: 0 on success, 1 when a verification or search found
violations, 2 on usage errors, 3 when a verification found no violation
but skipped words (an incomplete sweep).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import rauzy, squares, verify, words


class _UsageError(Exception):
    pass


def _word_arg(raw: str) -> str:
    try:
        return words.validate_word(raw)
    except words.InvalidWordError as exc:
        raise _UsageError(str(exc)) from exc


def _emit(fmt: str, payload: dict, text: list[str], table: tuple | None = None) -> None:
    """Print ``payload`` as JSON, ``table = (header, rows)`` as CSV, or ``text`` as lines."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif fmt == "csv":
        header, rows = table
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print("\n".join(text))


def _cmd_count(args: argparse.Namespace) -> int:
    w = _word_arg(args.word)
    if args.circular:
        ss = squares.distinct_squares_circular_via_doubling(words.CircularWord(w))
        label = f"[{w}]"
    else:
        ss = squares.distinct_squares(w)
        label = w
    found = list(ss)
    payload = {"word": w, "circular": args.circular, "count": ss.count, "squares": found}
    text = [f"Sq({label}) = {ss.count}", *found]
    _emit(args.format, payload, text, (["square"], [[s] for s in found]))
    return 0


def _cmd_classes(args: argparse.Namespace) -> int:
    w = _word_arg(args.word)
    report = squares.decomposition_report(w)
    classes = report["classes"]
    text = [f"word {w}: n={report['n']}  Sq={report['sq']}  Sq_circular={report['sq_circular']}"]
    if not classes:
        text.append("no power classes")
    text += [
        f"  root {c['root']}  l={c['l']}  t={c['t']}  |E|={c['even']}  |O|={c['odd']}"
        for c in classes
    ]
    header = ["root", "l", "t", "even", "odd"]
    _emit(args.format, report, text, (header, [[c[h] for h in header] for c in classes]))
    return 0


def _graph_for(args: argparse.Namespace) -> rauzy.RauzyGraph:
    w = _word_arg(args.word)
    if not 1 <= args.order <= len(w) - 1:
        raise _UsageError(f"order {args.order} out of range 1..{len(w) - 1} for {w!r}")
    return rauzy.build_rauzy_graph(w, args.order)


def _cmd_rauzy(args: argparse.Namespace) -> int:
    g = _graph_for(args)
    chi = rauzy.cyclomatic_number(g)
    if args.format == "dot":
        text = [rauzy.to_dot(g)]
    else:
        text = [f"order {g.order}: {len(g.vertices)} vertices, {len(g.edges)} edges, chi={chi}"]
        text += [f"  {e[:-1]} -> {e[1:]}  [{e}]" for e in g.edges]
    payload = {"word": args.word, "order": g.order, "vertices": sorted(g.vertices),
               "edges": list(g.edges), "chi": chi}
    rows = [[e, e[:-1], e[1:]] for e in g.edges]
    _emit(args.format, payload, text, (["edge", "tail", "head"], rows))
    return 0


def _cmd_circuits(args: argparse.Namespace) -> int:
    g = _graph_for(args)
    if args.budget < 1:
        raise _UsageError("--budget must be at least 1")
    try:
        circuits = rauzy.enumerate_elementary_circuits(g, args.budget)
    except rauzy.CircuitCapExceeded as exc:
        raise _UsageError(f"{exc}; raise --budget") from exc
    vectors = [rauzy.vector_cycle(c, g) for c in circuits]
    chi = rauzy.cyclomatic_number(g)
    rank = rauzy.independent_rank(vectors)
    small = sum(1 for c in circuits if c.length <= g.order)
    payload = {"word": args.word, "order": g.order, "chi": chi, "rank": rank,
               "small_circuits": small,
               "circuits": [{"length": c.length, "vertices": list(c.vertices), "vector": list(v)}
                            for c, v in zip(circuits, vectors)]}
    text = [f"order {g.order}: {len(circuits)} elementary circuits, "
            f"{small} small, rank={rank}, chi={chi}"]
    text += [f"  length {c.length}: {c}" for c in circuits]
    rows = [[i, c.length, " ".join(c.vertices), " ".join(map(str, v))]
            for i, (c, v) in enumerate(zip(circuits, vectors))]
    _emit(args.format, payload, text, (["index", "length", "vertices", "vector"], rows))
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    w = _word_arg(args.word)
    if not words.is_primitive(w):
        raise _UsageError(f"{w!r} is not primitive; split analysis needs a primitive word")
    m = rauzy.split_point(w)
    if m is None:
        payload = {"word": w, "splits_at": None, "component_lengths": []}
        text = [f"{w} never splits"]
    else:
        parts = rauzy.decompose_split(w, m)
        lengths = [c.length for c in parts]
        payload = {"word": w, "splits_at": m, "component_lengths": lengths,
                   "component_roots": [rauzy.circuit_root(c) for c in parts]}
        total = "+".join(str(x) for x in lengths)
        text = [f"{w} splits at {m}; components of lengths {total}={len(w)}"]
    _emit(args.format, payload, text)
    return 0


def _sweep_config(args: argparse.Namespace) -> verify.SweepConfig:
    try:
        checks = verify.resolve_checks(args.check)
        return verify.SweepConfig(
            alphabet_size=args.alphabet,
            max_length=args.max_len,
            checks=checks,
            canonicalize=not args.no_canonicalize,
            checkpoint_path=args.checkpoint,
            seed=args.seed,
            jobs=args.jobs,
            circuit_cap=args.budget,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _report_lines(rep: verify.CheckReport) -> list[str]:
    status = "ok" if rep.passed else f"{len(rep.violations)} violation(s)"
    ratio = "-" if rep.max_ratio is None else str(rep.max_ratio)
    witness = rep.witness or "-"
    lines = [
        f"{rep.check_id:<20} {status:<16} words={rep.words_tested:<8} "
        f"max_ratio={ratio:<8} witness={witness}"
    ]
    lines += [f"    violation {word}: {detail}" for word, detail in rep.violations]
    lines += [f"    flagged {word}: {detail}" for word, detail in rep.flagged]
    lines += [f"    skipped {word}" for word in rep.skipped]
    return lines


def _cmd_verify(args: argparse.Namespace) -> int:
    suite = verify.run_suite(_sweep_config(args))
    skipped = sum(len(r.skipped) for r in suite.reports)
    if not suite.passed:
        verdict = f"{suite.violations_total} violation(s)"
    elif skipped:
        verdict = f"incomplete: {skipped} word(s) skipped"
    else:
        verdict = "all checks passed"
    text = [line for rep in suite.reports for line in _report_lines(rep)] + [verdict]
    rows = [[r.check_id, r.words_tested, len(r.violations),
             "" if r.max_ratio is None else str(r.max_ratio), r.witness or ""]
            for r in suite.reports]
    header = ["check", "words", "violations", "max_ratio", "witness"]
    _emit(args.format, suite.to_dict(), text, (header, rows))
    if not suite.passed:
        return 1
    return 3 if skipped else 0


def _cmd_search(args: argparse.Namespace) -> int:
    try:
        rep = verify.search_extremal(args.max_len, args.alphabet, args.budget, args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    mode = "exhaustive" if rep.stats.get("exhaustive") else "hill-climbing"
    text = [
        f"best {rep.witness}  Sq={rep.stats['best_count']}  ratio={rep.max_ratio}  "
        f"({mode}, {rep.stats['evaluations']} evaluations)"
    ]
    text += [f"violation {word}: {detail}" for word, detail in rep.violations]
    row = [rep.witness or "", str(rep.max_ratio), rep.stats["evaluations"]]
    _emit(args.format, rep.to_dict(), text, (["witness", "ratio", "evaluations"], [row]))
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circsq",
        description="Count distinct squares in circular words and sweep the related bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=choices, default="text")

    p_count = sub.add_parser("count", help="count distinct squares of a word")
    p_count.add_argument("word")
    p_count.add_argument("--circular", action="store_true", help="count over all rotations")
    add_format(p_count, ("text", "json", "csv"))
    p_count.set_defaults(func=_cmd_count)

    p_classes = sub.add_parser("classes", help="power classes of a word")
    p_classes.add_argument("word")
    add_format(p_classes, ("text", "json", "csv"))
    p_classes.set_defaults(func=_cmd_classes)

    p_rauzy = sub.add_parser("rauzy", help="factor graph of a word at one order")
    p_rauzy.add_argument("word")
    p_rauzy.add_argument("--order", type=int, required=True)
    add_format(p_rauzy, ("text", "json", "csv", "dot"))
    p_rauzy.set_defaults(func=_cmd_rauzy)

    p_circ = sub.add_parser("circuits", help="elementary circuits of a factor graph")
    p_circ.add_argument("word")
    p_circ.add_argument("--order", type=int, required=True)
    p_circ.add_argument("--budget", type=int, default=rauzy.DEFAULT_CIRCUIT_CAP,
                        help="abort past this many circuits")
    add_format(p_circ, ("text", "json", "csv"))
    p_circ.set_defaults(func=_cmd_circuits)

    p_split = sub.add_parser("split", help="split analysis of a primitive word")
    p_split.add_argument("word")
    add_format(p_split, ("text", "json"))
    p_split.set_defaults(func=_cmd_split)

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("--check", default="all",
                          help="check id, comma list of ids, or 'all' (default all)")
    p_verify.add_argument("--alphabet", type=int, default=2)
    p_verify.add_argument("--max-len", type=int, default=8)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--budget", type=int, default=rauzy.DEFAULT_CIRCUIT_CAP,
                          help="circuit enumeration cap per graph")
    p_verify.add_argument("--checkpoint", default=None,
                          help="progress file")
    p_verify.add_argument("--no-canonicalize", action="store_true",
                          help="enumerate raw words instead of canonical ones")
    add_format(p_verify, ("text", "json", "csv"))
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="search for square-rich circular words")
    p_search.add_argument("--max-len", type=int, required=True, help="word length")
    p_search.add_argument("--alphabet", type=int, default=2)
    p_search.add_argument("--budget", type=int, default=100_000)
    p_search.add_argument("--seed", type=int, default=0)
    add_format(p_search, ("text", "json", "csv"))
    p_search.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"circsq: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
