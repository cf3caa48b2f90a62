"""Sweep benchmark for circsq: end-to-end sweep metrics and a traced per-layer run.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload power-classes --seed 1 --seconds 30 --trace 0

Workloads (``workloads.json``) are closed-loop batch jobs: one client, one
sweep at a time.  Each pass is a fresh interpreter, so peak RSS and import
state never leak from one pass or workload into the next; checkpoint files
live in a temp dir under ``perfbench/_work`` that is removed afterwards.

``--trace 0`` repeats untraced passes until ``--seconds`` is filled (at least
two).  Each pass sits between two runs of the calibration loop of
``calibrate.py`` and is followed by a set-up probe, a fresh interpreter that
only sets up.  The times of a pass (sweep, CPU, set-up) are scaled to reference
seconds by the mean of its two calibrations, so a busy spell of the shared host
slows the pass and its calibrations alike and cancels out.  Each end-to-end
metric is the median over the passes; the measured wall-clock medians and the
calibration are printed beside them.
``--trace 1`` runs one untraced and one traced pass (three for a ``--jobs``
workload) and prints the per-layer metrics from the spans that ``tracer.py``
records around the calls into each layer.

Every check report's verdict fields are compared with ``reference/<workload>.json``,
written from a jobs=1 pass of this code; a report that differs or skipped
words is failed.  So a jobs=2 pass that matches also shows ``--jobs`` identity.
The last stdout line is one JSON object: ``correct``, ``attempted`` (check
reports compared), ``failed`` and ``metrics``.  Results with the machine's
details go to ``perfbench/results/``.  The exit code is 1 when a report
failed and 2 when the benchmark could not run at all.

``--write-reference`` regenerates the reference from one jobs=1 pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REFERENCE_S, Calibration
from child import cli_argv, verdict
from tracer import SPLIT_GROUP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 2

class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        return {m["name"]: m["unit"] for m in json.loads(path.read_text())[kind]}
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read {kind} metrics from {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# child processes


def _env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Bytecode goes to a cache of this run's own, so that every pass after the
    # first imports compiled modules whatever the caller's settings or the
    # caches left in the tree: set-up time and peak RSS then do not depend on them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    return env


def _spawn(argv: list[str], work: Path) -> dict:
    """Run ``argv`` to completion; wall time, CPU and peak RSS of it and its children."""
    with tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(work), stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than wait: its rusage covers this child and every
        # descendant it waited for (pool workers), for this child alone.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "stdout": out.decode(),
        "stderr": stderr,
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
    }


def _child_job(spec: dict, seed: int, work: Path, **overrides) -> dict:
    job = {
        "root": str(ROOT),
        "work_dir": str(work),
        "legs": spec["legs"],
        "via": spec["via"],
        "jobs": spec["jobs"],
        "checkpoint": spec["checkpoint"],
        "seed": seed,
        "mode": "pass",
        "trace": "none",
        "resume": False,
    }
    job.update(overrides)
    return job


def _run_child(job: dict, work: Path) -> dict:
    run = _spawn([sys.executable, str(HERE / "child.py"), json.dumps(job)], work)
    if run["returncode"] != 0:
        raise BenchError(f"pass failed with exit code {run['returncode']}:\n{run['stderr']}")
    result = json.loads(run["stdout"].strip().splitlines()[-1])
    result.update(cpu_s=run["cpu_s"], peak_rss_mb=run["peak_rss_mb"])
    return result


def _run_cli(spec: dict, seed: int, work: Path) -> dict:
    """One pass through the real ``circsq verify`` command, timed from spawn to exit."""
    reports = []
    wall = cpu = rss = 0.0
    for leg in spec["legs"]:
        run = _spawn([sys.executable, "-m", "circsq", *cli_argv(leg, seed, spec["jobs"])], work)
        if run["returncode"] not in (0, 1):  # 1 means violations, which the verdicts show
            raise BenchError(f"circsq verify exited {run['returncode']}:\n{run['stderr']}")
        reports.extend(json.loads(run["stdout"])["reports"])
        wall += run["wall_s"]
        cpu += run["cpu_s"]
        rss = max(rss, run["peak_rss_mb"])
    return {
        "sweep_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "verdicts": [verdict(r) for r in reports],
    }


# ---------------------------------------------------------------------------
# verdicts


def _reference_path(ref_dir: Path, workload: str) -> Path:
    return ref_dir / f"{workload}.json"


def _load_reference(ref_dir: Path, workload: str) -> list[dict]:
    path = _reference_path(ref_dir, workload)
    try:
        return json.loads(path.read_text())["verdicts"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read reference verdicts {path}: {exc}") from exc


def compare(verdicts: list[dict], reference: list[dict]) -> tuple[int, int, list[str]]:
    """(reports attempted, reports failed, one line per failure)."""
    attempted = max(len(verdicts), len(reference))
    problems = []
    for i in range(attempted):
        got = verdicts[i] if i < len(verdicts) else None
        want = reference[i] if i < len(reference) else None
        if got is None or want is None or got != want:
            label = (got or want)["check"]
            problems.append(f"report {i} ({label}) differs from the reference")
        elif got["skipped"]:
            problems.append(f"report {i} ({got['check']}) skipped {len(got['skipped'])} words")
    return attempted, len(problems), problems


class Tally:
    """Check reports compared so far, over every pass of one run."""

    def __init__(self, reference: list[dict]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, verdicts: list[dict], what: str) -> None:
        attempted, failed, problems = compare(verdicts, self.reference)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(f"{what}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# measurement


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def run_passes(spec: dict, seed: int, seconds: float, work: Path, tally: Tally) -> list[dict]:
    """Untraced passes until ``seconds`` is filled, never fewer than ``MIN_PASSES``.

    Each pass records ``calib_s``, the mean of the calibration runs right
    before and right after it, and ``setup_s`` from a set-up probe after it.
    """
    passes = []
    cal = Calibration()
    probe = _child_job(spec, seed, work, mode="setup")
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        before = cal.seconds()
        if spec["via"] == "cli":
            p = _run_cli(spec, seed, work)
        else:
            p = _run_child(_child_job(spec, seed, work), work)
        p["calib_s"] = (before + cal.seconds()) / 2
        p["setup_s"] = _run_child(probe, work)["setup_s"]
        p["pass_s"] = time.perf_counter() - t0
        p["words"] = sum(v["words_tested"] for v in p["verdicts"])
        tally.add(p["verdicts"], f"pass {len(passes) + 1}")
        passes.append(p)
        typical = statistics.median(q["pass_s"] for q in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            return passes


def _reference_s(p: dict, key: str) -> float:
    """A time of one pass in reference seconds (see ``calibrate.py``)."""
    return p[key] * REFERENCE_S / p["calib_s"]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "sweep_s": med(_reference_s(p, "sweep_s") for p in passes),
        "words_per_s": med(p["words"] / _reference_s(p, "sweep_s") for p in passes),
        "cpu_s": med(_reference_s(p, "cpu_s") for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "setup_s": med(_reference_s(p, "setup_s") for p in passes),
    }


def trace_passes(spec: dict, seed: int, work: Path, tally: Tally) -> dict:
    """The passes behind the per-layer metrics.

    Workers' spans are invisible from outside, so a ``--jobs`` workload takes
    its fan-out counters from a pass at its own job count and its layer spans
    from a traced pass of the same suite at jobs=1.
    """
    out = {}
    if spec["jobs"] > 1:
        out["fanout"] = _run_child(_child_job(spec, seed, work, trace="pool"), work)
        tally.add(out["fanout"]["verdicts"], f"jobs={spec['jobs']} counted pass")
    out["base"] = _run_child(_child_job(spec, seed, work, jobs=1, resume=spec["checkpoint"]), work)
    tally.add(out["base"]["verdicts"], "jobs=1 untraced pass")
    if spec["checkpoint"]:
        tally.add(out["base"]["resume_verdicts"], "resumed pass")
    out["traced"] = _run_child(_child_job(spec, seed, work, jobs=1, trace="full"), work)
    tally.add(out["traced"]["verdicts"], "jobs=1 traced pass")
    out.setdefault("fanout", out["base"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spec: dict, tp: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metric values and, where useful, the base each one rests on."""
    base, traced, fanout = tp["base"], tp["traced"], tp["fanout"]
    tr = traced["trace"]
    acc = tr["accumulators"]
    counters = tr["counters"]
    fan_trace = fanout.get("trace", {"accumulators": {}, "counters": {}})

    def calls(name: str) -> int:
        return acc.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return acc.get(name, {}).get("total_s", 0.0)

    def in_layer(name: str, layer: str) -> bool:
        # The split group repeats its members' spans; keep it out of layer sums.
        return name.startswith(layer + ".") and name != SPLIT_GROUP

    def layer_self(layer: str) -> float:
        return sum(a["self_s"] for n, a in acc.items() if in_layer(n, layer))

    def fan(name: str, field: str):
        return fan_trace["accumulators"].get(name, {}).get(field, 0)

    filter_calls = calls("verify.is_necklace_canonical")
    filter_words = counters.get("verify.necklace_filter_words", 0)
    found = counters.get("rauzy.circuits_found", 0)
    small = counters.get("rauzy.small_circuits", 0)
    words_calls = sum(a["calls"] for n, a in acc.items() if in_layer(n, "words"))
    jobs = spec["jobs"]
    speedup = _ratio(base["sweep_s"], fanout["sweep_s"]) if jobs > 1 else 0.0

    values = {
        "verify.self_s": layer_self("verify"),
        "verify.necklace_filter_calls": filter_calls,
        "verify.necklace_filter_s": total("verify.is_necklace_canonical"),
        "verify.enumerate_yield": _ratio(filter_words, filter_calls),
        "verify.checkpoint_lines": counters.get("verify.checkpoint_lines", 0),
        "verify.checkpoint_bytes": counters.get("verify.checkpoint_bytes", 0),
        "verify.checkpoint_opens": counters.get("verify.checkpoint_opens", 0),
        "verify.checkpoint_open_s": tr["timers_s"].get("verify.checkpoint_session", 0.0),
        "verify.resume_s": base.get("resume_s", 0.0),
        "verify.pool_starts": fan("verify.pool_start", "calls"),
        "verify.pool_maps": fan("verify.pool_map", "calls"),
        "verify.pool_tasks": fan_trace["counters"].get("verify.pool_tasks", 0),
        "verify.pool_start_s": fan("verify.pool_start", "total_s"),
        "verify.pool_map_wait_s": fan("verify.pool_map", "total_s"),
        "verify.jobs_speedup": speedup,
        "verify.cpu_util": _ratio(fanout["sweep_cpu_s"], fanout["sweep_s"] * jobs),
        "squares.circular_count_calls": calls("verify.circular_square_count"),
        "squares.circular_count_s": total("verify.circular_square_count"),
        "squares.class_decomposition_calls": calls("squares.class_decomposition"),
        "squares.class_decomposition_s": total("squares.class_decomposition"),
        "squares.distinct_squares_calls": calls("squares.distinct_squares"),
        "squares.distinct_squares_s": total("squares.distinct_squares"),
        "squares.self_s": layer_self("squares"),
        "rauzy.build_calls": calls("rauzy.build_rauzy_graph"),
        "rauzy.build_s": total("rauzy.build_rauzy_graph"),
        "rauzy.circuits_calls": calls("rauzy.enumerate_elementary_circuits"),
        "rauzy.circuits_s": total("rauzy.enumerate_elementary_circuits"),
        "rauzy.circuits_found": found,
        "rauzy.small_circuit_yield": _ratio(small, found),
        "rauzy.rank_calls": calls("rauzy.independent_rank"),
        "rauzy.rank_s": total("rauzy.independent_rank"),
        "rauzy.vector_s": total("rauzy.vector_cycle"),
        "rauzy.cyclomatic_s": total("rauzy.cyclomatic_number"),
        "rauzy.self_s": layer_self("rauzy"),
        "rauzy.split_calls": calls(SPLIT_GROUP),
        "rauzy.split_s": total(SPLIT_GROUP),
        "words.calls": words_calls,
        "words.self_s": layer_self("words"),
        "words.validate_calls": calls("words.validate_word"),
        "words.is_primitive_calls": calls("words.is_primitive"),
        "cli.self_s": acc.get("cli.main", {}).get("self_s", 0.0),
        "trace.overhead_s": traced["sweep_s"] - base["sweep_s"],
    }
    notes = {
        "verify.enumerate_yield": f"{filter_words} words tested by filtered checks / "
        f"{filter_calls} is_necklace_canonical calls",
        "rauzy.small_circuit_yield": f"{small} circuits of length <= order / {found} found",
        "verify.jobs_speedup": (
            f"jobs=1 sweep {base['sweep_s']:.3f} s / jobs={jobs} sweep "
            f"{fanout['sweep_s']:.3f} s, {jobs} processes on {os.cpu_count()} cores"
            if jobs > 1
            else "not measured: the workload runs jobs=1"
        ),
        "verify.cpu_util": f"sweep CPU {fanout['sweep_cpu_s']:.3f} s / "
        f"({fanout['sweep_s']:.3f} s x {jobs} jobs)",
        "verify.resume_s": "run_suite re-run on the completed checkpoint"
        if spec["checkpoint"]
        else "not measured: the workload writes no checkpoint",
        "trace.overhead_s": f"traced sweep {traced['sweep_s']:.3f} s - untraced "
        f"{base['sweep_s']:.3f} s, both jobs=1",
    }
    return values, notes


# ---------------------------------------------------------------------------
# reporting


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _print_metrics(metrics: dict, notes: dict) -> None:
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        note = notes.get(name)
        line = f"  {name:<{width}}  {_fmt(m['value']):>12} {m['unit']:<6}"
        print(line + (f"  {note}" if note else ""))


def _write_results(results_dir: Path, args, record: dict) -> Path:
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def write_reference(spec: dict, workload: str, seed: int, work: Path, ref_dir: Path) -> Path:
    result = _run_child(_child_job(spec, seed, work, jobs=1), work)
    ref_dir.mkdir(parents=True, exist_ok=True)
    path = _reference_path(ref_dir, workload)
    doc = {
        "workload": workload,
        "note": "verdict fields of every check report from one jobs=1 pass",
        "verdicts": result["verdicts"],
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec", type=Path, default=HERE / "workloads.json",
                        help="workload definitions (tests pass tiny ones)")
    parser.add_argument("--reference-dir", type=Path, default=HERE / "reference")
    parser.add_argument("--results-dir", type=Path, default=HERE / "results")
    parser.add_argument("--write-reference", action="store_true",
                        help="write the reference verdicts from one jobs=1 pass and exit")
    return parser.parse_args(argv)


def run(args: argparse.Namespace, work: Path) -> int:
    if not (ROOT / "src" / "circsq" / "__init__.py").is_file():
        raise BenchError(f"no circsq sources under {ROOT / 'src'}")
    try:
        specs = json.loads(args.spec.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read workloads {args.spec}: {exc}") from exc
    if args.workload not in specs:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(specs)}")
    spec = specs[args.workload]

    if args.write_reference:
        path = write_reference(spec, args.workload, args.seed, work, args.reference_dir)
        print(f"wrote {path}")
        return 0

    units = metric_units("per_layer" if args.trace else "end_to_end")
    tally = Tally(_load_reference(args.reference_dir, args.workload))
    mach = machine()
    print(f"perfbench: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(
        f"machine: nproc {mach['nproc']}, python {mach['python']}, {mach['platform']}, "
        f"loadavg at start {' '.join(f'{x:.2f}' for x in mach['loadavg_start'])}"
    )
    print(
        f"loop: closed, one client, one sweep at a time, jobs={spec['jobs']}"
        + (f" ({spec['jobs']} processes on {mach['nproc']} cores)" if spec["jobs"] > 1 else "")
    )
    record: dict = {"workload": args.workload, "seed": args.seed, "spec": spec}

    if args.trace == 0:
        passes = run_passes(spec, args.seed, args.seconds, work, tally)
        values = end_to_end(passes)
        n = len(passes)

        def measured(key: str) -> str:
            return f"measured median {statistics.median(p[key] for p in passes):.4g} s"

        notes = {
            "sweep_s": f"reference s, median of {n} passes; {measured('sweep_s')}"
            + (", circsq verify spawn to exit" if spec["via"] == "cli" else ""),
            "words_per_s": f"per reference s; {passes[0]['words']} words tested per pass",
            "cpu_s": f"reference s, user+sys of the pass and its children; {measured('cpu_s')}",
            "peak_rss_mb": f"median of {n} passes, largest among the pass process "
            "and its children",
            "setup_s": f"reference s, median of {n} fresh interpreters: import circsq, "
            f"configs, temp dir; {measured('setup_s')}",
        }
        print(
            f"calibration: {REFERENCE_S} s loop measured at median "
            f"{statistics.median(p['calib_s'] for p in passes):.4g} s around the passes"
        )
        record["passes"] = passes
    else:
        tp = trace_passes(spec, args.seed, work, tally)
        values, notes = per_layer(spec, tp)
        record["passes"] = tp
    if set(values) != set(units):
        raise BenchError(f"measured {sorted(values)} but BENCHMARK.json lists {sorted(units)}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}

    failed_frac = _ratio(tally.failed, tally.attempted)
    metrics_lines = {**metrics, "failed_frac": {"value": failed_frac, "unit": "ratio"}}
    notes["failed_frac"] = (
        f"{tally.failed} of {tally.attempted} check reports skipped words "
        "or differ from the reference"
    )
    _print_metrics(metrics_lines, notes)
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    mach["loadavg_end"] = list(os.getloadavg())
    print(f"loadavg at end {' '.join(f'{x:.2f}' for x in mach['loadavg_end'])}")
    record.update(
        machine=mach,
        metrics=metrics,
        failed_frac=failed_frac,
        problems=tally.problems,
    )
    path = _write_results(args.results_dir, args, record)
    print(f"results: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if tally.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        return run(args, work)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
