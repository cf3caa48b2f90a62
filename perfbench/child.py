"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: ``python3 child.py '<job json>'``.  The job names the checkout root,
the workload legs, the seed, the job count and the trace mode (``none``,
``pool`` or ``full``).  The pass imports ``circsq`` from ``<root>/src``,
builds its configs and a private temp dir (the set-up), runs the legs
(the sweep) and prints one JSON line with its timings, the verdict fields of
every check report and, when traced, the tracer's dump.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402 - the set-up clock starts before any import
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

VERDICT_FIELDS = (
    "words_tested",
    "violations",
    "flagged",
    "skipped",
    "max_ratio",
    "witness",
    "stats",
    "passed",
)


def verdict(report: dict) -> dict:
    """The seed-independent fields of one check report, keyed by check and size."""
    cfg = report["config"]
    out = {"check": report["check"], "k": cfg["alphabet_size"], "n": cfg["max_length"]}
    out.update((f, report[f]) for f in VERDICT_FIELDS)
    return out


def cli_argv(leg: dict, seed: int, jobs: int) -> list[str]:
    return [
        "verify",
        "--check", leg["checks"],
        "--alphabet", str(leg["alphabet"]),
        "--max-len", str(leg["max_len"]),
        "--jobs", str(jobs),
        "--seed", str(seed),
        "--format", "json",
    ]  # fmt: skip


def _import_circsq(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import circsq

    if not os.path.abspath(circsq.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"circsq imported from {circsq.__file__}, not from {src}")
    return circsq


def _configs(verify, job: dict, work: str) -> list:
    checkpoint = os.path.join(work, "sweep.ckpt") if job["checkpoint"] else None
    return [
        verify.SweepConfig(
            alphabet_size=leg["alphabet"],
            max_length=leg["max_len"],
            checks=verify.resolve_checks(leg["checks"])
            if isinstance(leg["checks"], str)
            else frozenset(leg["checks"]),
            checkpoint_path=checkpoint,
            seed=job["seed"],
            jobs=job["jobs"],
        )
        for leg in job["legs"]
    ]


def _run_legs(circsq, job: dict, configs: list) -> list[dict]:
    reports = []
    if job["via"] == "cli":
        for leg in job["legs"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                circsq.cli.main(cli_argv(leg, job["seed"], job["jobs"]))
            reports.extend(json.loads(buf.getvalue())["reports"])
    else:
        for cfg in configs:
            reports.extend(r.to_dict() for r in circsq.verify.run_suite(cfg).reports)
    return reports


def _cpu_s() -> float:
    """CPU of this process plus the children it has waited for (pool workers)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _trace(circsq, mode: str):
    import tracer as tr

    t = tr.Tracer()
    if mode == "full":
        tr.install_layer_spans(t, circsq)
        if hasattr(circsq, "cli"):
            circsq.cli.main = t.wrap("cli.main", circsq.cli.main)
        run_check = circsq.verify.run_check

        def check_with_filter_delta(check_id, cfg):
            # Which checks filter their stream, for the enumeration yield.
            before = t.calls("verify.is_necklace_canonical")
            rep = run_check(check_id, cfg)
            filtered = t.calls("verify.is_necklace_canonical") - before
            if filtered:
                t.count("verify.necklace_filter_words", rep.words_tested)
            return rep

        circsq.verify.run_check = check_with_filter_delta
    tr.install_checkpoint_io(t, circsq.verify)
    tr.install_pool_counters(t, circsq.verify)
    return t


def main() -> None:
    job = json.loads(sys.argv[1])
    circsq = _import_circsq(job["root"])
    if job["via"] == "cli":
        import circsq.cli  # noqa: F401

    os.makedirs(job["work_dir"], exist_ok=True)
    work = tempfile.mkdtemp(prefix="pass-", dir=job["work_dir"])
    try:
        configs = _configs(circsq.verify, job, work)
        setup_s = time.perf_counter() - T_START
        result = {"setup_s": setup_s}
        if job["mode"] == "pass":
            tracer = _trace(circsq, job["trace"]) if job["trace"] != "none" else None
            cpu0, t0 = _cpu_s(), time.perf_counter()
            reports = _run_legs(circsq, job, configs)
            result["sweep_s"] = time.perf_counter() - t0
            result["sweep_cpu_s"] = _cpu_s() - cpu0
            result["verdicts"] = [verdict(r) for r in reports]
            if tracer is not None:
                result["trace"] = tracer.dump()
            if job.get("resume"):
                t0 = time.perf_counter()
                resumed = _run_legs(circsq, job, configs)
                result["resume_s"] = time.perf_counter() - t0
                result["resume_verdicts"] = [verdict(r) for r in resumed]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
