"""Fold the run results in ``perfbench/results/`` into one point of the perf trajectory.

Usage, after running each workload on several seeds (``--trace 0``) and at
least once traced (``--trace 1``)::

    python3 perfbench/summarize.py --label base

writes ``perfbench/trajectory/BENCH_<label>.json`` and prints, per workload
and end-to-end metric, the median over the runs, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound.  Times
are in reference seconds; ``reference_s`` records the calibration they rest on.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "runs": len(values),
    }


def summarize(results_dir: Path) -> dict:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(results_dir.glob("*.json")):
        record = json.loads(path.read_text())
        trace = int(path.stem.rsplit("trace", 1)[1])
        runs.setdefault((record["workload"], trace), []).append(record)

    workloads = {}
    for w in BENCHMARK["workloads"]:
        name = w["name"]
        plain, traced = runs.get((name, 0), []), runs.get((name, 1), [])
        entry: dict = {"why": w["why"], "seeds": sorted(r["seed"] for r in plain)}
        entry["end_to_end"] = {
            m["name"]: {"unit": m["unit"], "bound": m["bound"]}
            | _summary([r["metrics"][m["name"]]["value"] for r in plain])
            for m in BENCHMARK["end_to_end"]
            if plain
        }
        entry["per_layer"] = {
            m["name"]: {
                "unit": m["unit"],
                "values": [r["metrics"][m["name"]]["value"] for r in traced],
            }
            for m in BENCHMARK["per_layer"]
        }
        entry["verdicts_failed"] = sum(len(r["problems"]) for r in plain + traced)
        loads = [r["machine"]["loadavg_start"][0] for r in plain + traced]
        entry["loadavg_1min"] = [min(loads), max(loads)] if loads else []
        workloads[name] = entry

    any_record = next(r for rs in runs.values() for r in rs)
    machine = {k: v for k, v in any_record["machine"].items() if not k.startswith("loadavg")}
    return {
        "machine": machine,
        "run_seconds": BENCHMARK["run_seconds"],
        "reference_s": REFERENCE_S,
        "workloads": workloads,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--results-dir", type=Path, default=HERE / "results")
    args = parser.parse_args()
    point = {"label": args.label} | summarize(args.results_dir)
    out = HERE / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    for name, entry in point["workloads"].items():
        for metric, s in entry["end_to_end"].items():
            print(
                f"{name:<16} {metric:<12} median {s['median']:<10.5g} {s['unit']:<4} "
                f"spread {s['spread']:.4f} (bound {s['bound']}, {s['runs']} runs)"
            )
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
