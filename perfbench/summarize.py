"""Summarize benchmark result files; optionally write them out as a baseline.

    python3 perfbench/summarize.py .perfbench_out/results/*.json [--baseline OUT.json]

Untraced runs: per workload and end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, marked against the metric's bound in BENCHMARK.json.
Traced runs: the median of every per-layer metric, and whether the
deterministic counts of runs on the same seed agree exactly.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--baseline", type=Path, help="write the summary to this file")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = defaultdict(list)
    for path in args.files:
        record = json.loads(path.read_text())
        runs[(record["workload"], record["trace"])].append(record)

    summary = {"untraced": {}, "traced": {}, "env": None, "run_seconds": spec["run_seconds"]}
    ok = True
    for (workload, trace), records in sorted(runs.items()):
        summary["env"] = summary["env"] or records[0]["env"]
        if not all(r["correct"] for r in records):
            print(f"{workload} trace={trace}: incorrect runs present")
            ok = False
        if trace:
            by_seed = defaultdict(list)
            for r in records:
                by_seed[r["seed"]].append({k: v for k, v in r["all_metrics"].items() if tracing.DETERMINISTIC.match(k)})
            repeat = all(all(c == counts[0] for c in counts) for counts in by_seed.values())
            ok = ok and repeat
            print(f"{workload} traced: {len(records)} runs, deterministic counts repeat: {repeat}")
            summary["traced"][workload] = {
                name: statistics.median(r["all_metrics"][name] for r in records)
                for name in records[0]["all_metrics"]
            }
            continue
        table = summary["untraced"][workload] = {"seeds": sorted(r["seed"] for r in records)}
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            bound = bounds[name]
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            if name != "setup_s" and spread > bound:
                ok = False
            table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}
            print(f"{workload:<15} {name:<12} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.3f} bound {bound} {verdict}")
    if args.baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
