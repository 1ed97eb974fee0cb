"""Run the benchmark twice over ten seeds and write one trajectory point.

    python3 perfbench/collect.py --label seed-9e7a329

Set A runs seeds 1-10 and then set B seeds 11-20; each seed runs every
workload of ``BENCHMARK.json`` once (workloads interleaved, so machine noise
spreads over all of them).  One traced run per workload follows, on seed 1.
For every end-to-end metric, workload and set the summary gives the median,
the quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound.  The agreement section gives,
per metric and workload, how much worse set B's median is than set A's as a
share of set A's (negative when B is better), and whether that stays within
the bound.  The point is written to ``perfbench/trajectory/<label>.json``
unless ``--out`` names another file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = {"A": range(1, 11), "B": range(11, 21)}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    for line in lines:
        if line.startswith("environment "):
            record["environment"] = json.loads(line[len("environment "):])
        elif line.startswith("notes "):
            record["notes"] = json.loads(line[len("notes "):])
    return record


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_bound": spread <= bound, "within_third_of_bound": spread < bound / 3.0,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="collect a benchmark trajectory point")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = {name: {w: [] for w in workloads} for name in SETS}
    for name, seeds in SETS.items():
        for seed in seeds:
            for workload in workloads:
                record = run_once(workload, seed, spec["run_seconds"], 0)
                runs[name][workload].append({"seed": seed, **record})
                print(f"set {name} {workload} seed {seed}: correct={record['correct']} "
                      f"failed={record['failed']}/{record['attempted']}", flush=True)

    summary = {name: {w: {} for w in workloads} for name in SETS}
    agreement = {w: {} for w in workloads}
    for workload in workloads:
        for metric, m in metrics.items():
            for name in SETS:
                values = [r["metrics"][metric]["value"] for r in runs[name][workload]]
                s = summary[name][workload][metric] = summarize(values, m["bound"])
                print(f"set {name} {workload:16s} {metric:18s} median {s['median']:12.6g} "
                      f"spread {s['spread']:.4f} bound {m['bound']} "
                      f"{'ok' if s['within_third_of_bound'] else 'WIDE'}")
            a, b = (summary[name][workload][metric]["median"] for name in SETS)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            agreement[workload][metric] = {"median_A": a, "median_B": b, "b_worse_by": worse,
                                           "within_bound": worse <= m["bound"]}
            print(f"agreement {workload:16s} {metric:18s} B worse than A by {worse:+.4f} "
                  f"(bound {m['bound']})")

    traced = {}
    for workload in workloads:
        traced[workload] = run_once(workload, 1, spec["run_seconds"], 1)
        print(f"{workload} traced: correct={traced[workload]['correct']}", flush=True)

    out = args.out or HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "label": args.label,
        "run_seconds": spec["run_seconds"],
        "seeds": {name: list(seeds) for name, seeds in SETS.items()},
        "environment": runs["A"][workloads[0]][0].get("environment"),
        "summary": summary,
        "agreement": agreement,
        "traced": traced,
        "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    all_correct = all(r["correct"] for sets in runs.values() for records in sets.values()
                      for r in records) and all(r["correct"] for r in traced.values())
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
