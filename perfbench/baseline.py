"""Run every workload over ten seeds and record the figures with machine info.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each workload runs once per seed 1..10 with --trace 0 and once with --trace 1
(seed 0), each run for BENCHMARK.json's run_seconds. For each end-to-end
metric the file keeps the ten values, their median, quartiles and spread
(quartile distance over the median, as ``statistics.quantiles(values, n=4)``
gives the quartiles).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

RUNS = 10
SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def bench(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), f"--workload={workload}",
            f"--seed={seed}", f"--seconds={SECONDS}", f"--trace={trace}"]
    out = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    result = {"machine": run.machine_info(), "seconds": SECONDS, "workloads": {}}
    for workload in run.WORKLOADS:
        seeds = list(range(1, RUNS + 1))
        runs = [bench(workload, seed, 0) for seed in seeds]
        names = runs[0]["metrics"]
        entry = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {n: summary([r["metrics"][n]["value"] for r in runs]) for n in names},
        }
        for name, unit in run.END_TO_END:
            s = entry["end_to_end"][name]
            print(f"{workload} {name} = {s['median']:.6g} {unit} (median; spread {s['spread']:.4f})")
        print(f"{workload} failed_frac = {entry['failed'] / entry['attempted']:.6g}", flush=True)
        traced = bench(workload, 0, 1)
        entry["per_layer_seed0"] = {n: m["value"] for n, m in traced["metrics"].items()}
        result["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(result, out, indent=1)
            out.write("\n")


if __name__ == "__main__":
    main()
