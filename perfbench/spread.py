"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads sweep-sieve,...] [--trace] [--out FILE]

From the root of a checkout.  For every workload and end-to-end metric it
prints the median of the runs and the distance between the first and third
quartile as a share of that median.  With --trace it adds one traced run per
workload (first seed).  --out writes the medians, with the machine's core
count, the Python version and the seeds, as one JSON trajectory point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    point: dict = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {"end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][metric["name"]] = {"median": med, "unit": metric["unit"], "iqr_share": spread}
            flag = "" if spread < metric["bound"] / 3 else "  <- above a third of the bound"
            print(f"{workload:13s} {metric['name']:12s} median {med:12.4f} {metric['unit']:5s} "
                  f"iqr/median {spread:.4f} (bound {metric['bound']}){flag}", flush=True)
            print("    runs: " + " ".join(f"{v:.5g}" for v in values), flush=True)
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["attempted"] = sum(r["attempted"] for r in runs)
        if args.trace:
            traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        point["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(point, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
