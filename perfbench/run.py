"""The landau benchmark: range-certificate sweeps and a desk query stream.

    python3 perfbench/run.py --workload sweep-sieve --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports landau from ./src.  Every
process it starts runs one job of child.py and is waited for.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones from one untraced and one traced pass.  The
lines before it restate the numbers per task.  The exit code is 0 only when
every output matched its pin and nothing failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from spans import TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
# Every timing is restated at this speed of child.py's reference loop, which
# runs next to the measured work (see child.reference_s).
REFERENCE_S = 0.010
SETUP_SAMPLES = 8  # half before the measured work, half after
CHILD_TIMEOUT_S = 150
DESK_DEADLINE_S = 2.0
DESK_CYCLES = 4  # pool passes prepared per desk run; far more than one run sends


class Failure(Exception):
    """The benchmark cannot run here at all."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed operation is +inf and sorts last."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def at_reference(seconds: float, ref_s: float) -> float:
    """A timing restated as if the reference loop had taken REFERENCE_S."""
    return seconds * REFERENCE_S / ref_s


def latencies(results: list[tuple[float | None, bool]]) -> list[float]:
    """Latency per operation; a failure (None or a mismatch) counts as +inf."""
    return [t if t is not None and ok else math.inf for t, ok in results]


def fold_records(records: list[dict], step: int) -> tuple[int, int, dict] | None:
    """Fold checkpoint records that tile one range into (lo, hi, stats).

    Instances add up; each max statistic keeps its first (lowest) holder,
    as the harness does when it extends a record.  None if the records leave
    a gap, overlap, or hold a counterexample.
    """
    records = sorted(records, key=lambda r: r["lo"])
    if not records or any(r["status"] != "verified" for r in records):
        return None
    for prev, cur in zip(records, records[1:]):
        if cur["lo"] != prev["hi"] + step:
            return None
    stats = dict(records[0]["stats"])
    for rec in records[1:]:
        stats["instances"] += rec["stats"]["instances"]
        for key in rec["stats"]:
            if key != "instances" and not key.endswith("_at") and rec["stats"][key] > stats[key]:
                stats[key] = rec["stats"][key]
                stats[key + "_at"] = rec["stats"][key + "_at"]
    return records[0]["lo"], records[-1]["hi"], stats


class Bench:
    def __init__(self, root: str, trace: bool) -> None:
        self.root = root
        self.trace = trace
        self.tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("LANDAU_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.rss_kb = 0
        self.refs: list[float] = []  # reference samples, for the report lines
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, job: str, spec: dict) -> dict | None:
        """Run one child job and return its result, or None if it failed."""
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), job, json.dumps(spec)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{job} {spec}: no result within {CHILD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            self.problems.append(f"{job} {spec}: exit {proc.returncode}: {proc.stderr[-1500:]}")
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        self.rss_kb = max(self.rss_kb, result.get("rss_kb", 0))
        if "ref_s" in result:
            self.refs.append(result["ref_s"])
        return result

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def setup_samples(self, count: int) -> list[float]:
        samples = []
        for _ in range(count):
            res = self.child("setup", {})
            if res is None:
                raise Failure("landau does not import from ./src:\n" + self.problems[-1])
            samples.append(at_reference(res["import_s"], res["ref_s"]))
        return samples

    # -- sweeps --------------------------------------------------------------

    def sieve_round(self, seed: int, pins: dict, traced: bool) -> list[dict]:
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(self.tmp)
        out = []
        for leg in workloads.sieve_legs(seed):
            spec = {"task": leg["task"], "cli": leg["command"], "lo": leg["lo"], "hi": leg["hi"],
                    "checkpoint": os.path.join(self.tmp, leg["checkpoint"]), "trace": traced}
            res = self.child("sweep", spec)
            out.append(self._check_sieve_leg(leg, res, out, pins["sieve"][leg["task"]]))
        return out

    def _check_sieve_leg(self, leg: dict, res: dict | None, before: list[dict], pin: dict) -> dict:
        self.attempted += 1
        name = f"{leg['task']} [{leg['lo']}, {leg['hi']}]"
        done = sum(r["hi"] - r["lo"] + 2 for r in before if r["task"] == leg["task"] and r["res"]) // 2
        ok = res is not None and self.check(res["code"] == 0, f"{name}: exit {res['code']}: {res.get('stderr')}")
        if ok:
            s = res["summary"]
            total = (leg["hi"] - leg["lo"]) // 2 + 1
            ok = self.check(s["complete"] and not s["counterexamples"], f"{name}: incomplete: {s}")
            ok &= self.check((s["verified"], s["skipped"]) == (total - done, done),
                             f"{name}: verified/skipped {s['verified']}/{s['skipped']}, want {total - done}/{done}")
            folded = fold_records([r for r in res["records"] if r["task"] == leg["task"]], 2)
            ok &= self.check(folded is not None and folded[:2] == (leg["lo"], leg["hi"]),
                             f"{name}: checkpoint records do not tile the range: {res['records']}")
            if leg["hi"] == pin["hi"]:
                ok &= self.check(folded is not None and folded[2] == pin["stats"],
                                 f"{name}: checkpoint stats {folded and folded[2]}, pinned {pin['stats']}")
        if not ok:
            self.failed += 1
        return {"task": leg["task"], "lo": leg["lo"], "hi": leg["hi"], "res": res if ok else None}

    def arith_round(self, seed: int, pins: dict, traced: bool) -> list[dict]:
        out = []
        for leg in workloads.arith_legs(seed):
            res = self.child("sweep", {**leg, "trace": traced})
            self.attempted += 1
            name = f"{leg['task']} [{leg['lo']}, {leg['hi']}]"
            ok = res is not None
            if ok:
                s = res["summary"]
                ok = self.check(s["complete"] and not s["counterexamples"]
                                and (s["verified"], s["skipped"]) == (leg["hi"] - leg["lo"] + 1, 0),
                                f"{name}: summary {s}")
                pin = pins["arith"][leg["task"]][str(leg["lo"])]
                ok &= self.check(s["stats"] == pin, f"{name}: stats {s['stats']}, pinned {pin}")
            if not ok:
                self.failed += 1
            out.append({**leg, "res": res if ok else None})
        return out

    def sweep(self, seed: int, seconds: float, round_fn) -> list[list[dict]]:
        """Rounds of legs until the next one would overrun `seconds`."""
        pins = workloads.load_pins()
        rounds: list[list[dict]] = []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(round_fn(seed, pins, False))
            now = time.perf_counter()
            if now - t_start + (now - t0) > seconds:
                return rounds

    # -- desk ----------------------------------------------------------------

    def desk(self, seed: int, seconds: float, count: int | None = None, traced: bool = False) -> dict:
        spec = {"seed": seed, "seconds": seconds, "count": count, "cycles": DESK_CYCLES,
                "deadline_s": DESK_DEADLINE_S, "trace": traced}
        res = self.child("desk", spec)
        if res is None:
            self.attempted += 1
            self.failed += 1
            return {"checked": []}
        digests = workloads.load_pins()["desk"]["digests"]
        checked = []
        for idx, latency, digest, ref_s in res["results"]:
            self.attempted += 1
            ok = digest == digests[idx]
            if digest is None:
                self.failed += 1
                self.problems.append(f"desk query {idx}: missed the {DESK_DEADLINE_S} s deadline")
            elif not ok:
                self.failed += 1
                self.problems.append(f"desk query {idx}: output digest {digest}, pinned {digests[idx]}")
            self.refs.append(ref_s)
            checked.append((latency, at_reference(latency, ref_s), ok))
        res["checked"] = checked
        return res


# -- metrics ---------------------------------------------------------------------


def sweep_metrics(rounds: list[list[dict]]) -> tuple[dict, dict]:
    """(end-to-end metrics, report lines) over all rounds of a sweep.

    The throughput pools every verify call of the run.  A round, which
    certifies every task of the workload once, is the unit of latency: its
    legs differ too much in size for per-call percentiles to mean anything.
    """
    rows, raw, per_task = [], [], {}
    for legs in rounds:
        spent = 0.0
        for leg in legs:
            res = leg["res"]
            if res is None:
                spent = None
                continue
            seconds = at_reference(res["seconds"], res["ref_s"])
            spent = None if spent is None else spent + seconds
            raw.append((res["summary"]["verified"], res["seconds"]))
            inst, secs = per_task.get(leg["task"], (0, 0.0))
            per_task[leg["task"]] = (inst + res["summary"]["verified"], secs + seconds)
        rows.append((spent, spent is not None))
    done = sum(inst for inst, _ in per_task.values())
    busy = sum(secs for _, secs in per_task.values())
    metrics = _metrics(rows, done, busy)
    lines = {f"{task}_per_s": inst / secs for task, (inst, secs) in per_task.items()}
    if raw:
        lines["raw_throughput_per_s"] = sum(i for i, _ in raw) / sum(s for _, s in raw)
    return metrics, lines


def _metrics(rows: list[tuple[float | None, bool]], done: int, busy: float) -> dict:
    lat = latencies(rows)
    return {
        "throughput_per_s": done / busy if busy else 0.0,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p99_ms": percentile(lat, 99) * 1e3,
    }


def desk_metrics(res: dict) -> tuple[dict, dict]:
    """(end-to-end metrics, report lines) of one desk stream."""
    checked = res["checked"]
    good = sum(ok for _, _, ok in checked)
    metrics = _metrics([(t, ok) for _, t, ok in checked], good, sum(t for _, t, _ in checked))
    lines = {"queries": len(checked), "queries_per_s": metrics["throughput_per_s"],
             "query_p50_ms": metrics["latency_p50_ms"], "query_p99_ms": metrics["latency_p99_ms"]}
    raw = [t for t, _, ok in checked if ok]
    if raw:
        lines["raw_query_p50_ms"] = percentile(raw, 50) * 1e3
        lines["raw_query_p99_ms"] = percentile(raw, 99) * 1e3
    return metrics, lines


LAYERS = ("primes", "zn", "ideals", "goldbach", "gaps", "figurate", "harness", "reports", "cli", "config")


def layer_metrics(traces: list[dict], wall_s: float, overhead: float) -> dict:
    """Per-layer metrics from the children's trace summaries."""
    names: dict[str, dict[str, float]] = {}
    extra = {"legendre_instances": 0, "legendre_is_prime_calls": 0, "is_prime_under_factorize": 0}
    for tr in traces:
        for name, rec in tr["names"].items():
            acc = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
            for key in acc:
                acc[key] += rec[key]
        for key in extra:
            extra[key] += tr[key]

    def get(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(rec["self_s"] for n, rec in names.items() if n.split(".")[0] == layer)
    out.update({f"{mod}.{fn}.s": get(f"{mod}.{fn}", "s") for mod, fn, _ in TARGETS})
    factorize_calls = get("zn.factorize", "calls")
    out.update({
        "primes.prime_flags.calls": get("primes.prime_flags", "calls"),
        "primes.prime_flags.bytes": get("primes.prime_flags", "bytes"),
        "primes.is_prime.calls": get("primes.is_prime", "calls"),
        "harness.legendre.is_prime_per_instance":
            _ratio(extra["legendre_is_prime_calls"], extra["legendre_instances"]),
        "zn.factorize.calls": factorize_calls,
        "zn.is_prime_per_factorize": _ratio(extra["is_prime_under_factorize"], factorize_calls),
        "harness.verify_range.self_s": get("harness.verify_range", "self_s"),
        "harness.checkpoint_writes": get("harness.replace", "calls"),
        "harness.checkpoint_io_s": get("harness.fsync", "s") + get("harness.replace", "s"),
        "reports.emit_report.self_s": get("reports.emit_report", "self_s"),
        "reports.output_bytes": get("reports.emit_report", "bytes"),
        "trace.wall_s": wall_s,
        "trace.attributed_share": _ratio(sum(rec["self_s"] for rec in names.values()), wall_s),
        "trace_overhead": overhead,
    })
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _spent(legs: list[dict]) -> float:
    return sum(at_reference(leg["res"]["seconds"], leg["res"]["ref_s"]) for leg in legs if leg["res"])


def run_workload(bench: Bench, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(metrics for the JSON line, per-task figures for the report lines)."""
    setup = [] if bench.trace else bench.setup_samples(SETUP_SAMPLES // 2)
    if workload in ("sweep-sieve", "sweep-arith"):
        round_fn = bench.sieve_round if workload == "sweep-sieve" else bench.arith_round
        if bench.trace:
            pins = workloads.load_pins()
            plain, traced = round_fn(seed, pins, False), round_fn(seed, pins, True)
            traces = [leg["res"]["trace"] for leg in traced if leg["res"]]
            wall = sum(leg["res"]["seconds"] for leg in traced if leg["res"])
            return layer_metrics(traces, wall, _ratio(_spent(traced), _spent(plain))), {}
        rounds = bench.sweep(seed, seconds, round_fn)
        metrics, per_task = sweep_metrics(rounds)
        per_task["rounds"] = len(rounds)
    elif workload == "desk-queries":
        if bench.trace:
            plain = bench.desk(seed, seconds / 2)
            traced = bench.desk(seed, seconds, count=len(plain["checked"]), traced=True)

            def spent(res: dict, i: int) -> float:
                return sum(row[i] for row in res["checked"])

            return layer_metrics([traced["trace"]] if "trace" in traced else [],
                                 spent(traced, 0), _ratio(spent(traced, 1), spent(plain, 1))), {}
        metrics, per_task = desk_metrics(bench.desk(seed, seconds))
    else:
        raise Failure(f"unknown workload {workload!r}")
    setup += bench.setup_samples(SETUP_SAMPLES - len(setup))
    metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": bench.rss_kb / 1024, **metrics}
    per_task["ops_failed_ratio"] = bench.failed / bench.attempted if bench.attempted else 0.0
    per_task["host_reference_ms"] = statistics.median(bench.refs) * 1e3
    return metrics, per_task


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    bench = Bench(root, bool(args.trace))
    try:
        if not os.path.isfile(os.path.join(root, "src", "landau", "__init__.py")):
            raise Failure(f"no landau package under {os.path.join(root, 'src')}")
        metrics, per_task = run_workload(bench, args.workload, args.seed, args.seconds)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.tmp))
        except OSError:
            pass  # absent, or another run's files are still in it
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if set(metrics) != set(units):
        raise AssertionError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for name, value in sorted(per_task.items()):
        print(f"{args.workload} {name} {value:.6g}")
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct and bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
