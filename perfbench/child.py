"""One benchmark process: a cold import, one verify leg, or a desk stream.

Run by run.py with PYTHONPATH pointing at the checkout's src/ and no
LANDAU_* variables set.  The first argument names the job, the second is
its JSON spec; the result is printed as one JSON line.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import statistics
import sys
import time

REFERENCE_REPEATS = 5
DESK_REFERENCE_EVERY = 100  # queries between two reference samples


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _reference_loop() -> int:
    acc, table = 0, {}
    for i in range(60_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return acc


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now.

    The host's speed drifts by up to 1.6x over seconds to minutes as other
    tenants load it.  Run next to the measured work, in the same process,
    this sample lets run.py restate each timing at one reference speed.
    """
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_job(spec: dict) -> dict:
    t0 = time.perf_counter()
    import landau  # noqa: F401
    import landau.cli  # noqa: F401

    return {"import_s": time.perf_counter() - t0, "ref_s": reference_s()}


class Captured:
    """Swap sys.stdout/sys.stderr for byte buffers around one CLI call."""

    def __enter__(self) -> "Captured":
        self.out, self.err = io.BytesIO(), io.BytesIO()
        self._saved = sys.stdout, sys.stderr
        sys.stdout = io.TextIOWrapper(self.out, encoding="utf-8")
        sys.stderr = io.TextIOWrapper(self.err, encoding="utf-8")
        return self

    def __exit__(self, *exc) -> None:
        for stream in (sys.stdout, sys.stderr):
            stream.flush()
            stream.detach()
        sys.stdout, sys.stderr = self._saved


def run_cli(main, argv: list[str]) -> int:
    """Call the click entry point the way the `landau` script does."""
    try:
        main(args=argv, prog_name="landau")
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def _tracer(enabled: bool):
    if not enabled:
        return None
    from spans import Tracer

    return Tracer()


def sweep_job(spec: dict) -> dict:
    """One verify call: through the CLI (`cli` set) or the library API."""
    from landau import harness
    from landau.cli import main
    from landau.primes import PrimeConvention

    tracer = _tracer(spec["trace"])
    out: dict = {}
    call_main = main
    if tracer is not None:
        tracer.install()
        call_main = tracer.wrap("cli.main", main)
    ref_before = reference_s()
    t0 = time.perf_counter()
    if spec.get("cli"):
        argv = [
            "--format", "json", "--convention", "include1",
            spec["cli"], "verify", "--from", str(spec["lo"]), "--to", str(spec["hi"]),
            "--checkpoint", spec["checkpoint"], "--jobs", "1",
        ]
        with Captured() as cap:
            code = run_cli(call_main, argv)
        seconds = time.perf_counter() - t0
        out["code"] = code
        out["stderr"] = cap.err.getvalue().decode("utf-8", "replace")[-2000:]
        out["summary"] = json.loads(cap.out.getvalue())["report"] if code == 0 else None
    else:
        # through the module attribute, which the tracer has wrapped
        s = harness.verify_range(harness.Task(spec["task"]), spec["lo"], spec["hi"], PrimeConvention.INCLUDE1,
                                 checkpoint_path=None, worker_count=1)
        seconds = time.perf_counter() - t0
        out["code"] = 0
        out["summary"] = {"verified": s.verified, "skipped": s.skipped, "complete": s.complete,
                          "stats": s.stats, "counterexamples": list(s.counterexamples)}
    out["seconds"] = seconds
    out["ref_s"] = (ref_before + reference_s()) / 2
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
    if spec.get("checkpoint") and out["code"] == 0:
        out["records"] = [
            {"task": cp.task.value, "lo": cp.lo, "hi": cp.hi, "status": cp.status, "stats": cp.stats}
            for cp in harness.load_checkpoints(spec["checkpoint"])
        ]
    out["rss_kb"] = _rss_kb()
    return out


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside a query that ran too long.

    A BaseException, so that no `except Exception` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def desk_job(spec: dict) -> dict:
    """A closed loop of CLI queries in this one interpreter."""
    import workloads
    from landau.cli import main

    pins = workloads.load_pins()
    pool, groups = workloads.desk_pool_from_pins(pins)
    stream = workloads.desk_stream(spec["seed"], groups, spec["cycles"])
    limit = spec.get("count") or len(stream)
    tracer = _tracer(spec["trace"])
    call_main = main
    if tracer is not None:
        tracer.install()
        call_main = tracer.wrap("cli.main", main)
    deadline = spec["deadline_s"]
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    ref, chunk_start = reference_s(), 0
    stop_at = time.perf_counter() + spec["seconds"] if not spec.get("count") else float("inf")
    for idx in stream[:limit]:
        argv = pool[idx]
        t0 = time.perf_counter()
        if t0 >= stop_at:
            break
        if len(results) - chunk_start == DESK_REFERENCE_EVERY:
            ref, chunk_start = _close_chunk(results, chunk_start, ref), len(results)
            t0 = time.perf_counter()
        missed = False
        with Captured() as cap:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                code = run_cli(call_main, argv)
            except DeadlineExceeded:
                missed, code = True, -1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
        if missed:
            results.append([idx, latency, None, None])
        else:
            digest = workloads.normalized_digest(code, cap.out.getvalue(), cap.err.getvalue(), argv[1])
            results.append([idx, latency, digest, None])
    _close_chunk(results, chunk_start, ref)
    out = {"results": results}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
    out["rss_kb"] = _rss_kb()
    return out


def _close_chunk(results: list, start: int, ref_before: float) -> float:
    """Give the queries since `start` the mean of the reference samples
    taken before and after them; return the new sample."""
    ref_after = reference_s()
    for row in results[start:]:
        row[3] = (ref_before + ref_after) / 2
    return ref_after


JOBS = {"setup": setup_job, "sweep": sweep_job, "desk": desk_job}


if __name__ == "__main__":
    job, spec = sys.argv[1], json.loads(sys.argv[2])
    result = JOBS[job](spec)
    sys.stdout.write(json.dumps(result) + "\n")
