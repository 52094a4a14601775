#!/usr/bin/env python3
"""Benchmark of the exact engines and queries of `bicolor`.

    python3 bench/run.py --workload chain|rational|query|generic \
        --seed N --seconds S --trace 0|1 [--repeat K]

Run from the repository root.  The inputs of the workload are generated from
the seed (`gen.py`) and handed to the program as canonical structure files.
Set-up time is the median of several fresh interpreters that import the
program and load those files.  One worker interpreter then runs whole rounds
of the job list for S seconds; its outputs are checked afterwards against the
independent oracle (`checks.py`, `oracle.py`), which never imports the
program.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: end-to-end metrics with
`--trace 0`; with `--trace 1` an untraced and a traced worker share the S
seconds and the per-layer metrics of the traced one are printed, with
`trace.overhead` = traced wall_s / untraced wall_s.

`--repeat K` runs the workload K times with seeds N, N+1, ... and prints
each metric's median and quartiles instead, so that a bound can be derived
afresh on another machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT = 30
WORKER_TIMEOUT = 150
OUT_DIR = ".bench_out"


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker_cmd(root: str, inputs: str, *args) -> list:
    return [sys.executable, os.path.join(BENCH, "worker.py"), root, inputs, *args]


def measure_setup(root: str, inputs: str) -> float:
    """Seconds from starting a fresh interpreter until it reports its inputs loaded."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        _worker_cmd(root, inputs, "setup"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=SETUP_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up failed: {err.strip()[-2000:]}")
    return elapsed


def run_worker(root: str, inputs: str, seconds: float, result: str, trace: str | None) -> dict:
    cmd = _worker_cmd(root, inputs, "run", str(seconds), result) + ([trace] if trace else [])
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=_env(), timeout=WORKER_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT}s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _round_walls(res: dict) -> list:
    return [sum(t for t in times if t is not None) for times in res["rounds"]]


def _job_times(res: dict) -> list:
    return [t for times in res["rounds"] for t in times if t is not None]


def run_once(workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bicolor", "__init__.py")):
        raise BenchError("run from the repository root: src/bicolor is missing")
    work = os.path.join(root, OUT_DIR, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    try:
        jobs = gen.make(workload, seed, inputs)
        setups = [measure_setup(root, inputs) for _ in range(SETUP_REPEATS)]
        if trace:
            plain = run_worker(root, inputs, seconds / 2, os.path.join(work, "plain.json"), None)
            trace_file = os.path.join(root, OUT_DIR, f"trace-{workload}-{seed}.json")
            traced = run_worker(root, inputs, seconds / 2, os.path.join(work, "traced.json"), trace_file)
            results = [plain, traced]
            log(f"trace written to {os.path.relpath(trace_file, root)}")
        else:
            results = [run_worker(root, inputs, seconds, os.path.join(work, "result.json"), None)]
        main = results[-1]
        outputs = main["outputs"]
        problems = checks.check(workload, jobs, outputs, inputs, seed, main)
        for other in results[:-1]:
            if other["outputs"] != outputs:
                problems.append("untraced and traced outputs differ")
        for res in results:
            if not res["repeated"]:
                problems.append("a later round did not repeat the first round's outputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(r) for res in results for r in res["rounds"])
    failed = sum(1 for res in results for r in res["rounds"] for t in r if t is None)
    for p in problems[:20]:
        log(f"CHECK FAILED: {p}")
    for i, out in enumerate(outputs):
        if "error" in out:
            log(f"job {i} ({jobs[i]['kind']}) failed: {out['error']}")
    times = _job_times(main)
    walls = _round_walls(main)
    if not times:
        raise BenchError("every job failed")
    log(
        f"{workload} seed {seed}: {len(main['rounds'])} round(s), {len(times)} jobs, "
        f"round {statistics.median(walls):.3f}s, set-up {statistics.median(setups):.4f}s"
    )
    if len(times) >= 40:
        # the highest percentile with at least ten jobs above it
        pct = int(100 * (1 - 10 / len(times)))
        tail = statistics.quantiles(times, n=100)[pct - 1]
        log(f"job p{pct} {1000 * tail:.2f} ms over {len(times)} jobs")
    if workload in ("chain", "rational"):
        methods = sorted(c["method"] for out in outputs if "checks" in out for c in out["checks"])
        log("check methods: " + ", ".join(f"{m} x{methods.count(m)}" for m in sorted(set(methods))))
    if trace:
        metrics = dict(main["trace"])
        overhead = statistics.median(_round_walls(main)) / statistics.median(_round_walls(results[0]))
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "job_p50_ms": {"value": 1000 * statistics.median(times), "unit": "ms"},
            "peak_rss_mb": {"value": main["peak_rss_kb"] / 1024, "unit": "MB"},
            "exact_checks": {
                "value": checks.exact_verdicts(workload, jobs, outputs),
                "unit": "count",
            },
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def repeat(workload: str, seed: int, seconds: float, trace: bool, count: int, log) -> dict:
    runs = [run_once(workload, seed + i, seconds, trace, log) for i in range(count)]
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread}
        log(f"{name:32s} median {med:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}  spread {spread:7.2%}")
    failed_shares = sorted({r["failed"] / r["attempted"] for r in runs})
    return {
        "workload": workload,
        "runs": count,
        "correct": all(r["correct"] for r in runs),
        "failed_shares": failed_shares,
        "metrics": summary,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    try:
        if args.repeat:
            out = repeat(args.workload, args.seed, args.seconds, bool(args.trace), args.repeat, log)
        else:
            out = run_once(args.workload, args.seed, args.seconds, bool(args.trace), log)
    except BenchError as e:
        log(f"benchmark error: {e}")
        return 2
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
