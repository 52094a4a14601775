"""Runs one workload's jobs against the program, in a fresh interpreter.

    python3 bench/worker.py ROOT INPUT_DIR setup
    python3 bench/worker.py ROOT INPUT_DIR run SECONDS RESULT_FILE [TRACE_FILE]

`setup` imports `bicolor` from ROOT/src, loads every input file through
`workbench.load`, prints `ready` and exits; the parent times it.  `run` does
the same set-up, then runs whole rounds of the job list until SECONDS have
passed (at least one round), and writes the job times, the outputs of the
first round, whether every later round repeated them exactly, and the peak
resident set size to RESULT_FILE.  With TRACE_FILE the rounds run under the
tracer of `tracing.py`, whose spans and aggregates are written there.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time


def _import_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bicolor", "__init__.py")):
        raise SystemExit(f"no bicolor sources under {src}")
    sys.path.insert(0, src)
    import bicolor

    if not os.path.abspath(bicolor.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"bicolor imported from {bicolor.__file__}, not from {src}")
    # The package re-exports functions under its modules' names (closure),
    # so the modules are fetched by their full names.
    closure, colored, construct, workbench, exactnum = (
        importlib.import_module(f"bicolor.{m}")
        for m in ("closure", "colored", "construct", "workbench", "exactnum")
    )
    return closure, colored, construct, workbench, exactnum.Alpha


class Jobs:
    """The job kinds; each returns (seconds spent in the program, output)."""

    def __init__(self, root: str, inputs: str):
        closure, colored, construct, workbench, Alpha = _import_program(root)
        self.cl, self.co, self.cons, self.wb, self.Alpha = closure, colored, construct, workbench, Alpha
        self.inputs = inputs
        with open(os.path.join(inputs, "jobs.json"), encoding="utf-8") as fh:
            self.jobs = json.load(fh)
        # Set-up validates every input once; jobs load their files afresh so
        # that no certificate cached on a structure carries over.
        for name in sorted({j["structure"] for j in self.jobs if "structure" in j}):
            workbench.load(self.path(name))
        for j in self.jobs:
            if "alpha" in j:
                Alpha.from_json(j["alpha"])

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def run(self, job: dict, tmpdir: str, serial: int):
        return getattr(self, "job_" + job["kind"])(job, tmpdir, serial)

    def job_chain(self, job, tmpdir, serial):
        t0 = time.perf_counter()
        alpha = self.Alpha.from_json(job["alpha"])
        res = self.cons.minimal_pair_chain(alpha, job["depth"], job["ambient"])
        dt = time.perf_counter() - t0
        out = {
            "structure": self.wb.structure_to_obj(res.structure),
            "levels": [
                {
                    "d": list(lv.d_ids),
                    "e": list(lv.e_ids),
                    "f": list(lv.f_ids),
                    "pair": [lv.pair.s, lv.pair.k] if lv.pair else None,
                }
                for lv in res.levels
            ],
            "checks": [c.to_json() for c in res.checks],
        }
        return dt, out

    def job_ratzero(self, job, tmpdir, serial):
        t0 = time.perf_counter()
        S = self.wb.load(self.path(job["structure"]))
        res = self.cons.rational_zero_extension(job["anchor"], job["base"], job["t"], S)
        dt = time.perf_counter() - t0
        out = {
            "structure": self.wb.structure_to_obj(res.structure),
            "copies": [list(c) for c in res.copies],
            "checks": [c.to_json() for c in res.checks],
        }
        return dt, out

    def job_ratmin(self, job, tmpdir, serial):
        t0 = time.perf_counter()
        S = self.wb.load(self.path(job["structure"]))
        res = self.cons.rational_minimal_extension(job["anchor"], job["base"], job["t"], S)
        dt = time.perf_counter() - t0
        out = {
            "structure": self.wb.structure_to_obj(res.structure),
            "new_ids": list(res.new_ids),
            "pair": [res.pair.s, res.pair.k],
            "checks": [c.to_json() for c in res.checks],
        }
        return dt, out

    def job_query(self, job, tmpdir, serial):
        cl, co = self.cl, self.co
        t0 = time.perf_counter()
        S = self.wb.load(self.path(job["structure"]))
        kp = co.in_k_plus(S)
        closure = cl.closure(job["closure"], S)
        closed = cl.is_closed(job["closed"], S)
        mval, mwit = co.min_relative_delta(S, job["minrel"])
        pair = cl.is_minimal_pair(job["pair"][0], job["pair"][1], S)
        dval = cl.d_value(job["dvalue"], S) if job["dvalue"] is not None else None
        dt = time.perf_counter() - t0
        out = {
            "in_k_plus": kp,
            "closure": sorted(closure),
            "closed": closed,
            "minrel": [[mval.dim_part, mval.color_part], sorted(mwit)],
            "minimal_pair": pair,
            "d_value": [dval.dim_part, dval.color_part] if dval is not None else None,
        }
        return dt, out

    def job_generic(self, job, tmpdir, serial):
        wb = self.wb
        saved = os.path.join(tmpdir, f"generic-{serial}.json")
        t0 = time.perf_counter()
        seed = wb.load(self.path(job["structure"]))
        G = wb.build_generic(seed, job["steps"], job["budget"], job["rng"])
        report = wb.audit_richness(G, job["budget"])
        wb.save(G, saved)
        same = wb.dumps(wb.load(saved)) == wb.dumps(G)
        dt = time.perf_counter() - t0
        with open(saved, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(saved)
        out = {
            "saved": text,
            "reloaded_equal": same,
            "audit": report.to_json(),
        }
        return dt, out

    def catalogs(self) -> dict:
        """The extension tasks each generic job's audit answered, by job index."""
        out = {}
        for i, job in enumerate(self.jobs):
            if job["kind"] != "generic":
                continue
            alpha = self.wb.load(self.path(job["structure"])).alpha
            out[str(i)] = {
                t.task_id: {
                    "small": list(t.small.ids_sorted),
                    "big": self.wb.structure_to_obj(t.big),
                }
                for t in self.wb.task_catalog(alpha, job["budget"])
            }
        return out


def run(jobs: Jobs, seconds: float, result_file: str, trace_file: str | None):
    tracer = None
    if trace_file:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    tmpdir = os.path.dirname(os.path.abspath(result_file))
    rounds, first, repeated = [], None, True
    start = time.perf_counter()
    serial = 0
    while not rounds or time.perf_counter() - start < seconds:
        times, outputs = [], []
        for job in jobs.jobs:
            serial += 1
            try:
                if tracer:
                    with tracer.job(job["kind"]):
                        dt, out = jobs.run(job, tmpdir, serial)
                else:
                    dt, out = jobs.run(job, tmpdir, serial)
                times.append(dt)
                outputs.append(json.dumps(out, sort_keys=True))
            except Exception as e:  # a failed job is counted, not fatal
                times.append(None)
                outputs.append(json.dumps({"error": f"{type(e).__name__}: {e}"}))
        rounds.append(times)
        if first is None:
            first = outputs
        elif outputs != first:
            repeated = False
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "rounds": rounds,
        "outputs": [json.loads(o) for o in first],
        "repeated": repeated,
        "peak_rss_kb": peak_kb,
    }
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary(len(rounds))
        tracer.write(trace_file)
    if any(j["kind"] == "generic" for j in jobs.jobs):
        result["catalogs"] = jobs.catalogs()
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    root, inputs, mode = argv[0], argv[1], argv[2]
    jobs = Jobs(root, inputs)
    if mode == "setup":
        print("ready", flush=True)
        return 0
    seconds, result_file = float(argv[3]), argv[4]
    trace_file = argv[5] if len(argv) > 5 else None
    run(jobs, seconds, result_file, trace_file)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
