"""Per-layer tracing of the program, installed from outside `src/`.

`Tracer.install()` replaces selected public functions and methods of the
`bicolor` modules by timing wrappers.  A function is replaced on every
module-level binding that holds it, because `closure` and `construct` import
`delta`, `in_k_plus` and friends by name: wrapping the defining module alone
would miss those calls.  Methods are replaced on their class.

Every timed call adds to a per-name (calls, self seconds) aggregate, where
self time is the call's duration minus the time spent in timed calls nested
inside it.  Engine-level calls (construct engines, `free_amalgam`,
`build_generic`, `audit_richness`, file loads and saves) and query-level
calls made directly by a benchmark job also record a span with its parent;
hot inner calls (`PreDimValue.sign`, `SpanReducer` operations, `delta`, ...)
are aggregated only.  `QuadRat` values are counted, not timed.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, aggregate name, span policy).  Span policy: "always"
# records a span on every call, "query" only when called directly by a
# benchmark job, None never.
FUNCTIONS = [
    ("bicolor.colored", "delta", "colored.delta", None),
    ("bicolor.colored", "min_relative_delta", "colored.search", "query"),
    ("bicolor.colored", "in_k_plus", "colored.search", "query"),
    ("bicolor.colored", "min_violating_witness", "colored.witness", "query"),
    ("bicolor.colored", "is_lp_embedding", "colored.embedding", None),
    ("bicolor.colored", "dependency_kernel", "colored.kernel", None),
    ("bicolor.closure", "closure_with_steps", "closure.closure", "query"),
    ("bicolor.closure", "closed_with_witness", "closure.closed", "query"),
    ("bicolor.closure", "is_minimal_pair", "closure.minimal_pair", "query"),
    ("bicolor.closure", "d_value_with_witness", "closure.d_value", "query"),
    ("bicolor.construct", "minimal_pair_chain", "construct.engine", "always"),
    ("bicolor.construct", "rational_zero_extension", "construct.engine", "always"),
    ("bicolor.construct", "rational_minimal_extension", "construct.engine", "always"),
    ("bicolor.construct", "transcendental_patch", "construct.engine", "always"),
    ("bicolor.construct", "free_power_patch", "construct.engine", "always"),
    ("bicolor.construct", "generic_basis_extension", "construct.engine", "always"),
    ("bicolor.construct", "delta_system_closed_root", "construct.engine", "always"),
    ("bicolor.amalgam", "free_amalgam", "amalgam.free_amalgam", "always"),
    ("bicolor.workbench", "build_generic", "workbench.build", "always"),
    ("bicolor.workbench", "audit_richness", "workbench.audit", "always"),
    ("bicolor.workbench", "load", "workbench.io", "always"),
    ("bicolor.workbench", "save", "workbench.io", "always"),
]
METHODS = [
    ("bicolor.exactnum", "PreDimValue", "sign", "exactnum.sign"),
    ("bicolor.pregeom", "SpanReducer", "add", "pregeom.add"),
    ("bicolor.pregeom", "SpanReducer", "residual", "pregeom.residual"),
    ("bicolor.pregeom", "SpanReducer", "clone", "pregeom.clone"),
    ("bicolor.pregeom", "SpanReducer", "contains", "pregeom.contains"),
    ("bicolor.colored", "ColoredStructure", "restrict", "colored.restrict"),
]
SEARCHES = {"colored.search", "colored.witness"}
ENGINES = {"construct.engine"}

# Per-layer metrics: name -> (unit, how it is read from the aggregates).
LAYER_METRICS = {
    "exactnum.sign_calls": ("count", ("calls", "exactnum.sign")),
    "exactnum.sign_self_s": ("s", ("self", "exactnum.sign")),
    "exactnum.quadrat_ops": ("count", ("counter", "quadrat")),
    "pregeom.reducer_adds": ("count", ("calls", "pregeom.add")),
    "pregeom.reducer_residuals": ("count", ("calls", "pregeom.residual")),
    "pregeom.reducer_clones": ("count", ("calls", "pregeom.clone")),
    "pregeom.reducer_self_s": (
        "s",
        ("self", "pregeom.add", "pregeom.residual", "pregeom.clone", "pregeom.contains"),
    ),
    "colored.delta_calls": ("count", ("calls", "colored.delta")),
    "colored.delta_self_s": ("s", ("self", "colored.delta")),
    "colored.search_self_s": ("s", ("self", "colored.search")),
    "colored.witness_calls": ("count", ("calls", "colored.witness")),
    "colored.witness_self_s": ("s", ("self", "colored.witness")),
    "colored.budget_exhausted": ("count", ("counter", "budget_exhausted")),
    "colored.wasted_s": ("s", ("counter", "wasted_s")),
    "colored.embedding_tests": ("count", ("calls", "colored.embedding")),
    "colored.kernel_self_s": ("s", ("self", "colored.kernel")),
    "colored.restrict_calls": ("count", ("calls", "colored.restrict")),
    "closure.closure_calls": ("count", ("calls", "closure.closure")),
    "closure.closure_self_s": ("s", ("self", "closure.closure")),
    "closure.minimal_pair_calls": ("count", ("calls", "closure.minimal_pair")),
    "closure.minimal_pair_self_s": ("s", ("self", "closure.minimal_pair")),
    "construct.self_s": ("s", ("self", "construct.engine")),
    "construct.checks_exhaustive": ("count", ("counter", "checks_exhaustive")),
    "construct.checks_sampled": ("count", ("counter", "checks_sampled")),
    "construct.checks_structural": ("count", ("counter", "checks_structural")),
    "amalgam.calls": ("count", ("calls", "amalgam.free_amalgam")),
    "amalgam.self_s": ("s", ("self", "amalgam.free_amalgam")),
    "workbench.build_self_s": ("s", ("self", "workbench.build")),
    "workbench.audit_self_s": ("s", ("self", "workbench.audit")),
    "workbench.io_s": ("s", ("self", "workbench.io")),
}


class Tracer:
    def __init__(self):
        self.agg: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters = {
            "quadrat": 0,
            "budget_exhausted": 0,
            "wasted_s": 0.0,
            "checks_exhaustive": 0,
            "checks_sampled": 0,
            "checks_structural": 0,
        }
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.frames: list[list] = []  # [child seconds, span id, name]
        self.open_spans: list[int] = []
        self.engine_depth = 0
        self.seen_budget: set[int] = set()
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------------

    def install(self):
        from bicolor.errors import SearchBudgetExceeded

        self._budget_error = SearchBudgetExceeded
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("bicolor")]
        for modname, attr, name, span in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, name, span, f"{modname[len('bicolor.'):]}.{attr}")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            self._set(cls, attr, self._wrap(cls.__dict__[attr], name, None))
        quadrat = sys.modules["bicolor.exactnum"].QuadRat
        self._set(quadrat, "__post_init__", self._count_quadrat(quadrat.__dict__["__post_init__"]))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _set(self, owner, key, value):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _count_quadrat(self, original):
        counters = self.counters

        def post_init(obj):
            counters["quadrat"] += 1
            return original(obj)

        return post_init

    def _wrap(self, fn, name: str, span_policy, label: str | None = None):
        agg = self.agg.setdefault(name, [0, 0.0])
        frames, spans, open_spans = self.frames, self.spans, self.open_spans
        clock = time.perf_counter
        search = name in SEARCHES
        engine = name in ENGINES
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            sid = None
            if span_policy == "always" or (
                span_policy == "query" and frames and frames[-1][2] == "job"
            ):
                sid = len(spans)
                spans.append([sid, open_spans[-1] if open_spans else None, label, t0, None])
                open_spans.append(sid)
            frame = [0.0, sid, name]
            frames.append(frame)
            if engine:
                tracer.engine_depth += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if search and isinstance(exc, tracer._budget_error) and id(exc) not in tracer.seen_budget:
                    tracer.seen_budget.add(id(exc))
                    tracer.counters["budget_exhausted"] += 1
                    tracer.counters["wasted_s"] += clock() - t0
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                frames.pop()
                agg[0] += 1
                agg[1] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if sid is not None:
                    spans[sid][4] = t1
                    open_spans.pop()
                if engine:
                    tracer.engine_depth -= 1
            if engine and tracer.engine_depth == 0:
                for check in getattr(result, "checks", ()):
                    key = "checks_" + check.method
                    tracer.counters[key] = tracer.counters.get(key, 0) + 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- benchmark jobs -----------------------------------------------------------

    @contextmanager
    def job(self, kind: str):
        t0 = time.perf_counter()
        sid = len(self.spans)
        self.spans.append([sid, None, "job." + kind, t0, None])
        self.open_spans.append(sid)
        self.frames.append([0.0, sid, "job"])
        try:
            yield
        finally:
            self.frames.pop()
            self.open_spans.pop()
            self.spans[sid][4] = time.perf_counter()

    # -- results ------------------------------------------------------------------

    def summary(self, rounds: int) -> dict:
        """Every per-layer metric, per round of the job list."""
        out = {}
        for metric, (unit, (kind, *names)) in LAYER_METRICS.items():
            if kind == "counter":
                value = self.counters[names[0]]
            else:
                idx = 0 if kind == "calls" else 1
                value = sum(self.agg.get(n, [0, 0.0])[idx] for n in names)
            out[metric] = {"value": value / rounds, "unit": unit}
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "aggregates": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(self.agg.items())},
                    "counters": self.counters,
                    "spans": [
                        {"id": i, "parent": p, "name": n, "start": a, "end": b}
                        for i, p, n, a, b in self.spans
                    ],
                },
                fh,
            )
