"""Checks of each workload's outputs against the independent oracle.

`check` returns the list of problems found in one round's outputs (empty
when every answer holds).  Answers are recomputed from the structures by
`oracle.py`, or, where a structure is too large for a subset table, checked
against properties every correct answer has, with seeded random subsets
standing in for the exhaustive sweep.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from oracle import Coef, Struct, canonical, chain_window_pair, rational_pair_brute

EXACT_METHODS = ("exhaustive", "certified")
# Largest number of colored candidates given to an exhaustive subset table.
TABLE_LIMIT = 18
SAMPLES = 3000


def _load(inputs: str, name: str) -> Struct:
    with open(os.path.join(inputs, name), encoding="utf-8") as fh:
        return Struct.from_text(fh.read())


def _closed(S: Struct, x_ids, rng: random.Random) -> bool:
    """X closed in S (X empty: S in K+).  A full table up to TABLE_LIMIT
    colored candidates; beyond, every candidate set of at most 3 points and
    SAMPLES seeded random ones."""
    x = frozenset(x_ids)
    cols = sorted(S.colored - x)
    if len(cols) <= TABLE_LIMIT:
        return S.is_closed(x)
    small = (c for size in (1, 2, 3) for c in itertools.combinations(cols, size))
    drawn = (rng.sample(cols, rng.randint(1, len(cols))) for _ in range(SAMPLES))
    return all(S.alpha.sign(*S.delta(c, x)) >= 0 for c in itertools.chain(small, drawn))


# -- chain ------------------------------------------------------------------------


def check_chain_job(job: dict, out: dict, rng: random.Random) -> list:
    bad = []
    coef = Coef(job["alpha"])
    S = Struct(out["structure"])
    if out["structure"]["alpha"] != job["alpha"]:
        bad.append("alpha changed")
    levels = out["levels"]
    if len(levels) != job["depth"] + 1 or levels[0]["d"] != ["d0"] or "d0" in S.colored:
        return bad + ["level 0 is not the plain point d0"]
    drops = []
    for lvl in range(1, job["depth"] + 1):
        lo, hi = levels[lvl - 1], levels[lvl]
        want = list(chain_window_pair(coef, lvl))
        if hi["pair"] != want:
            bad.append(f"level {lvl}: pair {hi['pair']} != scan {want}")
            continue
        s, k = want
        new = hi["e"] + hi["f"]
        if len(hi["e"]) != s or len(new) != k or set(hi["d"]) != set(lo["d"]) | set(new):
            bad.append(f"level {lvl}: wrong point counts")
            continue
        if not set(new) <= S.colored:
            bad.append(f"level {lvl}: a new point is plain")
        if S.delta(hi["d"], lo["d"]) != (s, k):
            bad.append(f"level {lvl}: delta(D_l/D_l-1) != ({s}, {k})")
        if not S.is_minimal_pair(lo["d"], hi["d"]):
            bad.append(f"level {lvl}: (D_l-1, D_l) is not a minimal pair")
        drops.append((s, k))
    for (s0, k0), (s1, k1) in zip(drops, drops[1:]):
        if coef.cmp((s1, k1), (s0, k0)) <= 0:
            bad.append("drops do not increase")
    if set(S.ids) != set(levels[-1]["d"]):
        bad.append("structure holds points outside the top level")
    below = S.restrict(levels[-2]["d"])
    if not (_closed(below, (), rng) and _closed(S, (), rng)):
        bad.append("chain is not hereditarily positive")
    for c in out["checks"]:
        if not c["pass"]:
            bad.append(f"check {c['name']} failed")
    return bad


# -- rational ---------------------------------------------------------------------


def _free_union_min(S: Struct, b_id: str, copies) -> tuple:
    """Exact min of delta over subsets of {b} plus copies, for copies free
    over a one-dimensional base: each copy Y_i has rank r_i over b and adds
    e_i = rank(Y_i) - r_i in {0, 1} of the base line, and
    rank(Y) = sum r_i + max(y_b, max e_i)."""
    alpha = S.alpha
    v0, v01 = (0, 0), (0, 0)
    for ids in copies:
        abs_t = S.table((), ids)
        rel_t = S.table((b_id,), ids)
        best = {0: (0, 0), 1: None}
        for mask in range(1 << len(ids)):
            r, c = rel_t.pair(mask)
            e = abs_t.dims[mask] - r
            cur = best[e]
            if cur is None or alpha.cmp((r, c), cur) < 0:
                best[e] = (r, c)
        low = best[0] if best[1] is None or alpha.cmp(best[0], best[1]) <= 0 else best[1]
        v0 = (v0[0] + best[0][0], v0[1] + best[0][1])
        v01 = (v01[0] + low[0], v01[1] + low[1])
    with_line = (v01[0] + 1, v01[1])
    return v0 if alpha.cmp(v0, with_line) <= 0 else with_line


def _blocks_disjoint(S: Struct, base_width: int, copies) -> bool:
    """Every copy lives on the base coordinates plus a column block of its own."""
    owner = {}
    for i, ids in enumerate(copies):
        for eid in ids:
            for j, x in enumerate(S.vec[eid]):
                if x and j >= base_width:
                    if owner.setdefault(j, i) != i:
                        return False
    return True


def check_rational_job(job: dict, out: dict, base: Struct, rng: random.Random) -> list:
    bad = []
    S = Struct(out["structure"])
    alpha = S.alpha
    m, n = alpha.num, alpha.den
    s, k = rational_pair_brute(m, n, job["t"])
    b_ids = job["base"]
    for b in b_ids:
        old = base.vec[b]
        if S.vec[b][: len(old)] != old or any(S.vec[b][len(old):]):
            bad.append("base payload changed")
    if job["kind"] == "ratmin":
        if out["pair"] != [s, k] or n * s - m * k != -1:
            bad.append(f"pair {out['pair']} != brute-force ({s}, {k})")
        new = out["new_ids"]
        d_ids = b_ids + new
        if len(new) != k or not set(new) <= S.colored or set(S.ids) != set(d_ids):
            bad.append("wrong new points")
        elif S.delta(d_ids, b_ids) != (s, k):
            bad.append("delta(D/B) != (s, k)")
        elif not S.is_minimal_pair(b_ids, d_ids):
            bad.append("(B, D) is not a minimal pair")
        if not S.in_k_plus():
            bad.append("result is not hereditarily positive")
    else:
        gap = base.delta(b_ids, job["anchor"])
        p = n * gap[0] - m * gap[1]
        copies = out["copies"]
        flat = [i for c in copies for i in c]
        if len(copies) != p or any(len(c) != k for c in copies) or len(set(flat)) != len(flat):
            return bad + [f"expected {p} disjoint copies of {k} points"]
        if set(S.ids) != set(b_ids) | set(flat) or not set(flat) <= S.colored:
            bad.append("wrong points")
        for c in copies:
            if S.delta(c, b_ids) != (s, k):
                bad.append("a copy has delta(C/B) != (s, k)")
        star = b_ids + flat
        if alpha.sign(*S.delta(star, job["anchor"])) != 0:
            bad.append("delta(D*/A) != 0")
        width = len(base.vec[b_ids[0]]) if b_ids else 0
        if len(b_ids) == 1 and width == 1 and _blocks_disjoint(S, width, copies):
            if alpha.cmp(_free_union_min(S, b_ids[0], copies), (0, 0)) < 0:
                bad.append("free union is not hereditarily positive")
        elif not _closed(S, (), rng):
            bad.append("result is not hereditarily positive (sampled)")
    for c in out["checks"]:
        if not c["pass"]:
            bad.append(f"check {c['name']} failed")
    return bad


# -- query ------------------------------------------------------------------------


def check_query_job(job: dict, out: dict, S: Struct) -> list:
    bad = []
    alpha = S.alpha
    if out["in_k_plus"] != S.in_k_plus():
        bad.append("in_k_plus")
    want = S.closure(job["closure"])
    if set(out["closure"]) != want:
        bad.append(f"closure {out['closure']} != {sorted(want)}")
    if out["closed"] != S.is_closed(job["closed"]):
        bad.append("is_closed")
    (val, wit) = out["minrel"]
    best = S.min_rel(job["minrel"])[0]
    if alpha.cmp(tuple(val), best) != 0:
        bad.append(f"min_relative_delta value {val} != {best}")
    if alpha.cmp(S.delta(set(wit) | set(job["minrel"]), job["minrel"]), best) != 0:
        bad.append("min_relative_delta witness does not attain the minimum")
    if out["minimal_pair"] != S.is_minimal_pair(*job["pair"]):
        bad.append("is_minimal_pair")
    if job["dvalue"] is not None:
        if out["d_value"] is None or alpha.cmp(tuple(out["d_value"]), S.d_value(job["dvalue"])) != 0:
            bad.append("d_value")
    return bad


# -- generic ----------------------------------------------------------------------


def _embeds(src: Struct, dst: Struct, mapping: dict) -> bool:
    """mapping preserves colors and the rank of every subset of src."""
    ids = sorted(mapping)
    if len(set(mapping.values())) != len(ids) or not set(mapping.values()) <= set(dst.ids):
        return False
    if any((i in src.colored) != (mapping[i] in dst.colored) for i in ids):
        return False
    for size in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            if src.rank_of(combo) != dst.rank_of(mapping[i] for i in combo):
                return False
    return True


def check_generic_job(job: dict, out: dict, seed: Struct, catalog: dict, rng) -> list:
    bad = []
    text = out["saved"]
    obj = json.loads(text)
    if canonical(obj) != text or not out["reloaded_equal"]:
        bad.append("saved file is not canonical or does not round-trip")
    G = Struct(obj)
    if obj["alpha"] != seed.obj["alpha"]:
        bad.append("alpha changed")
    if not _embeds(seed, G, {i: i for i in seed.ids}):
        bad.append("seed does not embed identically")
    if not _closed(G, (), rng):
        bad.append("built structure is not hereditarily positive")
    if not _closed(G, seed.ids, rng):
        bad.append("seed is not closed in the built structure")
    audit = out["audit"]
    if audit["pass"] != all(t["extended"] for t in audit["tasks"]):
        bad.append("audit verdict disagrees with its tasks")
    if sorted(t["task"] for t in audit["tasks"]) != sorted(catalog):
        bad.append("audit did not answer every catalog task")
    for task in audit["tasks"]:
        spec = catalog.get(task["task"])
        if spec is None:
            continue
        big = Struct(spec["big"])
        small = spec["small"]
        if task["tried"] != len(task["outcomes"]):
            bad.append(f"{task['task']}: tried != outcomes")
        for o in task["outcomes"]:
            image = o["image"]
            if not _closed(G, image, rng):
                bad.append(f"{task['task']}: embedded image {image} is not closed")
            if not o["extended"]:
                continue
            ext = o["extension"]
            if set(ext) != set(big.ids) or [ext[i] for i in small] != image:
                bad.append(f"{task['task']}: extension does not extend {image}")
            elif not _embeds(big, G, ext):
                bad.append(f"{task['task']}: extension is not an embedding")
            elif not _closed(G, set(ext.values()), rng):
                bad.append(f"{task['task']}: extension image is not closed")
    return bad


# -- per workload -------------------------------------------------------------------


def check(workload: str, jobs: list, outputs: list, inputs: str, seed: int, extra: dict) -> list:
    """Problems found in one round's outputs; failed jobs are skipped."""
    rng = random.Random(f"check:{workload}:{seed}")
    problems = []
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if "error" in out:
            continue
        if workload == "chain":
            bad = check_chain_job(job, out, rng)
        elif workload == "rational":
            bad = check_rational_job(job, out, _load(inputs, job["structure"]), rng)
        elif workload == "query":
            bad = check_query_job(job, out, _load(inputs, job["structure"]))
        else:
            catalog = extra["catalogs"][str(i)]
            bad = check_generic_job(job, out, _load(inputs, job["structure"]), catalog, rng)
        problems += [f"job {i} ({job['kind']}): {b}" for b in bad]
    return problems


def exact_verdicts(workload: str, jobs: list, outputs: list) -> int:
    """Verdicts per round reached by an exact method: engine checks whose
    method is exhaustive or certified; for queries every answered question;
    for generic jobs every audited catalog task."""
    total = 0
    for job, out in zip(jobs, outputs):
        if "error" in out:
            continue
        if workload in ("chain", "rational"):
            total += sum(1 for c in out["checks"] if c["method"] in EXACT_METHODS)
        elif workload == "query":
            # five questions, and d_value where alpha is rational
            total += 5 + (out["d_value"] is not None)
        else:
            total += len(out["audit"]["tasks"])
    return total
