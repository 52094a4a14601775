"""Seeded input generator for the four benchmark workloads.

Every input reaches the program as a canonical structure file plus a job
list (`jobs.json`); the generator never imports `bicolor`.

Each job slot has a template: its coefficient, shape, element names, the
questions asked of it and `build_generic`'s shuffle seed, all drawn once from a
generator keyed by the slot alone.  The run seed then changes the payloads:
a random signed permutation of the coordinates and a random sign per
element.  Those keep every rank and every entry's size, so every answer,
every search path and nearly every arithmetic cost, while the program still
reads different files.  Seed-dependent shapes, or payloads scaled by other
factors, moved single jobs by up to 3.6x between seeds, more than the
benchmark's bounds allow.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from oracle import Coef, Struct, canonical, chain_window_pair, rank, rational_pair_brute, structure_obj

HALF = {"kind": "rational", "num": 1, "den": 2}
TWO_THIRDS = {"kind": "rational", "num": 2, "den": 3}
THREE_FIFTHS = {"kind": "rational", "num": 3, "den": 5}
INV_SQRT2 = {"kind": "quadratic", "a": 0, "b": 1, "c": 2, "d": 2}
INV_SQRT3 = {"kind": "quadratic", "a": 0, "b": 1, "c": 3, "d": 3}
SQRT2_MINUS_1 = {"kind": "quadratic", "a": -1, "b": 1, "c": 1, "d": 2}
INV_SQRT5 = {"kind": "quadratic", "a": 0, "b": 1, "c": 5, "d": 5}
# (1 + sqrt(3))/6: its depth-3 chain has levels of 7, 9 and 11 points and
# an ambient K+ search that outgrows the engines' 150k-node budget.
ONE_PLUS_SQRT3_OVER_6 = {"kind": "quadratic", "a": 1, "b": 1, "c": 6, "d": 3}

CHAIN_JOBS = [
    {"kind": "chain", "alpha": ONE_PLUS_SQRT3_OVER_6, "depth": 3, "ambient": 32},
    {"kind": "chain", "alpha": INV_SQRT2, "depth": 2, "ambient": 32},
]
GENERIC_JOBS = 24
GENERIC_STEPS = 50


def _moment_rows(basis_vecs, count: int, lam_start: int):
    """Row for lambda is sum_i lambda^i * basis_vecs[i]."""
    rows = []
    for lam in range(lam_start, lam_start + count):
        acc = [Fraction(0)] * len(basis_vecs[0])
        power = 1
        for vec in basis_vecs:
            acc = [a + power * v for a, v in zip(acc, vec)]
            power *= lam
        rows.append(acc)
    return rows


def _unit(n: int, i: int) -> list:
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def _window_pair(coef: Coef, q: int) -> tuple:
    """Least-k (s, k) with s = floor(k*alpha) >= 1 and 0 < k*alpha - s < 1/q."""
    for k in range(2, 10**4):
        s = coef.floor_times(k)
        if s >= 1 and coef.sign(s, k) < 0 and coef.sign(1 + q * s, q * k) > 0:
            return s, k
    raise ValueError("no window pair")


def chain_shape(alpha: dict, depth: int, rng: random.Random):
    """Tower d0 < D1 < ... in the layout of the chain engine: each level adds
    s unit e-points on fresh axes and k - s moment-curve f-points over the
    level below plus those axes, all colored.  Returns (elements, ambient,
    level id lists)."""
    coef = Coef(alpha)
    pairs = [chain_window_pair(coef, lvl) for lvl in range(1, depth + 1)]
    ambient = 1 + sum(s for s, _ in pairs)
    scale = Fraction(rng.choice([1, 2, 3]))
    elems = {"d0": ([scale] + [Fraction(0)] * (ambient - 1), False)}
    levels = [["d0"]]
    used, lam, ecount, fcount = 1, 1 + rng.randrange(3), 1, 1
    for s, k in pairs:
        prev = levels[-1]
        e_ids = [f"e{ecount + i}" for i in range(s)]
        ecount += s
        for i, eid in enumerate(e_ids):
            elems[eid] = (_unit(ambient, used + i), True)
        used += s
        seen = []
        for eid in sorted(prev):
            if rank([elems[x][0] for x in seen + [eid]]) > len(seen):
                seen.append(eid)
        basis = [elems[x][0] for x in seen] + [elems[x][0] for x in e_ids]
        f_ids = [f"f{fcount + i}" for i in range(k - s)]
        fcount += k - s
        for fid, row in zip(f_ids, _moment_rows(basis, k - s, lam)):
            elems[fid] = (row, True)
        lam += k - s
        levels.append(sorted(prev + e_ids + f_ids))
    triples = [(eid, v, c) for eid, (v, c) in elems.items()]
    return triples, ambient, levels


def patch_shape(alpha: dict, r: int, s: int, k: int, rng: random.Random):
    """r independent plain base points plus k colored moment-curve points over
    the base and s fresh axes (the layout of the patch engines)."""
    ambient = r + s
    while True:
        base = [[Fraction(rng.randint(-2, 3)) for _ in range(r)] for _ in range(r)]
        if rank(base) == r:
            break
    base = [v + [Fraction(0)] * s for v in base]
    axes = [_unit(ambient, r + i) for i in range(s)]
    rows = _moment_rows(base + axes, k, 1 + rng.randrange(3))
    b_ids = [f"b{i + 1}" for i in range(r)]
    p_ids = [f"p{i + 1}" for i in range(k)]
    triples = [(i, v, False) for i, v in zip(b_ids, base)]
    triples += [(i, v, True) for i, v in zip(p_ids, rows)]
    return triples, ambient, b_ids, p_ids


def random_k_plus(alpha: dict, n: int, dim: int, color_p: float, rng: random.Random):
    """Rejection-sample a hereditarily positive structure (oracle-checked)."""
    while True:
        triples = []
        for i in range(n):
            while True:
                vec = [Fraction(rng.randint(-2, 3)) for _ in range(dim)]
                if any(vec):
                    break
            triples.append((f"x{i}", vec, rng.random() < color_p))
        obj = structure_obj(alpha, dim, triples)
        if Struct(obj).in_k_plus():
            return obj


def _template_rng(workload: str, slot: int) -> random.Random:
    return random.Random(f"{workload}-template-{slot}")


def disguise(triples, ambient: int, rng: random.Random):
    """Same matroid and colors, other payloads: a signed coordinate
    permutation and a sign per element."""
    perm = list(range(ambient))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(ambient)]
    out = []
    for eid, vec, colored in triples:
        scale = rng.choice((1, -1))
        new = [Fraction(0)] * ambient
        for j, x in enumerate(vec):
            new[perm[j]] = signs[j] * scale * x
        out.append((eid, new, colored))
    return out


def _write(outdir: str, name: str, obj: dict) -> str:
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(canonical(obj))
    return name


# -- workloads ------------------------------------------------------------------


def chain_jobs(rng: random.Random, outdir: str) -> list:
    return [dict(j) for j in CHAIN_JOBS]


def rational_jobs(rng: random.Random, outdir: str) -> list:
    """rational_zero_extension and rational_minimal_extension at t = 1 and
    alpha = 2/3 over a one-point plain base (seeded payload)."""
    bid = "b"
    obj = structure_obj(TWO_THIRDS, 1, [(bid, [Fraction(rng.choice([1, 2, -1, -2]))], False)])
    name = _write(outdir, "base.json", obj)
    common = {"structure": name, "anchor": [], "base": [bid], "t": 1}
    return [dict(kind="ratzero", **common), dict(kind="ratmin", **common)]


SQRT5_OVER_4 = {"kind": "quadratic", "a": 0, "b": 1, "c": 4, "d": 5}
SQRT3_OVER_4 = {"kind": "quadratic", "a": 0, "b": 1, "c": 4, "d": 3}
# The query corpus, one entry per file:
#   ("patch", alpha, base rank, t) for rational alpha (rational pair at t),
#   ("patch", alpha, base rank, q) for irrational alpha (Dirichlet eps = 1/q),
#   ("chain", alpha) for a depth-2 chain,
#   ("random", alpha, points, dimension, color probability).
# Equal entries share their template (shape and questions) and differ only
# in payloads.  Job times span three orders of magnitude, so the corpus has
# ten cheap files, ten expensive ones and, between them, ten copies of one
# medium query: the median job is then that query, and not whichever of two
# unlike files happens to sit in the middle.
QUERY_MEDIAN = ("patch", INV_SQRT5, 1, 10)
QUERY_SLOTS = [
    # under about 60 ms here
    ("patch", INV_SQRT2, 1, 3),
    ("patch", SQRT2_MINUS_1, 1, 10),
    ("patch", SQRT2_MINUS_1, 2, 10),
    ("patch", INV_SQRT3, 2, 10),
    ("patch", HALF, 2, 2),
    ("patch", TWO_THIRDS, 2, 0),
    ("chain", SQRT2_MINUS_1),
    ("random", HALF, 12, 4, 0.5),
    ("random", TWO_THIRDS, 12, 4, 0.4),
    ("random", THREE_FIFTHS, 13, 5, 0.45),
] + [QUERY_MEDIAN] * 10 + [
    # about 200 ms and more here
    ("chain", INV_SQRT5),
    ("chain", INV_SQRT5),
    ("chain", SQRT5_OVER_4),
    ("chain", SQRT5_OVER_4),
    ("chain", SQRT3_OVER_4),
    ("patch", INV_SQRT2, 2, 10),
    ("patch", INV_SQRT2, 2, 10),
    ("patch", INV_SQRT2, 1, 10),
    ("patch", INV_SQRT2, 1, 10),
    ("chain", INV_SQRT2),
]


def _pick(rng, pool, lo, hi):
    return sorted(rng.sample(pool, rng.randint(lo, min(hi, len(pool)))))


def query_jobs(rng: random.Random, outdir: str) -> list:
    """Corpus of structures of at most 15 elements: patch layouts, depth-2
    chain layouts and random K+ structures; each gets its own questions."""
    jobs = []
    for i, (kind, alpha, *par) in enumerate(QUERY_SLOTS):
        trng = random.Random(repr(QUERY_SLOTS[i]))
        if kind == "patch":
            r, q = par
            if alpha["kind"] == "rational":
                s, k = rational_pair_brute(alpha["num"], alpha["den"], q)
            else:
                s, k = _window_pair(Coef(alpha), q)
            triples, ambient, small, extra = patch_shape(alpha, r, s, k, trng)
            pair = (small, small + extra)
        elif kind == "chain":
            triples, ambient, levels = chain_shape(alpha, 2, trng)
            lo = i % 2
            pair = (levels[lo], levels[lo + 1])
        else:
            n, ambient, p = par
            obj = random_k_plus(alpha, n, ambient, p, trng)
            triples = [(e["id"], [Fraction(x) for x in e["vec"]], e["colored"]) for e in obj["elements"]]
            ids = [t[0] for t in triples]
            small = _pick(trng, ids, 0, 2)
            rest = [x for x in ids if x not in small]
            pair = (small, sorted(small + _pick(trng, rest, 1, 3)))
        ids = sorted(t[0] for t in triples)
        jobs.append(
            {
                "kind": "query",
                "structure": f"q{i:03d}.json",
                "closure": _pick(trng, ids, 1, 2),
                "closed": _pick(trng, ids, 0, 3),
                "minrel": _pick(trng, ids, 0, 2),
                "pair": [sorted(pair[0]), sorted(pair[1])],
                "dvalue": _pick(trng, ids, 1, 2) if alpha["kind"] == "rational" else None,
            }
        )
        _write(outdir, jobs[-1]["structure"], structure_obj(alpha, ambient, disguise(triples, ambient, rng)))
    return jobs


GENERIC_ALPHAS = [HALF, TWO_THIRDS, INV_SQRT2]
# Seed shapes (n, dim, color probability), one per job slot; the payloads
# are random.
GENERIC_SHAPES = [(1, 1, 0.5), (2, 2, 0.4), (3, 2, 0.35), (4, 3, 0.35)]


def generic_jobs(rng: random.Random, outdir: str) -> list:
    """build_generic from small random K+ seeds, then audit_richness at the
    build budget and a save/load round trip."""
    jobs = []
    for i in range(GENERIC_JOBS):
        alpha = GENERIC_ALPHAS[i % 3]
        budget = 4 + (i // 3) % 2
        n, dim, p = GENERIC_SHAPES[(i // 6) % len(GENERIC_SHAPES)]
        trng = _template_rng("generic", i)
        obj = random_k_plus(alpha, n, dim, p, trng)
        triples = [(e["id"], [Fraction(x) for x in e["vec"]], e["colored"]) for e in obj["elements"]]
        name = _write(outdir, f"seed{i:02d}.json", structure_obj(alpha, dim, disguise(triples, dim, rng)))
        jobs.append(
            {
                "kind": "generic",
                "structure": name,
                "steps": GENERIC_STEPS,
                "budget": budget,
                "rng": trng.randrange(1 << 30),
            }
        )
    return jobs


WORKLOADS = {
    "chain": chain_jobs,
    "rational": rational_jobs,
    "query": query_jobs,
    "generic": generic_jobs,
}


def make(workload: str, seed: int, outdir: str) -> list:
    """Write the workload's inputs under outdir and return its job list."""
    os.makedirs(outdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng, outdir)
    with open(os.path.join(outdir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(jobs, fh, sort_keys=True)
    return jobs
