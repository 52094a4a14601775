"""Tests of the benchmark's oracle and checkers.

    python3 -m pytest bench/test_bench.py -q

The oracle is compared with plain definitions; each checker is fed real
program outputs (produced by the worker on small job lists), must accept
them, and must reject every perturbed answer.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from oracle import Coef, Struct, canonical, chain_window_pair, rational_pair_brute  # noqa: E402


def _gauss_rank(vecs) -> int:
    """Textbook Gauss-Jordan rank over Fraction, the reference for the oracle."""
    rows = [list(v) for v in vecs]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _random_struct(rng, alpha, n, dim, color_p=0.5):
    triples = []
    for i in range(n):
        vec = [Fraction(rng.randint(-2, 3), rng.choice([1, 1, 2])) for _ in range(dim)]
        if not any(vec):
            vec[0] = Fraction(1)
        triples.append((f"x{i}", vec, rng.random() < color_p))
    return Struct(oracle.structure_obj(alpha, dim, triples))


# -- the oracle -------------------------------------------------------------------


def test_sign_matches_floats_away_from_ties():
    rng = random.Random(1)
    for alpha in (gen.INV_SQRT2, gen.ONE_PLUS_SQRT3_OVER_6, gen.SQRT2_MINUS_1, gen.TWO_THIRDS):
        coef = Coef(alpha)
        if coef.rational:
            value = coef.num / coef.den
        else:
            value = (coef.a + coef.b * math.sqrt(coef.d)) / coef.c
        for _ in range(2000):
            d, c = rng.randint(-40, 40), rng.randint(-40, 40)
            x = d - value * c
            if abs(x) > 1e-9:
                assert coef.sign(d, c) == (1 if x > 0 else -1)
            elif coef.rational:
                assert coef.sign(d, c) == 0
        for k in range(1, 3000):
            x = k * value
            if abs(x - round(x)) > 1e-9:
                assert coef.floor_times(k) == math.floor(x)


def test_window_and_rational_pairs():
    root2 = Coef(gen.INV_SQRT2)
    assert [chain_window_pair(root2, lvl) for lvl in (1, 2, 3, 4)] == [
        (2, 3), (7, 10), (12, 17), (41, 58)
    ]
    other = Coef(gen.ONE_PLUS_SQRT3_OVER_6)
    assert [chain_window_pair(other, lvl) for lvl in (1, 2, 3)] == [(3, 7), (4, 9), (5, 11)]
    assert rational_pair_brute(2, 3, 0) == (1, 2)
    assert rational_pair_brute(2, 3, 1) == (9, 14)
    assert rational_pair_brute(1, 2, 1) == (2, 5)
    assert rational_pair_brute(1, 2, 2) == (4, 9)


def test_tables_match_plain_rank():
    rng = random.Random(2)
    for trial in range(40):
        S = _random_struct(rng, gen.HALF, rng.randint(1, 8), rng.randint(1, 4))
        x = rng.sample(S.ids, rng.randint(0, min(2, len(S.ids))))
        cand = [i for i in S.ids if i not in x]
        t = S.table(x, cand)
        xv = [S.vec[i] for i in x]
        for mask in range(1 << len(cand)):
            chosen = [S.vec[c] for j, c in enumerate(cand) if mask >> j & 1]
            want = _gauss_rank(xv + chosen) - _gauss_rank(xv) if chosen else 0
            assert t.dims[mask] == want
            assert oracle.rank(chosen) == (_gauss_rank(chosen) if chosen else 0)


def test_closure_is_least_closed_superset():
    rng = random.Random(3)
    done = 0
    while done < 25:
        S = _random_struct(rng, gen.TWO_THIRDS, rng.randint(2, 7), rng.randint(1, 3), 0.6)
        if not S.in_k_plus():
            continue
        done += 1
        ids = S.ids
        closed = [frozenset(c) for r in range(len(ids) + 1) for c in itertools.combinations(ids, r)
                  if S.is_closed(c)]
        for _ in range(3):
            a = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            want = frozenset(ids)
            for c in closed:
                if a <= c:
                    want &= c
            assert S.closure(a) == want


# -- checkers reject perturbed answers ------------------------------------------------


def _run_jobs(tmp_path, workload, select):
    """Run the worker once over select(generated jobs); (jobs, result, inputs)."""
    inputs = str(tmp_path / "inputs")
    jobs = select(gen.make(workload, 7, inputs))
    with open(os.path.join(inputs, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    result = str(tmp_path / "result.json")
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), ROOT, inputs, "run", "0", result],
        check=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    with open(result, encoding="utf-8") as fh:
        return jobs, json.load(fh), inputs


def _assert_rejects(workload, jobs, res, inputs, perturb):
    outputs = res["outputs"]
    assert checks.check(workload, jobs, outputs, inputs, 7, res) == []
    for name, fn in perturb.items():
        bad = copy.deepcopy(outputs)
        fn(bad)
        assert checks.check(workload, jobs, bad, inputs, 7, res), f"{name} was accepted"


def _elem(obj, eid):
    return next(e for e in obj["elements"] if e["id"] == eid)


def test_chain_checker(tmp_path):
    jobs, res, inputs = _run_jobs(tmp_path, "chain", lambda jobs: [jobs[1]])  # 1/sqrt(2), depth 2

    def set_pair(o):
        o[0]["levels"][2]["pair"] = [6, 9]

    def uncolor(o):
        _elem(o[0]["structure"], "f1")["colored"] = False

    def into_base(o):  # f2 falls into span(D_1): a negative proper subset
        vec = _elem(o[0]["structure"], "f2")["vec"]
        vec[:] = ["1"] + ["0"] * (len(vec) - 1)

    def duplicate(o):
        s = o[0]["structure"]
        _elem(s, "f3")["vec"] = list(_elem(s, "f2")["vec"])

    def fail_check(o):
        o[0]["checks"][0]["pass"] = False

    _assert_rejects(
        "chain", jobs, res, inputs,
        {"pair": set_pair, "color": uncolor, "payload": into_base, "duplicate": duplicate,
         "check": fail_check},
    )


def test_rational_checker(tmp_path):
    # t = 0 gives the pair (1, 2): the same checks at desk scale.
    jobs, res, inputs = _run_jobs(tmp_path, "rational", lambda jobs: [dict(j, t=0) for j in jobs])

    def more_copies(o):
        o[0]["copies"].append(o[0]["copies"][0])

    def _fresh_column(s, eid):
        return next(j for j, x in enumerate(_elem(s, eid)["vec"]) if j and x != "0")

    def cross_blocks(o):  # a point of copy 1 reaches into copy 0's column
        s = o[0]["structure"]
        col = _fresh_column(s, o[0]["copies"][0][0])
        _elem(s, o[0]["copies"][1][0])["vec"][col] = "1"

    def collapse(o):
        s = o[0]["structure"]
        a, b = o[0]["copies"][0][0], o[0]["copies"][1][0]
        _elem(s, b)["vec"] = list(_elem(s, a)["vec"])

    def wrong_pair(o):
        o[1]["pair"] = [2, 3]

    def plain_point(o):
        _elem(o[1]["structure"], o[1]["new_ids"][0])["colored"] = False

    _assert_rejects(
        "rational", jobs, res, inputs,
        {"copies": more_copies, "blocks": cross_blocks, "k_plus": collapse, "pair": wrong_pair,
         "color": plain_point},
    )


def test_query_checker(tmp_path):
    jobs, res, inputs = _run_jobs(tmp_path, "query", lambda jobs: jobs)
    outs = res["outputs"]
    rational = next(i for i, j in enumerate(jobs) if j["dvalue"] is not None)
    grown = next(i for i, (j, o) in enumerate(zip(jobs, outs)) if set(o["closure"]) != set(j["closure"]))
    witnessed = next(i for i, o in enumerate(outs) if o["minrel"][1])
    with open(os.path.join(inputs, jobs[0]["structure"]), encoding="utf-8") as fh:
        ids0 = [e["id"] for e in json.load(fh)["elements"]]

    def flip(key):
        def fn(o):
            o[0][key] = not o[0][key]
        return fn

    def shrink_closure(o):
        o[grown]["closure"] = jobs[grown]["closure"]

    def grow_closure(o):
        extra = sorted(set(ids0) - set(o[0]["closure"]))
        o[0]["closure"] = sorted(o[0]["closure"] + extra[:1])

    def minrel_value(o):
        o[0]["minrel"][0][0] -= 1

    def minrel_witness(o):
        o[witnessed]["minrel"][1] = []

    def dvalue(o):
        o[rational]["d_value"][0] += 1

    _assert_rejects(
        "query", jobs, res, inputs,
        {
            "in_k_plus": flip("in_k_plus"),
            "closed": flip("closed"),
            "minimal_pair": flip("minimal_pair"),
            "closure_small": shrink_closure,
            "closure_big": grow_closure,
            "minrel_value": minrel_value,
            "minrel_witness": minrel_witness,
            "d_value": dvalue,
        },
    )


def test_generic_checker(tmp_path):
    jobs, res, inputs = _run_jobs(tmp_path, "generic", lambda jobs: jobs[:3])
    with open(os.path.join(inputs, jobs[0]["structure"]), encoding="utf-8") as fh:
        seed0 = json.load(fh)

    def _edit_saved(o, idx, fn):
        obj = json.loads(o[idx]["saved"])
        fn(obj)
        o[idx]["saved"] = canonical(obj)

    def spaces(o):
        o[0]["saved"] = o[0]["saved"].replace(",", ", ", 1)

    def seed_color(o):
        eid = seed0["elements"][0]["id"]
        _edit_saved(o, 0, lambda obj: _elem(obj, eid).__setitem__("colored", not _elem(obj, eid)["colored"]))

    def collapse(o):  # alpha = 2/3: two equal colored points have delta < 0
        def fn(obj):
            cols = [e for e in obj["elements"] if e["colored"]]
            for e in cols[1:]:
                e["vec"] = list(cols[0]["vec"])
        _edit_saved(o, 1, fn)

    def verdict(o):
        o[2]["audit"]["pass"] = not o[2]["audit"]["pass"]

    def recolor_extension(o):
        G = json.loads(o[0]["saved"])
        color = {e["id"]: e["colored"] for e in G["elements"]}
        for task in o[0]["audit"]["tasks"]:
            for out in task["outcomes"]:
                ext = out["extension"]
                if ext:
                    key = sorted(ext)[-1]
                    used = set(ext.values())
                    ext[key] = next(i for i in sorted(color)
                                    if i not in used and color[i] != color[ext[key]])
                    return
        raise AssertionError("no extension to perturb")

    def drop_task(o):
        o[1]["audit"]["tasks"].pop()

    _assert_rejects(
        "generic", jobs, res, inputs,
        {"canonical": spaces, "seed": seed_color, "k_plus": collapse, "verdict": verdict,
         "extension": recolor_extension, "tasks": drop_task},
    )


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_inputs_depend_only_on_seed(tmp_path, workload):
    a = gen.make(workload, 3, str(tmp_path / "a"))
    b = gen.make(workload, 3, str(tmp_path / "b"))
    assert a == b
    for name in sorted(os.listdir(tmp_path / "a")):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
