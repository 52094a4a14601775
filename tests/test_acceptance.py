"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expected values are frozen from independent oracles
(bitmask subset tables, linear scans, brute-force solvers) computed in
conftest.py or inline, never from the code paths under test.
"""

import itertools
import random
import time
from fractions import Fraction as F

from bicolor.amalgam import free_amalgam, verify_strong
from bicolor.closure import closure, d_value, is_closed, is_minimal_pair
from bicolor.colored import ColoredStructure, EmbeddingMap, delta, empty_structure, in_k_plus
from bicolor.construct import (
    delta_system_closed_root,
    minimal_pair_chain,
    rational_minimal_extension,
    transcendental_patch,
)
from bicolor.exactnum import (
    ApproximationPair,
    PreDimValue,
    QuadRat,
    compare,
    epsilon_bound,
)
from bicolor.pregeom import Backend, GroundElement, LINEAR, rank
from bicolor.workbench import audit_richness, build_generic, dumps, task_catalog

from conftest import (
    ALL_ALPHAS,
    ALPHA_HALF,
    ALPHA_INV_SQRT2,
    ALPHA_TWO_THIRDS,
    SubsetTable,
    brute_closure,
    random_k_plus_structure,
    random_structure,
)


def _report(name: str, ok: bool, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{verdict}] {name}: {elapsed:.1f}s (budget {budget:.0f}s)", flush=True)
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s"


def test_criterion_01_delta_algebra():
    rng = random.Random(101)
    t0 = time.time()
    violations = 0
    for i in range(1000):
        S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=8, max_dim=5)
        ids = list(S.ids_sorted)
        a = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        b = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        c = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        if delta(S, a | b, c) != delta(S, a, b | c) + delta(S, b, c):
            violations += 1
        lhs = delta(S, a | b) + delta(S, a & b)
        rhs = delta(S, a) + delta(S, b)
        if (rhs - lhs).sign(S.alpha) < 0:
            violations += 1
    _report("criterion 1: exact delta algebra", violations == 0, time.time() - t0, 10)


def test_criterion_02_oracle_equivalence():
    rng = random.Random(102)
    t0 = time.time()
    mismatches = 0
    for i in range(500):
        S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=8, max_dim=5, color_p=0.4)
        table = SubsetTable(S)
        brute_k = all(table.delta_sign(m) >= 0 for m in range(1 << table.n))
        if in_k_plus(S) != brute_k:
            mismatches += 1
        if brute_k:
            ids = list(S.ids_sorted)
            for _ in range(2):
                a = rng.sample(ids, rng.randint(0, len(ids)))
                if closure(a, S) != brute_closure(S, a, table):
                    mismatches += 1
    _report("criterion 2: closure / K+ oracle equivalence", mismatches == 0, time.time() - t0, 60)


def test_criterion_03_rational_pair_exactness():
    t0 = time.time()
    S = ColoredStructure(
        Backend(LINEAR, 1), (GroundElement("b", (F(1),)),), frozenset(), ALPHA_TWO_THIRDS
    )
    ok = True
    res0 = rational_minimal_extension([], ["b"], 0, S)
    ok &= res0.pair == ApproximationPair(1, 2)
    ok &= res0.delta_gap.value(S.alpha) == QuadRat.of(F(-1, 3))
    d_ids = {"b"} | set(res0.new_ids)
    ok &= is_minimal_pair(["b"], d_ids, res0.structure)
    # all intermediates re-checked exhaustively against the raw definition
    for size in range(1, len(res0.new_ids)):
        for combo in itertools.combinations(sorted(res0.new_ids), size):
            ok &= delta(res0.structure, combo, ["b"]).sign(S.alpha) >= 0
    res1 = rational_minimal_extension([], ["b"], 1, S)
    ok &= res1.pair == ApproximationPair(9, 14)
    ok &= res1.delta_gap.value(S.alpha) == QuadRat.of(F(-1, 3))
    ok &= len(res1.new_ids) == 14 > 1
    # brute-force pair-solver oracle for (9, 14): least k' with 4k' - 1 = 9s'
    brute = next(
        (kp, (4 * kp - 1) // 9)
        for kp in range(1, 100)
        if (4 * kp - 1) % 9 == 0 and (4 * kp - 1) // 9 >= 1
    )
    ok &= (brute[1] * 3, brute[0] * 2) == (9, 14)
    _report("criterion 3: rational pair exactness", ok, time.time() - t0, 30)


def test_criterion_04_dirichlet_patch_exactness():
    t0 = time.time()
    alpha = ALPHA_INV_SQRT2
    S = ColoredStructure(
        Backend(LINEAR, 1), (GroundElement("b", (F(1),)),), frozenset(), alpha
    )
    ok = True
    for eps, want in ((F(1, 3), (2, 3)), (F(1, 10), (7, 10))):
        # minimal-k scan oracle
        av = alpha.value()
        scan = None
        for k in range(2, 100):
            s = (av * k).floor()
            if s >= 1:
                frac = av * k - s
                if frac.sign() > 0 and (frac - QuadRat.of(eps)).sign() < 0:
                    scan = (s, k)
                    break
        ok &= scan == want
        res = transcendental_patch([], ["b"], eps, S)
        ok &= (res.pair.s, res.pair.k) == want
        gap = res.delta_gap.value(alpha)
        ok &= gap.sign() < 0 and (gap + QuadRat.of(eps)).sign() > 0
        d_b = delta(res.structure, ["b"])
        for size in range(1, res.pair.k):
            for combo in itertools.combinations(sorted(res.new_ids), size):
                d_mid = delta(res.structure, set(combo) | {"b"})
                ok &= compare(d_mid, d_b, alpha) >= 0
    _report("criterion 4: dirichlet patch exactness", ok, time.time() - t0, 30)


def test_criterion_05_chain():
    t0 = time.time()
    alpha = ALPHA_INV_SQRT2
    res = minimal_pair_chain(alpha, 3, 32)
    pairs = [(lv.pair.s, lv.pair.k) for lv in res.levels if lv.pair]
    ok = pairs == [(2, 3), (7, 10), (12, 17)]
    one = QuadRat.of(1)
    for lvl, (s, k) in enumerate(pairs, start=1):
        w = (one - alpha.value()) / (2**lvl)
        drop = PreDimValue(s, k).value(alpha)
        ok &= drop.sign() < 0 and (drop + w).sign() > 0
    for lo, hi in zip(res.levels, res.levels[1:]):
        ok &= is_minimal_pair(lo.d_ids, hi.d_ids, res.structure)
    methods = {c.name: c.method for c in res.checks}
    ok &= "sampled" not in methods.values() and methods["ambient_k_plus"] == "certified"
    _report("criterion 5: minimal-pair chain", ok, time.time() - t0, 120)


def test_criterion_06_amalgamation():
    rng = random.Random(106)
    t0 = time.time()
    failures = 0
    for i in range(300):
        alpha = ALL_ALPHAS[i % 4]
        M1 = random_k_plus_structure(rng, alpha, max_n=5, max_dim=3)
        ids = list(M1.ids_sorted)
        base = sorted(closure(rng.sample(ids, rng.randint(0, len(ids))), M1))
        M2 = M1.restrict(base)
        for j in range(rng.randint(0, 3)):
            dim = M2.backend.ambient_dim + 1
            vec = tuple([F(0)] * (dim - 1) + [F(1)])
            eid = f"n{j}"
            M2 = M2.extended(
                [GroundElement(eid, vec)],
                new_colored=(eid,) if rng.random() < 0.4 else (),
                widen_by=1,
            )
        try:
            res = free_amalgam(M1, M2, base, base, EmbeddingMap.identity(base))
        except Exception:
            failures += 1
            continue
        M = res.structure
        r = lambda T, xs: rank([T.element(x) for x in xs], T.backend)
        if not (
            in_k_plus(M)
            and verify_strong(res.left, M1, M)
            and verify_strong(res.right, M2, M)
            and r(M, M.id_set) == r(M1, M1.id_set) + r(M2, M2.id_set) - r(M1, base)
        ):
            failures += 1
    _report("criterion 6: amalgamation", failures == 0, time.time() - t0, 60)


def _delta_system_family(rng, alpha):
    """A K+ pool and 20 equal-size members mixing shared cores and spread."""
    k = rng.randint(1, 3)
    n_plain = 4
    n_col = 12
    dim = n_plain + n_col
    elems = []
    colored = []
    for i in range(n_plain):
        vec = [F(0)] * dim
        vec[i] = F(1)
        elems.append(GroundElement(f"p{i}", tuple(vec)))
    for i in range(n_col):
        vec = [F(0)] * dim
        vec[n_plain + i] = F(1)
        elems.append(GroundElement(f"c{i}", tuple(vec)))
        colored.append(f"c{i}")
    S = ColoredStructure(Backend(LINEAR, dim), tuple(elems), frozenset(colored), alpha)
    pool = [e.id for e in elems]
    core = rng.sample(pool, k - 1) if k > 1 and rng.random() < 0.5 else []
    family = []
    spread = [i for i in pool if i not in core]
    for m in range(20):
        if core and rng.random() < 0.6:
            member = set(core) | set(rng.sample(spread, k - len(core)))
        else:
            member = set(rng.sample(pool, k))
        family.append(frozenset(member))
    return S, family, k


def test_criterion_07_delta_system():
    rng = random.Random(107)
    t0 = time.time()
    failures = 0
    for i in range(200):
        alpha = ALL_ALPHAS[i % 4]
        S, family, k = _delta_system_family(rng, alpha)
        try:
            res = delta_system_closed_root(family, 3, S)
        except Exception:
            failures += 1
            continue
        ok = len(res.indices) >= 3
        for ii, jj in itertools.combinations(res.indices, 2):
            ok &= family[ii] & family[jj] == res.root
        for ii in res.indices:
            ok &= is_closed(res.root, S.restrict(family[ii]))
        if k == 1:
            bound = 0
        else:
            bound = (QuadRat.of(k) / epsilon_bound(k, alpha).value(alpha)).floor()
        ok &= res.discarded <= bound
        if not ok:
            failures += 1
    _report("criterion 7: delta systems", failures == 0, time.time() - t0, 60)


def test_criterion_08_d_dimension():
    rng = random.Random(108)
    t0 = time.time()
    failures = 0
    rationals = [a for a in ALL_ALPHAS if a.is_rational]
    for i in range(200):
        alpha = rationals[i % len(rationals)]
        S = random_k_plus_structure(rng, alpha, max_n=5, max_dim=4)
        ids = list(S.ids_sorted)
        for r in range(len(ids) + 1):
            for a in itertools.combinations(ids, r):
                got = d_value(a, S)  # internally asserts D = delta(closure)
                want = delta(S, closure(a, S))
                if compare(got, want, alpha) != 0:
                    failures += 1
    _report("criterion 8: D-dimension identity", failures == 0, time.time() - t0, 30)


def test_criterion_09_smooth_class():
    rng = random.Random(109)
    t0 = time.time()
    failures = 0
    for i in range(500):
        S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=4)
        ids = list(S.ids_sorted)
        ok = is_closed([], S) and is_closed(ids, S)
        z = closure(rng.sample(ids, rng.randint(0, len(ids))), S)
        sub = S.restrict(z)
        y = closure(rng.sample(sorted(z), rng.randint(0, len(z))), sub)
        ok &= is_closed(y, S)  # transitivity
        mid = set(y) | set(rng.sample(ids, rng.randint(0, len(ids))))
        ok &= is_closed(y, S.restrict(mid))  # restriction to intermediates
        w = set(rng.sample(ids, rng.randint(0, len(ids))))
        ok &= is_closed(set(y) & w, S.restrict(w))  # trace axiom
        x2 = closure(rng.sample(ids, rng.randint(0, len(ids))), S)
        ok &= is_closed(z & x2, S)  # closed intersection
        if not ok:
            failures += 1
    _report("criterion 9: smooth-class axioms", failures == 0, time.time() - t0, 60)


def test_criterion_10_generic_build():
    t0 = time.time()
    seed = empty_structure(ALPHA_HALF, ambient=0)
    built = build_generic(seed, 50, 2, 20240808)
    rep = audit_richness(built, 1)
    ok = rep.passed
    ok &= all(out.extended for t in rep.tasks for out in t.outcomes)
    ok &= len(rep.tasks) == len(task_catalog(ALPHA_HALF, 1))
    rebuilt = build_generic(seed, 50, 2, 20240808)
    ok &= dumps(built) == dumps(rebuilt)
    _report("criterion 10: generic build + audit", ok, time.time() - t0, 120)
